// Length-prefixed framing for the fleet controller's worker links.
//
// The shard layer's v2 documents (wbshard-spec / wbshard-result, see
// src/wb/shard.h) are self-describing text — the ROADMAP's observation is
// that length-prefixing them is all it takes to move them over a byte
// stream. A frame is one ASCII header line followed by an exact payload:
//
//   wbframe v1 <type> <length>\n<length bytes of payload>
//
// where <type> is one of the tokens below and <length> is the decimal
// payload size. The header is bounded (kMaxHeaderBytes) and the payload is
// capped (kMaxFramePayload), so a garbage, truncated, or hostile length
// prefix is rejected with a wb::DataError diagnostic — never a hang, an
// unbounded allocation, or a crash (tests/fleet/transport_test.cpp pins the
// rejection cases next to the shard layer's v2 ones).
//
// FrameDecoder is incremental: feed() whatever bytes poll()+read() produced,
// next() pops complete frames. That is the controller's consumption shape —
// one decoder per worker pipe, fed nonblockingly. The blocking read_frame /
// write_frame helpers are the worker-process side, where stdin/stdout are a
// dedicated control channel and blocking is correct.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/support/check.h"

namespace wb::fleet {

/// IO-level stream failure: EOF mid-frame, a dead peer, a read or write
/// error. Distinct from plain wb::DataError (malformed framing) because the
/// two demand different responses from a socket worker — a lost link is
/// redialed, a peer that sent garbage is abandoned. Callers that treat both
/// the same can keep catching DataError.
class StreamError : public DataError {
 public:
  explicit StreamError(const std::string& what) : DataError(what) {}
};

/// Frame vocabulary of the controller<->worker protocol:
///   controller -> worker: kSpec (a serialized wbshard-spec to sweep),
///                         kAck (the worker's last result was consumed —
///                         merged or deliberately discarded — so the worker
///                         may drop its redelivery copy), kShutdown (drain
///                         and exit)
///   worker -> controller: kHello (alive, ready for work; payload is a
///                         hello document, see HelloInfo), kHeartbeat
///                         (still sweeping), kResult (a serialized
///                         wbshard-result), kError (sweep failed; payload is
///                         the diagnostic)
enum class FrameType : std::uint8_t {
  kHello,
  kSpec,
  kResult,
  kHeartbeat,
  kShutdown,
  kError,
  kAck,
};

[[nodiscard]] std::string_view to_string(FrameType type);
/// Throws wb::DataError on a token that is not a frame type.
[[nodiscard]] FrameType frame_type_from_string(std::string_view token);

struct Frame {
  FrameType type = FrameType::kHello;
  std::string payload;
  friend bool operator==(const Frame&, const Frame&) = default;
};

/// Header line bound: "wbframe v1 heartbeat 268435456\n" is 31 bytes; 64
/// leaves headroom without letting a stream that never sends '\n' buffer
/// forever.
inline constexpr std::size_t kMaxHeaderBytes = 64;
/// Payload cap. The largest legitimate frame is an exact-mode result at the
/// default 2M-execution budget (~75 MiB of hash lines); 256 MiB bounds the
/// allocation a corrupt or hostile length prefix can demand.
inline constexpr std::size_t kMaxFramePayload = 256u << 20;

/// The canonical wire form: header line + payload, exactly as specified
/// above. Throws wb::LogicError if payload exceeds kMaxFramePayload (a
/// sender bug, not a data error).
[[nodiscard]] std::string encode_frame(const Frame& frame);

/// Incremental frame parser. feed() buffers bytes; next() pops the earliest
/// complete frame, or std::nullopt when more bytes are needed. Malformed
/// input — bad magic, unsupported version, unknown type, non-numeric or
/// oversized length, an unterminated header — throws wb::DataError from
/// next(); the decoder is then poisoned (every later call rethrows), because
/// a framing error leaves no way to resynchronize the stream.
class FrameDecoder {
 public:
  void feed(const char* data, std::size_t n) { buffer_.append(data, n); }
  void feed(std::string_view data) { buffer_.append(data); }

  [[nodiscard]] std::optional<Frame> next();

  /// True when no partial frame is buffered — EOF here is a clean close;
  /// EOF with idle() false means the peer died mid-frame.
  [[nodiscard]] bool idle() const { return buffer_.empty() && !poisoned_; }

  [[nodiscard]] std::size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::string buffer_;
  bool poisoned_ = false;
  std::string poison_reason_;
};

// --- the hello handshake document -------------------------------------------

/// What a worker announces about itself in its hello frame, as the
/// document
///
///   wbhello v2
///   host <hostname>
///   pid <pid>
///   threads <n>
///   heartbeat-ms <n>
///
/// It carries the worker's identity (host + pid — stable across redials of
/// one process, so a reconnecting worker is re-admitted instead of treated
/// as a stranger) and its heartbeat interval, which the controller
/// validates against its own --heartbeat-timeout-ms at handshake time: a
/// pair that would flap between suspect and rehabilitated is refused up
/// front.
///
/// A "wbhello" document of any other version is rejected (version skew —
/// an old controller must refuse a future worker loudly, not misparse it).
/// Unknown keys are ignored, so v2 can grow fields.
struct HelloInfo {
  std::string host;
  std::int64_t pid = -1;
  std::size_t threads = 0;         // sweep threads the worker will use
  std::int64_t heartbeat_ms = -1;  // 0 disabled

  /// "host/pid" — the reconnect-recognition key.
  [[nodiscard]] std::string identity() const;

  friend bool operator==(const HelloInfo&, const HelloInfo&) = default;
};

inline constexpr int kHelloVersion = 2;

/// The document above.
[[nodiscard]] std::string serialize_hello(const HelloInfo& info);

/// Parse a hello frame payload. Throws wb::DataError on any payload that is
/// not a "wbhello v2" document with its host and pid lines.
[[nodiscard]] HelloInfo parse_hello(std::string_view payload);

#if defined(__unix__) || defined(__APPLE__)
#define WB_FLEET_HAS_PROCESSES 1

/// Make writes to a closed pipe fail with EPIPE instead of killing the
/// process with SIGPIPE. Idempotent; call once per process before using the
/// fd helpers below.
void ignore_sigpipe();

/// Blocking read of the next frame from `fd` through `decoder`. Returns
/// std::nullopt on EOF at a frame boundary. Throws StreamError on EOF
/// mid-frame or a read error, plain wb::DataError on malformed framing.
/// EAGAIN on a non-blocking fd is waited out with poll(), so the helper is
/// safe on the controller's non-blocking socket fds too.
[[nodiscard]] std::optional<Frame> read_frame(int fd, FrameDecoder& decoder);

/// Write one frame to `fd`, retrying short writes. On a non-blocking fd a
/// full buffer is waited out with poll() up to kWriteStallTimeoutMs — a peer
/// that stops reading for longer is indistinguishable from a severed link
/// and fails the write. Throws StreamError when the peer is gone (EPIPE),
/// the fd errors out, or the stall timeout passes.
void write_frame(int fd, const Frame& frame);

/// How long write_frame tolerates a full kernel buffer on a non-blocking fd
/// before declaring the link dead.
inline constexpr int kWriteStallTimeoutMs = 10000;

#else
#define WB_FLEET_HAS_PROCESSES 0
#endif

}  // namespace wb::fleet
