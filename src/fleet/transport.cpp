#include "src/fleet/transport.h"

#include <charconv>

#include "src/support/check.h"

#if WB_FLEET_HAS_PROCESSES
#include <cerrno>
#include <csignal>
#include <cstring>
#include <poll.h>
#include <unistd.h>
#endif

namespace wb::fleet {

namespace {

constexpr std::string_view kMagic = "wbframe";
constexpr std::string_view kVersion = "v1";

constexpr std::string_view kTypeNames[] = {
    "hello", "spec", "result", "heartbeat", "shutdown", "error", "ack",
};

constexpr std::string_view kHelloMagic = "wbhello";

}  // namespace

std::string_view to_string(FrameType type) {
  const auto index = static_cast<std::size_t>(type);
  WB_CHECK_MSG(index < std::size(kTypeNames), "invalid FrameType");
  return kTypeNames[index];
}

FrameType frame_type_from_string(std::string_view token) {
  for (std::size_t i = 0; i < std::size(kTypeNames); ++i) {
    if (token == kTypeNames[i]) return static_cast<FrameType>(i);
  }
  throw DataError("unknown frame type '" + std::string(token) +
                  "' — expected hello|spec|result|heartbeat|shutdown|error|"
                  "ack");
}

std::string HelloInfo::identity() const {
  return host + "/" + std::to_string(pid);
}

std::string serialize_hello(const HelloInfo& info) {
  WB_CHECK_MSG(!info.host.empty() && info.host.find('\n') == std::string::npos,
               "hello host must be a non-empty single line");
  std::string out;
  out.append(kHelloMagic);
  out.append(" v2\n");
  out.append("host ");
  out.append(info.host);
  out.append("\npid ");
  out.append(std::to_string(info.pid));
  out.append("\nthreads ");
  out.append(std::to_string(info.threads));
  out.append("\nheartbeat-ms ");
  out.append(std::to_string(info.heartbeat_ms));
  out.append("\n");
  return out;
}

HelloInfo parse_hello(std::string_view payload) {
  HelloInfo info;
  const std::size_t magic_len = kHelloMagic.size();
  WB_REQUIRE_MSG(payload.substr(0, magic_len) == kHelloMagic &&
                     payload.size() > magic_len && payload[magic_len] == ' ',
                 "a hello payload must be a wbhello v"
                     << kHelloVersion
                     << " document — refusing an anonymous worker");
  const std::size_t first_newline = payload.find('\n');
  const std::string_view version_token = payload.substr(
      magic_len + 1, (first_newline == std::string_view::npos
                          ? payload.size()
                          : first_newline) -
                         magic_len - 1);
  WB_REQUIRE_MSG(version_token == "v2",
                 "unsupported hello version '"
                     << version_token << "' (this controller speaks v"
                     << kHelloVersion
                     << ") — refusing a version-skewed worker");
  bool have_host = false;
  bool have_pid = false;
  std::string_view rest = first_newline == std::string_view::npos
                              ? std::string_view{}
                              : payload.substr(first_newline + 1);
  const auto parse_i64 = [](std::string_view text,
                            const char* what) -> std::int64_t {
    std::int64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    WB_REQUIRE_MSG(!text.empty() && ec == std::errc{} &&
                       ptr == text.data() + text.size(),
                   "bad hello " << what << " '" << std::string(text) << "'");
    return value;
  };
  while (!rest.empty()) {
    const std::size_t newline = rest.find('\n');
    const std::string_view line = rest.substr(0, newline);
    rest = newline == std::string_view::npos ? std::string_view{}
                                             : rest.substr(newline + 1);
    if (line.empty()) continue;
    const std::size_t space = line.find(' ');
    const std::string_view key = line.substr(0, space);
    const std::string_view value =
        space == std::string_view::npos ? std::string_view{}
                                        : line.substr(space + 1);
    if (key == "host") {
      WB_REQUIRE_MSG(!value.empty(), "hello host line is empty");
      info.host = std::string(value);
      have_host = true;
    } else if (key == "pid") {
      info.pid = parse_i64(value, "pid");
      have_pid = true;
    } else if (key == "threads") {
      info.threads = static_cast<std::size_t>(parse_i64(value, "threads"));
    } else if (key == "heartbeat-ms") {
      info.heartbeat_ms = parse_i64(value, "heartbeat-ms");
    }
    // Unknown keys: ignored, so a later v2 can add fields.
  }
  WB_REQUIRE_MSG(have_host && have_pid,
                 "hello v2 document is missing its host or pid line");
  return info;
}

std::string encode_frame(const Frame& frame) {
  WB_CHECK_MSG(frame.payload.size() <= kMaxFramePayload,
               "frame payload of " << frame.payload.size()
                                   << " bytes exceeds the "
                                   << kMaxFramePayload << "-byte cap");
  std::string out;
  out.reserve(kMaxHeaderBytes + frame.payload.size());
  out.append(kMagic);
  out.append(" ");
  out.append(kVersion);
  out.append(" ");
  out.append(to_string(frame.type));
  out.append(" ");
  out.append(std::to_string(frame.payload.size()));
  out.append("\n");
  out.append(frame.payload);
  return out;
}

std::optional<Frame> FrameDecoder::next() {
  if (poisoned_) throw DataError(poison_reason_);
  const auto poison = [&](const std::string& why) -> DataError {
    poisoned_ = true;
    buffer_.clear();
    poison_reason_ = "malformed frame: " + why;
    return DataError(poison_reason_);
  };

  const std::size_t newline = buffer_.find('\n');
  if (newline == std::string::npos) {
    // No complete header yet. A conforming peer's header fits in
    // kMaxHeaderBytes, so anything longer can never become valid.
    if (buffer_.size() > kMaxHeaderBytes) {
      throw poison("header exceeds " + std::to_string(kMaxHeaderBytes) +
                   " bytes without a terminating newline");
    }
    return std::nullopt;
  }
  if (newline > kMaxHeaderBytes) {
    throw poison("header line of " + std::to_string(newline) +
                 " bytes exceeds the " + std::to_string(kMaxHeaderBytes) +
                 "-byte bound");
  }
  const std::string_view header(buffer_.data(), newline);

  // Tokenize "wbframe v1 <type> <length>".
  std::string_view rest = header;
  const auto take_token = [&]() -> std::string_view {
    const std::size_t space = rest.find(' ');
    std::string_view token = rest.substr(0, space);
    rest = space == std::string_view::npos ? std::string_view{}
                                           : rest.substr(space + 1);
    return token;
  };
  const std::string_view magic = take_token();
  if (magic != kMagic) {
    throw poison("bad magic '" + std::string(magic) + "' (expected '" +
                 std::string(kMagic) + "')");
  }
  const std::string_view version = take_token();
  if (version != kVersion) {
    throw poison("unsupported frame version '" + std::string(version) + "'");
  }
  const std::string_view type_token = take_token();
  FrameType type;
  try {
    type = frame_type_from_string(type_token);
  } catch (const DataError& e) {
    throw poison(e.what());
  }
  const std::string_view length_token = rest;
  std::uint64_t length = 0;
  const auto [ptr, ec] = std::from_chars(
      length_token.data(), length_token.data() + length_token.size(), length);
  if (length_token.empty() || ec != std::errc{} ||
      ptr != length_token.data() + length_token.size()) {
    throw poison("bad payload length '" + std::string(length_token) + "'");
  }
  if (length > kMaxFramePayload) {
    throw poison("payload length " + std::to_string(length) + " exceeds the " +
                 std::to_string(kMaxFramePayload) + "-byte cap");
  }

  const std::size_t frame_end = newline + 1 + static_cast<std::size_t>(length);
  if (buffer_.size() < frame_end) return std::nullopt;  // payload still coming
  Frame frame;
  frame.type = type;
  frame.payload = buffer_.substr(newline + 1, static_cast<std::size_t>(length));
  buffer_.erase(0, frame_end);
  return frame;
}

#if WB_FLEET_HAS_PROCESSES

void ignore_sigpipe() { std::signal(SIGPIPE, SIG_IGN); }

std::optional<Frame> read_frame(int fd, FrameDecoder& decoder) {
  if (std::optional<Frame> frame = decoder.next()) return frame;
  char chunk[64 * 1024];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd pfd{fd, POLLIN, 0};
        (void)::poll(&pfd, 1, -1);
        continue;
      }
      throw StreamError(std::string("frame read failed: ") +
                        std::strerror(errno));
    }
    if (n == 0) {
      if (!decoder.idle()) {
        throw StreamError("peer closed the stream mid-frame (" +
                          std::to_string(decoder.buffered_bytes()) +
                          " bytes buffered)");
      }
      return std::nullopt;
    }
    decoder.feed(chunk, static_cast<std::size_t>(n));
    if (std::optional<Frame> frame = decoder.next()) return frame;
  }
}

void write_frame(int fd, const Frame& frame) {
  const std::string wire = encode_frame(frame);
  std::size_t written = 0;
  while (written < wire.size()) {
    const ssize_t n = ::write(fd, wire.data() + written, wire.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Non-blocking fd with a full kernel buffer: wait for room, bounded
        // — a peer that stops reading this long is as good as severed.
        pollfd pfd{fd, POLLOUT, 0};
        const int ready = ::poll(&pfd, 1, kWriteStallTimeoutMs);
        if (ready > 0) continue;
        throw StreamError("frame write stalled for " +
                          std::to_string(kWriteStallTimeoutMs) +
                          "ms (peer stopped reading)");
      }
      throw StreamError(std::string("frame write failed: ") +
                        std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
}

#endif  // WB_FLEET_HAS_PROCESSES

}  // namespace wb::fleet
