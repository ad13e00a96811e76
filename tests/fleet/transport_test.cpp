// The frame layer's contract: encode∘decode is the identity, arbitrary
// chunking never matters, and malformed input — truncated, oversized, or
// garbage length prefixes included — is rejected with a diagnostic, never a
// hang, an unbounded allocation, or a crash. These rejection cases sit
// alongside the shard layer's v2 document rejections (tests/wb/shard_test.cpp)
// because the fleet moves exactly those documents inside these frames.
#include "src/fleet/transport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/support/check.h"

namespace wb::fleet {
namespace {

std::optional<Frame> decode_all(const std::string& wire) {
  FrameDecoder decoder;
  decoder.feed(wire);
  return decoder.next();
}

TEST(Transport, EncodeDecodeRoundTripsEveryType) {
  for (const FrameType type :
       {FrameType::kHello, FrameType::kSpec, FrameType::kResult,
        FrameType::kHeartbeat, FrameType::kShutdown, FrameType::kError,
        FrameType::kAck}) {
    const Frame frame{type, "payload for " + std::string(to_string(type))};
    const std::optional<Frame> decoded = decode_all(encode_frame(frame));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, frame);
  }
}

TEST(Transport, WireFormIsTheDocumentedHeaderLine) {
  EXPECT_EQ(encode_frame(Frame{FrameType::kSpec, "abc"}),
            "wbframe v1 spec 3\nabc");
  EXPECT_EQ(encode_frame(Frame{FrameType::kHeartbeat, ""}),
            "wbframe v1 heartbeat 0\n");
}

TEST(Transport, EmptyPayloadAndBinaryPayloadSurvive) {
  const Frame empty{FrameType::kShutdown, ""};
  EXPECT_EQ(decode_all(encode_frame(empty)), empty);

  const std::string binary("with\nnewlines\0and nul bytes", 27);
  const Frame frame{FrameType::kResult, binary};
  EXPECT_EQ(decode_all(encode_frame(frame)), frame);
}

TEST(Transport, DecoderIsIncremental_ByteAtATime) {
  const Frame a{FrameType::kSpec, "first document"};
  const Frame b{FrameType::kResult, "second document"};
  const std::string wire = encode_frame(a) + encode_frame(b);
  FrameDecoder decoder;
  std::vector<Frame> seen;
  for (const char c : wire) {
    decoder.feed(&c, 1);
    while (const std::optional<Frame> frame = decoder.next()) {
      seen.push_back(*frame);
    }
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], a);
  EXPECT_EQ(seen[1], b);
  EXPECT_TRUE(decoder.idle());
}

TEST(Transport, PartialFrameReportsNotIdle) {
  FrameDecoder decoder;
  decoder.feed("wbframe v1 spec 10\nhalf");
  EXPECT_EQ(decoder.next(), std::nullopt);
  EXPECT_FALSE(decoder.idle());  // EOF here would be a mid-frame death
}

// --- rejection: every way a length-prefixed stream can lie ------------------

void expect_rejected(const std::string& wire, const char* needle) {
  FrameDecoder decoder;
  decoder.feed(wire);
  try {
    (void)decoder.next();
    FAIL() << "accepted: " << wire.substr(0, 60);
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "diagnostic '" << e.what() << "' should mention '" << needle << "'";
  }
}

TEST(Transport, RejectsBadMagic) {
  expect_rejected("wbfraME v1 spec 3\nabc", "magic");
  expect_rejected("GET / HTTP/1.1\r\n\r\n", "magic");
  expect_rejected(std::string("\x00\x01\x02\x03garbage\n", 12), "magic");
}

TEST(Transport, RejectsVersionSkew) {
  expect_rejected("wbframe v2 spec 3\nabc", "version");
  expect_rejected("wbframe  spec 3\nabc", "version");
}

TEST(Transport, RejectsUnknownType) {
  expect_rejected("wbframe v1 gossip 3\nabc", "frame type");
  expect_rejected("wbframe v1  3\nabc", "frame type");
}

TEST(Transport, RejectsGarbageLengthPrefixes) {
  expect_rejected("wbframe v1 spec x\n", "length");
  expect_rejected("wbframe v1 spec -1\n", "length");
  expect_rejected("wbframe v1 spec 3abc\n", "length");
  expect_rejected("wbframe v1 spec\n", "length");
  expect_rejected("wbframe v1 spec 1 2\n", "length");
}

TEST(Transport, RejectsOversizedLengthWithoutAllocating) {
  // A hostile length must be rejected from the header alone — the payload
  // cap guards the allocation, not an OOM.
  expect_rejected("wbframe v1 spec 99999999999999999999\n", "length");
  expect_rejected(
      "wbframe v1 spec " + std::to_string(kMaxFramePayload + 1) + "\n", "cap");
}

TEST(Transport, RejectsUnterminatedHeaderBeforeBufferingForever) {
  // A stream that never sends '\n' must fail at the header bound, not
  // buffer unboundedly.
  FrameDecoder decoder;
  decoder.feed(std::string(kMaxHeaderBytes + 1, 'a'));
  EXPECT_THROW((void)decoder.next(), DataError);
}

TEST(Transport, RejectsOverlongHeaderLineEvenWithNewline) {
  expect_rejected("wbframe v1 spec " + std::string(60, '0') + "\n", "bound");
}

TEST(Transport, PoisonedDecoderStaysPoisoned) {
  FrameDecoder decoder;
  decoder.feed("wbframe v1 bogus 0\n");
  EXPECT_THROW((void)decoder.next(), DataError);
  // Feeding perfectly valid bytes cannot resynchronize a framing error.
  decoder.feed(encode_frame(Frame{FrameType::kHello, ""}));
  EXPECT_THROW((void)decoder.next(), DataError);
  EXPECT_FALSE(decoder.idle());
}

TEST(Transport, FrameTypeTokensRoundTrip) {
  for (const char* token :
       {"hello", "spec", "result", "heartbeat", "shutdown", "error", "ack"}) {
    EXPECT_EQ(to_string(frame_type_from_string(token)), token);
  }
  EXPECT_THROW((void)frame_type_from_string("HELLO"), DataError);
  EXPECT_THROW((void)frame_type_from_string(""), DataError);
}

// --- the hello v2 document: the fleet's identity handshake ------------------

TEST(Transport, HelloV2RoundTrips) {
  HelloInfo info;
  info.host = "rack7-node3";
  info.pid = 41235;
  info.threads = 8;
  info.heartbeat_ms = 200;
  const HelloInfo parsed = parse_hello(serialize_hello(info));
  EXPECT_EQ(parsed, info);
  EXPECT_EQ(parsed.identity(), "rack7-node3/41235");
}

TEST(Transport, HelloV2WireFormIsTheDocumentedDocument) {
  HelloInfo info;
  info.host = "h";
  info.pid = 7;
  info.threads = 2;
  info.heartbeat_ms = 0;
  EXPECT_EQ(serialize_hello(info),
            "wbhello v2\nhost h\npid 7\nthreads 2\nheartbeat-ms 0\n");
}

TEST(Transport, AnonymousHelloPayloadsAreRefused) {
  // Only a wbhello v2 document is a hello: a bare or freeform payload
  // carries no identity to admit, so it is refused like any garbled one.
  for (const std::string payload :
       {"pid 1234\n", "", "anything goes", "wbhello", "wbhellov2\n"}) {
    try {
      (void)parse_hello(payload);
      FAIL() << "accepted the anonymous hello '" << payload << "'";
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find("wbhello v2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Transport, HelloVersionSkewIsRefused) {
  // A worker from the future must be refused up front — admitting it and
  // failing mid-sweep would waste the whole dispatch.
  try {
    (void)parse_hello("wbhello v3\nhost h\npid 1\nwormhole yes\n");
    FAIL() << "accepted a version-skewed hello";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
  EXPECT_THROW((void)parse_hello("wbhello v\nhost h\npid 1\n"), DataError);
  EXPECT_THROW((void)parse_hello("wbhello \nhost h\npid 1\n"), DataError);
}

TEST(Transport, HelloV2RequiresHostAndPid) {
  EXPECT_THROW((void)parse_hello("wbhello v2\npid 1\n"), DataError);
  EXPECT_THROW((void)parse_hello("wbhello v2\nhost h\n"), DataError);
  EXPECT_THROW((void)parse_hello("wbhello v2\nhost h\npid zero\n"), DataError);
  EXPECT_THROW((void)parse_hello("wbhello v2\nhost \npid 1\n"), DataError);
}

TEST(Transport, HelloV2IgnoresUnknownKeysForForwardCompat) {
  const HelloInfo info =
      parse_hello("wbhello v2\nhost h\npid 9\ncolor mauve\nthreads 3\n");
  EXPECT_EQ(info.host, "h");
  EXPECT_EQ(info.pid, 9);
  EXPECT_EQ(info.threads, 3u);
}

// --- fuzz-style chunked feeding: satellite 3 --------------------------------

/// splitmix64: a tiny deterministic PRNG so the chunk schedule is a fixed
/// function of the seed — reproducible without <random>'s unspecified
/// distributions.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

std::vector<Frame> every_type_frames() {
  SplitMix payload_rng(0xfeedULL);
  std::vector<Frame> frames;
  for (const FrameType type :
       {FrameType::kHello, FrameType::kSpec, FrameType::kResult,
        FrameType::kHeartbeat, FrameType::kShutdown, FrameType::kError,
        FrameType::kAck}) {
    // Payloads with newlines, NULs, and high bytes: framing must never peek
    // inside the payload.
    std::string payload;
    const std::size_t size = payload_rng.next() % 512;
    for (std::size_t i = 0; i < size; ++i) {
      payload.push_back(static_cast<char>(payload_rng.next() & 0xff));
    }
    frames.push_back(Frame{type, std::move(payload)});
  }
  return frames;
}

TEST(Transport, ByteAtATimeFeedDeliversEveryTypeIntact) {
  const std::vector<Frame> frames = every_type_frames();
  std::string wire;
  for (const Frame& frame : frames) wire += encode_frame(frame);
  FrameDecoder decoder;
  std::vector<Frame> seen;
  for (const char c : wire) {
    decoder.feed(&c, 1);
    while (const std::optional<Frame> frame = decoder.next()) {
      seen.push_back(*frame);
    }
  }
  EXPECT_EQ(seen, frames);
  EXPECT_TRUE(decoder.idle());
}

TEST(Transport, RandomChunkScheduleNeverChangesTheDecodedStream) {
  // 64 seeds x (frames in random order, fed in random-sized chunks): the
  // decoded stream must equal the input stream bit for bit, every time. Any
  // buffer-boundary bug in the decoder shows up as a seed number to replay.
  const std::vector<Frame> base = every_type_frames();
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SplitMix rng(seed);
    std::vector<Frame> frames;
    for (std::size_t i = 0; i < 16; ++i) {
      frames.push_back(base[rng.next() % base.size()]);
    }
    std::string wire;
    for (const Frame& frame : frames) wire += encode_frame(frame);
    FrameDecoder decoder;
    std::vector<Frame> seen;
    std::size_t offset = 0;
    while (offset < wire.size()) {
      // Chunk sizes biased small (1–32) with occasional large gulps, so both
      // header splits and payload splits get exercised.
      std::size_t chunk = 1 + rng.next() % 32;
      if (rng.next() % 8 == 0) chunk = 1 + rng.next() % 4096;
      chunk = std::min(chunk, wire.size() - offset);
      decoder.feed(wire.data() + offset, chunk);
      offset += chunk;
      while (const std::optional<Frame> frame = decoder.next()) {
        seen.push_back(*frame);
      }
    }
    ASSERT_EQ(seen, frames) << "seed " << seed;
    ASSERT_TRUE(decoder.idle()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace wb::fleet
