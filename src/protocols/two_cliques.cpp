#include "src/protocols/two_cliques.h"

#include <utility>
#include <vector>

#include "src/protocols/codec.h"

namespace wb {

namespace {

// Message code values.
constexpr std::uint64_t kSide0 = 0;
constexpr std::uint64_t kSide1 = 1;
constexpr std::uint64_t kConflict = 2;

struct CliqueMessage {
  NodeId id;
  std::uint64_t code;
};

CliqueMessage parse(const Bits& m, std::size_t n) {
  BitReader r(m);
  const NodeId id = codec::read_id(r, n);
  const std::uint64_t code = r.read_uint(2);
  WB_REQUIRE_MSG(code <= kConflict, "bad 2-CLIQUES code " << code);
  WB_REQUIRE_MSG(r.exhausted(), "trailing bits in message of node " << id);
  return {id, code};
}

/// The board decoded once per message: for each ID, a mask with bit c set
/// when some message (ID, c) is on the board. Duplicate IDs on a corrupted
/// board OR their codes together, as a scan over every message would. The
/// undo log (ID, previous mask) makes unfolding the newest message O(1).
struct SideMasks {
  std::vector<std::uint8_t> mask;  // indexed by ID
  std::vector<std::pair<NodeId, std::uint8_t>> undo;
};

const SideMasks& side_masks(const Whiteboard& board, std::size_t n) {
  return board.cached_view<SideMasks>(
      [n] {
        SideMasks v;
        v.mask.assign(n + 1, 0);
        v.undo.reserve(n);
        return v;
      },
      [n](SideMasks& v, const Bits& m) {
        const CliqueMessage msg = parse(m, n);
        v.undo.emplace_back(msg.id, v.mask[msg.id]);
        v.mask[msg.id] |= static_cast<std::uint8_t>(1u << msg.code);
      },
      [](SideMasks& v, const Bits&) {
        const auto [id, previous] = v.undo.back();
        v.undo.pop_back();
        v.mask[id] = previous;
      });
}

}  // namespace

std::size_t TwoCliquesProtocol::message_bit_limit(std::size_t n) const {
  return static_cast<std::size_t>(codec::id_bits(n)) + 2;
}

Bits TwoCliquesProtocol::compose(const LocalView& view,
                                 const Whiteboard& board) const {
  BitWriter w;
  return compose(view, board, w);
}

Bits TwoCliquesProtocol::compose(const LocalView& view,
                                 const Whiteboard& board,
                                 BitWriter& scratch) const {
  const std::size_t n = view.n();
  std::uint64_t code;
  if (board.empty()) {
    code = kSide0;  // "I am the first" — valid exactly when chosen first
  } else {
    // Every message is decoded (and validated) by the view; only the
    // neighbours' codes decide the side.
    const std::vector<std::uint8_t>& mask = side_masks(board, n).mask;
    unsigned seen = 0;
    for (const NodeId u : view.neighbors()) seen |= mask[u];
    constexpr unsigned kSaw0 = 1u << kSide0, kSaw1 = 1u << kSide1;
    if (seen == 0) {
      code = kSide1;  // no neighbour has written yet
    } else if ((seen & kSaw0) != 0 && (seen & kSaw1) != 0) {
      code = kConflict;
    } else if ((seen & kSaw1) != 0) {
      code = kSide1;
    } else {
      code = kSide0;
    }
  }
  codec::write_id(scratch, view.id(), n);
  scratch.write_uint(code, 2);
  return scratch.take();
}

TwoCliquesOutput TwoCliquesProtocol::output(const Whiteboard& board,
                                            std::size_t n) const {
  TwoCliquesOutput out;
  std::vector<int> side(n, -1);
  std::size_t count[2] = {0, 0};
  for (const Bits& m : board.messages()) {
    const CliqueMessage msg = parse(m, n);
    if (msg.code == kConflict) return out;  // yes = false
    side[msg.id - 1] = static_cast<int>(msg.code);
    ++count[msg.code];
  }
  if (n % 2 != 0 || count[0] != n / 2 || count[1] != n / 2) return out;
  out.yes = true;
  out.side = std::move(side);
  return out;
}

}  // namespace wb
