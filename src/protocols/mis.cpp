#include "src/protocols/mis.h"

#include <vector>

#include "src/protocols/codec.h"

namespace wb {

namespace {

struct MisMessage {
  NodeId id;
  bool in;
};

MisMessage parse(const Bits& m, std::size_t n) {
  BitReader r(m);
  const NodeId id = codec::read_id(r, n);
  const bool in = r.read_bit();
  WB_REQUIRE_MSG(r.exhausted(), "trailing bits in MIS message of node " << id);
  return {id, in};
}

}  // namespace

std::size_t RootedMisProtocol::message_bit_limit(std::size_t n) const {
  return static_cast<std::size_t>(codec::id_bits(n)) + 1;
}

Bits RootedMisProtocol::compose(const LocalView& view, const Whiteboard& board,
                                BitWriter& scratch) const {
  const std::size_t n = view.n();
  bool in;
  if (view.id() == root_) {
    in = true;
  } else if (view.has_neighbor(root_)) {
    in = false;
  } else {
    // Enter unless some neighbor is already in the set.
    in = true;
    for (const Bits& m : board.messages()) {
      const MisMessage msg = parse(m, n);
      if (msg.in && view.has_neighbor(msg.id)) {
        in = false;
        break;
      }
    }
  }
  codec::write_id(scratch, view.id(), n);
  scratch.write_bit(in);
  return scratch.take();
}

MisOutput RootedMisProtocol::output(const Whiteboard& board,
                                    std::size_t n) const {
  MisOutput set;
  for (const Bits& m : board.messages()) {
    const MisMessage msg = parse(m, n);
    if (msg.in) set.push_back(msg.id);
  }
  return set;
}

std::size_t MisOracleProtocol::message_bit_limit(std::size_t n) const {
  return static_cast<std::size_t>(codec::id_bits(n)) + n;
}

Bits MisOracleProtocol::compose_initial(const LocalView& view,
                                        BitWriter& w) const {
  const std::size_t n = view.n();
  codec::write_id(w, view.id(), n);
  for (NodeId u = 1; u <= n; ++u) w.write_bit(view.has_neighbor(u));
  return w.take();
}

MisOutput MisOracleProtocol::output(const Whiteboard& board,
                                    std::size_t n) const {
  WB_REQUIRE_MSG(board.message_count() == n,
                 "expected " << n << " messages, got " << board.message_count());
  std::vector<std::vector<bool>> row(n + 1);
  std::vector<bool> seen(n + 1, false);
  for (const Bits& m : board.messages()) {
    BitReader r(m);
    const NodeId id = codec::read_id(r, n);
    WB_REQUIRE_MSG(!seen[id], "node " << id << " wrote twice");
    seen[id] = true;
    row[id].resize(n + 1);
    for (NodeId u = 1; u <= n; ++u) row[id][u] = r.read_bit();
  }
  WB_REQUIRE_MSG(root_ <= n, "oracle root " << root_ << " exceeds n");
  // Deterministic greedy: root first, then ascending IDs.
  MisOutput set{root_};
  for (NodeId v = 1; v <= n; ++v) {
    if (v == root_) continue;
    bool independent = true;
    for (NodeId u : set) {
      if (row[v][u]) {
        independent = false;
        break;
      }
    }
    if (independent) set.push_back(v);
  }
  std::sort(set.begin(), set.end());
  return set;
}

}  // namespace wb
