#include "src/protocols/build_full.h"

#include <vector>

#include "src/protocols/codec.h"

namespace wb {

std::size_t BuildFullProtocol::message_bit_limit(std::size_t n) const {
  return static_cast<std::size_t>(codec::id_bits(n)) + n;
}

Bits BuildFullProtocol::compose_initial(const LocalView& view,
                                        BitWriter& w) const {
  const std::size_t n = view.n();
  codec::write_id(w, view.id(), n);
  for (NodeId u = 1; u <= n; ++u) w.write_bit(view.has_neighbor(u));
  return w.take();
}

Graph BuildFullProtocol::output(const Whiteboard& board, std::size_t n) const {
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
    WB_REQUIRE_MSG(!row[id][id], "self-loop bit set at node " << id);
    WB_REQUIRE_MSG(r.exhausted(), "trailing bits in message of node " << id);
  }
  GraphBuilder builder(n);
  for (NodeId u = 1; u <= n; ++u) {
    for (NodeId v = u + 1; v <= n; ++v) {
      WB_REQUIRE_MSG(row[u][v] == row[v][u],
                     "asymmetric adjacency bits for {" << u << "," << v << "}");
      if (row[u][v]) builder.add_edge(u, v);
    }
  }
  return builder.build();
}

}  // namespace wb
