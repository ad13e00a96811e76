#include "src/protocols/build_forest.h"

#include <vector>

#include "src/protocols/codec.h"

namespace wb {

namespace {

/// Width of the neighbor-ID sum: at most Σ_{i=1..n} i = n(n+1)/2.
int sum_bits(std::size_t n) {
  const auto max_sum =
      static_cast<std::uint64_t>(n) * (static_cast<std::uint64_t>(n) + 1) / 2;
  return bits_for_range(max_sum);
}

}  // namespace

std::size_t BuildForestProtocol::message_bit_limit(std::size_t n) const {
  return static_cast<std::size_t>(codec::id_bits(n) + codec::count_bits(n) +
                                  sum_bits(n));
}

Bits BuildForestProtocol::compose_initial(const LocalView& view,
                                          BitWriter& w) const {
  const std::size_t n = view.n();
  codec::write_id(w, view.id(), n);
  codec::write_count(w, view.degree(), n);
  std::uint64_t sum = 0;
  for (NodeId nb : view.neighbors()) sum += nb;
  w.write_uint(sum, sum_bits(n));
  return w.take();
}

BuildOutput BuildForestProtocol::output(const Whiteboard& board,
                                        std::size_t n) const {
  WB_REQUIRE_MSG(board.message_count() == n,
                 "expected " << n << " messages, got " << board.message_count());
  std::vector<std::size_t> deg(n + 1, 0);
  std::vector<std::uint64_t> sum(n + 1, 0);
  std::vector<bool> seen(n + 1, false);
  for (const Bits& m : board.messages()) {
    BitReader r(m);
    const NodeId id = codec::read_id(r, n);
    WB_REQUIRE_MSG(!seen[id], "node " << id << " wrote twice");
    seen[id] = true;
    deg[id] = codec::read_count(r, n);
    sum[id] = r.read_uint(sum_bits(n));
    WB_REQUIRE_MSG(r.exhausted(), "trailing bits in message of node " << id);
  }

  // Leaf pruning. `ready` holds candidate nodes of residual degree ≤ 1.
  GraphBuilder builder(n);
  std::vector<bool> alive(n + 1, true);
  std::vector<NodeId> ready;
  for (NodeId v = 1; v <= n; ++v) {
    if (deg[v] <= 1) ready.push_back(v);
  }
  std::size_t pruned = 0;
  while (!ready.empty()) {
    const NodeId v = ready.back();
    ready.pop_back();
    if (!alive[v] || deg[v] > 1) continue;  // stale candidate
    alive[v] = false;
    ++pruned;
    if (deg[v] == 1) {
      const std::uint64_t w = sum[v];
      WB_REQUIRE_MSG(w >= 1 && w <= n && w != v && alive[static_cast<NodeId>(w)] &&
                         deg[static_cast<NodeId>(w)] >= 1,
                     "inconsistent leaf message at node " << v);
      const NodeId u = static_cast<NodeId>(w);
      builder.add_edge(v, u);
      // Delete v from the residual forest as seen by u.
      --deg[u];
      sum[u] -= v;
      if (deg[u] <= 1) ready.push_back(u);
    } else {
      WB_REQUIRE_MSG(sum[v] == 0, "isolated node " << v << " with nonzero sum");
    }
  }
  if (pruned != n) return std::nullopt;  // a cycle survived: not a forest
  return builder.build();
}

}  // namespace wb
