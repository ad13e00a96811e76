#include "src/protocols/oracles.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/graph/algorithms.h"
#include "src/protocols/codec.h"

namespace wb {

PropertyOracleProtocol::PropertyOracleProtocol(std::string name,
                                               Predicate predicate)
    : name_(std::move(name)), predicate_(std::move(predicate)) {
  WB_CHECK(predicate_ != nullptr);
}

std::size_t PropertyOracleProtocol::message_bit_limit(std::size_t n) const {
  return static_cast<std::size_t>(codec::id_bits(n)) + n;
}

Bits PropertyOracleProtocol::compose_initial(const LocalView& view,
                                             BitWriter& scratch) const {
  const std::size_t n = view.n();
  codec::write_id(scratch, view.id(), n);
  for (NodeId u = 1; u <= n; ++u) scratch.write_bit(view.has_neighbor(u));
  return scratch.take();
}

bool PropertyOracleProtocol::output(const Whiteboard& board,
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
  GraphBuilder builder(n);
  for (NodeId u = 1; u <= n; ++u) {
    for (NodeId v = u + 1; v <= n; ++v) {
      WB_REQUIRE_MSG(row[u][v] == row[v][u],
                     "asymmetric adjacency bits for {" << u << "," << v << "}");
      if (row[u][v]) builder.add_edge(u, v);
    }
  }
  return predicate_(builder.build());
}

PropertyOracleProtocol square_oracle() {
  return PropertyOracleProtocol("square-oracle",
                                [](const Graph& g) { return has_square(g); });
}

PropertyOracleProtocol diameter_at_most_oracle(int d) {
  return PropertyOracleProtocol(
      "diameter<=" + std::to_string(d) + "-oracle", [d](const Graph& g) {
        const int diam = diameter(g);
        return diam >= 0 && diam <= d;
      });
}

PropertyOracleProtocol connectivity_oracle() {
  return PropertyOracleProtocol(
      "connectivity-oracle", [](const Graph& g) { return is_connected(g); });
}

SpanningForestOutput SpanningForestProtocol::output(const Whiteboard& board,
                                                    std::size_t n) const {
  const BfsProtocolOutput forest = bfs_.output(board, n);
  WB_REQUIRE_MSG(forest.valid, "BFS whiteboard marked invalid");
  SpanningForestOutput out;
  for (NodeId v = 1; v <= n; ++v) {
    const NodeId p = forest.parent[v - 1];
    if (p != kNoNode) out.edges.push_back(make_edge(p, v));
  }
  std::sort(out.edges.begin(), out.edges.end());
  out.components = forest.roots.size();
  out.connected = out.components <= 1;
  return out;
}

bool is_spanning_forest_of(const Graph& g, const SpanningForestOutput& out) {
  const std::size_t n = g.node_count();
  // Every forest edge must be a graph edge.
  for (const Edge& e : out.edges) {
    if (!g.has_edge(e.u, e.v)) return false;
  }
  // Union-find over the forest edges: acyclicity + component count.
  std::vector<std::size_t> parent(n + 1);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const Edge& e : out.edges) {
    const std::size_t a = find(e.u), b = find(e.v);
    if (a == b) return false;  // cycle
    parent[a] = b;
  }
  // The forest's components must coincide with the graph's.
  const Components ref = connected_components(g);
  if (out.components != ref.count) return false;
  for (NodeId u = 1; u <= n; ++u) {
    for (NodeId v = u + 1; v <= n; ++v) {
      const bool same_forest = find(u) == find(v);
      const bool same_graph = ref.component[u - 1] == ref.component[v - 1];
      if (same_forest != same_graph) return false;
    }
  }
  return out.connected == (ref.count <= 1);
}

}  // namespace wb
