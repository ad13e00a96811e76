#include "src/graph/algorithms.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "src/graph/generators.h"

namespace wb {
namespace {

TEST(Bfs, DistancesOnPath) {
  const Graph g = path_graph(5);
  const BfsResult r = bfs_from(g, 1);
  for (NodeId v = 1; v <= 5; ++v) EXPECT_EQ(r.dist[v - 1], static_cast<int>(v) - 1);
  EXPECT_EQ(r.parent[0], kNoNode);
  EXPECT_EQ(r.parent[4], 4u);
}

TEST(Bfs, UnreachableIsMinusOne) {
  const std::vector<Edge> edges = {{1, 2}};
  const Graph g(4, edges);
  const BfsResult r = bfs_from(g, 1);
  EXPECT_EQ(r.dist[1], 1);
  EXPECT_EQ(r.dist[2], -1);
  EXPECT_EQ(r.dist[3], -1);
}

TEST(BfsForest, RootsAreComponentMinima) {
  // Components {1,4}, {2,3}, {5}.
  const std::vector<Edge> edges = {{1, 4}, {2, 3}};
  const Graph g(5, edges);
  const BfsForest f = bfs_forest(g);
  EXPECT_EQ(f.roots, (std::vector<NodeId>{1, 2, 5}));
  EXPECT_EQ(f.layer[0], 0);
  EXPECT_EQ(f.layer[3], 1);
  EXPECT_EQ(f.parent[3], 1u);
  EXPECT_EQ(f.layer[4], 0);
}

TEST(BfsForest, ValidatorAcceptsReferenceAndRejectsPerturbations) {
  const Graph g = connected_gnp(12, 1, 4, 3);
  BfsForest f = bfs_forest(g);
  EXPECT_TRUE(is_valid_bfs_forest(g, f.layer, f.parent));
  auto bad_layer = f.layer;
  bad_layer[5] += 1;
  EXPECT_FALSE(is_valid_bfs_forest(g, bad_layer, f.parent));
  auto bad_parent = f.parent;
  // Point some non-root's parent at itself.
  for (NodeId v = 1; v <= 12; ++v) {
    if (f.parent[v - 1] != kNoNode) {
      bad_parent[v - 1] = v;
      break;
    }
  }
  EXPECT_FALSE(is_valid_bfs_forest(g, f.layer, bad_parent));
}

TEST(Components, CountsAndIndexesByMinId) {
  const std::vector<Edge> edges = {{2, 5}, {3, 4}};
  const Graph g(6, edges);
  const Components c = connected_components(g);
  EXPECT_EQ(c.count, 4u);       // {1}, {2,5}, {3,4}, {6}
  EXPECT_EQ(c.component[0], 0u);
  EXPECT_EQ(c.component[1], 1u);
  EXPECT_EQ(c.component[4], 1u);
  EXPECT_EQ(c.component[2], 2u);
  EXPECT_EQ(c.component[5], 3u);
  EXPECT_FALSE(is_connected(g));
  EXPECT_TRUE(is_connected(path_graph(6)));
  EXPECT_TRUE(is_connected(Graph(1)));
}

/// The definition, pair by pair: N(u)∖{v} = N(v)∖{u}. O(n³).
bool twins_by_definition(const Graph& g, NodeId u, NodeId v) {
  std::set<NodeId> a;
  std::set<NodeId> b;
  for (NodeId w = 1; w <= g.node_count(); ++w) {
    if (w != v && w != u && g.has_edge(u, w)) a.insert(w);
    if (w != u && w != v && g.has_edge(v, w)) b.insert(w);
  }
  return a == b;
}

/// Same class iff twins, and classes numbered by their smallest members.
void expect_twin_classes(const Graph& g, const std::string& name) {
  const TwinClasses t = twin_classes(g);
  const std::size_t n = g.node_count();
  ASSERT_EQ(t.class_of.size(), n) << name;
  std::size_t next = 0;
  bool pair = false;
  for (NodeId v = 1; v <= n; ++v) {
    bool first = true;
    for (NodeId u = 1; u < v; ++u) {
      const bool twins = twins_by_definition(g, u, v);
      EXPECT_EQ(t.class_of[u - 1] == t.class_of[v - 1], twins)
          << name << ": nodes " << u << ", " << v;
      first = first && !twins;
      pair = pair || twins;
    }
    if (first) {
      EXPECT_EQ(t.class_of[v - 1], next++) << name << ": node " << v;
    }
  }
  EXPECT_EQ(t.count, next) << name;
  EXPECT_EQ(t.has_twins(), pair) << name;
}

TEST(TwinClasses, MatchTheDefinitionOnEveryPair) {
  const std::pair<std::string, Graph> graphs[] = {
      {"star:6", star_graph(6)},
      {"complete:5", complete_graph(5)},
      {"K_{2,3}", complete_bipartite(2, 3)},
      {"K_{3,3}", complete_bipartite(3, 3)},
      {"path:3", path_graph(3)},
      {"cycle:4", cycle_graph(4)},
      {"grid:2x4", grid_graph(2, 4)},
      {"twocliques:3", two_cliques(3)},
      {"empty:4", empty_graph(4)},
      {"one node", empty_graph(1)},
      {"edge + 3 isolated", Graph(5, std::vector<Edge>{{2, 4}})},
      {"star:4 + 2 isolated",
       Graph(6, std::vector<Edge>{{1, 2}, {1, 3}, {1, 4}})},
  };
  for (const auto& [name, g] : graphs) expect_twin_classes(g, name);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    expect_twin_classes(erdos_renyi(7, 1, 2, seed),
                        "gnp:7:1/2:" + std::to_string(seed));
  }
}

TEST(TwinClasses, KnownShapes) {
  // star: the center alone, the leaves one class of false twins.
  EXPECT_EQ(twin_classes(star_graph(5)).class_of,
            (std::vector<std::uint32_t>{0, 1, 1, 1, 1}));
  // complete: one class of true twins.
  EXPECT_EQ(twin_classes(complete_graph(4)).count, 1u);
  // path:3: the two ends are false twins; cycle:4 pairs opposite corners.
  EXPECT_EQ(twin_classes(path_graph(3)).class_of,
            (std::vector<std::uint32_t>{0, 1, 0}));
  EXPECT_EQ(twin_classes(cycle_graph(4)).count, 2u);
  // grid:2x4 has no twin pair.
  EXPECT_FALSE(twin_classes(grid_graph(2, 4)).has_twins());
  // Isolated nodes share an empty neighbourhood.
  EXPECT_EQ(twin_classes(Graph(5, std::vector<Edge>{{2, 4}})).class_of,
            (std::vector<std::uint32_t>{0, 1, 0, 1, 0}));
}

TEST(TwinClasses, IdsDependOnTheGraphAlone) {
  // The same graph built from its edges in reverse order, and a second call.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Graph g = erdos_renyi(9, 1, 3, seed);
    std::vector<Edge> edges;
    for (const Edge e : g.edges()) edges.insert(edges.begin(), e);
    const Graph rebuilt(g.node_count(), edges);
    const TwinClasses t = twin_classes(g);
    EXPECT_EQ(twin_classes(rebuilt).class_of, t.class_of) << seed;
    EXPECT_EQ(twin_classes(g).class_of, t.class_of) << seed;
  }
}

TEST(Bipartite, EvenCycleYesOddCycleNo) {
  EXPECT_TRUE(is_bipartite(cycle_graph(8)));
  EXPECT_FALSE(is_bipartite(cycle_graph(7)));
  const auto coloring = bipartition(cycle_graph(4));
  ASSERT_TRUE(coloring.has_value());
  EXPECT_EQ((*coloring)[0], 0);
  EXPECT_NE((*coloring)[0], (*coloring)[1]);
}

TEST(EvenOddBipartite, ParityDefinition) {
  // 1-2 crosses parity; 1-3 does not.
  EXPECT_TRUE(is_even_odd_bipartite(Graph(3, std::vector<Edge>{{1, 2}})));
  EXPECT_FALSE(is_even_odd_bipartite(Graph(3, std::vector<Edge>{{1, 3}})));
  EXPECT_TRUE(is_even_odd_bipartite(path_graph(9)));  // consecutive ids
}

TEST(Degeneracy, KnownValues) {
  EXPECT_EQ(degeneracy_order(empty_graph(4)).k, 0);
  EXPECT_EQ(degeneracy_order(path_graph(6)).k, 1);
  EXPECT_EQ(degeneracy_order(random_tree(40, 3)).k, 1);
  EXPECT_EQ(degeneracy_order(cycle_graph(9)).k, 2);
  EXPECT_EQ(degeneracy_order(complete_graph(5)).k, 4);
  EXPECT_EQ(degeneracy_order(complete_bipartite(3, 7)).k, 3);
  EXPECT_EQ(degeneracy_order(grid_graph(4, 4)).k, 2);
}

TEST(Degeneracy, OrderWitnessesK) {
  const Graph g = erdos_renyi(30, 1, 4, 11);
  const Degeneracy d = degeneracy_order(g);
  // Replay the elimination: every node's degree among later nodes ≤ k.
  std::vector<bool> removed(g.node_count() + 1, false);
  for (NodeId v : d.order) {
    std::size_t later = 0;
    for (NodeId w : g.neighbors(v)) {
      if (!removed[w]) ++later;
    }
    EXPECT_LE(later, static_cast<std::size_t>(d.k));
    removed[v] = true;
  }
  EXPECT_TRUE(is_k_degenerate(g, d.k));
  EXPECT_FALSE(is_k_degenerate(g, d.k - 1));
}

TEST(Triangles, DetectionAndCounting) {
  EXPECT_FALSE(has_triangle(path_graph(10)));
  EXPECT_FALSE(has_triangle(complete_bipartite(4, 4)));
  EXPECT_TRUE(has_triangle(complete_graph(3)));
  EXPECT_EQ(count_triangles(complete_graph(4)), 4u);
  EXPECT_EQ(count_triangles(complete_graph(6)), 20u);
  EXPECT_EQ(count_triangles(cycle_graph(3)), 1u);
  EXPECT_EQ(count_triangles(cycle_graph(5)), 0u);
  const auto t = find_triangle(complete_graph(5));
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE((*t)[0] < (*t)[1] && (*t)[1] < (*t)[2]);
}

TEST(Squares, C4Detection) {
  EXPECT_TRUE(has_square(cycle_graph(4)));
  EXPECT_TRUE(has_square(complete_bipartite(2, 2)));
  EXPECT_FALSE(has_square(complete_graph(3)));
  EXPECT_FALSE(has_square(path_graph(8)));
  EXPECT_TRUE(has_square(grid_graph(2, 2)));
}

TEST(Diameter, PathAndDisconnected) {
  EXPECT_EQ(diameter(path_graph(7)), 6);
  EXPECT_EQ(diameter(complete_graph(5)), 1);
  EXPECT_EQ(diameter(cycle_graph(8)), 4);
  EXPECT_EQ(diameter(two_cliques(3)), -1);
}

TEST(IndependentSets, Validation) {
  const Graph g = cycle_graph(6);
  EXPECT_TRUE(is_independent_set(g, {1, 3, 5}));
  EXPECT_FALSE(is_independent_set(g, {1, 2}));
  EXPECT_FALSE(is_independent_set(g, {1, 1}));
  EXPECT_TRUE(is_maximal_independent_set(g, {1, 3, 5}));
  // {1,4} dominates 2,6 (via 1) and 3,5 (via 4): maximal despite size 2.
  EXPECT_TRUE(is_maximal_independent_set(g, {1, 4}));
  // {1} leaves 3,4,5 undominated.
  EXPECT_FALSE(is_maximal_independent_set(g, {1}));
  EXPECT_TRUE(is_rooted_mis(g, {2, 4, 6}, 4));
  EXPECT_FALSE(is_rooted_mis(g, {1, 3, 5}, 4));
}

TEST(TwoCliquesCheck, Shapes) {
  EXPECT_TRUE(is_two_cliques(two_cliques(5)));
  EXPECT_FALSE(is_two_cliques(two_cliques_switched(5)));
  EXPECT_FALSE(is_two_cliques(complete_graph(6)));
  EXPECT_FALSE(is_two_cliques(cycle_graph(6)));  // C6 is 2-regular, connected
  // Two triangles = two 3-cliques.
  const std::vector<Edge> tt = {{1, 2}, {1, 3}, {2, 3}, {4, 5}, {4, 6}, {5, 6}};
  EXPECT_TRUE(is_two_cliques(Graph(6, tt)));
  // Unequal components.
  const std::vector<Edge> uneq = {{1, 2}, {1, 3}, {2, 3}};
  EXPECT_FALSE(is_two_cliques(Graph(4, uneq)));
}

}  // namespace
}  // namespace wb
