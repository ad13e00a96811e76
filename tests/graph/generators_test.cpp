#include "src/graph/generators.h"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "src/graph/algorithms.h"

namespace wb {
namespace {

TEST(Structured, PathCycleCompleteStar) {
  EXPECT_EQ(path_graph(5).edge_count(), 4u);
  EXPECT_EQ(path_graph(1).edge_count(), 0u);
  EXPECT_EQ(cycle_graph(6).edge_count(), 6u);
  EXPECT_EQ(complete_graph(5).edge_count(), 10u);
  EXPECT_EQ(star_graph(7).degree(1), 6u);
  EXPECT_EQ(grid_graph(3, 4).edge_count(), 3u * 3 + 4u * 2);
  EXPECT_EQ(complete_bipartite(3, 4).edge_count(), 12u);
}

TEST(Structured, TwoCliquesShape) {
  const Graph g = two_cliques(4);
  EXPECT_EQ(g.node_count(), 8u);
  EXPECT_TRUE(is_two_cliques(g));
  EXPECT_TRUE(is_regular(g, 3));
  EXPECT_FALSE(is_connected(g));
}

TEST(Structured, TwoCliquesSwitchedIsRegularConnectedNonCliques) {
  for (std::size_t n : {3u, 4u, 5u, 8u}) {
    const Graph g = two_cliques_switched(n);
    EXPECT_EQ(g.node_count(), 2 * n);
    EXPECT_TRUE(is_regular(g, n - 1)) << n;
    EXPECT_TRUE(is_connected(g)) << n;
    EXPECT_FALSE(is_two_cliques(g)) << n;
  }
}

class SeededGenTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(SeededGenTest, RandomTreeIsTree) {
  const auto [n, seed] = GetParam();
  const Graph g = random_tree(n, seed);
  EXPECT_EQ(g.edge_count(), n - 1);
  EXPECT_TRUE(is_connected(g));
}

TEST_P(SeededGenTest, RandomForestIsForest) {
  const auto [n, seed] = GetParam();
  const Graph g = random_forest(n, 70, seed);
  EXPECT_TRUE(is_k_degenerate(g, 1));
}

TEST_P(SeededGenTest, KDegenerateRespectsBound) {
  const auto [n, seed] = GetParam();
  for (int k : {1, 2, 3, 4}) {
    const Graph g = random_k_degenerate(n, k, 20, seed);
    EXPECT_LE(degeneracy_order(g).k, k) << "n=" << n << " k=" << k;
  }
}

TEST_P(SeededGenTest, EvenOddBipartiteHoldsParityInvariant) {
  const auto [n, seed] = GetParam();
  EXPECT_TRUE(is_even_odd_bipartite(random_even_odd_bipartite(n, 1, 3, seed)));
  if (n >= 2) {
    const Graph g = connected_even_odd_bipartite(n, 1, 4, seed);
    EXPECT_TRUE(is_even_odd_bipartite(g));
    EXPECT_TRUE(is_connected(g));
  }
}

TEST_P(SeededGenTest, ConnectedGnpIsConnected) {
  const auto [n, seed] = GetParam();
  EXPECT_TRUE(is_connected(connected_gnp(n, 1, 10, seed)));
}

TEST_P(SeededGenTest, BipartiteHasFixedParts) {
  const auto [n, seed] = GetParam();
  const std::size_t a = n / 2;
  const Graph g = random_bipartite(a, n - a, 1, 2, seed);
  for (const Edge& e : g.edges()) {
    EXPECT_LE(e.u, a);
    EXPECT_GT(e.v, a);
  }
}

TEST_P(SeededGenTest, PlantedTriangleWhenDense) {
  const auto [n, seed] = GetParam();
  if (n < 3) return;
  bool planted = false;
  const Graph g = planted_triangle(n, 2, 3, seed, &planted);
  if (planted) {
    EXPECT_TRUE(has_triangle(g));
  }
}

TEST_P(SeededGenTest, RandomPermutationIsValid) {
  const auto [n, seed] = GetParam();
  const auto perm = random_permutation(n, seed);
  std::set<NodeId> unique(perm.begin(), perm.end());
  EXPECT_EQ(unique.size(), n);
  EXPECT_EQ(*unique.begin(), 1u);
  EXPECT_EQ(*unique.rbegin(), static_cast<NodeId>(n));
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, SeededGenTest,
    ::testing::Combine(::testing::Values(2, 5, 16, 40, 101),
                       ::testing::Values(1u, 7u, 99u)));

TEST(Determinism, SameSeedSameGraph) {
  EXPECT_EQ(random_tree(30, 5), random_tree(30, 5));
  EXPECT_EQ(erdos_renyi(20, 1, 3, 9), erdos_renyi(20, 1, 3, 9));
  EXPECT_FALSE(erdos_renyi(20, 1, 3, 9) == erdos_renyi(20, 1, 3, 10));
}

TEST(ErdosRenyi, ExtremeProbabilities) {
  EXPECT_EQ(erdos_renyi(10, 0, 1, 3).edge_count(), 0u);
  EXPECT_EQ(erdos_renyi(10, 1, 1, 3).edge_count(), 45u);
}

TEST(Structured, Hypercube) {
  const Graph q3 = hypercube_graph(3);
  EXPECT_EQ(q3.node_count(), 8u);
  EXPECT_EQ(q3.edge_count(), 12u);
  EXPECT_TRUE(is_regular(q3, 3));
  EXPECT_TRUE(is_bipartite(q3));
  EXPECT_TRUE(is_connected(q3));
  EXPECT_EQ(diameter(q3), 3);
  EXPECT_EQ(hypercube_graph(0).node_count(), 1u);
}

TEST(Structured, Wheel) {
  const Graph w = wheel_graph(7);  // hub + C6
  EXPECT_EQ(w.edge_count(), 12u);
  EXPECT_EQ(w.degree(1), 6u);
  for (NodeId v = 2; v <= 7; ++v) EXPECT_EQ(w.degree(v), 3u);
  EXPECT_TRUE(has_triangle(w));
  EXPECT_EQ(diameter(w), 2);
}

TEST(Structured, Barbell) {
  const Graph b = barbell_graph(4, 2);
  EXPECT_EQ(b.node_count(), 10u);
  EXPECT_EQ(b.edge_count(), 2 * 6u + 3u);
  EXPECT_TRUE(is_connected(b));
  EXPECT_EQ(degeneracy_order(b).k, 3);
  EXPECT_TRUE(has_triangle(b));
}

TEST(RandomRegular, DegreeAndSimplicity) {
  for (auto [n, d] : {std::pair<std::size_t, std::size_t>{8, 3},
                      {10, 4},
                      {12, 5},
                      {16, 7}}) {
    for (std::uint64_t seed : {1u, 9u}) {
      const Graph g = random_regular(n, d, seed);
      EXPECT_TRUE(is_regular(g, d)) << n << " " << d;
      EXPECT_EQ(g.edge_count(), n * d / 2);
    }
  }
  EXPECT_THROW((void)random_regular(5, 3, 1), LogicError);  // n*d odd
}

TEST(Rmat, SeedDeterministicAndShaped) {
  const Graph a = rmat_graph(8, 8, 42);
  const Graph b = rmat_graph(8, 8, 42);
  EXPECT_EQ(a, b);  // same seed: bit-identical
  const Graph c = rmat_graph(8, 8, 43);
  EXPECT_NE(a, c);  // different seed: different graph
  EXPECT_EQ(a.node_count(), std::size_t{1} << 8);
  // Duplicates collapse, so m < samples; still a dense-ish core.
  EXPECT_GT(a.edge_count(), a.node_count());
  EXPECT_LE(a.edge_count(), (std::size_t{1} << 8) * 8);
  // Skew: RMAT's recursive quadrants concentrate degree far above average.
  std::size_t max_deg = 0;
  for (NodeId v = 1; v <= a.node_count(); ++v) {
    max_deg = std::max(max_deg, a.degree(v));
  }
  EXPECT_GT(max_deg, 4 * (2 * a.edge_count() / a.node_count()));
}

TEST(Rmat, ReportsBuildStats) {
  Graph::BuildStats stats;
  const Graph g = rmat_graph(6, 4, 7, &stats);
  EXPECT_EQ(stats.pairs, (std::size_t{1} << 6) * 4);
  EXPECT_EQ(stats.pairs, g.edge_count() + stats.self_loops_dropped +
                             stats.duplicates_dropped);
  EXPECT_GE(stats.peak_bytes, g.memory_bytes());
}

TEST(Rmat, RejectsBadParameters) {
  EXPECT_THROW((void)rmat_graph(0, 8, 1), DataError);
  EXPECT_THROW((void)rmat_graph(29, 8, 1), DataError);
  EXPECT_THROW((void)rmat_graph(8, 0, 1), DataError);
}

TEST(PowerLaw, SeedDeterministicAndSkewed) {
  const Graph a = random_power_law(300, 4, 2.5, 11);
  EXPECT_EQ(a, random_power_law(300, 4, 2.5, 11));
  EXPECT_NE(a, random_power_law(300, 4, 2.5, 12));
  EXPECT_EQ(a.node_count(), 300u);
  std::size_t max_deg = 0;
  for (NodeId v = 1; v <= a.node_count(); ++v) {
    max_deg = std::max(max_deg, a.degree(v));
  }
  const std::size_t avg = 2 * a.edge_count() / a.node_count();
  EXPECT_GT(max_deg, 4 * avg);  // heavy head vs. the average degree
}

TEST(RandomRegular, SuppliesTwoCliquesNoInstances) {
  // (n-1)-regular on 2n nodes that is connected is a NO instance of
  // 2-CLIQUES; the pairing model gives connected samples routinely.
  std::size_t no_instances = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = random_regular(12, 5, seed);  // 2n=12, n-1=5
    if (!is_two_cliques(g)) ++no_instances;
  }
  EXPECT_GE(no_instances, 5u);
}

}  // namespace
}  // namespace wb
