#include "src/protocols/build_degenerate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "src/graph/algorithms.h"
#include "src/graph/enumerate.h"
#include "src/graph/generators.h"
#include "src/wb/engine.h"
#include "src/wb/exhaustive.h"

namespace wb {
namespace {

class DegenerateReconstructionTest
    : public ::testing::TestWithParam<
          std::tuple<int, std::size_t, std::uint64_t>> {};

TEST_P(DegenerateReconstructionTest, RandomKDegenerateGraphsReconstruct) {
  const auto [k, n, seed] = GetParam();
  const BuildDegenerateProtocol p(k);
  const Graph g = random_k_degenerate(n, k, 20, seed);
  for (auto& adv : standard_adversaries(g, seed)) {
    const ExecutionResult r = run_protocol(g, p, *adv);
    ASSERT_TRUE(r.ok()) << adv->name();
    const BuildOutput out = p.output(r.board, n);
    ASSERT_TRUE(out.has_value()) << adv->name();
    EXPECT_EQ(*out, g) << adv->name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    KSizesSeeds, DegenerateReconstructionTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(6, 20, 64, 150),
                       ::testing::Values(3u, 77u)));

TEST(BuildDegenerate, ExhaustiveClassificationN5K2) {
  // Every labeled 5-node graph: degeneracy ≤ 2 must reconstruct exactly,
  // anything denser must be rejected (recognition variant of Thm 2).
  const BuildDegenerateProtocol p(2);
  FirstAdversary adv;
  std::size_t accepted = 0, rejected = 0;
  for_each_labeled_graph(5, [&](const Graph& g) {
    const ExecutionResult r = run_protocol(g, p, adv);
    ASSERT_TRUE(r.ok());
    const BuildOutput out = p.output(r.board, 5);
    if (is_k_degenerate(g, 2)) {
      ASSERT_TRUE(out.has_value());
      EXPECT_EQ(*out, g);
      ++accepted;
    } else {
      EXPECT_EQ(out, std::nullopt);
      ++rejected;
    }
  });
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(accepted + rejected, 1024u);
}

TEST(BuildDegenerate, OrderInsensitiveDecodingExhaustiveSchedules) {
  const BuildDegenerateProtocol p(2);
  const Graph g = random_k_degenerate(5, 2, 10, 5);
  EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
    const BuildOutput out = p.output(r.board, 5);
    return out.has_value() && *out == g;
  }));
}

TEST(BuildDegenerate, RejectsCliquesAboveK) {
  for (int k = 1; k <= 4; ++k) {
    const BuildDegenerateProtocol p(k);
    const Graph g = complete_graph(static_cast<std::size_t>(k) + 2);
    FirstAdversary adv;
    const ExecutionResult r = run_protocol(g, p, adv);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(p.output(r.board, g.node_count()), std::nullopt) << "k=" << k;
  }
}

TEST(BuildDegenerate, AcceptsCliqueAtExactDegeneracy) {
  // K_{k+1} has degeneracy exactly k.
  for (int k = 1; k <= 4; ++k) {
    const BuildDegenerateProtocol p(k);
    const Graph g = complete_graph(static_cast<std::size_t>(k) + 1);
    FirstAdversary adv;
    const ExecutionResult r = run_protocol(g, p, adv);
    ASSERT_TRUE(r.ok());
    const BuildOutput out = p.output(r.board, g.node_count());
    ASSERT_TRUE(out.has_value()) << "k=" << k;
    EXPECT_EQ(*out, g);
  }
}

TEST(BuildDegenerate, PlanarLikeWorkloadsAtK5) {
  // Planar graphs have degeneracy ≤ 5 (§3.4); grids are the planar workload
  // here (degeneracy 2, but run under the k = 5 protocol as the paper would).
  const BuildDegenerateProtocol p(5);
  const Graph g = grid_graph(6, 7);
  FirstAdversary adv;
  const ExecutionResult r = run_protocol(g, p, adv);
  ASSERT_TRUE(r.ok());
  const BuildOutput out = p.output(r.board, g.node_count());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, g);
}

TEST(BuildDegenerate, TableDecoderAgreesWithNewton) {
  const BuildDegenerateProtocol newton(2, DegenerateDecoder::kNewton);
  const BuildDegenerateProtocol table(2, DegenerateDecoder::kTable);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Graph g = random_k_degenerate(16, 2, 25, seed);
    FirstAdversary adv;
    const ExecutionResult r = run_protocol(g, newton, adv);
    ASSERT_TRUE(r.ok());
    const BuildOutput a = newton.output(r.board, 16);
    const BuildOutput b = table.output(r.board, 16);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*a, *b);
    EXPECT_EQ(*a, g);
  }
}

TEST(BuildDegenerate, MessageSizeIsOrderKSquaredLogN) {
  // Lemma 1: O(k² log n) bits; check the constant stays modest.
  for (int k = 1; k <= 5; ++k) {
    for (std::size_t n : {16u, 256u, 4096u}) {
      const BuildDegenerateProtocol p(k);
      const double logn = std::log2(static_cast<double>(n));
      const double bound =
          (static_cast<double>(k) * (k + 3) / 2.0 + 2.0) * (logn + 1) + 8;
      EXPECT_LE(static_cast<double>(p.message_bit_limit(n)), bound)
          << "k=" << k << " n=" << n;
    }
  }
}

TEST(BuildDegenerate, ForestsMatchDedicatedProtocolSemantics) {
  // k = 1 instance must accept exactly the forests.
  const BuildDegenerateProtocol p(1);
  FirstAdversary adv;
  for_each_labeled_graph(4, [&](const Graph& g) {
    const ExecutionResult r = run_protocol(g, p, adv);
    ASSERT_TRUE(r.ok());
    const BuildOutput out = p.output(r.board, 4);
    EXPECT_EQ(out.has_value(), is_k_degenerate(g, 1));
    if (out.has_value()) {
      EXPECT_EQ(*out, g);
    }
  });
}

TEST(BuildDegenerate, CorruptedPowerSumsRaiseDataError) {
  const BuildDegenerateProtocol p(2);
  const Graph g = cycle_graph(5);  // degeneracy 2
  FirstAdversary adv;
  const ExecutionResult r = run_protocol(g, p, adv);
  ASSERT_TRUE(r.ok());
  // Flip one bit inside the first message's power-sum region.
  Whiteboard corrupted;
  for (std::size_t i = 0; i < r.board.message_count(); ++i) {
    if (i != 0) {
      corrupted.append(r.board.message(i));
      continue;
    }
    const Bits& m = r.board.message(i);
    BitWriter w;
    for (std::size_t b = 0; b < m.size(); ++b) {
      w.write_bit(b == m.size() - 1 ? !m.bit(b) : m.bit(b));
    }
    corrupted.append(w.take());
  }
  EXPECT_THROW((void)p.output(corrupted, 5), DataError);
}

TEST(BuildDegenerate, RejectsUnsupportedK) {
  EXPECT_THROW(BuildDegenerateProtocol(0), DataError);
  EXPECT_THROW(BuildDegenerateProtocol(6), DataError);
}

}  // namespace
}  // namespace wb
