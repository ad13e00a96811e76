// Round equivalence: the engine's incremental round must be a pure
// optimization of "ask every awake node, rescan every set". Every suite here
// runs a protocol in lockstep with itself wrapped in WithoutLocality (which
// withdraws any FrontierLocality claim, so every awake node is asked every
// round) — same graph, same adversary choices — and requires bit-identical
// observables: candidate sets, whiteboard contents, terminal status, error
// strings, stats, write order, and trace. A third, journaling state walks
// the same schedule tree by checkpoint/write_node/rewind and must match the
// copies everywhere, with candidates() restored exactly after every rewind.
// The exhaustive suites branch over *every* adversary schedule on small
// instances, so a locality claim a protocol does not honor (or a set
// bookkeeping bug) cannot hide behind one lucky ordering.
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/generators.h"
#include "src/protocols/bfs_sync.h"
#include "src/protocols/eob_bfs.h"
#include "src/protocols/mis.h"
#include "src/protocols/oracles.h"
#include "src/protocols/two_cliques.h"
#include "src/wb/engine.h"
#include "tests/wb/test_protocols.h"

namespace wb {
namespace {

constexpr EngineOptions kTraced{.record_trace = true};

std::vector<NodeId> Candidates(const EngineState& s) {
  return {s.candidates().begin(), s.candidates().end()};
}

void ExpectSameResult(const ExecutionResult& ref, const ExecutionResult& got) {
  EXPECT_EQ(ref.status, got.status);
  EXPECT_EQ(ref.error, got.error);
  ASSERT_EQ(ref.board.message_count(), got.board.message_count());
  EXPECT_EQ(ref.board.content_hash(), got.board.content_hash());
  EXPECT_EQ(ref.write_order, got.write_order);
  EXPECT_EQ(ref.stats.rounds, got.stats.rounds);
  EXPECT_EQ(ref.stats.writes, got.stats.writes);
  EXPECT_EQ(ref.stats.max_message_bits, got.stats.max_message_bits);
  EXPECT_EQ(ref.stats.total_bits, got.stats.total_bits);
  EXPECT_EQ(ref.stats.activation_round, got.stats.activation_round);
  EXPECT_EQ(ref.stats.write_round, got.stats.write_round);
  ASSERT_EQ(ref.trace.size(), got.trace.size());
  for (std::size_t i = 0; i < ref.trace.size(); ++i) {
    EXPECT_EQ(ref.trace[i].round, got.trace[i].round) << "trace event " << i;
    EXPECT_EQ(ref.trace[i].kind, got.trace[i].kind) << "trace event " << i;
    EXPECT_EQ(ref.trace[i].node, got.trace[i].node) << "trace event " << i;
  }
}

/// Explores every adversary schedule three ways at once: copies of a state
/// running `p` as it claims, copies of one running WithoutLocality(p), and
/// one journaling state of `p` that branches by checkpoint/write_node and
/// undoes each branch by rewind. All observables are compared at each round.
class LockstepExplorer {
 public:
  LockstepExplorer(const Graph& g, const Protocol& p)
      : graph_(g), unclaimed_(p), journaled_(g, p, kTraced) {
    journaled_.set_journaling(true);
    Explore(EngineState(g, p, kTraced), EngineState(g, unclaimed_, kTraced));
  }

  [[nodiscard]] std::size_t executions() const { return executions_; }

 private:
  // Returns with journaled_ rewound to how it found it (unless an assertion
  // failed, which ends the whole exploration).
  void Explore(EngineState claimed, EngineState unclaimed) {
    // A write that ended the run is a leaf with no round of its own.
    std::optional<EngineState::Checkpoint> pre_round;
    if (!journaled_.terminal()) pre_round = journaled_.checkpoint();
    claimed.begin_round();
    unclaimed.begin_round();
    journaled_.begin_round();
    ASSERT_EQ(claimed.terminal(), unclaimed.terminal())
        << "round " << claimed.round() << " on n=" << graph_.node_count();
    ASSERT_EQ(claimed.terminal(), journaled_.terminal());
    ASSERT_EQ(claimed.round(), unclaimed.round());
    ASSERT_EQ(claimed.round(), journaled_.round());
    if (claimed.terminal()) {
      const ExecutionResult result = std::move(claimed).finish();
      ExpectSameResult(result, std::move(unclaimed).finish());
      ExpectSameResult(result, journaled_.finish());
      ++executions_;
    } else {
      const std::vector<NodeId> cands = Candidates(claimed);
      ASSERT_EQ(cands, Candidates(unclaimed)) << "round " << claimed.round();
      ASSERT_EQ(cands, Candidates(journaled_)) << "round " << claimed.round();
      const EngineState::Checkpoint pre_write = journaled_.checkpoint();
      for (std::size_t i = 0; i < cands.size(); ++i) {
        EngineState claimed_branch = claimed;
        EngineState unclaimed_branch = unclaimed;
        claimed_branch.write(i);
        unclaimed_branch.write(i);
        journaled_.write_node(cands[i]);
        Explore(std::move(claimed_branch), std::move(unclaimed_branch));
        if (::testing::Test::HasFatalFailure()) return;
        journaled_.rewind(pre_write);
        ASSERT_EQ(Candidates(journaled_), cands)
            << "candidates after rewinding round " << claimed.round();
      }
    }
    if (pre_round.has_value()) journaled_.rewind(*pre_round);
  }

  const Graph& graph_;
  const testing::WithoutLocality unclaimed_;
  EngineState journaled_;
  std::size_t executions_ = 0;
};

std::vector<Graph> SmallGraphZoo() {
  std::vector<Graph> zoo;
  zoo.push_back(path_graph(4));
  zoo.push_back(cycle_graph(5));
  zoo.push_back(star_graph(5));
  zoo.push_back(complete_graph(4));
  zoo.push_back(two_cliques(2));
  zoo.push_back(grid_graph(2, 2));
  zoo.push_back(empty_graph(3));
  zoo.push_back(random_tree(5, 7));
  return zoo;
}

void ExhaustiveEquivalence(const Protocol& p) {
  for (const Graph& g : SmallGraphZoo()) {
    LockstepExplorer explorer(g, p);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << p.name() << " diverged on n=" << g.node_count()
             << " m=" << g.edge_count();
    }
    EXPECT_GT(explorer.executions(), 0u);
  }
}

// --- Exhaustive lockstep across the protocol zoo ---
// Locality-claiming protocols (the neighbour walk must match asking every
// awake node):

TEST(FrontierEquivalence, RumorExhaustive) {
  ExhaustiveEquivalence(testing::RumorProtocol{});
}

TEST(FrontierEquivalence, GossipCountExhaustive) {
  ExhaustiveEquivalence(testing::GossipCountProtocol{});
}

// Protocols with no locality claim (both copies take the same walk; the
// journaled state still has to match them), including async, deadlocking,
// overflowing, and class-violating specimens:

TEST(FrontierEquivalence, SyncBfsExhaustive) {
  ExhaustiveEquivalence(SyncBfsProtocol{});
}

TEST(FrontierEquivalence, SpanningForestExhaustive) {
  ExhaustiveEquivalence(SpanningForestProtocol{});
}

TEST(FrontierEquivalence, RootedMisExhaustive) {
  ExhaustiveEquivalence(RootedMisProtocol(1));
  ExhaustiveEquivalence(RootedMisProtocol(3));
}

TEST(FrontierEquivalence, TwoCliquesExhaustive) {
  TwoCliquesProtocol p;
  for (std::size_t k : {1u, 2u}) {
    LockstepExplorer explorer(two_cliques(k), p);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    EXPECT_GT(explorer.executions(), 0u);
  }
}

TEST(FrontierEquivalence, EobBfsExhaustive) {
  EobBfsProtocol p;
  for (const Graph& g : {path_graph(4),
                         connected_even_odd_bipartite(6, 1, 2, 11),
                         cycle_graph(4)}) {
    LockstepExplorer explorer(g, p);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    EXPECT_GT(explorer.executions(), 0u);
  }
}

TEST(FrontierEquivalence, EchoIdExhaustive) {
  ExhaustiveEquivalence(testing::EchoIdProtocol{});
}

TEST(FrontierEquivalence, BoardSizeExhaustive) {
  ExhaustiveEquivalence(testing::BoardSizeProtocol{});
}

TEST(FrontierEquivalence, FrozenBoardSizeExhaustive) {
  ExhaustiveEquivalence(testing::FrozenBoardSizeProtocol{});
}

TEST(FrontierEquivalence, OnlyFirstNodeDeadlockExhaustive) {
  ExhaustiveEquivalence(testing::OnlyFirstNodeProtocol{});
}

TEST(FrontierEquivalence, OversizeOverflowExhaustive) {
  ExhaustiveEquivalence(testing::OversizeProtocol{});
}

TEST(FrontierEquivalence, MidRoundOverflowExhaustive) {
  ExhaustiveEquivalence(testing::MidRoundOverflowProtocol{});
}

TEST(FrontierEquivalence, InOrderOnlyFailingWritesExhaustive) {
  ExhaustiveEquivalence(testing::InOrderOnlyProtocol{});
}

TEST(FrontierEquivalence, LazySimSyncProtocolErrorExhaustive) {
  ExhaustiveEquivalence(testing::LazySimSyncProtocol{});
}

// --- Deep single-schedule runs on larger instances ---

/// run_protocol on WithoutLocality(p) against `p` on a journaling state that
/// detours at every round: it writes the last candidate, runs the next
/// round, and rewinds before taking the adversary's pick.
void DeepEquivalence(const Graph& g, const Protocol& p, Adversary& adv) {
  const testing::WithoutLocality unclaimed(p);
  const ExecutionResult ref = run_protocol(g, unclaimed, adv, kTraced);
  adv.reset();
  EngineState s(g, p, kTraced);
  s.set_journaling(true);
  while (true) {
    s.begin_round();
    if (s.terminal()) break;
    const std::vector<NodeId> cands = Candidates(s);
    const EngineState::Checkpoint cp = s.checkpoint();
    s.write(cands.size() - 1);
    s.begin_round();
    s.rewind(cp);
    ASSERT_EQ(Candidates(s), cands) << "round " << s.round();
    s.write(adv.choose(s.candidates(), s.board(), s.round()));
  }
  ExpectSameResult(ref, std::move(s).finish());
}

TEST(FrontierDeep, SyncBfsLargerGraphs) {
  SyncBfsProtocol p;
  FirstAdversary first;
  LastAdversary last;
  RandomAdversary random(12345);
  RotatingAdversary rotating;
  for (const Graph& g :
       {star_graph(64), path_graph(40), grid_graph(5, 8),
        erdos_renyi(30, 1, 5, 99), random_forest(32, 60, 5)}) {
    DeepEquivalence(g, p, first);
    DeepEquivalence(g, p, last);
    DeepEquivalence(g, p, random);
    DeepEquivalence(g, p, rotating);
  }
}

TEST(FrontierDeep, RootedMisLargerGraphs) {
  RootedMisProtocol p(1);
  RandomAdversary random(777);
  RotatingAdversary rotating;
  for (const Graph& g : {star_graph(50), cycle_graph(33), complete_graph(12),
                         erdos_renyi(24, 1, 3, 4321)}) {
    DeepEquivalence(g, p, random);
    DeepEquivalence(g, p, rotating);
  }
}

TEST(FrontierDeep, RumorFloodLargerGraphs) {
  testing::RumorProtocol p;
  FirstAdversary first;
  RandomAdversary random(31337);
  // Star: one writer wakes everyone; path: each writer wakes one neighbour.
  for (const Graph& g : {star_graph(80), path_graph(60), grid_graph(6, 6)}) {
    DeepEquivalence(g, p, first);
    DeepEquivalence(g, p, random);
  }
}

TEST(FrontierDeep, GossipCountLargerGraphs) {
  testing::GossipCountProtocol p;
  RandomAdversary random(2024);
  for (const Graph& g :
       {star_graph(48), path_graph(48), complete_bipartite(6, 9)}) {
    DeepEquivalence(g, p, random);
  }
}

// --- Engine set semantics ---

TEST(FrontierEngine, SucceedsOnStar) {
  const Graph g = star_graph(32);
  SyncBfsProtocol p;
  ExecutionResult r = run_protocol(g, p);
  EXPECT_EQ(r.status, RunStatus::kSuccess);
  EXPECT_EQ(r.stats.writes, g.node_count());
  const BfsProtocolOutput out = p.output(r.board, g.node_count());
  ASSERT_TRUE(out.valid);
  ASSERT_EQ(out.layer.size(), g.node_count());
  EXPECT_EQ(out.layer[0], 0);  // center (node 1)
  for (std::size_t i = 1; i < out.layer.size(); ++i) {
    EXPECT_EQ(out.layer[i], 1);
  }
}

TEST(FrontierEngine, WriteNodeKeepsCandidatesInvariant) {
  // write_node must erase exactly the written node from the (sorted)
  // candidate set, and rewind must put it back, so a caller-driven schedule
  // works.
  const Graph g = complete_graph(4);
  testing::EchoIdProtocol p;
  EngineState s(g, p);
  s.set_journaling(true);
  s.begin_round();
  ASSERT_EQ(s.candidates().size(), 4u);
  const EngineState::Checkpoint cp = s.checkpoint();
  s.write_node(3);
  EXPECT_EQ(Candidates(s), (std::vector<NodeId>{1, 2, 4}));
  s.rewind(cp);
  EXPECT_EQ(Candidates(s), (std::vector<NodeId>{1, 2, 3, 4}));
  s.write_node(3);
  s.begin_round();
  s.write_node(1);
  s.begin_round();
  s.write_node(4);
  s.begin_round();
  s.write_node(2);
  s.begin_round();
  EXPECT_TRUE(s.terminal());
  EXPECT_EQ(std::move(s).finish().status, RunStatus::kSuccess);
}

}  // namespace
}  // namespace wb
