#include "src/wb/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/graph/generators.h"
#include "src/protocols/bfs_sync.h"
#include "src/protocols/build_forest.h"
#include "src/protocols/two_cliques.h"
#include "tests/wb/test_protocols.h"

namespace wb {
namespace {

TEST(Engine, SuccessfulRunWritesEveryNodeOnce) {
  const Graph g = path_graph(6);
  const testing::EchoIdProtocol p;
  const ExecutionResult r = run_protocol(g, p);
  ASSERT_EQ(r.status, RunStatus::kSuccess);
  EXPECT_EQ(r.board.message_count(), 6u);
  EXPECT_EQ(r.stats.writes, 6u);
  std::set<NodeId> writers(r.write_order.begin(), r.write_order.end());
  EXPECT_EQ(writers.size(), 6u);
  EXPECT_EQ(p.output(r.board, 6), 6u);
}

TEST(Engine, SingleNodeGraph) {
  const Graph g(1);
  const testing::EchoIdProtocol p;
  const ExecutionResult r = run_protocol(g, p);
  EXPECT_EQ(r.status, RunStatus::kSuccess);
  EXPECT_EQ(r.board.message_count(), 1u);
}

TEST(Engine, StatsTrackBitsAndRounds) {
  const Graph g = star_graph(9);
  const BuildForestProtocol p;
  const ExecutionResult r = run_protocol(g, p);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r.stats.max_message_bits, p.message_bit_limit(9));
  EXPECT_EQ(r.stats.total_bits, r.board.total_bits());
  EXPECT_GE(r.stats.rounds, r.stats.writes);
  // All nodes activated in round 1 (simultaneous class).
  for (std::size_t ar : r.stats.activation_round) EXPECT_EQ(ar, 1u);
  // Write rounds are strictly increasing per write order.
  for (NodeId v = 1; v <= 9; ++v) EXPECT_GE(r.stats.write_round[v - 1], 1u);
}

TEST(Engine, SimultaneousClassViolationIsProtocolError) {
  const Graph g = path_graph(3);
  const testing::LazySimSyncProtocol p;
  const ExecutionResult r = run_protocol(g, p);
  EXPECT_EQ(r.status, RunStatus::kProtocolError);
  EXPECT_NE(r.error.find("did not activate"), std::string::npos);
}

TEST(Engine, MessageOverflowIsReported) {
  const Graph g = path_graph(3);
  const testing::OversizeProtocol p;
  const ExecutionResult r = run_protocol(g, p);
  EXPECT_EQ(r.status, RunStatus::kMessageOverflow);
  EXPECT_NE(r.error.find("exceeding"), std::string::npos);
}

TEST(Engine, DeadlockDetected) {
  const Graph g = path_graph(4);
  const testing::OnlyFirstNodeProtocol p;
  const ExecutionResult r = run_protocol(g, p);
  EXPECT_EQ(r.status, RunStatus::kDeadlock);
  EXPECT_EQ(r.board.message_count(), 1u);  // only node 1 wrote
}

TEST(Engine, SynchronousRecompositionSeesCurrentBoard) {
  // Every written message must carry the pre-write board size: proves the
  // engine composes a synchronous message from the board at its write.
  const Graph g = complete_graph(5);
  const testing::BoardSizeProtocol p;
  for (auto& adv : standard_adversaries(g, 99)) {
    const ExecutionResult r = run_protocol(g, p, *adv);
    ASSERT_TRUE(r.ok()) << adv->name();
    EXPECT_EQ(p.output(r.board, 5), 1) << adv->name();
  }
}

TEST(Engine, UnwrittenSynchronousMemoriesCannotFailARun) {
  // Under the first-fit adversary the nodes write in ID order, so every
  // message fits; the memories of the nodes still waiting would not.
  const Graph g = path_graph(4);
  const testing::InOrderOnlyProtocol p;
  const ExecutionResult in_order = run_protocol(g, p);
  EXPECT_EQ(in_order.status, RunStatus::kSuccess) << in_order.error;
  EXPECT_EQ(in_order.stats.max_message_bits, 1u);

  // The last-fit adversary writes node 4 first: the write itself fails,
  // names its writer, and puts nothing on the board.
  LastAdversary last;
  const ExecutionResult out_of_order = run_protocol(g, p, last);
  EXPECT_EQ(out_of_order.status, RunStatus::kMessageOverflow);
  EXPECT_EQ(out_of_order.error.rfind("node 4 composed 2 bits", 0), 0u)
      << out_of_order.error;
  EXPECT_EQ(out_of_order.stats.rounds, 1u);
  EXPECT_EQ(out_of_order.stats.writes, 0u);
  EXPECT_TRUE(out_of_order.board.empty());
  EXPECT_TRUE(out_of_order.write_order.empty());
}

/// Counts Protocol::compose calls of the protocol it wraps.
class ComposeCounter final : public Protocol {
 public:
  explicit ComposeCounter(const Protocol& inner) : inner_(inner) {}
  ModelClass model_class() const override { return inner_.model_class(); }
  std::size_t message_bit_limit(std::size_t n) const override {
    return inner_.message_bit_limit(n);
  }
  bool activate(const LocalView& view, const Whiteboard& board) const override {
    return inner_.activate(view, board);
  }
  Bits compose(const LocalView& view, const Whiteboard& board,
               BitWriter& scratch) const override {
    ++calls;
    return inner_.compose(view, board, scratch);
  }
  FrontierLocality frontier_locality() const override {
    return inner_.frontier_locality();
  }
  std::string name() const override { return inner_.name(); }

  mutable std::size_t calls = 0;

 private:
  const Protocol& inner_;
};

TEST(Engine, SynchronousRunsComposeEachMessageOnce) {
  // One compose per written message: a SIMSYNC run (everyone active from
  // round 1) and a SYNC run (activation gated on the board).
  const TwoCliquesProtocol two_cliques_p;
  const SyncBfsProtocol bfs;
  const Graph cliques = two_cliques(6);
  const Graph grid = grid_graph(3, 4);
  const std::pair<const Graph*, const Protocol*> cases[] = {
      {&cliques, &two_cliques_p}, {&grid, &bfs}};
  for (const auto& [g, inner] : cases) {
    const ComposeCounter counted(*inner);
    const ExecutionResult r = run_protocol(*g, counted);
    ASSERT_TRUE(r.ok()) << inner->name() << ": " << r.error;
    EXPECT_EQ(counted.calls, g->node_count()) << inner->name();
  }
}

TEST(Engine, AsynchronousMessagesAreFrozenAtActivation) {
  // All nodes activate on the empty board; everyone must write "0" no matter
  // how late the adversary schedules them.
  const Graph g = complete_graph(5);
  const testing::FrozenBoardSizeProtocol p;
  for (auto& adv : standard_adversaries(g, 99)) {
    const ExecutionResult r = run_protocol(g, p, *adv);
    ASSERT_TRUE(r.ok()) << adv->name();
    EXPECT_EQ(p.output(r.board, 5), 5) << adv->name();
  }
}

TEST(Engine, TraceRecordsLifecycle) {
  const Graph g = path_graph(3);
  const testing::EchoIdProtocol p;
  EngineOptions opts;
  opts.record_trace = true;
  const ExecutionResult r = run_protocol(g, p, opts);
  ASSERT_TRUE(r.ok());
  std::size_t activations = 0, writes = 0, terminations = 0;
  for (const TraceEvent& e : r.trace) {
    switch (e.kind) {
      case TraceEvent::Kind::kActivate: ++activations; break;
      case TraceEvent::Kind::kWrite: ++writes; break;
      case TraceEvent::Kind::kTerminate: ++terminations; break;
    }
  }
  EXPECT_EQ(activations, 3u);
  EXPECT_EQ(writes, 3u);
  EXPECT_GE(terminations, 2u);  // the last writer may terminate off-trace
}

TEST(Engine, RoundLimitGuard) {
  const Graph g = path_graph(3);
  const testing::EchoIdProtocol p;
  EngineOptions opts;
  opts.max_rounds = 1;  // not enough to finish 3 writes
  const ExecutionResult r = run_protocol(g, p, opts);
  EXPECT_EQ(r.status, RunStatus::kProtocolError);
}

TEST(EngineState, StepwiseApiMatchesRunner) {
  const Graph g = path_graph(4);
  const testing::EchoIdProtocol p;
  EngineState s(g, p);
  std::size_t writes = 0;
  while (true) {
    s.begin_round();
    if (s.terminal()) break;
    ASSERT_FALSE(s.candidates().empty());
    s.write(0);
    ++writes;
  }
  EXPECT_EQ(writes, 4u);
  EXPECT_EQ(s.finish().status, RunStatus::kSuccess);
}

TEST(EngineState, FinishBeforeTerminalThrows) {
  const Graph g = path_graph(2);
  const testing::EchoIdProtocol p;
  EngineState s(g, p);
  EXPECT_THROW((void)s.finish(), LogicError);
}

TEST(EngineState, MoveFinishMatchesCopyFinish) {
  const Graph g = complete_graph(4);
  const testing::BoardSizeProtocol p;
  EngineOptions opts;
  opts.record_trace = true;
  EngineState s(g, p, opts);
  while (true) {
    s.begin_round();
    if (s.terminal()) break;
    s.write(s.candidates().size() - 1);  // last candidate, for variety
  }
  const ExecutionResult copied = s.finish();
  const ExecutionResult moved = std::move(s).finish();
  EXPECT_EQ(moved.status, copied.status);
  EXPECT_EQ(moved.write_order, copied.write_order);
  EXPECT_EQ(moved.error, copied.error);
  EXPECT_EQ(moved.stats.writes, copied.stats.writes);
  EXPECT_EQ(moved.stats.rounds, copied.stats.rounds);
  EXPECT_EQ(moved.stats.activation_round, copied.stats.activation_round);
  EXPECT_EQ(moved.stats.write_round, copied.stats.write_round);
  EXPECT_EQ(moved.trace.size(), copied.trace.size());
  ASSERT_EQ(moved.board.message_count(), copied.board.message_count());
  for (std::size_t i = 0; i < moved.board.message_count(); ++i) {
    EXPECT_TRUE(moved.board.message(i) == copied.board.message(i));
  }
}

TEST(EngineState, WriteNodeRejectsNonCandidates) {
  const Graph g = path_graph(3);
  const testing::OnlyFirstNodeProtocol p;  // only node 1 ever activates
  EngineState s(g, p);
  s.begin_round();
  ASSERT_FALSE(s.terminal());
  EXPECT_THROW(s.write_node(2), LogicError);   // awake, not active
  EXPECT_THROW(s.write_node(99), LogicError);  // not a node
  s.write_node(1);
  s.begin_round();  // node 1 terminates; run deadlocks
  EXPECT_TRUE(s.terminal());
}

TEST(EngineState, WriteNodeEnforcesOneWritePerRound) {
  const Graph g = complete_graph(3);
  const testing::EchoIdProtocol p;
  EngineState s(g, p);
  s.begin_round();
  ASSERT_FALSE(s.terminal());
  s.write_node(1);
  EXPECT_THROW(s.write_node(2), LogicError);  // no begin_round() in between
  s.begin_round();
  s.write_node(2);  // fine after the next round starts
}

TEST(EngineState, CheckpointRequiresJournaling) {
  const Graph g = path_graph(2);
  const testing::EchoIdProtocol p;
  EngineState s(g, p);
  EXPECT_THROW((void)s.checkpoint(), LogicError);
}

// Branch once by checkpoint/rewind and once on a fresh engine: every
// observable of the two executions must agree. Exercises undo of writes,
// activations, terminations, and (for the sync protocol) write-time
// compositions.
class EngineRewindTest : public ::testing::TestWithParam<bool> {};

TEST_P(EngineRewindTest, RewindReplaysExactly) {
  const bool sync = GetParam();
  const Graph g = complete_graph(4);
  const testing::BoardSizeProtocol sync_p;
  const testing::FrozenBoardSizeProtocol async_p;
  const Protocol& p =
      sync ? static_cast<const Protocol&>(sync_p) : async_p;
  EngineOptions opts;
  opts.record_trace = true;

  // Reference: a fresh engine that always writes the *last* candidate.
  auto reference = [&] {
    EngineState s(g, p, opts);
    while (true) {
      s.begin_round();
      if (s.terminal()) return std::move(s).finish();
      s.write(s.candidates().size() - 1);
    }
  }();

  // Journaling engine: first exhaust the first-candidate branch to terminal,
  // then rewind to the very start and replay the last-candidate branch.
  EngineState s(g, p, opts);
  s.set_journaling(true);
  const EngineState::Checkpoint start = s.checkpoint();
  while (true) {
    s.begin_round();
    if (s.terminal()) break;
    s.write(0);
  }
  const ExecutionResult first_branch = s.finish();
  EXPECT_TRUE(first_branch.ok());
  s.rewind(start);

  while (true) {
    s.begin_round();
    if (s.terminal()) break;
    s.write(s.candidates().size() - 1);
  }
  const ExecutionResult replay = s.finish();

  EXPECT_EQ(replay.status, reference.status);
  EXPECT_EQ(replay.write_order, reference.write_order);
  EXPECT_EQ(replay.stats.rounds, reference.stats.rounds);
  EXPECT_EQ(replay.stats.writes, reference.stats.writes);
  EXPECT_EQ(replay.stats.max_message_bits, reference.stats.max_message_bits);
  EXPECT_EQ(replay.stats.total_bits, reference.stats.total_bits);
  EXPECT_EQ(replay.stats.activation_round, reference.stats.activation_round);
  EXPECT_EQ(replay.stats.write_round, reference.stats.write_round);
  ASSERT_EQ(replay.board.message_count(), reference.board.message_count());
  for (std::size_t i = 0; i < replay.board.message_count(); ++i) {
    EXPECT_TRUE(replay.board.message(i) == reference.board.message(i));
  }
  EXPECT_EQ(replay.board.content_hash(), reference.board.content_hash());
  ASSERT_EQ(replay.trace.size(), reference.trace.size());
  for (std::size_t i = 0; i < replay.trace.size(); ++i) {
    EXPECT_EQ(replay.trace[i].round, reference.trace[i].round);
    EXPECT_EQ(replay.trace[i].kind, reference.trace[i].kind);
    EXPECT_EQ(replay.trace[i].node, reference.trace[i].node);
  }
  // The first branch's snapshot is unaffected by the rewind + replay.
  EXPECT_EQ(first_branch.board.message_count(), 4u);
  EXPECT_NE(first_branch.write_order, replay.write_order);
}

INSTANTIATE_TEST_SUITE_P(SyncAndAsync, EngineRewindTest,
                         ::testing::Values(true, false));

}  // namespace
}  // namespace wb
