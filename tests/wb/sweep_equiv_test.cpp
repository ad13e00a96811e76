// One differential harness over the one sweep (src/wb/faults.h): every way
// of running an exhaustive sweep must agree on the SweepTotals that matter —
// executions, engine failures, wrong outputs, and the distinct-board count.
// Seeded small graphs (gnp, tree, grid, path, star) x the test_protocols.h
// zoo plus two-cliques and anon-degree, against the serial fault-free
// sweep:
//  - threads=4 (the thread-shaped plan through the shared pool);
//  - in-process shards K in {1, 3}: plan → serialize/parse → run_shard →
//    serialize/parse → merge_shard_results;
//  - crash:0 and corrupt:0, which must be invisible;
//  - sweep_memoized, whose memo table must not change any count;
// and a crash:1 sweep against its own 3-shard merge.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/graph/generators.h"
#include "src/protocols/anon_frontier.h"
#include "src/protocols/two_cliques.h"
#include "src/wb/exhaustive.h"
#include "src/wb/faults.h"
#include "src/wb/shard.h"
#include "tests/wb/test_protocols.h"

namespace wb {
namespace {

/// The counts every sweep variant must reproduce.
struct Counts {
  std::uint64_t executions = 0;
  std::uint64_t engine_failures = 0;
  std::uint64_t wrong_outputs = 0;
  std::uint64_t distinct = 0;
  friend bool operator==(const Counts&, const Counts&) = default;
};

std::ostream& operator<<(std::ostream& os, const Counts& c) {
  return os << "{executions " << c.executions << ", engine failures "
            << c.engine_failures << ", wrong " << c.wrong_outputs
            << ", distinct " << c.distinct << "}";
}

Counts counts_of(const SweepTotals& t) {
  return {t.executions, t.engine_failures, t.wrong_outputs,
          t.distinct->estimate()};
}

/// A successful run's output is judged by a bit of its final board's hash —
/// a function of the board alone, as the memo table requires — so about
/// half the boards count as wrong outputs. A crash world's deadlock is
/// accepted, so crash sweeps count both kinds too.
FaultVerdict classify(const ExecutionResult& r,
                      std::span<const NodeId> crashed) {
  if (!r.ok()) {
    return r.status == RunStatus::kDeadlock && !crashed.empty()
               ? FaultVerdict::kCorrect
               : FaultVerdict::kDeadlockOrFault;
  }
  return (r.board.content_hash().lo & 1) == 0 ? FaultVerdict::kCorrect
                                               : FaultVerdict::kWrongOutput;
}

Counts run_sweep(const Graph& g, const Protocol& p, const FaultSpec& faults,
                 std::size_t threads) {
  ExhaustiveOptions opts;
  opts.threads = threads;
  return counts_of(sweep(
      g, p, faults,
      partition_fault_tasks_for_threads(g, p, faults, opts.engine, threads),
      classify, opts));
}

/// K shards, every artifact through its text format, merged in reverse.
Counts run_sharded(const Graph& g, const Protocol& p, const FaultSpec& faults,
                   std::size_t shards) {
  shard::PlanOptions popts;
  popts.faults = faults;
  std::vector<shard::ShardResult> results;
  for (const shard::ShardSpec& spec :
       shard::plan_shards(g, p, "zoo", shards, popts)) {
    const shard::ShardSpec parsed =
        shard::parse_shard_spec(shard::serialize(spec));
    results.insert(results.begin(),
                   shard::parse_shard_result(shard::serialize(
                       shard::run_shard(parsed, p, classify, 1))));
  }
  const shard::MergedResult merged = shard::merge_shard_results(results);
  return {merged.executions, merged.engine_failures, merged.wrong_outputs,
          merged.distinct_boards};
}

struct Case {
  std::string name;
  Graph graph;
  const Protocol* protocol;
};

std::vector<Case> cases() {
  static const testing::EchoIdProtocol echo;
  static const testing::LazySimSyncProtocol lazy;
  static const testing::OversizeProtocol oversize;
  static const testing::OnlyFirstNodeProtocol only_first;
  static const testing::BoardSizeProtocol board_size;
  static const testing::InOrderOnlyProtocol in_order;
  static const testing::MidRoundOverflowProtocol mid_round;
  static const testing::FrozenBoardSizeProtocol frozen;
  static const testing::RumorProtocol rumor;
  static const testing::GossipCountProtocol gossip;
  static const TwoCliquesProtocol two_cliques;
  static const AnonDegreeProtocol anon_degree;
  const Protocol* const zoo[] = {&echo,       &lazy,        &oversize,
                                 &only_first, &board_size,  &in_order,
                                 &mid_round,  &frozen,      &rumor,
                                 &gossip,     &two_cliques, &anon_degree};
  const std::pair<std::string, Graph> graphs[] = {
      {"gnp:5:1/2:3", erdos_renyi(5, 1, 2, 3)},
      {"tree:5:7", random_tree(5, 7)},
      {"grid:2x2", grid_graph(2, 2)},
      {"path:4", path_graph(4)},
      {"star:5", star_graph(5)},
  };
  std::vector<Case> out;
  for (const auto& [graph_name, g] : graphs) {
    for (const Protocol* p : zoo) {
      out.push_back({p->name() + " on " + graph_name, g, p});
    }
  }
  return out;
}

TEST(SweepEquivalence, ThreadCountNeverChangesTheTotals) {
  for (const Case& c : cases()) {
    EXPECT_EQ(run_sweep(c.graph, *c.protocol, FaultSpec::None(), 4),
              run_sweep(c.graph, *c.protocol, FaultSpec::None(), 1))
        << c.name;
  }
}

TEST(SweepEquivalence, ShardedRunsMergeToTheInProcessSweep) {
  for (const Case& c : cases()) {
    const Counts want = run_sweep(c.graph, *c.protocol, FaultSpec::None(), 1);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
      EXPECT_EQ(run_sharded(c.graph, *c.protocol, FaultSpec::None(), shards),
                want)
          << c.name << ", " << shards << " shards";
    }
  }
}

TEST(SweepEquivalence, FaultFreeFaultSpecsEqualTheFaultFreeSweep) {
  for (const Case& c : cases()) {
    const Counts want = run_sweep(c.graph, *c.protocol, FaultSpec::None(), 1);
    for (const FaultSpec& faults :
         {FaultSpec::Crash(0), FaultSpec::Corrupt(0, 8)}) {
      EXPECT_EQ(run_sweep(c.graph, *c.protocol, faults, 4), want)
          << c.name << ", " << fault_spec_to_string(faults);
    }
  }
}

TEST(SweepEquivalence, MemoizedSweepEqualsThePlainSweep) {
  for (const Case& c : cases()) {
    ExhaustiveOptions opts;
    opts.memoize = true;
    const MemoizedTotals memo = sweep_memoized(
        c.graph, *c.protocol,
        [](const ExecutionResult& r) {
          return classify(r, {}) == FaultVerdict::kCorrect;
        },
        opts);
    EXPECT_EQ((Counts{memo.executions, memo.engine_failures,
                      memo.wrong_outputs, memo.distinct}),
              run_sweep(c.graph, *c.protocol, FaultSpec::None(), 1))
        << c.name;
  }
}

TEST(SweepEquivalence, CrashSweepEqualsItsThreeShardMerge) {
  for (const Case& c : cases()) {
    EXPECT_EQ(run_sharded(c.graph, *c.protocol, FaultSpec::Crash(1), 3),
              run_sweep(c.graph, *c.protocol, FaultSpec::Crash(1), 4))
        << c.name;
  }
}

}  // namespace
}  // namespace wb
