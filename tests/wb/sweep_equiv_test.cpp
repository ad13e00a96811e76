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
// and a crash:1 sweep against its own 3-shard merge. Since every judged sweep
// memoizes (one table per call, shared by its tasks), a memo-free oracle —
// for_each_execution tallied by hand, world by world — checks them too, on
// protocols whose boards hide their writers (WriterBitProtocol, anon-degree)
// and on ones that sign them; the budget guard must fire at the same count
// with the memo as without; and sibling tasks must share one table.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/graph/generators.h"
#include "src/protocols/anon_frontier.h"
#include "src/protocols/mis.h"
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
    const MemoizedTotals memo = sweep_memoized(
        c.graph, *c.protocol, [](const ExecutionResult& r) {
          return classify(r, {}) == FaultVerdict::kCorrect;
        });
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

/// The memo-free oracle: each fault world's executions through
/// for_each_execution — one visit per execution — tallied by hand.
Counts run_oracle(const Graph& g, const Protocol& p, const FaultSpec& faults) {
  Counts c;
  const auto distinct = make_distinct_accumulator({});
  const std::uint64_t worlds =
      faults.kind == FaultKind::kCrash
          ? crash_world_count(g.node_count(), faults.crash_f)
          : 1;
  for (std::uint64_t w = 0; w < worlds; ++w) {
    std::vector<NodeId> crashed;
    std::unique_ptr<Protocol> adapted;
    if (faults.kind == FaultKind::kCrash) {
      crashed = crash_world(g.node_count(), faults.crash_f, w);
      adapted = std::make_unique<CrashStopAdapter>(p, crashed);
    } else if (faults.kind == FaultKind::kCorrupt) {
      adapted = std::make_unique<CorruptingAdapter>(
          p, CorruptionModel{faults.prob_num, faults.prob_den, faults.seed});
    }
    for_each_execution(g, adapted ? *adapted : p,
                       [&](const ExecutionResult& r) {
                         const FaultVerdict v = classify(r, crashed);
                         ++c.executions;
                         c.engine_failures +=
                             v == FaultVerdict::kDeadlockOrFault ? 1 : 0;
                         c.wrong_outputs +=
                             v == FaultVerdict::kWrongOutput ? 1 : 0;
                         distinct->insert(r.board.content_hash());
                         return true;
                       });
  }
  c.distinct = distinct->estimate();
  return c;
}

TEST(SweepEquivalence, MemoizedSweepsEqualTheMemoFreeOracle) {
  static const testing::WriterBitProtocol writer_bit;
  static const AnonDegreeProtocol anon_degree;
  static const TwoCliquesProtocol two_cliques;
  static const RootedMisProtocol mis(1);
  const std::pair<std::string, Graph> graphs[] = {
      {"gnp:5:1/2:3", erdos_renyi(5, 1, 2, 3)},
      {"tree:5:7", random_tree(5, 7)},
      {"path:4", path_graph(4)},
      {"star:5", star_graph(5)},
  };
  for (const auto& [graph_name, g] : graphs) {
    for (const Protocol* p : {static_cast<const Protocol*>(&writer_bit),
                              static_cast<const Protocol*>(&anon_degree),
                              static_cast<const Protocol*>(&two_cliques),
                              static_cast<const Protocol*>(&mis)}) {
      for (const FaultSpec& faults : {FaultSpec::None(), FaultSpec::Crash(1),
                                      FaultSpec::Corrupt(1, 4)}) {
        const std::string name = p->name() + " on " + graph_name + ", " +
                                 fault_spec_to_string(faults);
        const Counts want = run_oracle(g, *p, faults);
        EXPECT_EQ(run_sweep(g, *p, faults, 1), want) << name << ", serial";
        EXPECT_EQ(run_sweep(g, *p, faults, 4), want) << name << ", 4 threads";
        EXPECT_EQ(run_sharded(g, *p, faults, 3), want) << name << ", 3 shards";
      }
    }
  }
  // Not vacuous: the writer-bit boards do converge, and the memo merges
  // them only when the written sets agree too.
  EXPECT_GT(sweep_memoized(star_graph(5), writer_bit,
                           [](const ExecutionResult&) { return true; })
                .memo_hits,
            0u);
}

TEST(SweepEquivalence, MemoizedBudgetThrowsExactlyWhereThePlainSweepWould) {
  const Graph g = star_graph(7);  // 7! = 5040 schedules, 8 distinct boards
  const AnonDegreeProtocol p;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ExhaustiveOptions opts;
    opts.threads = threads;
    const std::vector<FaultTask> tasks = partition_fault_tasks_for_threads(
        g, p, FaultSpec::None(), opts.engine, threads);
    const auto judged = [&](std::uint64_t budget) {
      opts.max_executions = budget;
      return sweep(g, p, FaultSpec::None(), tasks, classify, opts);
    };
    const auto plain = [&](std::uint64_t budget) {
      opts.max_executions = budget;
      return for_each_execution(
          g, p, [](const ExecutionResult&) { return true; }, opts);
    };
    EXPECT_THROW((void)plain(5039), BudgetExceededError) << threads;
    EXPECT_THROW((void)judged(5039), BudgetExceededError) << threads;
    EXPECT_EQ(plain(5040), 5040u) << threads;
    EXPECT_EQ(judged(5040).executions, 5040u) << threads;

    shard::PlanOptions popts;
    for (const std::uint64_t budget :
         {std::uint64_t{5039}, std::uint64_t{5040}}) {
      popts.max_executions = budget;
      const shard::ShardResult r = shard::run_shard(
          shard::plan_shards(g, p, "anon-degree", 1, popts).at(0), p, classify,
          threads);
      EXPECT_EQ(r.budget_exceeded, budget == 5039) << threads << " " << budget;
      EXPECT_EQ(r.executions, budget) << threads;
    }
  }
  // The memo did collapse the tree, so the guard saw bulk charges.
  ExhaustiveOptions opts;
  opts.max_executions = 5040;
  EXPECT_GT(
      sweep_memoized(g, p, [](const ExecutionResult&) { return true; }, opts)
          .memo_hits,
      0u);
}

TEST(SweepEquivalence, TasksOfOneCallShareOneMemoTable) {
  // star:8 split into its 56 depth-2 prefix tasks and swept on one thread:
  // sibling tasks converge on the same states, and with one table per call
  // a state any task expanded is a hit for every other. Tables local to a
  // task would expand each shared state once per task (6,678 states against
  // the whole-tree task's 696).
  const Graph g = star_graph(8);
  const AnonDegreeProtocol p;
  const ExhaustiveOptions opts;
  const std::vector<PrefixTask> tasks =
      partition_executions(g, p, opts.engine, 16);
  ASSERT_EQ(tasks.size(), 56u);
  SweepMemo memo;
  const std::uint64_t executions = judge_executions_under(
      g, p, tasks,
      [](const ExecutionResult&, std::size_t, Tally& tally) {
        tally += {1, 0, 0};
        return true;
      },
      memo, opts);
  const MemoizedTotals whole =
      sweep_memoized(g, p, [](const ExecutionResult&) { return true; }, opts);
  EXPECT_EQ(executions, whole.executions);
  EXPECT_GT(memo.hits.load(), 0u);
  EXPECT_LE(memo.states.load(), whole.states_explored);
}

TEST(SweepEquivalence, ExecutionCountPastTwoToTheSixtyFourIsADataError) {
  // A memo hit charges a whole subtree's executions at once, through this
  // add; star:21 anon-degree (21! > 2^64 schedules) with the largest budget
  // reaches it only after minutes, so the add itself is the seam.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(checked_add(kMax - 10, 10, "execution"), kMax);
  try {
    (void)checked_add(kMax - 5, 10, "execution");
    FAIL() << "overflowing add did not throw";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "execution count overflows 64 bits (18446744073709551610 "
                  "+ 10)"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace wb
