// The distributed-sharding equivalence harness (ISSUE 4 tentpole contract,
// extended by ISSUE 5 to pluggable distinct counting): for any shard count K
// and any merge order, plan → serialize → parse → run → serialize → parse →
// merge must reproduce the threads=1 serial oracle's execution count,
// failure tallies, verdict, budget-guard behavior, and distinct-board count
// (exact) or estimate (hll) bit-identically. Every shard spec and result
// crosses the text format in both directions inside the sweep, so the whole
// process-boundary pipeline is under test, not just the in-memory merge.
//
// Golden files under tests/wb/data/ pin the text formats byte-for-byte: the
// v3 set is what the serializers write today (exact, hll, and manifest).
// Malformed/truncated/version-skewed (v2 included) inputs must be rejected
// with a wb::DataError diagnostic, never undefined behavior — and every
// committed document survives single-line deletion, duplication, and
// truncation with nothing but a DataError.
#include "src/wb/shard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/graph/generators.h"
#include "src/protocols/bfs_sync.h"
#include "src/protocols/two_cliques.h"
#include "src/wb/distinct.h"
#include "src/wb/exhaustive.h"
#include "tests/wb/test_protocols.h"

namespace wb {
namespace {

using shard::MergedResult;
using shard::ShardResult;
using shard::ShardSpec;

using Accept = std::function<bool(const ExecutionResult&)>;

/// The ok/accept classifier: engine failures are kDeadlockOrFault, and
/// `accept` (may be empty) judges each successful execution's output.
FaultClassifier classify_with(Accept accept) {
  return [accept = std::move(accept)](const ExecutionResult& r,
                                      std::span<const NodeId>) {
    if (!r.ok()) return FaultVerdict::kDeadlockOrFault;
    if (accept != nullptr && !accept(r)) return FaultVerdict::kWrongOutput;
    return FaultVerdict::kCorrect;
  };
}

const FaultClassifier kNoAccept = classify_with(nullptr);

std::string data_file(const std::string& name) {
  const std::string path = std::string(WB_TEST_DATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Everything the serial threads=1 sweep reports — the oracle every sharded
/// configuration must reproduce bit-identically.
struct Oracle {
  std::uint64_t executions = 0;
  std::uint64_t engine_failures = 0;
  std::uint64_t wrong_outputs = 0;
  std::uint64_t distinct = 0;
};

Oracle serial_oracle(const Graph& g, const Protocol& p, const Accept& accept) {
  Oracle o;
  o.executions = for_each_execution(g, p, [&](const ExecutionResult& r) {
    if (!r.ok()) {
      ++o.engine_failures;
    } else if (accept != nullptr && !accept(r)) {
      ++o.wrong_outputs;
    }
    return true;
  });
  o.distinct = count_distinct_final_boards(g, p);
  return o;
}

enum class MergeOrder { kForward, kReverse, kShuffled };

/// The full distributed pipeline, every artifact round-tripped through its
/// text format: plan K shards, run each from a *parsed* spec, merge *parsed*
/// results in the requested order.
MergedResult run_sharded(const Graph& g, const Protocol& p,
                         const Accept& accept, std::size_t shards,
                         std::size_t threads, MergeOrder order,
                         const shard::PlanOptions& opts = {}) {
  const std::vector<ShardSpec> specs =
      shard::plan_shards(g, p, "test-protocol", shards, opts);
  EXPECT_EQ(specs.size(), shards);
  std::vector<ShardResult> results;
  results.reserve(shards);
  for (const ShardSpec& spec : specs) {
    const std::string spec_text = shard::serialize(spec);
    const ShardSpec parsed = shard::parse_shard_spec(spec_text);
    EXPECT_EQ(shard::serialize(parsed), spec_text) << "spec round trip";
    const ShardResult run =
        shard::run_shard(parsed, p, classify_with(accept), threads);
    const std::string result_text = shard::serialize(run);
    results.push_back(shard::parse_shard_result(result_text));
    EXPECT_EQ(shard::serialize(results.back()), result_text)
        << "result round trip";
  }
  switch (order) {
    case MergeOrder::kForward:
      break;
    case MergeOrder::kReverse:
      std::reverse(results.begin(), results.end());
      break;
    case MergeOrder::kShuffled: {
      std::mt19937 rng(0xC0FFEE);  // fixed seed: deterministic test
      std::shuffle(results.begin(), results.end(), rng);
      break;
    }
  }
  return shard::merge_shard_results(results);
}

bool first_writer_is_node1(const ExecutionResult& r) {
  return !r.write_order.empty() && r.write_order.front() == 1;
}

// ---------------------------------------------------------------------------
// Oracle equivalence: K in {1, 2, 4, 7} x merge orders x protocol classes.

TEST(ShardOracle, MergedTotalsBitIdenticalToSerialOracle) {
  const Graph path4 = path_graph(4);
  const Graph star4 = star_graph(4);
  const Graph kb22 = complete_bipartite(2, 2);

  const testing::EchoIdProtocol echo;               // SIMASYNC
  const testing::FrozenBoardSizeProtocol frozen;    // SIMASYNC, equal messages
  const testing::BoardSizeProtocol board_size;      // SIMSYNC
  const SyncBfsProtocol bfs;                        // SYNC, gated activations
  const testing::OnlyFirstNodeProtocol deadlocker;  // ASYNC, deadlocks

  struct Case {
    const Protocol* protocol;
    Accept accept;
  };
  const Case cases[] = {
      {&echo, nullptr},
      {&echo, first_writer_is_node1},  // schedule-dependent wrong outputs
      {&frozen, nullptr},
      {&board_size, nullptr},
      {&bfs, nullptr},
      {&deadlocker, nullptr},  // every execution is an engine failure
  };
  const std::size_t shard_counts[] = {1, 2, 4, 7};
  const MergeOrder orders[] = {MergeOrder::kForward, MergeOrder::kReverse,
                               MergeOrder::kShuffled};
  for (const Graph* g : {&path4, &star4, &kb22}) {
    for (const Case& c : cases) {
      const Oracle oracle = serial_oracle(*g, *c.protocol, c.accept);
      const bool oracle_verdict = all_executions_ok(
          *g, *c.protocol, [&](const ExecutionResult& r) {
            return c.accept == nullptr || c.accept(r);
          });
      for (const std::size_t shards : shard_counts) {
        for (const MergeOrder order : orders) {
          const MergedResult merged = run_sharded(
              *g, *c.protocol, c.accept, shards, /*threads=*/2, order);
          const std::string label =
              c.protocol->name() + " on n=" +
              std::to_string(g->node_count()) + " K=" +
              std::to_string(shards) + " order=" +
              std::to_string(static_cast<int>(order));
          EXPECT_EQ(merged.executions, oracle.executions) << label;
          EXPECT_EQ(merged.engine_failures, oracle.engine_failures) << label;
          EXPECT_EQ(merged.wrong_outputs, oracle.wrong_outputs) << label;
          EXPECT_EQ(merged.distinct_boards, oracle.distinct) << label;
          EXPECT_EQ(merged.engine_failures + merged.wrong_outputs == 0,
                    oracle_verdict)
              << label;
        }
      }
    }
  }
}

TEST(ShardOracle, WorkerThreadCountNeverChangesAResult) {
  // A shard's result file must be bit-identical no matter how many threads
  // the worker used (that is what makes heterogeneous fleets mergeable).
  const Graph g = path_graph(4);
  const testing::BoardSizeProtocol p;
  const std::vector<ShardSpec> specs =
      shard::plan_shards(g, p, "test-protocol", 3);
  for (const ShardSpec& spec : specs) {
    const std::string reference =
        shard::serialize(shard::run_shard(spec, p, kNoAccept, 1));
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                      std::size_t{8}, std::size_t{0}}) {
      EXPECT_EQ(shard::serialize(shard::run_shard(spec, p, kNoAccept, threads)),
                reference)
          << "shard " << spec.shard_index << " threads=" << threads;
    }
  }
}

TEST(ShardOracle, ReRunningAShardIsByteIdenticalSoReissuesAreSafe) {
  // The fleet controller's whole retry story rests on this: a shard spec
  // re-swept anywhere — after a crash, a timeout, on a different worker with
  // a different thread count — produces the same result *bytes*, so a
  // re-issued shard's result can replace (or arrive after) the original
  // without changing the merged totals.
  const Graph g = two_cliques(3);
  const TwoCliquesProtocol p;
  shard::PlanOptions opts;
  for (const DistinctConfig distinct :
       {DistinctConfig::Exact(), DistinctConfig::Hll(12)}) {
    opts.distinct = distinct;
    const std::vector<ShardSpec> specs =
        shard::plan_shards(g, p, "two-cliques", 3, opts);
    std::vector<ShardResult> first_runs;
    for (const ShardSpec& spec : specs) {
      // Round-trip the spec (the bytes a controller would re-send), then
      // run it twice at different thread counts.
      const ShardSpec resent =
          shard::parse_shard_spec(shard::serialize(spec));
      first_runs.push_back(shard::run_shard(resent, p, kNoAccept, 1));
      const ShardResult rerun = shard::run_shard(resent, p, kNoAccept, 2);
      EXPECT_EQ(shard::serialize(rerun), shard::serialize(first_runs.back()))
          << "shard " << spec.shard_index;
    }
    // Substituting a re-run for the original in the merge changes nothing.
    const MergedResult original = shard::merge_shard_results(first_runs);
    std::vector<ShardResult> with_rerun = first_runs;
    with_rerun[0] = shard::parse_shard_result(
        shard::serialize(shard::run_shard(specs[0], p, kNoAccept, 0)));
    const MergedResult substituted = shard::merge_shard_results(with_rerun);
    EXPECT_EQ(substituted.executions, original.executions);
    EXPECT_EQ(substituted.engine_failures, original.engine_failures);
    EXPECT_EQ(substituted.wrong_outputs, original.wrong_outputs);
    EXPECT_EQ(substituted.distinct_boards, original.distinct_boards);
  }
}

TEST(ShardOracle, PlanIsDeterministicAndTilesTheScheduleTree) {
  const Graph g = star_graph(4);
  const testing::EchoIdProtocol p;
  const auto once = shard::plan_shards(g, p, "echo", 4);
  const auto twice = shard::plan_shards(g, p, "echo", 4);
  ASSERT_EQ(once.size(), twice.size());
  for (std::size_t k = 0; k < once.size(); ++k) {
    EXPECT_EQ(shard::serialize(once[k]), shard::serialize(twice[k]));
  }
  // The shards' tasks are exactly the partition as world-0 tasks,
  // distributed round-robin.
  const std::vector<PrefixTask> tasks =
      partition_executions(g, p, EngineOptions{}, 4 * 4);
  std::size_t total = 0;
  for (const auto& spec : once) total += spec.tasks.size();
  EXPECT_EQ(total, tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    EXPECT_EQ(once[t % 4].tasks[t / 4], (FaultTask{0, tasks[t]}))
        << "task " << t;
  }
}

TEST(ShardOracle, MoreShardsThanSubtreesYieldsEmptyButMergeableShards) {
  // A single-execution schedule tree (n = 1) planned across 3 shards: two
  // shards sweep nothing, and the merge still reproduces the serial totals.
  const Graph g = path_graph(1);
  const testing::EchoIdProtocol p;
  const Oracle oracle = serial_oracle(g, p, nullptr);
  EXPECT_EQ(oracle.executions, 1u);
  const MergedResult merged = run_sharded(g, p, nullptr, 3, /*threads=*/1,
                                          MergeOrder::kReverse);
  EXPECT_EQ(merged.executions, oracle.executions);
  EXPECT_EQ(merged.distinct_boards, oracle.distinct);
}

// ---------------------------------------------------------------------------
// HyperLogLog distinct counting through the sharded pipeline: the estimate
// must be bit-identical to the in-process sweep's at any K, merge order, or
// worker thread count — the ISSUE 4 determinism contract carries over to
// approximate counting verbatim because registers max-merge obliviously.

TEST(ShardHll, MergedEstimateBitIdenticalToInProcessSweep) {
  const Graph path4 = path_graph(4);
  const Graph star4 = star_graph(4);
  const testing::EchoIdProtocol echo;
  const testing::BoardSizeProtocol board_size;
  const DistinctConfig config = DistinctConfig::Hll(12);

  struct Case {
    const Graph* graph;
    const Protocol* protocol;
  };
  const Case cases[] = {{&path4, &echo}, {&star4, &echo},
                        {&path4, &board_size}};
  for (const Case& c : cases) {
    ExhaustiveOptions opts;
    opts.distinct = config;
    const std::uint64_t oracle =
        count_distinct_final_boards(*c.graph, *c.protocol, opts);
    // The estimate itself is deterministic across thread counts...
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                      std::size_t{8}}) {
      opts.threads = threads;
      EXPECT_EQ(count_distinct_final_boards(*c.graph, *c.protocol, opts),
                oracle)
          << c.protocol->name() << " threads=" << threads;
    }
    // ...and across every sharding of the same plan, in any merge order.
    shard::PlanOptions plan;
    plan.distinct = config;
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{4}, std::size_t{7}}) {
      for (const MergeOrder order : {MergeOrder::kForward,
                                     MergeOrder::kShuffled}) {
        const MergedResult merged = run_sharded(
            *c.graph, *c.protocol, nullptr, shards, /*threads=*/2, order,
            plan);
        EXPECT_EQ(merged.distinct_boards, oracle)
            << c.protocol->name() << " K=" << shards;
        EXPECT_EQ(merged.distinct, config);
      }
    }
  }
}

TEST(ShardHll, ResultFilesAreWorkerThreadCountInvariant) {
  const Graph g = path_graph(4);
  const testing::EchoIdProtocol p;
  shard::PlanOptions plan;
  plan.distinct = DistinctConfig::Hll(8);
  const auto specs = shard::plan_shards(g, p, "echo", 3, plan);
  for (const ShardSpec& spec : specs) {
    const std::string reference =
        shard::serialize(shard::run_shard(spec, p, kNoAccept, 1));
    EXPECT_NE(reference.find("distinct-kind hll:8"), std::string::npos);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8},
                                      std::size_t{0}}) {
      EXPECT_EQ(shard::serialize(shard::run_shard(spec, p, kNoAccept, threads)),
                reference)
          << "shard " << spec.shard_index << " threads=" << threads;
    }
  }
}

// ISSUE 5 acceptance: on the two_cliques(4) sweep (8 nodes, 8! = 40320
// executions, 40320 distinct final boards) the hll:14 estimate must sit
// within 1% of the exact count and be bit-identical across thread counts
// {1,2,4,8} and shard counts {1,2,4,7} in any merge order — while the exact
// mode keeps reproducing the old numbers byte-for-byte (covered by the
// golden and oracle suites above).
TEST(ShardHll, TwoCliques4EstimateWithinOnePercentAndDeterministic) {
  const Graph g = two_cliques(4);
  const TwoCliquesProtocol p;
  const std::uint64_t exact = count_distinct_final_boards(g, p);

  ExhaustiveOptions opts;
  opts.distinct = DistinctConfig::Hll(14);
  opts.threads = 1;
  const std::uint64_t estimate = count_distinct_final_boards(g, p, opts);
  const double relative_error =
      std::abs(static_cast<double>(estimate) - static_cast<double>(exact)) /
      static_cast<double>(exact);
  EXPECT_LE(relative_error, 0.01)
      << "exact=" << exact << " hll:14=" << estimate;

  for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    opts.threads = threads;
    EXPECT_EQ(count_distinct_final_boards(g, p, opts), estimate)
        << "threads=" << threads;
  }
  shard::PlanOptions plan;
  plan.distinct = DistinctConfig::Hll(14);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{7}}) {
    for (const MergeOrder order : {MergeOrder::kReverse,
                                   MergeOrder::kShuffled}) {
      const MergedResult merged =
          run_sharded(g, p, nullptr, shards, /*threads=*/4, order, plan);
      EXPECT_EQ(merged.distinct_boards, estimate) << "K=" << shards;
    }
  }
}

TEST(ShardHll, HllResultWithoutARegisterBlockIsRejectedAtMergeTime) {
  // The struct is public API: a programmatically built hll result that
  // forgot its sketch must fail loudly, not silently contribute nothing.
  const Graph g = path_graph(3);
  const testing::EchoIdProtocol p;
  shard::PlanOptions plan;
  plan.distinct = DistinctConfig::Hll(8);
  const auto specs = shard::plan_shards(g, p, "echo", 2, plan);
  std::vector<ShardResult> results;
  for (const ShardSpec& spec : specs) {
    results.push_back(shard::run_shard(spec, p, kNoAccept, 1));
  }
  results[1].hll.reset();
  EXPECT_THROW((void)shard::merge_shard_results(results), DataError);
}

TEST(ShardHll, MixingExactAndHllArtifactsIsRejectedWithADiagnostic) {
  const Graph g = path_graph(4);
  const testing::EchoIdProtocol p;
  shard::PlanOptions exact_plan;
  shard::PlanOptions hll_plan;
  hll_plan.distinct = DistinctConfig::Hll(14);
  const auto exact_specs = shard::plan_shards(g, p, "echo", 2, exact_plan);
  const auto hll_specs = shard::plan_shards(g, p, "echo", 2, hll_plan);
  // The distinct choice is fingerprinted: same instance, different plans.
  ASSERT_NE(exact_specs[0].plan, hll_specs[0].plan);

  std::vector<ShardResult> mixed = {
      shard::run_shard(exact_specs[0], p, kNoAccept, 1),
      shard::run_shard(hll_specs[1], p, kNoAccept, 1)};
  try {
    (void)shard::merge_shard_results(mixed);
    FAIL() << "mixed exact/hll merge was not rejected";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("refusing to merge"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Budget guard: the sharded sweep throws exactly when the serial oracle
// throws — whether one shard overruns alone or only the merged total does.

TEST(ShardOracle, BudgetGuardBitIdenticalToSerialOracle) {
  const Graph g = path_graph(5);  // 120 executions
  const testing::EchoIdProtocol p;

  // Serial oracle behavior at the three budget regimes.
  for (const std::uint64_t budget : {std::uint64_t{10}, std::uint64_t{50}}) {
    ExhaustiveOptions opts;
    opts.max_executions = budget;
    EXPECT_THROW(for_each_execution(
                     g, p, [](const ExecutionResult&) { return true; }, opts),
                 BudgetExceededError)
        << "budget " << budget;
  }

  shard::PlanOptions plan;
  // budget 10 < any shard's subtree share: the worker itself overruns and
  // records the deterministic budget_exceeded result; merge throws.
  plan.max_executions = 10;
  EXPECT_THROW((void)run_sharded(g, p, nullptr, 4, 2, MergeOrder::kForward,
                                 plan),
               BudgetExceededError);

  // budget 50: every shard (~30 executions) finishes under budget on its
  // own; only the merged total exceeds it — merge must still throw.
  plan.max_executions = 50;
  EXPECT_THROW((void)run_sharded(g, p, nullptr, 4, 2, MergeOrder::kShuffled,
                                 plan),
               BudgetExceededError);

  // A budget that exactly fits never throws, at any shard count.
  plan.max_executions = 120;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    const MergedResult merged =
        run_sharded(g, p, nullptr, shards, 2, MergeOrder::kForward, plan);
    EXPECT_EQ(merged.executions, 120u) << "K=" << shards;
  }
}

TEST(ShardOracle, WorkerBudgetOverrunProducesDeterministicResultFile) {
  const Graph g = path_graph(5);
  const testing::EchoIdProtocol p;
  shard::PlanOptions plan;
  plan.max_executions = 5;  // every shard overruns its share
  const auto specs = shard::plan_shards(g, p, "echo", 2, plan);
  const std::string reference =
      shard::serialize(shard::run_shard(specs[0], p, kNoAccept, 1));
  EXPECT_NE(reference.find("budget-exceeded 1"), std::string::npos);
  EXPECT_NE(reference.find("distinct 0"), std::string::npos);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    EXPECT_EQ(shard::serialize(shard::run_shard(specs[0], p, kNoAccept, threads)),
              reference)
        << "threads=" << threads;
  }
}

TEST(ShardOracle, HllWorkerBudgetOverrunClearsTheSketchDeterministically) {
  const Graph g = path_graph(5);
  const testing::EchoIdProtocol p;
  shard::PlanOptions plan;
  plan.max_executions = 5;
  plan.distinct = DistinctConfig::Hll(8);
  const auto specs = shard::plan_shards(g, p, "echo", 2, plan);
  const ShardResult overrun = shard::run_shard(specs[0], p, kNoAccept, 4);
  EXPECT_TRUE(overrun.budget_exceeded);
  ASSERT_TRUE(overrun.hll.has_value());
  EXPECT_EQ(overrun.hll->estimate(), 0u);  // cleared, like the exact hashes
  const std::string reference = shard::serialize(overrun);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    EXPECT_EQ(shard::serialize(shard::run_shard(specs[0], p, kNoAccept, threads)),
              reference)
        << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Early stop and exception propagation through the prefix-subtree sweep.

TEST(ShardOracle, EarlyStopUnderPrefixTasksCountsExactlyTheVisits) {
  const Graph g = path_graph(5);  // 120 executions
  const testing::EchoIdProtocol p;
  const std::vector<PrefixTask> tasks =
      partition_executions(g, p, EngineOptions{}, 16);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::atomic<std::uint64_t> invocations{0};
    ExhaustiveOptions opts;
    opts.threads = threads;
    const std::uint64_t visited = for_each_execution_under(
        g, p, tasks,
        [&](const ExecutionResult&, std::size_t) {
          return invocations.fetch_add(1, std::memory_order_relaxed) + 1 < 5;
        },
        opts);
    EXPECT_EQ(visited, invocations.load()) << "threads=" << threads;
    EXPECT_GE(visited, 5u) << "threads=" << threads;
    EXPECT_LT(visited, 120u) << "early stop did not prune, threads=" << threads;
  }
}

TEST(ShardOracle, FullPrefixTaskSetMatchesClassicSweep) {
  const Graph g = path_graph(4);
  const testing::BoardSizeProtocol p;
  const std::uint64_t reference = for_each_execution(
      g, p, [](const ExecutionResult&) { return true; });
  for (const std::size_t target : {std::size_t{1}, std::size_t{3},
                                   std::size_t{100}}) {
    const std::vector<PrefixTask> tasks =
        partition_executions(g, p, EngineOptions{}, target);
    const std::uint64_t visited = for_each_execution_under(
        g, p, tasks,
        [](const ExecutionResult&, std::size_t) { return true; });
    EXPECT_EQ(visited, reference) << "target=" << target;
  }
}

TEST(ShardOracle, AcceptExceptionPropagatesOutOfRunShard) {
  const Graph g = path_graph(4);
  const testing::EchoIdProtocol p;
  const auto specs = shard::plan_shards(g, p, "echo", 1);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::atomic<std::uint64_t> invocations{0};
    EXPECT_THROW(
        (void)shard::run_shard(
            specs[0], p,
            classify_with([&](const ExecutionResult&) -> bool {
              if (invocations.fetch_add(1, std::memory_order_relaxed) + 1 ==
                  3) {
                throw std::runtime_error("accept bailed");
              }
              return true;
            }),
            threads),
        std::runtime_error)
        << "threads=" << threads;
    EXPECT_LT(invocations.load(), 24u)
        << "exception did not cancel the sweep, threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Golden files: the v3 text formats byte-for-byte. (The test names keep the
// format version the goldens were introduced at.)

TEST(ShardGolden, V2SpecFileRoundTripsByteIdentically) {
  const std::string text = data_file("path3_echo.0.shard");
  const ShardSpec spec = shard::parse_shard_spec(text);
  EXPECT_EQ(spec.distinct, DistinctConfig::Exact());
  EXPECT_EQ(shard::serialize(spec), text);
  // The planner still regenerates the committed bytes exactly: format *and*
  // partition/distribution are pinned.
  const testing::EchoIdProtocol p;
  const auto specs = shard::plan_shards(path_graph(3), p, "echo-id", 2);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(shard::serialize(specs[0]), text);
}

TEST(ShardGolden, V2ResultFileRoundTripsByteIdentically) {
  const std::string text = data_file("path3_echo.0.result");
  const ShardResult result = shard::parse_shard_result(text);
  EXPECT_EQ(shard::serialize(result), text);
  // Re-running the committed spec regenerates the committed result bytes:
  // board hashing, dedup, and serialization are all pinned.
  const testing::EchoIdProtocol p;
  const ShardSpec spec =
      shard::parse_shard_spec(data_file("path3_echo.0.shard"));
  EXPECT_EQ(shard::serialize(shard::run_shard(spec, p, kNoAccept, 1)), text);
}

TEST(ShardGolden, V2HllSpecAndResultRoundTripByteIdentically) {
  const std::string spec_text = data_file("path3_echo_hll8.0.shard");
  const ShardSpec spec = shard::parse_shard_spec(spec_text);
  EXPECT_EQ(spec.distinct, DistinctConfig::Hll(8));
  EXPECT_EQ(shard::serialize(spec), spec_text);
  const testing::EchoIdProtocol p;
  shard::PlanOptions plan;
  plan.distinct = DistinctConfig::Hll(8);
  const auto specs = shard::plan_shards(path_graph(3), p, "echo-id", 2, plan);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(shard::serialize(specs[0]), spec_text);

  const std::string result_text = data_file("path3_echo_hll8.0.result");
  const ShardResult result = shard::parse_shard_result(result_text);
  EXPECT_EQ(result.distinct, DistinctConfig::Hll(8));
  ASSERT_TRUE(result.hll.has_value());
  EXPECT_EQ(shard::serialize(result), result_text);
  EXPECT_EQ(shard::serialize(shard::run_shard(spec, p, kNoAccept, 1)),
            result_text);
}

TEST(ShardGolden, V2ManifestRoundTripsByteIdentically) {
  const std::string text = data_file("path3_echo.manifest");
  const shard::ShardManifest manifest = shard::parse_shard_manifest(text);
  EXPECT_EQ(shard::serialize(manifest), text);
  // make_manifest over the regenerated plan reproduces the committed bytes:
  // the per-spec document hashes are pinned transitively.
  const testing::EchoIdProtocol p;
  const auto specs = shard::plan_shards(path_graph(3), p, "echo-id", 2);
  EXPECT_EQ(shard::serialize(shard::make_manifest(specs)), text);
  ASSERT_EQ(manifest.spec_hashes.size(), 2u);
  EXPECT_EQ(manifest.spec_hashes[0],
            shard::hash_document(data_file("path3_echo.0.shard")));
}

TEST(ShardGolden, CommittedMalformedFixturesAreRejected) {
  for (const char* name :
       {"bad_magic.shard", "version_skew.shard", "bad_distinct.shard"}) {
    EXPECT_THROW((void)shard::parse_shard_spec(data_file(name)), DataError)
        << name;
  }
  for (const char* name :
       {"truncated.result", "unsorted_hashes.result",
        "registers_mismatch.result", "register_overflow.result",
        "bad_failures_exceed_executions.result"}) {
    EXPECT_THROW((void)shard::parse_shard_result(data_file(name)), DataError)
        << name;
  }
  // Counts that are each consistent but whose merged total overflows 2^64:
  // the merge refuses instead of wrapping into a small, passing total.
  const ShardResult overflowing =
      shard::parse_shard_result(data_file("bad_executions_overflow.result"));
  std::vector<ShardResult> halves = {overflowing, overflowing};
  halves[1].shard_index = 1;
  EXPECT_THROW((void)shard::merge_shard_results(halves), DataError);
  EXPECT_THROW((void)shard::parse_shard_manifest(
                   data_file("version_skew.manifest")),
               DataError);
}

// ---------------------------------------------------------------------------
// Malformed input rejection (inline mutations of a valid document).

std::string valid_spec_text() {
  const testing::EchoIdProtocol p;
  return shard::serialize(shard::plan_shards(path_graph(3), p, "echo-id", 2)[0]);
}

std::string replace_first(std::string text, const std::string& from,
                          const std::string& to) {
  const std::size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << "fixture lost the '" << from
                                    << "' marker";
  return text.replace(pos, from.size(), to);
}

TEST(ShardFormats, MalformedSpecsAreRejectedWithDiagnostics) {
  const std::string valid = valid_spec_text();
  (void)shard::parse_shard_spec(valid);  // sanity: the base document parses

  const struct {
    const char* what;
    std::string text;
  } cases[] = {
      {"empty input", ""},
      {"wrong magic", replace_first(valid, "wbshard-spec", "wbshard-spek")},
      {"version skew", replace_first(valid, "wbshard-spec v3",
                                     "wbshard-spec v9")},
      {"two-digit version", replace_first(valid, "wbshard-spec v3",
                                          "wbshard-spec v33")},
      {"v2 is version skew", replace_first(valid, "wbshard-spec v3",
                                           "wbshard-spec v2")},
      {"bad distinct config", replace_first(valid, "distinct exact",
                                            "distinct approximately")},
      {"hll precision out of range", replace_first(valid, "distinct exact",
                                                   "distinct hll:25")},
      {"missing protocol", replace_first(valid, "protocol ", "protokol ")},
      {"edge out of range", replace_first(valid, "edge 1 2", "edge 1 9")},
      {"self-loop edge", replace_first(valid, "edge 1 2", "edge 2 2")},
      {"repeated edge", replace_first(valid, "edge 2 3", "edge 1 2")},
      {"edges out of order", replace_first(valid, "edge 1 2\nedge 2 3",
                                           "edge 2 3\nedge 1 2")},
      {"node count past the id range",
       replace_first(valid, "graph 3 2", "graph 4294967299 2")},
      // Refused before the graph is built: 4e9 nodes would ask for ~32 GB
      // of CSR offsets.
      {"node count past the cap",
       replace_first(valid, "graph 3 2", "graph 4000000000 2")},
      {"node count one past the cap",
       replace_first(valid, "graph 3 2",
                     "graph " + std::to_string(kMaxGraphNodes + 1) + " 2")},
      {"missing faults line", replace_first(valid, "faults none\n", "")},
      {"shard index out of range", replace_first(valid, "shard 0 2",
                                                 "shard 2 2")},
      // 2^32 + 2 would narrow to 2: it must not parse as shard 0 of 2.
      {"shard count past 32 bits", replace_first(valid, "shard 0 2",
                                                 "shard 0 4294967298")},
      {"shard count past the cap",
       replace_first(valid, "shard 0 2",
                     "shard 0 " + std::to_string(shard::kMaxShards + 1))},
      {"prefix depth too large", replace_first(valid, "task 0 2 1 2",
                                               "task 0 3 1 2 3")},
      {"prefix node out of range", replace_first(valid, "task 0 2 1 2",
                                                 "task 0 2 1 7")},
      {"prefix arity mismatch", replace_first(valid, "task 0 2 1 2",
                                              "task 0 2 1")},
      {"fault-free task outside world 0",
       replace_first(valid, "task 0 2 1 2", "task 1 2 1 2")},
      {"task without a prefix depth",
       replace_first(valid, "task 0 2 1 2", "task 0")},
      {"adaptive spec with tasks",
       replace_first(valid, "faults none", "faults adaptive:1:8")},
      {"truncated before end", valid.substr(0, valid.size() - 4)},
      {"trailing content", valid + "extra\n"},
      {"missing final newline", valid.substr(0, valid.size() - 1)},
      {"non-numeric count", replace_first(valid, "max-executions 2000000",
                                          "max-executions lots")},
      {"engine flag out of range", replace_first(valid, "engine 0 0",
                                                 "engine 0 2")},
      {"bad plan hash width", replace_first(valid, "plan ", "plan f ")},
      // A lying giant count must produce the parse error, not a giant
      // allocation (reserve is clamped to the document size).
      {"astronomical task count",
       replace_first(valid, "tasks 3", "tasks 9999999999999999")},
      {"astronomical edge count",
       replace_first(valid, "graph 3 2", "graph 3 9999999999999999")},
  };
  for (const auto& c : cases) {
    EXPECT_THROW((void)shard::parse_shard_spec(c.text), DataError) << c.what;
  }
}

std::string valid_result_text() {
  const testing::EchoIdProtocol p;
  const auto specs = shard::plan_shards(path_graph(3), p, "echo-id", 2);
  return shard::serialize(shard::run_shard(specs[0], p, kNoAccept, 1));
}

TEST(ShardFormats, MalformedResultsAreRejectedWithDiagnostics) {
  const std::string valid = valid_result_text();
  const ShardResult parsed = shard::parse_shard_result(valid);  // sanity
  ASSERT_GE(parsed.board_hashes.size(), 2u)
      << "fixture too small to exercise hash ordering";

  std::string swapped = valid;
  {
    // Swap the first two hash lines: now not strictly increasing.
    const std::size_t h1 = swapped.find("hash ");
    const std::size_t h2 = swapped.find("hash ", h1 + 1);
    const std::size_t h2_end = swapped.find('\n', h2);
    const std::string line1 = swapped.substr(h1, swapped.find('\n', h1) - h1);
    const std::string line2 = swapped.substr(h2, h2_end - h2);
    swapped = swapped.replace(h2, line2.size(), line1);
    swapped = swapped.replace(h1, line1.size(), line2);
  }
  const struct {
    const char* what;
    std::string text;
  } cases[] = {
      {"wrong magic", replace_first(valid, "wbshard-result", "wbshard-spec")},
      {"version skew", replace_first(valid, "wbshard-result v3",
                                     "wbshard-result v0")},
      {"v2 is version skew", replace_first(valid, "wbshard-result v3",
                                           "wbshard-result v2")},
      // 2^32 + 1 would narrow to 1: it must not parse as shard 0 of 1.
      {"shard count past 32 bits", replace_first(valid, "shard 0 2",
                                                 "shard 0 4294967297")},
      {"shard count past the cap",
       replace_first(valid, "shard 0 2",
                     "shard 0 " + std::to_string(shard::kMaxShards + 1))},
      {"missing faults line", replace_first(valid, "faults none\n", "")},
      {"stray verdict line",
       replace_first(valid, "budget-exceeded 0\n",
                     "budget-exceeded 0\nverdict 3 0\n")},
      {"failures exceed executions",
       replace_first(valid, "wrong-outputs 0", "wrong-outputs 4")},
      {"bad distinct kind", replace_first(valid, "distinct-kind exact",
                                          "distinct-kind fuzzy")},
      {"bad plan hash width", replace_first(valid, "plan ", "plan f ")},
      {"budget flag out of range",
       replace_first(valid, "budget-exceeded 0", "budget-exceeded 2")},
      {"hash count mismatch",
       replace_first(valid, "distinct " +
                                std::to_string(parsed.board_hashes.size()),
                     "distinct " +
                         std::to_string(parsed.board_hashes.size() + 1))},
      {"unsorted hashes", swapped},
      {"truncated before end", valid.substr(0, valid.size() - 4)},
      {"trailing content", valid + "junk\n"},
      {"astronomical distinct count",
       replace_first(valid,
                     "distinct " + std::to_string(parsed.board_hashes.size()),
                     "distinct 9999999999999999")},
  };
  for (const auto& c : cases) {
    EXPECT_THROW((void)shard::parse_shard_result(c.text), DataError) << c.what;
  }
}

TEST(ShardFormats, MalformedHllResultsAreRejectedWithDiagnostics) {
  const testing::EchoIdProtocol p;
  shard::PlanOptions plan;
  plan.distinct = DistinctConfig::Hll(4);  // 16 registers: one reg line
  const auto specs = shard::plan_shards(path_graph(3), p, "echo-id", 1, plan);
  const std::string valid =
      shard::serialize(shard::run_shard(specs[0], p, kNoAccept, 1));
  const ShardResult parsed = shard::parse_shard_result(valid);  // sanity
  ASSERT_TRUE(parsed.hll.has_value());

  // Overwrite the first register's two hex digits in place (their value
  // depends on the board hashes, so a literal search-and-replace can't name
  // them).
  const std::size_t first_byte = valid.find("reg ") + 4;
  ASSERT_NE(valid.find("reg "), std::string::npos);
  std::string bad_hex = valid;
  bad_hex[first_byte] = 'z';
  std::string overflow = valid;  // p = 4: max rho = 61 = 0x3d; 0x3e is a lie
  overflow[first_byte] = '3';
  overflow[first_byte + 1] = 'e';

  const struct {
    const char* what;
    std::string text;
  } cases[] = {
      {"register count does not match precision",
       replace_first(valid, "registers 16", "registers 32")},
      {"astronomical register count",
       replace_first(valid, "registers 16", "registers 9999999999999999")},
      {"short register line", replace_first(valid, "reg ", "reg 00")},
      {"bad hex digit", bad_hex},
      {"register value above max rho", overflow},
      {"truncated before end", valid.substr(0, valid.size() - 4)},
      {"kind/payload mismatch: exact hash lines after an hll kind",
       replace_first(valid, "registers 16", "distinct 0")},
  };
  for (const auto& c : cases) {
    EXPECT_THROW((void)shard::parse_shard_result(c.text), DataError) << c.what;
  }
}

TEST(ShardFormats, MalformedManifestsAreRejectedWithDiagnostics) {
  const testing::EchoIdProtocol p;
  const auto specs = shard::plan_shards(path_graph(3), p, "echo-id", 2);
  const std::string valid = shard::serialize(shard::make_manifest(specs));
  (void)shard::parse_shard_manifest(valid);  // sanity

  const struct {
    const char* what;
    std::string text;
  } cases[] = {
      {"empty input", ""},
      {"wrong magic",
       replace_first(valid, "wbshard-manifest", "wbshard-result")},
      {"v2 is version skew",
       replace_first(valid, "wbshard-manifest v3", "wbshard-manifest v2")},
      {"zero shards", replace_first(valid, "shards 2", "shards 0")},
      // 2^32 + 2 would narrow to 2 and match the two spec lines.
      {"shard count past 32 bits",
       replace_first(valid, "shards 2", "shards 4294967298")},
      {"shard count past the cap",
       replace_first(valid, "shards 2",
                     "shards " + std::to_string(shard::kMaxShards + 1))},
      {"stray faults line",
       replace_first(valid, "distinct exact\n",
                     "distinct exact\nfaults none\n")},
      {"missing spec hash", replace_first(valid, "spec ", "spek ")},
      {"bad spec hash width", replace_first(valid, "spec ", "spec f ")},
      {"bad distinct", replace_first(valid, "distinct exact",
                                     "distinct nope")},
      {"truncated before end", valid.substr(0, valid.size() - 4)},
      {"trailing content", valid + "extra\n"},
  };
  for (const auto& c : cases) {
    EXPECT_THROW((void)shard::parse_shard_manifest(c.text), DataError)
        << c.what;
  }
}

// Robustness table: every committed v3 document round-trips byte-identically,
// and every single-line deletion, single-line duplication, and truncation at
// a line boundary of it is refused with a DataError — never another
// exception, never a silently different document.
TEST(ShardFormats, EveryFixtureRefusesLineDeletionDuplicationAndTruncation) {
  using Reparse = std::function<std::string(const std::string&)>;
  const Reparse spec = [](const std::string& text) {
    return shard::serialize(shard::parse_shard_spec(text));
  };
  const Reparse result = [](const std::string& text) {
    return shard::serialize(shard::parse_shard_result(text));
  };
  const Reparse manifest = [](const std::string& text) {
    return shard::serialize(shard::parse_shard_manifest(text));
  };
  const struct {
    const char* name;
    const Reparse& reparse;
  } fixtures[] = {
      {"path3_echo.0.shard", spec},
      {"path3_echo.0.result", result},
      {"path3_echo_hll8.0.shard", spec},
      {"path3_echo_hll8.0.result", result},
      {"path3_echo.manifest", manifest},
      {"faults_crash.0.shard", spec},
      {"faults_crash.0.result", result},
      {"faults_adaptive.0.shard", spec},
      {"faults_adaptive.0.result", result},
  };
  for (const auto& f : fixtures) {
    const std::string text = data_file(f.name);
    EXPECT_EQ(f.reparse(text), text) << f.name;
    std::vector<std::string> lines;  // each with its '\n'
    for (std::size_t start = 0; start < text.size();) {
      const std::size_t end = text.find('\n', start) + 1;
      ASSERT_NE(end, 0u) << f.name << " lacks a final newline";
      lines.push_back(text.substr(start, end - start));
      start = end;
    }
    const auto expect_refused = [&](const std::string& mutant,
                                    const std::string& what) {
      try {
        (void)f.reparse(mutant);
        ADD_FAILURE() << f.name << ": " << what << " parsed";
      } catch (const DataError&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << f.name << ": " << what << " threw '" << e.what()
                      << "' instead of a DataError";
      }
    };
    std::string prefix;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string rest = text.substr(prefix.size() + lines[i].size());
      expect_refused(prefix, "truncation before line " + std::to_string(i + 1));
      expect_refused(prefix + rest, "deleting line " + std::to_string(i + 1));
      expect_refused(prefix + lines[i] + lines[i] + rest,
                     "duplicating line " + std::to_string(i + 1));
      prefix += lines[i];
    }
  }
}

TEST(ShardManifestApi, MakeManifestValidatesThePlanSet) {
  const testing::EchoIdProtocol p;
  const auto specs = shard::plan_shards(path_graph(4), p, "echo", 3);
  const shard::ShardManifest manifest = shard::make_manifest(specs);
  EXPECT_EQ(manifest.shard_count, 3u);
  EXPECT_EQ(manifest.plan, specs[0].plan);
  EXPECT_EQ(manifest.distinct, DistinctConfig::Exact());
  ASSERT_EQ(manifest.spec_hashes.size(), 3u);
  for (std::size_t k = 0; k < specs.size(); ++k) {
    EXPECT_EQ(manifest.spec_hashes[k],
              shard::hash_document(shard::serialize(specs[k])));
  }

  // An incomplete or out-of-order spec list is refused.
  std::vector<ShardSpec> partial = {specs[0], specs[2]};
  EXPECT_THROW((void)shard::make_manifest(partial), DataError);
  std::vector<ShardSpec> swapped = {specs[1], specs[0], specs[2]};
  EXPECT_THROW((void)shard::make_manifest(swapped), DataError);
  // A spec from another plan is refused even in the right slot.
  auto foreign = shard::plan_shards(path_graph(4), p, "other", 3);
  std::vector<ShardSpec> mixed = {specs[0], foreign[1], specs[2]};
  EXPECT_THROW((void)shard::make_manifest(mixed), DataError);
}

// ---------------------------------------------------------------------------
// Merge-time validation of the result set itself.

TEST(ShardMerge, RejectsIncompleteOrInconsistentResultSets) {
  const Graph g = path_graph(4);
  const testing::EchoIdProtocol p;
  const auto specs = shard::plan_shards(g, p, "echo", 3);
  std::vector<ShardResult> results;
  for (const ShardSpec& spec : specs) {
    results.push_back(shard::run_shard(spec, p, kNoAccept, 1));
  }

  EXPECT_THROW((void)shard::merge_shard_results({}), DataError);

  std::vector<ShardResult> missing = {results[0], results[2]};
  EXPECT_THROW((void)shard::merge_shard_results(missing), DataError);

  std::vector<ShardResult> duplicated = {results[0], results[1], results[1]};
  EXPECT_THROW((void)shard::merge_shard_results(duplicated), DataError);

  // A result from a different plan (other protocol string → other
  // fingerprint) must be refused even if its shard index fits.
  const auto other = shard::plan_shards(g, p, "echo-variant", 3);
  std::vector<ShardResult> mixed = {results[0], results[1],
                                    shard::run_shard(other[2], p, kNoAccept, 1)};
  EXPECT_THROW((void)shard::merge_shard_results(mixed), DataError);

  // Same instance, same K, but a *different partition* (coarser
  // tasks_per_shard): its subtrees overlap the original plan's differently,
  // so the fingerprint must differ and the mix must be refused.
  shard::PlanOptions coarse;
  coarse.tasks_per_shard = 1;
  const auto repartitioned = shard::plan_shards(g, p, "echo", 3, coarse);
  ASSERT_NE(shard::serialize(repartitioned[2]), shard::serialize(specs[2]));
  std::vector<ShardResult> cross_partition = {
      results[0], results[1], shard::run_shard(repartitioned[2], p, kNoAccept, 1)};
  EXPECT_THROW((void)shard::merge_shard_results(cross_partition), DataError);

  // The intact set merges fine (and in any order).
  std::vector<ShardResult> reversed = {results[2], results[1], results[0]};
  const MergedResult merged = shard::merge_shard_results(reversed);
  EXPECT_EQ(merged.executions, 24u);
}

}  // namespace
}  // namespace wb
