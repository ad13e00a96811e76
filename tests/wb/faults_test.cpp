// The failure-model layer (ISSUE 9 tentpole contract): crash-stop worlds
// enumerated canonically and swept exhaustively, seed-deterministic message
// corruption, and adaptive randomized adversaries with statistical verdicts.
//
// The oracle-equivalence half mirrors tests/wb/shard_test.cpp: a fault-FREE
// adapter (crash:0, corrupt:0) must reproduce the unadapted serial explorer's
// execution count, failure tallies, and distinct-board count bit-identically
// at any thread count and any shard split. The statistical half pins the
// VerdictAccumulator contract (order-oblivious merge == single stream, the
// distinct_test.cpp battery shape) and checks fixtures with analytically
// known failure probabilities — including the Konrad–Robinson–Zamaraev
// robust-triangle instance, whose 1 - q^3 miss rate the sampled verdict must
// bracket with its Wilson interval.
//
// Shard documents with fault fields are pinned by goldens under
// tests/wb/data/ (faults_crash.*, faults_adaptive.*); every bad_faults_* /
// bad_fprefix_* / *verdict* fixture must be rejected with a wb::DataError
// diagnostic, never undefined behavior.
#include "src/wb/faults.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/protocols/krz.h"
#include "src/wb/exhaustive.h"
#include "src/wb/shard.h"
#include "tests/wb/test_protocols.h"

namespace wb {
namespace {

std::string data_file(const std::string& name) {
  const std::string path = std::string(WB_TEST_DATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The canonical accept-all classifier: engine failure -> kDeadlockOrFault,
/// everything else correct. Fault-free sweeps under this classifier tally
/// exactly like the pre-fault explorer.
FaultVerdict accept_all(const ExecutionResult& r, std::span<const NodeId>) {
  return r.ok() ? FaultVerdict::kCorrect : FaultVerdict::kDeadlockOrFault;
}

/// Crash-tolerant judge: a deadlock is expected (not a failure) whenever
/// nodes crashed.
FaultVerdict crash_tolerant(const ExecutionResult& r,
                            std::span<const NodeId> crashed) {
  if (r.ok()) return FaultVerdict::kCorrect;
  if (r.status == RunStatus::kDeadlock && !crashed.empty()) {
    return FaultVerdict::kCorrect;
  }
  return FaultVerdict::kDeadlockOrFault;
}

/// Every execution of every fault world in-process: the thread-shaped plan
/// through the one sweep, as the exhaustive runner does.
SweepTotals sweep_all(const Graph& g, const Protocol& p,
                      const FaultSpec& faults, const FaultClassifier& classify,
                      const ExhaustiveOptions& opts) {
  return sweep(g, p, faults,
               partition_fault_tasks_for_threads(g, p, faults, opts.engine,
                                                 opts.threads),
               classify, opts);
}

/// Serial fault-free oracle, straight off the unadapted explorer.
struct Oracle {
  std::uint64_t executions = 0;
  std::uint64_t engine_failures = 0;
  std::uint64_t distinct = 0;
};

Oracle serial_oracle(const Graph& g, const Protocol& p) {
  Oracle o;
  o.executions = for_each_execution(g, p, [&](const ExecutionResult& r) {
    if (!r.ok()) ++o.engine_failures;
    return true;
  });
  o.distinct = count_distinct_final_boards(g, p);
  return o;
}

// ---------------------------------------------------------------------------
// Fault spec grammar.

TEST(FaultSpec, ParsesAndPrintsCanonically) {
  EXPECT_EQ(parse_fault_spec("none"), FaultSpec::None());
  EXPECT_EQ(parse_fault_spec("crash:2"), FaultSpec::Crash(2));
  EXPECT_EQ(parse_fault_spec("corrupt:1/8"), FaultSpec::Corrupt(1, 8, 1));
  EXPECT_EQ(parse_fault_spec("corrupt:3/7:9"), FaultSpec::Corrupt(3, 7, 9));
  EXPECT_EQ(parse_fault_spec("adaptive:5"),
            FaultSpec::Adaptive(5, FaultSpec::kDefaultTrials));
  EXPECT_EQ(parse_fault_spec("adaptive:5:128"), FaultSpec::Adaptive(5, 128));

  // to_string prints the full canonical form; parse(to_string) round-trips.
  EXPECT_EQ(fault_spec_to_string(FaultSpec::None()), "none");
  EXPECT_EQ(fault_spec_to_string(FaultSpec::Crash(2)), "crash:2");
  EXPECT_EQ(fault_spec_to_string(FaultSpec::Corrupt(1, 8, 1)),
            "corrupt:1/8:1");
  EXPECT_EQ(fault_spec_to_string(FaultSpec::Adaptive(5, 128)),
            "adaptive:5:128");
  for (const FaultSpec& spec :
       {FaultSpec::None(), FaultSpec::Crash(0), FaultSpec::Crash(3),
        FaultSpec::Corrupt(1, 2, 4), FaultSpec::Adaptive(11)}) {
    EXPECT_EQ(parse_fault_spec(fault_spec_to_string(spec)), spec);
  }
}

TEST(FaultSpec, FaultFreePredicate) {
  EXPECT_TRUE(FaultSpec::None().fault_free());
  EXPECT_TRUE(FaultSpec::Crash(0).fault_free());
  EXPECT_TRUE(FaultSpec::Corrupt(0, 4).fault_free());
  EXPECT_FALSE(FaultSpec::Crash(1).fault_free());
  EXPECT_FALSE(FaultSpec::Corrupt(1, 8).fault_free());
  EXPECT_FALSE(FaultSpec::Adaptive(1).fault_free());
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",           "bogus",       "bogus:1",      "none:1",
      "crash",      "crash:",      "crash:x",      "crash:1:2",
      "crash:-1",   "corrupt",     "corrupt:1",    "corrupt:1/0",
      "corrupt:9/8", "corrupt:x/y", "corrupt:1/8:z", "corrupt:1/8:1:2",
      "adaptive",   "adaptive:x",  "adaptive:1:0", "adaptive:1:x",
      "adaptive:1:2:3",
  };
  for (const char* spec : bad) {
    EXPECT_THROW((void)parse_fault_spec(spec), DataError) << "'" << spec
                                                          << "'";
  }
}

// ---------------------------------------------------------------------------
// Crash-world enumeration.

TEST(CrashWorlds, CanonicalOrderCountsAndContents) {
  // C(4,0) + C(4,1) = 5; + C(4,2) = 11.
  EXPECT_EQ(crash_world_count(4, 0), 1u);
  EXPECT_EQ(crash_world_count(4, 1), 5u);
  EXPECT_EQ(crash_world_count(4, 2), 11u);
  // World 0 is always the fault-free world.
  EXPECT_TRUE(crash_world(4, 2, 0).empty());
  // Then all size-1 sets ascending, then size-2 lexicographic.
  EXPECT_EQ(crash_world(4, 2, 1), (std::vector<NodeId>{1}));
  EXPECT_EQ(crash_world(4, 2, 4), (std::vector<NodeId>{4}));
  EXPECT_EQ(crash_world(4, 2, 5), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(crash_world(4, 2, 10), (std::vector<NodeId>{3, 4}));
  // Every world distinct, every set sorted.
  std::set<std::vector<NodeId>> seen;
  for (std::uint64_t w = 0; w < crash_world_count(4, 2); ++w) {
    const std::vector<NodeId> world = crash_world(4, 2, w);
    EXPECT_TRUE(std::is_sorted(world.begin(), world.end()));
    EXPECT_TRUE(seen.insert(world).second) << "duplicate world " << w;
  }
  EXPECT_THROW((void)crash_world(4, 2, 11), LogicError);
}

// ---------------------------------------------------------------------------
// Oracle equivalence (satellite a): fault-free adapters are bit-identical to
// the unadapted serial explorer at any thread count and any shard split.

TEST(FaultFreeOracle, SweepMatchesUnadaptedExplorerAcrossClassesAndThreads) {
  const Graph path4 = path_graph(4);
  const Graph star4 = star_graph(4);
  const testing::EchoIdProtocol echo;             // SIMASYNC
  const testing::BoardSizeProtocol board_size;    // SIMSYNC
  const testing::RumorProtocol rumor;             // ASYNC
  const testing::GossipCountProtocol gossip;      // SYNC
  const std::pair<const Graph*, const Protocol*> cases[] = {
      {&path4, &echo}, {&star4, &echo},       {&path4, &board_size},
      {&path4, &rumor}, {&path4, &gossip},
  };
  for (const auto& [g, p] : cases) {
    const Oracle oracle = serial_oracle(*g, *p);
    for (const FaultSpec& faults :
         {FaultSpec::Crash(0), FaultSpec::Corrupt(0, 4)}) {
      for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        ExhaustiveOptions opts;
        opts.threads = threads;
        const SweepTotals totals =
            sweep_all(*g, *p, faults, accept_all, opts);
        EXPECT_EQ(totals.worlds, 1u);
        EXPECT_EQ(totals.executions, oracle.executions)
            << p->name() << " " << fault_spec_to_string(faults) << " threads="
            << threads;
        EXPECT_EQ(totals.engine_failures, oracle.engine_failures);
        EXPECT_EQ(totals.wrong_outputs, 0u);
        ASSERT_NE(totals.distinct, nullptr);
        EXPECT_EQ(totals.distinct->estimate(), oracle.distinct);
      }
    }
  }
}

TEST(FaultFreeOracle, ShardedFaultFreeSweepMergesToTheSerialOracle) {
  const Graph g = path_graph(4);
  const testing::EchoIdProtocol p;
  const Oracle oracle = serial_oracle(g, p);
  for (const FaultSpec& faults :
       {FaultSpec::Crash(0), FaultSpec::Corrupt(0, 4)}) {
    for (const std::size_t shards : {1u, 2u, 4u}) {
      shard::PlanOptions popts;
      popts.faults = faults;
      const auto specs = shard::plan_shards(g, p, "echo-id", shards, popts);
      ASSERT_EQ(specs.size(), shards);
      std::vector<shard::ShardResult> results;
      for (const shard::ShardSpec& spec : specs) {
        // Round-trip every artifact through its text format.
        const shard::ShardSpec parsed =
            shard::parse_shard_spec(shard::serialize(spec));
        EXPECT_EQ(shard::serialize(parsed), shard::serialize(spec));
        const shard::ShardResult run =
            shard::run_shard(parsed, p, accept_all, 2);
        results.push_back(
            shard::parse_shard_result(shard::serialize(run)));
      }
      std::reverse(results.begin(), results.end());  // order-oblivious
      const shard::MergedResult merged = shard::merge_shard_results(results);
      EXPECT_EQ(merged.executions, oracle.executions);
      EXPECT_EQ(merged.engine_failures, oracle.engine_failures);
      EXPECT_EQ(merged.wrong_outputs, 0u);
      EXPECT_EQ(merged.distinct_boards, oracle.distinct);
      EXPECT_EQ(merged.faults, faults);
    }
  }
}

// ---------------------------------------------------------------------------
// Crash-stop sweeps.

TEST(CrashSweep, EnumeratesEveryWorldAndCountsItsSchedules) {
  // path:4 under <=1 crash: world 0 runs the full 4! tree; each of the 4
  // crashed worlds runs the 3! tree of the survivors and deadlocks.
  const Graph g = path_graph(4);
  const testing::EchoIdProtocol p;
  const SweepTotals tolerant = sweep_all(
      g, p, FaultSpec::Crash(1), crash_tolerant, {});
  EXPECT_EQ(tolerant.worlds, 5u);
  EXPECT_EQ(tolerant.executions, 24u + 4 * 6u);
  EXPECT_EQ(tolerant.engine_failures, 0u);  // deadlock-with-crash is expected

  // Under the strict accept-all classifier every crashed-world execution is
  // a deadlock failure.
  const SweepTotals strict =
      sweep_all(g, p, FaultSpec::Crash(1), accept_all, {});
  EXPECT_EQ(strict.engine_failures, 4 * 6u);
}

TEST(CrashSweep, TotalsAreThreadCountInvariant) {
  const Graph g = path_graph(4);
  const testing::EchoIdProtocol p;
  ExhaustiveOptions serial;
  serial.threads = 1;
  const SweepTotals oracle = sweep_all(
      g, p, FaultSpec::Crash(2), crash_tolerant, serial);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    ExhaustiveOptions opts;
    opts.threads = threads;
    const SweepTotals totals = sweep_all(
        g, p, FaultSpec::Crash(2), crash_tolerant, opts);
    EXPECT_EQ(totals.worlds, oracle.worlds);
    EXPECT_EQ(totals.executions, oracle.executions);
    EXPECT_EQ(totals.engine_failures, oracle.engine_failures);
    EXPECT_EQ(totals.wrong_outputs, oracle.wrong_outputs);
    EXPECT_EQ(totals.distinct->estimate(), oracle.distinct->estimate());
  }
}

TEST(CrashSweep, ShardedCrashSweepMergesBitIdentically) {
  const Graph g = path_graph(4);
  const testing::EchoIdProtocol p;
  const FaultSpec faults = FaultSpec::Crash(1);
  const SweepTotals serial =
      sweep_all(g, p, faults, accept_all, {});
  for (const std::size_t shards : {1u, 2u, 4u}) {
    shard::PlanOptions popts;
    popts.faults = faults;
    const auto specs = shard::plan_shards(g, p, "echo-id", shards, popts);
    std::vector<shard::ShardResult> results;
    for (const shard::ShardSpec& spec : specs) {
      const shard::ShardSpec parsed =
          shard::parse_shard_spec(shard::serialize(spec));
      const shard::ShardResult run = shard::run_shard(parsed, p, accept_all, 2);
      const std::string text = shard::serialize(run);
      results.push_back(shard::parse_shard_result(text));
      EXPECT_EQ(shard::serialize(results.back()), text);
    }
    std::mt19937 rng(0xFA017);
    std::shuffle(results.begin(), results.end(), rng);
    const shard::MergedResult merged = shard::merge_shard_results(results);
    EXPECT_EQ(merged.executions, serial.executions);
    EXPECT_EQ(merged.engine_failures, serial.engine_failures);
    EXPECT_EQ(merged.wrong_outputs, serial.wrong_outputs);
    EXPECT_EQ(merged.distinct_boards, serial.distinct->estimate());
  }
}

TEST(CrashSweep, BudgetIsGlobalAcrossWorlds) {
  const Graph g = path_graph(4);
  const testing::EchoIdProtocol p;
  ExhaustiveOptions opts;
  opts.max_executions = 30;  // world 0 alone has 24; total is 48
  EXPECT_THROW((void)sweep_all(g, p, FaultSpec::Crash(1),
                                             crash_tolerant, opts),
               BudgetExceededError);
}

// ---------------------------------------------------------------------------
// Corruption model.

TEST(Corruption, BitSurgeryHelpers) {
  BitWriter w;
  for (const bool bit : {true, false, true, true}) w.write_bit(bit);
  const Bits m = w.take();
  const Bits flipped = flip_bit(m, 1);
  EXPECT_EQ(flipped.size(), m.size());
  EXPECT_TRUE(flipped.bit(1));
  EXPECT_EQ(flipped.bit(0), m.bit(0));
  const Bits cut = truncate_bits(m, 2);
  EXPECT_EQ(cut.size(), 2u);
  EXPECT_EQ(cut.bit(0), m.bit(0));
  EXPECT_EQ(cut.bit(1), m.bit(1));
}

TEST(Corruption, ModelIsSeedDeterministicAndRespectsProbability) {
  BitWriter w;
  for (int i = 0; i < 16; ++i) w.write_bit(i % 3 == 0);
  const Bits m = w.take();
  const CorruptionModel never{0, 4, 7};
  EXPECT_EQ(never.apply(m, 1).size(), m.size());
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(never.apply(m, 1).bit(i), m.bit(i));
  }
  const CorruptionModel always{1, 1, 7};
  const Bits mutated = always.apply(m, 1);
  // p=1 must perturb a non-empty message (flip or truncate).
  const bool same_size = mutated.size() == m.size();
  bool differs = !same_size;
  for (std::size_t i = 0; same_size && i < m.size(); ++i) {
    differs = differs || mutated.bit(i) != m.bit(i);
  }
  EXPECT_TRUE(differs);
  // Determinism: same (message, salt, seed) -> same image; different salt
  // is an independent draw.
  const Bits again = always.apply(m, 1);
  EXPECT_EQ(again.size(), mutated.size());
  for (std::size_t i = 0; i < mutated.size(); ++i) {
    EXPECT_EQ(again.bit(i), mutated.bit(i));
  }
}

// ---------------------------------------------------------------------------
// Engine fault firewall: a decoder that throws DataError mid-engine becomes
// a clean kFault execution, never an escaped exception.

class ThrowingComposeProtocol final : public ProtocolWithOutput<int> {
 public:
  ModelClass model_class() const override { return ModelClass::kSimSync; }
  std::size_t message_bit_limit(std::size_t) const override { return 8; }
  std::string name() const override { return "throwing-compose"; }
  bool activate(const LocalView&, const Whiteboard&) const override {
    return true;
  }
  Bits compose(const LocalView& view,
               const Whiteboard& board) const override {
    WB_REQUIRE_MSG(board.message_count() == 0,
                   "refusing to read a non-empty board");
    BitWriter w;
    w.write_uint(view.id(), 8);
    return w.take();
  }
  int output(const Whiteboard&, std::size_t) const override { return 0; }
};

TEST(FaultFirewall, DataErrorInComposeBecomesAFaultStatus) {
  const Graph g = path_graph(3);
  const ThrowingComposeProtocol p;
  const ExecutionResult r = run_protocol(g, p);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status, RunStatus::kFault);

  // And a fault sweep tallies it as an engine failure instead of dying.
  const SweepTotals totals =
      sweep_all(g, p, FaultSpec::Crash(0), accept_all, {});
  EXPECT_EQ(totals.engine_failures, totals.executions);
}

// ---------------------------------------------------------------------------
// Locality claims under faults. The engine walks only the last writer's
// neighbours when a protocol claims FrontierLocality, so the adapters must
// withdraw a claim their faults break: a corrupted message can decode as a
// non-neighbour's ID, and a crashed node's verdict is pinned false. Then a
// claimed sweep equals the sweep of the same protocol with no claim at all.

TEST(FaultLocality, ClaimedSweepsEqualUnclaimedSweepsUnderCrashAndCorruption) {
  const testing::RumorProtocol rumor;               // ASYNC
  const testing::GossipCountProtocol gossip;        // SYNC
  const testing::WithoutLocality plain_rumor(rumor);
  const testing::WithoutLocality plain_gossip(gossip);
  const std::pair<const Protocol*, const Protocol*> protocols[] = {
      {&rumor, &plain_rumor}, {&gossip, &plain_gossip}};
  const Graph graphs[] = {path_graph(4), cycle_graph(4), star_graph(4),
                          grid_graph(2, 2), random_tree(5, 7)};
  std::vector<FaultSpec> specs = {FaultSpec::Crash(1), FaultSpec::Crash(2)};
  for (std::uint64_t seed = 0; seed <= 5; ++seed) {
    specs.push_back(FaultSpec::Corrupt(1, 2, seed));
    specs.push_back(FaultSpec::Corrupt(1, 4, seed));
  }
  ExhaustiveOptions serial;
  serial.threads = 1;
  for (const auto& [claimed, plain] : protocols) {
    for (const Graph& g : graphs) {
      for (const FaultSpec& faults : specs) {
        const SweepTotals want = sweep_all(
            g, *plain, faults, crash_tolerant, serial);
        const SweepTotals got = sweep_all(
            g, *claimed, faults, crash_tolerant, serial);
        const std::string where = claimed->name() + " n=" +
                                  std::to_string(g.node_count()) + " m=" +
                                  std::to_string(g.edge_count()) + " " +
                                  fault_spec_to_string(faults);
        EXPECT_EQ(got.worlds, want.worlds) << where;
        EXPECT_EQ(got.executions, want.executions) << where;
        EXPECT_EQ(got.engine_failures, want.engine_failures) << where;
        EXPECT_EQ(got.wrong_outputs, want.wrong_outputs) << where;
        EXPECT_EQ(got.distinct->estimate(), want.distinct->estimate())
            << where;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// VerdictAccumulator contract battery (the distinct_test.cpp shape).

TEST(VerdictAccumulator, EmptyAccumulatorHasVacuousBounds) {
  const VerdictAccumulator v;
  EXPECT_EQ(v.trials(), 0u);
  EXPECT_EQ(v.failures(), 0u);
  EXPECT_EQ(v.failure_rate(), 0.0);
  const WilsonInterval ci = v.wilson();
  EXPECT_EQ(ci.lo, 0.0);
  EXPECT_EQ(ci.hi, 1.0);
}

TEST(VerdictAccumulator, RecordsVerdictsAndRates) {
  VerdictAccumulator v;
  v.record_failure(false);
  v.record_failure(true);
  v.record_failure(true);
  v.record_failure(false);
  EXPECT_EQ(v.trials(), 4u);
  EXPECT_EQ(v.failures(), 2u);
  EXPECT_DOUBLE_EQ(v.failure_rate(), 0.5);
  const WilsonInterval ci = v.wilson();
  EXPECT_LT(ci.lo, 0.5);
  EXPECT_GT(ci.hi, 0.5);
  EXPECT_GT(ci.lo, 0.0);
  EXPECT_LT(ci.hi, 1.0);
}

TEST(VerdictAccumulator, MergeIsOrderObliviousAndEqualsSingleStream) {
  std::mt19937 rng(0xBEEF);
  std::vector<bool> outcomes;
  for (int i = 0; i < 500; ++i) outcomes.push_back(rng() % 3 == 0);

  VerdictAccumulator single;
  for (const bool failed : outcomes) single.record_failure(failed);

  for (const std::size_t parts : {2u, 4u, 7u}) {
    std::vector<VerdictAccumulator> split(parts);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      split[i % parts].record_failure(outcomes[i]);
    }
    std::shuffle(split.begin(), split.end(), rng);
    VerdictAccumulator merged;
    for (const VerdictAccumulator& part : split) merged.merge(part);
    EXPECT_EQ(merged, single) << parts << " parts";
    EXPECT_EQ(merged.wilson().lo, single.wilson().lo);
    EXPECT_EQ(merged.wilson().hi, single.wilson().hi);
  }
}

TEST(VerdictAccumulator, RehydratesFromSerializedTotals) {
  VerdictAccumulator v;
  for (int i = 0; i < 10; ++i) v.record_failure(i < 3);
  EXPECT_EQ(VerdictAccumulator(10, 3), v);
  EXPECT_THROW(VerdictAccumulator(1, 2), LogicError);
}

TEST(VerdictAccumulator, WilsonIntervalNarrowsWithSampleSize) {
  // Same 25% rate at growing sample sizes: the interval must bracket the
  // rate and shrink.
  double last_width = 1.0;
  for (const std::uint64_t trials : {16u, 64u, 256u, 1024u}) {
    const VerdictAccumulator v(trials, trials / 4);
    const WilsonInterval ci = v.wilson();
    EXPECT_LT(ci.lo, 0.25);
    EXPECT_GT(ci.hi, 0.25);
    const double width = ci.hi - ci.lo;
    EXPECT_LT(width, last_width) << trials;
    last_width = width;
  }
  EXPECT_EQ(verdict_summary(VerdictAccumulator(100, 25)),
            "100 trials, 25 failures, rate 0.2500, 95% CI [0.1755, 0.3430]");
}

// ---------------------------------------------------------------------------
// Statistical verdicts (satellite b): analytically known failure rates.

TEST(StatisticalVerdict, AdaptiveCrashCoinMatchesItsAnalyticRate) {
  // The adaptive policy crashes one node with probability exactly 1/2 per
  // trial. A classifier that fails iff anything crashed therefore has true
  // failure probability 1/2 — the Wilson interval must bracket it at every
  // sample size.
  const Graph g = path_graph(3);
  const testing::EchoIdProtocol p;
  const FaultClassifier crashed_means_failure =
      [](const ExecutionResult&, std::span<const NodeId> crashed) {
        return crashed.empty() ? FaultVerdict::kCorrect
                               : FaultVerdict::kWrongOutput;
      };
  for (const std::uint64_t trials : {128u, 1024u, 4096u}) {
    StatisticalOptions opts;
    opts.trials = trials;
    opts.seed = 9;
    const SweepTotals totals = run_statistical_verdict(
        g, p, FaultSpec::Adaptive(9, trials), crashed_means_failure, opts);
    EXPECT_EQ(totals.verdict.trials(), trials);
    const WilsonInterval ci = totals.verdict.wilson();
    EXPECT_LE(ci.lo, 0.5) << trials << " trials: " << verdict_summary(
        totals.verdict);
    EXPECT_GE(ci.hi, 0.5) << trials << " trials";
  }
}

TEST(StatisticalVerdict, TotalsAreThreadCountInvariant) {
  const Graph g = path_graph(4);
  const testing::EchoIdProtocol p;
  const FaultSpec faults = FaultSpec::Adaptive(3, 512);
  StatisticalOptions serial;
  serial.trials = 512;
  serial.seed = 3;
  serial.threads = 1;
  const SweepTotals oracle =
      run_statistical_verdict(g, p, faults, crash_tolerant, serial);
  for (const std::size_t threads : {2u, 8u}) {
    StatisticalOptions opts = serial;
    opts.threads = threads;
    const SweepTotals totals =
        run_statistical_verdict(g, p, faults, crash_tolerant, opts);
    EXPECT_EQ(totals.verdict, oracle.verdict);
    EXPECT_EQ(totals.engine_failures, oracle.engine_failures);
    EXPECT_EQ(totals.wrong_outputs, oracle.wrong_outputs);
  }
}

TEST(StatisticalVerdict, StridedShardSplitMergesToTheSingleStream) {
  // Trials are keyed by absolute index, so running offsets 0..K-1 with
  // stride K and merging the verdicts must equal the single stream — the
  // adaptive analogue of the shard oracle-equivalence contract.
  const Graph g = path_graph(3);
  const testing::EchoIdProtocol p;
  const FaultSpec faults = FaultSpec::Adaptive(17, 300);
  StatisticalOptions single;
  single.trials = 300;
  single.seed = 17;
  const SweepTotals oracle =
      run_statistical_verdict(g, p, faults, crash_tolerant, single);
  for (const std::uint64_t stride : {2u, 3u, 5u}) {
    VerdictAccumulator merged;
    std::uint64_t engine_failures = 0;
    for (std::uint64_t offset = 0; offset < stride; ++offset) {
      StatisticalOptions opts = single;
      opts.stride = stride;
      opts.offset = offset;
      const SweepTotals shard =
          run_statistical_verdict(g, p, faults, crash_tolerant, opts);
      merged.merge(shard.verdict);
      engine_failures += shard.engine_failures;
    }
    EXPECT_EQ(merged, oracle.verdict) << "stride " << stride;
    EXPECT_EQ(engine_failures, oracle.engine_failures);
  }
}

TEST(StatisticalVerdict, AdaptiveShardDocumentsMergeToTheSingleStream) {
  const Graph g = path_graph(3);
  const testing::EchoIdProtocol p;
  const FaultSpec faults = FaultSpec::Adaptive(17, 300);
  StatisticalOptions single;
  single.trials = 300;
  single.seed = 17;
  const SweepTotals oracle =
      run_statistical_verdict(g, p, faults, crash_tolerant, single);

  shard::PlanOptions popts;
  popts.faults = faults;
  const auto specs = shard::plan_shards(g, p, "echo-id", 3, popts);
  std::vector<shard::ShardResult> results;
  for (const shard::ShardSpec& spec : specs) {
    const shard::ShardSpec parsed =
        shard::parse_shard_spec(shard::serialize(spec));
    EXPECT_EQ(parsed.faults, faults);
    const shard::ShardResult run = shard::run_shard(
        parsed, p,
        [](const ExecutionResult& r, std::span<const NodeId> crashed) {
          return crash_tolerant(r, crashed);
        },
        2);
    const std::string text = shard::serialize(run);
    results.push_back(shard::parse_shard_result(text));
    EXPECT_EQ(shard::serialize(results.back()), text) << "round trip";
  }
  std::reverse(results.begin(), results.end());
  const shard::MergedResult merged = shard::merge_shard_results(results);
  EXPECT_EQ(merged.verdict_trials, oracle.verdict.trials());
  EXPECT_EQ(merged.verdict_failures, oracle.verdict.failures());
  EXPECT_EQ(merged.faults, faults);
}

// ---------------------------------------------------------------------------
// The Konrad–Robinson–Zamaraev robust lower-bound instance: shared-randomness
// edge sampling keeps each edge with probability q, so the planted triangle
// of K3 survives with probability q^3 and the one-sided detector's miss rate
// is exactly 1 - q^3 over the seed distribution.

TEST(KrzTriangle, DecodesExactlyTheSampledSubgraph) {
  const Graph g = complete_graph(3);
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const KrzTriangleProtocol p(1, 2, seed);
    GraphBuilder sampled(3);
    for (const Edge& e : g.edges()) {
      if (p.edge_sampled(e.u, e.v)) sampled.add_edge(e.u, e.v);
    }
    const bool truth = has_triangle(sampled.build());
    const ExecutionResult r = run_protocol(g, p);
    ASSERT_TRUE(r.ok()) << "seed " << seed;
    EXPECT_EQ(p.output(r.board, 3), truth) << "seed " << seed;
  }
}

TEST(KrzTriangle, EpsilonErrorMatchesOneMinusQCubed) {
  const Graph g = complete_graph(3);
  const double true_miss_rate = 1.0 - 1.0 / 8.0;  // q = 1/2, 1 - q^3
  for (const std::uint64_t trials : {64u, 256u, 1024u}) {
    VerdictAccumulator verdict;
    for (std::uint64_t seed = 0; seed < trials; ++seed) {
      const KrzTriangleProtocol p(1, 2, seed);
      FirstAdversary adv;
      const ExecutionResult r = run_protocol(g, p, adv);
      ASSERT_TRUE(r.ok());
      // Failure = the detector misses the planted triangle of K3.
      verdict.record_failure(!p.output(r.board, 3));
    }
    const WilsonInterval ci = verdict.wilson();
    EXPECT_LE(ci.lo, true_miss_rate)
        << trials << " trials: " << verdict_summary(verdict);
    EXPECT_GE(ci.hi, true_miss_rate) << trials << " trials";
  }
}

// ---------------------------------------------------------------------------
// Shard documents (satellite c): fault goldens round-trip byte-identically,
// fault-free v2 files parse fault-free, malformed fixtures are rejected.

TEST(FaultDocuments, CrashGoldenSpecAndResultRoundTripByteIdentically) {
  const std::string spec_text = data_file("faults_crash.0.shard");
  const shard::ShardSpec spec = shard::parse_shard_spec(spec_text);
  EXPECT_EQ(spec.faults, FaultSpec::Crash(1));
  EXPECT_FALSE(spec.fault_tasks.empty());
  EXPECT_EQ(shard::serialize(spec), spec_text);

  const std::string result_text = data_file("faults_crash.0.result");
  const shard::ShardResult result = shard::parse_shard_result(result_text);
  EXPECT_EQ(result.faults, FaultSpec::Crash(1));
  EXPECT_EQ(shard::serialize(result), result_text);
}

TEST(FaultDocuments, AdaptiveGoldenSpecAndResultRoundTripByteIdentically) {
  const std::string spec_text = data_file("faults_adaptive.0.shard");
  const shard::ShardSpec spec = shard::parse_shard_spec(spec_text);
  EXPECT_EQ(spec.faults.kind, FaultKind::kAdaptive);
  EXPECT_TRUE(spec.fault_tasks.empty());  // statistical: no partition
  EXPECT_EQ(shard::serialize(spec), spec_text);

  const std::string result_text = data_file("faults_adaptive.0.result");
  const shard::ShardResult result = shard::parse_shard_result(result_text);
  EXPECT_EQ(result.faults.kind, FaultKind::kAdaptive);
  EXPECT_LE(result.verdict_failures, result.verdict_trials);
  EXPECT_EQ(shard::serialize(result), result_text);
}

TEST(FaultDocuments, FaultFreeV2FilesParseFaultFreeAndUnchanged) {
  // Pre-fault v2 documents carry no fault lines; they must parse as
  // fault-free and re-serialize byte-identically (the format extension is
  // invisible until a fault spec is present).
  const std::string spec_text = data_file("path3_echo_v2.0.shard");
  const shard::ShardSpec spec = shard::parse_shard_spec(spec_text);
  EXPECT_TRUE(spec.faults.fault_free());
  EXPECT_EQ(spec.faults.kind, FaultKind::kNone);
  EXPECT_EQ(shard::serialize(spec), spec_text);

  const std::string result_text = data_file("path3_echo_v2.0.result");
  const shard::ShardResult result = shard::parse_shard_result(result_text);
  EXPECT_TRUE(result.faults.fault_free());
  EXPECT_EQ(shard::serialize(result), result_text);
}

TEST(FaultDocuments, CommittedMalformedFaultFixturesAreRejected) {
  const char* bad_specs[] = {
      "bad_faults_kind.shard",        "bad_faults_crash_arity.shard",
      "bad_faults_crash_f.shard",     "bad_faults_corrupt_prob.shard",
      "bad_faults_adaptive_trials.shard", "bad_faults_duplicate.shard",
      "bad_fprefix_arity.shard",      "bad_fprefix_world.shard",
      "bad_fprefix_count.shard",      "bad_fprefix_without_crash.shard",
  };
  for (const char* name : bad_specs) {
    const std::string text = data_file(name);
    EXPECT_THROW((void)shard::parse_shard_spec(text), DataError) << name;
  }
  const char* bad_results[] = {
      "bad_verdict_arity.result",
      "bad_verdict_overflow.result",
      "bad_verdict_without_adaptive.result",
      "missing_verdict.result",
  };
  for (const char* name : bad_results) {
    const std::string text = data_file(name);
    EXPECT_THROW((void)shard::parse_shard_result(text), DataError) << name;
  }
}

TEST(FaultDocuments, MergeRefusesMismatchedFaultSpecs) {
  const Graph g = path_graph(3);
  const testing::EchoIdProtocol p;
  shard::PlanOptions popts;
  popts.faults = FaultSpec::Crash(1);
  const auto specs = shard::plan_shards(g, p, "echo-id", 2, popts);
  std::vector<shard::ShardResult> results;
  for (const shard::ShardSpec& spec : specs) {
    results.push_back(shard::run_shard(spec, p, accept_all, 1));
  }
  results[1].faults = FaultSpec::Corrupt(1, 8, 1);
  try {
    (void)shard::merge_shard_results(results);
    FAIL() << "mismatched fault specs must refuse to merge";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("refusing to merge"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace wb
