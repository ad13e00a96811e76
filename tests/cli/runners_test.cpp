#include "src/cli/runners.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "src/cli/spec.h"
#include "src/support/check.h"
#include "src/support/hash.h"

namespace wb::cli {
namespace {

/// Exhaustive options for a `threads`-worker sweep, everything else default.
ExhaustiveRunOptions on_threads(std::size_t threads) {
  ExhaustiveRunOptions opts;
  opts.threads = threads;
  return opts;
}

RunReport run(const std::string& graph, const std::string& protocol,
              const std::string& adversary = "first") {
  const Graph g = graph_from_spec(graph);
  auto adv = adversary_from_spec(adversary, g);
  return run_protocol_spec(protocol, g, *adv);
}

TEST(Runners, EveryProtocolSpecSmokeTest) {
  // (graph, protocol) pairs chosen so every runner validates successfully.
  const std::pair<const char*, const char*> cases[] = {
      {"forest:20:80:3", "build-forest"},
      {"kdeg:20:2:20:3", "build-degenerate:2"},
      {"gnp:12:1/3:5", "build-full"},
      {"cgnp:12:1/3:5", "mis:4"},
      {"twocliques:6", "two-cliques"},
      {"switched:6", "two-cliques"},
      {"twocliques:6", "rand-two-cliques:11"},
      {"ceob:14:1/4:2", "eob-bfs"},
      {"cycle:8", "bipartite-bfs"},
      {"cgnp:15:1/4:9", "sync-bfs"},
      {"gnp:14:1/2:1", "subgraph:5"},
      {"gnp:10:1/2:2", "triangle-oracle"},
      {"complete:5", "pair-chase"},
      {"gnp:16:1/8:4", "spanning-forest"},
      {"grid:3x3", "square-oracle"},
      {"star:8", "diameter-oracle:2"},
      {"cgnp:10:1/3:6", "connectivity-oracle"},
      {"twocliques:5", "connectivity-oracle"},
  };
  for (const auto& [graph, protocol] : cases) {
    const RunReport r = run(graph, protocol);
    EXPECT_TRUE(r.executed) << graph << " " << protocol;
    EXPECT_TRUE(r.correct) << graph << " " << protocol << "\n" << r.summary;
    EXPECT_FALSE(r.summary.empty());
  }
}

TEST(Runners, ExhaustiveSpecSweepsEverySchedule) {
  const Graph g = graph_from_spec("twocliques:3");  // 6 nodes, 6! schedules
  const RunReport serial =
      run_protocol_spec_exhaustive("two-cliques", g, on_threads(1));
  EXPECT_TRUE(serial.executed);
  EXPECT_TRUE(serial.correct) << serial.summary;
  EXPECT_EQ(serial.status, "success");
  EXPECT_NE(serial.summary.find("720 executions"), std::string::npos)
      << serial.summary;
  // Parallel sweeps must report the same totals as the serial oracle.
  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    const RunReport par =
        run_protocol_spec_exhaustive("two-cliques", g, on_threads(threads));
    EXPECT_TRUE(par.correct) << par.summary;
    EXPECT_NE(par.summary.find("720 executions"), std::string::npos)
        << par.summary;
  }
}

TEST(Runners, ExhaustiveSpecReportsFailures) {
  // C6 is not two cliques; the SIMSYNC protocol still answers NO correctly
  // on every schedule, so use a wrong-promise input for build-forest, whose
  // rejection is correct — instead check an actually failing pairing:
  // sync-bfs expects its gated activations; a deadlocking toy is not
  // reachable via specs, so assert the budget guard instead.
  const Graph g = graph_from_spec("cgnp:12:1/3:5");
  ExhaustiveRunOptions opts;
  opts.max_executions = 10;
  EXPECT_THROW((void)run_protocol_spec_exhaustive("mis:4", g, opts),
               LogicError);
}

TEST(Runners, CounterexampleFindsSmallestPrefixFailingSchedule) {
  // broken-first:1 is wrong on exactly the schedules where node 1 does not
  // write first; the lexicographically-smallest failing write order on
  // path:4 is therefore 2 1 3 4. The serial sweep stops right there; the
  // parallel sweep takes the minimum over all failures — both must report
  // the identical schedule.
  const Graph g = graph_from_spec("path:4");
  ExhaustiveRunOptions opts;
  opts.counterexample = true;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    opts.threads = threads;
    const RunReport r =
        run_protocol_spec_exhaustive("broken-first:1", g, opts);
    EXPECT_FALSE(r.correct) << "threads=" << threads;
    EXPECT_EQ(r.counterexample, "2 1 3 4") << "threads=" << threads;
    EXPECT_NE(r.summary.find("counterexample 2 1 3 4 (wrong-output)"),
              std::string::npos)
        << "threads=" << threads << "\n" << r.summary;
  }
}

TEST(Runners, CounterexampleEmptyWhenEveryScheduleIsCorrect) {
  const Graph g = graph_from_spec("twocliques:3");
  ExhaustiveRunOptions opts;
  opts.threads = 1;
  opts.counterexample = true;
  const RunReport r = run_protocol_spec_exhaustive("two-cliques", g, opts);
  EXPECT_TRUE(r.correct) << r.summary;
  EXPECT_TRUE(r.counterexample.empty());
  EXPECT_NE(r.summary.find("counterexample none"), std::string::npos)
      << r.summary;
  EXPECT_NE(r.summary.find("720 executions"), std::string::npos) << r.summary;
}

TEST(Runners, ShardedSweepReproducesTheExhaustiveReportLines) {
  // plan / run x3 / merge for a CLI protocol spec: the merged totals must
  // produce byte-identical "schedules ... / verdict ..." lines to the
  // threads=1 exhaustive report — which is exactly what the CI smoke job
  // diffs across real processes.
  const Graph g = graph_from_spec("twocliques:3");  // 6 nodes, 720 schedules
  const RunReport serial =
      run_protocol_spec_exhaustive("two-cliques", g, on_threads(1));
  const auto specs = plan_protocol_spec_shards("two-cliques", g, 3);
  ASSERT_EQ(specs.size(), 3u);
  std::vector<shard::ShardResult> results;
  for (const auto& spec : specs) {
    // Round-trip every artifact through its text form, as processes would.
    const auto parsed = shard::parse_shard_spec(shard::serialize(spec));
    results.push_back(shard::parse_shard_result(
        shard::serialize(run_protocol_spec_shard(parsed, /*threads=*/2))));
  }
  const shard::MergedResult merged = shard::merge_shard_results(results);
  EXPECT_EQ(merged.executions, 720u);
  const std::string lines = exhaustive_summary_lines(
      merged.executions, merged.engine_failures, merged.wrong_outputs,
      merged.distinct_boards);
  EXPECT_NE(serial.summary.find(lines), std::string::npos)
      << "serial:\n" << serial.summary << "merged lines:\n" << lines;
}

TEST(Runners, HllExhaustiveReportMarksTheEstimateAndStaysDeterministic) {
  const Graph g = graph_from_spec("twocliques:3");  // 6 nodes, 720 schedules
  ExhaustiveRunOptions opts;
  opts.threads = 1;
  opts.distinct = DistinctConfig::Hll(14);
  const RunReport serial = run_protocol_spec_exhaustive("two-cliques", g, opts);
  EXPECT_TRUE(serial.correct) << serial.summary;
  EXPECT_NE(serial.summary.find("720 executions, ~"), std::string::npos)
      << serial.summary;
  EXPECT_NE(serial.summary.find("distinct final boards (hll:14)"),
            std::string::npos)
      << serial.summary;
  // The estimate line is bit-identical at any thread count.
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    opts.threads = threads;
    const RunReport par =
        run_protocol_spec_exhaustive("two-cliques", g, opts);
    EXPECT_EQ(par.summary.substr(par.summary.find("schedules")),
              serial.summary.substr(serial.summary.find("schedules")))
        << "threads=" << threads;
  }
  // The exact report is untouched by the hll machinery: no tilde marker.
  const RunReport exact =
      run_protocol_spec_exhaustive("two-cliques", g, on_threads(1));
  EXPECT_EQ(exact.summary.find("~"), std::string::npos) << exact.summary;
}

TEST(Runners, HllShardedSweepReproducesTheExhaustiveReportLines) {
  // Same contract as the exact version below, under distinct=hll:12: the
  // merged report lines must match the in-process sweep byte-for-byte.
  const Graph g = graph_from_spec("twocliques:3");
  ExhaustiveRunOptions opts;
  opts.threads = 1;
  opts.distinct = DistinctConfig::Hll(12);
  const RunReport serial = run_protocol_spec_exhaustive("two-cliques", g, opts);
  shard::PlanOptions plan;
  plan.distinct = DistinctConfig::Hll(12);
  const auto specs = plan_protocol_spec_shards("two-cliques", g, 3, plan);
  std::vector<shard::ShardResult> results;
  for (const auto& spec : specs) {
    const auto parsed = shard::parse_shard_spec(shard::serialize(spec));
    results.push_back(shard::parse_shard_result(
        shard::serialize(run_protocol_spec_shard(parsed, /*threads=*/2))));
  }
  const shard::MergedResult merged = shard::merge_shard_results(results);
  EXPECT_EQ(merged.executions, 720u);
  const std::string lines = exhaustive_summary_lines(
      merged.executions, merged.engine_failures, merged.wrong_outputs,
      merged.distinct_boards, merged.distinct);
  EXPECT_NE(serial.summary.find(lines), std::string::npos)
      << "serial:\n" << serial.summary << "merged lines:\n" << lines;
}

TEST(Runners, ShardedSweepCountsWrongOutputsLikeTheExhaustiveReport) {
  // The deliberately-broken fixture fails on a schedule-dependent subset;
  // sharded tallies must agree with the serial exhaustive report exactly.
  const Graph g = graph_from_spec("path:4");
  const RunReport serial =
      run_protocol_spec_exhaustive("broken-first:2", g, on_threads(1));
  const auto specs = plan_protocol_spec_shards("broken-first:2", g, 4);
  std::vector<shard::ShardResult> results;
  for (const auto& spec : specs) {
    results.push_back(run_protocol_spec_shard(spec, 1));
  }
  const shard::MergedResult merged = shard::merge_shard_results(results);
  const std::string lines = exhaustive_summary_lines(
      merged.executions, merged.engine_failures, merged.wrong_outputs,
      merged.distinct_boards);
  EXPECT_NE(serial.summary.find(lines), std::string::npos)
      << "serial:\n" << serial.summary << "merged lines:\n" << lines;
  EXPECT_GT(merged.wrong_outputs, 0u);
}

TEST(Runners, CorruptSweepBranchesPerFailingWriterAtAnyThreadOrShardCount) {
  // Under corruption a two-cliques writer can fail to decode the board; each
  // schedule that chooses such a writer is its own failing execution. The
  // report must not depend on how the schedule tree is split.
  const Graph g = graph_from_spec("twocliques:3");
  ExhaustiveRunOptions opts;
  opts.faults = parse_fault_spec("corrupt:1/8:1");
  opts.threads = 1;
  const RunReport serial = run_protocol_spec_exhaustive("two-cliques", g, opts);
  EXPECT_EQ(serial.executions, 449u);
  EXPECT_EQ(serial.executions - serial.engine_failures - serial.wrong_outputs,
            360u);
  const std::string lines =
      serial.summary.substr(serial.summary.find("schedules"));
  opts.threads = 4;
  const RunReport par = run_protocol_spec_exhaustive("two-cliques", g, opts);
  EXPECT_EQ(par.summary.substr(par.summary.find("schedules")), lines);

  shard::PlanOptions plan;
  plan.faults = opts.faults;
  std::vector<shard::ShardResult> results;
  for (const auto& spec :
       plan_protocol_spec_shards("two-cliques", g, 4, plan)) {
    const auto parsed = shard::parse_shard_spec(shard::serialize(spec));
    results.push_back(shard::parse_shard_result(
        shard::serialize(run_protocol_spec_shard(parsed, /*threads=*/1))));
  }
  const shard::MergedResult merged = shard::merge_shard_results(results);
  EXPECT_EQ(merged.executions, serial.executions);
  EXPECT_EQ(merged.engine_failures, serial.engine_failures);
  EXPECT_EQ(merged.wrong_outputs, serial.wrong_outputs);
  EXPECT_NE(lines.find(exhaustive_summary_lines(
                merged.executions, merged.engine_failures,
                merged.wrong_outputs, merged.distinct_boards)),
            std::string::npos)
      << lines;
}

TEST(Runners, CorruptPairChaseSweepFailsCleanly) {
  // Corruption can forge a pair-chase certificate that names one node twice;
  // decoding it is a kFault execution, not an internal error.
  const Graph g = graph_from_spec("complete:5");
  ExhaustiveRunOptions opts;
  opts.threads = 1;
  opts.faults = parse_fault_spec("corrupt:1/8:1");
  RunReport r;
  ASSERT_NO_THROW(r = run_protocol_spec_exhaustive("pair-chase", g, opts));
  EXPECT_FALSE(r.correct);
  EXPECT_GT(r.engine_failures, 0u) << r.summary;
}

/// The tallies of one single-shard sweep folded with its sorted exact board
/// hashes into one 128-bit digest, printed as 32 hex digits.
std::string sweep_digest(const shard::ShardResult& r) {
  Hasher128 h;
  h.update(r.executions);
  h.update(r.engine_failures);
  h.update(r.wrong_outputs);
  h.update(r.board_hashes.size());
  for (const Hash128& b : r.board_hashes) {
    h.update(b.lo);
    h.update(b.hi);
  }
  const Hash128 d = h.digest();
  char hex[33];
  std::snprintf(hex, sizeof hex, "%016llx%016llx",
                static_cast<unsigned long long>(d.hi),
                static_cast<unsigned long long>(d.lo));
  return hex;
}

TEST(Runners, EveryProtocolSpecPinsItsMessageBits) {
  // Every distinct final board of every schedule, hashed bit for bit, for
  // each protocol protocol_spec_help() lists: a change to any message any
  // protocol composes moves its digest. Pinned on graphs of at most 6 nodes
  // so each sweep stays under 720 schedules.
  struct Case {
    const char* graph;
    const char* protocol;
    const char* digest;
  };
  const Case cases[] = {
      {"tree:6:1", "build-forest",
       "64376a8e90eeb966255ddf49c7eddecc"},
      {"cycle:5", "build-degenerate:2",
       "0bb02a8e51cfda15651d047fb72b4e9d"},
      {"gnp:5:1/2:3", "build-full",
       "78aad5f15e2d49b87d8268eafa3fbfe8"},
      {"path:5", "mis:2",
       "f556a5415984af49c5561083fa9c247d"},
      {"twocliques:3", "two-cliques",
       "1f77b25bad38df2d0f8391732bcdae57"},
      {"switched:3", "rand-two-cliques:11",
       "c3ec46c2917302b8adbb55d120882a3a"},
      {"cycle:6", "eob-bfs",
       "dc0470de31a6fb842217567a82d0e982"},
      {"bipartite:3:3:2/3:1", "bipartite-bfs",
       "04e540379e7a6e6ed5507b9b1847901d"},
      {"cgnp:6:1/3:2", "sync-bfs",
       "502b063703dcb74c3a57f8dddabdb91d"},
      {"gnp:6:1/2:1", "subgraph:2",
       "9e7849a2bbf1eabac343b3d1743643dc"},
      {"twocliques:3", "triangle-oracle",
       "ac3958b581bdcd9e9c7862b2d84ffde7"},
      {"complete:4", "pair-chase",
       "666033134337910ca9369d3e0b6c23ff"},
      {"gnp:6:1/3:4", "spanning-forest",
       "2328a8d49dd0cf0ec0013d7e78829afa"},
      {"star:6", "anon-degree",
       "110be284f0be2fcdf46e7f2cd4bbbce3"},
      {"grid:2x3", "square-oracle",
       "638ba4bcd9b5166534cefbcf2450c907"},
      {"star:5", "diameter-oracle:2",
       "f50924684ff1684a5975d24cb59e595b"},
      {"cgnp:6:1/4:7", "connectivity-oracle",
       "d883161f5ee41ef8024dfd81ee66c501"},
      {"gnp:6:1/2:5", "krz-triangle:1/2:3",
       "503291e7d001fd64afbfd6600469b02c"},
      {"path:4", "broken-first:2",
       "2b561e85a3467e046e3541c2af8a0462"},
  };
  for (const Case& c : cases) {
    const Graph g = graph_from_spec(c.graph);
    const auto specs = plan_protocol_spec_shards(c.protocol, g, 1);
    ASSERT_EQ(specs.size(), 1u) << c.protocol;
    const shard::ShardResult r = run_protocol_spec_shard(specs[0], 1);
    EXPECT_GT(r.executions, 0u) << c.protocol;
    EXPECT_EQ(sweep_digest(r), c.digest)
        << "{\"" << c.graph << "\", \"" << c.protocol << "\"}: "
        << r.executions << " executions, " << r.board_hashes.size()
        << " distinct boards";
  }
}

TEST(Runners, ReportsContainVitalSigns) {
  const RunReport r = run("forest:10:80:1", "build-forest", "random:3");
  EXPECT_NE(r.summary.find("protocol"), std::string::npos);
  EXPECT_NE(r.summary.find("status     success"), std::string::npos);
  EXPECT_NE(r.summary.find("board"), std::string::npos);
  EXPECT_NE(r.summary.find("verdict"), std::string::npos);
  EXPECT_EQ(r.status, "success");
}

TEST(Runners, RejectionIsACorrectAnswer) {
  // A cycle is not a forest: the builder must reject, and the runner counts
  // that as correct behaviour.
  const RunReport r = run("cycle:7", "build-forest");
  EXPECT_TRUE(r.correct);
  EXPECT_NE(r.summary.find("rejected"), std::string::npos);
}

TEST(Runners, DeadlockIsReportedNotValidated) {
  // triangle with tail deadlocks bipartite-bfs; correct=false, status tells.
  const Graph g = graph_from_spec("complete:3");
  GraphBuilder b(5);
  for (const Edge& e : g.edges()) b.add_edge(e.u, e.v);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  auto adv = adversary_from_spec("first", g);
  const Graph gg = b.build();
  auto adv2 = adversary_from_spec("first", gg);
  const RunReport r = run_protocol_spec("bipartite-bfs", gg, *adv2);
  EXPECT_TRUE(r.executed);
  EXPECT_FALSE(r.correct);
  EXPECT_EQ(r.status, "deadlock");
}

TEST(Runners, UnknownProtocolThrows) {
  const Graph g = graph_from_spec("path:4");
  auto adv = adversary_from_spec("first", g);
  EXPECT_THROW((void)run_protocol_spec("quantum-bfs", g, *adv), DataError);
}

TEST(Runners, BadArgumentsThrow) {
  const Graph g = graph_from_spec("path:4");
  auto adv = adversary_from_spec("first", g);
  EXPECT_THROW((void)run_protocol_spec("mis:9", g, *adv), DataError);  // root>n
  EXPECT_THROW((void)run_protocol_spec("build-degenerate", g, *adv),
               DataError);
}

}  // namespace
}  // namespace wb::cli
