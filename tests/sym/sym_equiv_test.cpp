// Cross-oracle equivalence: the symbolic (BDD) backend and the memoized
// enumerator against the `exhaustive:1` serial oracle. Everything the new
// backends answer must be *bit-identical* — same executions, same verdict
// arithmetic, same distinct-board count, byte-equal report lines — and
// everything they do not answer must be a typed refusal.
#include <gtest/gtest.h>

#include <string>

#include "src/cli/runners.h"
#include "src/cli/spec.h"
#include "src/protocols/anon_frontier.h"
#include "src/support/check.h"
#include "src/sym/encode.h"
#include "src/wb/exhaustive.h"

namespace wb::cli {
namespace {

/// The "schedules ... / verdict ..." block of a report — the exact bytes the
/// CI smoke job diffs between the two oracles.
std::string report_lines(const RunReport& r) {
  auto begin = r.summary.find("\nschedules ");
  EXPECT_NE(begin, std::string::npos) << r.summary;
  ++begin;  // past the anchoring newline
  const auto verdict = r.summary.find("verdict", begin);
  EXPECT_NE(verdict, std::string::npos) << r.summary;
  const auto end = r.summary.find('\n', verdict);
  return r.summary.substr(begin, end - begin);
}

RunReport serial_oracle(const char* protocol, const Graph& g) {
  ExhaustiveRunOptions opts;
  opts.threads = 1;
  return run_protocol_spec_exhaustive(protocol, g, opts);
}

void expect_symbolic_matches(const char* graph, const char* protocol,
                             const sym::SymbolicOptions& opts = {}) {
  const Graph g = graph_from_spec(graph);
  const RunReport oracle = serial_oracle(protocol, g);
  const RunReport sym = run_protocol_spec_symbolic(protocol, g, opts);
  const std::string label =
      std::string(graph) + " " + protocol + " order=" +
      sym::to_string(opts.order) + " engine=" + sym::to_string(opts.engine);
  EXPECT_EQ(sym.executions, oracle.executions) << label;
  EXPECT_EQ(sym.engine_failures, oracle.engine_failures) << label;
  EXPECT_EQ(sym.wrong_outputs, oracle.wrong_outputs) << label;
  EXPECT_EQ(sym.correct, oracle.correct) << label;
  EXPECT_EQ(report_lines(sym), report_lines(oracle)) << label;
  EXPECT_NE(sym.summary.find("0 schedules enumerated"), std::string::npos)
      << label << "\n" << sym.summary;
}

TEST(SymEquiv, SymbolicMatchesTheSerialEnumerator) {
  // Every SYNC-capable zoo protocol the backend answers, on small graphs
  // where the enumerator is the affordable ground truth.
  const std::pair<const char*, const char*> cases[] = {
      {"twocliques:3", "two-cliques"},   // circuit, 720 schedules
      {"switched:3", "two-cliques"},     // circuit, NO instance
      {"path:4", "mis:1"},               // circuit, 24 schedules
      {"star:5", "anon-degree"},         // circuit, converging boards
      {"cycle:6", "anon-degree"},        // circuit, all-equal degrees
  };
  for (const auto& [graph, protocol] : cases) {
    expect_symbolic_matches(graph, protocol);
  }
}

TEST(SymEquiv, FrontierOnlyProtocolsMatch) {
  // SYNC (activation-gated) protocols have no circuit model; the explicit-
  // frontier engine must still reproduce the oracle bit-for-bit.
  sym::SymbolicOptions opts;
  opts.engine = sym::SymEngine::kFrontier;
  const std::pair<const char*, const char*> cases[] = {
      {"cgnp:8:1/2:3", "sync-bfs"},
      {"twocliques:3", "spanning-forest"},
      {"path:5", "spanning-forest"},
  };
  for (const auto& [graph, protocol] : cases) {
    expect_symbolic_matches(graph, protocol, opts);
  }
}

TEST(SymEquiv, BothVariableOrdersAnswerIdentically) {
  for (const auto order : {sym::VarOrder::kInterleave, sym::VarOrder::kGrouped}) {
    sym::SymbolicOptions opts;
    opts.order = order;
    expect_symbolic_matches("twocliques:3", "two-cliques", opts);
    expect_symbolic_matches("star:5", "anon-degree", opts);
  }
}

TEST(SymEquiv, CircuitAndFrontierEnginesAgree) {
  // The two symbolic engines are independent implementations of the same
  // semantics; cross-check them against each other, not just the oracle.
  for (const char* protocol : {"two-cliques", "anon-degree"}) {
    const Graph g = graph_from_spec("twocliques:3");
    sym::SymbolicOptions circuit;
    circuit.engine = sym::SymEngine::kCircuit;
    sym::SymbolicOptions frontier;
    frontier.engine = sym::SymEngine::kFrontier;
    const RunReport a = run_protocol_spec_symbolic(protocol, g, circuit);
    const RunReport b = run_protocol_spec_symbolic(protocol, g, frontier);
    EXPECT_EQ(a.executions, b.executions) << protocol;
    EXPECT_EQ(a.engine_failures, b.engine_failures) << protocol;
    EXPECT_EQ(a.wrong_outputs, b.wrong_outputs) << protocol;
    EXPECT_EQ(report_lines(a), report_lines(b)) << protocol;
    EXPECT_NE(a.summary.find("engine=circuit"), std::string::npos);
    EXPECT_NE(b.summary.find("engine=frontier"), std::string::npos);
  }
}

TEST(SymEquiv, AsynchronousClassesAreRefused) {
  // SIMASYNC freezes messages at activation — there is no per-round
  // transition relation, and the backend says so instead of guessing.
  EXPECT_THROW((void)run_protocol_spec_symbolic(
                   "square-oracle", graph_from_spec("grid:3x3")),
               sym::SymUnsupportedError);
  EXPECT_THROW((void)run_protocol_spec_symbolic(
                   "rand-two-cliques:11", graph_from_spec("twocliques:3")),
               sym::SymUnsupportedError);
  try {
    (void)run_protocol_spec_symbolic("square-oracle",
                                     graph_from_spec("grid:3x3"));
    FAIL() << "expected SymUnsupportedError";
  } catch (const sym::SymUnsupportedError& e) {
    EXPECT_NE(std::string(e.what()).find("symbolic backend unsupported"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("SIMASYNC"), std::string::npos)
        << e.what();
  }
}

TEST(SymEquiv, ForcedCircuitWithoutAModelIsRefused) {
  sym::SymbolicOptions opts;
  opts.engine = sym::SymEngine::kCircuit;
  const Graph g = graph_from_spec("cgnp:8:1/2:3");
  EXPECT_THROW((void)run_protocol_spec_symbolic("sync-bfs", g, opts),
               sym::SymUnsupportedError);
}

TEST(SymEquiv, UnboundedWidthsHitTheVariableCap) {
  // complete:600 needs 6000 frontier variables against the 4096 cap; the
  // refusal is typed and happens before any BDD work.
  const Graph g = graph_from_spec("complete:600");
  try {
    (void)run_protocol_spec_symbolic("two-cliques", g);
    FAIL() << "expected SymUnsupportedError";
  } catch (const sym::SymUnsupportedError& e) {
    EXPECT_NE(std::string(e.what()).find("boolean variables"),
              std::string::npos)
        << e.what();
  }
}

// ---- the memoized enumerator (satellite 1) ----

TEST(SymEquiv, MemoizedSweepIsBitIdenticalToTheOracle) {
  // anon-degree on a star: all leaves share one degree, so schedules
  // converge factorially and the memo actually collapses the tree. The
  // report must not change by a byte.
  const Graph g = graph_from_spec("star:7");
  ExhaustiveRunOptions plain;
  plain.threads = 1;
  ExhaustiveRunOptions memo = plain;
  memo.memoize = true;
  const RunReport oracle = run_protocol_spec_exhaustive("anon-degree", g, plain);
  const RunReport memoized =
      run_protocol_spec_exhaustive("anon-degree", g, memo);
  EXPECT_EQ(memoized.executions, oracle.executions);
  EXPECT_EQ(memoized.engine_failures, oracle.engine_failures);
  EXPECT_EQ(memoized.wrong_outputs, oracle.wrong_outputs);
  EXPECT_EQ(report_lines(memoized), report_lines(oracle));
  EXPECT_NE(memoized.summary.find("memoize"), std::string::npos)
      << memoized.summary;
  EXPECT_NE(memoized.summary.find("memo hits"), std::string::npos)
      << memoized.summary;
  EXPECT_EQ(oracle.summary.find("memoize"), std::string::npos)
      << oracle.summary;
}

TEST(SymEquiv, MemoizationCollapsesConvergingSchedules) {
  // Direct sweep_memoized accounting: 7! = 5040 executions but far fewer
  // distinct states, because the anonymous messages erase write order.
  const Graph g = graph_from_spec("star:7");
  const AnonDegreeProtocol p;
  ExhaustiveOptions opts;
  opts.memoize = true;
  const MemoizedTotals t =
      sweep_memoized(g, p, [](const ExecutionResult&) { return true; }, opts);
  EXPECT_EQ(t.executions, 5040u);
  EXPECT_EQ(t.engine_failures, 0u);
  EXPECT_EQ(t.wrong_outputs, 0u);
  EXPECT_GT(t.memo_hits, 0u);
  EXPECT_LT(t.states_explored, t.executions);
  EXPECT_LT(t.terminals_visited, t.executions);
}

TEST(SymEquiv, MemoizationIsIdentityOnSignedProtocols) {
  // two-cliques signs every message with write_id: no two schedules
  // converge, the memo never hits, and the totals are still identical.
  const Graph g = graph_from_spec("twocliques:3");
  ExhaustiveRunOptions plain;
  plain.threads = 1;
  ExhaustiveRunOptions memo = plain;
  memo.memoize = true;
  const RunReport oracle = run_protocol_spec_exhaustive("two-cliques", g, plain);
  const RunReport memoized =
      run_protocol_spec_exhaustive("two-cliques", g, memo);
  EXPECT_EQ(report_lines(memoized), report_lines(oracle));
  EXPECT_EQ(memoized.executions, 720u);
}

TEST(SymEquiv, MemoizedHllDistinctMatchesTheOracle) {
  const Graph g = graph_from_spec("star:6");
  ExhaustiveRunOptions plain;
  plain.threads = 1;
  plain.distinct = DistinctConfig::Hll(12);
  ExhaustiveRunOptions memo = plain;
  memo.memoize = true;
  const RunReport oracle = run_protocol_spec_exhaustive("anon-degree", g, plain);
  const RunReport memoized =
      run_protocol_spec_exhaustive("anon-degree", g, memo);
  EXPECT_EQ(report_lines(memoized), report_lines(oracle));
  EXPECT_NE(memoized.summary.find("(hll:12)"), std::string::npos)
      << memoized.summary;
}

TEST(SymEquiv, MemoizedBudgetThrowsExactlyWhenTheOracleWould) {
  const Graph g = graph_from_spec("star:7");  // 5040 schedules
  ExhaustiveRunOptions memo;
  memo.threads = 1;
  memo.memoize = true;
  memo.max_executions = 100;
  EXPECT_THROW((void)run_protocol_spec_exhaustive("anon-degree", g, memo),
               BudgetExceededError);
  // At exactly the schedule count, both sweeps complete.
  memo.max_executions = 5040;
  const RunReport r = run_protocol_spec_exhaustive("anon-degree", g, memo);
  EXPECT_EQ(r.executions, 5040u);
}

}  // namespace
}  // namespace wb::cli
