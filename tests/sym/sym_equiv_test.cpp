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

void expect_symbolic_matches(const char* graph, const char* protocol) {
  const Graph g = graph_from_spec(graph);
  const RunReport oracle = serial_oracle(protocol, g);
  const RunReport sym = run_protocol_spec_symbolic(protocol, g);
  const std::string label = std::string(graph) + " " + protocol;
  EXPECT_EQ(sym.executions, oracle.executions) << label;
  EXPECT_EQ(sym.engine_failures, oracle.engine_failures) << label;
  EXPECT_EQ(sym.wrong_outputs, oracle.wrong_outputs) << label;
  EXPECT_EQ(sym.correct, oracle.correct) << label;
  EXPECT_EQ(report_lines(sym), report_lines(oracle)) << label;
  EXPECT_NE(sym.summary.find("0 schedules enumerated"), std::string::npos)
      << label << "\n" << sym.summary;
}

TEST(SymEquiv, SymbolicMatchesTheSerialEnumerator) {
  // Every protocol with a circuit model, on every small-graph family where
  // the enumerator is the affordable ground truth: converging (anonymous)
  // and signed boards, YES and NO two-cliques instances, a MIS root of
  // every degree class.
  const char* const graphs[] = {
      "path:5",   "cycle:6",     "star:7",       "grid:2x3",
      "tree:7:3", "gnp:7:1/2:3", "twocliques:3", "switched:3",
  };
  for (const char* graph : graphs) {
    for (const char* protocol : {"two-cliques", "mis:1", "anon-degree"}) {
      expect_symbolic_matches(graph, protocol);
    }
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

TEST(SymEquiv, SynchronousProtocolsWithoutACircuitAreRefused) {
  // The SYNC protocols with activation predicates have no circuit model;
  // the refusal is typed and points at the memoized enumerator.
  const std::pair<const char*, const char*> cases[] = {
      {"cgnp:8:1/2:3", "sync-bfs"},
      {"twocliques:3", "spanning-forest"},
      {"path:5", "spanning-forest"},
  };
  for (const auto& [graph, protocol] : cases) {
    try {
      (void)run_protocol_spec_symbolic(protocol, graph_from_spec(graph));
      FAIL() << "expected SymUnsupportedError for " << graph << " "
             << protocol;
    } catch (const sym::SymUnsupportedError& e) {
      EXPECT_NE(std::string(e.what()).find("exhaustive:memoize"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SymEquiv, UnboundedWidthsHitTheVariableCap) {
  // complete:600 needs more circuit variables than the 4096 cap; the
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
