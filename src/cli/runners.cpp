#include "src/cli/runners.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "src/analysis/board_stats.h"
#include "src/analysis/schedule_stats.h"
#include "src/cli/spec.h"
#include "src/graph/algorithms.h"
#include "src/protocols/anon_frontier.h"
#include "src/protocols/bfs_sync.h"
#include "src/protocols/codec.h"
#include "src/protocols/build_degenerate.h"
#include "src/protocols/build_forest.h"
#include "src/protocols/build_full.h"
#include "src/protocols/eob_bfs.h"
#include "src/protocols/krz.h"
#include "src/protocols/mis.h"
#include "src/protocols/oracles.h"
#include "src/protocols/randomized.h"
#include "src/protocols/subgraph.h"
#include "src/protocols/triangle.h"
#include "src/protocols/two_cliques.h"
#include "src/support/hash.h"
#include "src/sym/reach.h"
#include "src/wb/batch.h"
#include "src/wb/engine.h"
#include "src/wb/exhaustive.h"
#include "src/wb/faults.h"

namespace wb::cli {

namespace {

/// A protocol spec made runnable: the constructed protocol and the reference
/// check of one final board. `check` decodes the board with the protocol's
/// typed output(), validates it against the centralized reference
/// algorithms, and writes the report's verdict line to `os`; a robust
/// decoder rejecting a corrupted board throws DataError. The check borrows
/// the graph the case was made for (everything else it owns), so the case
/// must not outlive that graph.
struct ProtocolCase {
  std::shared_ptr<const Protocol> protocol;
  std::function<bool(const Whiteboard&, std::ostream&)> check;
};

/// The one template over the protocol type: erase `protocol` and its typed
/// `check(output, os)` into a ProtocolCase.
template <typename P, typename Check>
ProtocolCase make(P protocol, const Graph& g, Check check) {
  auto p = std::make_shared<const P>(std::move(protocol));
  return {p, [p, n = g.node_count(), check = std::move(check)](
                 const Whiteboard& board, std::ostream& os) {
            return check(p->output(board, n), os);
          }};
}

/// `c.check` with the verdict text discarded — what sweeps call once per
/// execution, possibly concurrently from pool workers. seekp(0) reuses the
/// worker's buffer so the hot loop stays allocation-free after warmup.
bool judge(const ProtocolCase& c, const Whiteboard& board) {
  thread_local std::ostringstream sink;
  sink.seekp(0);
  return c.check(board, sink);
}

/// The `protocol ... / graph ...` lines every report opens with.
void describe_protocol(std::ostream& os, const Protocol& p, const Graph& g) {
  os << "protocol   " << p.name() << " (" << model_name(p.model_class())
     << "[" << p.message_bit_limit(g.node_count()) << " bits])\n";
  os << "graph      n=" << g.node_count() << " m=" << g.edge_count() << "\n";
}

/// The one report every sweep runner ends in: the protocol/graph lines, the
/// adversary line (`detail` follows a dash when nonempty), then the
/// `schedules`/`verdict` lines over `distinct` final boards — or, when
/// `distinct` is empty (a statistical sweep), the sampled-trial verdict.
/// Memoized and symbolic sweeps pass their counts in a SweepTotals.
RunReport sweep_report(const Protocol& p, const Graph& g,
                       std::string adversary, const std::string& detail,
                       const SweepTotals& totals,
                       std::optional<std::uint64_t> distinct,
                       const DistinctConfig& config) {
  RunReport report;
  report.executed = true;
  report.adversary = std::move(adversary);
  report.executions = totals.executions;
  report.engine_failures = totals.engine_failures;
  report.wrong_outputs = totals.wrong_outputs;
  report.fault_worlds = totals.worlds;
  report.correct = totals.engine_failures + totals.wrong_outputs == 0;
  report.status = totals.engine_failures == 0 ? "success" : "mixed";
  std::ostringstream os;
  describe_protocol(os, p, g);
  os << "adversary  " << report.adversary;
  if (!detail.empty()) os << " — " << detail;
  os << "\n";
  if (distinct.has_value()) {
    os << exhaustive_summary_lines(totals.executions, totals.engine_failures,
                                   totals.wrong_outputs, *distinct, config);
  } else {
    report.statistical = true;
    os << "schedules  " << totals.executions
       << " sampled trials (statistical sweep)\n";
    os << "verdict    " << verdict_summary(totals.verdict()) << "\n";
  }
  report.summary = os.str();
  return report;
}

/// Report one scheduled run (single adversary or one battery entry).
RunReport report_run(const ProtocolCase& c, const Graph& g,
                     const BatteryRun& run) {
  const ExecutionResult& r = run.result;
  const Protocol& p = *c.protocol;
  RunReport report;
  report.executed = true;
  report.adversary = run.adversary;
  report.status = std::string(status_name(r.status));
  std::ostringstream os;
  describe_protocol(os, p, g);
  os << "adversary  " << run.adversary << "\n";
  os << "status     " << status_name(r.status);
  if (!r.error.empty()) os << " — " << r.error;
  os << "\n";
  const ScheduleStats sched = analyze_schedule(r);
  const BoardStats board = analyze_board(r.board);
  os << "schedule   rounds=" << sched.rounds << " writes=" << sched.writes
     << " activation-waves=" << sched.activation_waves
     << " mean-latency=" << sched.mean_latency << "\n";
  os << "board      bits=" << board.total_bits << " max-msg="
     << board.max_message_bits << " distinct=" << board.distinct_messages
     << " utilization="
     << budget_utilization(board, g.node_count(),
                           p.message_bit_limit(g.node_count()))
     << "\n";
  if (r.ok()) {
    report.correct = c.check(r.board, os);
  } else {
    os << "verdict    (no output: run not successful)\n";
  }
  report.summary = os.str();
  return report;
}

/// Running minimum over failing schedules: the counterexample a
/// `--counterexample` sweep reports. Lexicographic order on the write order
/// — exactly the serial DFS visit order, so the minimum is the
/// "smallest-prefix" failing schedule and is thread-count independent.
struct CounterexampleTracker {
  std::mutex mu;
  bool found = false;
  std::vector<NodeId> write_order;
  std::string status;

  /// Returns true the first time a failure is recorded.
  bool record(const ExecutionResult& r, const char* why) {
    const std::lock_guard<std::mutex> lock(mu);
    const bool first = !found;
    if (!found || r.write_order < write_order) {
      found = true;
      write_order = r.write_order;
      status = why;
    }
    return first;
  }

  [[nodiscard]] std::string order_text() const {
    std::string text;
    for (const NodeId v : write_order) {
      if (!text.empty()) text += " ";
      text += std::to_string(v);
    }
    return text;
  }
};

/// The fault classifier every fault-aware sweep path shares. Verdict rules:
///  - a successful execution is judged by the protocol's own check;
///  - a crash execution's natural deadlock (crashed nodes never write) is
///    judged on the partial board — crash-tolerant protocols still answer,
///    and a wrong answer is kWrongOutput, not an engine failure;
///  - every other engine failure, and a DataError from a robust decoder
///    rejecting a corrupted/truncated board, is kDeadlockOrFault.
FaultClassifier make_fault_classifier(const ProtocolCase& c) {
  return [c](const ExecutionResult& r, std::span<const NodeId> crashed) {
    const bool judge_partial =
        r.status == RunStatus::kDeadlock && !crashed.empty();
    if (!r.ok() && !judge_partial) return FaultVerdict::kDeadlockOrFault;
    try {
      return judge(c, r.board) ? FaultVerdict::kCorrect
                               : FaultVerdict::kWrongOutput;
    } catch (const DataError&) {
      return FaultVerdict::kDeadlockOrFault;
    }
  };
}

/// `exhaustive:memoize` (wb::sweep_memoized): the serial one-task sweep —
/// every judged sweep memoizes — whose adversary line reports the memo
/// counters, which only a one-task sweep keeps deterministic. The schedules/verdict lines are byte-identical to the
/// serial sweep's.
RunReport run_exhaustive_memoized(const ProtocolCase& c, const Graph& g,
                                  const ExhaustiveRunOptions& ropts) {
  WB_REQUIRE_MSG(!ropts.counterexample,
                 "memoize does not track counterexamples (memo-hit subtrees "
                 "are never re-visited)");
  WB_REQUIRE_MSG(ropts.faults.kind == FaultKind::kNone &&
                     ropts.statistical_trials == 0,
                 "memoize is fault-free only");
  WB_REQUIRE_MSG(ropts.threads <= 1, "memoized sweeps are serial");
  ExhaustiveOptions opts;
  opts.max_executions = ropts.max_executions;
  opts.distinct = ropts.distinct;
  const MemoizedTotals totals = sweep_memoized(
      g, *c.protocol,
      [&c](const ExecutionResult& r) { return judge(c, r.board); }, opts);

  return sweep_report(
      *c.protocol, g, "exhaustive(threads=1, memoize)",
      std::to_string(totals.states_explored) + " states, " +
          std::to_string(totals.memo_hits) + " memo hits, " +
          std::to_string(totals.terminals_visited) + " terminals visited",
      {.executions = totals.executions,
       .engine_failures = totals.engine_failures,
       .wrong_outputs = totals.wrong_outputs},
      totals.distinct, ropts.distinct);
}

/// Exhaustive or statistical sweep of one case: the thread-shaped plan
/// (every fault world's tree split by partition_for_threads) through
/// wb::sweep and the case's fault classifier, or — adaptive faults and
/// statistical_trials — run_statistical_verdict; then the one report.
/// Every execution is classified, visitors run concurrently on pool
/// workers, and the totals are deterministic at any thread count. With
/// ropts.counterexample the failure callback keeps the smallest failing
/// schedule; the serial sweep stops at its first failure, which DFS order
/// makes the minimum.
RunReport run_exhaustive(const ProtocolCase& c, const Graph& g,
                         const ExhaustiveRunOptions& ropts) {
  if (ropts.memoize) {
    // First, so memoize+faults misuse hits the memoized runner's loud
    // rejection instead of silently dropping the flag.
    return run_exhaustive_memoized(c, g, ropts);
  }
  const Protocol& protocol = *c.protocol;
  const FaultClassifier classify = make_fault_classifier(c);
  const std::string threads = "(threads=" + std::to_string(ropts.threads);
  const std::string faults =
      ", faults=" + fault_spec_to_string(ropts.faults) + ")";
  const bool adaptive = ropts.faults.kind == FaultKind::kAdaptive;
  if (adaptive || ropts.statistical_trials > 0) {
    StatisticalOptions sopts;
    sopts.trials = adaptive ? ropts.faults.trials : ropts.statistical_trials;
    sopts.seed = ropts.faults.seed;
    sopts.threads = ropts.threads;
    return sweep_report(
        protocol, g, (adaptive ? "adaptive" : "statistical") + threads + faults,
        "",
        run_statistical_verdict(g, protocol, ropts.faults, classify, sopts),
        std::nullopt, ropts.distinct);
  }
  const bool fault_free = ropts.faults.kind == FaultKind::kNone;
  ExhaustiveOptions opts;
  opts.threads = ropts.threads;
  opts.max_executions = ropts.max_executions;
  opts.distinct = ropts.distinct;
  CounterexampleTracker cx;
  const bool stop_at_first_failure = ropts.counterexample && opts.threads == 1;
  FailureVisitor on_failure;
  if (ropts.counterexample) {
    on_failure = [&cx, stop_at_first_failure](const ExecutionResult& r,
                                              FaultVerdict v) {
      cx.record(r, v == FaultVerdict::kWrongOutput
                       ? "wrong-output"
                       : status_name(r.status).data());
      return !stop_at_first_failure;
    };
  }
  const SweepTotals totals = sweep(
      g, protocol, ropts.faults,
      partition_fault_tasks_for_threads(g, protocol, ropts.faults,
                                        opts.engine, opts.threads),
      classify, opts, on_failure);
  RunReport report = sweep_report(
      protocol, g, "exhaustive" + threads + (fault_free ? ")" : faults),
      fault_free ? "" : std::to_string(totals.worlds) + " fault worlds",
      totals, totals.distinct->estimate(), ropts.distinct);
  if (ropts.counterexample) {
    std::ostringstream os;
    if (cx.found) {
      report.counterexample = cx.order_text();
      os << "counterexample " << report.counterexample << " (" << cx.status
         << ")\n";
      if (stop_at_first_failure) {
        os << "counterexample sweep stopped at the first (smallest-prefix) "
              "failing schedule\n";
      }
    } else {
      os << "counterexample none\n";
    }
    report.summary += os.str();
  }
  return report;
}

/// Deliberately-broken negative-testing fixture (spec `broken-first:V`):
/// every node writes its ID, the output is the *first* writer's ID, and
/// validation expects node V — wrong on exactly the schedules where some
/// other node writes first. The lexicographically-smallest failing schedule
/// is known in closed form, which is what pins `--counterexample`.
class FirstWriterProtocol final : public SimAsyncProtocol<NodeId> {
 public:
  [[nodiscard]] std::size_t message_bit_limit(std::size_t n) const override {
    return static_cast<std::size_t>(codec::id_bits(n));
  }
  [[nodiscard]] Bits compose_initial(const LocalView& view,
                                     BitWriter& w) const override {
    codec::write_id(w, view.id(), view.n());
    return w.take();
  }
  [[nodiscard]] NodeId output(const Whiteboard& board,
                              std::size_t n) const override {
    WB_REQUIRE_MSG(board.message_count() >= 1, "empty whiteboard");
    BitReader r(board.message(0));
    return codec::read_id(r, n);
  }
  [[nodiscard]] std::string name() const override { return "broken-first"; }
};

/// Check of a yes/no decision problem against its precomputed answer.
auto yes_no_check(bool truth) {
  return [truth](bool out, std::ostream& os) {
    os << "verdict    " << (out ? "YES" : "NO") << " (truth: "
       << (truth ? "YES" : "NO") << ")\n";
    return out == truth;
  };
}

/// Reconstruction check shared by the build protocols.
auto build_check(const Graph& g) {
  return [&g](const BuildOutput& out, std::ostream& os) {
    if (!out.has_value()) {
      os << "verdict    rejected (input outside promised class)\n";
      // Rejection is the *correct* answer when the input is truly outside.
      return true;
    }
    const bool exact = *out == g;
    os << "verdict    reconstructed " << out->edge_count() << " edges — "
       << (exact ? "exact" : "WRONG") << "\n";
    return exact;
  };
}

/// BFS-forest check shared by the BFS protocols. The reference forest only
/// depends on g, so it is computed once, not per schedule.
auto bfs_check(const Graph& g) {
  return [&g, ref = bfs_forest(g), eob = is_even_odd_bipartite(g)](
             const BfsProtocolOutput& out, std::ostream& os) {
    if (!out.valid) {
      os << "verdict    input reported invalid\n";
      return !eob;
    }
    const bool ok =
        out.layer == ref.layer && is_valid_bfs_forest(g, out.layer, out.parent);
    os << "verdict    BFS forest with " << out.roots.size() << " roots — "
       << (ok ? "valid" : "WRONG") << "\n";
    return ok;
  };
}

/// Construct the protocol `spec` names on `g`, with its reference check.
/// References that only depend on g are computed here, once per case, and
/// captured by value.
ProtocolCase make_case(const std::string& spec, const Graph& g) {
  const auto parts = split_spec(spec);
  const std::string& kind = parts[0];
  const std::size_t n = g.node_count();

  if (kind == "build-forest") {
    return make(BuildForestProtocol{}, g, build_check(g));
  }
  if (kind == "build-degenerate") {
    WB_REQUIRE_MSG(parts.size() == 2, "expected build-degenerate:K");
    const int k = parse_int(parts[1], "K");
    return make(BuildDegenerateProtocol{k}, g, build_check(g));
  }
  if (kind == "build-full") {
    return make(BuildFullProtocol{}, g,
                [&g](const Graph& out, std::ostream& os) {
                  const bool exact = out == g;
                  os << "verdict    reconstructed " << out.edge_count()
                     << " edges — " << (exact ? "exact" : "WRONG") << "\n";
                  return exact;
                });
  }
  if (kind == "mis") {
    WB_REQUIRE_MSG(parts.size() == 2, "expected mis:ROOT");
    const NodeId root =
        static_cast<NodeId>(parse_u64_at_most(parts[1], "root", n));
    WB_REQUIRE_MSG(root >= 1, "root out of range");
    return make(RootedMisProtocol(root), g,
                [&g, root](const MisOutput& out, std::ostream& os) {
                  const bool ok = is_rooted_mis(g, out, root);
                  os << "verdict    |MIS| = " << out.size() << " — "
                     << (ok ? "valid rooted MIS" : "WRONG") << "\n";
                  return ok;
                });
  }
  if (kind == "two-cliques" || kind == "rand-two-cliques") {
    const bool truth = is_two_cliques(g);  // once, not per schedule
    auto check = [yes_no = yes_no_check(truth)](const TwoCliquesOutput& out,
                                                std::ostream& os) {
      return yes_no(out.yes, os);
    };
    if (kind == "two-cliques") return make(TwoCliquesProtocol{}, g, check);
    WB_REQUIRE_MSG(parts.size() == 2, "expected rand-two-cliques:SEED");
    return make(RandomizedTwoCliquesProtocol{parse_u64(parts[1], "seed")}, g,
                check);
  }
  if (kind == "eob-bfs") return make(EobBfsProtocol{}, g, bfs_check(g));
  if (kind == "bipartite-bfs") {
    return make(EobBfsProtocol{EobMode::kBipartiteNoCheck}, g, bfs_check(g));
  }
  if (kind == "sync-bfs") return make(SyncBfsProtocol{}, g, bfs_check(g));
  if (kind == "subgraph") {
    WB_REQUIRE_MSG(parts.size() == 2, "expected subgraph:F");
    const std::size_t f = parse_u64(parts[1], "F");
    GraphBuilder expect(n);  // reference subgraph: once, not per run
    for (const Edge& e : g.edges()) {
      if (e.u <= f && e.v <= f) expect.add_edge(e.u, e.v);
    }
    return make(SubgraphProtocol(f), g,
                [expect = expect.build()](const Graph& out, std::ostream& os) {
                  const bool ok = out == expect;
                  os << "verdict    prefix subgraph with " << out.edge_count()
                     << " edges — " << (ok ? "exact" : "WRONG") << "\n";
                  return ok;
                });
  }
  if (kind == "krz-triangle") {
    WB_REQUIRE_MSG(parts.size() == 3, "expected krz-triangle:NUM/DEN:SEED");
    const auto [num, den] = parse_prob(parts[1]);
    const KrzTriangleProtocol p(num, den, parse_u64(parts[2], "seed"));
    // The sampled subgraph is fixed by (graph, seed): compute the sampled
    // truth once — a triangle whose edges all survive sampling. The check
    // is exact agreement with *that*; the ε-error behavior (missing the
    // real triangle with probability 1 - q^3) shows up when the seed is
    // varied across statistical trials (tests/wb/faults_test.cpp).
    GraphBuilder sampled(n);
    for (const Edge& e : g.edges()) {
      if (p.edge_sampled(e.u, e.v)) sampled.add_edge(e.u, e.v);
    }
    const bool truth = has_triangle(sampled.build());
    return make(p, g, [truth](bool out, std::ostream& os) {
      os << "verdict    " << (out ? "TRIANGLE" : "none")
         << " (sampled truth: " << (truth ? "TRIANGLE" : "none") << ")\n";
      return out == truth;
    });
  }
  if (kind == "triangle-oracle") {
    return make(TriangleOracleProtocol{}, g,
                [truth = has_triangle(g)](bool out, std::ostream& os) {
                  os << "verdict    " << (out ? "TRIANGLE" : "none")
                     << " (truth: " << (truth ? "TRIANGLE" : "none") << ")\n";
                  return out == truth;
                });
  }
  if (kind == "pair-chase") {
    return make(
        TrianglePairChaseProtocol(0), g,
        [truth = has_triangle(g)](TriangleVerdict v, std::ostream& os) {
          const char* verdict =
              v == TriangleVerdict::kYes
                  ? "TRIANGLE"
                  : (v == TriangleVerdict::kNo ? "none" : "unknown");
          os << "verdict    " << verdict << " (truth: "
             << (truth ? "TRIANGLE" : "none") << ")\n";
          // Soundness requirement only: kYes must imply truth.
          return v != TriangleVerdict::kYes || truth;
        });
  }
  if (kind == "broken-first") {
    WB_REQUIRE_MSG(parts.size() == 2, "expected broken-first:V");
    const NodeId want =
        static_cast<NodeId>(parse_u64_at_most(parts[1], "V", n));
    WB_REQUIRE_MSG(want >= 1, "V out of range");
    return make(FirstWriterProtocol{}, g, [want](NodeId out, std::ostream& os) {
      const bool ok = out == want;
      os << "verdict    first writer " << out << " (want " << want << ") — "
         << (ok ? "as planted" : "WRONG") << "\n";
      return ok;
    });
  }
  if (kind == "anon-degree") {
    AnonDegreeOutput expect;  // sorted degree multiset: once, not per run
    expect.reserve(n);
    for (NodeId v = 1; v <= n; ++v) expect.push_back(g.degree(v));
    std::sort(expect.begin(), expect.end());
    return make(AnonDegreeProtocol{}, g,
                [expect = std::move(expect)](const AnonDegreeOutput& out,
                                             std::ostream& os) {
                  const bool ok = out == expect;
                  os << "verdict    " << out.size() << " anonymous degrees — "
                     << (ok ? "exact multiset" : "WRONG") << "\n";
                  return ok;
                });
  }
  if (kind == "spanning-forest") {
    return make(SpanningForestProtocol{}, g,
                [&g](const SpanningForestOutput& out, std::ostream& os) {
                  const bool ok = is_spanning_forest_of(g, out);
                  os << "verdict    " << out.edges.size() << " tree edges, "
                     << out.components << " components, connected="
                     << (out.connected ? "yes" : "no") << " — "
                     << (ok ? "valid" : "WRONG") << "\n";
                  return ok;
                });
  }
  if (kind == "square-oracle") {
    return make(square_oracle(), g, yes_no_check(has_square(g)));
  }
  if (kind == "connectivity-oracle") {
    return make(connectivity_oracle(), g, yes_no_check(is_connected(g)));
  }
  if (kind == "diameter-oracle") {
    const int d = parse_int(parts.size() == 2 ? parts[1] : "3", "D");
    const int diam = diameter(g);
    return make(diameter_at_most_oracle(d), g,
                yes_no_check(diam >= 0 && diam <= d));
  }
  WB_REQUIRE_MSG(false,
                 "unknown protocol '" << kind << "'\n" << protocol_spec_help());
  return {};  // unreachable
}

}  // namespace

RunReport run_protocol_spec(const std::string& spec, const Graph& g,
                            Adversary& adversary) {
  const ProtocolCase c = make_case(spec, g);
  Trial t;
  t.graph = &g;
  t.protocol = c.protocol.get();
  t.adversary = &adversary;
  BatteryRun run{adversary.name(),
                 std::move(run_batch(std::span<const Trial>(&t, 1)).front())};
  return report_run(c, g, run);
}

std::vector<RunReport> run_protocol_spec_battery(const std::string& spec,
                                                 const Graph& g,
                                                 std::uint64_t seed,
                                                 const BatchOptions& opts) {
  const ProtocolCase c = make_case(spec, g);
  std::vector<RunReport> reports;
  for (const BatteryRun& run :
       run_standard_battery(g, *c.protocol, seed, opts)) {
    reports.push_back(report_run(c, g, run));
  }
  return reports;
}

RunReport run_protocol_spec_exhaustive(const std::string& spec, const Graph& g,
                                       const ExhaustiveRunOptions& opts) {
  return run_exhaustive(make_case(spec, g), g, opts);
}

/// Symbolic sweep (src/sym/reach.h): the serial enumerator's exact
/// schedules/distinct/verdict accounting from a BDD fixpoint, enumerating
/// zero schedules. The circuit models carry their own decoded-incorrect
/// sets, so no judge is passed; agreement with the case's check is pinned
/// by tests/sym/sym_equiv_test.cpp.
RunReport run_protocol_spec_symbolic(const std::string& spec, const Graph& g) {
  const ProtocolCase c = make_case(spec, g);
  const sym::SymbolicTotals totals = sym::symbolic_sweep(g, *c.protocol, {});

  RunReport report = sweep_report(
      *c.protocol, g, "symbolic",
      std::to_string(totals.vars) + " vars, " + std::to_string(totals.layers) +
          " layers, 0 schedules enumerated",
      {.executions = totals.executions,
       .engine_failures = totals.engine_failures,
       .wrong_outputs = totals.wrong_outputs},
      // DistinctConfig{} (exact): the symbolic distinct count is exact by
      // construction, and the default config keeps these lines
      // byte-identical to the `exhaustive:1` oracle's — what the CI smoke
      // diffs.
      totals.distinct, DistinctConfig{});
  std::ostringstream os;
  os << "bdd        " << totals.bdd.nodes << " nodes, " << totals.bdd.cache_hits
     << "/" << totals.bdd.cache_lookups << " cache hits\n";
  report.summary += os.str();
  return report;
}

std::vector<shard::ShardSpec> plan_protocol_spec_shards(
    const std::string& protocol_spec, const Graph& g, std::size_t shard_count,
    const shard::PlanOptions& opts) {
  return shard::plan_shards(g, *make_case(protocol_spec, g).protocol,
                            protocol_spec, shard_count, opts);
}

shard::ShardResult run_protocol_spec_shard(const shard::ShardSpec& spec,
                                           std::size_t threads) {
  const ProtocolCase c = make_case(spec.protocol_spec, spec.graph);
  return shard::run_shard(spec, *c.protocol, make_fault_classifier(c),
                          threads);
}

std::string exhaustive_summary_lines(std::uint64_t executions,
                                     std::uint64_t engine_failures,
                                     std::uint64_t wrong_outputs,
                                     std::uint64_t distinct_boards,
                                     const DistinctConfig& distinct) {
  const std::uint64_t failures = engine_failures + wrong_outputs;
  std::ostringstream os;
  if (distinct.kind == DistinctKind::kExact) {
    os << "schedules  " << executions << " executions, " << distinct_boards
       << " distinct final boards\n";
  } else {
    os << "schedules  " << executions << " executions, ~" << distinct_boards
       << " distinct final boards (" << to_string(distinct) << ")\n";
  }
  os << "verdict    " << (executions - failures) << "/" << executions
     << " executions successful and correct\n";
  return os.str();
}

std::string protocol_spec_help() {
  return "protocols: build-forest build-degenerate:K build-full mis:ROOT\n"
         "           two-cliques rand-two-cliques:SEED eob-bfs bipartite-bfs\n"
         "           sync-bfs subgraph:F triangle-oracle pair-chase\n"
         "           spanning-forest anon-degree square-oracle\n"
         "           diameter-oracle:D connectivity-oracle\n"
         "           krz-triangle:NUM/DEN:SEED\n"
         "           broken-first:V (negative-testing fixture: correct iff\n"
         "           node V writes first — for --counterexample)";
}

}  // namespace wb::cli
