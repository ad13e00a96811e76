// Shared plumbing of the wbperf measuring binary: argument parsing, the
// seeded workload inputs, a small JSON writer, the typed protocol cases the
// traced run drives directly, and the fleet worker launcher.
//
// One wbperf process runs one command (see commands.cpp and traced.cpp) and
// prints one JSON document on stdout; perfbench/run.py spawns the processes
// (one per peak-RSS measurement, the interleaved loops, the traced runs) and
// verifies what they print.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/cli/runners.h"
#include "src/fleet/controller.h"
#include "src/graph/algorithms.h"
#include "src/graph/graph.h"
#include "src/protocols/anon_frontier.h"
#include "src/protocols/bfs_sync.h"
#include "src/protocols/build_degenerate.h"
#include "src/protocols/outputs.h"
#include "src/protocols/two_cliques.h"
#include "src/support/check.h"

namespace wbperf {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- arguments ----------------------------------------------------------------

/// `wbperf COMMAND --key=value ...`. Every value is a string; the typed
/// getters throw wb::DataError on a missing or malformed value.
class Args {
 public:
  Args(int argc, char** argv);
  [[nodiscard]] const std::string& command() const { return command_; }
  [[nodiscard]] std::string str(const std::string& key) const;
  [[nodiscard]] std::uint64_t u64(const std::string& key) const;

 private:
  std::string command_;
  std::map<std::string, std::string> values_;
};

/// A workload input: "PROTOCOL@GRAPH" (protocol spec @ graph spec).
struct Instance {
  std::string protocol;
  std::string graph_spec;
};

[[nodiscard]] Instance parse_instance(const std::string& text);
/// Comma-separated instances.
[[nodiscard]] std::vector<Instance> parse_instances(const std::string& text);

/// The workload's seeded input graph: `spec` built by the CLI graph grammar,
/// then relabelled by a permutation drawn from (seed, spec). The library sees
/// only the relabelled graph; the same (seed, spec) always gives the same one.
[[nodiscard]] wb::Graph seeded_graph(const std::string& spec,
                                     std::uint64_t seed);

/// Peak resident set in MB of this process since its exec, or of the
/// largest child it reaped (the fleet's workers), whichever is larger. The
/// process's own figure is VmHWM, not getrusage's ru_maxrss: the latter also
/// keeps the peak of the process image exec replaced, here the Python
/// runner that spawned wbperf.
[[nodiscard]] double peak_rss_mb();

/// The whole file at `path`; throws wb::DataError when it cannot be read.
[[nodiscard]] std::string read_file(const std::string& path);

/// A run's inputs, built once from its arguments: the seeded graphs of every
/// instance (--sweep, --memo, --single, the --battery list) and the limits.
struct Inputs {
  explicit Inputs(const Args& args);

  std::uint64_t seed;
  std::size_t threads;
  std::uint64_t budget;
  std::uint64_t memo_budget;
  Instance sweep;
  Instance memo;
  Instance single;
  std::vector<Instance> battery;
  wb::Graph sweep_graph;
  wb::Graph memo_graph;
  wb::Graph single_graph;
  std::vector<wb::Graph> battery_graphs;
};

// --- sweeps and shards --------------------------------------------------------

/// Named exact totals of one call; two calls of one command must agree.
using Totals = std::map<std::string, std::uint64_t>;

/// Totals of a sweep report, read from "schedules  N executions, [~]D
/// distinct final boards" — the line every sweep backend prints identically.
[[nodiscard]] Totals sweep_totals(const wb::cli::RunReport& report);

/// The sweep of `in` on `g` planned into `shards` self-describing specs.
[[nodiscard]] std::vector<wb::shard::ShardSpec> plan_shards(
    const Instance& in, const wb::Graph& g, std::size_t shards,
    std::uint64_t budget);

/// The fleet's input for those specs: manifest and serialized documents.
[[nodiscard]] wb::fleet::PlanInputs fleet_plan(
    const std::vector<wb::shard::ShardSpec>& specs);

// --- JSON ---------------------------------------------------------------------

/// Minimal JSON object writer: keys in insertion order, doubles with all
/// their digits.
class Json {
 public:
  Json& num(const std::string& key, double value);
  Json& count(const std::string& key, std::uint64_t value);
  Json& flag(const std::string& key, bool value);
  Json& text(const std::string& key, const std::string& value);
  Json& nums(const std::string& key, const std::vector<double>& values);
  Json& raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string str() const;

 private:
  void key(const std::string& key);
  std::ostringstream body_;
  bool first_ = true;
};

[[nodiscard]] std::string json_quote(const std::string& text);

// --- typed protocol cases -----------------------------------------------------

/// A protocol object together with the reference check the CLI runner
/// applies to its output on one graph (mirrors src/cli/runners.cpp).
template <typename Out>
struct Case {
  const wb::ProtocolWithOutput<Out>& protocol;
  std::function<bool(const Out&)> check;
};

/// Call fn(Case<Out>) for the protocols the workloads use. Throws
/// wb::DataError for any other spec.
template <typename Fn>
auto with_case(const std::string& spec, const wb::Graph& g, Fn&& fn) {
  if (spec == "two-cliques") {
    const wb::TwoCliquesProtocol p;
    const bool truth = wb::is_two_cliques(g);
    return fn(Case<wb::TwoCliquesOutput>{
        p, [truth](const wb::TwoCliquesOutput& out) {
          return out.yes == truth;
        }});
  }
  if (spec == "anon-degree") {
    const wb::AnonDegreeProtocol p;
    wb::AnonDegreeOutput expect;
    for (wb::NodeId v = 1; v <= g.node_count(); ++v) {
      expect.push_back(g.degree(v));
    }
    std::sort(expect.begin(), expect.end());
    return fn(Case<wb::AnonDegreeOutput>{
        p, [expect](const wb::AnonDegreeOutput& out) { return out == expect; }});
  }
  if (spec == "sync-bfs") {
    const wb::SyncBfsProtocol p;
    const wb::BfsForest ref = wb::bfs_forest(g);
    const bool eob = wb::is_even_odd_bipartite(g);
    return fn(Case<wb::BfsProtocolOutput>{
        p, [&g, ref, eob](const wb::BfsProtocolOutput& out) {
          if (!out.valid) return !eob;
          return out.layer == ref.layer &&
                 wb::is_valid_bfs_forest(g, out.layer, out.parent);
        }});
  }
  if (spec.rfind("build-degenerate:", 0) == 0) {
    const wb::BuildDegenerateProtocol p(std::stoi(spec.substr(17)));
    return fn(Case<wb::BuildOutput>{p, [&g](const wb::BuildOutput& out) {
                                      return !out.has_value() || *out == g;
                                    }});
  }
  WB_REQUIRE_MSG(false, "wbperf has no typed case for protocol '" << spec
                                                                  << "'");
  return fn(Case<wb::TwoCliquesOutput>{wb::TwoCliquesProtocol{}, {}});
}

// --- fleet --------------------------------------------------------------------

/// Launch `wbperf worker` children of this binary over pipe pairs (the
/// shape of wbsim's own launcher): one persistent shard worker each, serving
/// wbframe specs on stdin/stdout with one sweep thread, so T workers use the
/// benchmark's T threads.
[[nodiscard]] wb::fleet::WorkerLauncher self_launcher();

/// The `wbperf worker` entry point.
int run_worker_process();

// --- commands -----------------------------------------------------------------

/// Untraced end-to-end commands (commands.cpp); each returns the JSON
/// document to print.
[[nodiscard]] std::string run_command(const Args& args);

/// The traced per-layer run (traced.cpp).
[[nodiscard]] std::string run_traced(const Args& args);

}  // namespace wbperf
