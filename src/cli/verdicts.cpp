#include "src/cli/verdicts.h"

#include <cstdio>

#include "src/cli/spec.h"
#include "src/support/check.h"
#include "src/wb/faults.h"

namespace wb::cli {
namespace {

/// The zoo: one small instance per protocol runner, sized so the fault-free
/// and crash/corrupt sweeps stay exhaustive within kVerdictCellBudget — plus
/// one deliberately oversized instance (build-forest on 9 nodes, 9! = 362880
/// schedules) that exercises the statistical fallback, and one deliberately
/// broken
/// protocol (broken-first plants a first-writer "prediction" the adversary
/// falsifies) so the matrix pins nonzero failure tallies too.
struct ZooEntry {
  const char* protocol;
  const char* graph;
};

constexpr ZooEntry kZoo[] = {
    {"build-forest", "path:4"},
    {"build-degenerate:2", "cycle:4"},
    {"build-full", "path:3"},
    {"mis:1", "path:4"},
    {"two-cliques", "twocliques:2"},
    {"rand-two-cliques:11", "twocliques:2"},
    {"eob-bfs", "ceob:4:1/2:2"},
    {"bipartite-bfs", "cycle:4"},
    {"sync-bfs", "path:4"},
    {"build-forest", "path:9"},
    {"subgraph:2", "gnp:4:1/2:1"},
    {"triangle-oracle", "complete:3"},
    {"pair-chase", "complete:4"},
    {"spanning-forest", "path:4"},
    {"square-oracle", "cycle:4"},
    {"diameter-oracle:2", "star:4"},
    {"connectivity-oracle", "twocliques:2"},
    {"krz-triangle:1/2:2", "complete:3"},
    {"broken-first:1", "path:3"},
};

/// The failure-model columns. crash:1 sweeps every <=1-crash world;
/// corrupt flips/truncates posted messages with p=1/8; adaptive samples
/// 256 seeded trials of the randomized schedule+crash policy.
const FaultSpec kColumns[] = {
    FaultSpec::None(),
    FaultSpec::Crash(1),
    FaultSpec::Corrupt(1, 8, 1),
    FaultSpec::Adaptive(7, 256),
};

std::string format_fixed4(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.4f", value);
  return buffer;
}

VerdictCell cell_from_report(const std::string& protocol_spec,
                             const std::string& graph_spec,
                             const FaultSpec& faults, const RunReport& report) {
  VerdictCell cell;
  cell.protocol_spec = protocol_spec;
  cell.graph_spec = graph_spec;
  cell.faults = faults;
  cell.statistical = report.statistical;
  // The fault-free sweep is the one-world special case of the fault sweep.
  cell.worlds = report.fault_worlds > 0 ? report.fault_worlds : 1;
  cell.executions = report.executions;
  cell.engine_failures = report.engine_failures;
  cell.wrong_outputs = report.wrong_outputs;
  if (report.statistical) {
    cell.verdict_trials = report.executions;
    cell.verdict_failures = report.engine_failures + report.wrong_outputs;
  }
  return cell;
}

}  // namespace

VerdictCell run_verdict_cell(const std::string& protocol_spec,
                             const std::string& graph_spec,
                             const FaultSpec& faults, std::size_t threads) {
  const Graph g = graph_from_spec(graph_spec);
  ExhaustiveRunOptions opts;
  opts.threads = threads;
  opts.max_executions = kVerdictCellBudget;
  opts.faults = faults;
  try {
    return cell_from_report(protocol_spec, graph_spec, faults,
                            run_protocol_spec_exhaustive(protocol_spec, g,
                                                         opts));
  } catch (const BudgetExceededError&) {
    // The exhaustive space doesn't fit the budget: sample the same failure
    // model instead and report a statistical verdict.
    opts.statistical_trials = kFallbackTrials;
    return cell_from_report(protocol_spec, graph_spec, faults,
                            run_protocol_spec_exhaustive(protocol_spec, g,
                                                         opts));
  }
}

std::string format_verdict_cell(const VerdictCell& cell) {
  std::string line = "cell " + cell.protocol_spec + " " + cell.graph_spec +
                     " " + fault_spec_to_string(cell.faults);
  if (cell.statistical) {
    const VerdictAccumulator verdict(cell.verdict_trials,
                                     cell.verdict_failures);
    const WilsonInterval ci = verdict.wilson();
    line += " mode=statistical trials=" + std::to_string(verdict.trials()) +
            " failures=" + std::to_string(verdict.failures()) +
            " rate=" + format_fixed4(verdict.failure_rate()) +
            " ci=" + format_fixed4(ci.lo) + ".." + format_fixed4(ci.hi);
  } else {
    line += " mode=exhaustive worlds=" + std::to_string(cell.worlds) +
            " executions=" + std::to_string(cell.executions) +
            " failures=" + std::to_string(cell.engine_failures) +
            " wrong=" + std::to_string(cell.wrong_outputs);
  }
  return line + "\n";
}

std::string generate_verdict_matrix(const std::string& filter,
                                    std::size_t threads) {
  std::string out = "wb-verdicts v1\n";
  std::size_t rows = 0;
  for (const ZooEntry& entry : kZoo) {
    if (!filter.empty() &&
        std::string(entry.protocol).find(filter) == std::string::npos) {
      continue;
    }
    ++rows;
    for (const FaultSpec& faults : kColumns) {
      out += format_verdict_cell(
          run_verdict_cell(entry.protocol, entry.graph, faults, threads));
    }
  }
  WB_REQUIRE_MSG(rows > 0, "no zoo protocol matches filter '" << filter
                                                              << "'");
  out += "end\n";
  return out;
}

}  // namespace wb::cli
