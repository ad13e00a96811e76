// Untraced end-to-end commands. Each times calls into the simulator's public
// entry points on the workload's seeded inputs and reports every sample with
// the totals of its calls, which perfbench/run.py verifies against pins.
//
//   wbperf loop --seconds-ms=S --min-single=N ...
//                                   every timed command, set-up included,
//                                   interleaved call by call (one untimed
//                                   warmup cycle first) until S ms have
//                                   passed and N single runs are timed
//   wbperf COMMAND ...              one call of one command, timed cold,
//                                   with the peak RSS it reached
//
// Arguments: --seed=S --threads=T --budget=N --memo-budget=N, inputs as
// PROTOCOL@GRAPH: --sweep --memo --battery (comma list) --single; set-up
// also --load=GRAPH --work=DIR; verdicts --golden=PATH.
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>

#include "src/cli/runners.h"
#include "src/cli/spec.h"
#include "src/cli/verdicts.h"
#include "src/fleet/transport.h"
#include "src/graph/io.h"
#include "src/wb/batch.h"
#include "wbperf.h"

namespace wbperf {
namespace {

/// Per command and loop cycle, each command's calls fill a slot this long
/// (single runs twice this), so cheap commands collect more samples.
constexpr double kSlotSeconds = 0.15;

std::string totals_json(const Totals& totals) {
  Json j;
  for (const auto& [key, value] : totals) j.count(key, value);
  return j.str();
}

Totals exhaustive(const Instance& in, const wb::Graph& g, std::size_t threads,
                  std::uint64_t budget, bool memoize, bool hll) {
  wb::cli::ExhaustiveRunOptions opts;
  opts.threads = threads;
  opts.max_executions = budget;
  opts.memoize = memoize;
  if (hll) opts.distinct = wb::DistinctConfig::Hll(14);
  return sweep_totals(
      wb::cli::run_protocol_spec_exhaustive(in.protocol, g, opts));
}

Totals fleet(const Instance& in, const wb::Graph& g, std::size_t workers,
             std::uint64_t budget) {
  const wb::fleet::PlanInputs plan =
      fleet_plan(plan_shards(in, g, workers, budget));
  wb::fleet::FleetOptions options;
  options.workers = workers;
  const auto outcomes = wb::fleet::run_fleet({plan}, options, self_launcher());
  WB_REQUIRE_MSG(outcomes.size() == 1 && outcomes[0].completed,
                 "fleet plan failed: " << outcomes.at(0).error);
  WB_REQUIRE_MSG(!outcomes[0].budget_exceeded, "fleet plan exceeded budget");
  const wb::shard::MergedResult& merged = outcomes[0].merged;
  return {{"executions", merged.executions},
          {"distinct", merged.distinct_boards},
          {"failures", merged.engine_failures + merged.wrong_outputs},
          {"reissues", outcomes[0].reissues}};
}

/// Spawn `workers` fleet workers, wait for each one's hello, shut them down
/// and reap them: the fleet's start-up cost without any sweep.
std::uint64_t spawn_fleet(std::size_t workers) {
  const wb::fleet::WorkerLauncher launch = self_launcher();
  std::vector<wb::fleet::WorkerEndpoint> endpoints;
  for (std::size_t i = 0; i < workers; ++i) endpoints.push_back(launch(i));
  std::uint64_t hellos = 0;
  for (const wb::fleet::WorkerEndpoint& w : endpoints) {
    wb::fleet::FrameDecoder decoder;
    const auto frame = wb::fleet::read_frame(w.from_worker_fd, decoder);
    if (frame && frame->type == wb::fleet::FrameType::kHello) ++hellos;
    wb::fleet::write_frame(w.to_worker_fd,
                           {wb::fleet::FrameType::kShutdown, {}});
    ::close(w.to_worker_fd);
    ::close(w.from_worker_fd);
  }
  for (const wb::fleet::WorkerEndpoint& w : endpoints) {
    int status = 0;
    ::waitpid(w.pid, &status, 0);
  }
  return hellos;
}

/// Everything up to the first sweep or run: the seeded input graphs, the
/// large graph's generate → write → stream-back round trip, the protocols
/// and their reference checks, the shard plan, and the fleet's spawn.
Totals setup(const Args& args) {
  const Inputs in(args);
  Totals totals;
  const wb::Graph big = seeded_graph(args.str("load"), in.seed);
  const std::filesystem::path file =
      std::filesystem::path(args.str("work")) /
      ("load-" + std::to_string(::getpid()) + ".el");
  {
    std::ofstream out(file, std::ios::binary);
    wb::write_edge_list(big, out);
    WB_REQUIRE_MSG(out.good(), "cannot write " << file);
  }
  std::ifstream stream(file, std::ios::binary);
  const wb::Graph loaded = wb::read_edge_list(stream);
  stream.close();
  std::filesystem::remove(file);
  totals["load_nodes"] = loaded.node_count();
  totals["load_edges"] = loaded.edge_count();
  totals["load_roundtrip"] = loaded == big ? 1 : 0;

  const auto one = [](const auto&) { return 1; };
  std::uint64_t cases = with_case(in.sweep.protocol, in.sweep_graph, one) +
                        with_case(in.memo.protocol, in.memo_graph, one) +
                        with_case(in.single.protocol, in.single_graph, one);
  for (std::size_t i = 0; i < in.battery.size(); ++i) {
    cases += with_case(in.battery[i].protocol, in.battery_graphs[i], one);
  }
  totals["cases"] = cases;
  const wb::fleet::PlanInputs plan = fleet_plan(
      plan_shards(in.sweep, in.sweep_graph, in.threads, in.budget));
  totals["shards"] = plan.spec_documents.size();
  totals["hellos"] = spawn_fleet(in.threads);
  return totals;
}

Totals battery(const std::vector<Instance>& instances,
               const std::vector<wb::Graph>& graphs, std::uint64_t seed,
               std::size_t threads) {
  Totals totals{{"reports", 0}, {"correct", 0}};
  for (std::size_t i = 0; i < instances.size(); ++i) {
    wb::BatchOptions opts;
    opts.threads = threads;
    opts.seed = seed;
    for (const wb::cli::RunReport& report : wb::cli::run_protocol_spec_battery(
             instances[i].protocol, graphs[i], seed, opts)) {
      ++totals["reports"];
      if (report.correct && report.status == "success") ++totals["correct"];
    }
  }
  return totals;
}

/// One single run under a seeded random adversary: run i uses adversary seed
/// trial_seed(seed, i).
bool single_run(const Inputs& in, std::size_t i) {
  wb::RandomAdversary adversary(wb::trial_seed(in.seed, i));
  const wb::cli::RunReport report =
      wb::cli::run_protocol_spec(in.single.protocol, in.single_graph, adversary);
  return report.correct && report.status == "success";
}

/// The call a timed command makes. `single` is one single run per call.
std::function<Totals()> command_call(const std::string& command,
                                     const Inputs& in, const Args& args) {
  if (command == "setup") {
    return [&args] { return setup(args); };
  }
  if (command == "enumerate_1") {
    return [&in] {
      return exhaustive(in.sweep, in.sweep_graph, 1, in.budget, false, false);
    };
  }
  if (command == "enumerate_par") {
    return [&in] {
      return exhaustive(in.sweep, in.sweep_graph, in.threads, in.budget, false,
                        false);
    };
  }
  if (command == "enumerate_hll") {
    return [&in] {
      return exhaustive(in.sweep, in.sweep_graph, in.threads, in.budget, false,
                        true);
    };
  }
  if (command == "memoize") {
    return [&in] {
      return exhaustive(in.memo, in.memo_graph, 1, in.memo_budget, true, false);
    };
  }
  if (command == "symbolic") {
    return [&in] {
      return sweep_totals(
          wb::cli::run_protocol_spec_symbolic(in.sweep.protocol,
                                              in.sweep_graph));
    };
  }
  if (command == "fleet") {
    return [&in] {
      return fleet(in.sweep, in.sweep_graph, in.threads, in.budget);
    };
  }
  if (command == "battery") {
    return [&in] {
      return battery(in.battery, in.battery_graphs, in.seed, in.threads);
    };
  }
  if (command == "verdicts") {
    return [&in, golden = read_file(args.str("golden"))] {
      const std::string matrix =
          wb::cli::generate_verdict_matrix("", in.threads);
      return Totals{{"match", matrix == golden ? 1u : 0u},
                    {"bytes", matrix.size()}};
    };
  }
  if (command == "single") {
    return [&in, next = std::size_t{0}]() mutable {
      const bool ok = single_run(in, next++);
      return Totals{{"runs", 1}, {"correct", ok ? 1u : 0u}};
    };
  }
  WB_REQUIRE_MSG(false, "unknown command '" << command << "'");
  return {};
}

/// Samples and totals of one timed command.
struct Timed {
  Timed(std::string name, std::function<Totals()> fn)
      : command(std::move(name)), call(std::move(fn)) {}

  std::string command;
  std::function<Totals()> call;
  std::vector<double> samples;
  std::optional<Totals> first;
  bool consistent = true;

  void run(bool record) {
    const Clock::time_point start = Clock::now();
    const Totals totals = call();
    const double seconds = seconds_since(start);
    if (record) samples.push_back(seconds);
    if (!first) first = totals;
    // Single runs differ in schedule, not in verdict: compare the verdict.
    consistent = consistent && (command == "single"
                                    ? totals.at("correct") == 1
                                    : totals == *first);
  }

  void write(Json& j) const {
    Totals totals = first.value_or(Totals{});
    if (command == "single") {
      totals["runs"] = samples.size();
      totals["correct"] = consistent ? samples.size() : 0;
    }
    j.text("command", command)
        .nums("samples", samples)
        .flag("consistent", consistent)
        .raw("totals", totals_json(totals));
  }
};

/// The closed loop: one client issuing every timed command back to back, in
/// a fixed order, so every command is sampled evenly over the whole run.
/// Each cycle gives every command a slot of kSlotSeconds, filled with as many
/// calls as fit (at least one). Set-up is one of the commands, so it is timed
/// warm and interleaved like the rest. The first cycle warms up and is not
/// timed; cycles continue until --seconds-ms has passed and at least
/// --min-single single runs are timed.
std::string loop(const Args& args) {
  const Inputs in(args);
  std::vector<Timed> timed;
  for (const char* command :
       {"setup", "enumerate_1", "enumerate_par", "enumerate_hll", "memoize",
        "symbolic", "fleet", "battery", "single", "verdicts"}) {
    timed.emplace_back(command, command_call(command, in, args));
  }
  const double seconds = static_cast<double>(args.u64("seconds-ms")) / 1e3;
  const std::size_t min_single = args.u64("min-single");
  const Timed& single = *std::find_if(
      timed.begin(), timed.end(),
      [](const Timed& t) { return t.command == "single"; });
  // Single-threaded commands run pinned, each slot on the next allowed CPU
  // in turn: on shared hosts one CPU can run ~1.6x slower than another for
  // seconds at a time, and rotating samples every CPU evenly instead of
  // whichever one the scheduler kept this process on.
  cpu_set_t all;
  WB_REQUIRE_MSG(::sched_getaffinity(0, sizeof all, &all) == 0,
                 "cannot read the CPU affinity");
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &all)) cpus.push_back(cpu);
  }
  const auto serial = [](const std::string& command) {
    return command == "enumerate_1" || command == "memoize" ||
           command == "symbolic" || command == "single";
  };
  std::size_t cycles = 0;
  const Clock::time_point start = Clock::now();
  while (cycles < 2 || seconds_since(start) < seconds ||
         single.samples.size() < min_single) {
    for (std::size_t k = 0; k < timed.size(); ++k) {
      Timed& t = timed[k];
      if (serial(t.command)) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[(cycles + k) % cpus.size()], &one);
        WB_REQUIRE_MSG(::sched_setaffinity(0, sizeof one, &one) == 0,
                       "cannot pin to a CPU");
      }
      const double budget =
          t.command == "single" ? 2 * kSlotSeconds : kSlotSeconds;
      const Clock::time_point slot_start = Clock::now();
      do {
        t.run(cycles > 0);
      } while (seconds_since(slot_start) < budget);
      WB_REQUIRE_MSG(::sched_setaffinity(0, sizeof all, &all) == 0,
                     "cannot restore the CPU affinity");
    }
    ++cycles;
  }
  std::string results = "{";
  for (std::size_t i = 0; i < timed.size(); ++i) {
    if (i > 0) results += ',';
    Json result;
    timed[i].write(result);
    results += json_quote(timed[i].command);
    results += ':';
    results += result.str();
  }
  results += '}';
  Json j;
  j.text("command", "loop").count("cycles", cycles).raw("results", results);
  return j.str();
}

}  // namespace

std::string run_command(const Args& args) {
  const std::string& command = args.command();
  if (command == "loop") return loop(args);
  const Inputs in(args);
  Timed once{command, command_call(command, in, args)};
  once.run(true);
  Json j;
  once.write(j);
  j.num("peak_rss_mb", peak_rss_mb());
  return j.str();
}

}  // namespace wbperf
