// wbsim — run any protocol of the library on any generated graph under any
// adversary, from the command line.
//
// The tool is a command registry (src/cli/command.h): `wbsim help` lists
// every subcommand, `wbsim help <command>` prints its usage, and the
// commandless invocation runs one protocol:
//
//   wbsim <graph-spec> <protocol-spec> [adversary-spec] [--counterexample]
//
//   wbsim kdeg:200:3:20:7 build-degenerate:3 random:5
//   wbsim cgnp:150:1/8:3  sync-bfs          maxdeg
//   wbsim twocliques:16   rand-two-cliques:99
//
// The pseudo-adversaries `battery[:SEED]` (the standard adversary battery,
// parallel), `exhaustive...` (every schedule — the paper's correctness
// quantifier) and `symbolic...` (the same answer from a BDD fixpoint,
// enumerating zero schedules — src/sym/reach.h) accept the unified sweep
// grammar of src/cli/spec.h:
//
//   exhaustive[:THREADS][:memoize][:shards=K][:budget=N]
//            [:distinct=exact|hll[:P]]
//   symbolic   (no options; two-cliques, mis:ROOT and anon-degree only)
//
// `shards=K` runs the sweep as a K-worker *fleet*: the schedule tree is
// planned into K shard specs, K persistent worker processes are spawned, and
// the fleet controller (src/fleet/controller.h) dispatches, retries, and
// merges — the same machinery `wbsim fleet run` applies to on-disk plans.
//
// Sharding subcommands (versioned text artifacts; src/wb/shard.h):
//
//   wbsim shard-plan  <graph> <protocol> <sweep-spec> <out-base>
//   wbsim shard-run   <spec-file> <result-file> [threads]
//   wbsim shard-status <manifest-file> <dir>
//   wbsim shard-merge <result-file>...
//
// Fleet subcommands (length-prefixed frames over pipes or TCP; src/fleet/):
//
//   wbsim fleet run <manifest>... [--workers=K] [--listen=H:P] [...]
//   wbsim fleet worker [--connect=H:P[,...]] [--threads=T] [...]
//
// `--listen` also accepts dial-in workers from other hosts; `--connect`
// turns the worker's stdio frame loop into a TCP session with redial.
//
// Exit codes (src/cli/command.h): 0 PASS, 1 FAIL, 2 bad input, 3 wbsim bug.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/cli/command.h"
#include "src/graph/algorithms.h"
#include "src/graph/io.h"
#include "src/cli/runners.h"
#include "src/cli/spec.h"
#include "src/cli/verdicts.h"
#include "src/fleet/controller.h"
#include "src/fleet/socket.h"
#include "src/fleet/worker.h"
#include "src/support/check.h"
#include "src/wb/shard.h"

#if WB_FLEET_HAS_PROCESSES
#include <fcntl.h>
#include <unistd.h>
#endif

namespace {

using wb::cli::kExitFail;
using wb::cli::kExitPass;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  WB_REQUIRE_MSG(in.good(), "cannot open '" << path << "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  WB_REQUIRE_MSG(!in.bad(), "cannot read '" << path << "'");
  return buffer.str();
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  WB_REQUIRE_MSG(out.good(), "cannot create '" << path << "'");
  out << contents;
  out.flush();
  WB_REQUIRE_MSG(out.good(), "cannot write '" << path << "'");
}

std::uint64_t parse_u64_arg(const std::string& field, const std::string& what) {
  return wb::cli::parse_u64(field, what);
}

/// Pop every `--key=value` option named in `keys` out of `args` (in place)
/// and return the values by key; unknown `--` arguments are rejected.
std::vector<std::string> take_options(
    std::vector<std::string>& args, const std::vector<std::string>& keys,
    std::vector<std::string>* values) {
  values->assign(keys.size(), "");
  std::vector<std::string> rest;
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) != 0) {
      rest.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    bool known = false;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (key == keys[i]) {
        WB_REQUIRE_MSG(eq != std::string::npos, key << " needs =VALUE");
        (*values)[i] = arg.substr(eq + 1);
        known = true;
        break;
      }
    }
    WB_REQUIRE_MSG(known, "unknown option '" << arg << "'");
  }
  args = rest;
  return *values;
}

int print_report(const wb::cli::RunReport& report) {
  std::printf("%s", report.summary.c_str());
  std::printf("result     %s\n", report.correct ? "PASS" : "FAIL");
  return report.correct ? kExitPass : kExitFail;
}

int print_merged(const wb::shard::MergedResult& merged) {
  std::printf("shards     %u results merged\n", merged.shard_count);
  if (merged.faults.kind == wb::FaultKind::kAdaptive) {
    // Statistical sweeps merge verdict tallies, not schedule counts — print
    // the same `schedules`/`verdict` lines the in-process statistical report
    // uses so CI can diff a sharded adaptive sweep against the serial one.
    const wb::VerdictAccumulator verdict(merged.verdict_trials,
                                         merged.verdict_failures);
    std::printf("schedules  %llu sampled trials (statistical sweep)\n",
                static_cast<unsigned long long>(verdict.trials()));
    std::printf("verdict    %s\n", wb::verdict_summary(verdict).c_str());
  } else {
    std::printf("%s",
                wb::cli::exhaustive_summary_lines(
                    merged.executions, merged.engine_failures,
                    merged.wrong_outputs, merged.distinct_boards,
                    merged.distinct)
                    .c_str());
  }
  const bool correct =
      merged.engine_failures == 0 && merged.wrong_outputs == 0;
  std::printf("result     %s\n", correct ? "PASS" : "FAIL");
  return correct ? kExitPass : kExitFail;
}

int run_battery(const wb::Graph& g, const std::string& protocol,
                const std::string& spec) {
  const auto parts = wb::cli::split_spec(spec);
  WB_REQUIRE_MSG(parts.size() <= 2, "expected battery[:SEED]");
  const std::uint64_t seed =
      parts.size() == 2 ? parse_u64_arg(parts[1], "seed") : 1;
  const auto reports = wb::cli::run_protocol_spec_battery(protocol, g, seed);
  std::size_t correct = 0;
  for (const auto& report : reports) {
    std::printf("%s", report.summary.c_str());
    std::printf("result     %s\n\n", report.correct ? "PASS" : "FAIL");
    if (report.correct) ++correct;
  }
  std::printf("battery    %zu/%zu adversaries ok\n", correct, reports.size());
  return correct == reports.size() ? kExitPass : kExitFail;
}

// --- Fleet plumbing ----------------------------------------------------------

#if WB_FLEET_HAS_PROCESSES

std::string g_argv0;  // for self_executable on non-procfs systems

std::string self_executable() {
  char buffer[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (len > 0) return std::string(buffer, static_cast<std::size_t>(len));
  return g_argv0;  // fine for relative invocations
}

struct FleetCliOptions {
  wb::fleet::FleetOptions fleet;
  std::size_t worker_threads = 1;
  std::chrono::milliseconds heartbeat_interval{200};
  std::chrono::milliseconds stall_first{0};
  /// Non-empty: also accept dial-in workers on this HOST:PORT (port 0 picks
  /// an ephemeral port, printed as `fleet listening on H:P`).
  std::string listen;
};

/// Parse the shared fleet flags out of `args` (consuming them). `defaults`
/// seeds the values so each command keeps its own worker-count default.
FleetCliOptions take_fleet_options(std::vector<std::string>& args,
                                   FleetCliOptions defaults) {
  std::vector<std::string> values;
  take_options(args,
               {"--workers", "--threads", "--heartbeat-timeout-ms",
                "--shard-deadline-ms", "--max-attempts", "--stall-first-ms",
                "--listen", "--drain-grace-ms", "--heartbeat-ms"},
               &values);
  FleetCliOptions out = defaults;
  out.listen = values[6];
  if (!values[0].empty()) {
    out.fleet.workers = parse_u64_arg(values[0], "--workers");
    WB_REQUIRE_MSG(out.fleet.workers >= 1 || !out.listen.empty(),
                   "--workers=0 only makes sense with --listen (an "
                   "all-dial-in fleet)");
  }
  if (!values[1].empty()) {
    out.worker_threads = parse_u64_arg(values[1], "--threads");
  }
  if (!values[2].empty()) {
    out.fleet.heartbeat_timeout =
        std::chrono::milliseconds(parse_u64_arg(values[2], "timeout"));
  }
  if (!values[3].empty()) {
    out.fleet.shard_deadline =
        std::chrono::milliseconds(parse_u64_arg(values[3], "deadline"));
  }
  if (!values[4].empty()) {
    out.fleet.max_attempts =
        static_cast<int>(parse_u64_arg(values[4], "--max-attempts"));
  }
  if (!values[5].empty()) {
    out.stall_first =
        std::chrono::milliseconds(parse_u64_arg(values[5], "stall"));
  }
  if (!values[7].empty()) {
    out.fleet.drain_grace =
        std::chrono::milliseconds(parse_u64_arg(values[7], "grace"));
  }
  if (!values[8].empty()) {
    out.heartbeat_interval =
        std::chrono::milliseconds(parse_u64_arg(values[8], "heartbeat"));
  }
  // The same misconfiguration the controller refuses at a remote handshake,
  // caught before a single local worker is spawned: an interval the timeout
  // cannot tolerate would suspect every sweep.
  WB_REQUIRE_MSG(out.heartbeat_interval.count() == 0 ||
                     out.heartbeat_interval < out.fleet.heartbeat_timeout,
                 "--heartbeat-ms="
                     << out.heartbeat_interval.count()
                     << " is not under --heartbeat-timeout-ms="
                     << out.fleet.heartbeat_timeout.count()
                     << " — every sweep would be suspected");
  return out;
}

/// Launch `wbsim fleet worker` children of this very binary, stdio wired to
/// the controller's pipe pairs.
wb::fleet::WorkerLauncher make_self_launcher(const FleetCliOptions& options) {
  const std::string exe = self_executable();
  const std::string threads = std::to_string(options.worker_threads);
  const std::string stall =
      std::to_string(options.stall_first.count());
  const std::string heartbeat =
      std::to_string(options.heartbeat_interval.count());
  return [exe, threads, stall, heartbeat](std::size_t index) {
    int to_child[2] = {-1, -1};
    int from_child[2] = {-1, -1};
    WB_REQUIRE_MSG(::pipe(to_child) == 0 && ::pipe(from_child) == 0,
                   "cannot create pipes for worker " << index);
    // CLOEXEC on all four ends: a later-spawned worker must not inherit a
    // sibling's pipe ends, or a SIGKILLed sibling never yields EOF/POLLHUP
    // (the inherited write end keeps the pipe open) and crash detection
    // degrades to the heartbeat-timeout path. The child's own two ends
    // survive exec via dup2 below, which clears the flag on the duplicate.
    for (const int fd : {to_child[0], to_child[1], from_child[0],
                         from_child[1]}) {
      WB_REQUIRE_MSG(::fcntl(fd, F_SETFD, FD_CLOEXEC) == 0,
                     "cannot set CLOEXEC for worker " << index);
    }
    const pid_t pid = ::fork();
    WB_REQUIRE_MSG(pid >= 0, "fork failed for worker " << index);
    if (pid == 0) {
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      const std::string threads_arg = "--threads=" + threads;
      const std::string stall_arg = "--stall-first-ms=" + stall;
      const std::string heartbeat_arg = "--heartbeat-ms=" + heartbeat;
      const char* args[] = {exe.c_str(),          "fleet",
                            "worker",             threads_arg.c_str(),
                            stall_arg.c_str(),    heartbeat_arg.c_str(),
                            nullptr};
      ::execv(exe.c_str(), const_cast<char* const*>(args));
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    return wb::fleet::WorkerEndpoint{pid, to_child[1], from_child[0]};
  };
}

/// Progress lines, flushed eagerly so an observer (CI's kill-a-worker smoke
/// included) sees pids and dispatches while the sweep is still running.
wb::fleet::FleetObserver make_printing_observer() {
  wb::fleet::FleetObserver observer;
  observer.on_spawn = [](std::size_t worker, pid_t pid) {
    std::printf("fleet      worker %zu spawned (pid %ld)\n", worker,
                static_cast<long>(pid));
    std::fflush(stdout);
  };
  observer.on_dispatch = [](std::size_t worker, const std::string& plan,
                            std::uint32_t shard, int attempt) {
    std::printf("fleet      %s shard %u -> worker %zu (attempt %d)\n",
                plan.c_str(), shard, worker, attempt);
    std::fflush(stdout);
  };
  observer.on_worker_lost = [](std::size_t worker, const std::string& why) {
    std::printf("fleet      worker %zu lost: %s\n", worker, why.c_str());
    std::fflush(stdout);
  };
  observer.on_requeue = [](const std::string& plan, std::uint32_t shard,
                           const std::string& why) {
    std::printf("fleet      requeue %s shard %u: %s\n", plan.c_str(), shard,
                why.c_str());
    std::fflush(stdout);
  };
  observer.on_discard = [](std::size_t worker, const std::string& why) {
    std::printf("fleet      discarded a result from worker %zu: %s\n", worker,
                why.c_str());
    std::fflush(stdout);
  };
  observer.on_accept = [](std::size_t worker, const std::string& peer) {
    std::printf("fleet      worker %zu connection from %s\n", worker,
                peer.c_str());
    std::fflush(stdout);
  };
  observer.on_admit = [](std::size_t worker, const wb::fleet::HelloInfo& hello,
                         bool reconnected) {
    std::printf("fleet      worker %zu %s: %s (%zu threads)\n", worker,
                reconnected ? "re-admitted" : "admitted",
                hello.identity().c_str(), hello.threads);
    std::fflush(stdout);
  };
  observer.on_host_summary = [](const std::string& host, std::size_t admitted,
                                std::size_t lost, std::size_t results) {
    std::printf("fleet      host %s: %zu admitted, %zu lost, %zu results\n",
                host.c_str(), admitted, lost, results);
    std::fflush(stdout);
  };
  return observer;
}

/// Render the fleet's outcomes in the shard-merge report shape (the
/// schedules/verdict lines stay byte-diffable against `exhaustive:1`).
int print_outcomes(const std::vector<wb::fleet::PlanOutcome>& outcomes) {
  int exit_code = kExitPass;
  for (const wb::fleet::PlanOutcome& outcome : outcomes) {
    if (outcomes.size() > 1) std::printf("plan       %s\n", outcome.name.c_str());
    if (outcome.reissues > 0) {
      std::printf("fleet      %zu shard dispatches were re-issues\n",
                  outcome.reissues);
    }
    if (!outcome.completed) {
      // A sweep that could not finish (worker attrition, attempts exhausted)
      // is a runtime FAIL, not a malformed-input usage error.
      std::printf("error: plan %s failed: %s\n", outcome.name.c_str(),
                  outcome.error.c_str());
      exit_code = std::max(exit_code, kExitFail);
      continue;
    }
    if (outcome.budget_exceeded) {
      // The serial oracle throws BudgetExceededError here; keep the same
      // observable exit behavior (a usage error, code 2).
      std::printf("error: plan %s exceeded its execution budget\n",
                  outcome.name.c_str());
      exit_code = std::max(exit_code, wb::cli::kExitUsage);
      continue;
    }
    exit_code = std::max(exit_code, print_merged(outcome.merged));
  }
  return exit_code;
}

/// The `exhaustive:shards=K` path: plan in memory, serve the plan over a
/// K-worker fleet of this binary, merge. The bytes on the pipes are exactly
/// the shard-plan/shard-run artifacts a multi-host fleet would move.
int run_fleet_exhaustive(const wb::Graph& g, const std::string& protocol,
                         const wb::cli::SweepSpec& sweep) {
  wb::shard::PlanOptions popts;
  popts.max_executions = sweep.max_executions;
  popts.distinct = sweep.distinct;
  popts.faults = sweep.faults;
  const auto specs =
      wb::cli::plan_protocol_spec_shards(protocol, g, sweep.shards, popts);

  wb::fleet::PlanInputs plan;
  plan.name = "sweep";
  plan.manifest = wb::shard::make_manifest(specs);
  for (const wb::shard::ShardSpec& spec : specs) {
    plan.spec_documents.push_back(wb::shard::serialize(spec));
  }

  FleetCliOptions options;
  options.fleet.workers = sweep.shards;
  // Split the machine between the workers unless a per-worker thread count
  // was requested explicitly.
  options.worker_threads =
      sweep.threads != 0
          ? sweep.threads
          : std::max<std::size_t>(
                1, std::thread::hardware_concurrency() / sweep.shards);
  std::printf("adversary  exhaustive(fleet of %zu workers, %zu threads each)\n",
              options.fleet.workers, options.worker_threads);
  const auto outcomes =
      wb::fleet::run_fleet({plan}, options.fleet, make_self_launcher(options),
                           make_printing_observer());
  return print_outcomes(outcomes);
}

int cmd_fleet_run(std::vector<std::string> args) {
  FleetCliOptions defaults;
  const FleetCliOptions options = take_fleet_options(args, defaults);
  WB_REQUIRE_MSG(!args.empty(),
                 "usage: wbsim fleet run <manifest-file>... [--workers=K] "
                 "[--listen=HOST:PORT]");
  std::vector<wb::fleet::PlanInputs> plans;
  for (const std::string& manifest_path : args) {
    // shard-plan writes <base>.manifest next to <base>.<k>.shard — recover
    // the spec documents from that naming convention.
    wb::fleet::PlanInputs plan;
    plan.manifest = wb::shard::parse_shard_manifest(read_file(manifest_path));
    const std::string suffix = ".manifest";
    WB_REQUIRE_MSG(manifest_path.size() > suffix.size() &&
                       manifest_path.ends_with(suffix),
                   "manifest path must end in .manifest (shard-plan's "
                   "naming), got '"
                       << manifest_path << "'");
    const std::string base =
        manifest_path.substr(0, manifest_path.size() - suffix.size());
    plan.name = std::filesystem::path(base).filename().string();
    for (std::uint32_t k = 0; k < plan.manifest.shard_count; ++k) {
      plan.spec_documents.push_back(
          read_file(base + "." + std::to_string(k) + ".shard"));
    }
    plans.push_back(std::move(plan));
  }
  // --listen opens the door to dial-in workers on other hosts; --workers=0
  // with --listen runs an all-remote sweep (no local forks at all).
  std::optional<wb::fleet::SocketListener> listener;
  if (!options.listen.empty()) {
    listener.emplace(wb::fleet::parse_socket_address(options.listen));
    // The real bound port (HOST:0 asks the kernel to pick), printed eagerly
    // so scripts can parse it and point their workers' --connect at it.
    std::printf("fleet      listening on %s\n",
                wb::fleet::to_string(listener->bound_address()).c_str());
    std::fflush(stdout);
  }
  wb::fleet::WorkerLauncher launcher;
  if (options.fleet.workers > 0) launcher = make_self_launcher(options);
  const auto outcomes = wb::fleet::run_fleet(
      plans, options.fleet, launcher, make_printing_observer(),
      listener ? &*listener : nullptr);
  return print_outcomes(outcomes);
}

int cmd_fleet_worker(std::vector<std::string> args) {
  std::vector<std::string> values;
  take_options(args,
               {"--threads", "--heartbeat-ms", "--stall-first-ms", "--connect",
                "--sever-after-ms", "--hostname", "--redial-limit"},
               &values);
  WB_REQUIRE_MSG(args.empty(),
                 "usage: wbsim fleet worker [--connect=HOST:PORT[,...]] "
                 "[--threads=T] [--heartbeat-ms=N] [--stall-first-ms=N] "
                 "[--sever-after-ms=N] [--hostname=H] [--redial-limit=N]");
  wb::fleet::WorkerOptions options;
  if (!values[0].empty()) {
    options.threads = parse_u64_arg(values[0], "--threads");
  }
  if (!values[1].empty()) {
    options.heartbeat_interval =
        std::chrono::milliseconds(parse_u64_arg(values[1], "heartbeat"));
  }
  if (!values[2].empty()) {
    options.stall_first =
        std::chrono::milliseconds(parse_u64_arg(values[2], "stall"));
  }
  if (!values[4].empty()) {
    options.sever_after =
        std::chrono::milliseconds(parse_u64_arg(values[4], "sever"));
  }
  options.hostname = values[5];
  const auto runner = [](const wb::shard::ShardSpec& spec,
                         std::size_t threads) {
    return wb::cli::run_protocol_spec_shard(spec, threads);
  };
  if (values[3].empty()) {
    // The PR 6 shape: one session over stdio, the launcher owns the pipes.
    WB_REQUIRE_MSG(values[6].empty(),
                   "--redial-limit only applies with --connect");
    return wb::fleet::run_worker(STDIN_FILENO, STDOUT_FILENO, runner, options);
  }
  // Dial-in mode: cycle the address list with exponential backoff, redial
  // after a lost link, redeliver the unacknowledged result.
  wb::fleet::ConnectOptions connect;
  connect.addresses = wb::fleet::parse_socket_address_list(values[3]);
  if (!values[6].empty()) {
    connect.redial_limit = parse_u64_arg(values[6], "--redial-limit");
  }
  return wb::fleet::run_worker_connect(connect, runner, options);
}

int cmd_fleet(const std::vector<std::string>& args) {
  WB_REQUIRE_MSG(!args.empty() && (args[0] == "run" || args[0] == "worker"),
                 "usage: wbsim fleet run|worker ... (see `wbsim help fleet`)");
  std::vector<std::string> rest(args.begin() + 1, args.end());
  return args[0] == "run" ? cmd_fleet_run(std::move(rest))
                          : cmd_fleet_worker(std::move(rest));
}

#else  // !WB_FLEET_HAS_PROCESSES

int run_fleet_exhaustive(const wb::Graph&, const std::string&,
                         const wb::cli::SweepSpec&) {
  WB_REQUIRE_MSG(false,
                 "exhaustive:shards=K needs process spawning; use shard-plan/"
                 "shard-run/shard-merge manually on this platform");
  return wb::cli::kExitUsage;  // unreachable
}

int cmd_fleet(const std::vector<std::string>&) {
  WB_REQUIRE_MSG(false, "the fleet needs process spawning on this platform");
  return wb::cli::kExitUsage;  // unreachable
}

#endif  // WB_FLEET_HAS_PROCESSES

// --- Sharding subcommands ----------------------------------------------------

int cmd_shard_plan(const std::vector<std::string>& args) {
  WB_REQUIRE_MSG(args.size() == 4,
                 "usage: wbsim shard-plan <graph-spec> <protocol-spec> "
                 "<sweep-spec> <out-base>");
  const wb::Graph g = wb::cli::graph_from_spec(args[0]);
  const std::string& protocol = args[1];
  const wb::cli::SweepSpec sweep = wb::cli::sweep_from_spec(args[2]);
  WB_REQUIRE_MSG(sweep.shards >= 1,
                 "shard-plan needs a sharded sweep spec "
                 "(exhaustive:shards=K...), got '"
                     << args[2] << "'");
  const std::string& base = args[3];
  wb::shard::PlanOptions opts;
  opts.max_executions = sweep.max_executions;
  opts.distinct = sweep.distinct;
  opts.faults = sweep.faults;
  const auto specs =
      wb::cli::plan_protocol_spec_shards(protocol, g, sweep.shards, opts);
  for (const wb::shard::ShardSpec& spec : specs) {
    const std::string path =
        base + "." + std::to_string(spec.shard_index) + ".shard";
    write_file(path, wb::shard::serialize(spec));
    if (spec.faults.kind == wb::FaultKind::kAdaptive) {
      std::printf("wrote %s (statistical stride %u/%u)\n", path.c_str(),
                  spec.shard_index, spec.shard_count);
    } else if (spec.faults.kind != wb::FaultKind::kNone) {
      std::printf("wrote %s (%zu fault subtree prefixes)\n", path.c_str(),
                  spec.fault_tasks.size());
    } else {
      std::printf("wrote %s (%zu subtree prefixes)\n", path.c_str(),
                  spec.prefixes.size());
    }
  }
  const std::string manifest_path = base + ".manifest";
  write_file(manifest_path,
             wb::shard::serialize(wb::shard::make_manifest(specs)));
  std::printf("wrote %s (%zu spec hashes; serve with `wbsim fleet run %s` or "
              "track with `wbsim shard-status %s <dir>`)\n",
              manifest_path.c_str(), specs.size(), manifest_path.c_str(),
              manifest_path.c_str());
  return kExitPass;
}

int cmd_shard_run(const std::vector<std::string>& args) {
  WB_REQUIRE_MSG(args.size() >= 2 && args.size() <= 3,
                 "usage: wbsim shard-run <spec-file> <result-file> [threads]");
  const wb::shard::ShardSpec spec =
      wb::shard::parse_shard_spec(read_file(args[0]));
  const std::size_t threads =
      args.size() == 3
          ? static_cast<std::size_t>(parse_u64_arg(args[2], "threads"))
          : 0;
  const wb::shard::ShardResult result =
      wb::cli::run_protocol_spec_shard(spec, threads);
  write_file(args[1], wb::shard::serialize(result));
  if (result.budget_exceeded) {
    std::printf("shard %u/%u: budget of %llu executions exceeded\n",
                result.shard_index, result.shard_count,
                static_cast<unsigned long long>(result.max_executions));
  } else {
    const unsigned long long distinct =
        result.distinct.kind == wb::DistinctKind::kExact
            ? result.board_hashes.size()
            : (result.hll.has_value() ? result.hll->estimate() : 0);
    std::printf(
        "shard %u/%u: %llu executions, %s%llu distinct boards, %llu "
        "failures\n",
        result.shard_index, result.shard_count,
        static_cast<unsigned long long>(result.executions),
        result.distinct.kind == wb::DistinctKind::kExact ? "" : "~", distinct,
        static_cast<unsigned long long>(result.engine_failures +
                                        result.wrong_outputs));
  }
  return kExitPass;
}

int cmd_shard_status(const std::vector<std::string>& args) {
  WB_REQUIRE_MSG(args.size() == 2,
                 "usage: wbsim shard-status <manifest-file> <dir>");
  const wb::shard::ShardManifest manifest =
      wb::shard::parse_shard_manifest(read_file(args[0]));
  const std::filesystem::path dir = args[1];
  WB_REQUIRE_MSG(std::filesystem::is_directory(dir),
                 "'" << args[1] << "' is not a directory");

  std::string plan_hex;
  {
    char buffer[33];
    std::snprintf(buffer, sizeof buffer, "%016llx%016llx",
                  static_cast<unsigned long long>(manifest.plan.lo),
                  static_cast<unsigned long long>(manifest.plan.hi));
    plan_hex = buffer;
  }
  std::printf("manifest   plan %s — %u shards, distinct=%s, budget %llu\n",
              plan_hex.c_str(), manifest.shard_count,
              wb::to_string(manifest.distinct).c_str(),
              static_cast<unsigned long long>(manifest.max_executions));

  // Scan every *.result in the directory (sorted, so the report is
  // deterministic) and classify it against the manifest: a parseable result
  // whose plan fingerprint matches claims its shard slot; anything else is
  // foreign — another plan's result, or a corrupt file.
  std::vector<std::string> owner(manifest.shard_count);
  std::vector<std::pair<std::string, std::string>> foreign;  // file, reason
  std::vector<std::filesystem::path> candidates;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".result") {
      candidates.push_back(entry.path());
    }
  }
  std::sort(candidates.begin(), candidates.end());
  for (const std::filesystem::path& path : candidates) {
    const std::string name = path.filename().string();
    try {
      const wb::shard::ShardResult result =
          wb::shard::parse_shard_result(read_file(path.string()));
      if (result.plan != manifest.plan) {
        foreign.emplace_back(name, "different plan fingerprint");
      } else if (result.shard_index >= manifest.shard_count) {
        // Defense in depth: the fingerprint covers the shard count, so only
        // a hand-edited file can get here — classify, don't crash.
        foreign.emplace_back(name, "shard index " +
                                       std::to_string(result.shard_index) +
                                       " outside the manifest's " +
                                       std::to_string(manifest.shard_count));
      } else if (!owner[result.shard_index].empty()) {
        foreign.emplace_back(
            name, "duplicate of shard " + std::to_string(result.shard_index) +
                      " (already claimed by " + owner[result.shard_index] +
                      ")");
      } else {
        owner[result.shard_index] = name;
      }
    } catch (const wb::DataError&) {
      foreign.emplace_back(name, "unparseable result file");
    }
  }

  std::uint32_t present = 0;
  for (std::uint32_t k = 0; k < manifest.shard_count; ++k) {
    if (!owner[k].empty()) {
      ++present;
      std::printf("shard %-4u present (%s)\n", k, owner[k].c_str());
    } else {
      std::printf("shard %-4u MISSING — re-run its .%u.shard spec on any "
                  "host\n",
                  k, k);
    }
  }
  for (const auto& [name, reason] : foreign) {
    std::printf("foreign    %s — %s\n", name.c_str(), reason.c_str());
  }
  std::printf("status     %u/%u shard results present\n", present,
              manifest.shard_count);
  return present == manifest.shard_count ? kExitPass : kExitFail;
}

int cmd_shard_merge(const std::vector<std::string>& args) {
  WB_REQUIRE_MSG(!args.empty(), "usage: wbsim shard-merge <result-file>...");
  std::vector<wb::shard::ShardResult> results;
  results.reserve(args.size());
  for (const std::string& path : args) {
    results.push_back(wb::shard::parse_shard_result(read_file(path)));
  }
  return print_merged(wb::shard::merge_shard_results(results));
}

// --- Graph utilities ---------------------------------------------------------

int cmd_graph_gen(const std::vector<std::string>& args) {
  WB_REQUIRE_MSG(args.size() >= 1 && args.size() <= 2,
                 "usage: wbsim graph gen <graph-spec> [FILE]\n\n"
                     << wb::cli::graph_spec_help());
  const wb::Graph g = wb::cli::graph_from_spec(args[0]);
  if (args.size() == 2) {
    std::ofstream out(args[1], std::ios::binary | std::ios::trunc);
    WB_REQUIRE_MSG(out.good(), "cannot create '" << args[1] << "'");
    wb::write_edge_list(g, out);
    out.flush();
    WB_REQUIRE_MSG(out.good(), "cannot write '" << args[1] << "'");
    std::fprintf(stderr, "wrote %s: n=%zu m=%zu\n", args[1].c_str(),
                 g.node_count(), g.edge_count());
  } else {
    wb::write_edge_list(g, std::cout);
    std::cout.flush();
  }
  return kExitPass;
}

int cmd_graph_stats(const std::vector<std::string>& args) {
  WB_REQUIRE_MSG(args.size() == 1,
                 "usage: wbsim graph stats <FILE|graph-spec>");
  // A bare path loads through the streaming reader; any spec works too.
  wb::EdgeListLoadStats load;
  wb::Graph g(0);
  if (std::filesystem::is_regular_file(args[0])) {
    std::ifstream in(args[0], std::ios::binary);
    WB_REQUIRE_MSG(in.is_open(), "cannot open '" << args[0] << "'");
    g = wb::read_edge_list(in, {}, &load);
    std::printf("file       %s (%zu bytes/pass, %s)\n", args[0].c_str(),
                load.bytes_read, load.two_pass ? "two-pass" : "buffered");
    if (load.build.self_loops_dropped + load.build.duplicates_dropped > 0) {
      std::printf("dropped    %zu self-loops, %zu duplicates\n",
                  load.build.self_loops_dropped,
                  load.build.duplicates_dropped);
    }
  } else {
    g = wb::cli::graph_from_spec(args[0]);
  }
  const std::size_t n = g.node_count();
  const std::size_t m = g.edge_count();
  std::printf("nodes      %zu\n", n);
  std::printf("edges      %zu\n", m);
  std::printf("memory     %zu bytes (CSR)\n", g.memory_bytes());
  if (n == 0) return kExitPass;

  // Degree histogram in power-of-two buckets (0, 1, 2-3, 4-7, ...).
  std::size_t max_degree = 0, isolated = 0;
  std::vector<std::size_t> buckets;
  for (wb::NodeId v = 1; v <= n; ++v) {
    const std::size_t d = g.degree(v);
    max_degree = std::max(max_degree, d);
    if (d == 0) ++isolated;
    std::size_t b = 0;
    while ((std::size_t{2} << b) <= d) ++b;  // d in [2^b, 2^{b+1}) for d>=1
    if (d == 0) b = 0;
    if (buckets.size() <= b) buckets.resize(b + 1, 0);
    if (d > 0) ++buckets[b];
  }
  std::printf("degree     avg %.2f, max %zu, isolated %zu\n",
              n == 0 ? 0.0 : 2.0 * static_cast<double>(m) /
                                 static_cast<double>(n),
              max_degree, isolated);
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const std::size_t lo = std::size_t{1} << b;
    const std::size_t hi = (std::size_t{2} << b) - 1;
    char range[32];
    if (lo == hi) {
      std::snprintf(range, sizeof range, "%zu", lo);
    } else {
      std::snprintf(range, sizeof range, "%zu-%zu", lo, hi);
    }
    std::printf("  deg %-12s %zu nodes\n", range, buckets[b]);
  }
  const wb::Components comp = wb::connected_components(g);
  std::printf("components %zu%s\n", comp.count,
              comp.count == 1 ? " (connected)" : "");
  return kExitPass;
}

int cmd_graph(const std::vector<std::string>& args) {
  WB_REQUIRE_MSG(!args.empty() && (args[0] == "gen" || args[0] == "stats"),
                 "usage: wbsim graph gen|stats ... (see `wbsim help graph`)");
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  return args[0] == "gen" ? cmd_graph_gen(rest) : cmd_graph_stats(rest);
}

// --- The verdict matrix ------------------------------------------------------

int cmd_verdicts(std::vector<std::string> args) {
  std::vector<std::string> values;
  take_options(args, {"--out", "--threads"}, &values);
  const std::string& out_path = values[0];
  const std::size_t threads =
      values[1].empty()
          ? 0
          : static_cast<std::size_t>(parse_u64_arg(values[1], "threads"));
  WB_REQUIRE_MSG(args.size() <= 1,
                 "usage: wbsim verdicts [FILTER] [--out=FILE] [--threads=T]");
  const std::string filter = args.empty() ? "" : args[0];
  const std::string matrix =
      wb::cli::generate_verdict_matrix(filter, threads);
  if (!out_path.empty()) {
    write_file(out_path, matrix);
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  } else {
    std::printf("%s", matrix.c_str());
  }
  return kExitPass;
}

// --- The commandless (classic) invocation ------------------------------------

int cmd_classic(const std::vector<std::string>& all_args) {
  std::vector<std::string> args;
  bool counterexample = false;
  for (const std::string& arg : all_args) {
    if (arg == "--counterexample") {
      counterexample = true;
    } else {
      args.push_back(arg);
    }
  }
  WB_REQUIRE_MSG(args.size() >= 2 && args.size() <= 3,
                 "usage: wbsim <graph-spec> <protocol-spec> [adversary-spec] "
                 "[--counterexample] (see `wbsim help`)\n\n"
                     << wb::cli::graph_spec_help() << "\n\n"
                     << wb::cli::protocol_spec_help() << "\n\n"
                     << wb::cli::adversary_spec_help());
  const wb::Graph g = wb::cli::graph_from_spec(args[0]);
  const std::string adversary_spec = args.size() == 3 ? args[2] : "first";
  if (wb::cli::split_spec(adversary_spec)[0] == "battery") {
    WB_REQUIRE_MSG(!counterexample,
                   "--counterexample needs an exhaustive adversary spec");
    return run_battery(g, args[1], adversary_spec);
  }
  if (wb::cli::is_symbolic_spec(adversary_spec)) {
    WB_REQUIRE_MSG(!counterexample,
                   "--counterexample needs an exhaustive adversary spec "
                   "(the symbolic backend enumerates no schedules)");
    wb::cli::symbolic_from_spec(adversary_spec);
    return print_report(wb::cli::run_protocol_spec_symbolic(args[1], g));
  }
  if (wb::cli::is_exhaustive_spec(adversary_spec)) {
    const wb::cli::SweepSpec sweep = wb::cli::sweep_from_spec(adversary_spec);
    if (sweep.shards > 0) {
      WB_REQUIRE_MSG(!counterexample,
                     "--counterexample is in-process only; use "
                     "exhaustive[:THREADS]");
      return run_fleet_exhaustive(g, args[1], sweep);
    }
    WB_REQUIRE_MSG(!counterexample ||
                       sweep.faults.kind == wb::FaultKind::kNone,
                   "--counterexample is fault-free only (drop the faults= "
                   "option)");
    WB_REQUIRE_MSG(!counterexample || !sweep.memoize,
                   "--counterexample does not combine with memoize");
    wb::cli::ExhaustiveRunOptions opts;
    opts.threads = sweep.threads;
    opts.max_executions = sweep.max_executions;
    opts.counterexample = counterexample;
    opts.distinct = sweep.distinct;
    opts.faults = sweep.faults;
    opts.memoize = sweep.memoize;
    return print_report(
        wb::cli::run_protocol_spec_exhaustive(args[1], g, opts));
  }
  WB_REQUIRE_MSG(!counterexample,
                 "--counterexample needs an exhaustive adversary spec");
  auto adversary = wb::cli::adversary_from_spec(adversary_spec, g);
  return print_report(wb::cli::run_protocol_spec(args[1], g, *adversary));
}

wb::cli::CommandRegistry build_registry() {
  wb::cli::CommandRegistry registry("wbsim");
  registry.set_default(wb::cli::Command{
      "",
      "specs — " + wb::cli::graph_spec_help() + "\n" +
          wb::cli::adversary_spec_help() +
          "\nsweeps: exhaustive[:THREADS][:memoize][:shards=K][:budget=N]"
          "[:faults=F][:distinct=exact|hll[:P]]"
          "\n        symbolic (two-cliques, mis:ROOT, anon-degree; other "
          "protocols: exhaustive:memoize)"
          "\nfaults: none crash:F corrupt:NUM/DEN[:SEED] "
          "adaptive:SEED[:TRIALS]",
      "wbsim <graph-spec> <protocol-spec> [adversary-spec] "
      "[--counterexample]",
      cmd_classic});
  registry.add(wb::cli::Command{
      "shard-plan",
      "partition an exhaustive sweep into K self-describing shard specs "
      "plus a tracking manifest",
      "wbsim shard-plan <graph-spec> <protocol-spec> <sweep-spec> <out-base>"
      "\n\nThe sweep spec must name a shard count — e.g. "
      "exhaustive:shards=4:budget=100000:distinct=hll:14 or "
      "exhaustive:shards=2:faults=crash:1.\nWrites "
      "<out-base>.<k>.shard for k = 0..K-1 and <out-base>.manifest.\n"
      "Crash/corruption sweeps partition (world, subtree) fault tasks; "
      "adaptive sweeps stride their\nsampled trials across the shards "
      "(shard k runs trials k, k+K, ...).",
      cmd_shard_plan});
  registry.add(wb::cli::Command{
      "shard-run",
      "sweep one shard spec file and write its result file",
      "wbsim shard-run <spec-file> <result-file> [threads]\n\nthreads: 0 = "
      "one per hardware thread (default), 1 = serial.",
      cmd_shard_run});
  registry.add(wb::cli::Command{
      "shard-status",
      "classify a directory's *.result files against a manifest "
      "(present / missing / foreign)",
      "wbsim shard-status <manifest-file> <dir>\n\nExit 0 iff every shard "
      "of the manifest has a matching result in <dir>.",
      cmd_shard_status});
  registry.add(wb::cli::Command{
      "shard-merge",
      "merge a complete result set into the sweep's totals "
      "(byte-identical to the exhaustive:1 report)",
      "wbsim shard-merge <result-file>...",
      cmd_shard_merge});
  registry.add(wb::cli::Command{
      "verdicts",
      "regenerate the zoo x failure-model verdict matrix "
      "(tests/wb/data/verdicts.golden)",
      "wbsim verdicts [FILTER] [--out=FILE] [--threads=T]\n\n"
      "Sweeps every zoo protocol under every failure model — none, crash:1, "
      "corrupt:1/8:1,\nadaptive:7:256 — exhaustively where the schedule/world "
      "space fits the per-cell budget\nand statistically (sampled trials, "
      "Wilson 95% CI) where it does not, and prints the\n`wb-verdicts v1` "
      "text matrix. FILTER restricts rows to protocol specs containing "
      "the\nsubstring. The committed golden is regenerated with `wbsim "
      "verdicts --out=tests/wb/data/verdicts.golden`\nand diffed byte-exact "
      "by CI and tests/cli/verdicts_test.cpp.",
      cmd_verdicts});
  registry.add(wb::cli::Command{
      "graph",
      "generate edge-list files from any graph spec, or report a graph's "
      "shape (n/m, degree histogram, components)",
      "wbsim graph gen <graph-spec> [FILE]\n"
      "wbsim graph stats <FILE|graph-spec>\n\n"
      "`gen` streams the \"n m\" + pairs edge-list format to stdout (or "
      "FILE) without\nmaterializing the text — rmat:20:16:1 pipes a "
      "~16M-edge instance. `stats` loads\na file through the streaming "
      "reader (tolerant of unsorted/duplicate/reversed\npairs; hard header "
      "limits) and prints nodes, edges, CSR bytes, a power-of-two\ndegree "
      "histogram, and the component count.\n\n" +
          wb::cli::graph_spec_help(),
      cmd_graph});
  registry.add(wb::cli::Command{
      "fleet",
      "serve shard plans over a fault-tolerant fleet of persistent worker "
      "processes (see README: Fleet controller)",
      "wbsim fleet run <manifest-file>... [--workers=K] [--threads=T]\n"
      "                [--heartbeat-timeout-ms=N] [--shard-deadline-ms=N]\n"
      "                [--max-attempts=N] [--stall-first-ms=N]\n"
      "                [--listen=HOST:PORT] [--drain-grace-ms=N] "
      "[--heartbeat-ms=N]\n"
      "wbsim fleet worker [--connect=HOST:PORT[,...]] [--threads=T] "
      "[--heartbeat-ms=N]\n"
      "                [--stall-first-ms=N] [--sever-after-ms=N] "
      "[--hostname=H] [--redial-limit=N]\n\n"
      "`fleet run` loads each <base>.manifest plus its <base>.<k>.shard "
      "specs (shard-plan's naming),\nspawns --workers persistent `fleet "
      "worker` processes of this binary, dispatches shard specs as\n"
      "length-prefixed frames over pipes, re-issues timed-out or lost "
      "shards with exponential backoff,\nand merges under the "
      "plan-fingerprint guard — killing a worker mid-sweep changes "
      "nothing in the\nmerged report. With --listen the controller also "
      "accepts dial-in workers over TCP (port 0\npicks an ephemeral port, "
      "printed as `fleet listening on H:P`); --workers=0 plus --listen "
      "runs\nan all-remote sweep. A lost remote link costs no respawn "
      "budget: its shards are requeued after\n--drain-grace-ms so a "
      "redialing worker can redeliver its finished result instead of "
      "re-sweeping.\n\n`fleet worker` is the frame loop on stdin/stdout "
      "(spawned by `fleet run`) or, with --connect,\na TCP session that "
      "redials with exponential backoff across the address list; "
      "--redial-limit\ngives up (exit 1) after N failed passes. "
      "--stall-first-ms delays the first sweep and\n--sever-after-ms "
      "drops the link mid-session — fault-injection windows for kill and "
      "partition\ntests. --hostname overrides the advertised identity "
      "(hello v2: host/pid).",
      cmd_fleet});
  return registry;
}

}  // namespace

int main(int argc, char** argv) {
#if WB_FLEET_HAS_PROCESSES
  g_argv0 = argv[0];
#endif
  return build_registry().main(argc, argv);
}
