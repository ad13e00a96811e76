// wbperf: the measuring process of the end-to-end benchmark (perfbench/).
//
//   wbperf info                     build and machine facts, and the peak
//                                   RSS of a process that runs no command
//   wbperf worker                   a fleet shard worker on stdin/stdout
//   wbperf traced  --...            the traced per-layer run (traced.cpp)
//   wbperf <command> --...          one untraced end-to-end command
//                                   (commands.cpp)
//
// Every command prints exactly one JSON document on stdout. Errors are
// reported in that document ("error") with exit code 1, so perfbench/run.py
// can count them as failed commands instead of losing them.
#include "wbperf.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <limits>
#include <thread>

#include "src/cli/runners.h"
#include "src/cli/spec.h"
#include "src/fleet/worker.h"
#include "src/graph/generators.h"
#include "src/support/hash.h"

namespace wbperf {

Args::Args(int argc, char** argv) {
  WB_REQUIRE_MSG(argc >= 2, "usage: wbperf COMMAND [--key=value ...]");
  command_ = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    WB_REQUIRE_MSG(arg.rfind("--", 0) == 0 && eq != std::string::npos,
                   "expected --key=value, got '" << arg << "'");
    values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
}

std::string Args::str(const std::string& key) const {
  const auto it = values_.find(key);
  WB_REQUIRE_MSG(it != values_.end(), "missing --" << key);
  return it->second;
}

std::uint64_t Args::u64(const std::string& key) const {
  return wb::cli::parse_u64(str(key), "--" + key);
}

Instance parse_instance(const std::string& text) {
  const std::size_t at = text.find('@');
  WB_REQUIRE_MSG(at != std::string::npos && at > 0 && at + 1 < text.size(),
                 "expected PROTOCOL@GRAPH, got '" << text << "'");
  return {text.substr(0, at), text.substr(at + 1)};
}

std::vector<Instance> parse_instances(const std::string& text) {
  std::vector<Instance> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    out.push_back(parse_instance(text.substr(start, end - start)));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

wb::Graph seeded_graph(const std::string& spec, std::uint64_t seed) {
  const wb::Graph g = wb::cli::graph_from_spec(spec);
  wb::Hasher128 salt;
  salt.update(seed);
  for (const char c : spec) salt.update(static_cast<unsigned char>(c));
  return wb::relabel(g,
                     wb::random_permutation(g.node_count(), salt.digest().lo));
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  double self_kb = 0;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::stod(line.substr(6));
  }
  WB_REQUIRE_MSG(self_kb > 0, "no VmHWM in /proc/self/status");
  struct rusage children {};
  ::getrusage(RUSAGE_CHILDREN, &children);
  return std::max(self_kb, static_cast<double>(children.ru_maxrss)) / 1024.0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  WB_REQUIRE_MSG(in.good(), "cannot read " << path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

Inputs::Inputs(const Args& args)
    : seed(args.u64("seed")),
      threads(args.u64("threads")),
      budget(args.u64("budget")),
      memo_budget(args.u64("memo-budget")),
      sweep(parse_instance(args.str("sweep"))),
      memo(parse_instance(args.str("memo"))),
      single(parse_instance(args.str("single"))),
      battery(parse_instances(args.str("battery"))),
      sweep_graph(seeded_graph(sweep.graph_spec, seed)),
      memo_graph(seeded_graph(memo.graph_spec, seed)),
      single_graph(seeded_graph(single.graph_spec, seed)) {
  for (const Instance& in : battery) {
    battery_graphs.push_back(seeded_graph(in.graph_spec, seed));
  }
}

// --- sweeps and shards --------------------------------------------------------

Totals sweep_totals(const wb::cli::RunReport& report) {
  const std::string key = "schedules  ";
  const std::size_t at = report.summary.find(key);
  WB_REQUIRE_MSG(at != std::string::npos,
                 "sweep report has no schedules line:\n" << report.summary);
  std::istringstream line(report.summary.substr(at + key.size()));
  std::uint64_t executions = 0;
  std::uint64_t distinct = 0;
  std::string word;
  line >> executions >> word;  // "executions,"
  if (line.peek() == ' ') line.get();
  if (line.peek() == '~') line.get();
  line >> distinct;
  WB_REQUIRE_MSG(!line.fail(), "unparsable schedules line:\n"
                                   << report.summary);
  return {{"executions", report.executions},
          {"reported_executions", executions},
          {"distinct", distinct},
          {"failures", report.engine_failures + report.wrong_outputs},
          {"correct", report.correct ? 1u : 0u}};
}

std::vector<wb::shard::ShardSpec> plan_shards(const Instance& in,
                                              const wb::Graph& g,
                                              std::size_t shards,
                                              std::uint64_t budget) {
  wb::shard::PlanOptions popts;
  popts.max_executions = budget;
  return wb::cli::plan_protocol_spec_shards(in.protocol, g, shards, popts);
}

wb::fleet::PlanInputs fleet_plan(
    const std::vector<wb::shard::ShardSpec>& specs) {
  wb::fleet::PlanInputs plan;
  plan.name = "sweep";
  plan.manifest = wb::shard::make_manifest(specs);
  for (const wb::shard::ShardSpec& spec : specs) {
    plan.spec_documents.push_back(wb::shard::serialize(spec));
  }
  return plan;
}

// --- JSON ---------------------------------------------------------------------

std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Json::str() const {
  std::string out = "{";
  out += body_.str();
  out += '}';
  return out;
}

void Json::key(const std::string& key) {
  if (!first_) body_ << ",";
  first_ = false;
  body_ << json_quote(key) << ":";
}

Json& Json::num(const std::string& k, double value) {
  key(k);
  body_ << std::setprecision(std::numeric_limits<double>::max_digits10)
        << value;
  return *this;
}

Json& Json::count(const std::string& k, std::uint64_t value) {
  key(k);
  body_ << value;
  return *this;
}

Json& Json::flag(const std::string& k, bool value) {
  key(k);
  body_ << (value ? "true" : "false");
  return *this;
}

Json& Json::text(const std::string& k, const std::string& value) {
  key(k);
  body_ << json_quote(value);
  return *this;
}

Json& Json::nums(const std::string& k, const std::vector<double>& values) {
  key(k);
  body_ << "[" << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (std::size_t i = 0; i < values.size(); ++i) {
    body_ << (i == 0 ? "" : ",") << values[i];
  }
  body_ << "]";
  return *this;
}

Json& Json::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ << json;
  return *this;
}

// --- fleet --------------------------------------------------------------------

namespace {

std::string self_executable() {
  char buffer[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  WB_REQUIRE_MSG(len > 0, "cannot resolve /proc/self/exe");
  return std::string(buffer, static_cast<std::size_t>(len));
}

}  // namespace

wb::fleet::WorkerLauncher self_launcher() {
  const std::string exe = self_executable();
  return [exe](std::size_t index) {
    int to_child[2] = {-1, -1};
    int from_child[2] = {-1, -1};
    WB_REQUIRE_MSG(::pipe(to_child) == 0 && ::pipe(from_child) == 0,
                   "cannot create pipes for worker " << index);
    // CLOEXEC everywhere, so no worker inherits a sibling's pipe ends (a
    // lost sibling must still yield EOF); dup2 clears it on the child's own.
    for (const int fd :
         {to_child[0], to_child[1], from_child[0], from_child[1]}) {
      WB_REQUIRE_MSG(::fcntl(fd, F_SETFD, FD_CLOEXEC) == 0,
                     "cannot set CLOEXEC for worker " << index);
    }
    const pid_t pid = ::fork();
    WB_REQUIRE_MSG(pid >= 0, "fork failed for worker " << index);
    if (pid == 0) {
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
      const char* argv[] = {exe.c_str(), "worker", nullptr};
      ::execv(exe.c_str(), const_cast<char* const*>(argv));
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    return wb::fleet::WorkerEndpoint{pid, to_child[1], from_child[0]};
  };
}

int run_worker_process() {
  wb::fleet::ignore_sigpipe();
  wb::fleet::WorkerOptions options;
  options.threads = 1;
  return wb::fleet::run_worker(
      STDIN_FILENO, STDOUT_FILENO,
      [](const wb::shard::ShardSpec& spec, std::size_t threads) {
        return wb::cli::run_protocol_spec_shard(spec, threads);
      },
      options);
}

namespace {

std::string info() {
  Json j;
  j.text("build_type", WBPERF_BUILD_TYPE);
#if defined(__clang__)
  j.text("compiler", "clang");
#elif defined(__GNUC__)
  j.text("compiler", "gcc");
#else
  j.text("compiler", "unknown");
#endif
  j.text("compiler_version", __VERSION__);
#ifdef NDEBUG
  j.flag("ndebug", true);
#else
  j.flag("ndebug", false);
#endif
  j.count("hardware_concurrency", std::thread::hardware_concurrency());
  j.num("peak_rss_mb", peak_rss_mb());
  return j.str();
}

}  // namespace

}  // namespace wbperf

int main(int argc, char** argv) {
  std::string command = argc >= 2 ? argv[1] : "";
  try {
    const wbperf::Args args(argc, argv);
    if (command == "worker") return wbperf::run_worker_process();
    const std::string out = command == "info"     ? wbperf::info()
                            : command == "traced" ? wbperf::run_traced(args)
                                                  : wbperf::run_command(args);
    std::cout << out << "\n";
    return 0;
  } catch (const std::exception& e) {
    wbperf::Json j;
    j.text("command", command).text("error", e.what());
    std::cout << j.str() << "\n";
    return 1;
  }
}
