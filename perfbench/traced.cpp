// The traced per-layer run. It calls into each layer of the simulator from
// outside — the library is never modified — and records a span (name,
// start, end, parent) around every layer call, keeps the spans in memory,
// and writes them to --trace-out at the end. Each layer's self time is its
// spans' durations minus the part their child spans cover.
//
// Two layers are observed below their public entry points, through public
// surfaces only:
//  - engine: an instrumented copy of the explorer's depth-first walk over one
//    journaling EngineState (begin_round / write_node / rewind / finish_into
//    timed per call), and single runs driven round by round;
//  - protocols: a counting Protocol decorator that times every activate,
//    compose and output call. Its time is nested inside the engine's spans
//    as aggregate child spans.
// Counts (executions, compose calls, memo hits, BDD nodes, bytes) are exact
// and repeat run to run; perfbench/run.py checks that they do.
#include <malloc.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "src/cli/runners.h"
#include "src/cli/verdicts.h"
#include "src/fleet/transport.h"
#include "src/graph/io.h"
#include "src/sym/reach.h"
#include "src/wb/batch.h"
#include "src/wb/distinct.h"
#include "src/wb/engine.h"
#include "src/wb/exhaustive.h"
#include "src/wb/faults.h"
#include "wbperf.h"

namespace wbperf {
namespace {

// --- spans --------------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0;  // seconds since the tracer's origin
  double end = 0;
  int parent = -1;
  bool aggregate = false;  // summed from per-call timers, placed at start

  [[nodiscard]] std::string layer() const {
    return name.substr(0, name.find('.'));
  }
};

class Tracer {
 public:
  int open(const std::string& name) {
    spans_.push_back({name, now(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  double close(int id) {
    WB_CHECK_MSG(!stack_.empty() && stack_.back() == id, "span nesting");
    stack_.pop_back();
    spans_[id].end = now();
    return spans_[id].end - spans_[id].start;
  }
  /// A child of the open span covering `seconds` of it: time spent in calls
  /// too short and too many to record one by one.
  void aggregate(const std::string& name, double seconds) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    const double start = parent < 0 ? now() : spans_[parent].start;
    spans_.push_back({name, start, start + seconds, parent, true});
  }

  /// Per-layer self time: span duration minus its children's durations.
  [[nodiscard]] std::map<std::string, double> self_times() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.end - s.start;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].layer()] += spans_[i].end - spans_[i].start - child[i];
    }
    return self;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Json j;
      j.count("id", i)
          .text("name", s.name)
          .text("layer", s.layer())
          .num("start_s", s.start)
          .num("end_s", s.end)
          .raw("parent", std::to_string(s.parent))
          .flag("aggregate", s.aggregate);
      out << (i == 0 ? "\n" : ",\n") << j.str();
    }
    out << "\n]\n";
    WB_REQUIRE_MSG(out.good(), "cannot write spans to " << path);
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  [[nodiscard]] double now() const { return seconds_since(origin_); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Time `body` as one span; returns its duration in seconds.
template <typename Body>
double span(Tracer& tracer, const std::string& name, Body&& body) {
  const int id = tracer.open(name);
  body();
  return tracer.close(id);
}

// --- per-call timers ----------------------------------------------------------

struct OpTimer {
  std::uint64_t calls = 0;
  double seconds = 0;

  [[nodiscard]] double mean_ns() const {
    return calls == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(calls);
  }
};

/// Call f, counted and timed into `timer` unless it is null.
template <typename F>
decltype(auto) timed(OpTimer* timer, F&& f) {
  if (timer == nullptr) return f();
  struct Stop {
    OpTimer& timer;
    Clock::time_point start;
    ~Stop() {
      ++timer.calls;
      timer.seconds += seconds_since(start);
    }
  } stop{*timer, Clock::now()};
  return f();
}

/// Counts and times every protocol callback, forwarding to `inner`.
/// Single-threaded use only (the counters are plain members).
template <typename Out>
class CountingProtocol final : public wb::ProtocolWithOutput<Out> {
 public:
  explicit CountingProtocol(const wb::ProtocolWithOutput<Out>& inner)
      : inner_(inner) {}

  [[nodiscard]] wb::ModelClass model_class() const override {
    return inner_.model_class();
  }
  [[nodiscard]] std::size_t message_bit_limit(std::size_t n) const override {
    return inner_.message_bit_limit(n);
  }
  [[nodiscard]] bool activate(const wb::LocalView& view,
                              const wb::Whiteboard& board) const override {
    return timed(&activate_, [&] { return inner_.activate(view, board); });
  }
  [[nodiscard]] wb::Bits compose(const wb::LocalView& view,
                                 const wb::Whiteboard& board) const override {
    return timed(&compose_, [&] { return inner_.compose(view, board); });
  }
  [[nodiscard]] wb::Bits compose(const wb::LocalView& view,
                                 const wb::Whiteboard& board,
                                 wb::BitWriter& scratch) const override {
    return timed(&compose_,
                 [&] { return inner_.compose(view, board, scratch); });
  }
  [[nodiscard]] wb::FrontierLocality frontier_locality() const override {
    return inner_.frontier_locality();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] Out output(const wb::Whiteboard& board,
                           std::size_t n) const override {
    return timed(&output_, [&] { return inner_.output(board, n); });
  }

  mutable OpTimer activate_;
  mutable OpTimer compose_;
  mutable OpTimer output_;

 private:
  const wb::ProtocolWithOutput<Out>& inner_;
};

struct EngineTimers {
  OpTimer begin_round;
  OpTimer write;
  OpTimer rewind;
  OpTimer finish;
};

/// The explorer's depth-first walk (src/wb/exhaustive.cpp): one journaling
/// EngineState, branches taken by write_node and undone by rewind. With
/// `timers` every engine call is timed; without, the walk is the untraced
/// baseline of the tracing overhead.
template <typename Out>
class InstrumentedSweep {
 public:
  InstrumentedSweep(const wb::Graph& g, const wb::ProtocolWithOutput<Out>& p,
                    const std::function<bool(const Out&)>& check,
                    EngineTimers* timers)
      : state_(g, p), p_(p), check_(check), timers_(timers),
        n_(g.node_count()) {
    state_.set_journaling(true);
  }

  void run() { explore(0); }

  std::uint64_t executions = 0;
  std::uint64_t failures = 0;
  std::vector<wb::Hash128> hashes;

 private:
  OpTimer* op(OpTimer EngineTimers::*timer) const {
    return timers_ == nullptr ? nullptr : &(timers_->*timer);
  }

  void explore(std::size_t depth) {
    const wb::EngineState::Checkpoint pre_round = state_.checkpoint();
    timed(op(&EngineTimers::begin_round), [&] { state_.begin_round(); });
    if (state_.terminal()) {
      timed(op(&EngineTimers::finish), [&] { state_.finish_into(scratch_); });
      visit();
      timed(op(&EngineTimers::rewind), [&] { state_.rewind(pre_round); });
      return;
    }
    if (frames_.size() <= depth) frames_.emplace_back();
    frames_[depth].assign(state_.candidates().begin(),
                          state_.candidates().end());
    const wb::EngineState::Checkpoint pre_write = state_.checkpoint();
    for (std::size_t i = 0; i < frames_[depth].size(); ++i) {
      const wb::NodeId v = frames_[depth][i];
      timed(op(&EngineTimers::write), [&] { state_.write_node(v); });
      explore(depth + 1);
      timed(op(&EngineTimers::rewind), [&] { state_.rewind(pre_write); });
    }
    timed(op(&EngineTimers::rewind), [&] { state_.rewind(pre_round); });
  }

  void visit() {
    ++executions;
    hashes.push_back(scratch_.board.content_hash());
    if (!scratch_.ok() || !check_(p_.output(scratch_.board, n_))) ++failures;
    // Hand the board storage back so the engine rewinds in place.
    scratch_.board = wb::Whiteboard();
  }

  wb::EngineState state_;
  const wb::ProtocolWithOutput<Out>& p_;
  const std::function<bool(const Out&)>& check_;
  EngineTimers* timers_;
  std::size_t n_;
  wb::ExecutionResult scratch_;
  std::vector<std::vector<wb::NodeId>> frames_;
};

// --- the run --------------------------------------------------------------------

/// What the traced run found: per-layer metrics, the totals run.py pins,
/// and any disagreement between two paths that must agree.
struct Findings {
  Json metrics;  // times and ratios
  Json counts;   // exact counts, which must repeat run to run
  Totals totals;
  std::vector<std::string> problems;

  Findings& num(const std::string& name, double value) {
    metrics.num(name, value);
    return *this;
  }
  Findings& count(const std::string& name, std::uint64_t value) {
    counts.count(name, value);
    return *this;
  }

  void expect(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct Context {
  const Args& args;
  const Inputs& in;
  Tracer& tracer;
  Findings& f;
  std::uint64_t seed;
  std::size_t threads;
  std::uint64_t budget;
};

/// Bytes the allocator currently hands out, in its arenas and in mmapped
/// blocks: the difference across a call is the memory the call kept.
std::uint64_t allocated_bytes() {
  const struct mallinfo2 m = ::mallinfo2();
  return m.uordblks + m.hblkhd;
}

void trace_graph(Context& cx) {
  wb::Graph big(0);
  const double gen_s = span(cx.tracer, "graph.gen", [&] {
    big = seeded_graph(cx.args.str("load"), cx.seed);
  });
  const std::filesystem::path file =
      std::filesystem::path(cx.args.str("work")) /
      ("traced-" + std::to_string(cx.seed) + ".el");
  span(cx.tracer, "graph.write", [&] {
    std::ofstream out(file, std::ios::binary);
    wb::write_edge_list(big, out);
  });
  const double bytes = static_cast<double>(std::filesystem::file_size(file));
  wb::EdgeListLoadStats stats;
  wb::Graph loaded(0);
  const double load_s = span(cx.tracer, "graph.load", [&] {
    std::ifstream in(file, std::ios::binary);
    loaded = wb::read_edge_list(in, {}, &stats);
  });
  std::filesystem::remove(file);
  cx.f.expect(loaded == big, "edge-list round trip changed the graph");
  cx.f.num("graph.gen_s", gen_s)
      .num("graph.load_s", load_s)
      .num("graph.load_mb_per_s", ratio(bytes / 1e6, load_s))
      .num("graph.build_peak_over_csr",
           ratio(static_cast<double>(stats.build.peak_bytes),
                 static_cast<double>(loaded.memory_bytes())));
  cx.f.totals["load_nodes"] = loaded.node_count();
  cx.f.totals["load_edges"] = loaded.edge_count();
}

/// Everything on the sweep instance: enumeration at 1 and T threads, the
/// task partition, the distinct accumulators, the instrumented engine walk
/// with the protocol decorator, the BDD backend, shards and the fleet.
template <typename Out>
void trace_sweep(Context& cx, const wb::Graph& g, const Instance& in,
                 const Case<Out>& c, EngineTimers& engine) {
  Tracer& tr = cx.tracer;
  Findings& f = cx.f;
  wb::cli::ExhaustiveRunOptions ropts;
  ropts.max_executions = cx.budget;
  ropts.threads = 1;
  wb::cli::RunReport serial;
  const double t1 = span(tr, "exhaustive.enumerate_1", [&] {
    serial = wb::cli::run_protocol_spec_exhaustive(in.protocol, g, ropts);
  });
  ropts.threads = cx.threads;
  wb::cli::RunReport parallel;
  const double tpar = span(tr, "exhaustive.enumerate_par", [&] {
    parallel = wb::cli::run_protocol_spec_exhaustive(in.protocol, g, ropts);
  });
  const Totals serial_totals = sweep_totals(serial);
  const std::uint64_t executions = serial_totals.at("executions");
  const std::uint64_t distinct = serial_totals.at("distinct");
  f.totals.insert(serial_totals.begin(), serial_totals.end());
  f.expect(sweep_totals(parallel) == serial_totals,
           "enumerate_par disagrees with enumerate_1");

  // Per-task serial sweeps: the load balance the parallel sweep gets.
  std::vector<wb::PrefixTask> tasks;
  span(tr, "exhaustive.partition", [&] {
    tasks = wb::partition_for_threads(g, c.protocol, {}, cx.threads);
  });
  std::vector<std::unique_ptr<wb::DistinctAccumulator>> accs;
  std::vector<double> task_s;
  wb::ExhaustiveOptions eopts;
  eopts.threads = 1;
  eopts.max_executions = cx.budget;
  for (const wb::PrefixTask& task : tasks) {
    accs.push_back(wb::make_distinct_accumulator({}));
    wb::DistinctAccumulator& acc = *accs.back();
    task_s.push_back(span(tr, "exhaustive.task", [&] {
      (void)wb::for_each_execution_under(
          g, c.protocol, std::span<const wb::PrefixTask>(&task, 1),
          [&acc](const wb::ExecutionResult& r, std::size_t) {
            acc.insert(r.board.content_hash());
            return true;
          },
          eopts);
    }));
  }
  double task_total = 0;
  for (const double s : task_s) task_total += s;
  const double task_max = *std::max_element(task_s.begin(), task_s.end());
  std::uint64_t keys = 0;
  const double merge_s = span(tr, "distinct.merge", [&] {
    for (std::size_t t = 1; t < accs.size(); ++t) {
      accs[0]->merge(std::move(*accs[t]));
    }
    keys = accs[0]->estimate();
  });
  f.expect(keys == distinct, "per-task distinct merge disagrees");
  f.count("exhaustive.tasks", tasks.size())
      .count("exhaustive.executions", executions)
      .num("exhaustive.task_max_over_mean",
           ratio(task_max, task_total / static_cast<double>(task_s.size())))
      .num("exhaustive.parallel_efficiency",
           ratio(t1, static_cast<double>(cx.threads) * tpar))
      .num("exhaustive.visit_ns", ratio(t1 * 1e9, static_cast<double>(executions)));

  // The walk untraced, then traced: engine calls and protocol callbacks,
  // per call. The difference is the tracing overhead.
  // The baseline is timed without a span, so it counts towards no layer.
  InstrumentedSweep<Out> plain(g, c.protocol, c.check, nullptr);
  const Clock::time_point plain_start = Clock::now();
  plain.run();
  const double plain_s = seconds_since(plain_start);
  CountingProtocol<Out> counting(c.protocol);
  InstrumentedSweep<Out> walk(g, counting, c.check, &engine);
  const double traced_s = span(tr, "engine.sweep", [&] {
    walk.run();
    tr.aggregate("protocols.activate", counting.activate_.seconds);
    tr.aggregate("protocols.compose", counting.compose_.seconds);
    tr.aggregate("protocols.output", counting.output_.seconds);
  });
  f.expect(walk.executions == executions && walk.failures == 0 &&
               plain.executions == executions,
           "instrumented walk disagrees with enumerate_1");
  f.count("protocols.sweep_compose_calls", counting.compose_.calls);
  f.num("trace.overhead_s", traced_s - plain_s)
      .num("trace.overhead_ratio", ratio(traced_s - plain_s, plain_s));

  // The walk's keys replayed into a fresh exact accumulator; the allocator's
  // growth across the fill is the memory the accumulator holds.
  wb::ExactDistinctAccumulator exact;
  std::uint64_t held = 0;
  const double insert_s = span(tr, "distinct.insert", [&] {
    const std::uint64_t before = allocated_bytes();
    for (const wb::Hash128& h : walk.hashes) exact.insert(h);
    const std::uint64_t keys = exact.estimate();
    held = allocated_bytes() - before;
    f.expect(keys == distinct, "replayed distinct count differs");
  });
  f.count("distinct.inserts", walk.hashes.size())
      .count("distinct.keys", distinct)
      .num("distinct.insert_ns",
           ratio(insert_s * 1e9, static_cast<double>(walk.hashes.size())))
      .num("distinct.merge_s", merge_s)
      .count("distinct.bytes", held);

  // The BDD backend on the same instance.
  wb::sym::SymbolicTotals sym;
  span(tr, "sym.sweep", [&] {
    sym = wb::sym::symbolic_sweep(
        g, c.protocol,
        [&](const wb::ExecutionResult& r) {
          return c.check(c.protocol.output(r.board, g.node_count()));
        });
  });
  f.expect(sym.executions == executions && sym.distinct == distinct &&
               sym.engine_failures + sym.wrong_outputs == 0,
           "symbolic totals disagree with enumerate_1");
  f.count("sym.vars", sym.vars)
      .count("sym.layers", sym.layers)
      .count("sym.bdd_nodes", sym.bdd.nodes)
      .count("sym.ite_calls", sym.bdd.ite_calls)
      .num("sym.cache_hit_ratio",
           ratio(static_cast<double>(sym.bdd.cache_hits),
                 static_cast<double>(sym.bdd.cache_lookups)))
      .num("sym.unique_hit_ratio",
           ratio(static_cast<double>(sym.bdd.unique_hits),
                 static_cast<double>(sym.bdd.unique_hits +
                                     sym.bdd.unique_misses)));

  // Shards in process: plan, serialize, run, parse, merge.
  std::vector<wb::shard::ShardSpec> specs;
  const double plan_s = span(tr, "shard.plan", [&] {
    specs = plan_shards(in, g, cx.threads, cx.budget);
  });
  wb::fleet::PlanInputs plan;
  double serialize_s =
      span(tr, "shard.serialize", [&] { plan = fleet_plan(specs); });
  const std::vector<std::string>& spec_docs = plan.spec_documents;
  std::vector<wb::shard::ShardResult> results;
  double run_max = 0;
  for (const auto& s : specs) {
    run_max = std::max(run_max, span(tr, "shard.run", [&] {
                         results.push_back(
                             wb::cli::run_protocol_spec_shard(s, 1));
                       }));
  }
  std::vector<std::string> result_docs;
  serialize_s += span(tr, "shard.serialize", [&] {
    for (const auto& r : results) {
      result_docs.push_back(wb::shard::serialize(r));
    }
  });
  std::vector<wb::shard::ShardResult> parsed;
  const double parse_s = span(tr, "shard.parse", [&] {
    for (const auto& d : spec_docs) (void)wb::shard::parse_shard_spec(d);
    for (const auto& d : result_docs) {
      parsed.push_back(wb::shard::parse_shard_result(d));
    }
  });
  wb::shard::MergedResult merged;
  const double shard_merge_s = span(tr, "shard.merge", [&] {
    merged = wb::shard::merge_shard_results(parsed);
  });
  f.expect(merged.executions == executions &&
               merged.distinct_boards == distinct,
           "merged shard totals disagree with enumerate_1");
  std::uint64_t spec_bytes = 0;
  std::uint64_t result_bytes = 0;
  for (const auto& d : spec_docs) spec_bytes += d.size();
  for (const auto& d : result_docs) result_bytes += d.size();
  f.num("shard.plan_s", plan_s)
      .count("shard.spec_bytes", spec_bytes)
      .count("shard.result_bytes", result_bytes)
      .num("shard.serialize_s", serialize_s)
      .num("shard.parse_s", parse_s)
      .num("shard.run_s_max", run_max)
      .num("shard.merge_s", shard_merge_s);

  // The fleet, observed through its callbacks.
  std::map<std::size_t, double> first_dispatch;
  std::map<std::uint32_t, double> dispatched;
  double rtt_max = 0;
  std::uint64_t lost = 0;
  const Clock::time_point fleet_start = Clock::now();
  wb::fleet::FleetObserver observer;
  observer.on_dispatch = [&](std::size_t worker, const std::string&,
                             std::uint32_t shard, int) {
    const double at = seconds_since(fleet_start);
    first_dispatch.emplace(worker, at);
    dispatched[shard] = at;
  };
  observer.on_result = [&](const std::string&, std::uint32_t shard) {
    rtt_max = std::max(rtt_max, seconds_since(fleet_start) - dispatched[shard]);
  };
  observer.on_worker_lost = [&](std::size_t, const std::string&) { ++lost; };
  wb::fleet::FleetOptions fopts;
  fopts.workers = cx.threads;
  std::vector<wb::fleet::PlanOutcome> outcomes;
  span(tr, "fleet.run", [&] {
    outcomes = wb::fleet::run_fleet({plan}, fopts, self_launcher(), observer);
  });
  const bool fleet_ok = outcomes.size() == 1 && outcomes[0].completed &&
                        !outcomes[0].budget_exceeded;
  f.expect(fleet_ok && outcomes[0].merged.executions == executions &&
               outcomes[0].merged.distinct_boards == distinct,
           "fleet totals disagree with enumerate_1");
  double spawn_s = 0;
  for (const auto& [worker, at] : first_dispatch) spawn_s = std::max(spawn_s, at);
  std::vector<std::string> frames;
  const double encode_s = span(tr, "fleet.encode", [&] {
    for (const auto& d : spec_docs) {
      frames.push_back(
          wb::fleet::encode_frame({wb::fleet::FrameType::kSpec, d}));
    }
    for (const auto& d : result_docs) {
      frames.push_back(
          wb::fleet::encode_frame({wb::fleet::FrameType::kResult, d}));
    }
  });
  std::uint64_t frame_bytes = 0;
  std::size_t decoded = 0;
  const double decode_s = span(tr, "fleet.decode", [&] {
    wb::fleet::FrameDecoder decoder;
    for (const auto& fr : frames) {
      frame_bytes += fr.size();
      decoder.feed(fr);
      while (decoder.next()) ++decoded;
    }
  });
  f.expect(decoded == frames.size(), "frame decoder lost frames");
  f.num("fleet.spawn_s", spawn_s)
      .num("fleet.shard_rtt_s_max", rtt_max)
      .count("fleet.frame_bytes", frame_bytes)
      .num("fleet.encode_s", encode_s)
      .num("fleet.decode_s", decode_s)
      .count("fleet.reissues", fleet_ok ? outcomes[0].reissues : 0)
      .count("fleet.workers_lost", lost);
}

template <typename Out>
void trace_memo(Context& cx, const wb::Graph& g, const Case<Out>& c) {
  wb::ExhaustiveOptions opts;
  opts.threads = 1;
  opts.memoize = true;
  opts.max_executions = cx.in.memo_budget;
  wb::MemoizedTotals memo;
  span(cx.tracer, "memo.sweep", [&] {
    memo = wb::sweep_memoized(
        g, c.protocol,
        [&](const wb::ExecutionResult& r) {
          return c.check(c.protocol.output(r.board, g.node_count()));
        },
        opts);
  });
  cx.f.totals["memo_executions"] = memo.executions;
  cx.f.totals["memo_distinct"] = memo.distinct;
  cx.f.totals["memo_failures"] = memo.engine_failures + memo.wrong_outputs;
  cx.f.count("memo.states", memo.states_explored)
      .count("memo.hits", memo.memo_hits)
      .num("memo.hit_ratio",
           ratio(static_cast<double>(memo.memo_hits),
                 static_cast<double>(memo.memo_hits + memo.states_explored)))
      .count("memo.terminals", memo.terminals_visited);
}

/// The standard battery, in parallel as users run it and trial by trial.
struct BatteryTally {
  std::uint64_t trials = 0;
  std::uint64_t correct = 0;
  double parallel_s = 0;
  std::vector<double> trial_s;
};

template <typename Out>
void trace_battery(Context& cx, const wb::Graph& g, const Instance& in,
                   const Case<Out>& c, BatteryTally& tally) {
  wb::BatchOptions opts;
  opts.threads = cx.threads;
  opts.seed = cx.seed;
  tally.parallel_s += span(cx.tracer, "batch.battery", [&] {
    (void)wb::cli::run_protocol_spec_battery(in.protocol, g, cx.seed, opts);
  });
  opts.threads = 1;
  for (std::size_t i = 0; i < wb::standard_adversary_count(); ++i) {
    const auto adversary = wb::standard_adversary(g, cx.seed, i);
    wb::Trial trial;
    trial.graph = &g;
    trial.protocol = &c.protocol;
    trial.adversary = adversary.get();
    std::vector<wb::ExecutionResult> results;
    tally.trial_s.push_back(span(cx.tracer, "batch.trial", [&] {
      results = wb::run_batch(std::span<const wb::Trial>(&trial, 1), opts);
    }));
    ++tally.trials;
    const wb::ExecutionResult& r = results.at(0);
    if (r.ok() && c.check(c.protocol.output(r.board, g.node_count()))) {
      ++tally.correct;
    }
  }
}

/// Single runs driven round by round, under seeded random adversaries.
template <typename Out>
void trace_single(Context& cx, const wb::Graph& g, const Case<Out>& c,
                  EngineTimers& timers) {
  CountingProtocol<Out> counting(c.protocol);
  const std::size_t runs = cx.args.u64("runs");
  std::uint64_t correct = 0;
  span(cx.tracer, "engine.runs", [&] {
    for (std::size_t i = 0; i < runs; ++i) {
      wb::RandomAdversary adversary(wb::trial_seed(cx.seed, i));
      wb::EngineState s(g, counting);
      while (true) {
        timed(&timers.begin_round, [&] { s.begin_round(); });
        if (s.terminal()) break;
        const std::size_t pick =
            adversary.choose(s.candidates(), s.board(), s.round());
        timed(&timers.write, [&] { s.write(pick); });
      }
      const wb::ExecutionResult r =
          timed(&timers.finish, [&] { return std::move(s).finish(); });
      if (r.ok() && c.check(counting.output(r.board, g.node_count()))) {
        ++correct;
      }
    }
    cx.tracer.aggregate("protocols.activate", counting.activate_.seconds);
    cx.tracer.aggregate("protocols.compose", counting.compose_.seconds);
    cx.tracer.aggregate("protocols.output", counting.output_.seconds);
  });
  cx.f.totals["single_runs"] = runs;
  cx.f.totals["single_correct"] = correct;
  const double n = static_cast<double>(runs);
  cx.f
      .num("protocols.compose_calls_per_run",
           static_cast<double>(counting.compose_.calls) / n)
      .num("protocols.activate_calls_per_run",
           static_cast<double>(counting.activate_.calls) / n)
      .num("protocols.compose_ns", counting.compose_.mean_ns())
      .num("protocols.output_ns", counting.output_.mean_ns())
      .num("engine.run_begin_round_ns", timers.begin_round.mean_ns());
}

void trace_verdicts(Context& cx) {
  std::istringstream golden(read_file(cx.args.str("golden")));
  std::uint64_t cells = 0;
  std::uint64_t statistical = 0;
  std::uint64_t worlds = 0;
  std::uint64_t trials = 0;
  std::uint64_t matched = 0;
  double cell_max = 0;
  std::string line;
  while (std::getline(golden, line)) {
    std::istringstream words(line);
    std::string tag, protocol, graph, faults;
    words >> tag >> protocol >> graph >> faults;
    if (tag != "cell") continue;
    wb::cli::VerdictCell cell;
    cell_max = std::max(cell_max, span(cx.tracer, "verdicts.cell", [&] {
                          cell = wb::cli::run_verdict_cell(
                              protocol, graph, wb::parse_fault_spec(faults),
                              cx.threads);
                        }));
    ++cells;
    statistical += cell.statistical ? 1 : 0;
    worlds += cell.worlds;
    trials += cell.verdict_trials;
    matched += wb::cli::format_verdict_cell(cell) == line + "\n" ? 1 : 0;
  }
  cx.f.totals["verdict_cells"] = cells;
  cx.f.totals["verdict_cells_matched"] = matched;
  cx.f.count("verdicts.cells", cells)
      .count("verdicts.statistical_cells", statistical)
      .num("verdicts.cell_s_max", cell_max)
      .count("faults.worlds", worlds)
      .count("faults.trials", trials);
}

}  // namespace

std::string run_traced(const Args& args) {
  Tracer tracer;
  Findings f;
  const Inputs in(args);
  Context cx{args, in, tracer, f, in.seed, in.threads, in.budget};

  trace_graph(cx);

  EngineTimers sweep_timers;
  with_case(in.sweep.protocol, in.sweep_graph, [&](const auto& c) {
    trace_sweep(cx, in.sweep_graph, in.sweep, c, sweep_timers);
    return 0;
  });
  with_case(in.memo.protocol, in.memo_graph, [&](const auto& c) {
    trace_memo(cx, in.memo_graph, c);
    return 0;
  });

  BatteryTally battery;
  for (std::size_t i = 0; i < in.battery.size(); ++i) {
    const wb::Graph& g = in.battery_graphs[i];
    with_case(in.battery[i].protocol, g, [&](const auto& c) {
      trace_battery(cx, g, in.battery[i], c, battery);
      return 0;
    });
  }
  f.totals["battery_trials"] = battery.trials;
  f.totals["battery_correct"] = battery.correct;
  double trial_total = 0;
  for (const double s : battery.trial_s) trial_total += s;
  f.count("batch.trials", battery.trials)
      .num("batch.trial_max_over_p50",
           ratio(*std::max_element(battery.trial_s.begin(),
                                   battery.trial_s.end()),
                 median(battery.trial_s)))
      .num("batch.pool_busy_ratio",
           ratio(trial_total,
                 static_cast<double>(cx.threads) * battery.parallel_s));

  EngineTimers run_timers;
  with_case(in.single.protocol, in.single_graph, [&](const auto& c) {
    trace_single(cx, in.single_graph, c, run_timers);
    return 0;
  });
  f
      .count("engine.rounds",
             sweep_timers.begin_round.calls + run_timers.begin_round.calls)
      .num("engine.begin_round_ns", sweep_timers.begin_round.mean_ns())
      .num("engine.write_ns", sweep_timers.write.mean_ns())
      .num("engine.rewind_ns", sweep_timers.rewind.mean_ns())
      .num("engine.finish_ns", sweep_timers.finish.mean_ns());

  trace_verdicts(cx);

  for (const auto& [layer, seconds] : tracer.self_times()) {
    f.num(layer + ".self_s", seconds);
  }
  f.count("trace.spans", tracer.size());
  tracer.write(args.str("trace-out"));

  Json totals;
  for (const auto& [key, value] : f.totals) totals.count(key, value);
  std::string problems = "[";
  for (std::size_t i = 0; i < f.problems.size(); ++i) {
    if (i > 0) problems += ',';
    problems += json_quote(f.problems[i]);
  }
  problems += ']';
  Json out;
  out.text("command", "traced")
      .raw("metrics", f.metrics.str())
      .raw("counts", f.counts.str())
      .raw("totals", totals.str())
      .raw("problems", problems);
  return out.str();
}

}  // namespace wbperf
