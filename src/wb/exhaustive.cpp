#include "src/wb/exhaustive.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/support/thread_pool.h"

namespace wb {

namespace {

/// State shared by every subtree task of one sweep. The counter is the
/// single source of truth for both the returned total and the budget guard,
/// so each is thread-count independent; the stop flag is how an early exit,
/// a budget overrun, or a throwing visitor cancels sibling subtrees.
/// Every worker bumps `visited` on every visit and memo hit, and polls `stop`
/// at every state: each gets a cache line of its own, so the polls do not
/// miss on the bumps, and neither shares a line with the caller's stack
/// variables that visitors read (a sweep's leaf vector, its classifier).
struct alignas(64) ExploreControl {
  std::uint64_t budget = 0;
  alignas(64) std::atomic<std::uint64_t> visited{0};
  alignas(64) std::atomic<bool> stop{false};
};

struct KeyHasher {
  std::size_t operator()(const Hash128& h) const noexcept {
    return static_cast<std::size_t>(h.lo ^ h.hi);
  }
};

/// The memo table of one judge_executions_under call, shared by every task
/// of the call: EngineState::memo_key() -> subtree Tally. A Tally is a pure
/// function of its key, so two tasks racing on one key can only expand it
/// twice, never change a count. A call on several workers stripes the table
/// over kStripes maps picked by the key's high bits, each under its own
/// lock; a one-worker call keeps one map and takes no lock.
class MemoTable {
 public:
  explicit MemoTable(bool concurrent)
      : stripes_(concurrent ? kStripes : 1), concurrent_(concurrent) {}

  [[nodiscard]] std::optional<Tally> find(const Hash128& key) {
    Stripe& s = stripe_of(key);
    const std::unique_lock<std::mutex> lock = lock_of(s);
    const auto it = s.map.find(key);
    if (it == s.map.end()) return std::nullopt;
    return it->second;
  }

  void insert(const Hash128& key, const Tally& tally) {
    Stripe& s = stripe_of(key);
    const std::unique_lock<std::mutex> lock = lock_of(s);
    s.map.emplace(key, tally);
  }

 private:
  static constexpr std::size_t kStripes = 64;

  struct alignas(64) Stripe {
    std::mutex mu;
    std::unordered_map<Hash128, Tally, KeyHasher> map;
  };

  Stripe& stripe_of(const Hash128& key) {
    return stripes_[concurrent_ ? key.hi >> 58 : 0];
  }
  std::unique_lock<std::mutex> lock_of(Stripe& s) const {
    return concurrent_ ? std::unique_lock<std::mutex>(s.mu)
                       : std::unique_lock<std::mutex>();
  }

  std::vector<Stripe> stripes_;
  bool concurrent_;
};

// Depth-first over adversary choices on ONE journaling EngineState: branches
// are taken by write_node() and undone by rewind(), never by copying the
// state. rewind() restores the candidate set, so each frame iterates
// candidates() by index across its writes, and the scratch ExecutionResult
// is pooled: a steady-state visit allocates nothing. In a parallel sweep
// each subtree task owns one Backtracker seeded by replaying the task's
// decision prefix. Given a SweepMemo and the call's MemoTable, the task
// also memoizes: every expanded state records its subtree's tally (the sum
// of the verdicts the visitor tallied) under EngineState::memo_key(), and a
// state seen before — by this task or a sibling — is credited from the
// table instead of walked.
class Backtracker {
 public:
  Backtracker(const Graph& g, const Protocol& p, const EngineOptions& eopts,
              ExploreControl& ctl, const JudgeVisitor& visit, std::size_t task,
              SweepMemo* memo, MemoTable* table, bool stagger)
      : state_(g, p, eopts),
        ctl_(&ctl),
        visit_(&visit),
        task_(task),
        memo_(memo),
        table_(table),
        stagger_(stagger ? task : 0) {
    state_.set_journaling(true);
  }

  /// Replay `prefix` (one adversary decision per round) and exhaust the
  /// subtree below it, returning its tally. The prefix must consist of
  /// decisions recorded from non-terminal rounds of this (graph, protocol).
  Tally run(std::span<const NodeId> prefix) {
    for (const NodeId v : prefix) {
      state_.begin_round();
      WB_CHECK_MSG(!state_.terminal(),
                   "subtree prefix reached a terminal state");
      state_.write_node(v);
    }
    const Tally tally = explore();
    if (memo_ != nullptr) {
      memo_->states.fetch_add(states_, std::memory_order_relaxed);
      memo_->hits.fetch_add(hits_, std::memory_order_relaxed);
    }
    return tally;
  }

 private:
  // Invariant: explore() returns with the state rewound to how it found it,
  // and returns the tally of the subtree it walked.
  Tally explore() {
    if (ctl_->stop.load(std::memory_order_relaxed)) return {};
    if (state_.terminal()) {
      // The write that led here ended the run (a synchronous message is
      // composed at its write): that choice is an execution of its own.
      return visit_terminal();
    }
    const EngineState::Checkpoint pre_round = state_.checkpoint();
    state_.begin_round();
    if (state_.terminal()) {
      const Tally leaf = visit_terminal();
      state_.rewind(pre_round);
      return leaf;
    }
    const bool memoize = memoizing();
    Hash128 key{};
    if (memoize) {
      key = state_.memo_key();
      if (const std::optional<Tally> hit = table_->find(key)) {
        // The subtree below an identical state: the same terminals, so the
        // same tally — and the task that stored it, in this same call,
        // already put its boards in that task's aggregates.
        charge(hit->executions);
        count(memo_->hits, hits_);
        state_.rewind(pre_round);
        return *hit;
      }
      count(memo_->states, states_);
    }
    Tally sum;
    // Re-fetched each iteration: the write and the subtree below change the
    // candidate set, and rewind(pre_write) restores it. A memoizing task
    // that shares its table with concurrent siblings starts every frame at
    // its own candidate, so the workers expand different states first and
    // meet mostly at states already stored; otherwise in DFS order.
    const EngineState::Checkpoint pre_write = state_.checkpoint();
    const std::size_t n = state_.candidates().size();
    std::size_t i = memoize ? stagger_ % n : 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (ctl_->stop.load(std::memory_order_relaxed)) break;
      state_.write_node(state_.candidates()[i]);
      sum += explore();
      state_.rewind(pre_write);
      if (++i == n) i = 0;
    }
    // A stopped walk counted only part of the subtree; the probe may have
    // switched the memo off meanwhile.
    if (memoize && memo_ != nullptr &&
        !ctl_->stop.load(std::memory_order_relaxed)) {
      table_->insert(key, sum);
    }
    state_.rewind(pre_round);
    return sum;
  }

  /// The sweep-wide probe: once SweepMemo::kProbeStates states were
  /// memoized without a single hit in any task, stop reading and inserting
  /// and walk plainly; the first hit keeps the memo on for good.
  bool memoizing() {
    if (memo_ == nullptr || settled_) return memo_ != nullptr;
    if (memo_->hits.load(std::memory_order_relaxed) > 0) {
      settled_ = true;
    } else if (memo_->states.load(std::memory_order_relaxed) >=
               SweepMemo::kProbeStates) {
      memo_ = nullptr;
    }
    return memo_ != nullptr;
  }

  /// Bump a memo counter: in SweepMemo while the probe is open, since it
  /// reads them; once it settled, in this task only, added when the task
  /// ends — a shared counter bumped at every state would bounce its cache
  /// line between the workers.
  void count(std::atomic<std::uint64_t>& shared, std::uint64_t& local) {
    if (settled_) {
      ++local;
    } else {
      shared.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Reserve `n` executions in the shared count BEFORE visiting or
  /// crediting them: the sweep's return value is then exactly the number of
  /// executions visited or credited, and whether the budget guard fires
  /// depends only on the total, never on the thread count or the memo.
  void charge(std::uint64_t n) {
    const std::uint64_t before =
        ctl_->visited.fetch_add(n, std::memory_order_relaxed);
    if (before <= ctl_->budget && n <= ctl_->budget - before) return;
    ctl_->visited.fetch_sub(n, std::memory_order_relaxed);
    ctl_->stop.store(true, std::memory_order_relaxed);
    (void)checked_add(before, n, "execution");  // past 2^64 - 1: DataError
    throw BudgetExceededError(ctl_->budget);
  }

  Tally visit_terminal() {
    charge(1);
    state_.finish_into(scratch_);
    Tally leaf;
    bool keep_going = false;
    try {
      keep_going = (*visit_)(scratch_, task_, leaf);
    } catch (...) {
      ctl_->stop.store(true, std::memory_order_relaxed);
      scratch_.board = Whiteboard();
      throw;
    }
    if (!keep_going) ctl_->stop.store(true, std::memory_order_release);
    // Release our share of the board storage so the engine is again its
    // sole owner and rewinds in place. (A visitor that kept a copy of the
    // result still owns a consistent snapshot — copy-on-write.)
    scratch_.board = Whiteboard();
    return leaf;
  }

  EngineState state_;
  ExploreControl* ctl_;
  const JudgeVisitor* visit_;
  std::size_t task_;
  ExecutionResult scratch_;
  SweepMemo* memo_;           // null: walk plainly
  MemoTable* table_;          // the call's table, shared with sibling tasks
  std::size_t stagger_;       // first candidate of each memoized frame
  bool settled_ = false;      // a hit was seen: the probe is over
  std::uint64_t states_ = 0;  // counts since the probe settled
  std::uint64_t hits_ = 0;
};

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

std::vector<PrefixTask> partition_for_threads(const Graph& g,
                                              const Protocol& p,
                                              const EngineOptions& eopts,
                                              std::size_t threads) {
  const std::size_t workers = resolve_threads(threads);
  if (workers <= 1) {
    return {PrefixTask{}};  // depth 0: the entire schedule tree, serially
  }
  // Several tasks per worker, so dynamic claiming load-balances subtrees of
  // uneven size.
  return partition_executions(g, p, eopts, workers * 4);
}

std::vector<PrefixTask> partition_executions(const Graph& g, const Protocol& p,
                                             const EngineOptions& eopts,
                                             std::size_t target_tasks) {
  std::vector<PrefixTask> tasks;
  EngineState s(g, p, eopts);
  s.set_journaling(true);
  s.begin_round();
  if (s.terminal()) {
    // A single execution; the depth-0 task keeps the tiling invariant.
    tasks.push_back(PrefixTask{});
    return tasks;
  }
  if (s.candidates().size() >= target_tasks) {
    for (const NodeId v : s.candidates()) {
      tasks.push_back(PrefixTask{{v, kNoNode}, 1});
    }
    return tasks;
  }
  const EngineState::Checkpoint root = s.checkpoint();
  for (std::size_t i = 0; i < s.candidates().size(); ++i) {
    const NodeId v = s.candidates()[i];
    s.write_node(v);
    s.begin_round();
    if (s.terminal()) {
      tasks.push_back(PrefixTask{{v, kNoNode}, 1});
    } else {
      for (const NodeId u : s.candidates()) {
        tasks.push_back(PrefixTask{{v, u}, 2});
      }
    }
    s.rewind(root);
  }
  return tasks;
}

std::uint64_t judge_executions_under(const Graph& g, const Protocol& p,
                                     std::span<const PrefixTask> tasks,
                                     const JudgeVisitor& visit,
                                     SweepMemo& memo,
                                     const ExhaustiveOptions& opts) {
  ExploreControl ctl;
  ctl.budget = opts.max_executions;
  memo.tallies.assign(tasks.size(), Tally{});
  const std::size_t threads = resolve_threads(opts.threads);
  const bool concurrent = threads > 1 && tasks.size() > 1;
  // One table for every task of this call, freed when it returns: a hit
  // credits only subtrees this call has already walked.
  std::optional<MemoTable> table;
  if (memo.enabled) table.emplace(concurrent);
  // A task runs on one worker, so visits are concurrent only across task
  // indices. The visited set, the shared count, and whether the budget guard
  // fires are identical for any thread count; only the inter-task visit
  // order (and with it which task expands a shared state) varies.
  const auto run_task = [&](std::size_t t) {
    if (ctl.stop.load(std::memory_order_relaxed)) return;
    Backtracker bt(g, p, opts.engine, ctl, visit, t, table ? &memo : nullptr,
                   table ? &*table : nullptr, concurrent);
    memo.tallies[t] = bt.run(tasks[t].prefix());
  };
  if (concurrent) {
    ThreadPool::shared().parallel_for(tasks.size(), run_task, threads);
  } else {
    for (std::size_t t = 0; t < tasks.size(); ++t) run_task(t);
  }
  return ctl.visited.load(std::memory_order_relaxed);
}

std::uint64_t for_each_execution_under(
    const Graph& g, const Protocol& p, std::span<const PrefixTask> tasks,
    const std::function<bool(const ExecutionResult&, std::size_t)>& visit,
    const ExhaustiveOptions& opts) {
  SweepMemo plain;
  plain.enabled = false;
  return judge_executions_under(
      g, p, tasks,
      [&visit](const ExecutionResult& r, std::size_t t, Tally&) {
        return visit(r, t);
      },
      plain, opts);
}

std::uint64_t for_each_execution(
    const Graph& g, const Protocol& p,
    const std::function<bool(const ExecutionResult&)>& visit,
    const ExhaustiveOptions& opts) {
  return for_each_execution_under(
      g, p, partition_for_threads(g, p, opts.engine, opts.threads),
      [&visit](const ExecutionResult& r, std::size_t) { return visit(r); },
      opts);
}

bool all_executions_ok(
    const Graph& g, const Protocol& p,
    const std::function<bool(const ExecutionResult&)>& accept,
    const ExhaustiveOptions& opts) {
  std::atomic<bool> ok{true};
  for_each_execution(
      g, p,
      [&](const ExecutionResult& r) {
        if (!r.ok() || !accept(r)) {
          // Returning false sets the shared stop flag, so sibling subtrees
          // cancel at their next poll; the verdict itself cannot flip back.
          ok.store(false, std::memory_order_relaxed);
          return false;
        }
        return true;
      },
      opts);
  return ok.load(std::memory_order_relaxed);
}

MemoizedTotals sweep_memoized(
    const Graph& g, const Protocol& p,
    const std::function<bool(const ExecutionResult&)>& judge,
    const ExhaustiveOptions& opts) {
  MemoizedTotals totals;
  const std::unique_ptr<DistinctAccumulator> distinct =
      make_distinct_accumulator(opts.distinct);
  SweepMemo memo;
  const PrefixTask whole;
  totals.executions = judge_executions_under(
      g, p, {&whole, 1},
      [&](const ExecutionResult& r, std::size_t, Tally& tally) {
        ++totals.terminals_visited;
        const bool failed = !r.ok();
        tally += {1, failed ? 1u : 0u, !failed && !judge(r) ? 1u : 0u};
        distinct->insert(r.board.content_hash());
        return true;
      },
      memo, opts);
  totals.engine_failures = memo.tallies[0].engine_failures;
  totals.wrong_outputs = memo.tallies[0].wrong_outputs;
  totals.distinct = distinct->estimate();
  totals.states_explored = memo.states.load(std::memory_order_relaxed);
  totals.memo_hits = memo.hits.load(std::memory_order_relaxed);
  return totals;
}

std::uint64_t count_distinct_final_boards(const Graph& g, const Protocol& p,
                                          const ExhaustiveOptions& opts) {
  // Word-wise 128-bit keys through the configured accumulator: one per
  // subtree task (exclusive to its worker, so no locking), merged afterwards
  // by merge_accumulators' order-oblivious tree — identical counts at any
  // thread count for exact (set union) and hll (register max) alike.
  const std::vector<PrefixTask> tasks =
      partition_for_threads(g, p, opts.engine, opts.threads);
  std::vector<std::unique_ptr<DistinctAccumulator>> accumulators;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    accumulators.push_back(make_distinct_accumulator(opts.distinct));
  }
  for_each_execution_under(
      g, p, tasks,
      [&](const ExecutionResult& r, std::size_t task) {
        accumulators[task]->insert(r.board.content_hash());
        return true;
      },
      opts);
  return merge_accumulators(std::move(accumulators), opts.threads)->estimate();
}

}  // namespace wb
