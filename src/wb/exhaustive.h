// Exhaustive adversary: explore every schedule the adversary can force.
//
// A protocol solves a problem only if every execution (every sequence of
// adversarial writer choices) is successful and yields a correct output
// (§2). For small n this is checkable by brute force: the explorer branches
// on each adversary decision and visits every maximal execution. It
// backtracks one journaling EngineState (checkpoint/rewind) instead of
// copying the state at every branch, so a steady-state visit performs no
// heap allocation; tests/wb/exhaustive_test.cpp pins its visit sequence
// against a reference copy-per-branch DFS.
//
// Parallel exploration (ExhaustiveOptions::threads != 1): the schedule tree
// is partitioned at its top one or two decision levels into independent
// subtree tasks — each task is a decision prefix; a worker replays the
// prefix on its own journaling EngineState and exhausts the subtree below —
// and the tasks fan out over the shared worker pool
// (src/support/thread_pool.h). The partition depends only on (graph,
// protocol), never on the thread count, so the set of executions visited and
// the returned total are bit-identical at any thread count; only the
// inter-task visit order varies. threads == 1 is the serial reference path
// the tests oracle against.
//
// Distributed exploration (src/wb/shard.h) builds on the same partition: the
// PrefixTask list is public, and for_each_execution_under sweeps an
// arbitrary subset of subtree tasks, so shards of one sweep can run in
// different processes (or on different hosts) and be merged afterwards.
// Judged sweeps — wb::sweep (the CLI runner, shards, fleet workers, fault
// worlds) and sweep_memoized — tally through judge_executions_under, whose
// tasks share one memo table of converging states per call: anonymous-
// message protocols collapse n! schedules to their distinct states at any
// thread count, and a probe switches the memo off where no state ever
// repeats. For a Protocol::anonymous() protocol on a graph with twins the
// key counts the writers per twin class instead of naming them, so
// interchangeable writers share one state (star:n: O(n²) states for n!
// schedules).
//
// This is the strongest evidence our simulator can produce for the "yes"
// cells of Table 2, and the machinery behind the minimax searches in the
// benches.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/support/hash.h"
#include "src/wb/distinct.h"
#include "src/wb/engine.h"

namespace wb {

struct ExhaustiveOptions {
  /// Upper bound on executions to visit (the explorer throws
  /// BudgetExceededError when the bound would be exceeded — a guard against
  /// accidental n! blowups). Enforced by a shared counter in parallel runs,
  /// so whether a sweep throws is thread-count independent.
  std::uint64_t max_executions = 2'000'000;
  /// Subtree-sweep workers: 1 (default) = the serial reference path; 0 = one
  /// worker per hardware thread; k = at most k workers. With any value other
  /// than 1 the visitor may be invoked concurrently from pool workers and
  /// must be thread-safe (the library's own aggregators below already are).
  std::size_t threads = 1;
  /// Distinct-board accumulator for count_distinct_final_boards (and every
  /// layer above it): exact sorted-run dedup, or a HyperLogLog sketch whose
  /// memory is flat in the cardinality. See src/wb/distinct.h.
  DistinctConfig distinct{};
  /// Ignored: every judged sweep memoizes (judge_executions_under) and the
  /// visitor APIs never do. Kept only because the perfbench harness
  /// sets it; it goes with the next change to the benchmark contract.
  bool memoize = false;
  EngineOptions engine;
};

/// Thrown when a sweep would visit more than max_executions executions.
/// A LogicError subclass so existing "guard against blowups" handling keeps
/// working; the distributed sharding layer catches the precise type to turn
/// a worker-local overrun into a deterministic ShardResult flag.
class BudgetExceededError : public LogicError {
 public:
  explicit BudgetExceededError(std::uint64_t max_executions)
      : LogicError("exhaustive exploration budget exceeded (max_executions = " +
                   std::to_string(max_executions) + ")"),
        max_executions_(max_executions) {}
  [[nodiscard]] std::uint64_t max_executions() const noexcept {
    return max_executions_;
  }

 private:
  std::uint64_t max_executions_;
};

/// One independent subtree of the schedule tree, identified by the adversary
/// decisions leading to it (at most the top two levels). depth == 0 is the
/// whole tree.
struct PrefixTask {
  std::array<NodeId, 2> decision{kNoNode, kNoNode};
  std::size_t depth = 0;
  [[nodiscard]] std::span<const NodeId> prefix() const {
    return {decision.data(), depth};
  }
  friend bool operator==(const PrefixTask&, const PrefixTask&) = default;
};

/// Split the top of the schedule tree into independent subtree tasks: one
/// per level-1 branch when the root fan-out already feeds `target_tasks`
/// workers, else one per (level-1, level-2) decision pair. The partition
/// depends only on (graph, protocol, target_tasks) — never on scheduling —
/// and its subtrees' leaves tile the full execution set exactly once; this
/// is what makes both thread- and process-level fan-out mergeable back into
/// bit-identical totals. A root round that is already terminal (a single
/// execution) yields one depth-0 task, so the tiling property holds
/// unconditionally.
[[nodiscard]] std::vector<PrefixTask> partition_executions(
    const Graph& g, const Protocol& p, const EngineOptions& eopts,
    std::size_t target_tasks);

/// The partition a `threads`-worker sweep uses (0 = one worker per hardware
/// thread, 1 = the single whole-tree task of the serial path; otherwise
/// several tasks per worker so dynamic claiming load-balances subtrees of
/// uneven size). This is the one place the load-balancing policy lives —
/// for_each_execution and wb::partition_fault_tasks_for_threads (the CLI
/// exhaustive runner's plan) both partition through it, so a caller pairing
/// for_each_execution_under with per-task aggregation sweeps exactly the
/// library's own task shape.
[[nodiscard]] std::vector<PrefixTask> partition_for_threads(
    const Graph& g, const Protocol& p, const EngineOptions& eopts,
    std::size_t threads);

/// Visit every maximal execution of `p` on `g`. The visitor may return false
/// to stop early (e.g. after the first counterexample); the current subtree
/// unwinds and — in parallel runs — sibling subtree tasks are cancelled at
/// their next poll.
/// Returns the number of executions visited, which is exactly the number of
/// visitor invocations: bit-identical at every thread count for a full
/// sweep; under an early stop it is exact but (with threads != 1)
/// scheduling-dependent, since concurrent workers may complete visits
/// already in flight.
std::uint64_t for_each_execution(
    const Graph& g, const Protocol& p,
    const std::function<bool(const ExecutionResult&)>& visit,
    const ExhaustiveOptions& opts = {});

/// Visit every maximal execution inside the subtrees named by `tasks` (one
/// shard of a sweep whose full task list came from partition_executions).
/// The visitor receives the index of the task the execution belongs to, so
/// per-task aggregation needs no locking (a single task is always processed
/// by one worker). Budget, early stop, and the returned count behave exactly
/// as in for_each_execution; with tasks covering the whole tree the visited
/// set and total are bit-identical to it at any thread count.
std::uint64_t for_each_execution_under(
    const Graph& g, const Protocol& p, std::span<const PrefixTask> tasks,
    const std::function<bool(const ExecutionResult&, std::size_t)>& visit,
    const ExhaustiveOptions& opts = {});

/// Counts of a judged subtree: executions, and how many failed in the
/// engine or produced a wrong output. What a memo hit credits in bulk.
struct Tally {
  std::uint64_t executions = 0;
  std::uint64_t engine_failures = 0;
  std::uint64_t wrong_outputs = 0;

  Tally& operator+=(const Tally& o) {
    executions += o.executions;
    engine_failures += o.engine_failures;
    wrong_outputs += o.wrong_outputs;
    return *this;
  }
};

/// The memo switch, probe and counters of one judged sweep, shared by its
/// judge_executions_under calls (a fault sweep's worlds). The table itself
/// belongs to each call: every task of a call reads and fills the same one,
/// and it is freed when the call returns. With several tasks on several
/// workers, which task expands a shared state depends on scheduling, so
/// `states` and `hits` are exact only for a one-task or one-thread call;
/// the tallies never depend on it.
struct SweepMemo {
  /// States memoized with no hit anywhere, after which every task stops
  /// reading and inserting and walks plainly: where messages embed the
  /// writer's ID no state repeats, and the memo costs only this probe.
  static constexpr std::uint64_t kProbeStates = 1024;

  bool enabled = true;         // false: one visit per execution
  std::vector<Tally> tallies;  // out: one per task of the last call
  std::atomic<std::uint64_t> states{0};  // memoized states expanded
  std::atomic<std::uint64_t> hits{0};    // branches answered from the table
};

/// A judged sweep of the subtrees of `tasks`: as for_each_execution_under,
/// but visit(result, task, tally) also adds the terminal's verdict (one
/// execution) to `tally`, and each task's sum lands in memo.tallies. With
/// memo.enabled the call keeps one table, EngineState::memo_key() ->
/// subtree Tally, shared by all its tasks — keyed by written count per twin
/// class (twin_classes(g), computed once per call) when p.anonymous() and
/// the graph has a twin pair, else by the written set: a state any task has
/// seen before is credited and charged to the budget in bulk, its terminals
/// not visited again — so the verdict must depend only on the final state,
/// and the other aggregates must be idempotent and reach the caller only
/// through a union over all the call's tasks (a hit in one task may credit
/// boards another task visited). On several workers the table takes
/// striped locks and each task starts every frame at its own candidate, so
/// siblings expand different states first; on one worker it takes no lock
/// and tasks walk in DFS order. Tallies, the returned count and the budget guard are
/// bit-identical to the plain sweep's; a count past 2^64 - 1 throws
/// wb::DataError naming it.
using JudgeVisitor =
    std::function<bool(const ExecutionResult&, std::size_t, Tally&)>;
std::uint64_t judge_executions_under(const Graph& g, const Protocol& p,
                                     std::span<const PrefixTask> tasks,
                                     const JudgeVisitor& visit,
                                     SweepMemo& memo,
                                     const ExhaustiveOptions& opts = {});

/// True iff every execution is successful and `accept(result)` holds for all
/// of them. Stops at the first violation and cancels sibling subtrees; the
/// verdict is deterministic at any thread count. `accept` must be
/// thread-safe when opts.threads != 1.
[[nodiscard]] bool all_executions_ok(
    const Graph& g, const Protocol& p,
    const std::function<bool(const ExecutionResult&)>& accept,
    const ExhaustiveOptions& opts = {});

/// Aggregates of one memoized sweep. The first four are pinned bit-identical
/// to the unmemoized serial sweep's accounting (same executions, same
/// verdict arithmetic, same distinct count — exact or hll); the rest report
/// how much the memo collapsed the schedule tree.
struct MemoizedTotals {
  std::uint64_t executions = 0;
  std::uint64_t engine_failures = 0;  // non-success terminal statuses
  std::uint64_t wrong_outputs = 0;    // successful but judge(result) == false
  std::uint64_t distinct = 0;         // distinct final boards, per opts.distinct
  std::uint64_t states_explored = 0;  // states expanded while memoizing
  std::uint64_t memo_hits = 0;        // branches answered from the table
  std::uint64_t terminals_visited = 0;  // judge invocations (≤ executions)
};

/// The serial judged sweep with its memo counters: judge_executions_under
/// on the one whole-tree task (so opts.threads is moot), judging each
/// visited terminal — successful executions by `judge` — once per distinct
/// terminal state, not per execution. Protocols whose messages embed the
/// writer's id never collapse, and the probe switches their memo off;
/// anonymous-message protocols (anon-degree) collapse factorially, and to
/// O(n²) states on a star once their twin-class keys apply. Honors
/// opts.max_executions exactly as the unmemoized sweep does.
[[nodiscard]] MemoizedTotals sweep_memoized(
    const Graph& g, const Protocol& p,
    const std::function<bool(const ExecutionResult&)>& judge,
    const ExhaustiveOptions& opts = {});

/// Count distinct final whiteboards over all executions (by content, keyed
/// by a word-wise 128-bit hash — see src/support/hash.h), through the
/// accumulator opts.distinct selects (src/wb/distinct.h): exact sorted-run
/// dedup by default — peak memory O(distinct boards), not O(executions) —
/// or a HyperLogLog estimate whose memory is flat in the cardinality, for
/// sweeps past the exact mode's ~10^9-distinct memory wall. Either way one
/// accumulator per subtree task is folded by an order-oblivious merge, so
/// the result is bit-identical at any thread count.
/// Diagnostic for order-oblivious protocols: a SIMASYNC whiteboard is a
/// permutation of one fixed message multiset, so decoders must not depend on
/// order; this reports how much the adversary can vary the board.
[[nodiscard]] std::uint64_t count_distinct_final_boards(
    const Graph& g, const Protocol& p, const ExhaustiveOptions& opts = {});

}  // namespace wb
