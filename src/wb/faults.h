// Failure-model adapters around Protocol (ROADMAP "Scenario diversity").
//
// Everything else in-tree assumes faithful nodes and a reliable whiteboard.
// This layer drops that assumption without touching the engine's semantics:
// each failure model is an adapter that wraps an unmodified protocol, so the
// engine, the exhaustive explorer, the shard formats, and the fleet all sweep
// faulty worlds through the exact machinery that sweeps faithful ones.
//
// Three models (FaultKind):
//
//  - crash-stop (kCrash): up to f nodes never activate, so their one write is
//    gone forever — the harshest possible failure in a one-write model.
//    Because activation is invisible on the board (only writes observe), "the
//    node crashed before doing anything" is fully general. Crash worlds are
//    enumerated canonically (crash_world_count / crash_world) and folded into
//    the exhaustive/shard partition as (world, prefix) FaultTasks, or sampled
//    through the statistical engine.
//  - corruption/truncation (kCorrupt): posted messages have bits flipped or
//    are truncated at the writer (CorruptingAdapter) by seed-deterministic
//    injection (CorruptionModel).
//  - adaptive randomized adversary (kAdaptive): schedule and fault choices
//    are drawn per trial from a seeded policy and swept through the batch
//    engine; the outcome is a *statistical* verdict — failure probability
//    with a Wilson 95% confidence interval — read off the SweepTotals
//    counts, which sharded/fleet sweeps add across shards exactly like every
//    other tally.
//
// Fault-free configurations (crash:0, corrupt with p = 0) are bit-identical
// to the unadapted protocol at any thread/shard count — the adapters forward
// every callback untouched — which tests/wb/faults_test.cpp pins against the
// serial oracle.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/wb/batch.h"
#include "src/wb/exhaustive.h"
#include "src/wb/protocol.h"

namespace wb {

// ---------------------------------------------------------------------------
// Fault specs: the `faults=` grammar shared by SweepSpec, the shard
// documents, and the fleet.
// ---------------------------------------------------------------------------

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kCrash,     // crash-stop nodes
  kCorrupt,   // seed-deterministic message corruption/truncation
  kAdaptive,  // seeded random schedule + fault policy, statistical verdict
};

/// One failure model, fully parameterized. Text grammar (parse/format are
/// exact inverses; parse throws wb::DataError on malformed input):
///
///   none                         no faults (the default)
///   crash:F                      up to F crash-stop nodes, every crash set
///   corrupt:NUM/DEN[:SEED]       each message corrupted with prob NUM/DEN
///                                (SEED defaults to 1)
///   adaptive:SEED[:TRIALS]       seeded adaptive adversary, TRIALS samples
///                                (TRIALS defaults to 4096)
struct FaultSpec {
  static constexpr std::uint64_t kDefaultTrials = 4096;

  FaultKind kind = FaultKind::kNone;
  /// kCrash: maximum number of crashed nodes (every subset of size <= f).
  std::uint32_t crash_f = 0;
  /// kCorrupt: per-message corruption probability num/den (den >= 1).
  std::uint64_t prob_num = 0;
  std::uint64_t prob_den = 1;
  /// kCorrupt: injection seed. kAdaptive: policy seed.
  std::uint64_t seed = 0;
  /// kAdaptive: number of sampled trials.
  std::uint64_t trials = kDefaultTrials;

  [[nodiscard]] static FaultSpec None() { return {}; }
  [[nodiscard]] static FaultSpec Crash(std::uint32_t f) {
    FaultSpec s;
    s.kind = FaultKind::kCrash;
    s.crash_f = f;
    return s;
  }
  [[nodiscard]] static FaultSpec Corrupt(std::uint64_t num, std::uint64_t den,
                                         std::uint64_t seed = 1) {
    FaultSpec s;
    s.kind = FaultKind::kCorrupt;
    s.prob_num = num;
    s.prob_den = den;
    s.seed = seed;
    return s;
  }
  [[nodiscard]] static FaultSpec Adaptive(std::uint64_t seed,
                                          std::uint64_t trials =
                                              kDefaultTrials) {
    FaultSpec s;
    s.kind = FaultKind::kAdaptive;
    s.seed = seed;
    s.trials = trials;
    return s;
  }

  /// True when this spec can never perturb an execution: kNone, crash:0, or
  /// corrupt with probability zero. Fault-free sweeps are pinned
  /// bit-identical to the unadapted protocol.
  [[nodiscard]] bool fault_free() const {
    switch (kind) {
      case FaultKind::kNone:
        return true;
      case FaultKind::kCrash:
        return crash_f == 0;
      case FaultKind::kCorrupt:
        return prob_num == 0;
      case FaultKind::kAdaptive:
        return false;
    }
    return false;
  }

  /// Equality compares only the fields the kind actually uses, so e.g. every
  /// kNone spec is equal regardless of leftover parameter values.
  friend bool operator==(const FaultSpec& a, const FaultSpec& b) {
    if (a.kind != b.kind) return false;
    switch (a.kind) {
      case FaultKind::kNone:
        return true;
      case FaultKind::kCrash:
        return a.crash_f == b.crash_f;
      case FaultKind::kCorrupt:
        return a.prob_num == b.prob_num && a.prob_den == b.prob_den &&
               a.seed == b.seed;
      case FaultKind::kAdaptive:
        return a.seed == b.seed && a.trials == b.trials;
    }
    return false;
  }
};

/// Parse the grammar above. Throws wb::DataError with the offending field.
[[nodiscard]] FaultSpec parse_fault_spec(const std::string& text);
/// Canonical text (always the full form, e.g. "corrupt:1/8:1");
/// parse_fault_spec(fault_spec_to_string(s)) == s for every valid spec.
[[nodiscard]] std::string fault_spec_to_string(const FaultSpec& spec);

// ---------------------------------------------------------------------------
// Crash-stop worlds.
// ---------------------------------------------------------------------------

/// Number of crash sets with at most f of n nodes: sum_{k<=min(f,n)} C(n,k).
/// Throws wb::LogicError if the count overflows uint64 (use sampling there).
[[nodiscard]] std::uint64_t crash_world_count(std::size_t n, std::uint32_t f);

/// The `index`-th crash set in the canonical order: by size, then
/// lexicographically by node id. World 0 is the empty (fault-free) set.
/// Returns the crashed node ids sorted ascending.
[[nodiscard]] std::vector<NodeId> crash_world(std::size_t n, std::uint32_t f,
                                              std::uint64_t index);

/// Crash-stop adapter: the wrapped nodes never activate, so they never
/// compose and never get their one write. With a nonempty crash set the
/// simultaneous classes are rebadged to their non-simultaneous parents
/// (SIMASYNC -> ASYNC, SIMSYNC -> SYNC): the engine's round-1 "every node
/// activates" check is exactly the property a crash violates. With an empty
/// crash set every callback forwards untouched and the inner class is kept,
/// so crash:0 sweeps are bit-identical to the unadapted protocol.
class CrashStopAdapter final : public Protocol {
 public:
  CrashStopAdapter(const Protocol& inner, std::vector<NodeId> crashed);

  [[nodiscard]] ModelClass model_class() const override;
  [[nodiscard]] std::size_t message_bit_limit(std::size_t n) const override {
    return inner_.message_bit_limit(n);
  }
  [[nodiscard]] bool activate(const LocalView& view,
                              const Whiteboard& board) const override;
  [[nodiscard]] Bits compose(const LocalView& view, const Whiteboard& board,
                             BitWriter& scratch) const override {
    return inner_.compose(view, board, scratch);
  }
  /// Frontier shortcuts are claimed only in the fault-free configuration —
  /// a crashed node's activation verdict is not a function of its neighbors'
  /// writes, it is pinned false.
  [[nodiscard]] FrontierLocality frontier_locality() const override {
    return crashed_.empty() ? inner_.frontier_locality() : FrontierLocality{};
  }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::span<const NodeId> crashed() const { return crashed_; }

 private:
  const Protocol& inner_;
  std::vector<NodeId> crashed_;  // sorted, deduped
};

// ---------------------------------------------------------------------------
// Corruption/truncation.
// ---------------------------------------------------------------------------

/// Flip bit `index` of `bits` (a fresh value; the input is untouched).
[[nodiscard]] Bits flip_bit(const Bits& bits, std::size_t index);
/// Truncate `bits` to its first `new_size` bits.
[[nodiscard]] Bits truncate_bits(const Bits& bits, std::size_t new_size);

/// Seed-deterministic corruption channel. Each message is corrupted with
/// probability num/den, decided by a 128-bit hash of (seed, salt, message
/// contents) — no hidden state, so the same message in the same slot is
/// corrupted the same way in every run, which keeps exhaustive sweeps over
/// corrupted worlds deterministic and shardable. A corrupted message either
/// has one bit flipped (length preserved) or is truncated (strictly
/// shorter); either way it never exceeds the original length, so the
/// engine's message_bit_limit check still passes.
struct CorruptionModel {
  std::uint64_t num = 0;
  std::uint64_t den = 1;
  std::uint64_t seed = 0;

  /// The (possibly corrupted) image of `message`. `salt` distinguishes
  /// message slots (writer id, or board position). num == 0 or an empty
  /// message returns the input unchanged.
  [[nodiscard]] Bits apply(const Bits& message, std::uint64_t salt) const;
};

/// Writer-side corruption: the wrapped protocol's composed messages pass
/// through the corruption channel (salt = writer id) before the engine posts
/// them. With num == 0 every callback result is byte-identical to the inner
/// protocol's, so corrupt:0 sweeps are bit-identical to the unadapted
/// protocol.
class CorruptingAdapter final : public Protocol {
 public:
  CorruptingAdapter(const Protocol& inner, CorruptionModel model)
      : inner_(inner), model_(model) {}

  [[nodiscard]] ModelClass model_class() const override {
    return inner_.model_class();
  }
  [[nodiscard]] std::size_t message_bit_limit(std::size_t n) const override {
    return inner_.message_bit_limit(n);
  }
  [[nodiscard]] bool activate(const LocalView& view,
                              const Whiteboard& board) const override {
    return inner_.activate(view, board);
  }
  [[nodiscard]] Bits compose(const LocalView& view, const Whiteboard& board,
                             BitWriter& scratch) const override {
    return model_.apply(inner_.compose(view, board, scratch), view.id());
  }
  /// A corrupted message can change any reader's decode, and the corruption
  /// is keyed by content, not neighborhood — claim no frontier shortcuts
  /// unless the channel is provably transparent.
  [[nodiscard]] FrontierLocality frontier_locality() const override {
    return model_.num == 0 ? inner_.frontier_locality() : FrontierLocality{};
  }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const CorruptionModel& model() const { return model_; }

 private:
  const Protocol& inner_;
  CorruptionModel model_;
};

// ---------------------------------------------------------------------------
// Verdicts.
// ---------------------------------------------------------------------------

/// How one faulty execution is judged.
enum class FaultVerdict : std::uint8_t {
  kCorrect = 0,      // terminated (or crash-deadlocked) with a correct output
  kWrongOutput,      // terminated with a wrong output
  kDeadlockOrFault,  // deadlocked un-decodably, engine fault, or decode error
};

/// Judges one execution of a faulty world. `crashed` is the world's crash
/// set (empty for corruption/fault-free worlds); classifiers typically treat
/// a deadlock of a crashed world as acceptable iff the partial board still
/// decodes to a correct output. Must be thread-safe (called concurrently
/// from sweep workers).
using FaultClassifier = std::function<FaultVerdict(
    const ExecutionResult&, std::span<const NodeId> crashed)>;

/// Wilson score interval for a binomial proportion.
struct WilsonInterval {
  double lo = 0.0;
  double hi = 1.0;
};

/// Statistical verdict: trial and failure counts, with the point estimate
/// and Wilson interval of the failure probability. A sweep's verdict is
/// SweepTotals::verdict(), so it adds across threads, shards and fleet
/// workers exactly as the totals' counts do.
class VerdictAccumulator {
 public:
  /// z for a two-sided 95% normal interval (the conventional 1.96).
  static constexpr double kZ95 = 1.96;

  VerdictAccumulator(std::uint64_t trials, std::uint64_t failures)
      : trials_(trials), failures_(failures) {
    WB_CHECK(failures_ <= trials_);
  }

  [[nodiscard]] std::uint64_t trials() const { return trials_; }
  [[nodiscard]] std::uint64_t failures() const { return failures_; }
  /// Point estimate of the failure probability (0 when no trials ran).
  [[nodiscard]] double failure_rate() const;
  /// Wilson score interval; [0, 1] when no trials ran.
  [[nodiscard]] WilsonInterval wilson(double z = kZ95) const;

  friend bool operator==(const VerdictAccumulator&,
                         const VerdictAccumulator&) = default;

 private:
  std::uint64_t trials_ = 0;
  std::uint64_t failures_ = 0;
};

/// "N trials, F failures — rate 0.xxxx, 95% CI [0.xxxx, 0.xxxx]" (fixed
/// 4-decimal formatting so reports and golden artifacts are byte-stable).
[[nodiscard]] std::string verdict_summary(const VerdictAccumulator& v);

// ---------------------------------------------------------------------------
// Sweeps: one totals type, one task sweep.
// ---------------------------------------------------------------------------

/// Totals of any sweep — in-process, one shard, a merged shard set, or a
/// statistical sample. tally_of() is the one place a FaultVerdict becomes
/// counts: kDeadlockOrFault tallies into engine_failures, kWrongOutput into
/// wrong_outputs, and verdict() counts both as failures. `distinct`
/// accumulates every visited execution's final-board hash (exhaustive
/// sweeps); statistical sweeps leave it null, since a sampled board
/// population is not a deterministic set. One cache line each: a sweep's
/// per-task leaves sit side by side and are written by different workers.
struct alignas(64) SweepTotals {
  std::uint64_t executions = 0;
  std::uint64_t engine_failures = 0;
  std::uint64_t wrong_outputs = 0;
  std::uint64_t worlds = 0;  // fault worlds swept (exhaustive sweeps)
  std::unique_ptr<DistinctAccumulator> distinct = nullptr;

  void add(const Tally& t) {
    executions += t.executions;
    engine_failures += t.engine_failures;
    wrong_outputs += t.wrong_outputs;
  }
  /// Every execution a trial; every engine failure or wrong output a failure.
  [[nodiscard]] VerdictAccumulator verdict() const {
    return {executions, engine_failures + wrong_outputs};
  }
  /// One execution judged `v`.
  [[nodiscard]] static Tally tally_of(FaultVerdict v) {
    return {1, v == FaultVerdict::kDeadlockOrFault ? 1u : 0u,
            v == FaultVerdict::kWrongOutput ? 1u : 0u};
  }

  /// Fold `parts` into one total. Counts add with overflow checks (a sum
  /// past 2^64 - 1 throws wb::DataError naming it — shard results are
  /// untrusted input); the non-null distinct accumulators fold through
  /// merge_accumulators' tree on up to `threads` pool workers. The result
  /// depends only on the multiset of parts, never on their order.
  [[nodiscard]] static SweepTotals merge(std::vector<SweepTotals> parts,
                                         std::size_t threads = 1);
};

/// One unit of an exhaustive sweep: a fault world (crash_world index for
/// kCrash; always 0 for kNone and kCorrupt) plus a schedule-tree prefix
/// inside that world's adapted schedule tree. A fault-free sweep is a list
/// of world-0 tasks.
struct FaultTask {
  std::uint64_t world = 0;
  PrefixTask prefix;
  friend bool operator==(const FaultTask&, const FaultTask&) = default;
};

/// The (world, prefix) partition a sharded sweep plans: every world's
/// schedule tree split at the usual granularity (>= 1 prefix per world,
/// ~target_tasks total). Depends only on (graph, protocol, faults,
/// target_tasks) — never on scheduling — and its subtrees tile the full
/// execution set exactly once, so shards merge bit-identically.
/// kAdaptive has no exhaustive partition (statistical only; throws).
[[nodiscard]] std::vector<FaultTask> partition_fault_tasks(
    const Graph& g, const Protocol& p, const FaultSpec& faults,
    const EngineOptions& eopts, std::size_t target_tasks);

/// The partition an in-process `threads`-worker sweep uses: each world's
/// tree split by partition_for_threads under that world's adapted protocol
/// (threads == 1: one whole-tree task per world, the serial DFS order).
[[nodiscard]] std::vector<FaultTask> partition_fault_tasks_for_threads(
    const Graph& g, const Protocol& p, const FaultSpec& faults,
    const EngineOptions& eopts, std::size_t threads);

/// Called for each execution judged kWrongOutput or kDeadlockOrFault;
/// returning false stops the sweep (as a visitor's false does in
/// for_each_execution_under). Concurrent under opts.threads != 1.
using FailureVisitor =
    std::function<bool(const ExecutionResult&, FaultVerdict)>;

/// The one exhaustive sweep: classify every execution under the named
/// (world, prefix) subtrees and tally it into per-task SweepTotals, which
/// fold through SweepTotals::merge as soon as their world finishes (so
/// peak memory stays one world's leaves plus the running total). Worlds
/// run in ascending order; opts.threads fans each world's subtrees over the
/// pool; opts.max_executions bounds the whole call (BudgetExceededError,
/// deterministically at any thread count). Each world's tasks share one
/// memo table of converging states through judge_executions_under (one
/// table per world, since each world adapts the protocol; one SweepMemo, so
/// one probe, for all worlds), which classifies each distinct terminal
/// state once — so `classify` must judge by the final status and board, not
/// the schedule.
/// For a full sweep the totals are bit-identical at any thread count and
/// any task split, and the totals of disjoint task lists merge to the
/// totals of their union. `on_failure` (optional) sees each failing
/// execution — the memo is off, so every one — and may stop the sweep
/// early; then the counts cover exactly the executions visited. kAdaptive
/// has no exhaustive worlds (throws; use run_statistical_verdict).
[[nodiscard]] SweepTotals sweep(const Graph& g, const Protocol& p,
                                const FaultSpec& faults,
                                std::span<const FaultTask> tasks,
                                const FaultClassifier& classify,
                                const ExhaustiveOptions& opts = {},
                                const FailureVisitor& on_failure = nullptr);

// ---------------------------------------------------------------------------
// Statistical fault sweeps.
// ---------------------------------------------------------------------------

struct StatisticalOptions {
  /// Total trials of the (unstrided) sweep.
  std::uint64_t trials = FaultSpec::kDefaultTrials;
  /// Base seed; trial i draws everything from trial_seed(seed, i).
  std::uint64_t seed = 0;
  /// Shard split: run only trials with index % stride == offset. Every
  /// trial's randomness is keyed by its absolute index, so merging the
  /// accumulators of offsets 0..stride-1 equals the stride=1 single stream.
  std::uint64_t stride = 1;
  std::uint64_t offset = 0;
  /// Batch workers (0 = hardware concurrency). Results are index-keyed, so
  /// totals are bit-identical at any thread count.
  std::size_t threads = 0;
  EngineOptions engine;
};

/// Sample executions of `p` on `g` under the failure model and classify each
/// one. Per trial, a seeded policy draws the fault realization and then a
/// random schedule:
///   kNone     no faults, random schedule;
///   kCrash    exactly min(crash_f, n) crashed nodes, uniform without
///             replacement;
///   kCorrupt  the spec's deterministic corruption channel, random schedule;
///   kAdaptive with probability 1/2 crash one uniform node, random schedule
///             (the seeded adaptive policy).
/// Deterministic given (faults, opts): thread-count independent and
/// stride-split mergeable. The totals carry no distinct accumulator.
[[nodiscard]] SweepTotals run_statistical_verdict(
    const Graph& g, const Protocol& p, const FaultSpec& faults,
    const FaultClassifier& classify, const StatisticalOptions& opts = {});

}  // namespace wb
