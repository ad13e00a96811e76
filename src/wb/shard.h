// Distributed sharding for the exhaustive explorer.
//
// The subtree-prefix partition (src/wb/faults.h) is shard-friendly: the top
// of every fault world's schedule tree is split into (world, prefix)
// FaultTask subtrees whose leaves tile the full execution set exactly once,
// and every aggregate the sweep produces (visit count, failure tallies,
// distinct-board accumulators) merges order-obliviously. This layer
// serializes that partition so the subtrees can be swept by different
// *processes* — on one machine or a fleet — and merged back into totals
// bit-identical to the single-process `threads=1` oracle:
//
//   plan:  partition_fault_tasks → K ShardSpec files (round-robin tasks)
//          + one ShardManifest (plan fingerprint + per-spec document hashes,
//          so a fleet controller can track completion and re-issue lost
//          shards)
//   run:   one ShardSpec → a ShardResult file (per-process, ThreadPool
//          parallel inside)
//   merge: K ShardResult files → MergedResult == the serial sweep's totals
//
// File formats are versioned, self-describing text ("wbshard-spec v3" /
// "wbshard-result v3" / "wbshard-manifest v3") in which every field is
// always present. Parsers reject malformed, truncated, or version-skewed
// input (every older version included) with a wb::DataError diagnostic,
// never undefined behavior, and serialize→parse→serialize is byte-identical
// (tests/wb/shard_test.cpp pins golden files under tests/wb/data/).
//
// Running and merging go through the one sweep (src/wb/faults.h): a shard
// is wb::sweep over its spec's tasks or a stride of run_statistical_verdict,
// and the merge folds one SweepTotals per result with SweepTotals::merge —
// so shard tallies add with the same overflow checks as every other sweep,
// and a statistical verdict is read off the merged counts.
//
// Determinism contract (the reason merge order and shard→host assignment
// never matter):
//  - the task list is recorded in the specs, so equivalence never depends
//    on re-running the partition;
//  - counts are sums over disjoint subtree sets; distinct boards go through
//    a DistinctAccumulator (src/wb/distinct.h) whose merge — sorted-run set
//    union for exact, register-wise max for hll — is order-oblivious, so
//    the merged count (or estimate) is bit-identical for any grouping;
//  - the execution budget is global: a shard whose own sweep exceeds
//    max_executions records `budget_exceeded` (deterministically — its
//    tallies are cleared), and the merge throws BudgetExceededError exactly
//    when the combined count exceeds the budget, i.e. exactly when the
//    serial oracle would have thrown;
//  - results carry a fingerprint of (protocol, graph, budget, engine
//    options, distinct-accumulator config, shard count, fault spec, full
//    partition), so merging results from different plans — including two
//    different partitions of the same instance, or an exact and an hll
//    plan of the same instance — is rejected loudly; the merge additionally
//    checks the accumulator kind field itself, so even hand-edited
//    artifacts cannot mix an estimate into an exact count.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/support/hash.h"
#include "src/support/hll.h"
#include "src/wb/distinct.h"
#include "src/wb/exhaustive.h"
#include "src/wb/faults.h"

namespace wb::shard {

/// Bumped on any change to the text formats below; parsers read exactly
/// this version. v3: one `task <world> <depth> <ids>` list, an always-present
/// `faults` line, no result `verdict` line, no manifest `faults` line.
inline constexpr int kFormatVersion = 3;

/// Largest shard count a plan may have — enforced by plan_shards and by
/// every parser that reads a shard count.
inline constexpr std::uint32_t kMaxShards = 1u << 20;

/// One shard of a planned exhaustive sweep: the instance (graph + opaque
/// protocol spec string + budget + engine options + distinct-accumulator
/// config + failure model), which shard of how many this is, and the exact
/// subtrees this shard must sweep.
struct ShardSpec {
  /// Protocol factory string (src/cli/spec.h grammar). Opaque at this layer:
  /// carried, serialized, and fingerprinted, never parsed here.
  std::string protocol_spec;
  Graph graph{0};
  std::uint64_t max_executions = 2'000'000;
  /// Engine configuration the sweep must run under (serialized, so a worker
  /// process reproduces the oracle's engine behavior exactly).
  EngineOptions engine{};
  /// Distinct-board accumulator every shard of this plan must use.
  DistinctConfig distinct{};
  /// Fingerprint of the whole plan — instance, budget, engine options,
  /// distinct config, shard count, and the *complete* partition across all
  /// shards (not just this shard's slice). Stamped by plan_shards; results
  /// carry it forward, and merge refuses to combine results whose
  /// fingerprints differ, so shards of two different partitions of the same
  /// instance can never be mixed into silently wrong totals.
  Hash128 plan{};
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  /// Failure model every shard of this plan runs under. Covered by the plan
  /// fingerprint, so artifacts swept under different fault specs refuse to
  /// merge.
  FaultSpec faults{};
  /// The (fault world, prefix) subtrees this shard sweeps; every task of a
  /// fault-free or corruption plan is world 0. Adaptive plans carry none —
  /// trials are split by index stride across shards.
  std::vector<FaultTask> tasks;
};

/// What one shard's sweep produced. All fields are bit-identical for any
/// worker thread count. Exactly one distinct-board payload is populated,
/// matching `distinct.kind`: `board_hashes` (sorted and unique, ready for
/// order-oblivious set union) in exact mode, `hll` (register-wise
/// max-mergeable sketch) in hll mode.
struct ShardResult {
  /// The spec's plan fingerprint, copied forward; merge refuses to combine
  /// results with different plans.
  Hash128 plan{};
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  std::uint64_t max_executions = 0;
  std::uint64_t executions = 0;
  std::uint64_t engine_failures = 0;
  std::uint64_t wrong_outputs = 0;
  /// This shard alone exceeded the global budget. Its tallies and distinct
  /// payload are cleared (executions = max_executions), so the result file
  /// is deterministic; merge_shard_results turns the flag into the same
  /// BudgetExceededError the serial oracle throws.
  bool budget_exceeded = false;
  /// Which accumulator produced the distinct payload (copied from the spec;
  /// merge refuses kind mismatches even before the fingerprint check).
  DistinctConfig distinct{};
  std::vector<Hash128> board_hashes;  // exact mode: sorted, unique
  std::optional<HyperLogLog> hll;     // hll mode: the shard's sketch
  /// Failure model the shard ran under (copied from the spec; merge refuses
  /// fault-spec mismatches). Adaptive shards count sampled trials in
  /// `executions`: shards split the trial index space by stride, so the
  /// union over shards is exactly the single-stream trial set.
  FaultSpec faults{};
};

/// The merged totals of a complete result set — field-for-field what the
/// single-process exhaustive sweep reports. `distinct_boards` is exact or a
/// HyperLogLog estimate according to `distinct` (the plan's config).
struct MergedResult {
  std::uint32_t shard_count = 0;
  std::uint64_t executions = 0;
  std::uint64_t engine_failures = 0;
  std::uint64_t wrong_outputs = 0;
  std::uint64_t distinct_boards = 0;
  DistinctConfig distinct{};
  /// Failure model of the plan. For adaptive plans the counts above are
  /// sampled trials, bit-identical to the single-stream statistical sweep.
  FaultSpec faults{};
};

struct PlanOptions {
  std::uint64_t max_executions = 2'000'000;
  /// Partition granularity: aim for at least this many tasks per shard, so
  /// in-worker ThreadPool sweeps load-balance. The resulting tasks are
  /// recorded verbatim in the specs — merge equivalence never depends on
  /// reproducing the partition.
  std::size_t tasks_per_shard = 4;
  /// Distinct-board accumulator for the whole plan (fingerprinted, so
  /// exact and hll artifacts of one instance can never cross-merge).
  DistinctConfig distinct{};
  EngineOptions engine;
  /// Failure model for the whole plan (fingerprinted). Crash/corruption
  /// plans fold the fault worlds into the partition; adaptive plans split
  /// the trial index space by stride across shards.
  FaultSpec faults{};
};

/// Partition the fault worlds' schedule trees of (g, p) and distribute the
/// tasks round-robin over `shard_count` (1..kMaxShards) specs, each stamped
/// with the plan fingerprint. Deterministic: depends only on (g, p,
/// shard_count, opts). Shards may receive no tasks (more shards than
/// subtrees); their sweeps report zero executions and merge harmlessly.
[[nodiscard]] std::vector<ShardSpec> plan_shards(const Graph& g,
                                                 const Protocol& p,
                                                 const std::string& protocol_spec,
                                                 std::size_t shard_count,
                                                 const PlanOptions& opts = {});

/// Completion-tracking companion of a plan: the plan fingerprint, the shard
/// count, the distinct config, and the content hash of every spec document,
/// in shard order. A fleet controller holding only the manifest can tell
/// which shard results are present, missing, or foreign (wbsim
/// shard-status), and re-issue a lost shard's spec on another host.
struct ShardManifest {
  Hash128 plan{};
  std::uint32_t shard_count = 1;
  std::uint64_t max_executions = 0;
  DistinctConfig distinct{};
  std::vector<Hash128> spec_hashes;  // hash_document of each serialized spec
};

/// Content hash of a serialized document (what the manifest records per
/// spec file — re-hash a file to verify it is the planned one).
[[nodiscard]] Hash128 hash_document(const std::string& text);

/// Build the manifest of a complete plan (the full, ordered spec list that
/// plan_shards returned). Throws wb::DataError when the list is not exactly
/// one spec per shard of one plan, in index order.
[[nodiscard]] ShardManifest make_manifest(std::span<const ShardSpec> specs);

/// Canonical text forms. serialize(parse_*(text)) == text for any text the
/// serializers produced (golden-pinned).
[[nodiscard]] std::string serialize(const ShardSpec& spec);
[[nodiscard]] std::string serialize(const ShardResult& result);
[[nodiscard]] std::string serialize(const ShardManifest& manifest);

/// Parsers throw wb::DataError with a line-numbered diagnostic on malformed,
/// truncated, or version-skewed input. A result whose engine-failures plus
/// wrong-outputs, or whose exact hash count, exceeds its executions is
/// rejected as inconsistent.
[[nodiscard]] ShardSpec parse_shard_spec(const std::string& text);
[[nodiscard]] ShardResult parse_shard_result(const std::string& text);
[[nodiscard]] ShardManifest parse_shard_manifest(const std::string& text);

/// Sweep one shard: the executions under spec.tasks through wb::sweep, or —
/// adaptive specs — this shard's stride of the trial index space through
/// run_statistical_verdict. Runs with
/// spec.engine, fanned out over the shared ThreadPool (`threads` as in
/// ExhaustiveOptions: 0 = one worker per hardware thread, 1 = serial). `p`
/// must be the protocol spec.protocol_spec denotes (the CLI layer
/// constructs it; library callers pass their own). `classify` judges every
/// execution: kWrongOutput tallies into wrong_outputs, kDeadlockOrFault
/// into engine_failures. A worker-local budget overrun is caught and
/// recorded as budget_exceeded (see ShardResult); classifier exceptions
/// propagate.
[[nodiscard]] ShardResult run_shard(const ShardSpec& spec, const Protocol& p,
                                    const FaultClassifier& classify,
                                    std::size_t threads);

/// Merge a complete result set (any order) into the sweep's totals.
/// Throws wb::DataError when the set is not exactly one result per shard of
/// one plan — including when results disagree on the distinct-accumulator
/// kind (an exact count and an hll estimate must never be combined) — and
/// BudgetExceededError when the combined execution count exceeds the
/// recorded budget — the same observable behavior as the serial oracle at
/// any shard count and any assignment of shards to hosts. A total past
/// 2^64 - 1 (hand-edited counts) throws wb::DataError.
[[nodiscard]] MergedResult merge_shard_results(
    std::span<const ShardResult> results);

}  // namespace wb::shard
