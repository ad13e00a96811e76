// Pluggable distinct-counting for the exhaustive explorer.
//
// Every sweep aggregate the explorer produces merges order-obliviously —
// that is what makes thread-, process-, and host-level fan-out reproduce the
// serial oracle bit-for-bit. Distinct-board counting is the one aggregate
// with a real strategy choice inside that contract:
//
//  - exact: 128-bit board hashes deduplicated into sorted unique runs,
//    merged by set union. The count is exact; peak memory is O(distinct)
//    16-byte keys — the right default up to ~10^9 distinct boards.
//  - hll: a HyperLogLog sketch (src/support/hll.h). The count is an estimate
//    with relative standard error 1.04/sqrt(2^p); memory is a flat 2^p bytes
//    per accumulator regardless of cardinality — the only option past the
//    exact mode's memory wall.
//
// DistinctAccumulator is the common surface: insert(Hash128) per execution,
// merge to fold per-task (or per-shard) accumulators, estimate for the final
// count. The contract every implementation must honor is that the final
// estimate depends only on the SET of inserted keys — never on insertion
// order, grouping into accumulators, or merge order — so the explorer's
// determinism guarantees (bit-identical results at any thread count, shard
// count K, or merge order) hold for any implementation. Both implementations
// here satisfy it structurally: a sorted-run union and a register-wise max
// are idempotent, commutative, and associative.
//
// The sweep idiom (count_distinct_final_boards, and wb::sweep behind
// shard::run_shard and the CLI exhaustive runner): one accumulator per
// subtree task — exclusive to its worker, so inserts need no locking —
// folded by merge_accumulators afterwards.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/support/hash.h"
#include "src/support/hll.h"

namespace wb {

enum class DistinctKind : std::uint8_t { kExact, kHll };

/// Which distinct-board accumulator a sweep uses. Carried by
/// ExhaustiveOptions, shard::PlanOptions, and the v2 shard file formats; the
/// shard plan fingerprint covers it, so exact and hll artifacts of one
/// instance can never be merged into a silently mixed count.
struct DistinctConfig {
  DistinctKind kind = DistinctKind::kExact;
  /// HyperLogLog precision p: 2^p one-byte registers, relative standard
  /// error 1.04/sqrt(2^p). Meaningless in exact mode — equality and the
  /// canonical text form both ignore it there, so an exact config always
  /// round-trips to itself regardless of what this field holds.
  int hll_precision = kDefaultHllPrecision;

  static constexpr int kDefaultHllPrecision = 14;  // 16 KiB, ~0.8% error

  [[nodiscard]] static DistinctConfig Exact() { return {}; }
  [[nodiscard]] static DistinctConfig Hll(
      int precision = kDefaultHllPrecision) {
    return {DistinctKind::kHll, precision};
  }

  friend bool operator==(const DistinctConfig& a, const DistinctConfig& b) {
    return a.kind == b.kind && (a.kind == DistinctKind::kExact ||
                                a.hll_precision == b.hll_precision);
  }
};

/// Parse "exact", "hll", or "hll:P" (the CLI `distinct=` grammar and the
/// shard-file field). Throws wb::DataError on anything else, including a
/// precision outside HyperLogLog's supported range.
[[nodiscard]] DistinctConfig parse_distinct_config(const std::string& text);

/// Canonical text form: "exact" or "hll:P". parse(to_string(c)) == c.
[[nodiscard]] std::string to_string(const DistinctConfig& config);

/// Streaming distinct-key accumulator: appends are buffered, and every
/// kFlushLimit keys the buffer is folded into a sorted unique run via
/// set-union. Peak memory is O(distinct + kFlushLimit) instead of the
/// O(executions) a collect-then-sort pays. This is the storage engine of the
/// exact DistinctAccumulator below (and usable directly when the caller
/// needs the keys themselves, as the shard result files do).
class StreamingDistinct {
 public:
  void add(const Hash128& key) {
    buffer_.push_back(key);
    if (buffer_.size() >= kFlushLimit) flush();
  }

  /// Sorted unique keys seen so far; the accumulator is left empty.
  [[nodiscard]] std::vector<Hash128> take_sorted() {
    flush();
    return std::move(run_);
  }

 private:
  static constexpr std::size_t kFlushLimit = std::size_t{1} << 16;  // 1 MiB

  void flush() {
    if (buffer_.empty()) return;
    std::sort(buffer_.begin(), buffer_.end());
    buffer_.erase(std::unique(buffer_.begin(), buffer_.end()), buffer_.end());
    std::vector<Hash128> merged;
    merged.reserve(run_.size() + buffer_.size());
    std::set_union(run_.begin(), run_.end(), buffer_.begin(), buffer_.end(),
                   std::back_inserter(merged));
    run_ = std::move(merged);
    buffer_.clear();
  }

  std::vector<Hash128> buffer_;
  std::vector<Hash128> run_;  // sorted, unique
};

/// Union of sorted unique runs into one sorted unique run, as a tree:
/// pairwise, level by level, each level's pairs on up to `threads` workers
/// of ThreadPool::shared() (1 = inline; 0 = every pool worker). Set union is
/// order-oblivious, so the result — and every count derived from it — is
/// identical for any ordering or grouping of the inputs and any thread
/// count; this is the merge step shared by the parallel distinct-board count
/// and the shard layer.
[[nodiscard]] std::vector<Hash128> union_sorted_runs(
    std::vector<std::vector<Hash128>> runs, std::size_t threads = 1);

/// The mergeable accumulator surface. Implementations must make estimate()
/// a function of the inserted key SET only (see the file comment); merge()
/// consumes `other`, which must be the same concrete kind and parameters —
/// mixing kinds is a caller bug (wb::LogicError), distinct from the
/// data-level rejection the shard merge performs on foreign files.
class DistinctAccumulator {
 public:
  virtual ~DistinctAccumulator() = default;
  [[nodiscard]] virtual DistinctConfig config() const = 0;
  virtual void insert(const Hash128& key) = 0;
  virtual void merge(DistinctAccumulator&& other) = 0;
  [[nodiscard]] virtual std::uint64_t estimate() = 0;
};

/// Exact counting behind the accumulator surface: StreamingDistinct runs
/// merged by sorted-run union — bit-identical to the pre-API explorer.
class ExactDistinctAccumulator final : public DistinctAccumulator {
 public:
  ExactDistinctAccumulator() = default;
  /// Adopt an already-sorted unique run (e.g. parsed from a shard result).
  [[nodiscard]] static ExactDistinctAccumulator from_sorted(
      std::vector<Hash128> sorted_run);

  [[nodiscard]] DistinctConfig config() const override {
    return DistinctConfig::Exact();
  }
  void insert(const Hash128& key) override { streaming_.add(key); }
  void merge(DistinctAccumulator&& other) override;
  [[nodiscard]] std::uint64_t estimate() override {
    return static_cast<std::uint64_t>(sorted_view().size());
  }

  /// Sorted unique keys accumulated so far; the accumulator is left empty.
  /// (The shard layer serializes these into result files.)
  [[nodiscard]] std::vector<Hash128> take_sorted();

 private:
  [[nodiscard]] const std::vector<Hash128>& sorted_view();

  StreamingDistinct streaming_;
  std::vector<Hash128> run_;  // sorted unique, folded on demand
};

/// Approximate counting: one HyperLogLog sketch, register-wise max merge.
class HllDistinctAccumulator final : public DistinctAccumulator {
 public:
  explicit HllDistinctAccumulator(
      int precision = DistinctConfig::kDefaultHllPrecision)
      : sketch_(precision) {}
  explicit HllDistinctAccumulator(HyperLogLog sketch)
      : sketch_(std::move(sketch)) {}

  [[nodiscard]] DistinctConfig config() const override {
    return DistinctConfig::Hll(sketch_.precision());
  }
  void insert(const Hash128& key) override { sketch_.add(key); }
  void merge(DistinctAccumulator&& other) override;
  [[nodiscard]] std::uint64_t estimate() override {
    return sketch_.estimate();
  }

  [[nodiscard]] const HyperLogLog& sketch() const { return sketch_; }
  [[nodiscard]] HyperLogLog take_sketch() { return std::move(sketch_); }

 private:
  HyperLogLog sketch_;
};

/// Fold the per-task accumulators of one sweep (all of one config, at least
/// one) into a single accumulator. Exact leaves sort their buffers in
/// parallel and are unioned as a tree (union_sorted_runs) on up to `threads`
/// pool workers; hll sketches fold by register max. The result is the same
/// as folding them one by one with merge(), for any thread count.
[[nodiscard]] std::unique_ptr<DistinctAccumulator> merge_accumulators(
    std::vector<std::unique_ptr<DistinctAccumulator>> accumulators,
    std::size_t threads);

/// Factory keyed by config — the one switch point every sweep goes through.
[[nodiscard]] std::unique_ptr<DistinctAccumulator> make_distinct_accumulator(
    const DistinctConfig& config);

}  // namespace wb
