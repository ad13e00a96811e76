#include "src/wb/distinct.h"

#include <utility>

#include "src/support/check.h"
#include "src/support/thread_pool.h"

namespace wb {

DistinctConfig parse_distinct_config(const std::string& text) {
  if (text == "exact") return DistinctConfig::Exact();
  constexpr const char* kHll = "hll";
  if (text == kHll) return DistinctConfig::Hll();
  const std::string prefix = std::string(kHll) + ":";
  WB_REQUIRE_MSG(text.rfind(prefix, 0) == 0,
                 "bad distinct config '" << text
                                         << "' (want exact | hll | hll:P)");
  const std::string digits = text.substr(prefix.size());
  WB_REQUIRE_MSG(!digits.empty() &&
                     digits.find_first_not_of("0123456789") == std::string::npos &&
                     digits.size() <= 2,
                 "bad hll precision '" << digits << "' in '" << text << "'");
  const int precision = std::stoi(digits);
  WB_REQUIRE_MSG(precision >= HyperLogLog::kMinPrecision &&
                     precision <= HyperLogLog::kMaxPrecision,
                 "hll precision " << precision << " outside ["
                                  << HyperLogLog::kMinPrecision << ", "
                                  << HyperLogLog::kMaxPrecision << "]");
  return DistinctConfig::Hll(precision);
}

std::string to_string(const DistinctConfig& config) {
  if (config.kind == DistinctKind::kExact) return "exact";
  return "hll:" + std::to_string(config.hll_precision);
}

namespace {

/// fn(0) .. fn(count-1), on the shared pool only when more than one worker
/// can help. A serial merge never touches ThreadPool::shared(): the pool's
/// workers inherit the CPU affinity of the thread that first asks for it,
/// so creating it from a caller pinned to one CPU would pin every worker.
template <typename Fn>
void for_each_index(std::size_t count, std::size_t threads, const Fn& fn) {
  if (threads == 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  ThreadPool::shared().parallel_for(count, fn, threads);
}

}  // namespace

std::vector<Hash128> union_sorted_runs(std::vector<std::vector<Hash128>> runs,
                                       std::size_t threads) {
  if (runs.empty()) return {};
  // Pairwise, level by level: each key is copied once per level, O(N log R)
  // in all, where a left fold re-copies the growing run for every input.
  // Each pair's inputs are freed as soon as their union exists.
  while (runs.size() > 1) {
    std::vector<std::vector<Hash128>> next((runs.size() + 1) / 2);
    for_each_index(
        runs.size() / 2, threads, [&runs, &next](std::size_t i) {
          std::vector<Hash128> a = std::move(runs[2 * i]);
          std::vector<Hash128> b = std::move(runs[2 * i + 1]);
          if (a.empty() || b.empty()) {
            next[i] = a.empty() ? std::move(b) : std::move(a);
            return;
          }
          next[i].reserve(a.size() + b.size());
          std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                         std::back_inserter(next[i]));
        });
    if (runs.size() % 2 != 0) next.back() = std::move(runs.back());
    runs = std::move(next);
  }
  return std::move(runs.front());
}

std::unique_ptr<DistinctAccumulator> merge_accumulators(
    std::vector<std::unique_ptr<DistinctAccumulator>> accumulators,
    std::size_t threads) {
  WB_CHECK_MSG(!accumulators.empty(), "no distinct accumulators to merge");
  if (accumulators.front()->config().kind != DistinctKind::kExact) {
    // A register-wise max per merge: cheap enough to fold serially.
    std::unique_ptr<DistinctAccumulator> total =
        std::move(accumulators.front());
    for (std::size_t t = 1; t < accumulators.size(); ++t) {
      total->merge(std::move(*accumulators[t]));
    }
    return total;
  }
  // Each leaf sorts its own buffer, in parallel, and is freed right after.
  std::vector<std::vector<Hash128>> runs(accumulators.size());
  for_each_index(
      accumulators.size(), threads, [&accumulators, &runs](std::size_t t) {
        WB_CHECK_MSG(accumulators[t]->config().kind == DistinctKind::kExact,
                     "cannot merge a " << to_string(accumulators[t]->config())
                                       << " accumulator into an exact one");
        runs[t] = static_cast<ExactDistinctAccumulator&>(*accumulators[t])
                      .take_sorted();
        accumulators[t].reset();
      });
  return std::make_unique<ExactDistinctAccumulator>(
      ExactDistinctAccumulator::from_sorted(
          union_sorted_runs(std::move(runs), threads)));
}

ExactDistinctAccumulator ExactDistinctAccumulator::from_sorted(
    std::vector<Hash128> sorted_run) {
  ExactDistinctAccumulator acc;
  acc.run_ = std::move(sorted_run);
  return acc;
}

void ExactDistinctAccumulator::merge(DistinctAccumulator&& other) {
  WB_CHECK_MSG(other.config().kind == DistinctKind::kExact,
               "cannot merge a " << to_string(other.config())
                                 << " accumulator into an exact one");
  auto& exact = static_cast<ExactDistinctAccumulator&>(other);
  std::vector<std::vector<Hash128>> runs;
  runs.push_back(std::move(run_));
  runs.push_back(exact.take_sorted());
  run_ = union_sorted_runs(std::move(runs));
}

std::vector<Hash128> ExactDistinctAccumulator::take_sorted() {
  (void)sorted_view();
  return std::move(run_);
}

const std::vector<Hash128>& ExactDistinctAccumulator::sorted_view() {
  std::vector<Hash128> pending = streaming_.take_sorted();
  if (!pending.empty()) {
    std::vector<std::vector<Hash128>> runs;
    runs.push_back(std::move(run_));
    runs.push_back(std::move(pending));
    run_ = union_sorted_runs(std::move(runs));
  }
  return run_;
}

void HllDistinctAccumulator::merge(DistinctAccumulator&& other) {
  WB_CHECK_MSG(other.config() == config(),
               "cannot merge a " << to_string(other.config())
                                 << " accumulator into a "
                                 << to_string(config()) << " one");
  sketch_.merge(static_cast<HllDistinctAccumulator&>(other).sketch_);
}

std::unique_ptr<DistinctAccumulator> make_distinct_accumulator(
    const DistinctConfig& config) {
  if (config.kind == DistinctKind::kExact) {
    return std::make_unique<ExactDistinctAccumulator>();
  }
  return std::make_unique<HllDistinctAccumulator>(config.hll_precision);
}

}  // namespace wb
