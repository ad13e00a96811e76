#include "src/wb/faults.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <utility>

#include "src/support/rng.h"
#include "src/wb/adversary.h"

namespace wb {

namespace {

std::vector<std::string> split_colon(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = text.find(':', start);
    if (colon == std::string::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, colon - start));
    start = colon + 1;
  }
}

std::uint64_t parse_fault_u64(const std::string& field,
                              const std::string& what) {
  std::uint64_t value = 0;
  const char* begin = field.data();
  const char* end = begin + field.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  WB_REQUIRE_MSG(ec == std::errc() && ptr == end && !field.empty(),
                 "malformed " + what + ": '" + field + "'");
  return value;
}

std::pair<std::uint64_t, std::uint64_t> parse_fault_prob(
    const std::string& field) {
  const std::size_t slash = field.find('/');
  WB_REQUIRE_MSG(slash != std::string::npos,
                 "corrupt probability must be NUM/DEN: '" + field + "'");
  const std::uint64_t num =
      parse_fault_u64(field.substr(0, slash), "corrupt probability numerator");
  const std::uint64_t den = parse_fault_u64(field.substr(slash + 1),
                                            "corrupt probability denominator");
  WB_REQUIRE_MSG(den >= 1, "corrupt probability denominator must be >= 1: '" +
                               field + "'");
  WB_REQUIRE_MSG(num <= den,
                 "corrupt probability must be <= 1: '" + field + "'");
  return {num, den};
}

/// C(n, k), exact, throwing wb::LogicError on uint64 overflow. The running
/// value after step i is C(n - k + i, i), so the division is always exact.
std::uint64_t binomial_checked(std::uint64_t n, std::uint64_t k) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  std::uint64_t r = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    const std::uint64_t factor = n - k + i;
    WB_CHECK_MSG(r <= std::numeric_limits<std::uint64_t>::max() / factor,
                 "crash world count overflows uint64 — sample instead");
    r = r * factor / i;
  }
  return r;
}

}  // namespace

FaultSpec parse_fault_spec(const std::string& text) {
  const std::vector<std::string> fields = split_colon(text);
  const std::string& kind = fields[0];
  if (kind == "none") {
    WB_REQUIRE_MSG(fields.size() == 1,
                   "fault spec 'none' takes no parameters: '" + text + "'");
    return FaultSpec::None();
  }
  if (kind == "crash") {
    WB_REQUIRE_MSG(fields.size() == 2,
                   "crash fault spec is crash:F: '" + text + "'");
    const std::uint64_t f = parse_fault_u64(fields[1], "crash node count");
    WB_REQUIRE_MSG(f <= std::numeric_limits<std::uint32_t>::max(),
                   "crash node count out of range: '" + text + "'");
    return FaultSpec::Crash(static_cast<std::uint32_t>(f));
  }
  if (kind == "corrupt") {
    WB_REQUIRE_MSG(fields.size() == 2 || fields.size() == 3,
                   "corrupt fault spec is corrupt:NUM/DEN[:SEED]: '" + text +
                       "'");
    const auto [num, den] = parse_fault_prob(fields[1]);
    const std::uint64_t seed =
        fields.size() == 3 ? parse_fault_u64(fields[2], "corrupt seed") : 1;
    return FaultSpec::Corrupt(num, den, seed);
  }
  if (kind == "adaptive") {
    WB_REQUIRE_MSG(fields.size() == 2 || fields.size() == 3,
                   "adaptive fault spec is adaptive:SEED[:TRIALS]: '" + text +
                       "'");
    const std::uint64_t seed = parse_fault_u64(fields[1], "adaptive seed");
    const std::uint64_t trials =
        fields.size() == 3 ? parse_fault_u64(fields[2], "adaptive trial count")
                           : FaultSpec::kDefaultTrials;
    WB_REQUIRE_MSG(trials >= 1,
                   "adaptive trial count must be >= 1: '" + text + "'");
    return FaultSpec::Adaptive(seed, trials);
  }
  throw DataError("unknown fault kind '" + kind +
                  "' (expected none | crash:F | corrupt:NUM/DEN[:SEED] | "
                  "adaptive:SEED[:TRIALS])");
}

std::string fault_spec_to_string(const FaultSpec& spec) {
  switch (spec.kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kCrash:
      return "crash:" + std::to_string(spec.crash_f);
    case FaultKind::kCorrupt:
      return "corrupt:" + std::to_string(spec.prob_num) + "/" +
             std::to_string(spec.prob_den) + ":" + std::to_string(spec.seed);
    case FaultKind::kAdaptive:
      return "adaptive:" + std::to_string(spec.seed) + ":" +
             std::to_string(spec.trials);
  }
  return "?";
}

std::uint64_t crash_world_count(std::size_t n, std::uint32_t f) {
  const std::uint64_t kmax = std::min<std::uint64_t>(f, n);
  std::uint64_t total = 0;
  for (std::uint64_t k = 0; k <= kmax; ++k) {
    const std::uint64_t block = binomial_checked(n, k);
    WB_CHECK_MSG(total <= std::numeric_limits<std::uint64_t>::max() - block,
                 "crash world count overflows uint64 — sample instead");
    total += block;
  }
  return total;
}

std::vector<NodeId> crash_world(std::size_t n, std::uint32_t f,
                                std::uint64_t index) {
  const std::uint64_t kmax = std::min<std::uint64_t>(f, n);
  std::vector<NodeId> out;
  for (std::uint64_t k = 0; k <= kmax; ++k) {
    const std::uint64_t block = binomial_checked(n, k);
    if (index >= block) {
      index -= block;
      continue;
    }
    // Unrank `index` among the size-k subsets of {1..n} in lexicographic
    // order: at each slot, skip past the C(n - v, remaining - 1) subsets
    // that start with each candidate v in turn.
    out.reserve(static_cast<std::size_t>(k));
    std::uint64_t r = index;
    NodeId v = 1;
    for (std::uint64_t remaining = k; remaining > 0; --remaining) {
      while (true) {
        const std::uint64_t with_v = binomial_checked(n - v, remaining - 1);
        if (r < with_v) {
          out.push_back(v);
          ++v;
          break;
        }
        r -= with_v;
        ++v;
      }
    }
    return out;
  }
  WB_CHECK_MSG(false, "crash world index out of range");
  return out;
}

CrashStopAdapter::CrashStopAdapter(const Protocol& inner,
                                   std::vector<NodeId> crashed)
    : inner_(inner), crashed_(std::move(crashed)) {
  std::sort(crashed_.begin(), crashed_.end());
  crashed_.erase(std::unique(crashed_.begin(), crashed_.end()),
                 crashed_.end());
  WB_CHECK_MSG(crashed_.empty() || crashed_.front() != kNoNode,
               "crash set contains the null node id");
}

ModelClass CrashStopAdapter::model_class() const {
  const ModelClass inner = inner_.model_class();
  if (crashed_.empty()) return inner;
  // A crashed node never activates, which breaks exactly the simultaneity
  // the engine verifies in round 1 — run the same protocol under the
  // containing non-simultaneous class instead (ModelClass containment, §2).
  switch (inner) {
    case ModelClass::kSimAsync:
      return ModelClass::kAsync;
    case ModelClass::kSimSync:
      return ModelClass::kSync;
    case ModelClass::kAsync:
    case ModelClass::kSync:
      return inner;
  }
  return inner;
}

bool CrashStopAdapter::activate(const LocalView& view,
                                const Whiteboard& board) const {
  if (std::binary_search(crashed_.begin(), crashed_.end(), view.id())) {
    return false;
  }
  return inner_.activate(view, board);
}

std::string CrashStopAdapter::name() const {
  return inner_.name() + "+crash[" + std::to_string(crashed_.size()) + "]";
}

Bits flip_bit(const Bits& bits, std::size_t index) {
  WB_CHECK_MSG(index < bits.size(), "flip_bit index out of range");
  std::vector<std::uint64_t> words(bits.word_data(),
                                   bits.word_data() + bits.word_count());
  words[index / 64] ^= std::uint64_t{1} << (index % 64);
  return Bits(words.data(), bits.size());
}

Bits truncate_bits(const Bits& bits, std::size_t new_size) {
  WB_CHECK_MSG(new_size <= bits.size(), "truncate_bits size out of range");
  return Bits(bits.word_data(), new_size);
}

Bits CorruptionModel::apply(const Bits& message, std::uint64_t salt) const {
  if (num == 0 || message.size() == 0) return message;
  Hasher128 h;
  h.update(seed);
  h.update(salt);
  h.update(message.size());
  const std::uint64_t* words = message.word_data();
  for (std::size_t w = 0, e = message.word_count(); w < e; ++w) {
    h.update(words[w]);
  }
  const Hash128 d = h.digest();
  if (d.lo % den >= num) return message;
  const std::size_t pos = static_cast<std::size_t>((d.hi >> 1) % message.size());
  if ((d.hi & 1) == 0) return flip_bit(message, pos);
  return truncate_bits(message, pos);  // pos < size(): strictly shorter
}

std::string CorruptingAdapter::name() const {
  return inner_.name() + "+corrupt[" + std::to_string(model_.num) + "/" +
         std::to_string(model_.den) + "]";
}

double VerdictAccumulator::failure_rate() const {
  if (trials_ == 0) return 0.0;
  return static_cast<double>(failures_) / static_cast<double>(trials_);
}

WilsonInterval VerdictAccumulator::wilson(double z) const {
  if (trials_ == 0) return {0.0, 1.0};
  const double n = static_cast<double>(trials_);
  const double phat = failure_rate();
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (phat + z2 / (2.0 * n)) / denom;
  const double half =
      (z / denom) *
      std::sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n));
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

std::string verdict_summary(const VerdictAccumulator& v) {
  const WilsonInterval ci = v.wilson();
  char buf[96];
  std::snprintf(buf, sizeof buf, "rate %.4f, 95%% CI [%.4f, %.4f]",
                v.failure_rate(), ci.lo, ci.hi);
  return std::to_string(v.trials()) + " trials, " +
         std::to_string(v.failures()) + " failures, " + buf;
}

namespace {

/// The protocol a fault world runs: the inner protocol, possibly behind a
/// crash or corruption adapter. Owns the adapter so spans into it stay valid
/// for the whole world sweep.
struct WorldProtocol {
  const Protocol* inner = nullptr;
  std::optional<CrashStopAdapter> crash;
  std::optional<CorruptingAdapter> corrupt;

  [[nodiscard]] const Protocol& active() const {
    if (crash) return *crash;
    if (corrupt) return *corrupt;
    return *inner;
  }
  [[nodiscard]] std::span<const NodeId> crashed() const {
    return crash ? crash->crashed() : std::span<const NodeId>{};
  }
};

void make_world(WorldProtocol& out, const Graph& g, const Protocol& p,
                const FaultSpec& faults, std::uint64_t world) {
  out.inner = &p;
  out.crash.reset();
  out.corrupt.reset();
  switch (faults.kind) {
    case FaultKind::kNone:
      WB_CHECK_MSG(world == 0, "fault-free sweeps have exactly one world");
      break;
    case FaultKind::kCrash:
      out.crash.emplace(p, crash_world(g.node_count(), faults.crash_f, world));
      break;
    case FaultKind::kCorrupt:
      WB_CHECK_MSG(world == 0, "corruption sweeps have exactly one world");
      out.corrupt.emplace(
          p, CorruptionModel{faults.prob_num, faults.prob_den, faults.seed});
      break;
    case FaultKind::kAdaptive:
      WB_CHECK_MSG(false, "adaptive faults have no exhaustive worlds");
      break;
  }
}

std::uint64_t exhaustive_world_count(const Graph& g, const FaultSpec& faults) {
  return faults.kind == FaultKind::kCrash
             ? crash_world_count(g.node_count(), faults.crash_f)
             : 1;
}

/// Every world's schedule tree split by `partition(world protocol)`.
template <typename Partition>
std::vector<FaultTask> partition_worlds(const Graph& g, const Protocol& p,
                                        const FaultSpec& faults,
                                        const Partition& partition) {
  WB_CHECK_MSG(faults.kind != FaultKind::kAdaptive,
               "adaptive faults sweep statistically — no exhaustive partition");
  std::vector<FaultTask> out;
  WorldProtocol wp;
  const std::uint64_t worlds = exhaustive_world_count(g, faults);
  for (std::uint64_t w = 0; w < worlds; ++w) {
    make_world(wp, g, p, faults, w);
    for (const PrefixTask& t : partition(wp.active(), worlds)) {
      out.push_back(FaultTask{w, t});
    }
  }
  return out;
}

}  // namespace

std::vector<FaultTask> partition_fault_tasks(const Graph& g, const Protocol& p,
                                             const FaultSpec& faults,
                                             const EngineOptions& eopts,
                                             std::size_t target_tasks) {
  return partition_worlds(
      g, p, faults, [&](const Protocol& wp, std::uint64_t worlds) {
        return partition_executions(
            g, wp, eopts,
            static_cast<std::size_t>(
                std::max<std::uint64_t>(1, target_tasks / worlds)));
      });
}

std::vector<FaultTask> partition_fault_tasks_for_threads(
    const Graph& g, const Protocol& p, const FaultSpec& faults,
    const EngineOptions& eopts, std::size_t threads) {
  return partition_worlds(g, p, faults,
                          [&](const Protocol& wp, std::uint64_t) {
                            return partition_for_threads(g, wp, eopts,
                                                         threads);
                          });
}

SweepTotals SweepTotals::merge(std::vector<SweepTotals> parts,
                               std::size_t threads) {
  SweepTotals total;
  std::vector<std::unique_ptr<DistinctAccumulator>> distinct;
  for (SweepTotals& part : parts) {
    total.executions =
        checked_add(total.executions, part.executions, "merged execution");
    total.engine_failures = checked_add(
        total.engine_failures, part.engine_failures, "merged engine-failure");
    total.wrong_outputs = checked_add(total.wrong_outputs, part.wrong_outputs,
                                      "merged wrong-output");
    total.worlds = checked_add(total.worlds, part.worlds, "merged world");
    if (part.distinct != nullptr) distinct.push_back(std::move(part.distinct));
  }
  if (!distinct.empty()) {
    total.distinct = merge_accumulators(std::move(distinct), threads);
  }
  return total;
}

SweepTotals sweep(const Graph& g, const Protocol& p, const FaultSpec& faults,
                  std::span<const FaultTask> tasks,
                  const FaultClassifier& classify,
                  const ExhaustiveOptions& opts,
                  const FailureVisitor& on_failure) {
  WB_CHECK_MSG(faults.kind != FaultKind::kAdaptive,
               "adaptive faults sweep statistically — use "
               "run_statistical_verdict");
  std::map<std::uint64_t, std::vector<PrefixTask>> by_world;
  for (const FaultTask& t : tasks) by_world[t.world].push_back(t.prefix);
  SweepTotals total;
  total.distinct = make_distinct_accumulator(opts.distinct);
  std::uint64_t remaining = opts.max_executions;
  std::atomic<bool> stopped{false};
  SweepMemo memo;
  memo.enabled = on_failure == nullptr;
  WorldProtocol wp;
  for (const auto& [world, subtrees] : by_world) {
    if (stopped.load(std::memory_order_relaxed)) break;
    make_world(wp, g, p, faults, world);
    const std::span<const NodeId> crashed = wp.crashed();
    // One leaf per task: a task runs on one worker, so no locking. A memo hit
    // may credit boards a sibling task visited, so only the union of the
    // leaves (SweepTotals::merge) is complete.
    std::vector<SweepTotals> leaves(subtrees.size());
    for (SweepTotals& leaf : leaves) {
      leaf.distinct = make_distinct_accumulator(opts.distinct);
    }
    ExhaustiveOptions wopts = opts;
    wopts.max_executions = remaining;
    try {
      remaining -= judge_executions_under(
          g, wp.active(), subtrees,
          [&](const ExecutionResult& r, std::size_t task, Tally& tally) {
            const FaultVerdict v = classify(r, crashed);
            tally += SweepTotals::tally_of(v);
            leaves[task].distinct->insert(r.board.content_hash());
            if (v == FaultVerdict::kCorrect || on_failure == nullptr ||
                on_failure(r, v)) {
              return true;
            }
            stopped.store(true, std::memory_order_relaxed);
            return false;
          },
          memo, wopts);
    } catch (const BudgetExceededError&) {
      // Re-badge the per-world remainder as the caller's global budget.
      throw BudgetExceededError(opts.max_executions);
    }
    for (std::size_t t = 0; t < leaves.size(); ++t) {
      leaves[t].add(memo.tallies[t]);
    }
    std::vector<SweepTotals> fold(2);
    fold[0] = std::move(total);
    fold[1] = SweepTotals::merge(std::move(leaves), opts.threads);
    fold[1].worlds = 1;
    total = SweepTotals::merge(std::move(fold));
  }
  return total;
}

namespace {

std::vector<NodeId> sample_crash_set(Rng& rng, std::size_t n,
                                     std::uint32_t f) {
  const std::size_t k = std::min<std::size_t>(f, n);
  std::vector<NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), NodeId{1});
  for (std::size_t i = 0; i < k; ++i) {
    std::swap(ids[i], ids[i + static_cast<std::size_t>(rng.below(n - i))]);
  }
  ids.resize(k);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace

SweepTotals run_statistical_verdict(const Graph& g, const Protocol& p,
                                    const FaultSpec& faults,
                                    const FaultClassifier& classify,
                                    const StatisticalOptions& opts) {
  WB_CHECK_MSG(opts.stride >= 1 && opts.offset < opts.stride,
               "statistical stride/offset out of range");
  const std::size_t n = g.node_count();
  std::optional<CorruptingAdapter> corrupt;
  if (faults.kind == FaultKind::kCorrupt) {
    corrupt.emplace(
        p, CorruptionModel{faults.prob_num, faults.prob_den, faults.seed});
  }
  std::vector<Trial> trials;
  std::vector<std::unique_ptr<CrashStopAdapter>> adapters;
  std::vector<std::vector<NodeId>> crash_sets;
  for (std::uint64_t idx = opts.offset; idx < opts.trials;
       idx += opts.stride) {
    // Everything this trial does — fault realization first, then the
    // schedule seed — is drawn from its absolute index, so a strided shard
    // split runs exactly the trials of the single stream it replaces.
    Rng rng(trial_seed(opts.seed, static_cast<std::size_t>(idx)));
    std::vector<NodeId> crashed;
    switch (faults.kind) {
      case FaultKind::kNone:
      case FaultKind::kCorrupt:
        break;
      case FaultKind::kCrash:
        crashed = sample_crash_set(rng, n, faults.crash_f);
        break;
      case FaultKind::kAdaptive:
        if (n > 0 && rng.chance(1, 2)) {
          crashed.push_back(static_cast<NodeId>(1 + rng.below(n)));
        }
        break;
    }
    const std::uint64_t schedule_seed = rng.next();
    Trial t;
    t.graph = &g;
    if (!crashed.empty()) {
      adapters.push_back(std::make_unique<CrashStopAdapter>(p, crashed));
      t.protocol = adapters.back().get();
    } else if (corrupt) {
      t.protocol = &*corrupt;
    } else {
      t.protocol = &p;
    }
    t.make_adversary = [schedule_seed](std::uint64_t) {
      return std::make_unique<RandomAdversary>(schedule_seed);
    };
    t.engine = opts.engine;
    trials.push_back(std::move(t));
    crash_sets.push_back(std::move(crashed));
  }
  BatchOptions bopts;
  bopts.threads = opts.threads;
  bopts.seed = opts.seed;
  const std::vector<ExecutionResult> results = run_batch(trials, bopts);
  SweepTotals totals;
  for (std::size_t i = 0; i < results.size(); ++i) {
    totals.add(SweepTotals::tally_of(classify(results[i], crash_sets[i])));
  }
  return totals;
}

}  // namespace wb
