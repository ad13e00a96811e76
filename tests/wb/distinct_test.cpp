// The DistinctAccumulator surface: config grammar, factory dispatch, the
// exact accumulator's bit-identity with the raw sorted-run machinery it
// wraps, and the cross-kind merge guard.
#include "src/wb/distinct.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include "src/support/check.h"

namespace wb {
namespace {

Hash128 key_of(std::uint64_t i) {
  const std::uint64_t lo = mix64(i + 1);
  return Hash128{lo, mix64(lo)};
}

TEST(DistinctConfig, ParsesAndFormatsCanonically) {
  EXPECT_EQ(parse_distinct_config("exact"), DistinctConfig::Exact());
  EXPECT_EQ(parse_distinct_config("hll"), DistinctConfig::Hll());
  EXPECT_EQ(parse_distinct_config("hll:8"), DistinctConfig::Hll(8));
  EXPECT_EQ(parse_distinct_config("hll:18"), DistinctConfig::Hll(18));

  EXPECT_EQ(to_string(DistinctConfig::Exact()), "exact");
  EXPECT_EQ(to_string(DistinctConfig::Hll(14)), "hll:14");
  for (const char* text : {"exact", "hll:4", "hll:14", "hll:18"}) {
    EXPECT_EQ(to_string(parse_distinct_config(text)), text) << text;
  }
  // The bare "hll" normalizes to the default precision.
  EXPECT_EQ(to_string(parse_distinct_config("hll")),
            "hll:" + std::to_string(DistinctConfig::kDefaultHllPrecision));
}

TEST(DistinctConfig, ExactEqualityIgnoresTheMeaninglessPrecisionField) {
  // Precision is hll-only; two exact configs must compare equal no matter
  // what the field holds (a round-trip through text resets it to the
  // default, and merge validation compares configs).
  const DistinctConfig a{DistinctKind::kExact, 12};
  EXPECT_EQ(a, DistinctConfig::Exact());
  EXPECT_EQ(parse_distinct_config(to_string(a)), a);
  EXPECT_NE(DistinctConfig::Hll(12), DistinctConfig::Hll(14));
  EXPECT_NE(DistinctConfig::Exact(), DistinctConfig::Hll());
}

TEST(DistinctConfig, RejectsMalformedSpecs) {
  for (const char* text :
       {"", "Exact", "exactly", "hhl", "hll:", "hll:x", "hll:3", "hll:19",
        "hll:014", "hll:140", "hll:14:2", "exact:4"}) {
    EXPECT_THROW((void)parse_distinct_config(text), DataError) << text;
  }
}

TEST(DistinctAccumulator, FactoryDispatchesOnKind) {
  const auto exact = make_distinct_accumulator(DistinctConfig::Exact());
  EXPECT_EQ(exact->config(), DistinctConfig::Exact());
  const auto hll = make_distinct_accumulator(DistinctConfig::Hll(9));
  EXPECT_EQ(hll->config(), DistinctConfig::Hll(9));
}

TEST(DistinctAccumulator, ExactMatchesTheRawSortedRunMachinery) {
  // The accumulator is the old StreamingDistinct + union_sorted_runs path
  // behind an interface; counts and the key set itself must be identical.
  std::vector<Hash128> keys;
  for (std::uint64_t i = 0; i < 5'000; ++i) {
    keys.push_back(key_of(i % 1'700));  // duplicates on purpose
  }
  StreamingDistinct reference;
  ExactDistinctAccumulator acc;
  for (const Hash128& k : keys) {
    reference.add(k);
    acc.insert(k);
  }
  EXPECT_EQ(acc.estimate(), 1'700u);
  EXPECT_EQ(acc.take_sorted(), reference.take_sorted());
}

TEST(DistinctAccumulator, ExactMergeIsOrderObliviousAndExact) {
  constexpr std::size_t kParts = 5;
  std::vector<std::unique_ptr<DistinctAccumulator>> parts;
  for (std::size_t k = 0; k < kParts; ++k) {
    parts.push_back(make_distinct_accumulator(DistinctConfig::Exact()));
  }
  ExactDistinctAccumulator whole;
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    const Hash128 k = key_of(i % 4'096);
    whole.insert(k);
    parts[i % kParts]->insert(k);
  }
  std::mt19937 rng(0xABBA);
  std::shuffle(parts.begin(), parts.end(), rng);
  std::unique_ptr<DistinctAccumulator> total = std::move(parts.front());
  for (std::size_t k = 1; k < kParts; ++k) {
    total->merge(std::move(*parts[k]));
  }
  EXPECT_EQ(total->estimate(), 4'096u);
  EXPECT_EQ(static_cast<ExactDistinctAccumulator&>(*total).take_sorted(),
            whole.take_sorted());
}

TEST(DistinctAccumulator, TreeMergeMatchesTheSingleStream) {
  // merge_accumulators unions exact leaves as a tree on the pool: any leaf
  // count (odd ones leave a run over at some level), empty leaves, and any
  // thread count give the single stream's keys.
  for (const std::size_t parts : {1u, 2u, 5u, 7u}) {
    for (const std::size_t threads : {1u, 4u}) {
      for (const DistinctConfig config :
           {DistinctConfig::Exact(), DistinctConfig::Hll(12)}) {
        std::vector<std::unique_ptr<DistinctAccumulator>> leaves;
        for (std::size_t k = 0; k < parts; ++k) {
          leaves.push_back(make_distinct_accumulator(config));
        }
        const auto whole = make_distinct_accumulator(config);
        for (std::uint64_t i = 0; i < 10'000; ++i) {
          const Hash128 k = key_of(i % 4'096);
          whole->insert(k);
          // Leaf 1 (when there is one) stays empty.
          leaves[parts > 1 && i % parts == 1 ? 0 : i % parts]->insert(k);
        }
        const auto total = merge_accumulators(std::move(leaves), threads);
        EXPECT_EQ(total->config(), config);
        EXPECT_EQ(total->estimate(), whole->estimate())
            << parts << " leaves, " << threads << " threads";
        if (config.kind == DistinctKind::kExact) {
          auto& merged = static_cast<ExactDistinctAccumulator&>(*total);
          auto& single = static_cast<ExactDistinctAccumulator&>(*whole);
          EXPECT_EQ(merged.take_sorted(), single.take_sorted());
        }
      }
    }
  }
  std::vector<std::unique_ptr<DistinctAccumulator>> mixed;
  mixed.push_back(make_distinct_accumulator(DistinctConfig::Exact()));
  mixed.push_back(make_distinct_accumulator(DistinctConfig::Hll()));
  EXPECT_THROW((void)merge_accumulators(std::move(mixed), 1), LogicError);
}

TEST(DistinctAccumulator, HllMergeMatchesSingleStream) {
  auto whole = make_distinct_accumulator(DistinctConfig::Hll(12));
  auto left = make_distinct_accumulator(DistinctConfig::Hll(12));
  auto right = make_distinct_accumulator(DistinctConfig::Hll(12));
  for (std::uint64_t i = 0; i < 20'000; ++i) {
    const Hash128 k = key_of(i);
    whole->insert(k);
    (i % 2 == 0 ? left : right)->insert(k);
  }
  left->merge(std::move(*right));
  EXPECT_EQ(left->estimate(), whole->estimate());
  EXPECT_EQ(static_cast<HllDistinctAccumulator&>(*left).sketch(),
            static_cast<HllDistinctAccumulator&>(*whole).sketch());
}

TEST(DistinctAccumulator, MixedKindMergeIsALogicError) {
  auto exact = make_distinct_accumulator(DistinctConfig::Exact());
  auto hll = make_distinct_accumulator(DistinctConfig::Hll());
  EXPECT_THROW(exact->merge(std::move(*hll)), LogicError);
  auto hll2 = make_distinct_accumulator(DistinctConfig::Hll());
  auto exact2 = make_distinct_accumulator(DistinctConfig::Exact());
  EXPECT_THROW(hll2->merge(std::move(*exact2)), LogicError);
  // Same kind, different precision: also refused.
  auto p12 = make_distinct_accumulator(DistinctConfig::Hll(12));
  auto p14 = make_distinct_accumulator(DistinctConfig::Hll(14));
  EXPECT_THROW(p12->merge(std::move(*p14)), LogicError);
}

TEST(DistinctAccumulator, FromSortedAdoptsARunWithoutRecounting) {
  std::vector<Hash128> run = {key_of(1), key_of(2), key_of(3)};
  std::sort(run.begin(), run.end());
  ExactDistinctAccumulator acc = ExactDistinctAccumulator::from_sorted(run);
  EXPECT_EQ(acc.estimate(), 3u);
  acc.insert(run.front());  // duplicate: no change
  EXPECT_EQ(acc.estimate(), 3u);
  acc.insert(key_of(99));
  EXPECT_EQ(acc.estimate(), 4u);
}

}  // namespace
}  // namespace wb
