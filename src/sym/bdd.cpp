#include "src/sym/bdd.h"

#include <algorithm>

#include "src/support/hash.h"

namespace wb::sym {

namespace {

constexpr std::size_t kInitialUniqueSlots = 1u << 12;
constexpr std::size_t kInitialCacheSlots = 1u << 12;

[[nodiscard]] std::uint64_t node_hash(std::uint32_t var, std::uint32_t lo,
                                      std::uint32_t hi) noexcept {
  std::uint64_t h = (static_cast<std::uint64_t>(var) << 40) ^
                    (static_cast<std::uint64_t>(lo) << 20) ^
                    static_cast<std::uint64_t>(hi);
  return mix64(h);
}

}  // namespace

BddManager::BddManager(std::size_t var_count) : var_count_(var_count) {
  WB_REQUIRE_MSG(var_count < kTerminalVar, "too many BDD variables");
  nodes_.reserve(1u << 12);
  nodes_.push_back(Node{kTerminalVar, kBddFalse, kBddFalse});  // kBddFalse
  nodes_.push_back(Node{kTerminalVar, kBddTrue, kBddTrue});    // kBddTrue
  unique_.assign(kInitialUniqueSlots, 0);
  unique_mask_ = kInitialUniqueSlots - 1;
  cache_.assign(kInitialCacheSlots, CacheEntry{});
  cache_mask_ = kInitialCacheSlots - 1;
  stats_.vars = var_count;
  stats_.nodes = nodes_.size();
}

std::size_t BddManager::unique_slot(std::uint32_t var, BddRef lo,
                                    BddRef hi) const noexcept {
  return static_cast<std::size_t>(node_hash(var, lo, hi)) & unique_mask_;
}

void BddManager::grow_unique_table() {
  const std::size_t new_size = unique_.size() * 2;
  std::vector<std::uint32_t> fresh(new_size, 0);
  unique_mask_ = new_size - 1;
  for (const std::uint32_t slot_value : unique_) {
    if (slot_value == 0) continue;
    const Node& node = nodes_[slot_value - 1];
    std::size_t s = unique_slot(node.var, node.lo, node.hi);
    while (fresh[s] != 0) s = (s + 1) & unique_mask_;
    fresh[s] = slot_value;
  }
  unique_ = std::move(fresh);
}

BddRef BddManager::make_node(std::uint32_t var, BddRef lo, BddRef hi) {
  if (lo == hi) return lo;
  WB_CHECK_MSG(var < rank(lo) && var < rank(hi),
               "BDD variable order violated at variable " << var);
  std::size_t s = unique_slot(var, lo, hi);
  while (unique_[s] != 0) {
    const Node& node = nodes_[unique_[s] - 1];
    if (node.var == var && node.lo == lo && node.hi == hi) {
      ++stats_.unique_hits;
      return unique_[s] - 1;
    }
    s = (s + 1) & unique_mask_;
  }
  ++stats_.unique_misses;
  const BddRef ref = static_cast<BddRef>(nodes_.size());
  WB_REQUIRE_MSG(ref != kInvalid, "BDD node space exhausted");
  nodes_.push_back(Node{var, lo, hi});
  unique_[s] = ref + 1;
  stats_.nodes = nodes_.size();
  // Keep load factor under 2/3 so probe chains stay short.
  if (nodes_.size() * 3 > unique_.size() * 2) grow_unique_table();
  // Scale the computed cache with the node table: a cache much smaller than
  // the function being built thrashes; reallocating clears it, which is
  // sound (it is only a cache).
  if (nodes_.size() > cache_.size()) {
    cache_.assign(cache_.size() * 4, CacheEntry{});
    cache_mask_ = cache_.size() - 1;
  }
  return ref;
}

BddRef BddManager::var(std::uint32_t v) {
  WB_REQUIRE_MSG(v < var_count_, "BDD variable " << v << " out of range");
  return make_node(v, kBddFalse, kBddTrue);
}

BddRef BddManager::nvar(std::uint32_t v) {
  WB_REQUIRE_MSG(v < var_count_, "BDD variable " << v << " out of range");
  return make_node(v, kBddTrue, kBddFalse);
}

BddRef BddManager::ite(BddRef f, BddRef g, BddRef h) {
  ++stats_.ite_calls;
  // Terminal shortcuts (all the standard identities that need no recursion).
  if (f == kBddTrue) return g;
  if (f == kBddFalse) return h;
  if (g == h) return g;
  if (g == kBddTrue && h == kBddFalse) return f;
  if (f == g) g = kBddTrue;       // ite(f, f, h) = ite(f, 1, h)
  else if (f == h) h = kBddFalse; // ite(f, g, f) = ite(f, g, 0)

  ++stats_.cache_lookups;
  const std::uint64_t key = mix64((static_cast<std::uint64_t>(f) << 42) ^
                                  (static_cast<std::uint64_t>(g) << 21) ^
                                  static_cast<std::uint64_t>(h));
  CacheEntry& entry = cache_[static_cast<std::size_t>(key) & cache_mask_];
  if (entry.result != kInvalid && entry.f == f && entry.g == g &&
      entry.h == h) {
    ++stats_.cache_hits;
    return entry.result;
  }

  const std::uint32_t top =
      std::min(rank(f), std::min(rank(g), rank(h)));
  const auto cofactor = [&](BddRef x, bool high) -> BddRef {
    const Node& node = nodes_[x];
    if (node.var != top) return x;
    return high ? node.hi : node.lo;
  };
  const BddRef lo = ite(cofactor(f, false), cofactor(g, false),
                        cofactor(h, false));
  const BddRef hi = ite(cofactor(f, true), cofactor(g, true),
                        cofactor(h, true));
  const BddRef result = make_node(top, lo, hi);
  // The recursion may have reallocated (and cleared) the cache; re-resolve
  // the slot before storing.
  CacheEntry& store = cache_[static_cast<std::size_t>(key) & cache_mask_];
  store = CacheEntry{f, g, h, result};
  return result;
}

BddRef BddManager::cube(std::span<const BddLiteral> lits) {
  BddRef acc = kBddTrue;
  for (std::size_t i = lits.size(); i-- > 0;) {
    const auto [v, phase] = lits[i];
    WB_REQUIRE_MSG(v < var_count_, "BDD variable " << v << " out of range");
    WB_CHECK_MSG(acc == kBddTrue || v < rank(acc),
                 "cube literals must be sorted ascending");
    acc = phase ? make_node(v, kBddFalse, acc) : make_node(v, acc, kBddFalse);
  }
  return acc;
}

BddRef BddManager::exists(BddRef f, std::span<const std::uint32_t> vars) {
  if (vars.empty() || f == kBddFalse || f == kBddTrue) return f;
  std::vector<std::uint8_t> quantified(var_count_, 0);
  std::uint32_t last_var = 0;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    WB_REQUIRE_MSG(vars[i] < var_count_,
                   "BDD variable " << vars[i] << " out of range");
    WB_CHECK_MSG(i == 0 || vars[i] >= last_var,
                 "exists variable set must be sorted ascending");
    last_var = vars[i];
    quantified[vars[i]] = 1;
  }
  std::vector<BddRef> memo(nodes_.size(), kInvalid);
  const auto recurse = [&](auto&& self, BddRef x) -> BddRef {
    if (x == kBddFalse || x == kBddTrue) return x;
    if (memo[x] != kInvalid) return memo[x];
    const Node node = nodes_[x];  // copy: recursion may reallocate nodes_
    const BddRef lo = self(self, node.lo);
    const BddRef hi = self(self, node.hi);
    const BddRef r = quantified[node.var] ? bdd_or(lo, hi)
                                          : make_node(node.var, lo, hi);
    memo[x] = r;
    return r;
  };
  return recurse(recurse, f);
}

std::uint64_t BddManager::sat_count(
    BddRef f, std::span<const std::uint32_t> universe) const {
  // position[v] = index of v in the universe; kMissing if absent.
  constexpr std::uint32_t kMissing = 0xffffffffu;
  std::vector<std::uint32_t> position(var_count_, kMissing);
  for (std::size_t i = 0; i < universe.size(); ++i) {
    WB_REQUIRE_MSG(universe[i] < var_count_,
                   "universe variable " << universe[i] << " out of range");
    WB_CHECK_MSG(i == 0 || universe[i] > universe[i - 1],
                 "sat_count universe must be strictly ascending");
    position[universe[i]] = static_cast<std::uint32_t>(i);
  }
  const std::uint32_t depth_end = static_cast<std::uint32_t>(universe.size());
  const auto pos_of = [&](BddRef x) -> std::uint32_t {
    if (x == kBddFalse || x == kBddTrue) return depth_end;
    const std::uint32_t p = position[nodes_[x].var];
    WB_CHECK_MSG(p != kMissing, "sat_count universe misses support variable "
                                    << nodes_[x].var);
    return p;
  };
  using U128 = unsigned __int128;
  const auto scale = [](U128 c, std::uint32_t gap) -> U128 {
    if (c == 0) return 0;
    WB_REQUIRE_MSG(gap < 64, "sat_count overflow (more than 2^64 models)");
    const U128 scaled = c << gap;
    WB_REQUIRE_MSG((scaled >> gap) == c,
                   "sat_count overflow (more than 2^64 models)");
    return scaled;
  };
  std::vector<U128> memo(nodes_.size(), ~U128{0});
  // sc(x) = #models of x over the universe suffix starting at pos_of(x).
  // Any node's count lower-bounds the root count (every node is reached by
  // at least one positive-weight path), so clamping per node to 2^64 - 1
  // throws exactly when the final count would, and keeps every __int128
  // intermediate well inside range.
  const auto recurse = [&](auto&& self, BddRef x) -> U128 {
    if (x == kBddFalse) return 0;
    if (x == kBddTrue) return 1;
    if (memo[x] != ~U128{0}) return memo[x];
    const Node& node = nodes_[x];
    const std::uint32_t p = pos_of(x);
    const U128 lo = scale(self(self, node.lo), pos_of(node.lo) - p - 1);
    const U128 hi = scale(self(self, node.hi), pos_of(node.hi) - p - 1);
    const U128 total = lo + hi;
    WB_REQUIRE_MSG(total <= U128{0xffffffffffffffffull},
                   "sat_count overflow (more than 2^64 models)");
    memo[x] = total;
    return total;
  };
  const U128 total = scale(recurse(recurse, f), pos_of(f));
  WB_REQUIRE_MSG(total <= U128{0xffffffffffffffffull},
                 "sat_count overflow (more than 2^64 models)");
  return static_cast<std::uint64_t>(total);
}

bool BddManager::eval(BddRef f, const std::vector<bool>& assignment) const {
  WB_REQUIRE_MSG(assignment.size() >= var_count_,
                 "eval assignment smaller than the variable count");
  while (f != kBddFalse && f != kBddTrue) {
    const Node& node = nodes_[f];
    f = assignment[node.var] ? node.hi : node.lo;
  }
  return f == kBddTrue;
}

}  // namespace wb::sym
