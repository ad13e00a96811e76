#include "src/sym/bdd.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "src/support/check.h"

namespace wb::sym {
namespace {

std::vector<std::uint32_t> universe_of(std::size_t n) {
  std::vector<std::uint32_t> u(n);
  std::iota(u.begin(), u.end(), 0u);
  return u;
}

TEST(Bdd, TerminalsAndVariables) {
  BddManager m(3);
  EXPECT_EQ(m.var_count(), 3u);
  EXPECT_NE(kBddFalse, kBddTrue);
  // Canonicity: asking twice yields the same node.
  EXPECT_EQ(m.var(0), m.var(0));
  EXPECT_EQ(m.nvar(2), m.nvar(2));
  EXPECT_NE(m.var(0), m.var(1));
  EXPECT_NE(m.var(0), m.nvar(0));
}

TEST(Bdd, IteIdentitiesAreCanonical) {
  // Semantic equality is ref equality — every identity below is an
  // EXPECT_EQ on handles, which is the whole point of hash-consing.
  BddManager m(4);
  const BddRef a = m.var(0);
  const BddRef b = m.var(1);
  const BddRef c = m.var(2);

  EXPECT_EQ(m.ite(a, kBddTrue, kBddFalse), a);
  EXPECT_EQ(m.ite(kBddTrue, a, b), a);
  EXPECT_EQ(m.ite(kBddFalse, a, b), b);
  EXPECT_EQ(m.ite(a, b, b), b);

  EXPECT_EQ(m.bdd_and(a, a), a);
  EXPECT_EQ(m.bdd_or(a, a), a);
  EXPECT_EQ(m.bdd_and(a, kBddFalse), kBddFalse);
  EXPECT_EQ(m.bdd_or(a, kBddTrue), kBddTrue);
  EXPECT_EQ(m.bdd_and(a, m.bdd_not(a)), kBddFalse);
  EXPECT_EQ(m.bdd_or(a, m.bdd_not(a)), kBddTrue);
  EXPECT_EQ(m.bdd_not(m.bdd_not(a)), a);
  EXPECT_EQ(m.bdd_xor(a, a), kBddFalse);
  EXPECT_EQ(m.bdd_iff(a, a), kBddTrue);
  EXPECT_EQ(m.bdd_xor(a, kBddFalse), a);

  // Commutativity / associativity / De Morgan, as handle equalities.
  EXPECT_EQ(m.bdd_and(a, b), m.bdd_and(b, a));
  EXPECT_EQ(m.bdd_or(a, b), m.bdd_or(b, a));
  EXPECT_EQ(m.bdd_and(m.bdd_and(a, b), c), m.bdd_and(a, m.bdd_and(b, c)));
  EXPECT_EQ(m.bdd_not(m.bdd_and(a, b)),
            m.bdd_or(m.bdd_not(a), m.bdd_not(b)));
  // Distributivity.
  EXPECT_EQ(m.bdd_and(a, m.bdd_or(b, c)),
            m.bdd_or(m.bdd_and(a, b), m.bdd_and(a, c)));
  // Shannon expansion rebuilds the function it expanded.
  const BddRef f = m.bdd_xor(m.bdd_and(a, b), c);
  EXPECT_EQ(m.ite(a, m.bdd_xor(b, c), c), f);
}

TEST(Bdd, CubeMatchesTheAndChain) {
  BddManager m(5);
  const std::vector<BddLiteral> lits = {{0, true}, {2, false}, {4, true}};
  BddRef chain = kBddTrue;
  for (const auto& [v, phase] : lits) {
    chain = m.bdd_and(chain, phase ? m.var(v) : m.nvar(v));
  }
  EXPECT_EQ(m.cube(lits), chain);
  EXPECT_EQ(m.cube({}), kBddTrue);
  EXPECT_EQ(m.sat_count(m.cube(lits), universe_of(5)), 4u);  // 2 free vars
}

TEST(Bdd, EvalAgreesWithConstruction) {
  BddManager m(3);
  // f = (x0 & x1) | !x2
  const BddRef f =
      m.bdd_or(m.bdd_and(m.var(0), m.var(1)), m.nvar(2));
  for (unsigned bits = 0; bits < 8; ++bits) {
    const std::vector<bool> a = {(bits & 1) != 0, (bits & 2) != 0,
                                 (bits & 4) != 0};
    const bool expected = (a[0] && a[1]) || !a[2];
    EXPECT_EQ(m.eval(f, a), expected) << "assignment " << bits;
  }
  EXPECT_TRUE(m.eval(kBddTrue, {false, false, false}));
  EXPECT_FALSE(m.eval(kBddFalse, {true, true, true}));
}

TEST(Bdd, SatCountOverTheUniverse) {
  BddManager m(4);
  const auto u = universe_of(4);
  EXPECT_EQ(m.sat_count(kBddTrue, u), 16u);
  EXPECT_EQ(m.sat_count(kBddFalse, u), 0u);
  EXPECT_EQ(m.sat_count(m.var(1), u), 8u);
  const BddRef f = m.bdd_xor(m.var(0), m.var(3));
  EXPECT_EQ(m.sat_count(f, u), 8u);
  // Universe variables outside the support double the count...
  const std::vector<std::uint32_t> narrow = {0, 3};
  EXPECT_EQ(m.sat_count(f, narrow), 2u);
  // ...and a support variable missing from the universe is a bug.
  const std::vector<std::uint32_t> missing = {0, 1};
  EXPECT_THROW((void)m.sat_count(f, missing), LogicError);
}

TEST(Bdd, SatCountOverflowIsATypedRefusal) {
  // 2^65 models of TRUE over a 65-variable universe exceeds uint64.
  BddManager m(65);
  EXPECT_THROW((void)m.sat_count(kBddTrue, universe_of(65)), DataError);
  // 2^63 still fits.
  BddManager small(63);
  EXPECT_EQ(m.sat_count(kBddTrue, universe_of(63)),
            std::uint64_t{1} << 63);
}

TEST(Bdd, ExistsQuantifiesAway) {
  BddManager m(4);
  const BddRef a = m.var(0);
  const BddRef b = m.var(1);
  const BddRef f = m.bdd_and(a, b);
  const std::vector<std::uint32_t> just_b = {1};
  EXPECT_EQ(m.exists(f, just_b), a);           // ∃b. a∧b = a
  const std::vector<std::uint32_t> both = {0, 1};
  EXPECT_EQ(m.exists(f, both), kBddTrue);      // satisfiable
  EXPECT_EQ(m.exists(kBddFalse, both), kBddFalse);
  // ∃ distributes over ∨.
  const BddRef g = m.bdd_and(m.nvar(0), m.var(2));
  EXPECT_EQ(m.exists(m.bdd_or(f, g), just_b),
            m.bdd_or(m.exists(f, just_b), m.exists(g, just_b)));
  // Quantifying a variable outside the support is the identity.
  const std::vector<std::uint32_t> foreign = {3};
  EXPECT_EQ(m.exists(f, foreign), f);
}

TEST(Bdd, HashConsingSharesStructure) {
  BddManager m(8);
  const std::size_t base = m.stats().nodes;
  const BddRef f = m.bdd_and(m.var(0), m.var(1));
  const std::size_t after_first = m.stats().nodes;
  // Rebuilding the same function allocates nothing.
  EXPECT_EQ(m.bdd_and(m.var(0), m.var(1)), f);
  EXPECT_EQ(m.stats().nodes, after_first);
  EXPECT_GT(after_first, base);
  EXPECT_GT(m.stats().unique_hits, 0u);
}

TEST(Bdd, UniqueTableStressStaysCanonical) {
  // Build a parity chain over 24 variables twice; canonical form means the
  // two roots are the same handle, through multiple table growths.
  BddManager m(24);
  const auto parity = [&m] {
    BddRef f = kBddFalse;
    for (std::uint32_t v = 0; v < 24; ++v) f = m.bdd_xor(f, m.var(v));
    return f;
  };
  const BddRef p1 = parity();
  const BddRef p2 = parity();
  EXPECT_EQ(p1, p2);
  // Parity of 24 bits: exactly half the assignments are odd.
  EXPECT_EQ(m.sat_count(p1, universe_of(24)), std::uint64_t{1} << 23);
  const BddStats& s = m.stats();
  EXPECT_GE(s.nodes, 2u + 2u * 23u + 1u);  // the parity ladder
  EXPECT_GT(s.cache_lookups, 0u);
  EXPECT_GT(s.ite_calls, 0u);
  EXPECT_EQ(s.vars, 24u);
}

}  // namespace
}  // namespace wb::sym
