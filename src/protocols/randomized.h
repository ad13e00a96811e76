// Randomized whiteboard protocols (paper §7).
//
// The conclusion states: "It can be shown that 2-CLIQUES admits a randomized
// protocol for these models", and Open Problem 4 asks which problems admit
// randomized SIMASYNC[log n] protocols. We implement the natural public-coin
// formalization: a randomized protocol is a deterministic protocol
// parameterized by a shared random seed (the common random string is drawn
// before the execution; the adversary still chooses the schedule but not the
// coins). Correctness is then "for every graph and every schedule, the
// answer is right with high probability over the seed" — which the tests and
// benches measure empirically over many seeds.
//
// RandomizedTwoCliquesProtocol — 2-CLIQUES in *SIMASYNC*[O(log n)], i.e. in
// the weakest model, where the deterministic Table 2 status is open
// (Open Problem 1):
//   each node v writes (ID(v), F_r(N[v])) where N[v] is its closed
//   neighborhood and F_r is a degree-≤|S| polynomial fingerprint over a
//   64-bit field evaluated at the shared random point r:
//       F_r(S) = Π_{w ∈ S} (r + w)   mod 2^61-1.
//   Output: YES iff the fingerprints take exactly two values, each on
//   exactly n of the 2n nodes.
//
// Why it works: in a union of two n-cliques every node of a clique has the
// same closed neighborhood (the clique itself), so each side fingerprints
// identically — two values, n nodes each, always. Conversely, if some value
// class A of size n had members with *different* closed neighborhoods, the
// polynomial identity test separates them with probability ≥ 1 - n/p; and
// when all of A shares one closed neighborhood S, then A ⊆ S (closed),
// |S| = n (the input promise is (n-1)-regular) gives S = A: A is a clique
// split off from the rest. So NO-instances are rejected except with
// probability O(n/2^61) per pair — one-sided error.
#pragma once

#include <cstdint>

#include "src/protocols/outputs.h"
#include "src/wb/protocol.h"

namespace wb {

class RandomizedTwoCliquesProtocol final
    : public SimAsyncProtocol<TwoCliquesOutput> {
 public:
  /// `shared_seed` is the public random string (drawn once per execution,
  /// visible to every node, hidden from nobody).
  explicit RandomizedTwoCliquesProtocol(std::uint64_t shared_seed);

  [[nodiscard]] std::size_t message_bit_limit(std::size_t n) const override;
  [[nodiscard]] Bits compose_initial(const LocalView& view,
                                     BitWriter& scratch) const override;
  [[nodiscard]] TwoCliquesOutput output(const Whiteboard& board,
                                        std::size_t n) const override;
  [[nodiscard]] std::string name() const override {
    return "randomized-two-cliques";
  }

  /// The fingerprint function itself (exposed for the collision bench):
  /// Π (r + w) mod 2^61-1 over the sorted set.
  [[nodiscard]] static std::uint64_t fingerprint(
      std::span<const NodeId> closed_neighborhood, std::uint64_t point);

 private:
  std::uint64_t point_;  // evaluation point derived from the shared seed
};

}  // namespace wb
