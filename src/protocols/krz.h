// Konrad–Robinson–Zamaraev robust ε-error workload (PAPERS.md: "Robust
// lower bounds for graph problems in the blackboard model").
//
// KRZ study one-write blackboard protocols that may err with probability ε
// and prove lower bounds that are *robust* to such error. This workload
// reproduces one instance executable by our statistical engine: one-sided
// ε-error triangle detection by shared-randomness edge sampling.
//
// Every node knows the protocol seed (shared randomness). Each edge {u, v}
// is included in the sample iff a seeded hash coin with success probability
// num/den comes up heads — both endpoints compute the same decision, so the
// sampled subgraph is globally consistent without communication. A node's
// one message lists its sampled edges to *larger* neighbors; the output
// reconstructs the sampled subgraph and answers "triangle?" on it.
//
//  - Soundness (one-sided): every announced edge is a real edge, so a YES is
//    always correct.
//  - ε-error: a triangle survives sampling with probability q^3 (q =
//    num/den), so on a one-triangle instance the protocol misses with
//    probability exactly 1 - q^3 — the analytic failure rate
//    tests/wb/faults_test.cpp pins inside the Wilson interval produced by
//    the statistical verdict engine.
//  - Robust decoding: duplicate writers, out-of-range IDs, or truncated
//    messages raise wb::DataError, which the engine's fault firewall and the
//    fault classifiers turn into a clean terminal verdict.
#pragma once

#include "src/wb/protocol.h"

namespace wb {

class KrzTriangleProtocol final : public SimAsyncProtocol<bool> {
 public:
  /// Sample each edge with probability num/den (0 <= num <= den, den >= 1),
  /// decided by a hash of (seed, edge) — the shared random string.
  KrzTriangleProtocol(std::uint64_t num, std::uint64_t den,
                      std::uint64_t seed);

  [[nodiscard]] std::size_t message_bit_limit(std::size_t n) const override;
  [[nodiscard]] Bits compose_initial(const LocalView& view,
                                     BitWriter& scratch) const override;
  [[nodiscard]] bool output(const Whiteboard& board,
                            std::size_t n) const override;
  [[nodiscard]] std::string name() const override;

  /// The shared-randomness coin for edge {u, v} (order-insensitive).
  [[nodiscard]] bool edge_sampled(NodeId u, NodeId v) const;

 private:
  std::uint64_t num_;
  std::uint64_t den_;
  std::uint64_t seed_;
};

}  // namespace wb
