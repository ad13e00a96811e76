// TRIANGLE protocols.
//
// Table 2 of the paper classifies TRIANGLE as unsolvable in SIMASYNC[o(n)]
// (Theorem 3, via the reduction in src/reductions/triangle_reduction.h) but
// solvable in SIMSYNC. Two implementations live here:
//
//  - TriangleOracleProtocol (SIMASYNC[n + log n]): each node writes its full
//    adjacency row; the output reconstructs G and tests for a triangle.
//    Correct but with Θ(n)-bit messages — the unbounded-size oracle that the
//    executable Theorem 3 reduction is driven with, and the baseline showing
//    *where* the o(n) boundary bites.
//
//  - TrianglePairChaseProtocol (SIMSYNC[O(log n)]): the journal text asserts
//    the SIMSYNC yes-cell but omits the protocol (see DESIGN.md §3), so this
//    is our reconstruction. When node v is selected it parses all previously
//    *decodable* neighborhood announcements (nodes that wrote with back-
//    degree ≤ 3 reveal their exact back-neighborhood via §3-style power
//    sums); if some announced edge {x,y} has x,y ∈ N(v), v writes the
//    triangle certificate (v,x,y) — sound by construction. Otherwise v
//    announces (ID, back-degree, p1, p2, p3 of its written neighbors).
//    The output function answers YES on a certificate; with
//    `csp_limit ≥ n` it additionally enumerates every graph consistent with
//    the whiteboard (the adversary's order is replayable because messages
//    are deterministic in the board prefix) and answers NO/YES when all
//    consistent graphs agree, kUnknown otherwise. The benches measure how
//    often each answer occurs over exhaustive schedules.
#pragma once

#include "src/protocols/outputs.h"
#include "src/wb/protocol.h"

namespace wb {

class TriangleOracleProtocol final : public SimAsyncProtocol<bool> {
 public:
  [[nodiscard]] std::size_t message_bit_limit(std::size_t n) const override;
  [[nodiscard]] Bits compose_initial(const LocalView& view,
                                     BitWriter& scratch) const override;
  [[nodiscard]] bool output(const Whiteboard& board,
                            std::size_t n) const override;
  [[nodiscard]] std::string name() const override { return "triangle-oracle"; }
};

class TrianglePairChaseProtocol final
    : public SimSyncProtocol<TriangleVerdict> {
 public:
  /// csp_limit: enable the consistent-graph analysis for n ≤ csp_limit
  /// (exponential in C(n,2); keep ≤ 6).
  explicit TrianglePairChaseProtocol(std::size_t csp_limit = 0)
      : csp_limit_(csp_limit) {
    WB_CHECK_MSG(csp_limit <= 6, "consistent-graph analysis is 2^C(n,2)");
  }

  [[nodiscard]] std::size_t message_bit_limit(std::size_t n) const override;
  [[nodiscard]] Bits compose(const LocalView& view, const Whiteboard& board,
                             BitWriter& scratch) const override;
  [[nodiscard]] TriangleVerdict output(const Whiteboard& board,
                                       std::size_t n) const override;
  [[nodiscard]] std::string name() const override {
    return "triangle-pair-chase";
  }

 private:
  std::size_t csp_limit_;
};

}  // namespace wb
