// SUBGRAPH_f in SIMASYNC[f(n)] (paper Theorem 9).
//
// The problem: output the subgraph of G obtained by keeping only the edges
// inside the ID prefix {v_1, ..., v_f(n)}. The protocol is the obvious one —
// each prefix node writes the first f(n) bits of its adjacency-matrix row —
// and it witnesses that message size is a resource orthogonal to
// synchronization power: SUBGRAPH_f ∈ PSIMASYNC[f(n)] (weakest model), yet
// SUBGRAPH_f ∉ PSYNC[g(n)] for any g = o(f) (strongest model), by the
// Lemma 3 counting bound on the 2^{C(f,2)}-sized family where all edges live
// inside the prefix. The counting side is regenerated by
// bench/bench_subgraph.cpp.
#pragma once

#include "src/protocols/outputs.h"
#include "src/wb/protocol.h"

namespace wb {

class SubgraphProtocol final : public SimAsyncProtocol<Graph> {
 public:
  /// `f` = the prefix size f(n) for the instances this protocol runs on.
  explicit SubgraphProtocol(std::size_t f) : f_(f) {
    WB_REQUIRE_MSG(f >= 1, "subgraph F must be >= 1");
  }

  [[nodiscard]] std::size_t message_bit_limit(std::size_t n) const override;
  [[nodiscard]] Bits compose_initial(const LocalView& view,
                                     BitWriter& scratch) const override;
  /// The subgraph on {1..n} whose edges are G's edges within {1..f}.
  [[nodiscard]] Graph output(const Whiteboard& board,
                             std::size_t n) const override;
  [[nodiscard]] std::string name() const override {
    return "subgraph-f" + std::to_string(f_);
  }

  [[nodiscard]] std::size_t f() const noexcept { return f_; }

 private:
  std::size_t f_;
};

}  // namespace wb
