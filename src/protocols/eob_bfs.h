// BFS forests of even-odd-bipartite graphs in ASYNC[log n] (paper Thm 7)
// and of arbitrary bipartite graphs (paper Cor 4).
//
// The protocol activates nodes layer by layer. A node's message is
//     (ID(v), l(v), p(v), d-1(v), d+1(v))
// where l(v) = 1 + min layer among already-written neighbors, p(v) is the
// minimum-ID written neighbor (ROOT when none), d-1(v) = #written neighbors
// and d+1(v) = deg(v) − d-1(v). Activation is gated by an edge-counting
// certificate: layer ℓ is complete exactly when
//     Σ_{u ∈ L_ℓ} d-1(u)  =  Σ_{u ∈ L_{ℓ-1}} d+1(u)
// over written nodes — every layer-ℓ node has d-1 ≥ 1, so the left side
// reaches the (fixed) right side only when the whole layer has written.
//
// Component switching: when the finished layer promises no further edges,
// the minimum-ID unwritten node activates as a new root. We generalize the
// paper's condition Σ_{u∈L_{l(w)}} d+1(u) = 0 to
//     Σ_{u∈L_ℓ} d+1(u) − Σ_{u∈L_{ℓ+1}} d-1(u) = 0
// ("all promised next-layer edges are consumed"): the paper's literal form
// only balances for the first two components — with three or more, earlier
// components' roots keep nonzero d+1 forever. Both forms agree on ≤ 2
// components; the tests exercise ≥ 3.
//
// Mode kEvenOdd (Thm 7): a node with a same-parity neighbor immediately
// writes an "invalid" message, everyone else echoes it, and the output is
// valid = false. Mode kBipartiteNoCheck (Cor 4): the parity test is dropped;
// the protocol computes BFS forests of arbitrary bipartite graphs and can
// deadlock on non-bipartite inputs (the run ends in a corrupted
// configuration, which the engine reports).
#pragma once

#include "src/protocols/outputs.h"
#include "src/wb/protocol.h"

namespace wb {

enum class EobMode { kEvenOdd, kBipartiteNoCheck };

class EobBfsProtocol final : public ProtocolWithOutput<BfsProtocolOutput> {
 public:
  explicit EobBfsProtocol(EobMode mode = EobMode::kEvenOdd) : mode_(mode) {}

  [[nodiscard]] ModelClass model_class() const override {
    return ModelClass::kAsync;
  }
  [[nodiscard]] std::size_t message_bit_limit(std::size_t n) const override;
  [[nodiscard]] bool activate(const LocalView& view,
                              const Whiteboard& board) const override;
  [[nodiscard]] Bits compose(const LocalView& view, const Whiteboard& board,
                             BitWriter& scratch) const override;
  [[nodiscard]] BfsProtocolOutput output(const Whiteboard& board,
                                         std::size_t n) const override;
  [[nodiscard]] std::string name() const override {
    return mode_ == EobMode::kEvenOdd ? "eob-bfs" : "bipartite-bfs";
  }

 private:
  EobMode mode_;
};

}  // namespace wb
