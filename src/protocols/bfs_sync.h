// BFS forests of arbitrary graphs in SYNC[log n] (paper Thm 10).
//
// Extends the EOB protocol with intra-layer bookkeeping. The message is
//     (ID(v), l(v), p(v), d-1(v), d0(v), d+1(v))
// with d-1(v) = #written neighbors one layer up, d0(v) = #written neighbors
// in the same layer *at the moment v's message is finally written* — this is
// where the synchronous "change its mind" power is essential: d0 grows while
// v waits to be scheduled, and the engine composes v's message only when v
// is written — and d+1(v) = deg(v) − d-1(v) (intra-layer edges are charged
// to d+1 and corrected by the certificates below).
//
// Layer-ℓ completion certificate (paper condition (b)):
//     Σ_{L_ℓ} d-1  =  Σ_{L_{ℓ-1}} d+1 − 2·Σ_{L_{ℓ-1}} d0
// — the right side is exactly the number of edges from layer ℓ-1 to layer ℓ
// (each intra-layer edge was double counted in d+1 and appears exactly once
// in the later endpoint's d0).
//
// Component switch (paper condition (c), with the same ≥3-component
// generalization as eob_bfs.h):
//     Σ_{L_ℓ} d+1 − 2·Σ_{L_ℓ} d0 − Σ_{L_{ℓ+1}} d-1 = 0.
//
// Deviation from the paper's text: we take p(v) = the minimum-ID written
// neighbor *in layer l(v)-1*. The paper says "minimum-ID node of N*_v",
// which under synchronous composition could select a same-layer neighbor
// that wrote early and would not be a valid BFS parent; restricting to the
// previous layer matches the obvious intent (and the EOB case, where the two
// definitions coincide).
#pragma once

#include "src/protocols/outputs.h"
#include "src/wb/protocol.h"

namespace wb {

class SyncBfsProtocol final : public ProtocolWithOutput<BfsProtocolOutput> {
 public:
  [[nodiscard]] ModelClass model_class() const override {
    return ModelClass::kSync;
  }
  [[nodiscard]] std::size_t message_bit_limit(std::size_t n) const override;
  [[nodiscard]] bool activate(const LocalView& view,
                              const Whiteboard& board) const override;
  [[nodiscard]] Bits compose(const LocalView& view, const Whiteboard& board,
                             BitWriter& scratch) const override;
  [[nodiscard]] BfsProtocolOutput output(const Whiteboard& board,
                                         std::size_t n) const override;
  [[nodiscard]] std::string name() const override { return "sync-bfs"; }
};

}  // namespace wb
