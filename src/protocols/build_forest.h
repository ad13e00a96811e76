// BUILD for forests in SIMASYNC[log n] (paper §3.1).
//
// Every node simultaneously writes the triple
//     (ID(v), d_T(v), Σ_{w ∈ N_T(v)} ID(w))
// — under 4·log n bits. The output function repeatedly "prunes a leaf": a
// node of degree ≤ 1 is removed; if its degree is exactly 1 the stored sum
// *is* its unique neighbor's ID, so the edge is recovered and the neighbor's
// (degree, sum) pair is updated as if the leaf were deleted from T. By
// induction this rebuilds the whole forest, or proves the input contains a
// cycle (output std::nullopt — the recognition variant of Theorem 2).
#pragma once

#include "src/protocols/outputs.h"
#include "src/wb/protocol.h"

namespace wb {

class BuildForestProtocol final : public SimAsyncProtocol<BuildOutput> {
 public:
  [[nodiscard]] std::size_t message_bit_limit(std::size_t n) const override;
  [[nodiscard]] Bits compose_initial(const LocalView& view,
                                     BitWriter& scratch) const override;
  [[nodiscard]] BuildOutput output(const Whiteboard& board,
                                   std::size_t n) const override;
  [[nodiscard]] std::string name() const override { return "build-forest"; }
};

}  // namespace wb
