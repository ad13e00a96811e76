// BUILD for graphs of degeneracy ≤ k in SIMASYNC[O(k² log n)] (paper
// §3.2–3.4, Theorem 2, Algorithm 1).
//
// Every node simultaneously writes
//     (ID(x), d_G(x), b(x))   with   b(x) = A(k,n)·x,
// i.e. the power sums Σ_{w∈N(x)} ID(w)^p for p = 1..k — O(k² log n) bits
// (Lemma 1). Theorem 1 (Wright) makes b(x) a perfect fingerprint of any
// neighborhood of size ≤ k, so the output function runs Algorithm 1: while a
// message with residual degree ≤ k exists, decode that node's residual
// neighborhood, add the edges, and subtract the node from its neighbors'
// fingerprints. If the process strands only nodes of residual degree > k the
// input was not k-degenerate and the protocol rejects (recognition variant).
//
// Two interchangeable decoders:
//  - kNewton: Newton's identities → monic polynomial → integer root
//    extraction over {1..n}; O(n·k) per node, O(n²k) total.
//  - kTable: the Lemma 2 lookup table over all ≤k-subsets (O(n^k) space);
//    reference implementation for the decoder ablation bench.
#pragma once

#include "src/protocols/outputs.h"
#include "src/wb/protocol.h"

namespace wb {

enum class DegenerateDecoder { kNewton, kTable };

class BuildDegenerateProtocol final : public SimAsyncProtocol<BuildOutput> {
 public:
  explicit BuildDegenerateProtocol(
      int k, DegenerateDecoder decoder = DegenerateDecoder::kNewton);

  [[nodiscard]] std::size_t message_bit_limit(std::size_t n) const override;
  [[nodiscard]] Bits compose_initial(const LocalView& view,
                                     BitWriter& scratch) const override;
  [[nodiscard]] BuildOutput output(const Whiteboard& board,
                                   std::size_t n) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] int k() const noexcept { return k_; }

 private:
  int k_;
  DegenerateDecoder decoder_;
};

}  // namespace wb
