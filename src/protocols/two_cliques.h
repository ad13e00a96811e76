// 2-CLIQUES in SIMSYNC[log n] (paper §5.1).
//
// Input promise: G is (n-1)-regular on 2n nodes; decide whether G is the
// disjoint union of two n-cliques. The greedy "which clique do I believe I'm
// in" protocol:
//  - the first selected node writes side 0;
//  - a later node whose already-written neighbors all wrote side c writes c;
//  - a later node with no written neighbor writes side 1;
//  - a node seeing both sides among written neighbors writes "no".
// Output: YES iff no "no" was written and both sides have exactly n nodes.
// (The side-count check rejects executions on a connected regular graph
// where a single side floods everything — see the analysis in
// tests/protocols/two_cliques_test.cpp.)
#pragma once

#include "src/protocols/outputs.h"
#include "src/wb/protocol.h"

namespace wb {

class TwoCliquesProtocol final : public SimSyncProtocol<TwoCliquesOutput> {
 public:
  [[nodiscard]] std::size_t message_bit_limit(std::size_t n) const override;
  [[nodiscard]] Bits compose(const LocalView& view, const Whiteboard& board,
                             BitWriter& scratch) const override;
  [[nodiscard]] TwoCliquesOutput output(const Whiteboard& board,
                                        std::size_t n) const override;
  [[nodiscard]] std::string name() const override { return "two-cliques"; }
};

}  // namespace wb
