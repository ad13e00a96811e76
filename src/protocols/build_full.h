// The trivial O(n)-bit upper baseline from §1: "if every node communicates
// its whole neighborhood (which can be done with O(n) bits), the whole graph
// is described on the whiteboard; therefore, any question can be easily
// answered."
//
// Each node writes (ID, adjacency row); the output function rebuilds G after
// verifying row symmetry. This protocol doubles as the unbounded-message
// oracle the executable reductions (Thm 3/6) are run against.
#pragma once

#include "src/protocols/outputs.h"
#include "src/wb/protocol.h"

namespace wb {

class BuildFullProtocol final : public SimAsyncProtocol<Graph> {
 public:
  [[nodiscard]] std::size_t message_bit_limit(std::size_t n) const override;
  [[nodiscard]] Bits compose_initial(const LocalView& view,
                                     BitWriter& scratch) const override;
  [[nodiscard]] Graph output(const Whiteboard& board,
                             std::size_t n) const override;
  [[nodiscard]] std::string name() const override { return "build-full"; }
};

}  // namespace wb
