// Anonymous degree parade — a SIMSYNC[log n] protocol whose messages carry
// no identity.
//
// Every other protocol in the zoo signs its message with write_id, which
// makes the final whiteboard a faithful log of the adversary's schedule:
// distinct schedules always produce distinct boards. This protocol writes
// only deg(v) in id_bits(n) anonymous bits, so schedules that write
// same-degree nodes in swapped order *converge* to the same engine state.
// That convergence is what the paper's one-write model makes interesting
// (§1: with few bits the board no longer describes the graph — here it only
// carries the degree sequence) and what two subsystems exercise directly:
//
//  - the memoized enumerator shares converged subtrees, and since the
//    protocol is anonymous() it keys them by written count per twin class,
//    so star:n expands O(n²) states for n! schedules;
//  - the symbolic backend counts its distinct boards as permutations of a
//    multiset (n! / prod(multiplicity!)) without enumerating schedules.
//
// The output is the sorted written degree list; it is correct iff it equals
// the graph's degree sequence, which every schedule achieves — the protocol
// is trivially correct, and exists for its state-space shape.
#pragma once

#include <cstddef>
#include <vector>

#include "src/wb/protocol.h"

namespace wb {

/// Sorted (ascending) degrees read off the final whiteboard.
using AnonDegreeOutput = std::vector<std::size_t>;

class AnonDegreeProtocol final : public SimSyncProtocol<AnonDegreeOutput> {
 public:
  [[nodiscard]] std::size_t message_bit_limit(std::size_t n) const override;
  [[nodiscard]] Bits compose(const LocalView& view, const Whiteboard& board,
                             BitWriter& scratch) const override;
  [[nodiscard]] AnonDegreeOutput output(const Whiteboard& board,
                                        std::size_t n) const override;
  /// Messages are degrees and the output their sorted list: no ID is read.
  [[nodiscard]] bool anonymous() const override { return true; }
  [[nodiscard]] std::string name() const override { return "anon-degree"; }
};

}  // namespace wb
