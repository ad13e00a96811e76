// Rooted maximal independent set in SIMSYNC[log n] (paper Theorem 5).
//
// The greedy protocol: when the adversary selects node v, the message is
//  - ID(v) with the IN flag, if v = x (the root), or if v ∉ N(x) and no
//    neighbor of v has an IN message on the whiteboard yet;
//  - "no" (the OUT flag) otherwise.
// The set of IN IDs on the final whiteboard is an inclusion-maximal
// independent set containing x, whatever order the adversary forces —
// SIMSYNC's write-time composition is what lets a node withdraw after a
// neighbor enters the set.
//
// Theorem 6 proves the same problem needs Ω(n)-bit messages in SIMASYNC; the
// executable form of that separation lives in src/reductions/mis_reduction.h.
#pragma once

#include "src/protocols/outputs.h"
#include "src/wb/protocol.h"

namespace wb {

class RootedMisProtocol final : public SimSyncProtocol<MisOutput> {
 public:
  explicit RootedMisProtocol(NodeId root) : root_(root) {
    WB_CHECK(root >= 1);
  }

  [[nodiscard]] std::size_t message_bit_limit(std::size_t n) const override;
  [[nodiscard]] Bits compose(const LocalView& view,
                             const Whiteboard& board) const override;
  [[nodiscard]] Bits compose(const LocalView& view, const Whiteboard& board,
                             BitWriter& scratch) const override;
  [[nodiscard]] MisOutput output(const Whiteboard& board,
                                 std::size_t n) const override;
  [[nodiscard]] std::string name() const override { return "rooted-mis"; }

  [[nodiscard]] NodeId root() const noexcept { return root_; }

 private:
  NodeId root_;
};

/// Unbounded-message SIMASYNC baseline for rooted MIS: every node writes its
/// full adjacency row, and the output function computes the deterministic
/// greedy MIS containing the root (root first, then ascending IDs). This is
/// the oracle the executable Theorem 6 reduction is driven with; its
/// Θ(n)-bit messages are exactly what the theorem says cannot be avoided.
class MisOracleProtocol final : public SimAsyncProtocol<MisOutput> {
 public:
  explicit MisOracleProtocol(NodeId root) : root_(root) { WB_CHECK(root >= 1); }

  [[nodiscard]] std::size_t message_bit_limit(std::size_t n) const override;
  [[nodiscard]] Bits compose_initial(const LocalView& view) const override;
  [[nodiscard]] MisOutput output(const Whiteboard& board,
                                 std::size_t n) const override;
  [[nodiscard]] std::string name() const override { return "mis-oracle"; }

  [[nodiscard]] NodeId root() const noexcept { return root_; }

 private:
  NodeId root_;
};

}  // namespace wb
