// Full-information decision oracles and derived problems.
//
// §1 of the paper: with O(n)-bit messages "the whole graph is described on
// the whiteboard; therefore, any question can be easily answered", and at
// o(n) bits questions like "Does G contain a square?" or "Is the diameter
// of G at most 3?" become unsolvable. PropertyOracleProtocol is the
// executable form of the first half: a SIMASYNC[n + log n] protocol whose
// output evaluates an arbitrary graph predicate on the reconstructed input.
// It doubles as the oracle for counting comparisons (the o(n) impossibility
// side lives in the Lemma 3 ledger, bench_lemma3_counting).
//
// SpanningForestProtocol addresses Open Problem 2 ("Is it possible to solve
// SPANNING-TREE or even CONNECTIVITY in the ASYNC[f(n)] model?") from the
// constructive side: both problems are solvable in SYNC[log n] by reading a
// spanning forest off the Theorem 10 BFS whiteboard. Whether ASYNC suffices
// remains open; bench_connectivity measures how the ASYNC bipartite
// protocol's deadlock behaviour blocks the obvious approach.
#pragma once

#include <functional>
#include <string>

#include "src/protocols/bfs_sync.h"
#include "src/protocols/outputs.h"
#include "src/wb/protocol.h"

namespace wb {

/// SIMASYNC[n + log n]: every node writes its full adjacency row; the output
/// evaluates `predicate` on the reconstructed graph.
class PropertyOracleProtocol final : public SimAsyncProtocol<bool> {
 public:
  using Predicate = std::function<bool(const Graph&)>;

  PropertyOracleProtocol(std::string name, Predicate predicate);

  [[nodiscard]] std::size_t message_bit_limit(std::size_t n) const override;
  [[nodiscard]] Bits compose_initial(const LocalView& view) const override;
  [[nodiscard]] Bits compose_initial(const LocalView& view,
                                     BitWriter& scratch) const override;
  [[nodiscard]] bool output(const Whiteboard& board,
                            std::size_t n) const override;
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  std::string name_;
  Predicate predicate_;
};

/// "Does G contain a square (C4)?" — §1.
[[nodiscard]] PropertyOracleProtocol square_oracle();
/// "Is the diameter of G at most d?" — §1 uses d = 3.
[[nodiscard]] PropertyOracleProtocol diameter_at_most_oracle(int d);
/// "Is G connected?" — §6 / Open Problem 2.
[[nodiscard]] PropertyOracleProtocol connectivity_oracle();

/// Output of SPANNING-TREE / CONNECTIVITY read off a BFS whiteboard.
struct SpanningForestOutput {
  std::vector<Edge> edges;   // parent links, sorted
  std::size_t components = 0;
  bool connected = false;
};

/// SYNC[log n]: Theorem 10's protocol with a spanning-forest output function
/// (the positive half of Open Problem 2 — SYNC suffices; ASYNC is open).
class SpanningForestProtocol final
    : public ProtocolWithOutput<SpanningForestOutput> {
 public:
  [[nodiscard]] ModelClass model_class() const override {
    return ModelClass::kSync;
  }
  [[nodiscard]] std::size_t message_bit_limit(std::size_t n) const override {
    return bfs_.message_bit_limit(n);
  }
  [[nodiscard]] bool activate(const LocalView& view,
                              const Whiteboard& board) const override {
    return bfs_.activate(view, board);
  }
  [[nodiscard]] Bits compose(const LocalView& view,
                             const Whiteboard& board) const override {
    return bfs_.compose(view, board);
  }
  [[nodiscard]] Bits compose(const LocalView& view, const Whiteboard& board,
                             BitWriter& scratch) const override {
    return bfs_.compose(view, board, scratch);
  }
  [[nodiscard]] SpanningForestOutput output(const Whiteboard& board,
                                            std::size_t n) const override;
  [[nodiscard]] std::string name() const override { return "spanning-forest"; }

 private:
  SyncBfsProtocol bfs_;
};

/// Validation: `edges` is a spanning forest of g (acyclic, within-component
/// spanning, edge count = n - #components).
[[nodiscard]] bool is_spanning_forest_of(const Graph& g,
                                         const SpanningForestOutput& out);

}  // namespace wb
