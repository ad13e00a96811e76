#include "src/sym/encode.h"

#include <algorithm>

#include "src/graph/algorithms.h"
#include "src/protocols/anon_frontier.h"
#include "src/protocols/codec.h"
#include "src/protocols/mis.h"
#include "src/protocols/two_cliques.h"

namespace wb::sym {

BoardLayout::BoardLayout(std::size_t n, std::size_t id_bits,
                         std::size_t msg_bits)
    : n_(n), id_bits_(id_bits), msg_bits_(msg_bits) {
  WB_CHECK_MSG(n >= 1, "BoardLayout needs at least one node");
}

std::uint32_t BoardLayout::order_bit(std::size_t slot, std::size_t b) const {
  WB_CHECK(slot < n_ && b < id_bits_);
  return static_cast<std::uint32_t>(slot * (id_bits_ + msg_bits_) + b);
}

std::uint32_t BoardLayout::msg_bit(std::size_t slot, std::size_t b) const {
  WB_CHECK(slot < n_ && b < msg_bits_);
  return static_cast<std::uint32_t>(slot * (id_bits_ + msg_bits_) + id_bits_ +
                                    b);
}

std::uint32_t BoardLayout::wrote_bit(NodeId v) const {
  WB_CHECK(v >= 1 && v <= n_);
  return static_cast<std::uint32_t>(n_ * (id_bits_ + msg_bits_) + (v - 1));
}

std::vector<std::uint32_t> BoardLayout::full_universe() const {
  std::vector<std::uint32_t> vars(var_count());
  for (std::size_t i = 0; i < vars.size(); ++i) {
    vars[i] = static_cast<std::uint32_t>(i);
  }
  return vars;
}

std::vector<std::uint32_t> BoardLayout::msg_universe() const {
  std::vector<std::uint32_t> vars;
  vars.reserve(n_ * msg_bits_);
  for (std::size_t slot = 0; slot < n_; ++slot) {
    for (std::size_t b = 0; b < msg_bits_; ++b) {
      vars.push_back(msg_bit(slot, b));
    }
  }
  return vars;
}

std::vector<std::uint32_t> BoardLayout::non_msg_universe() const {
  std::vector<std::uint32_t> vars;
  vars.reserve(n_ * id_bits_ + n_);
  for (std::size_t slot = 0; slot < n_; ++slot) {
    for (std::size_t b = 0; b < id_bits_; ++b) {
      vars.push_back(order_bit(slot, b));
    }
  }
  for (NodeId v = 1; v <= n_; ++v) vars.push_back(wrote_bit(v));
  return vars;
}

namespace {

/// Cube over `width` consecutive field bits (bit b at var_of(b), ascending
/// in b): the field equals `value`, LSB-first like BitWriter::write_uint.
template <typename VarOf>
[[nodiscard]] BddRef field_equals(BddManager& m, std::size_t width,
                                  std::uint64_t value, const VarOf& var_of) {
  std::vector<BddLiteral> lits;
  lits.reserve(width);
  for (std::size_t b = 0; b < width; ++b) {
    lits.push_back({var_of(b), ((value >> b) & 1u) != 0});
  }
  std::sort(lits.begin(), lits.end());
  return m.cube(lits);
}

/// Exactly `target` of the `indicators` hold (layered counting DP).
[[nodiscard]] BddRef exactly(BddManager& m,
                             const std::vector<BddRef>& indicators,
                             std::size_t target) {
  if (target > indicators.size()) return kBddFalse;
  // ways[k] = "exactly k of the indicators processed so far hold".
  std::vector<BddRef> ways{kBddTrue};
  for (const BddRef ind : indicators) {
    std::vector<BddRef> next(std::min(ways.size() + 1, target + 1), kBddFalse);
    for (std::size_t k = 0; k < ways.size() && k <= target; ++k) {
      next[k] = m.bdd_or(next[k], m.bdd_and(ways[k], m.bdd_not(ind)));
      if (k + 1 <= target) {
        next[k + 1] = m.bdd_or(next[k + 1], m.bdd_and(ways[k], ind));
      }
    }
    ways = std::move(next);
  }
  return target < ways.size() ? ways[target] : kBddFalse;
}

[[nodiscard]] BddRef constant(bool b) { return b ? kBddTrue : kBddFalse; }

/// §5.1 TWO-CLIQUES (src/protocols/two_cliques.cpp) as a circuit. Message:
/// id field then a 2-bit side code; the code circuit replays compose's
/// saw0/saw1/saw-any-neighbor scan over the earlier slots.
class TwoCliquesCircuit final : public CircuitModel {
 public:
  explicit TwoCliquesCircuit(const Graph& g)
      : g_(&g), truth_(is_two_cliques(g)) {}

  [[nodiscard]] std::size_t message_bits() const override {
    return static_cast<std::size_t>(codec::id_bits(g_->node_count())) + 2;
  }

  [[nodiscard]] BddRef message_bit(BddManager& m, const BoardLayout& layout,
                                   NodeId v, std::size_t slot,
                                   std::size_t bit) const override {
    const std::size_t idb = layout.id_bits();
    if (bit < idb) return constant(((v - 1) >> bit) & 1u);
    if (slot == 0) return kBddFalse;  // first writer: code 0 (side 0)
    BddRef saw_any = kBddFalse, saw0 = kBddFalse, saw1 = kBddFalse;
    for (std::size_t i = 0; i < slot; ++i) {
      BddRef by_neighbor = kBddFalse;
      for (const NodeId u : g_->neighbors(v)) {
        by_neighbor = m.bdd_or(by_neighbor, layout.slot_message_id_is(m, i, u));
      }
      const BddRef b0 = m.var(layout.msg_bit(i, idb));
      const BddRef b1 = m.var(layout.msg_bit(i, idb + 1));
      const BddRef code0 = m.bdd_and(m.bdd_not(b0), m.bdd_not(b1));
      const BddRef code1 = m.bdd_and(b0, m.bdd_not(b1));
      saw_any = m.bdd_or(saw_any, by_neighbor);
      saw0 = m.bdd_or(saw0, m.bdd_and(by_neighbor, code0));
      saw1 = m.bdd_or(saw1, m.bdd_and(by_neighbor, code1));
    }
    if (bit == idb) {
      // code & 1: no neighbor seen (side 1), or side 1 seen without side 0.
      return m.bdd_or(m.bdd_not(saw_any), m.bdd_and(saw1, m.bdd_not(saw0)));
    }
    // code >> 1: conflict — both sides already written by neighbors.
    return m.bdd_and(saw0, saw1);
  }

  [[nodiscard]] BddRef wrong_outputs(BddManager& m,
                                     const BoardLayout& layout) const override {
    const std::size_t n = layout.n();
    const std::size_t idb = layout.id_bits();
    BddRef yes;
    if (n % 2 != 0) {
      yes = kBddFalse;
    } else {
      BddRef no_conflict = kBddTrue;
      std::vector<BddRef> side0, side1;
      for (std::size_t i = 0; i < n; ++i) {
        const BddRef b0 = m.var(layout.msg_bit(i, idb));
        const BddRef b1 = m.var(layout.msg_bit(i, idb + 1));
        no_conflict =
            m.bdd_and(no_conflict, m.bdd_not(m.bdd_and(m.bdd_not(b0), b1)));
        side0.push_back(m.bdd_and(m.bdd_not(b0), m.bdd_not(b1)));
        side1.push_back(m.bdd_and(b0, m.bdd_not(b1)));
      }
      yes = m.bdd_and(no_conflict, m.bdd_and(exactly(m, side0, n / 2),
                                             exactly(m, side1, n / 2)));
    }
    return truth_ ? m.bdd_not(yes) : yes;
  }

 private:
  const Graph* g_;
  bool truth_;
};

/// Theorem 5 rooted MIS (src/protocols/mis.cpp) as a circuit. Message: id
/// field then the IN flag; validation is is_rooted_mis (root present,
/// independent, inclusion-maximal).
class RootedMisCircuit final : public CircuitModel {
 public:
  RootedMisCircuit(const Graph& g, NodeId root) : g_(&g), root_(root) {}

  [[nodiscard]] std::size_t message_bits() const override {
    return static_cast<std::size_t>(codec::id_bits(g_->node_count())) + 1;
  }

  [[nodiscard]] BddRef message_bit(BddManager& m, const BoardLayout& layout,
                                   NodeId v, std::size_t slot,
                                   std::size_t bit) const override {
    const std::size_t idb = layout.id_bits();
    if (bit < idb) return constant(((v - 1) >> bit) & 1u);
    if (v == root_) return kBddTrue;
    if (g_->has_edge(v, root_)) return kBddFalse;
    // IN unless some earlier slot carries a neighbor's IN message.
    BddRef neighbor_in = kBddFalse;
    for (std::size_t i = 0; i < slot; ++i) {
      const BddRef in_flag = m.var(layout.msg_bit(i, idb));
      for (const NodeId u : g_->neighbors(v)) {
        neighbor_in = m.bdd_or(
            neighbor_in,
            m.bdd_and(layout.slot_message_id_is(m, i, u), in_flag));
      }
    }
    return m.bdd_not(neighbor_in);
  }

  [[nodiscard]] BddRef wrong_outputs(BddManager& m,
                                     const BoardLayout& layout) const override {
    const std::size_t n = layout.n();
    const std::size_t idb = layout.id_bits();
    // in[v] = some slot carries v's message with the IN flag.
    std::vector<BddRef> in(n + 1, kBddFalse);
    for (NodeId v = 1; v <= n; ++v) {
      for (std::size_t i = 0; i < n; ++i) {
        in[v] = m.bdd_or(in[v],
                         m.bdd_and(layout.slot_message_id_is(m, i, v),
                                   m.var(layout.msg_bit(i, idb))));
      }
    }
    BddRef valid = in[root_];
    for (const Edge& e : g_->edges()) {
      valid = m.bdd_and(valid, m.bdd_not(m.bdd_and(in[e.u], in[e.v])));
    }
    for (NodeId v = 1; v <= n; ++v) {
      BddRef covered = in[v];
      for (const NodeId u : g_->neighbors(v)) {
        covered = m.bdd_or(covered, in[u]);
      }
      valid = m.bdd_and(valid, covered);
    }
    return m.bdd_not(valid);
  }

 private:
  const Graph* g_;
  NodeId root_;
};

/// Anonymous degree parade (src/protocols/anon_frontier.h) as a circuit:
/// the message is the constant deg(v), and a final board is correct iff the
/// fields form the graph's degree multiset.
class AnonDegreeCircuit final : public CircuitModel {
 public:
  explicit AnonDegreeCircuit(const Graph& g) : g_(&g) {}

  [[nodiscard]] std::size_t message_bits() const override {
    return static_cast<std::size_t>(codec::id_bits(g_->node_count()));
  }

  [[nodiscard]] BddRef message_bit(BddManager&, const BoardLayout&, NodeId v,
                                   std::size_t, std::size_t bit) const override {
    return constant((g_->degree(v) >> bit) & 1u);
  }

  [[nodiscard]] BddRef wrong_outputs(BddManager& m,
                                     const BoardLayout& layout) const override {
    const std::size_t n = layout.n();
    // multiplicity[d] = how many nodes have degree d.
    std::vector<std::size_t> multiplicity(n, 0);
    for (NodeId v = 1; v <= n; ++v) ++multiplicity[g_->degree(v)];
    BddRef valid = kBddTrue;
    for (std::size_t d = 0; d < n; ++d) {
      if (multiplicity[d] == 0) continue;
      std::vector<BddRef> holds_d;
      holds_d.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        holds_d.push_back(field_equals(
            m, layout.msg_bits(), d,
            [&](std::size_t b) { return layout.msg_bit(i, b); }));
      }
      valid = m.bdd_and(valid, exactly(m, holds_d, multiplicity[d]));
    }
    return m.bdd_not(valid);
  }

 private:
  const Graph* g_;
};

}  // namespace

BddRef BoardLayout::slot_written_by(BddManager& m, std::size_t slot,
                                    NodeId v) const {
  WB_CHECK(v >= 1 && v <= n_);
  return field_equals(m, id_bits_, v - 1,
                      [&](std::size_t b) { return order_bit(slot, b); });
}

BddRef BoardLayout::slot_message_id_is(BddManager& m, std::size_t slot,
                                       NodeId id) const {
  WB_CHECK(id >= 1 && id <= n_);
  return field_equals(m, id_bits_, id - 1,
                      [&](std::size_t b) { return msg_bit(slot, b); });
}

std::unique_ptr<CircuitModel> make_circuit_model(const Protocol& p,
                                                 const Graph& g) {
  if (dynamic_cast<const TwoCliquesProtocol*>(&p) != nullptr) {
    return std::make_unique<TwoCliquesCircuit>(g);
  }
  if (const auto* mis = dynamic_cast<const RootedMisProtocol*>(&p)) {
    return std::make_unique<RootedMisCircuit>(g, mis->root());
  }
  if (dynamic_cast<const AnonDegreeProtocol*>(&p) != nullptr) {
    return std::make_unique<AnonDegreeCircuit>(g);
  }
  return nullptr;
}

}  // namespace wb::sym
