// Executable forms of the Lemma 4 inclusions:
//
//   PSIMASYNC[f] ⊆ PSIMSYNC[f] ⊆ PASYNC[f] ⊆ PSYNC[f]
//
// Each adapter wraps a protocol of the smaller class into a protocol that
// runs under the larger class's engine semantics and computes the same
// output, following the constructions in the paper's proof:
//  - SimAsyncInSimSync: "nodes create their message initially, ignoring the
//    messages present on the whiteboard" — compose always sees an empty
//    board.
//  - SimSyncInAsync: "fix an order (v_1, ..., v_n) and use this order for a
//    sequential activation" — v_i activates exactly when i-1 messages are on
//    the board, so the adversary is forced into the fixed order and each
//    frozen message equals what the SIMSYNC node would write when selected.
//  - AsyncInSync: "force the protocols in SYNC to create their messages
//    based only on what was known at the moment when they became active" —
//    compose rewinds the whiteboard to the shortest prefix at which the
//    wrapped protocol's activation condition first held and composes from
//    that prefix, so the write-time message is the activation-time one.
//
// Two inclusions are pure rebadging (no behavioral change) and are provided
// by Rebadge: SIMASYNC→ASYNC and SIMSYNC→SYNC.
#pragma once

#include "src/wb/protocol.h"

namespace wb {

namespace detail {

/// The shortest whiteboard prefix of `board` at which `p.activate(view, ·)`
/// holds (falls back to the full board; callers only invoke this for nodes
/// that are active under the full board).
template <typename OutputT>
Whiteboard activation_prefix(const ProtocolWithOutput<OutputT>& p,
                             const LocalView& view, const Whiteboard& board) {
  Whiteboard prefix;
  for (std::size_t k = 0; k <= board.message_count(); ++k) {
    if (k > 0) prefix.append(board.message(k - 1));
    if (p.activate(view, prefix)) return prefix;
  }
  return prefix;  // == full board
}

}  // namespace detail

/// SIMASYNC protocol run under SIMSYNC semantics (Lemma 4, first inclusion).
template <typename OutputT>
class SimAsyncInSimSync final : public ProtocolWithOutput<OutputT> {
 public:
  explicit SimAsyncInSimSync(const ProtocolWithOutput<OutputT>& inner)
      : inner_(&inner) {
    WB_CHECK(inner.model_class() == ModelClass::kSimAsync);
  }
  ModelClass model_class() const override { return ModelClass::kSimSync; }
  std::size_t message_bit_limit(std::size_t n) const override {
    return inner_->message_bit_limit(n);
  }
  bool activate(const LocalView&, const Whiteboard&) const override {
    return true;
  }
  Bits compose(const LocalView& view, const Whiteboard&,
               BitWriter& scratch) const override {
    const Whiteboard empty;  // ignore everything written so far
    return inner_->compose(view, empty, scratch);
  }
  OutputT output(const Whiteboard& board, std::size_t n) const override {
    return inner_->output(board, n);
  }
  bool anonymous() const override { return inner_->anonymous(); }
  std::string name() const override {
    return inner_->name() + "@simsync";
  }

 private:
  const ProtocolWithOutput<OutputT>* inner_;
};

/// SIMSYNC protocol run under ASYNC semantics via sequential activation
/// (Lemma 4, second inclusion).
template <typename OutputT>
class SimSyncInAsync final : public ProtocolWithOutput<OutputT> {
 public:
  explicit SimSyncInAsync(const ProtocolWithOutput<OutputT>& inner)
      : inner_(&inner) {
    WB_CHECK(inner.model_class() == ModelClass::kSimSync);
  }
  ModelClass model_class() const override { return ModelClass::kAsync; }
  std::size_t message_bit_limit(std::size_t n) const override {
    return inner_->message_bit_limit(n);
  }
  bool activate(const LocalView& view, const Whiteboard& board) const override {
    // v_i raises its hand once v_1..v_{i-1} have written: exactly one node is
    // active at any time, so the adversary is forced into ID order.
    return board.message_count() + 1 == view.id();
  }
  Bits compose(const LocalView& view, const Whiteboard& board,
               BitWriter& scratch) const override {
    return inner_->compose(view, board, scratch);
  }
  OutputT output(const Whiteboard& board, std::size_t n) const override {
    return inner_->output(board, n);
  }
  // anonymous() stays false: activate() orders the writers by view.id().
  std::string name() const override { return inner_->name() + "@async"; }

 private:
  const ProtocolWithOutput<OutputT>* inner_;
};

/// ASYNC protocol run under SYNC semantics by rewinding composition to the
/// activation moment (Lemma 4, third inclusion).
template <typename OutputT>
class AsyncInSync final : public ProtocolWithOutput<OutputT> {
 public:
  explicit AsyncInSync(const ProtocolWithOutput<OutputT>& inner)
      : inner_(&inner) {
    WB_CHECK(is_asynchronous(inner.model_class()));
  }
  ModelClass model_class() const override { return ModelClass::kSync; }
  std::size_t message_bit_limit(std::size_t n) const override {
    return inner_->message_bit_limit(n);
  }
  bool activate(const LocalView& view, const Whiteboard& board) const override {
    return inner_->activate(view, board);
  }
  Bits compose(const LocalView& view, const Whiteboard& board,
               BitWriter& scratch) const override {
    // SYNC composes at write time; composing from the activation-time
    // prefix returns the same bits the ASYNC run would have frozen.
    const Whiteboard prefix = detail::activation_prefix(*inner_, view, board);
    return inner_->compose(view, prefix, scratch);
  }
  OutputT output(const Whiteboard& board, std::size_t n) const override {
    return inner_->output(board, n);
  }
  bool anonymous() const override { return inner_->anonymous(); }
  std::string name() const override { return inner_->name() + "@sync"; }

 private:
  const ProtocolWithOutput<OutputT>* inner_;
};

/// Class-lattice moves that need no behavioral change: SIMASYNC→ASYNC and
/// SIMSYNC→SYNC (the wrapped protocol's activate() is unconditional, so the
/// free-activation engine still activates everyone in round one).
template <typename OutputT>
class Rebadge final : public ProtocolWithOutput<OutputT> {
 public:
  Rebadge(const ProtocolWithOutput<OutputT>& inner, ModelClass target)
      : inner_(&inner), target_(target) {
    const ModelClass from = inner.model_class();
    const bool valid =
        (from == ModelClass::kSimAsync && target == ModelClass::kAsync) ||
        (from == ModelClass::kSimSync && target == ModelClass::kSync);
    WB_CHECK_MSG(valid, "rebadge only supports SIMASYNC->ASYNC and "
                        "SIMSYNC->SYNC; other moves need a real adapter");
  }
  ModelClass model_class() const override { return target_; }
  std::size_t message_bit_limit(std::size_t n) const override {
    return inner_->message_bit_limit(n);
  }
  bool activate(const LocalView& view, const Whiteboard& board) const override {
    return inner_->activate(view, board);
  }
  Bits compose(const LocalView& view, const Whiteboard& board,
               BitWriter& scratch) const override {
    if (inner_->model_class() == ModelClass::kSimAsync) {
      // A SIMASYNC compose may only see the empty board; under free
      // activation the node still activates in round one, so this holds, but
      // we normalize defensively.
      const Whiteboard empty;
      return inner_->compose(view, empty, scratch);
    }
    return inner_->compose(view, board, scratch);
  }
  OutputT output(const Whiteboard& board, std::size_t n) const override {
    return inner_->output(board, n);
  }
  bool anonymous() const override { return inner_->anonymous(); }
  std::string name() const override {
    return inner_->name() + "@" + std::string(model_name(target_));
  }

 private:
  const ProtocolWithOutput<OutputT>* inner_;
  ModelClass target_;
};

}  // namespace wb
