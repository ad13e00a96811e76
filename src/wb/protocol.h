// Protocol interface (§2 of the paper).
//
// A protocol supplies the two per-node functions of the formal model,
//  - act: should this awake node become active, given the whiteboard?
//  - msg: the message an active node stores in its local memory,
// plus the output function evaluated on the final whiteboard, its declared
// model class, and its message-size bound f(n) (checked by the engine on
// every composed message).
//
// The engine enforces the class semantics mechanically:
//  - simultaneous classes: activate() must return true on the empty
//    whiteboard for every node (the engine verifies);
//  - asynchronous classes: compose() is called exactly once per activation,
//    at activation time, and the result is frozen;
//  - synchronous classes: compose() is called once per write, when the
//    adversary chooses the node, on the whiteboard as it stands then. The
//    paper's node keeps recomputing its memory until it is chosen; since
//    compose() is a pure function of (view, whiteboard), only that last
//    memory is observable, so the engine computes nothing else.
// A compose() that throws DataError or exceeds f(n) fails the run at that
// call (kFault / kMessageOverflow; see src/wb/engine.h for the referee
// rules). A synchronous node that is never written is never composed.
#pragma once

#include <memory>
#include <string>

#include "src/support/bitio.h"
#include "src/wb/model.h"
#include "src/wb/view.h"
#include "src/wb/whiteboard.h"

namespace wb {

/// A protocol's opt-in contract for skipping activation checks. The flag
/// describes *data dependence*, not a different semantics — the engine uses
/// it to skip re-evaluations that provably cannot change, and every run must
/// stay bit-identical to one that claims nothing (an empty FrontierLocality,
/// under which every awake node is asked every round). compose() needs no
/// such flag: the engine calls it only when a message is created
/// (activation or write), never to refresh one.
struct FrontierLocality {
  /// activate(view, board) is a pure function of (view, the subsequence of
  /// board messages authored by neighbors of view.id()). Since the board only
  /// grows, an awake node's activation verdict can then change only in a
  /// round after one of its neighbors wrote — everyone else keeps last
  /// round's (false) answer without being asked again.
  bool activate_neighbor_local = false;
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  /// The model class this protocol is designed for.
  [[nodiscard]] virtual ModelClass model_class() const = 0;

  /// Maximum message size in bits for n-node inputs — the f(n) in
  /// MODEL[f(n)]. The engine fails any run that writes a longer message.
  [[nodiscard]] virtual std::size_t message_bit_limit(std::size_t n) const = 0;

  /// act: decision of an awake node to become active. Must be a pure
  /// function of (view, whiteboard).
  [[nodiscard]] virtual bool activate(const LocalView& view,
                                      const Whiteboard& board) const = 0;

  /// msg: message an active node stores in local memory, as a pure function
  /// of (view, whiteboard) — the one hook a protocol implements. `scratch`
  /// arrives empty; implementations append their bits and `return
  /// scratch.take()`, so a message that fits Bits' inline buffer costs no
  /// heap allocation (the engine keeps one writer for the whole run). See the
  /// class-semantics notes above for when the engine calls this.
  [[nodiscard]] virtual Bits compose(const LocalView& view,
                                     const Whiteboard& board,
                                     BitWriter& scratch) const = 0;

  /// Convenience for one-off callers (reductions, tests): the same message
  /// through a fresh writer. Protocols do not override it. It stays virtual
  /// only because the benchmark's call-timing decorator (CountingProtocol in
  /// perfbench/traced.cpp) overrides both forms. A class that declares the
  /// hook above hides this name: call it through `const Protocol&`.
  [[nodiscard]] virtual Bits compose(const LocalView& view,
                                     const Whiteboard& board) const {
    BitWriter w;
    return compose(view, board, w);
  }

  /// Which activation shortcuts this protocol's functions admit. The default
  /// claims nothing, which is safe (if slower) for every protocol; claiming a
  /// flag the functions do not honor breaks the bit-identical guarantee, so
  /// it is pinned by the equivalence suites.
  [[nodiscard]] virtual FrontierLocality frontier_locality() const {
    return {};
  }

  /// True when no callback reads a node ID: activate() and compose() see
  /// the view only through n and the degree (never view.id() nor a
  /// neighbour's ID), and the output reads only the board. Then swapping two
  /// twins (N(u)∖{v} = N(v)∖{u}, an automorphism) maps every execution onto
  /// one with the same boards and verdicts, so a judged sweep may key its
  /// memo on the written count per twin class instead of the written set
  /// (EngineState::set_twin_classes). The default claims nothing; a false
  /// claim merges states whose futures differ and miscounts, which the
  /// equivalence suites check against a memo-free oracle.
  [[nodiscard]] virtual bool anonymous() const { return false; }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// A protocol together with its typed output function out(W).
template <typename OutputT>
class ProtocolWithOutput : public Protocol {
 public:
  using Output = OutputT;

  /// Decode the final whiteboard into the problem's answer. Receives nothing
  /// but the whiteboard and n — the type system enforces the paper's "the
  /// output is computed from the final contents of the whiteboard".
  [[nodiscard]] virtual OutputT output(const Whiteboard& board,
                                       std::size_t n) const = 0;
};

/// Convenience base for SIMASYNC protocols: activation is unconditional and
/// the single message may depend only on local knowledge (the whiteboard is
/// still empty when every node composes). Subclasses implement
/// compose_initial(); the two-argument compose stays reachable on them.
template <typename OutputT>
class SimAsyncProtocol : public ProtocolWithOutput<OutputT> {
 public:
  [[nodiscard]] ModelClass model_class() const override {
    return ModelClass::kSimAsync;
  }
  [[nodiscard]] bool activate(const LocalView&, const Whiteboard&) const final {
    return true;
  }
  using Protocol::compose;
  [[nodiscard]] Bits compose(const LocalView& view, const Whiteboard& board,
                             BitWriter& scratch) const final {
    WB_CHECK_MSG(board.empty(),
                 "SIMASYNC compose must only ever see the empty whiteboard");
    return compose_initial(view, scratch);
  }

  /// The one message of node `view.id()`, from local knowledge only, written
  /// into `scratch` exactly as Protocol::compose's hook is.
  [[nodiscard]] virtual Bits compose_initial(const LocalView& view,
                                             BitWriter& scratch) const = 0;
};

/// Convenience base for SIMSYNC protocols: activation unconditional, message
/// composed from the whiteboard as it stands when the node is written.
template <typename OutputT>
class SimSyncProtocol : public ProtocolWithOutput<OutputT> {
 public:
  [[nodiscard]] ModelClass model_class() const override {
    return ModelClass::kSimSync;
  }
  [[nodiscard]] bool activate(const LocalView&, const Whiteboard&) const final {
    return true;
  }
};

}  // namespace wb
