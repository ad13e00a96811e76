// Execution engine for whiteboard protocols (§2 of the paper).
//
// One engine round performs, in order:
//   1. termination updates — an active node whose message is on the
//      whiteboard becomes terminated;
//   2. activations — every awake node evaluates act(view, W); in the
//      asynchronous classes a node that activates composes its message
//      immediately from the same W, and the engine freezes it;
//   3. one adversarial write — the adversary picks an active node whose
//      message is not yet on the whiteboard and the engine appends it. In
//      the synchronous classes the engine composes that message now, from
//      the current W: a node "may change its mind" until it is chosen, and
//      only the memory it holds at that moment is ever observable.
//
// This collapses the paper's "activation round" and the following "write
// round" into one step. The set of reachable whiteboard sequences is
// unchanged: in both formulations a node's message can appear at any point
// after its activation condition first holds, and the adversary ranges over
// exactly those interleavings (see DESIGN.md §4).
//
// The engine is also the referee. It verifies the declared model class
// (simultaneous classes must activate everyone in round one) and checks
// every message when it is composed: a compose() that throws DataError ends
// the run with kFault, and a message longer than the protocol's f(n) bound
// ends it with kMessageOverflow. A synchronous message is composed only when
// its node is written, so a memory the adversary never writes cannot fail a
// run, and a failing writer ends exactly the schedules that choose it — the
// exhaustive explorers count each such choice as its own execution. An
// asynchronous message is composed at activation, so it fails the run then,
// whether or not it would ever have been written.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/support/hash.h"
#include "src/wb/adversary.h"
#include "src/wb/protocol.h"

namespace wb {

enum class RunStatus {
  kSuccess,          // all n messages written (successful configuration)
  kDeadlock,         // corrupted configuration: stuck before n writes
  kMessageOverflow,  // a composed message exceeded message_bit_limit(n)
  kProtocolError,    // protocol violated its declared model class / no progress
  kFault,            // a protocol callback rejected the whiteboard (DataError)
                     // — a corrupted or crash-truncated board it cannot decode
};

[[nodiscard]] constexpr std::string_view status_name(RunStatus s) noexcept {
  switch (s) {
    case RunStatus::kSuccess: return "success";
    case RunStatus::kDeadlock: return "deadlock";
    case RunStatus::kMessageOverflow: return "message-overflow";
    case RunStatus::kProtocolError: return "protocol-error";
    case RunStatus::kFault: return "fault";
  }
  return "?";
}

struct TraceEvent {
  enum class Kind { kActivate, kWrite, kTerminate };
  std::size_t round = 0;
  Kind kind = Kind::kActivate;
  NodeId node = kNoNode;
};

struct RunStats {
  std::size_t rounds = 0;
  std::size_t writes = 0;
  std::size_t max_message_bits = 0;
  std::size_t total_bits = 0;
  /// Round at which each node activated (0 = never).
  std::vector<std::size_t> activation_round;
  /// Round at which each node's message was written (0 = never).
  std::vector<std::size_t> write_round;
};

struct ExecutionResult {
  RunStatus status = RunStatus::kProtocolError;
  Whiteboard board;
  RunStats stats;
  /// Engine-side diagnostic: who wrote each message. Not available to the
  /// protocol's output function.
  std::vector<NodeId> write_order;
  std::string error;
  std::vector<TraceEvent> trace;

  [[nodiscard]] bool ok() const noexcept {
    return status == RunStatus::kSuccess;
  }
};

struct EngineOptions {
  /// Safety valve; 0 = automatic (writes can't exceed n, so 2n+8 rounds).
  std::size_t max_rounds = 0;
  bool record_trace = false;
};

/// Stepwise engine state. Copyable (copies are O(n) — the board is shared
/// copy-on-write), and optionally *journaling*: with journaling enabled the
/// engine records an undo entry for every mutation, so the exhaustive
/// explorer can branch by checkpoint()/rewind() on one state instead of
/// copying it per branch. Typical use is through run_protocol below.
///
/// Rounds are incremental: the engine keeps the awake and candidate sets
/// sorted as they change, so phase 1 is O(1) (only the last writer can
/// terminate) and phase 2 evaluates the awake set — or, when the protocol
/// claims FrontierLocality::activate_neighbor_local, only the last writer's
/// awake neighbours, Σ deg(writer) = 2m over a whole run. Both walks are
/// ascending, so activation, trace and compose order equal a full rescan's.
class EngineState {
 public:
  EngineState(const Graph& g, const Protocol& p, EngineOptions opts = {});

  /// Phases 1–2 of the round (terminations, activations, and the
  /// asynchronous classes' compositions). No-op if the run already reached a
  /// terminal status.
  void begin_round();

  /// Active nodes with unwritten messages, sorted by ID (adversary domain).
  /// Exact at every point: after begin_round(), after a write (which removes
  /// the writer) and after rewind() (which restores the checkpoint's set).
  [[nodiscard]] std::span<const NodeId> candidates() const noexcept {
    return candidates_;
  }

  /// Phase 3: write candidate `index`'s message and finish the round.
  void write(std::size_t index);

  /// Phase 3, addressed by node ID: `v` must be active with an unwritten
  /// message. In the synchronous classes this is where `v`'s message is
  /// composed, so the write itself can end the run (kFault or
  /// kMessageOverflow): check terminal() afterwards. A write that ends the
  /// run leaves `v` a candidate — nothing reached the board.
  void write_node(NodeId v);

  /// Terminal when a status is decided (success/deadlock/overflow/error).
  [[nodiscard]] bool terminal() const noexcept { return status_.has_value(); }

  /// Snapshot the terminal state into an ExecutionResult. The rvalue
  /// overload moves the board/stats/trace out (use via std::move(s).finish()
  /// when the state is done); finish_into re-fills a caller-owned result,
  /// reusing its buffers — the explorer's per-execution path.
  [[nodiscard]] ExecutionResult finish() const&;
  [[nodiscard]] ExecutionResult finish() &&;
  void finish_into(ExecutionResult& out) const;

  [[nodiscard]] const Whiteboard& board() const noexcept { return board_; }
  [[nodiscard]] std::size_t round() const noexcept { return round_; }

  /// State-identity key for memoized exploration: a 128-bit hash of the
  /// board content and the written set. In a fault-free run these determine
  /// every other component at a branch point — activations are monotone
  /// functions of the board history (itself the prefix chain of the
  /// content), messages are frozen at activation (asynchronous) or composed
  /// from the board at write time (synchronous, so no memory is state at
  /// all), and the round counter tracks the write count — so two
  /// non-terminal states with equal keys behave identically under every
  /// future schedule. Used by the memoizing exhaustive sweep.
  ///
  /// After set_twin_classes the written set is replaced by the written
  /// count per twin class. Two states with equal boards and equal counts
  /// differ by a permutation inside each class — an automorphism — and an
  /// anonymous() protocol cannot tell them apart: their futures have the
  /// same executions, boards and verdicts.
  [[nodiscard]] Hash128 memo_key() const;

  /// Key memo_key() by twin class: `class_of[v-1]` is v's class among
  /// `classes` (twin_classes() of the graph; the span must outlive this
  /// state). Only sound for an anonymous() protocol. Call before the first
  /// write.
  void set_twin_classes(std::span<const std::uint32_t> class_of,
                        std::size_t classes);

  // --- Backtracking API (the exhaustive explorer) ---

  /// A point in the execution to rewind to. Cheap value: scalar cursors into
  /// the undo journal, write log, and trace.
  struct Checkpoint {
    std::size_t round = 0;
    std::size_t journal_size = 0;
    std::size_t writes = 0;
    std::size_t board_count = 0;
    std::size_t max_message_bits = 0;
    std::size_t total_bits = 0;
    std::size_t trace_size = 0;
    bool wrote_this_round = false;
  };

  /// Start recording undo entries. Enable once, before the first
  /// begin_round(); checkpoints only reach back to mutations made while
  /// journaling was on.
  void set_journaling(bool on);

  [[nodiscard]] Checkpoint checkpoint() const;

  /// Restore the exact engine state at `cp` (requires journaling; `cp` must
  /// be from this state and not rewound past already), candidate set
  /// included — so a backtracking caller can iterate candidates() by index
  /// across write_node()/rewind(). Clears any terminal status reached since.
  void rewind(const Checkpoint& cp);

 private:
  /// Phase 2 for one awake node: activate() through the referee, and on a
  /// yes the activation (plus, in the asynchronous classes, the frozen
  /// message). Returns false when the run ended.
  [[nodiscard]] bool evaluate(NodeId v);
  /// Move this round's activations from awake_ into candidates_.
  void admit_activated();
  void fail(RunStatus status, std::string error);
  [[nodiscard]] LocalView view_of(NodeId v) const {
    return LocalView(v, graph_->neighbors(v), graph_->node_count());
  }
  /// compose() through the referee: a DataError from the protocol becomes
  /// kFault and a message over message_bit_limit(n) becomes
  /// kMessageOverflow, both naming `v`. Returns false when the run ended.
  [[nodiscard]] bool compose_checked(NodeId v, Bits& message);
  /// activate() through the same fault firewall: a DataError from the
  /// protocol becomes a kFault terminal status. Callers must check
  /// terminal() after; the returned verdict is false on fault.
  [[nodiscard]] bool activate_of(NodeId v);
  void trace(TraceEvent::Kind kind, NodeId v);

  /// One reversible mutation: kActivate returns a node to the awake set,
  /// kTerminate makes a terminated node active again. Writes need no record
  /// (write_order_ is their log), nor do memories: an asynchronous node's
  /// memory is only read while the node is active, and every activation
  /// recomposes it.
  struct UndoRecord {
    enum class Kind : std::uint8_t { kActivate, kTerminate };
    Kind kind = Kind::kActivate;
    NodeId node = kNoNode;
  };
  void journal(UndoRecord::Kind kind, NodeId v);

  const Graph* graph_;
  const Protocol* protocol_;
  EngineOptions opts_;
  std::size_t n_;
  ModelClass model_;
  /// The protocol's locality contract, cached at construction.
  FrontierLocality locality_;
  std::size_t round_ = 0;
  /// The paper's model admits one adversarial write per round; write_node
  /// enforces it. When set, write_order_.back() is that write's node — the
  /// only one the next round's phase 1 can terminate.
  bool wrote_this_round_ = false;

  /// Per-engine compose scratch, handed to Protocol::compose so steady-state
  /// composition performs no heap allocation (the writer keeps its buffer
  /// across take()s; inline-sized messages never touch the heap).
  BitWriter compose_scratch_;

  std::vector<NodeState> state_;
  /// Frozen messages of the asynchronous classes; unused by the synchronous
  /// classes, which compose at write time.
  std::vector<Bits> memory_;
  std::vector<bool> written_;
  /// Twin class per node and written count per class; empty unless
  /// set_twin_classes was called.
  std::span<const std::uint32_t> twin_class_;
  std::vector<std::uint32_t> twin_written_;
  /// Awake node IDs, sorted.
  std::vector<NodeId> awake_;
  /// Active node IDs with unwritten messages, sorted.
  std::vector<NodeId> candidates_;
  /// Per-round scratch: IDs activated this round, ascending.
  std::vector<NodeId> activated_;
  Whiteboard board_;
  std::optional<RunStatus> status_;
  std::string error_;

  RunStats stats_;
  std::vector<NodeId> write_order_;
  std::vector<TraceEvent> trace_;

  bool journaling_ = false;
  std::vector<UndoRecord> journal_;
};

/// Run `p` on `g` to completion under `adv`.
[[nodiscard]] ExecutionResult run_protocol(const Graph& g, const Protocol& p,
                                           Adversary& adv,
                                           EngineOptions opts = {});

/// Convenience: run under the natural first-fit adversary.
[[nodiscard]] ExecutionResult run_protocol(const Graph& g, const Protocol& p,
                                           EngineOptions opts = {});

}  // namespace wb
