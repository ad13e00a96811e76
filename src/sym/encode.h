// Symbolic encoding of the whiteboard engine (src/wb/engine.h) as boolean
// variables over a hash-consed BDD manager (src/sym/bdd.h).
//
// A board after r writes is encoded with fixed-width slots: slot i < r holds
// the i-th message. Per slot there are two fields —
//   order field  (id_bits wide): the writer's id - 1, the engine-side
//                "who wrote slot i" coordinate that makes the encoding
//                injective on schedules (sat_count over it = executions);
//   message field (msg_bits wide): the message's bits, LSB-first, exactly
//                the BitWriter layout the concrete engine produces;
// plus one wrote-bit per node (w_v = "v's message is on the board").
// Activation variables collapse to the constant TRUE for the simultaneous
// classes the circuit models cover (everyone activates in round one).
// Unfilled slots are constrained all-zero.
//
// Variables are interleaved: slot 0 [order|message], slot 1
// [order|message], ..., then the wrote-bits.
//
// A CircuitModel is a per-protocol boolean-circuit form of
// Protocol::compose/output: message_bit builds the bit a writer puts into a
// slot as a function of *earlier* slots (one disjunctive partition of the
// round's transition relation per writer), wrong_outputs builds the set of
// final boards whose decoded output fails the reference validation. Models
// exist for the statically-bounded-width simultaneous protocols
// (two-cliques, rooted-mis, anon-degree); everything else is a typed
// refusal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/support/check.h"
#include "src/sym/bdd.h"
#include "src/wb/protocol.h"

namespace wb::sym {

/// Typed refusal for everything the symbolic backend does not answer
/// (asynchronous model classes, protocols without a circuit model, fault
/// specs, encodings past the variable cap). Derives from DataError so the
/// CLI maps it to the usage exit code (2).
class SymUnsupportedError : public DataError {
 public:
  explicit SymUnsupportedError(const std::string& what)
      : DataError("symbolic backend unsupported: " + what) {}
};

/// Variable layout for one (n, message width) instance.
class BoardLayout {
 public:
  BoardLayout(std::size_t n, std::size_t id_bits, std::size_t msg_bits);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t id_bits() const noexcept { return id_bits_; }
  [[nodiscard]] std::size_t msg_bits() const noexcept { return msg_bits_; }
  [[nodiscard]] std::size_t var_count() const noexcept {
    return n_ * (id_bits_ + msg_bits_) + n_;
  }

  /// Bit b of slot `slot`'s order field (the writer's id - 1, LSB-first).
  [[nodiscard]] std::uint32_t order_bit(std::size_t slot, std::size_t b) const;
  /// Bit b of slot `slot`'s message field (LSB-first, BitWriter layout).
  [[nodiscard]] std::uint32_t msg_bit(std::size_t slot, std::size_t b) const;
  /// Wrote-bit of node v (1-based NodeId).
  [[nodiscard]] std::uint32_t wrote_bit(NodeId v) const;

  /// All variables, ascending — the execution-counting universe.
  [[nodiscard]] std::vector<std::uint32_t> full_universe() const;
  /// All message-field variables, ascending — the distinct-board universe.
  [[nodiscard]] std::vector<std::uint32_t> msg_universe() const;
  /// All order-field and wrote-bit variables, ascending — what a distinct-
  /// board projection quantifies away.
  [[nodiscard]] std::vector<std::uint32_t> non_msg_universe() const;

  // --- circuit-building helpers ---

  /// Cube: slot's order field equals v - 1 ("slot was written by v").
  [[nodiscard]] BddRef slot_written_by(BddManager& m, std::size_t slot,
                                       NodeId v) const;
  /// Cube: the id_bits-wide prefix of slot's message field equals id - 1
  /// (write_id layout — "the message in `slot` is signed by `id`").
  [[nodiscard]] BddRef slot_message_id_is(BddManager& m, std::size_t slot,
                                          NodeId id) const;

 private:
  std::size_t n_, id_bits_, msg_bits_;
};

class CircuitModel {
 public:
  virtual ~CircuitModel() = default;

  /// Exact per-message width; every message this protocol composes is this
  /// wide (= message_bit_limit(n)).
  [[nodiscard]] virtual std::size_t message_bits() const = 0;

  /// Bit `bit` of the message node v composes for slot `slot`, as a BDD
  /// over the order/message variables of slots < `slot`. Mirrors
  /// Protocol::compose on every board the engine can reach with slots
  /// 0..slot-1 filled.
  [[nodiscard]] virtual BddRef message_bit(BddManager& m,
                                           const BoardLayout& layout, NodeId v,
                                           std::size_t slot,
                                           std::size_t bit) const = 0;

  /// Predicate over the n filled message fields: the decoded output FAILS
  /// the reference validation the CLI runner applies. Mirrors
  /// Protocol::output + the runner's check callback.
  [[nodiscard]] virtual BddRef wrong_outputs(BddManager& m,
                                             const BoardLayout& layout)
      const = 0;
};

/// The circuit registry: a model for the protocols with one (two-cliques,
/// rooted-mis, anon-degree), nullptr otherwise. The returned model borrows
/// `g` and must not outlive it.
[[nodiscard]] std::unique_ptr<CircuitModel> make_circuit_model(
    const Protocol& p, const Graph& g);

}  // namespace wb::sym
