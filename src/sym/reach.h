// Symbolic reachability over whiteboard executions: the answer the
// exhaustive enumerator computes by visiting every schedule, computed here
// without enumerating any.
//
// The engine is a layered image fixpoint over a protocol's CircuitModel
// (src/sym/encode.h); its totals are pinned bit-equal to `exhaustive:1` by
// tests/sym/ and the CI symbolic-smoke job. F_r is the BDD of all boards
// with exactly r messages; one step disjoins, per writer v, "v was an
// unwritten candidate" ∧ slot r's order field = v ∧ slot r's message bits =
// v's compose circuit ∧ w_v — a disjunctively-partitioned transition
// relation applied functionally (writes touch only slot r and w_v, so no
// primed variables are needed). The supported models are simultaneous
// (everyone is a candidate from round one), which the engine's referee
// semantics make deadlock-, overflow- and fault-free: the finals are exactly
// F_n, executions = sat_count(F_n) over all variables (the order fields make
// schedule → assignment injective), distinct boards = sat_count of the
// message-field projection, and wrong outputs = sat_count(F_n ∧ the model's
// decoded-incorrect set).
//
// Everything else refuses with the typed SymUnsupportedError: asynchronous
// model classes, protocols without a circuit model (the other synchronous
// protocols — `exhaustive:memoize` merges their converging states), and
// encodings past the variable cap. Fault specs are refused at the spec
// layer (src/cli/spec.h).
#pragma once

#include <cstdint>
#include <functional>

#include "src/graph/graph.h"
#include "src/sym/bdd.h"
#include "src/sym/encode.h"
#include "src/wb/engine.h"
#include "src/wb/protocol.h"

namespace wb::sym {

struct SymbolicTotals {
  std::uint64_t executions = 0;
  std::uint64_t engine_failures = 0;  // 0: the models reach no failure
  std::uint64_t wrong_outputs = 0;
  std::uint64_t distinct = 0;         // exact distinct final boards
  std::size_t vars = 0;    // BDD variables in the encoding
  std::size_t layers = 0;  // image steps
  BddStats bdd;
};

/// Sweep every adversary schedule of `p` on `g` symbolically. `judge` is
/// not read: the circuit models carry their own decoded-incorrect sets. It
/// stays in the signature for existing callers. Throws SymUnsupportedError
/// for what the backend does not answer.
[[nodiscard]] SymbolicTotals symbolic_sweep(
    const Graph& g, const Protocol& p,
    const std::function<bool(const ExecutionResult&)>& judge);

}  // namespace wb::sym
