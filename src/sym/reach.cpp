#include "src/sym/reach.h"

#include <vector>

#include "src/protocols/codec.h"
#include "src/wb/model.h"

namespace wb::sym {

namespace {

/// Refusal cap on the BDD variable count (the "statically bounded width"
/// contract made concrete).
constexpr std::size_t kMaxVars = 4096;

/// The layered image fixpoint (see reach.h).
[[nodiscard]] SymbolicTotals run_circuit(const Graph& g, const Protocol& p,
                                         const CircuitModel& model) {
  const std::size_t n = g.node_count();
  WB_CHECK_MSG(is_simultaneous(p.model_class()),
               "circuit models require a simultaneous class");
  WB_CHECK_MSG(model.message_bits() == p.message_bit_limit(n),
               "circuit message width disagrees with message_bit_limit");
  const std::size_t idb = static_cast<std::size_t>(codec::id_bits(n));
  const BoardLayout layout(n, idb, model.message_bits());
  BddManager m(layout.var_count());

  // F_0: the empty board — every variable zero.
  std::vector<BddLiteral> zeros;
  zeros.reserve(layout.var_count());
  for (std::uint32_t v = 0; v < layout.var_count(); ++v) {
    zeros.push_back({v, false});
  }
  BddRef frontier = m.cube(zeros);

  for (std::size_t r = 0; r < n; ++r) {
    // The variables slot r and the writer's wrote-bit will be (re)assigned;
    // in F_r they are constrained to zero, so ∃ just drops the constraint.
    // Slot r's fields are consecutive and every wrote-bit follows the
    // slots, so `reassigned` is ascending as built.
    std::vector<std::uint32_t> slot_vars;
    slot_vars.reserve(idb + model.message_bits() + 1);
    for (std::size_t b = 0; b < idb; ++b) {
      slot_vars.push_back(layout.order_bit(r, b));
    }
    for (std::size_t b = 0; b < model.message_bits(); ++b) {
      slot_vars.push_back(layout.msg_bit(r, b));
    }
    BddRef next = kBddFalse;
    for (NodeId v = 1; v <= n; ++v) {
      // Simultaneous classes: every unwritten node is a candidate.
      BddRef part = m.bdd_and(frontier, m.nvar(layout.wrote_bit(v)));
      if (part == kBddFalse) continue;
      std::vector<std::uint32_t> reassigned = slot_vars;
      reassigned.push_back(layout.wrote_bit(v));
      part = m.exists(part, reassigned);
      part = m.bdd_and(part, layout.slot_written_by(m, r, v));
      for (std::size_t b = 0; b < model.message_bits(); ++b) {
        const BddRef circuit = model.message_bit(m, layout, v, r, b);
        part = m.bdd_and(part,
                         m.bdd_iff(m.var(layout.msg_bit(r, b)), circuit));
      }
      part = m.bdd_and(part, m.var(layout.wrote_bit(v)));
      next = m.bdd_or(next, part);
    }
    frontier = next;
  }

  SymbolicTotals totals;
  totals.vars = layout.var_count();
  totals.layers = n;
  const std::vector<std::uint32_t> full = layout.full_universe();
  totals.executions = m.sat_count(frontier, full);
  totals.engine_failures = 0;  // simultaneous + exact-width: no deadlocks,
                               // overflows, or decode faults are reachable
  totals.wrong_outputs =
      m.sat_count(m.bdd_and(frontier, model.wrong_outputs(m, layout)), full);
  totals.distinct = m.sat_count(m.exists(frontier, layout.non_msg_universe()),
                                layout.msg_universe());
  totals.bdd = m.stats();
  return totals;
}

}  // namespace

SymbolicTotals symbolic_sweep(
    const Graph& g, const Protocol& p,
    const std::function<bool(const ExecutionResult&)>& /*judge*/) {
  const std::size_t n = g.node_count();
  WB_REQUIRE_MSG(n >= 1, "symbolic sweep needs a non-empty graph");
  if (is_asynchronous(p.model_class())) {
    throw SymUnsupportedError(
        std::string("model class ") + std::string(model_name(p.model_class())) +
        " — messages frozen at activation have no per-round transition "
        "relation; only the synchronous classes (SIMSYNC/SYNC) are answered");
  }
  const std::unique_ptr<CircuitModel> model = make_circuit_model(p, g);
  if (model == nullptr) {
    throw SymUnsupportedError(
        "no symbolic circuit for protocol '" + p.name() +
        "' (models exist for two-cliques, rooted-mis and anon-degree) — "
        "exhaustive:memoize merges converging states and answers it");
  }
  const std::size_t idb = static_cast<std::size_t>(codec::id_bits(n));
  const std::size_t vars = n * (idb + model->message_bits()) + n;
  if (vars > kMaxVars) {
    throw SymUnsupportedError(
        "the circuit encoding needs " + std::to_string(vars) +
        " boolean variables (cap " + std::to_string(kMaxVars) +
        ") — width or node count is not statically bounded enough");
  }
  return run_circuit(g, p, *model);
}

}  // namespace wb::sym
