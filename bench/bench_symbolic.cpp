// Symbolic-exploration microbenchmarks: what the BDD backend buys over
// enumerating schedules, and what the memoized enumerator buys in between.
//
//  - BM_SymbolicCircuitTwoCliques/n — the circuit image fixpoint on
//    two_cliques(n): counts all (2n)! schedules exactly without visiting
//    one. At n=5 that is 3,628,800 schedules — the sweep the enumerator
//    takes minutes over at bench budgets — answered in BDD node count;
//    the `executions` counter doubles as a correctness pin (the run fails
//    if the count is not (2n)!).
//  - BM_EnumeratedAnonDegree/n vs BM_MemoizedAnonDegree/n — anonymous
//    messages on star(n) through the serial enumerator with and without
//    hash-consed state memoization; `states_per_schedule` is the collapse
//    headline.
//
// CI merges this harness's JSON into gbench.json with the other
// microbenchmarks' output.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "src/graph/generators.h"
#include "src/protocols/anon_frontier.h"
#include "src/protocols/two_cliques.h"
#include "src/sym/reach.h"
#include "src/wb/exhaustive.h"

namespace wb {
namespace {

std::uint64_t factorial(std::uint64_t n) {
  std::uint64_t f = 1;
  for (std::uint64_t i = 2; i <= n; ++i) f *= i;
  return f;
}

const auto kAcceptAll = [](const ExecutionResult&) { return true; };

void BM_SymbolicCircuitTwoCliques(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = two_cliques(n);  // 2n nodes, (2n)! schedules
  const TwoCliquesProtocol p;
  sym::SymbolicTotals totals;
  for (auto _ : state) {
    totals = sym::symbolic_sweep(g, p, kAcceptAll);
    benchmark::DoNotOptimize(totals);
  }
  if (totals.executions != factorial(2 * n)) {
    state.SkipWithError("symbolic count disagrees with (2n)!");
    return;
  }
  state.counters["executions"] =
      benchmark::Counter(static_cast<double>(totals.executions));
  state.counters["bdd_nodes"] =
      benchmark::Counter(static_cast<double>(totals.bdd.nodes));
  state.counters["vars"] = benchmark::Counter(static_cast<double>(totals.vars));
}
BENCHMARK(BM_SymbolicCircuitTwoCliques)
    ->Arg(3)
    ->Arg(4)
    ->Arg(5)
    ->Unit(benchmark::kMillisecond);

void BM_EnumeratedAnonDegree(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = star_graph(n);
  const AnonDegreeProtocol p;
  ExhaustiveOptions opts;
  opts.threads = 1;
  std::uint64_t execs = 0;
  for (auto _ : state) {
    execs += for_each_execution(g, p, kAcceptAll, opts);
  }
  state.counters["executions_per_s"] = benchmark::Counter(
      static_cast<double>(execs), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(execs));
}
BENCHMARK(BM_EnumeratedAnonDegree)
    ->Arg(6)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_MemoizedAnonDegree(benchmark::State& state) {
  // The same sweep through sweep_memoized: anonymous messages converge, so
  // the tree collapses — states_per_schedule is the fraction of the n!
  // schedule tree the memoized sweep actually walks.
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = star_graph(n);
  const AnonDegreeProtocol p;
  ExhaustiveOptions opts;
  opts.threads = 1;
  opts.memoize = true;
  MemoizedTotals totals;
  std::uint64_t execs = 0;
  for (auto _ : state) {
    totals = sweep_memoized(g, p, kAcceptAll, opts);
    benchmark::DoNotOptimize(totals);
    execs += totals.executions;
  }
  if (totals.executions != factorial(n)) {
    state.SkipWithError("memoized count disagrees with n!");
    return;
  }
  state.counters["states_explored"] =
      benchmark::Counter(static_cast<double>(totals.states_explored));
  state.counters["memo_hits"] =
      benchmark::Counter(static_cast<double>(totals.memo_hits));
  state.counters["states_per_schedule"] =
      benchmark::Counter(static_cast<double>(totals.states_explored) /
                         static_cast<double>(totals.executions));
  state.SetItemsProcessed(static_cast<std::int64_t>(execs));
}
BENCHMARK(BM_MemoizedAnonDegree)
    ->Arg(6)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wb

BENCHMARK_MAIN();
