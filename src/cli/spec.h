// Text specs for the wbsim command-line driver (and for scripting tests).
//
// Colon-separated factory strings:
//
//   graphs:      path:N            cycle:N          complete:N     star:N
//                grid:RxC          twocliques:N     switched:N
//                tree:N:SEED       forest:N:PCT:SEED
//                kdeg:N:K:PCT:SEED gnp:N:NUM/DEN:SEED
//                cgnp:N:NUM/DEN:SEED    eob:N:NUM/DEN:SEED
//                ceob:N:NUM/DEN:SEED    bipartite:A:B:NUM/DEN:SEED
//                rmat:SCALE:EF:SEED     powerlaw:N:EF:SEED
//                file:PATH  (streaming edge-list loader)
//
//   adversaries: first | last | rotating | maxdeg | mindeg | random:SEED
//
//   protocols (see runners.h): build-forest | build-degenerate:K |
//                build-full | mis:ROOT | two-cliques | eob-bfs |
//                bipartite-bfs | sync-bfs | subgraph:F | triangle-oracle |
//                pair-chase | spanning-forest | rand-two-cliques:SEED |
//                square-oracle | diameter-oracle:D | connectivity-oracle
//
// Parsers throw wb::DataError with a usable message on malformed specs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/wb/adversary.h"
#include "src/wb/distinct.h"
#include "src/wb/faults.h"

namespace wb::cli {

/// Split "a:b:c" into {"a","b","c"} (no empty-segment collapsing).
[[nodiscard]] std::vector<std::string> split_spec(const std::string& spec);

/// Parse helpers used across the factories.
[[nodiscard]] std::uint64_t parse_u64(const std::string& field,
                                      const std::string& what);
/// parse_u64 of a field the caller narrows: a value above `max` is a
/// DataError naming the field, never a silent wrap.
[[nodiscard]] std::uint64_t parse_u64_at_most(const std::string& field,
                                              const std::string& what,
                                              std::uint64_t max);
/// parse_u64_at_most(field, what, INT_MAX), as an int.
[[nodiscard]] int parse_int(const std::string& field, const std::string& what);
/// "NUM/DEN" probability field.
[[nodiscard]] std::pair<std::uint64_t, std::uint64_t> parse_prob(
    const std::string& field);

/// Build a graph from a spec string.
[[nodiscard]] Graph graph_from_spec(const std::string& spec);

/// Build an adversary from a spec string (graph needed for degree-based
/// strategies).
[[nodiscard]] std::unique_ptr<Adversary> adversary_from_spec(
    const std::string& spec, const Graph& g);

/// Execution budget every sweep entry point defaults to (the
/// ExhaustiveRunOptions / shard::PlanOptions default, shared here so the
/// spec grammar can omit it).
inline constexpr std::uint64_t kDefaultSweepBudget = 2'000'000;

/// The one grammar for configuring an exhaustive sweep — the wbsim
/// pseudo-adversary, `wbsim shard-plan`, and the fleet controller all parse
/// and print exactly this (PR 6 consolidated the previously per-command
/// option handling):
///
///   exhaustive[:THREADS][:memoize][:shards=K][:budget=N][:faults=F]
///             [:distinct=exact|hll[:P]]
///
///   exhaustive                 every schedule, all cores, in-process
///   exhaustive:1               the serial oracle
///   exhaustive:memoize         serial sweep printing its memo counters
///   exhaustive:shards=4        4 worker processes (fleet), merged
///   exhaustive:2:shards=4      4 workers, 2 sweep threads each
///   exhaustive:budget=100000   stop (loudly) after 100000 executions
///   exhaustive:faults=crash:1  sweep every 1-crash world exhaustively
///   exhaustive:faults=corrupt:1/8:3   corrupt posted messages (p=1/8)
///   exhaustive:faults=adaptive:7:1024 statistical verdict, 1024 trials
///   exhaustive:distinct=hll:14 HyperLogLog distinct-board estimate
///
/// Because the hll config itself contains a colon, `distinct=` must be the
/// final option; and because fault specs contain colons too (see
/// src/wb/faults.h), `faults=` must be the last option before it.
/// format_sweep_spec always prints the canonical order above, and
/// parse(format(s)) == s for every SweepSpec (round-trip pinned in
/// tests/cli/spec_test.cpp).
struct SweepSpec {
  /// Worker threads. In-process mode: 0 = one per hardware thread, 1 =
  /// serial. In shard mode this is each worker process's thread count, and
  /// 0 (or omitting it) splits the machine between the workers
  /// (hardware threads / K, at least 1).
  std::size_t threads = 0;
  /// Worker processes: 0 = in-process sweep, K >= 1 = a K-worker fleet.
  std::size_t shards = 0;
  /// Execution budget (max-executions); exceeding it is a loud failure.
  std::uint64_t max_executions = kDefaultSweepBudget;
  /// Distinct-board accumulator: exact (default) or HyperLogLog.
  DistinctConfig distinct{};
  /// Failure model: fault-free (default), crash:F, corrupt:NUM/DEN[:SEED],
  /// or adaptive:SEED[:TRIALS] (statistical verdict).
  FaultSpec faults{};
  /// The serial sweep that reports its memo counters (wb::sweep_memoized;
  /// every sweep memoizes). Serial in-process only — the parser
  /// rejects it with threads > 1, shards, or faults.
  bool memoize = false;

  friend bool operator==(const SweepSpec& a, const SweepSpec& b) {
    return a.threads == b.threads && a.shards == b.shards &&
           a.max_executions == b.max_executions && a.distinct == b.distinct &&
           a.faults == b.faults && a.memoize == b.memoize;
  }
};

[[nodiscard]] bool is_exhaustive_spec(const std::string& spec);
/// Parse an `exhaustive...` spec. Throws wb::DataError on malformed input.
[[nodiscard]] SweepSpec sweep_from_spec(const std::string& spec);
/// Canonical text of a SweepSpec: defaulted fields are omitted, options
/// appear in the grammar order. parse ∘ format is the identity.
[[nodiscard]] std::string format_sweep_spec(const SweepSpec& spec);

/// The symbolic (BDD) sweep backend (src/sym/reach.h) takes no options:
/// the spec is the bare word `symbolic`. The backend answers exactly what
/// the serial enumerator answers (schedules / distinct / verdict), so the
/// enumerator-only options are refused with a typed
/// wb::sym::SymUnsupportedError (CLI exit 2): thread counts, shards=,
/// budget= (nothing is enumerated, no budget to exceed), faults=, and
/// distinct= (the count is exact by construction). Any other token is a
/// plain DataError, as everywhere in the grammar.
[[nodiscard]] bool is_symbolic_spec(const std::string& spec);
/// Validate a `symbolic...` spec. Throws SymUnsupportedError for enumerator
/// options the backend refuses, wb::DataError on anything else but the bare
/// word.
void symbolic_from_spec(const std::string& spec);

/// Human-readable lists for --help.
[[nodiscard]] std::string graph_spec_help();
[[nodiscard]] std::string adversary_spec_help();

}  // namespace wb::cli
