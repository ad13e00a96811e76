// Simulation-core microbenchmarks: the allocation discipline of the hot path.
//
// Every exhaustive sweep, batch run, and reduction bottoms out in the same
// inner loop — compose, append, branch, rewind — so this harness pins its
// cost in both time and heap allocations. The binary interposes operator
// new/delete with a counter and reports allocations as benchmark counters:
//
//  - BM_RunProtocol            — one full engine run (two_cliques, SIMSYNC);
//  - BM_BoardBranchCopy        — snapshotting a final board (copy-on-write,
//                                O(1) regardless of message count);
//  - BM_EngineStateBranchCopy  — copying a mid-run EngineState (what the
//                                pre-backtracking explorer paid per branch);
//  - BM_ExhaustiveTwoCliques   — the full two_cliques(4) schedule sweep
//                                (8 nodes, 8! = 40320 executions);
//                                `allocs_per_exec` is the headline number:
//                                ~58 before the allocation-free core, ~2.7
//                                with the PR 2 core, ~0.01 now that a
//                                per-engine scratch BitWriter is threaded
//                                through Protocol::compose — the benchmark
//                                *fails* (SkipWithError) if the steady
//                                state exceeds 0.5 allocs/execution;
//  - BM_ExhaustiveBuildFull    — the same sweep with a SIMASYNC protocol
//                                (BuildFull, Θ(n)-bit adjacency messages)
//                                writing through compose_initial's scratch
//                                writer, at the same ≤0.5 allocs/execution
//                                bar;
//  - BM_ExhaustiveTwoCliquesThreads — the same sweep partitioned across the
//                                shared worker pool at 1/2/4/8 threads;
//                                verifies the bit-identical 40320 count at
//                                every thread count and reports the
//                                execution rate (speedup needs multi-core
//                                hardware — CI — not this 1-core container);
//  - BM_DistinctBoards         — hash-keyed distinct-final-board counting,
//                                streamed through the pluggable accumulator
//                                (exact sorted-run union, or a HyperLogLog
//                                sketch; serial and parallel);
//  - BM_DistinctInsert /       — the accumulator layer in isolation: insert
//    BM_DistinctMerge            and merge throughput of the exact and hll
//                                implementations on synthetic key streams,
//                                with a `peak_bytes` counter contrasting the
//                                two memory models (16 B per distinct key
//                                vs 2^p registers, flat);
//  - BM_FrameRoundTrip         — the fleet wire layer: encode + byte-chunked
//                                decode of spec-sized frames, pinning the
//                                framing overhead the controller pays per
//                                dispatched shard.
//
// CI runs this binary as the Release bench-smoke job, merges its JSON into
// gbench.json, and gates the exhaustive thread-scaling speedup on it.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "src/fleet/transport.h"
#include "src/graph/generators.h"
#include "src/protocols/build_full.h"
#include "src/protocols/mis.h"
#include "src/protocols/two_cliques.h"
#include "src/wb/distinct.h"
#include "src/wb/engine.h"
#include "src/wb/exhaustive.h"

namespace {

std::atomic<unsigned long long> g_allocs{0};

unsigned long long alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace

// The whole binary allocates through these interposers; GCC cannot see that
// and warns that std::free releases operator-new memory.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace wb {
namespace {

void BM_RunProtocol(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = two_cliques(n);  // 2n nodes
  const TwoCliquesProtocol p;
  unsigned long long runs = 0;
  const unsigned long long before = alloc_count();
  for (auto _ : state) {
    ExecutionResult r = run_protocol(g, p);
    benchmark::DoNotOptimize(r);
    ++runs;
  }
  state.counters["allocs_per_run"] = benchmark::Counter(
      static_cast<double>(alloc_count() - before) / static_cast<double>(runs));
  state.SetItemsProcessed(static_cast<std::int64_t>(runs));
}
BENCHMARK(BM_RunProtocol)->Arg(4)->Arg(16)->Arg(64);

void BM_BoardBranchCopy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = two_cliques(n);
  const TwoCliquesProtocol p;
  const ExecutionResult r = run_protocol(g, p);
  unsigned long long copies = 0;
  const unsigned long long before = alloc_count();
  for (auto _ : state) {
    Whiteboard snapshot = r.board;  // O(1): shares the immutable prefix
    benchmark::DoNotOptimize(snapshot);
    ++copies;
  }
  state.counters["messages"] =
      benchmark::Counter(static_cast<double>(r.board.message_count()));
  state.counters["allocs_per_copy"] = benchmark::Counter(
      static_cast<double>(alloc_count() - before) / static_cast<double>(copies));
  state.SetItemsProcessed(static_cast<std::int64_t>(copies));
}
BENCHMARK(BM_BoardBranchCopy)->Arg(4)->Arg(64)->Arg(256);

void BM_EngineStateBranchCopy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = two_cliques(n);
  const TwoCliquesProtocol p;
  // Advance to the middle of a run, where the pre-backtracking explorer
  // branched: half the messages written.
  EngineState mid(g, p);
  for (std::size_t w = 0; w < n; ++w) {
    mid.begin_round();
    WB_CHECK(!mid.terminal());
    mid.write(0);
  }
  for (auto _ : state) {
    EngineState branch = mid;
    benchmark::DoNotOptimize(branch);
  }
}
BENCHMARK(BM_EngineStateBranchCopy)->Arg(4)->Arg(64);

void BM_ExhaustiveTwoCliques(benchmark::State& state) {
  const Graph g = two_cliques(4);  // 8 nodes: 8! = 40320 executions
  const TwoCliquesProtocol p;
  std::uint64_t execs = 0;
  const unsigned long long before = alloc_count();
  for (auto _ : state) {
    execs += for_each_execution(
        g, p, [](const ExecutionResult&) { return true; });
  }
  const double allocs_per_exec =
      static_cast<double>(alloc_count() - before) / static_cast<double>(execs);
  state.counters["executions"] =
      benchmark::Counter(static_cast<double>(execs));
  state.counters["allocs_per_exec"] = benchmark::Counter(allocs_per_exec);
  state.SetItemsProcessed(static_cast<std::int64_t>(execs));
  // The allocation story is DONE: engine journaling (PR 2) plus the scratch
  // BitWriter through compose (PR 3) leave only per-sweep setup, amortized
  // over 40320 executions. Regressing past 0.5 allocs/execution means a
  // hot-path allocation crept back in — fail the bench, not just drift.
  if (allocs_per_exec > 0.5) {
    state.SkipWithError("steady-state allocation regression: > 0.5 allocs/exec");
  }
}
BENCHMARK(BM_ExhaustiveTwoCliques)->Unit(benchmark::kMillisecond);

void BM_ExhaustiveBuildFull(benchmark::State& state) {
  // Same sweep, SIMASYNC protocol: BuildFull freezes (ID, adjacency row)
  // messages at activation through the engine's scratch writer, so the
  // steady state is allocation-free like the two-cliques sweep above.
  const Graph g = two_cliques(4);  // 8 nodes: 8! = 40320 executions
  const BuildFullProtocol p;
  std::uint64_t execs = 0;
  const unsigned long long before = alloc_count();
  for (auto _ : state) {
    execs += for_each_execution(
        g, p, [](const ExecutionResult&) { return true; });
  }
  const double allocs_per_exec =
      static_cast<double>(alloc_count() - before) / static_cast<double>(execs);
  state.counters["executions"] =
      benchmark::Counter(static_cast<double>(execs));
  state.counters["allocs_per_exec"] = benchmark::Counter(allocs_per_exec);
  state.SetItemsProcessed(static_cast<std::int64_t>(execs));
  if (allocs_per_exec > 0.5) {
    state.SkipWithError("steady-state allocation regression: > 0.5 allocs/exec");
  }
}
BENCHMARK(BM_ExhaustiveBuildFull)->Unit(benchmark::kMillisecond);

void BM_ExhaustiveTwoCliquesThreads(benchmark::State& state) {
  const Graph g = two_cliques(4);  // 8 nodes: 8! = 40320 executions
  const TwoCliquesProtocol p;
  ExhaustiveOptions opts;
  opts.threads = static_cast<std::size_t>(state.range(0));
  std::uint64_t execs = 0;
  for (auto _ : state) {
    const std::uint64_t visited = for_each_execution(
        g, p, [](const ExecutionResult&) { return true; }, opts);
    if (visited != 40320) {
      state.SkipWithError("parallel sweep lost executions");
      return;
    }
    execs += visited;
  }
  state.counters["executions_per_s"] = benchmark::Counter(
      static_cast<double>(execs), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(execs));
}
BENCHMARK(BM_ExhaustiveTwoCliquesThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_DistinctBoardsTwoCliques(benchmark::State& state) {
  const Graph g = two_cliques(4);
  const TwoCliquesProtocol p;
  ExhaustiveOptions opts;
  opts.threads = static_cast<std::size_t>(state.range(0));
  std::uint64_t distinct = 0;
  for (auto _ : state) {
    distinct = count_distinct_final_boards(g, p, opts);
    benchmark::DoNotOptimize(distinct);
  }
  state.counters["distinct"] = benchmark::Counter(static_cast<double>(distinct));
}
BENCHMARK(BM_DistinctBoardsTwoCliques)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_DistinctBoardsMis(benchmark::State& state) {
  const Graph g = two_cliques(3);  // 6 nodes
  const RootedMisProtocol p(1);
  std::uint64_t distinct = 0;
  for (auto _ : state) {
    distinct = count_distinct_final_boards(g, p);
    benchmark::DoNotOptimize(distinct);
  }
  state.counters["distinct"] = benchmark::Counter(static_cast<double>(distinct));
}
BENCHMARK(BM_DistinctBoardsMis)->Unit(benchmark::kMillisecond);

void BM_DistinctBoardsTwoCliquesHll(benchmark::State& state) {
  // The full sweep of BM_DistinctBoardsTwoCliques, counted through the
  // hll:14 accumulator instead of exact dedup — the sweep cost dominates,
  // so this pins that switching accumulators is close to free.
  const Graph g = two_cliques(4);
  const TwoCliquesProtocol p;
  ExhaustiveOptions opts;
  opts.distinct = DistinctConfig::Hll(14);
  std::uint64_t estimate = 0;
  for (auto _ : state) {
    estimate = count_distinct_final_boards(g, p, opts);
    benchmark::DoNotOptimize(estimate);
  }
  state.counters["distinct_estimate"] =
      benchmark::Counter(static_cast<double>(estimate));
}
BENCHMARK(BM_DistinctBoardsTwoCliquesHll)->Unit(benchmark::kMillisecond);

// --- Accumulator layer in isolation: exact vs hll insert/merge throughput
// and the peak-memory proxy (what the ROADMAP's ~10^9-distinct wall is
// about: 16 bytes per distinct key vs 2^p bytes flat).

constexpr std::int64_t kExactKind = 0;
constexpr std::int64_t kHllKind = 1;

DistinctConfig bench_config(std::int64_t kind) {
  return kind == kExactKind ? DistinctConfig::Exact()
                            : DistinctConfig::Hll(14);
}

Hash128 bench_key(std::uint64_t i) {
  const std::uint64_t lo = mix64(i + 1);
  return Hash128{lo, mix64(lo + 0x9e3779b97f4a7c15ULL)};
}

void BM_DistinctInsert(benchmark::State& state) {
  const DistinctConfig config = bench_config(state.range(0));
  const auto keys = static_cast<std::uint64_t>(state.range(1));
  std::uint64_t inserted = 0;
  std::uint64_t peak_bytes = 0;
  for (auto _ : state) {
    const auto acc = make_distinct_accumulator(config);
    for (std::uint64_t i = 0; i < keys; ++i) acc->insert(bench_key(i));
    const std::uint64_t distinct = acc->estimate();
    benchmark::DoNotOptimize(distinct);
    inserted += keys;
    peak_bytes = config.kind == DistinctKind::kExact
                     ? distinct * sizeof(Hash128)
                     : (std::uint64_t{1} << config.hll_precision);
  }
  state.counters["peak_bytes"] =
      benchmark::Counter(static_cast<double>(peak_bytes));
  state.counters["keys_per_s"] = benchmark::Counter(
      static_cast<double>(inserted), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(inserted));
}
BENCHMARK(BM_DistinctInsert)
    ->ArgsProduct({{kExactKind, kHllKind}, {1 << 16, 1 << 20}})
    ->Unit(benchmark::kMillisecond);

void BM_DistinctMerge(benchmark::State& state) {
  // 16 per-task accumulators of 64k distinct keys each (the explorer's
  // per-subtree shape), folded left like the sweep's final merge.
  const DistinctConfig config = bench_config(state.range(0));
  constexpr std::size_t kParts = 16;
  constexpr std::uint64_t kKeysPerPart = 1 << 16;
  std::uint64_t merged_keys = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::unique_ptr<DistinctAccumulator>> parts;
    for (std::size_t k = 0; k < kParts; ++k) {
      parts.push_back(make_distinct_accumulator(config));
      for (std::uint64_t i = 0; i < kKeysPerPart; ++i) {
        parts[k]->insert(bench_key(k * kKeysPerPart + i));
      }
    }
    state.ResumeTiming();
    std::unique_ptr<DistinctAccumulator> total = std::move(parts.front());
    for (std::size_t k = 1; k < kParts; ++k) {
      total->merge(std::move(*parts[k]));
    }
    const std::uint64_t distinct = total->estimate();
    benchmark::DoNotOptimize(distinct);
    merged_keys += kParts * kKeysPerPart;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(merged_keys));
}
BENCHMARK(BM_DistinctMerge)
    ->Arg(kExactKind)
    ->Arg(kHllKind)
    ->Unit(benchmark::kMillisecond);

void BM_FrameRoundTrip(benchmark::State& state) {
  // One spec-sized payload per iteration, fed to the decoder in 512-byte
  // chunks the way a pipe delivers it. The fleet pays this once per
  // dispatched shard, so the bar is "noise next to a sweep", not "fast".
  const std::string payload(static_cast<std::size_t>(state.range(0)), 's');
  const fleet::Frame frame{fleet::FrameType::kSpec, payload};
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const std::string wire = encode_frame(frame);
    fleet::FrameDecoder decoder;
    for (std::size_t off = 0; off < wire.size(); off += 512) {
      decoder.feed(wire.data() + off, std::min<std::size_t>(512, wire.size() - off));
    }
    const std::optional<fleet::Frame> decoded = decoder.next();
    benchmark::DoNotOptimize(decoded);
    bytes += wire.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_FrameRoundTrip)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

}  // namespace
}  // namespace wb

BENCHMARK_MAIN();
