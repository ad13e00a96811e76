"""The benchmark's workloads: what each one feeds the simulator, and why.

Every workload runs the same command matrix (see run.py) on its own inputs,
so every end-to-end metric exists on every workload; what differs is which
layer carries the work. Inputs are PROTOCOL@GRAPH pairs in the
wbsim spec grammar. `{seed}` in a graph spec is replaced by the run's seed,
and every graph is additionally relabelled by a permutation drawn from the
seed (wbperf's seeded_graph), so the library only ever sees generated inputs.

  sweep    the instance swept by enumerate_1 / enumerate_par / enumerate_hll /
           symbolic / fleet (exhaustive:1, exhaustive:T,
           exhaustive:T:distinct=hll:14, symbolic, exhaustive:shards=T);
           enumerate_1 is verified but not reported (see run.py)
  memo     the instance swept by memoize (exhaustive:memoize)
  battery  the standard adversary battery, in parallel (battery_s)
  single   single runs under seeded random adversaries (run_mean_ms and
           run_p90_ms)
  load     the graph generated, written as an edge list and streamed back
           during set-up (setup_s; the traced run's graph.* metrics), sized
           so set-up is ~0.05-1 s of steady work rather than process spawns
  rss      larger sweep and memo instances for the peak-RSS processes
           (*_rss_mb), which run once per run: at 8 nodes every RSS metric
           but symbolic's stayed within a few MB of a wbperf process that
           runs no command (~3.5 MB), so these are sized until the layer's
           own memory shows

ids -- nothing converges.
  two-cliques writes its author's ID into every message, so every one of the
  8! schedules of twocliques:4 ends in a distinct board. Loads the engine
  rounds of the explorer, the exact distinct accumulator (one key per
  execution) and its merge, and shard results that carry every key. The memo
  table gets 0 hits and the BDD cannot compress: the pure-overhead side of
  both. Single runs are SIMSYNC on 192 nodes, so the all-memories recompose
  (n^2 compose calls per run) dominates them. Peak RSS is taken on
  two-cliques over complete:9 (9! distinct boards), where the exact keys,
  the memo table, the BDD and the shard results rise above the baseline.

anon -- the same backends on inputs that share almost all their work.
  anon-degree writes only degrees, so star:8's 8! schedules end in 8 distinct
  boards. Memo and BDD collapse the tree, the distinct accumulator holds 8
  keys and shard results are tiny: a distinct-merge or codec change must stay
  flat here, and a memo or BDD change must not lose here. Memoize runs on
  star:14 (14! executions, 14 boards) so it is timeable. Single runs are
  SIMSYNC on star:512 with one-word messages: recompose count without the
  two-cliques decoding cost. Peak RSS is taken on star:10 (10! schedules,
  10 boards), where memo and distinct memory stay near the baseline by
  design: the prediction for a memory change in those layers is no change.

runs -- engine rounds at graph scale.
  sync-bfs (SYNC) on a seeded RMAT graph and build-degenerate:3 (SIMASYNC) on
  a seeded 3-degenerate graph, as single runs and as the battery; only the
  synchronous protocol pays the all-memories recompose. The verdict matrix
  exercises the batch, fault and verdict layers, and set-up generates a
  seeded scale-17 RMAT graph, writes it and streams it back (the graph
  layer at scale). Its sweeps are on grid:2x4, where anon-degree leaves 70
  distinct boards: between ids (all distinct) and anon (n distinct); peak
  RSS on grid:3x3 (630 boards).

Sizing (single wbsim runs, Release, gcc 12, 4 shared cores; wall seconds over
2-8 runs; they size the work and are not a baseline):

  command                                          wall s      note
  twocliques:5 two-cliques exhaustive:1            4.7-6.8     ~116 MB
  ... exhaustive:4 (exact)                         2.8-4.2     ~175 MB
  ... exhaustive:4:distinct=hll:14                 1.08-1.25
  ... exhaustive:memoize                           11.6-12.6   0 hits; ~590 MB
  ... symbolic                                     5.2-6.0     ~785 MB
  ... exhaustive:shards=4                          2.25-2.39   ~350 MB
  star:10 anon-degree exhaustive:1 / :4 / shards=4 2.3-2.7 / 0.97-1.24 / 1.0-1.13
  ... exhaustive:memoize / symbolic                0.012 / 1.06
  rmat:11:8:1 sync-bfs first                       0.32-0.40
  rmat:12:8:1 sync-bfs battery                     4.6-5.0     16 s CPU
  verdicts                                         0.30-1.25
  graph gen rmat:18:16:1 / graph stats             1.7-1.8 / 0.64-0.67

Both 10! instances exceed the default 2,000,000 budget (hence budget=4000000)
and one pass over the 10! sweeps takes ~30 s, which leaves no room for the
repeated rounds a steady median needs inside one run. The workloads therefore
sweep 8-node instances (8! = 40,320 schedules) and repeat each call; the same
code paths run, with ~90x less work per call. Measured in-process on the same
machine: twocliques:4 exhaustive:1 0.065 s, exhaustive:4 0.022 s, memoize
0.09 s, symbolic 0.32 s, shards=4 0.035 s; star:14 memoize 0.33 s; grid:2x6
memoize 0.34 s; sync-bfs on rmat:9 0.023 s and on rmat:10 0.070 s per run.

Peak RSS of the rss instances, median of ten seeds (MB; a wbperf process
that runs no command peaks at ~3.5 MB). One cold call of each takes
0.2-2.0 s, ~3-5.5 s per run in all:

  instance                          enumerate_par  memoize  symbolic  fleet
  two-cliques@complete:9                     22.1     59.1     174.2   42.5
  anon-degree@star:10 (memo star:14)         63.8      9.0     219.7   19.4
  anon-degree@grid:3x3 (memo grid:2x6)       10.7     11.4     129.2    5.9
"""

from math import factorial

BUDGET = 4_000_000
# Memoized sweeps of star:14 / grid:2x6 count past 10^11 executions.
MEMO_BUDGET = 1 << 62
GOLDEN = "tests/wb/data/verdicts.golden"

WORKLOADS = {
    "ids": {
        "sweep": "two-cliques@twocliques:4",
        "memo": "two-cliques@twocliques:4",
        "battery": ["two-cliques@twocliques:96"],
        "single": "two-cliques@twocliques:96",
        "load": "twocliques:384",
        "rss": {"sweep": "two-cliques@complete:9",
                "memo": "two-cliques@complete:9"},
    },
    "anon": {
        "sweep": "anon-degree@star:8",
        "memo": "anon-degree@star:14",
        "battery": ["anon-degree@star:512"],
        "single": "anon-degree@star:512",
        "load": "star:262144",
        "rss": {"sweep": "anon-degree@star:10",
                "memo": "anon-degree@star:14"},
    },
    "runs": {
        "sweep": "anon-degree@grid:2x4",
        "memo": "anon-degree@grid:2x6",
        "battery": ["sync-bfs@rmat:10:8:{seed}",
                    "build-degenerate:3@kdeg:1000:3:20:{seed}"],
        "single": "sync-bfs@rmat:9:8:{seed}",
        "load": "rmat:17:16:{seed}",
        "rss": {"sweep": "anon-degree@grid:3x3",
                "memo": "anon-degree@grid:2x6"},
    },
}

# The same three workloads at tiny sizes, finishing in seconds: the
# benchmark's own test (run.py --smoke).
SMOKE = {
    "ids": dict(WORKLOADS["ids"], sweep="two-cliques@twocliques:3",
                memo="two-cliques@twocliques:3",
                battery=["two-cliques@twocliques:8"],
                single="two-cliques@twocliques:8", load="twocliques:8",
                rss={"sweep": "two-cliques@complete:5",
                     "memo": "two-cliques@complete:5"}),
    "anon": dict(WORKLOADS["anon"], sweep="anon-degree@star:6",
                 memo="anon-degree@star:9",
                 battery=["anon-degree@star:32"],
                 single="anon-degree@star:32", load="star:32",
                 rss={"sweep": "anon-degree@star:7",
                      "memo": "anon-degree@star:9"}),
    "runs": dict(WORKLOADS["runs"], sweep="anon-degree@grid:2x3",
                 memo="anon-degree@grid:2x4",
                 battery=["sync-bfs@rmat:6:8:{seed}",
                          "build-degenerate:3@kdeg:64:3:20:{seed}"],
                 single="sync-bfs@rmat:6:8:{seed}", load="rmat:10:8:{seed}",
                 rss={"sweep": "anon-degree@grid:2x3",
                      "memo": "anon-degree@grid:2x4"}),
}


def degrees(graph_spec):
    """Degree sequence of the fixed graph families the sweeps use."""
    kind, _, rest = graph_spec.partition(":")
    if kind == "star":
        n = int(rest)
        return [n - 1] + [1] * (n - 1)
    if kind == "twocliques":
        k = int(rest)
        return [k - 1] * (2 * k)
    if kind == "complete":
        n = int(rest)
        return [n - 1] * n
    if kind == "grid":
        rows, cols = (int(x) for x in rest.split("x"))
        return [(r > 0) + (r < rows - 1) + (c > 0) + (c < cols - 1)
                for r in range(rows) for c in range(cols)]
    raise ValueError("no degree formula for " + graph_spec)


def expected_sweep(instance):
    """Totals a sweep of PROTOCOL@GRAPH must report, under any relabelling.

    Every schedule writes each of the n nodes once: n! executions. two-cliques
    messages carry the writer's ID, so every board is distinct; anon-degree
    boards are the degree sequence in write order, so the distinct boards are
    the distinct orderings of the degree multiset, n! / prod(m_d!).
    """
    protocol, graph_spec = instance.split("@")
    degs = degrees(graph_spec)
    executions = factorial(len(degs))
    if protocol == "two-cliques":
        distinct = executions
    elif protocol == "anon-degree":
        distinct = executions
        for d in set(degs):
            distinct //= factorial(degs.count(d))
    else:
        raise ValueError("no pinned totals for " + protocol)
    return {"executions": executions, "distinct": distinct, "failures": 0}
