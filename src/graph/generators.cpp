#include "src/graph/generators.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "src/support/rng.h"

namespace wb {

Graph path_graph(std::size_t n) {
  WB_REQUIRE_MSG(n >= 1, "path N must be >= 1");
  GraphBuilder b(n);
  for (std::size_t i = 1; i + 1 <= n; ++i) {
    b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  }
  return b.build();
}

Graph cycle_graph(std::size_t n) {
  WB_REQUIRE_MSG(n >= 3, "cycle N must be >= 3");
  GraphBuilder b(n);
  for (std::size_t i = 1; i < n; ++i) {
    b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  }
  b.add_edge(static_cast<NodeId>(n), 1);
  return b.build();
}

Graph complete_graph(std::size_t n) {
  GraphBuilder b(n);
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = i + 1; j <= n; ++j) {
      b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j));
    }
  }
  return b.build();
}

Graph star_graph(std::size_t n) {
  WB_REQUIRE_MSG(n >= 1, "star N must be >= 1");
  GraphBuilder b(n);
  for (std::size_t i = 2; i <= n; ++i) b.add_edge(1, static_cast<NodeId>(i));
  return b.build();
}

Graph empty_graph(std::size_t n) { return Graph(n); }

Graph grid_graph(std::size_t rows, std::size_t cols) {
  WB_REQUIRE_MSG(rows >= 1 && cols >= 1, "grid rows and cols must be >= 1");
  GraphBuilder b(rows * cols);
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c + 1);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) b.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return b.build();
}

Graph complete_bipartite(std::size_t a, std::size_t b) {
  GraphBuilder g(a + b);
  for (std::size_t i = 1; i <= a; ++i) {
    for (std::size_t j = a + 1; j <= a + b; ++j) {
      g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j));
    }
  }
  return g.build();
}

Graph two_cliques(std::size_t n) {
  WB_REQUIRE_MSG(n >= 1, "twocliques N must be >= 1");
  GraphBuilder b(2 * n);
  for (std::size_t base : {std::size_t{0}, n}) {
    for (std::size_t i = 1; i <= n; ++i) {
      for (std::size_t j = i + 1; j <= n; ++j) {
        b.add_edge(static_cast<NodeId>(base + i), static_cast<NodeId>(base + j));
      }
    }
  }
  return b.build();
}

Graph two_cliques_switched(std::size_t n) {
  WB_REQUIRE_MSG(n >= 3, "switched N must be >= 3");
  // Remove {1,2} from the first clique and {n+1,n+2} from the second; add the
  // crossing edges {1,n+1} and {2,n+2}. Every node keeps degree n-1 and the
  // graph becomes connected, hence not a union of two cliques.
  GraphBuilder b(2 * n);
  for (std::size_t base : {std::size_t{0}, n}) {
    for (std::size_t i = 1; i <= n; ++i) {
      for (std::size_t j = i + 1; j <= n; ++j) {
        const NodeId u = static_cast<NodeId>(base + i);
        const NodeId v = static_cast<NodeId>(base + j);
        if ((u == 1 && v == 2) ||
            (u == static_cast<NodeId>(n + 1) && v == static_cast<NodeId>(n + 2))) {
          continue;
        }
        b.add_edge(u, v);
      }
    }
  }
  b.add_edge(1, static_cast<NodeId>(n + 1));
  b.add_edge(2, static_cast<NodeId>(n + 2));
  return b.build();
}

Graph hypercube_graph(int dimension) {
  WB_CHECK(dimension >= 0 && dimension <= 20);
  const std::size_t n = std::size_t{1} << dimension;
  GraphBuilder b(n);
  for (std::size_t v = 0; v < n; ++v) {
    for (int bit = 0; bit < dimension; ++bit) {
      const std::size_t w = v ^ (std::size_t{1} << bit);
      if (v < w) {
        b.add_edge(static_cast<NodeId>(v + 1), static_cast<NodeId>(w + 1));
      }
    }
  }
  return b.build();
}

Graph wheel_graph(std::size_t n) {
  WB_CHECK_MSG(n >= 4, "a wheel needs a hub and a 3-cycle");
  GraphBuilder b(n);
  for (std::size_t i = 2; i <= n; ++i) {
    b.add_edge(1, static_cast<NodeId>(i));
    b.add_edge(static_cast<NodeId>(i),
               static_cast<NodeId>(i == n ? 2 : i + 1));
  }
  return b.build();
}

Graph barbell_graph(std::size_t k, std::size_t bridge) {
  WB_CHECK(k >= 2);
  const std::size_t n = 2 * k + bridge;
  GraphBuilder b(n);
  for (std::size_t base : {std::size_t{0}, k + bridge}) {
    for (std::size_t i = 1; i <= k; ++i) {
      for (std::size_t j = i + 1; j <= k; ++j) {
        b.add_edge(static_cast<NodeId>(base + i),
                   static_cast<NodeId>(base + j));
      }
    }
  }
  // Path k, k+1, ..., k+bridge+1 connecting the cliques.
  for (std::size_t i = k; i <= k + bridge; ++i) {
    b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  }
  return b.build();
}

Graph random_regular(std::size_t n, std::size_t d, std::uint64_t seed) {
  WB_CHECK_MSG(d < n && (n * d) % 2 == 0, "need d < n and n*d even");
  // Deterministic circulant base (always simple and d-regular), then a long
  // degree-preserving 2-switch walk for randomization. Unlike the pairing
  // model this never rejects, even at d close to n.
  GraphBuilder base(n);
  for (std::size_t j = 1; j <= d / 2; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      base.add_edge(static_cast<NodeId>(i + 1),
                    static_cast<NodeId>((i + j) % n + 1));
    }
  }
  if (d % 2 == 1) {  // n is even here (n*d even)
    for (std::size_t i = 0; i < n / 2; ++i) {
      base.add_edge(static_cast<NodeId>(i + 1),
                    static_cast<NodeId>(i + n / 2 + 1));
    }
  }

  Rng rng(seed);
  std::vector<Edge> edges = base.build().edge_vector();
  // Edge set keyed on the normalized endpoints for O(1) membership during
  // switches (with erase, so no rebuilds).
  const auto key = [](Edge e) {
    return (static_cast<std::uint64_t>(e.u) << 32) | e.v;
  };
  std::unordered_set<std::uint64_t> current;
  current.reserve(edges.size() * 2);
  for (const Edge& e : edges) current.insert(key(e));
  const std::size_t steps = 10 * n * d + 100;
  for (std::size_t step = 0; step < steps && edges.size() >= 2; ++step) {
    const auto i = static_cast<std::size_t>(rng.below(edges.size()));
    const auto j = static_cast<std::size_t>(rng.below(edges.size()));
    if (i == j) continue;
    Edge a = edges[i], c = edges[j];
    // Randomize orientation of the switch.
    if (rng.chance(1, 2)) std::swap(c.u, c.v);
    if (a.u == c.u || a.u == c.v || a.v == c.u || a.v == c.v) continue;
    if (current.contains(key(make_edge(a.u, c.v))) ||
        current.contains(key(make_edge(c.u, a.v)))) {
      continue;
    }
    // Apply: {a.u,a.v},{c.u,c.v} -> {a.u,c.v},{c.u,a.v}.
    current.erase(key(edges[i]));
    current.erase(key(edges[j]));
    edges[i] = make_edge(a.u, c.v);
    edges[j] = make_edge(c.u, a.v);
    current.insert(key(edges[i]));
    current.insert(key(edges[j]));
  }
  return Graph(n, edges);
}

Graph random_tree(std::size_t n, std::uint64_t seed) {
  WB_REQUIRE_MSG(n >= 1, "tree N must be >= 1");
  if (n == 1) return Graph(1);
  if (n == 2) {
    const Edge e{1, 2};
    return Graph(2, std::span<const Edge>(&e, 1));
  }
  Rng rng(seed);
  // Prüfer decoding.
  std::vector<NodeId> prufer(n - 2);
  for (auto& p : prufer) p = static_cast<NodeId>(rng.range(1, n));
  std::vector<std::size_t> deg(n + 1, 1);
  for (NodeId p : prufer) ++deg[p];
  GraphBuilder b(n);
  // Min-heap free list via sorted iteration.
  std::vector<bool> used(n + 1, false);
  for (NodeId p : prufer) {
    NodeId leaf = 0;
    for (NodeId v = 1; v <= n; ++v) {
      if (deg[v] == 1 && !used[v]) {
        leaf = v;
        break;
      }
    }
    b.add_edge(leaf, p);
    used[leaf] = true;
    --deg[p];
  }
  NodeId u = 0, v = 0;
  for (NodeId w = 1; w <= n; ++w) {
    if (deg[w] == 1 && !used[w]) {
      if (u == 0) {
        u = w;
      } else {
        v = w;
      }
    }
  }
  b.add_edge(u, v);
  return b.build();
}

Graph random_forest(std::size_t n, int attach_pct, std::uint64_t seed) {
  WB_REQUIRE_MSG(n >= 1, "forest N must be >= 1");
  WB_CHECK(attach_pct >= 0 && attach_pct <= 100);
  Rng rng(seed);
  GraphBuilder b(n);
  for (std::size_t i = 2; i <= n; ++i) {
    if (rng.chance(static_cast<std::uint64_t>(attach_pct), 100)) {
      const NodeId parent = static_cast<NodeId>(rng.range(1, i - 1));
      b.add_edge(parent, static_cast<NodeId>(i));
    }
  }
  Graph g = b.build();
  return relabel(g, random_permutation(n, rng.next()));
}

Graph random_k_degenerate(std::size_t n, int k, int sparse_pct,
                          std::uint64_t seed) {
  WB_REQUIRE_MSG(n >= 1, "kdeg N must be >= 1");
  WB_CHECK(k >= 0 && sparse_pct >= 0 && sparse_pct <= 100);
  Rng rng(seed);
  GraphBuilder b(n);
  for (std::size_t i = 2; i <= n; ++i) {
    const std::size_t slots =
        std::min<std::size_t>(static_cast<std::size_t>(k), i - 1);
    // Sample `slots` distinct earlier nodes (skip each independently with the
    // sparseness probability).
    std::vector<NodeId> earlier(i - 1);
    std::iota(earlier.begin(), earlier.end(), NodeId{1});
    rng.shuffle(earlier);
    for (std::size_t s = 0; s < slots; ++s) {
      if (rng.chance(static_cast<std::uint64_t>(sparse_pct), 100)) continue;
      b.add_edge(earlier[s], static_cast<NodeId>(i));
    }
  }
  Graph g = b.build();
  return relabel(g, random_permutation(n, rng.next()));
}

Graph erdos_renyi(std::size_t n, std::uint64_t p_num, std::uint64_t p_den,
                  std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = i + 1; j <= n; ++j) {
      if (rng.chance(p_num, p_den)) {
        b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j));
      }
    }
  }
  return b.build();
}

Graph connected_gnp(std::size_t n, std::uint64_t p_num, std::uint64_t p_den,
                    std::uint64_t seed) {
  WB_REQUIRE_MSG(n >= 1, "cgnp N must be >= 1");
  Rng rng(seed);
  Graph tree = random_tree(n, rng.next());
  GraphBuilder b(n);
  for (const Edge& e : tree.edges()) b.add_edge(e.u, e.v);
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = i + 1; j <= n; ++j) {
      if (rng.chance(p_num, p_den)) {
        b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j));
      }
    }
  }
  return b.build();
}

Graph random_bipartite(std::size_t a, std::size_t b, std::uint64_t p_num,
                       std::uint64_t p_den, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder g(a + b);
  for (std::size_t i = 1; i <= a; ++i) {
    for (std::size_t j = a + 1; j <= a + b; ++j) {
      if (rng.chance(p_num, p_den)) {
        g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j));
      }
    }
  }
  return g.build();
}

Graph random_even_odd_bipartite(std::size_t n, std::uint64_t p_num,
                                std::uint64_t p_den, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder g(n);
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = i + 1; j <= n; ++j) {
      if ((i % 2) == (j % 2)) continue;
      if (rng.chance(p_num, p_den)) {
        g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j));
      }
    }
  }
  return g.build();
}

Graph connected_even_odd_bipartite(std::size_t n, std::uint64_t p_num,
                                   std::uint64_t p_den, std::uint64_t seed) {
  WB_REQUIRE_MSG(n >= 2, "ceob N must be >= 2");
  Rng rng(seed);
  GraphBuilder g(n);
  // Alternating spanning tree: attach each node to a random earlier node of
  // the opposite parity (node 2 attaches to 1; parities 1,2 differ, and for
  // every i >= 2 an opposite-parity earlier node exists).
  for (std::size_t i = 2; i <= n; ++i) {
    while (true) {
      const NodeId cand = static_cast<NodeId>(rng.range(1, i - 1));
      if ((cand % 2) != (i % 2)) {
        g.add_edge(cand, static_cast<NodeId>(i));
        break;
      }
    }
  }
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = i + 1; j <= n; ++j) {
      if ((i % 2) == (j % 2)) continue;
      if (rng.chance(p_num, p_den)) {
        g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j));
      }
    }
  }
  return g.build();
}

Graph planted_triangle(std::size_t n, std::uint64_t p_num, std::uint64_t p_den,
                       std::uint64_t seed, bool* planted) {
  Rng rng(seed);
  Graph base = random_even_odd_bipartite(n, p_num, p_den, rng.next());
  GraphBuilder g(n);
  for (const Edge& e : base.edges()) g.add_edge(e.u, e.v);
  // Find a path u - w - v and close it with edge {u,v} (same parity, so it is
  // absent from the bipartite base).
  bool done = false;
  for (NodeId w = 1; w <= n && !done; ++w) {
    const auto nb = base.neighbors(w);
    if (nb.size() >= 2) {
      g.add_edge(nb[0], nb[1]);
      done = true;
    }
  }
  if (planted != nullptr) *planted = done;
  return g.build();
}

std::vector<NodeId> random_permutation(std::size_t n, std::uint64_t seed) {
  std::vector<NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), NodeId{1});
  Rng rng(seed);
  rng.shuffle(perm);
  return perm;
}

namespace {

/// Per-sample RNG stream: splitmix64-style derivation from (seed, index), so
/// sample i is reproducible in isolation — the property the two-pass CSR
/// build and any parallel generation both rely on.
Rng stream_rng(std::uint64_t base, std::size_t i) {
  return Rng(base + static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL);
}

}  // namespace

Graph rmat_graph(int scale, std::size_t edge_factor, std::uint64_t seed,
                 Graph::BuildStats* stats) {
  WB_REQUIRE_MSG(scale >= 1 && scale <= 28, "rmat scale out of range 1..28");
  WB_REQUIRE_MSG(edge_factor >= 1, "rmat edge factor must be >= 1");
  const std::size_t n = std::size_t{1} << scale;
  const std::size_t samples = n * edge_factor;
  const std::uint64_t base = mix64(seed);
  const auto replay = [=](const Graph::PairSink& sink) {
    for (std::size_t i = 0; i < samples; ++i) {
      Rng r = stream_rng(base, i);
      std::uint64_t u = 0, v = 0;
      for (int level = 0; level < scale; ++level) {
        // Graph500 defaults: A=0.57, B=0.19, C=0.19, D=0.05 — quadrant
        // (row, col) bits per recursion level.
        const std::uint64_t q = r.below(100);
        const std::uint64_t ubit = q >= 76 ? 1 : 0;            // C or D
        const std::uint64_t vbit =
            (q >= 57 && q < 76) || q >= 95 ? 1 : 0;            // B or D
        u = (u << 1) | ubit;
        v = (v << 1) | vbit;
      }
      sink(static_cast<NodeId>(u + 1), static_cast<NodeId>(v + 1));
    }
  };
  return Graph::from_pair_stream(n, replay, stats);
}

Graph random_power_law(std::size_t n, std::size_t edge_factor, double exponent,
                       std::uint64_t seed, Graph::BuildStats* stats) {
  WB_REQUIRE_MSG(n >= 1, "powerlaw N must be >= 1");
  WB_REQUIRE_MSG(edge_factor >= 1, "powerlaw edge factor must be >= 1");
  WB_CHECK_MSG(exponent > 1.0, "power-law exponent must exceed 1");
  // Chung–Lu weights w_i = i^(-1/(exponent-1)); endpoints sampled by binary
  // search on the cumulative weights.
  std::vector<double> cum(n + 1, 0.0);
  const double alpha = -1.0 / (exponent - 1.0);
  for (std::size_t i = 1; i <= n; ++i) {
    cum[i] = cum[i - 1] + std::pow(static_cast<double>(i), alpha);
  }
  const double total = cum[n];
  const std::size_t samples = n * edge_factor;
  const std::uint64_t base = mix64(seed ^ 0xc2b2ae3d27d4eb4fULL);
  const auto pick = [&](Rng& r) {
    const double x =
        static_cast<double>(r.next() >> 11) * (1.0 / 9007199254740992.0) *
        total;
    const auto it = std::upper_bound(cum.begin() + 1, cum.end(), x);
    const auto idx = static_cast<std::size_t>(it - cum.begin());
    return static_cast<NodeId>(std::min(idx, n));
  };
  const auto replay = [&](const Graph::PairSink& sink) {
    for (std::size_t i = 0; i < samples; ++i) {
      Rng r = stream_rng(base, i);
      const NodeId a = pick(r);
      const NodeId b = pick(r);
      sink(a, b);
    }
  };
  return Graph::from_pair_stream(n, replay, stats);
}

}  // namespace wb
