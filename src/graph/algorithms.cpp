#include "src/graph/algorithms.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>
#include <utility>

#include "src/support/hash.h"

namespace wb {

BfsResult bfs_from(const Graph& g, NodeId root) {
  const std::size_t n = g.node_count();
  BfsResult r{std::vector<int>(n, -1), std::vector<NodeId>(n, kNoNode)};
  std::deque<NodeId> queue;
  r.dist[root - 1] = 0;
  queue.push_back(root);
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    for (NodeId w : g.neighbors(v)) {
      if (r.dist[w - 1] == -1) {
        r.dist[w - 1] = r.dist[v - 1] + 1;
        r.parent[w - 1] = v;
        queue.push_back(w);
      }
    }
  }
  return r;
}

BfsForest bfs_forest(const Graph& g) {
  // One shared O(n + m) sweep. The per-component bfs_from + full merge scan
  // was O(components * n) — quadratic on generated graphs with many isolated
  // nodes (an RMAT instance is ~30% singletons). Queue discipline is the
  // same (FIFO, sorted neighbors), so layers and parents are unchanged.
  const std::size_t n = g.node_count();
  BfsForest f;
  f.layer.assign(n, -1);
  f.parent.assign(n, kNoNode);
  std::vector<NodeId> queue;
  queue.reserve(n);
  for (NodeId v = 1; v <= n; ++v) {
    if (f.layer[v - 1] != -1) continue;
    f.roots.push_back(v);
    f.layer[v - 1] = 0;
    queue.clear();
    queue.push_back(v);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      for (const NodeId w : g.neighbors(u)) {
        if (f.layer[w - 1] == -1) {
          f.layer[w - 1] = f.layer[u - 1] + 1;
          f.parent[w - 1] = u;
          queue.push_back(w);
        }
      }
    }
  }
  return f;
}

bool is_valid_bfs_forest(const Graph& g, const std::vector<int>& layer,
                         const std::vector<NodeId>& parent) {
  const std::size_t n = g.node_count();
  if (layer.size() != n || parent.size() != n) return false;
  const BfsForest ref = bfs_forest(g);
  for (NodeId v = 1; v <= n; ++v) {
    if (layer[v - 1] != ref.layer[v - 1]) return false;  // true hop distance
    if (ref.layer[v - 1] == 0) {
      if (parent[v - 1] != kNoNode) return false;
    } else {
      const NodeId p = parent[v - 1];
      if (p == kNoNode || !g.has_edge(p, v)) return false;
      if (layer[p - 1] != layer[v - 1] - 1) return false;
    }
  }
  return true;
}

Components connected_components(const Graph& g) {
  const std::size_t n = g.node_count();
  Components c;
  c.component.assign(n, std::numeric_limits<std::size_t>::max());
  for (NodeId v = 1; v <= n; ++v) {
    if (c.component[v - 1] != std::numeric_limits<std::size_t>::max()) continue;
    const std::size_t idx = c.count++;
    std::deque<NodeId> queue{v};
    c.component[v - 1] = idx;
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (NodeId w : g.neighbors(u)) {
        if (c.component[w - 1] == std::numeric_limits<std::size_t>::max()) {
          c.component[w - 1] = idx;
          queue.push_back(w);
        }
      }
    }
  }
  return c;
}

bool is_connected(const Graph& g) {
  return g.node_count() <= 1 || connected_components(g).count == 1;
}

namespace {

/// N(u)∖{v} == N(v)∖{u}, on the sorted neighbour lists.
bool are_twins(const Graph& g, NodeId u, NodeId v) {
  const std::span<const NodeId> a = g.neighbors(u);
  const std::span<const NodeId> b = g.neighbors(v);
  std::size_t i = 0;
  std::size_t j = 0;
  while (true) {
    if (i < a.size() && a[i] == v) ++i;
    if (j < b.size() && b[j] == u) ++j;
    if (i == a.size() || j == b.size()) return i == a.size() && j == b.size();
    if (a[i++] != b[j++]) return false;
  }
}

NodeId find_root(std::vector<NodeId>& parent, NodeId v) {
  while (parent[v - 1] != v) {
    parent[v - 1] = parent[parent[v - 1] - 1];
    v = parent[v - 1];
  }
  return v;
}

}  // namespace

TwinClasses twin_classes(const Graph& g) {
  const std::size_t n = g.node_count();
  // An order-free hash of each open neighbourhood; adding the node's own
  // term hashes its closed one. Twins of either kind share one of the two.
  std::vector<std::uint64_t> open(n, 0);
  for (NodeId v = 1; v <= n; ++v) {
    for (const NodeId w : g.neighbors(v)) open[v - 1] += mix64(w);
  }
  std::vector<NodeId> parent(n);
  std::iota(parent.begin(), parent.end(), NodeId{1});
  std::vector<std::pair<std::uint64_t, NodeId>> keyed(n);
  std::vector<NodeId> firsts;  // one node per distinct neighbourhood in a run
  for (const bool closed : {false, true}) {
    for (NodeId v = 1; v <= n; ++v) {
      keyed[v - 1] = {open[v - 1] + (closed ? mix64(v) : 0), v};
    }
    std::sort(keyed.begin(), keyed.end());
    for (std::size_t lo = 0; lo < n;) {
      std::size_t hi = lo + 1;
      while (hi < n && keyed[hi].first == keyed[lo].first) ++hi;
      firsts.clear();
      for (std::size_t k = lo; k < hi; ++k) {
        const NodeId v = keyed[k].second;
        const auto twin = std::find_if(
            firsts.begin(), firsts.end(),
            [&](NodeId u) { return are_twins(g, u, v); });
        if (twin == firsts.end()) {
          firsts.push_back(v);
        } else {
          // Union keeping the smaller root, so each root is its class's
          // smallest member.
          const NodeId a = find_root(parent, v);
          const NodeId b = find_root(parent, *twin);
          parent[std::max(a, b) - 1] = std::min(a, b);
        }
      }
      lo = hi;
    }
  }
  TwinClasses t;
  t.class_of.assign(n, 0);
  for (NodeId v = 1; v <= n; ++v) {
    const NodeId root = find_root(parent, v);
    t.class_of[v - 1] = root == v ? static_cast<std::uint32_t>(t.count++)
                                  : t.class_of[root - 1];
  }
  return t;
}

std::optional<std::vector<int>> bipartition(const Graph& g) {
  const std::size_t n = g.node_count();
  std::vector<int> color(n, -1);
  for (NodeId v = 1; v <= n; ++v) {
    if (color[v - 1] != -1) continue;
    color[v - 1] = 0;
    std::deque<NodeId> queue{v};
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (NodeId w : g.neighbors(u)) {
        if (color[w - 1] == -1) {
          color[w - 1] = 1 - color[u - 1];
          queue.push_back(w);
        } else if (color[w - 1] == color[u - 1]) {
          return std::nullopt;
        }
      }
    }
  }
  return color;
}

bool is_bipartite(const Graph& g) { return bipartition(g).has_value(); }

bool is_even_odd_bipartite(const Graph& g) {
  return std::all_of(g.edges().begin(), g.edges().end(), [](const Edge& e) {
    return (e.u % 2) != (e.v % 2);
  });
}

Degeneracy degeneracy_order(const Graph& g) {
  const std::size_t n = g.node_count();
  Degeneracy result;
  result.order.reserve(n);
  if (n == 0) return result;

  // Bucket queue keyed by current degree.
  std::vector<std::size_t> deg(n);
  std::size_t max_deg = 0;
  for (NodeId v = 1; v <= n; ++v) {
    deg[v - 1] = g.degree(v);
    max_deg = std::max(max_deg, deg[v - 1]);
  }
  std::vector<std::vector<NodeId>> bucket(max_deg + 1);
  for (NodeId v = 1; v <= n; ++v) bucket[deg[v - 1]].push_back(v);
  std::vector<bool> removed(n, false);

  std::size_t cursor = 0;  // lowest possibly non-empty bucket
  for (std::size_t step = 0; step < n; ++step) {
    while (cursor > 0 && !bucket[cursor - 1].empty()) --cursor;  // lazy decrease
    while (bucket[cursor].empty() ||
           removed[bucket[cursor].back() - 1] ||
           deg[bucket[cursor].back() - 1] != cursor) {
      if (bucket[cursor].empty()) {
        ++cursor;
      } else {
        bucket[cursor].pop_back();  // stale entry
      }
    }
    const NodeId v = bucket[cursor].back();
    bucket[cursor].pop_back();
    removed[v - 1] = true;
    result.order.push_back(v);
    result.k = std::max<int>(result.k, static_cast<int>(cursor));
    for (NodeId w : g.neighbors(v)) {
      if (!removed[w - 1]) {
        --deg[w - 1];
        bucket[deg[w - 1]].push_back(w);
        if (deg[w - 1] < cursor) cursor = deg[w - 1];
      }
    }
  }
  return result;
}

bool is_k_degenerate(const Graph& g, int k) {
  return degeneracy_order(g).k <= k;
}

std::optional<std::array<NodeId, 3>> find_triangle(const Graph& g) {
  // For each edge (u,v), intersect sorted neighbor lists.
  for (const Edge& e : g.edges()) {
    const auto nu = g.neighbors(e.u);
    const auto nv = g.neighbors(e.v);
    std::size_t i = 0, j = 0;
    while (i < nu.size() && j < nv.size()) {
      if (nu[i] == nv[j]) {
        std::array<NodeId, 3> t{e.u, e.v, nu[i]};
        std::sort(t.begin(), t.end());
        return t;
      }
      if (nu[i] < nv[j]) {
        ++i;
      } else {
        ++j;
      }
    }
  }
  return std::nullopt;
}

bool has_triangle(const Graph& g) { return find_triangle(g).has_value(); }

std::uint64_t count_triangles(const Graph& g) {
  std::uint64_t count = 0;
  for (const Edge& e : g.edges()) {
    const auto nu = g.neighbors(e.u);
    const auto nv = g.neighbors(e.v);
    std::size_t i = 0, j = 0;
    while (i < nu.size() && j < nv.size()) {
      if (nu[i] == nv[j]) {
        if (nu[i] > e.v) ++count;  // count each triangle once (u < v < w)
        ++i;
        ++j;
      } else if (nu[i] < nv[j]) {
        ++i;
      } else {
        ++j;
      }
    }
  }
  return count;
}

bool has_square(const Graph& g) {
  // Two nodes with >= 2 common neighbors form a C4 (possibly with chords).
  const std::size_t n = g.node_count();
  for (NodeId u = 1; u <= n; ++u) {
    for (NodeId v = u + 1; v <= n; ++v) {
      const auto nu = g.neighbors(u);
      const auto nv = g.neighbors(v);
      std::size_t i = 0, j = 0, common = 0;
      while (i < nu.size() && j < nv.size()) {
        if (nu[i] == nv[j]) {
          ++common;
          if (common >= 2) return true;
          ++i;
          ++j;
        } else if (nu[i] < nv[j]) {
          ++i;
        } else {
          ++j;
        }
      }
    }
  }
  return false;
}

int diameter(const Graph& g) {
  const std::size_t n = g.node_count();
  int diam = 0;
  for (NodeId v = 1; v <= n; ++v) {
    const BfsResult r = bfs_from(g, v);
    for (int d : r.dist) {
      if (d == -1) return -1;
      diam = std::max(diam, d);
    }
  }
  return diam;
}

bool is_independent_set(const Graph& g, const std::vector<NodeId>& s) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    for (std::size_t j = i + 1; j < s.size(); ++j) {
      if (s[i] == s[j] || g.has_edge(s[i], s[j])) return false;
    }
  }
  return true;
}

bool is_maximal_independent_set(const Graph& g, const std::vector<NodeId>& s) {
  if (!is_independent_set(g, s)) return false;
  std::vector<bool> in_s(g.node_count() + 1, false);
  for (NodeId v : s) in_s[v] = true;
  for (NodeId v = 1; v <= g.node_count(); ++v) {
    if (in_s[v]) continue;
    bool dominated = false;
    for (NodeId w : g.neighbors(v)) {
      if (in_s[w]) {
        dominated = true;
        break;
      }
    }
    if (!dominated) return false;  // v could be added: not maximal
  }
  return true;
}

bool is_rooted_mis(const Graph& g, const std::vector<NodeId>& s, NodeId root) {
  return std::find(s.begin(), s.end(), root) != s.end() &&
         is_maximal_independent_set(g, s);
}

bool is_regular(const Graph& g, std::size_t d) {
  for (NodeId v = 1; v <= g.node_count(); ++v) {
    if (g.degree(v) != d) return false;
  }
  return true;
}

bool is_two_cliques(const Graph& g) {
  const std::size_t n2 = g.node_count();
  if (n2 == 0 || n2 % 2 != 0) return false;
  const std::size_t n = n2 / 2;
  const Components c = connected_components(g);
  if (c.count != 2) return false;
  std::size_t size[2] = {0, 0};
  for (std::size_t idx : c.component) ++size[idx];
  if (size[0] != n || size[1] != n) return false;
  // Each component must be complete: every node has degree n-1 within it.
  return is_regular(g, n - 1);
}

}  // namespace wb
