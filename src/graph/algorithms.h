// Reference (centralized) graph algorithms.
//
// These are the ground truth every protocol's whiteboard output is checked
// against: BFS layers/forests (Thm 7/10), connectivity and components (§6),
// bipartiteness (§5.2), degeneracy orders (§3), triangle detection (Thm 3),
// and independent-set validation (Thm 5/6).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/graph/graph.h"

namespace wb {

/// BFS from a single root. dist[v-1] = hop distance or -1 if unreachable;
/// parent[v-1] = BFS parent (kNoNode for the root / unreachable nodes).
/// Neighbors are explored in increasing ID order, which makes `parent` the
/// minimum-ID parent in the previous layer — the same tie-break the paper's
/// protocols use (p(v) = min-ID already-written neighbor).
struct BfsResult {
  std::vector<int> dist;
  std::vector<NodeId> parent;
};
[[nodiscard]] BfsResult bfs_from(const Graph& g, NodeId root);

/// BFS forest per the paper's convention (§5.2, §6): the root of each
/// connected component is the smallest ID in that component.
struct BfsForest {
  std::vector<int> layer;       // per node, 0 at roots
  std::vector<NodeId> parent;   // kNoNode at roots
  std::vector<NodeId> roots;    // in increasing ID order
};
[[nodiscard]] BfsForest bfs_forest(const Graph& g);

/// Valid BFS forest check: `parent`/`layer` agree with true hop distances
/// from the component-minimum roots and every non-root's parent is an
/// adjacent node one layer above. Any valid BFS tree is accepted (parent
/// choice within the previous layer is free).
[[nodiscard]] bool is_valid_bfs_forest(const Graph& g,
                                       const std::vector<int>& layer,
                                       const std::vector<NodeId>& parent);

/// Component index (0-based, in order of smallest member ID) per node.
struct Components {
  std::vector<std::size_t> component;
  std::size_t count = 0;
};
[[nodiscard]] Components connected_components(const Graph& g);
[[nodiscard]] bool is_connected(const Graph& g);

/// Twin classes: u and v are twins when N(u)∖{v} = N(v)∖{u} — false twins
/// (equal open neighbourhoods, so not adjacent) or true twins (equal closed
/// neighbourhoods, so adjacent). Swapping two twins is an automorphism. No
/// node has both a false and a true twin, so twinship partitions the nodes.
/// class_of[v-1] is v's class, numbered from 0 in order of each class's
/// smallest member, so the ids depend on the graph alone. O(n + m) hashing
/// plus a sort; equal hashes are confirmed on the neighbour lists
/// themselves, so a hash collision never merges two classes.
struct TwinClasses {
  std::vector<std::uint32_t> class_of;
  std::size_t count = 0;
  /// Some class holds two nodes.
  [[nodiscard]] bool has_twins() const { return count < class_of.size(); }
};
[[nodiscard]] TwinClasses twin_classes(const Graph& g);

/// Proper 2-coloring if bipartite (colors 0/1, color of each component's
/// minimum node is 0), std::nullopt otherwise.
[[nodiscard]] std::optional<std::vector<int>> bipartition(const Graph& g);
[[nodiscard]] bool is_bipartite(const Graph& g);

/// §5.2: no edge joins two nodes whose IDs have the same parity.
[[nodiscard]] bool is_even_odd_bipartite(const Graph& g);

/// Degeneracy and a witnessing elimination order (r_1,...,r_n per Def. 1):
/// each r_i has degree ≤ k among the not-yet-removed nodes. O(n + m).
struct Degeneracy {
  int k = 0;
  std::vector<NodeId> order;
};
[[nodiscard]] Degeneracy degeneracy_order(const Graph& g);
[[nodiscard]] bool is_k_degenerate(const Graph& g, int k);

/// Triangle utilities (Thm 3). find_triangle returns IDs sorted ascending.
[[nodiscard]] bool has_triangle(const Graph& g);
[[nodiscard]] std::optional<std::array<NodeId, 3>> find_triangle(const Graph& g);
[[nodiscard]] std::uint64_t count_triangles(const Graph& g);

/// C4 detection ("Does G contain a square?", §1).
[[nodiscard]] bool has_square(const Graph& g);

/// Eccentricity-based diameter; -1 when disconnected ("diameter ≤ 3", §1).
[[nodiscard]] int diameter(const Graph& g);

/// Independent-set validation for Thm 5: S independent, contains `root`, and
/// inclusion-maximal.
[[nodiscard]] bool is_independent_set(const Graph& g,
                                      const std::vector<NodeId>& s);
[[nodiscard]] bool is_maximal_independent_set(const Graph& g,
                                              const std::vector<NodeId>& s);
[[nodiscard]] bool is_rooted_mis(const Graph& g, const std::vector<NodeId>& s,
                                 NodeId root);

/// §5.1: is g the disjoint union of two complete graphs of equal size?
[[nodiscard]] bool is_two_cliques(const Graph& g);
/// Is every node of degree exactly d?
[[nodiscard]] bool is_regular(const Graph& g, std::size_t d);

}  // namespace wb
