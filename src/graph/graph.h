// Labeled simple undirected graphs, the input objects of every protocol.
//
// Following §2 of the paper, a graph on n nodes has unique identifiers 1..n;
// node v_i knows n, its own ID i, and the set N(i) of neighbor IDs. The Graph
// type is immutable after construction (CSR layout, sorted adjacency) so a
// protocol's LocalView can hand out std::span views safely.
//
// The representation is a single packed CSR: one offsets array (uint64, one
// entry per node) and one adjacency array (uint32 per directed arc). There is
// no secondary edge vector — edges() is a lazy adapter that walks the upper
// half of the CSR, so a graph costs 8(n+1) + 8m bytes and nothing else.
// Million-node instances come in through the bulk builders below
// (from_unsorted_edges / from_pair_stream), which symmetrize and deduplicate
// in flat buffers without any per-edge container mutation.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/support/check.h"

namespace wb {

/// Node identifier, 1-based as in the paper. 0 is reserved as "none"
/// (e.g. the parent of a BFS root).
using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0;

/// Largest node count a parser that builds a Graph accepts (the edge-list
/// loader, shard specs), checked before the (n+1)-word CSR offsets are
/// allocated. rmat:28, the largest graph the spec grammar generates, has
/// exactly this many nodes.
inline constexpr std::size_t kMaxGraphNodes = std::size_t{1} << 28;

/// Undirected edge with endpoints normalized so that u < v.
struct Edge {
  NodeId u = 0;
  NodeId v = 0;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

[[nodiscard]] constexpr Edge make_edge(NodeId a, NodeId b) {
  WB_CHECK(a != b && a != kNoNode && b != kNoNode);
  return (a < b) ? Edge{a, b} : Edge{b, a};
}

class Graph {
 public:
  /// Empty graph on n nodes.
  explicit Graph(std::size_t n);

  /// Graph from an edge list (duplicates rejected, self-loops rejected,
  /// endpoints must be in 1..n with u < v).
  Graph(std::size_t n, std::span<const Edge> edges);

  /// Braced-list convenience: Graph(4, {{1, 2}, {2, 3}}).
  Graph(std::size_t n, std::initializer_list<Edge> edges)
      : Graph(n, std::span<const Edge>(edges.begin(), edges.size())) {}

  /// Bulk path for generators and loaders: takes ownership of a possibly
  /// unsorted, possibly duplicate-carrying edge buffer, normalizes endpoints,
  /// and builds the CSR with one sort + unique over the flat buffer
  /// (O(m log m), no per-edge container mutation). Duplicates collapse
  /// silently; self-loops and out-of-range endpoints are a caller bug.
  [[nodiscard]] static Graph from_unsorted_edges(std::size_t n,
                                                 std::vector<Edge>&& edges);

  /// Receives one endpoint pair per call; order and orientation are free,
  /// duplicates and both-direction pairs collapse, self-loops are dropped.
  using PairSink = std::function<void(NodeId, NodeId)>;
  /// A replayable pair producer: invoked with a sink, emits every pair.
  /// Must emit the identical sequence on every invocation.
  using PairReplay = std::function<void(const PairSink&)>;

  struct BuildStats {
    std::size_t pairs = 0;               // pairs emitted (per pass)
    std::size_t self_loops_dropped = 0;  // per pass
    std::size_t duplicates_dropped = 0;  // duplicate undirected edges removed
    std::size_t peak_bytes = 0;          // high-water graph memory during build
  };

  /// Two-pass streaming CSR assembly: replays `emit_all` once to count
  /// degrees, once to scatter, then deduplicates per block in place. Peak
  /// memory is the pre-dedup CSR itself (offsets + one arc per surviving
  /// emitted pair direction) — no intermediate edge vector, which is what
  /// keeps Graph500-scale loads within ~1.1x of the final footprint.
  [[nodiscard]] static Graph from_pair_stream(std::size_t n,
                                              const PairReplay& emit_all,
                                              BuildStats* stats = nullptr);

  [[nodiscard]] std::size_t node_count() const noexcept { return n_; }
  [[nodiscard]] std::size_t edge_count() const noexcept { return m_; }

  [[nodiscard]] std::size_t degree(NodeId v) const {
    check_id(v);
    return static_cast<std::size_t>(offsets_[v] - offsets_[v - 1]);
  }

  /// Sorted neighbor IDs of v.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const {
    check_id(v);
    return std::span<const NodeId>(adjacency_)
        .subspan(static_cast<std::size_t>(offsets_[v - 1]),
                 static_cast<std::size_t>(offsets_[v] - offsets_[v - 1]));
  }

  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// Lazy view of all edges, sorted by (u, v) with u < v: walks the upper
  /// half of the CSR without materializing anything. Iterators yield Edge by
  /// value; the range is sized (size() == edge_count()).
  class EdgeRange {
   public:
    class iterator {
     public:
      using value_type = Edge;
      using reference = Edge;
      using pointer = void;
      using difference_type = std::ptrdiff_t;
      using iterator_category = std::input_iterator_tag;
      using iterator_concept = std::forward_iterator_tag;

      iterator() = default;
      [[nodiscard]] Edge operator*() const {
        return Edge{u_, g_->adjacency_[pos_]};
      }
      iterator& operator++() {
        ++pos_;
        settle();
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++*this;
        return old;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.pos_ == b.pos_;
      }

     private:
      friend class EdgeRange;
      iterator(const Graph* g, NodeId u, std::size_t pos)
          : g_(g), u_(u), pos_(pos) {
        settle();
      }
      /// Advance to the next adjacency slot holding the upper endpoint of an
      /// edge (w > u), crossing block boundaries as needed.
      void settle() {
        const auto n = static_cast<NodeId>(g_->n_);
        while (u_ <= n) {
          const auto end = static_cast<std::size_t>(g_->offsets_[u_]);
          while (pos_ < end && g_->adjacency_[pos_] < u_) ++pos_;
          if (pos_ < end) return;
          ++u_;  // pos_ now sits at the start of u_'s block
        }
      }
      const Graph* g_ = nullptr;
      NodeId u_ = 0;
      std::size_t pos_ = 0;
    };

    [[nodiscard]] iterator begin() const { return iterator(g_, 1, 0); }
    [[nodiscard]] iterator end() const {
      return iterator(g_, static_cast<NodeId>(g_->n_) + 1,
                      g_->adjacency_.size());
    }
    [[nodiscard]] std::size_t size() const noexcept { return g_->m_; }
    [[nodiscard]] bool empty() const noexcept { return g_->m_ == 0; }

   private:
    friend class Graph;
    explicit EdgeRange(const Graph* g) : g_(g) {}
    const Graph* g_;
  };

  [[nodiscard]] EdgeRange edges() const noexcept { return EdgeRange(this); }

  /// Materialized sorted edge list, for callers that need random access or a
  /// container (reductions, golden comparisons). O(m) allocation.
  [[nodiscard]] std::vector<Edge> edge_vector() const;

  /// Bytes held by the CSR arrays (capacity, not size — what the process
  /// actually pays). The benches assert build peaks against this.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return offsets_.capacity() * sizeof(std::uint64_t) +
           adjacency_.capacity() * sizeof(NodeId);
  }

  friend bool operator==(const Graph& a, const Graph& b) {
    // CSR is canonical (blocks sorted), so array equality is graph equality.
    return a.n_ == b.n_ && a.offsets_ == b.offsets_ &&
           a.adjacency_ == b.adjacency_;
  }

 private:
  Graph() = default;

  void check_id(NodeId v) const {
    WB_CHECK_MSG(v >= 1 && v <= n_, "node id " << v << " out of range 1.." << n_);
  }

  /// Sort each CSR block, drop duplicate arcs in place, and re-pack offsets.
  /// Returns the number of duplicate undirected edges removed.
  std::size_t dedup_blocks();

  std::size_t n_ = 0;
  std::size_t m_ = 0;
  std::vector<std::uint64_t> offsets_;  // offsets_[v] = end of v's block; [0]=0
  std::vector<NodeId> adjacency_;
};

/// Incremental edge-set builder with O(1) deduplication: edges append to a
/// flat buffer and a hash set answers membership; build() hands the buffer to
/// Graph::from_unsorted_edges for the one-shot sort.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t n) : n_(n) {}

  /// Add edge {a,b}; returns false if it was already present.
  bool add_edge(NodeId a, NodeId b);

  [[nodiscard]] bool has_edge(NodeId a, NodeId b) const;
  [[nodiscard]] std::size_t node_count() const noexcept { return n_; }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }

  [[nodiscard]] Graph build() const;

 private:
  static std::uint64_t key(Edge e) {
    return (static_cast<std::uint64_t>(e.u) << 32) | e.v;
  }

  std::size_t n_;
  std::vector<Edge> edges_;  // append order; sorted once in build()
  std::unordered_set<std::uint64_t> present_;
};

/// The graph with node labels permuted: node v of `g` becomes perm[v-1] (a
/// permutation of 1..n). Used to decouple structural families from the ID
/// assignments protocols key on.
[[nodiscard]] Graph relabel(const Graph& g, std::span<const NodeId> perm);

}  // namespace wb
