#include "src/protocols/eob_bfs.h"

#include <algorithm>
#include <vector>

#include "src/protocols/codec.h"

namespace wb {

namespace {

constexpr int kKindNormal = 0;
constexpr int kKindInvalid = 1;

struct Entry {
  NodeId id = kNoNode;
  int kind = kKindNormal;
  int layer = -1;
  NodeId parent = kNoNode;
  std::size_t dminus = 0;
  std::size_t dplus = 0;
};

struct ParsedBoard {
  bool invalid_seen = false;
  std::vector<Entry> entries;              // in write order
  std::vector<int> layer_of;               // by id; -1 if unwritten/invalid
  std::vector<bool> written;               // by id (any kind)
  std::vector<std::uint64_t> sum_dminus;   // by layer
  std::vector<std::uint64_t> sum_dplus;    // by layer
};

Entry parse_message(const Bits& m, std::size_t n) {
  BitReader r(m);
  Entry e;
  e.kind = static_cast<int>(r.read_uint(1));
  e.id = codec::read_id(r, n);
  if (e.kind == kKindNormal) {
    e.layer = static_cast<int>(codec::read_count(r, n));
    e.parent = codec::read_parent(r, n);
    e.dminus = codec::read_count(r, n);
    e.dplus = codec::read_count(r, n);
  }
  WB_REQUIRE_MSG(r.exhausted(), "trailing bits in BFS message of node " << e.id);
  return e;
}

/// The board decoded once per message: extended as messages are appended.
const ParsedBoard& parsed(const Whiteboard& board, std::size_t n) {
  return board.cached_view<ParsedBoard>(
      [n] {
        ParsedBoard p;
        p.layer_of.assign(n + 1, -1);
        p.written.assign(n + 1, false);
        p.sum_dminus.assign(n + 2, 0);
        p.sum_dplus.assign(n + 2, 0);
        return p;
      },
      [n](ParsedBoard& p, const Bits& m) {
        Entry e = parse_message(m, n);
        WB_REQUIRE_MSG(!p.written[e.id], "node " << e.id << " wrote twice");
        WB_REQUIRE_MSG(
            e.kind == kKindInvalid ||
                (e.layer >= 0 && static_cast<std::size_t>(e.layer) < n),
            "layer out of range");
        p.written[e.id] = true;
        if (e.kind == kKindInvalid) {
          p.invalid_seen = true;
        } else {
          p.layer_of[e.id] = e.layer;
          p.sum_dminus[static_cast<std::size_t>(e.layer)] += e.dminus;
          p.sum_dplus[static_cast<std::size_t>(e.layer)] += e.dplus;
        }
        p.entries.push_back(std::move(e));
      });
}

/// Layer ℓ complete: all its nodes' back-edges account for every edge the
/// (complete) layer ℓ-1 promised forward.
bool layer_certificate(const ParsedBoard& p, std::size_t layer) {
  if (layer == 0) return true;  // roots have no back edges to account for
  return p.sum_dminus[layer] == p.sum_dplus[layer - 1];
}

/// No promised edge out of layer ℓ is still unconsumed (component drained).
bool no_pending_edges(const ParsedBoard& p, std::size_t layer) {
  return p.sum_dplus[layer] == p.sum_dminus[layer + 1];
}

bool has_same_parity_neighbor(const LocalView& view) {
  const auto parity = view.id() % 2;
  for (NodeId w : view.neighbors()) {
    if (w % 2 == parity) return true;
  }
  return false;
}

/// Minimum layer among written neighbors, or -1 when none.
int min_written_neighbor_layer(const LocalView& view, const ParsedBoard& p) {
  int best = -1;
  for (NodeId w : view.neighbors()) {
    const int l = p.layer_of[w];
    if (l >= 0 && (best == -1 || l < best)) best = l;
  }
  return best;
}

bool is_min_unwritten(const LocalView& view, const ParsedBoard& p) {
  for (NodeId u = 1; u < view.id(); ++u) {
    if (!p.written[u]) return false;
  }
  return !p.written[view.id()];
}

}  // namespace

std::size_t EobBfsProtocol::message_bit_limit(std::size_t n) const {
  return 1 + static_cast<std::size_t>(codec::id_bits(n)) +
         3 * static_cast<std::size_t>(codec::count_bits(n)) +
         static_cast<std::size_t>(codec::parent_bits(n));
}

bool EobBfsProtocol::activate(const LocalView& view,
                              const Whiteboard& board) const {
  if (mode_ == EobMode::kEvenOdd && has_same_parity_neighbor(view)) {
    return true;  // report the invalid input immediately
  }
  const std::size_t n = view.n();
  const ParsedBoard& p = parsed(board, n);
  if (p.invalid_seen) return true;  // echo so the system drains

  if (p.entries.empty()) return view.id() == 1;  // v_1 starts

  // Rule A: previous layer complete.
  const int lstar = min_written_neighbor_layer(view, p);
  if (lstar >= 0) {
    return layer_certificate(p, static_cast<std::size_t>(lstar));
  }

  // Rule B: component switch. Last writer must be a (necessarily
  // non-neighbor) node of a drained component, and v the min-ID unwritten.
  const Entry& last = p.entries.back();
  if (last.kind != kKindNormal) return false;
  if (view.has_neighbor(last.id)) return false;
  const auto lw = static_cast<std::size_t>(last.layer);
  return layer_certificate(p, lw) && no_pending_edges(p, lw) &&
         is_min_unwritten(view, p);
}

Bits EobBfsProtocol::compose(const LocalView& view, const Whiteboard& board,
                             BitWriter& w) const {
  const std::size_t n = view.n();
  if (mode_ == EobMode::kEvenOdd && has_same_parity_neighbor(view)) {
    w.write_uint(kKindInvalid, 1);
    codec::write_id(w, view.id(), n);
    return w.take();
  }
  const ParsedBoard& p = parsed(board, n);
  if (p.invalid_seen) {
    w.write_uint(kKindInvalid, 1);
    codec::write_id(w, view.id(), n);
    return w.take();
  }

  // N*_v: written neighbors (all in layer l(v)-1 — the graph is bipartite
  // and later layers cannot have written yet).
  std::size_t written_neighbors = 0;
  int min_layer = -1;
  NodeId parent = kNoNode;
  for (NodeId u : view.neighbors()) {
    if (p.layer_of[u] < 0) continue;
    ++written_neighbors;
    if (min_layer == -1 || p.layer_of[u] < min_layer) min_layer = p.layer_of[u];
    if (parent == kNoNode || u < parent) parent = u;
  }
  const int layer = (written_neighbors == 0) ? 0 : min_layer + 1;
  const std::size_t dminus = written_neighbors;
  const std::size_t dplus = view.degree() - written_neighbors;

  w.write_uint(kKindNormal, 1);
  codec::write_id(w, view.id(), n);
  codec::write_count(w, static_cast<std::size_t>(layer), n);
  codec::write_parent(w, parent, n);
  codec::write_count(w, dminus, n);
  codec::write_count(w, dplus, n);
  return w.take();
}

BfsProtocolOutput EobBfsProtocol::output(const Whiteboard& board,
                                         std::size_t n) const {
  const ParsedBoard& p = parsed(board, n);
  BfsProtocolOutput out;
  if (p.invalid_seen) {
    out.valid = false;
    return out;
  }
  WB_REQUIRE_MSG(p.entries.size() == n,
                 "expected " << n << " messages, got " << p.entries.size());
  out.layer.assign(n, -1);
  out.parent.assign(n, kNoNode);
  for (const Entry& e : p.entries) {
    out.layer[e.id - 1] = e.layer;
    out.parent[e.id - 1] = e.parent;
    if (e.parent == kNoNode) out.roots.push_back(e.id);
  }
  std::sort(out.roots.begin(), out.roots.end());
  return out;
}

}  // namespace wb
