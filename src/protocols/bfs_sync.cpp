#include "src/protocols/bfs_sync.h"

#include <algorithm>
#include <vector>

#include "src/protocols/codec.h"

namespace wb {

namespace {

struct Entry {
  NodeId id = kNoNode;
  int layer = -1;
  NodeId parent = kNoNode;
  std::size_t dminus = 0;
  std::size_t d0 = 0;
  std::size_t dplus = 0;
};

struct ParsedBoard {
  std::vector<Entry> entries;
  std::vector<int> layer_of;              // by id; -1 unwritten
  std::vector<bool> written;              // by id
  std::vector<std::uint64_t> sum_dminus;  // by layer
  std::vector<std::uint64_t> sum_d0;      // by layer
  std::vector<std::uint64_t> sum_dplus;   // by layer
};

Entry parse_message(const Bits& m, std::size_t n) {
  BitReader r(m);
  Entry e;
  e.id = codec::read_id(r, n);
  e.layer = static_cast<int>(codec::read_count(r, n));
  e.parent = codec::read_parent(r, n);
  e.dminus = codec::read_count(r, n);
  e.d0 = codec::read_count(r, n);
  e.dplus = codec::read_count(r, n);
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
        p.sum_d0.assign(n + 2, 0);
        p.sum_dplus.assign(n + 2, 0);
        return p;
      },
      [n](ParsedBoard& p, const Bits& m) {
        Entry e = parse_message(m, n);
        WB_REQUIRE_MSG(!p.written[e.id], "node " << e.id << " wrote twice");
        WB_REQUIRE_MSG(e.layer >= 0 && static_cast<std::size_t>(e.layer) < n,
                       "layer out of range");
        p.written[e.id] = true;
        p.layer_of[e.id] = e.layer;
        const auto l = static_cast<std::size_t>(e.layer);
        p.sum_dminus[l] += e.dminus;
        p.sum_d0[l] += e.d0;
        p.sum_dplus[l] += e.dplus;
        p.entries.push_back(std::move(e));
      });
}

/// Edges promised from layer ℓ to layer ℓ+1: Σ d+1 − 2·Σ d0 over L_ℓ.
std::uint64_t promised_forward(const ParsedBoard& p, std::size_t layer) {
  const std::uint64_t raw = p.sum_dplus[layer];
  const std::uint64_t twice_d0 = 2 * p.sum_d0[layer];
  WB_REQUIRE_MSG(raw >= twice_d0, "inconsistent d0/d+1 sums at layer " << layer);
  return raw - twice_d0;
}

bool layer_certificate(const ParsedBoard& p, std::size_t layer) {
  if (layer == 0) return true;
  return p.sum_dminus[layer] == promised_forward(p, layer - 1);
}

bool no_pending_edges(const ParsedBoard& p, std::size_t layer) {
  return promised_forward(p, layer) == p.sum_dminus[layer + 1];
}

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

std::size_t SyncBfsProtocol::message_bit_limit(std::size_t n) const {
  return static_cast<std::size_t>(codec::id_bits(n)) +
         4 * static_cast<std::size_t>(codec::count_bits(n)) +
         static_cast<std::size_t>(codec::parent_bits(n));
}

bool SyncBfsProtocol::activate(const LocalView& view,
                               const Whiteboard& board) const {
  const std::size_t n = view.n();
  const ParsedBoard& p = parsed(board, n);
  if (p.entries.empty()) return view.id() == 1;

  // Conditions (a)+(b): some neighbor wrote and its layer is complete.
  const int lstar = min_written_neighbor_layer(view, p);
  if (lstar >= 0) {
    return layer_certificate(p, static_cast<std::size_t>(lstar));
  }

  // Condition (c): component switch.
  const Entry& last = p.entries.back();
  if (view.has_neighbor(last.id)) return false;
  const auto lw = static_cast<std::size_t>(last.layer);
  return layer_certificate(p, lw) && no_pending_edges(p, lw) &&
         is_min_unwritten(view, p);
}

Bits SyncBfsProtocol::compose(const LocalView& view, const Whiteboard& board,
                              BitWriter& scratch) const {
  const std::size_t n = view.n();
  const ParsedBoard& p = parsed(board, n);

  int min_layer = -1;
  for (NodeId u : view.neighbors()) {
    const int l = p.layer_of[u];
    if (l >= 0 && (min_layer == -1 || l < min_layer)) min_layer = l;
  }
  const int layer = (min_layer == -1) ? 0 : min_layer + 1;

  NodeId parent = kNoNode;
  std::size_t dminus = 0, d0 = 0;
  for (NodeId u : view.neighbors()) {
    const int l = p.layer_of[u];
    if (l < 0) continue;
    if (l == layer - 1) {
      ++dminus;
      if (parent == kNoNode || u < parent) parent = u;
    } else if (l == layer) {
      ++d0;  // grows while v waits to be scheduled (composed at write time)
    }
  }
  const std::size_t dplus = view.degree() - dminus;

  codec::write_id(scratch, view.id(), n);
  codec::write_count(scratch, static_cast<std::size_t>(layer), n);
  codec::write_parent(scratch, parent, n);
  codec::write_count(scratch, dminus, n);
  codec::write_count(scratch, d0, n);
  codec::write_count(scratch, dplus, n);
  return scratch.take();
}

BfsProtocolOutput SyncBfsProtocol::output(const Whiteboard& board,
                                          std::size_t n) const {
  const ParsedBoard& p = parsed(board, n);
  WB_REQUIRE_MSG(p.entries.size() == n,
                 "expected " << n << " messages, got " << p.entries.size());
  BfsProtocolOutput out;
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
