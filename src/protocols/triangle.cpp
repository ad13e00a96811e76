#include "src/protocols/triangle.h"

#include <algorithm>
#include <vector>

#include "src/graph/algorithms.h"
#include "src/graph/enumerate.h"
#include "src/protocols/codec.h"
#include "src/support/powersum.h"

namespace wb {

// --- Oracle ------------------------------------------------------------------

std::size_t TriangleOracleProtocol::message_bit_limit(std::size_t n) const {
  return static_cast<std::size_t>(codec::id_bits(n)) + n;
}

Bits TriangleOracleProtocol::compose_initial(const LocalView& view,
                                             BitWriter& w) const {
  const std::size_t n = view.n();
  codec::write_id(w, view.id(), n);
  for (NodeId u = 1; u <= n; ++u) w.write_bit(view.has_neighbor(u));
  return w.take();
}

bool TriangleOracleProtocol::output(const Whiteboard& board,
                                    std::size_t n) const {
  WB_REQUIRE_MSG(board.message_count() == n,
                 "expected " << n << " messages, got " << board.message_count());
  GraphBuilder builder(n);
  std::vector<bool> seen(n + 1, false);
  for (const Bits& m : board.messages()) {
    BitReader r(m);
    const NodeId id = codec::read_id(r, n);
    WB_REQUIRE_MSG(!seen[id], "node " << id << " wrote twice");
    seen[id] = true;
    for (NodeId u = 1; u <= n; ++u) {
      if (r.read_bit() && u != id && !builder.has_edge(id, u)) {
        builder.add_edge(id, u);
      }
    }
  }
  return has_triangle(builder.build());
}

// --- Pair chase --------------------------------------------------------------

namespace {

constexpr int kKindAnnounce = 0;
constexpr int kKindCert = 1;
constexpr int kPower = 3;  // power sums p1..p3: back-degrees ≤ 3 decodable

struct ChaseMessage {
  int kind = kKindAnnounce;
  NodeId id = kNoNode;
  // certificate payload
  NodeId x = kNoNode, y = kNoNode;
  // announce payload
  std::size_t back_degree = 0;
  std::vector<i128> psums;
};

ChaseMessage parse(const Bits& m, std::size_t n) {
  BitReader r(m);
  ChaseMessage msg;
  msg.kind = static_cast<int>(r.read_uint(1));
  msg.id = codec::read_id(r, n);
  if (msg.kind == kKindCert) {
    msg.x = codec::read_id(r, n);
    msg.y = codec::read_id(r, n);
    // A corrupted certificate can name one node twice; it reveals no edges.
    WB_REQUIRE_MSG(msg.x != msg.id && msg.y != msg.id && msg.x != msg.y,
                   "certificate of node " << msg.id << " repeats an endpoint");
  } else {
    msg.back_degree = codec::read_count(r, n);
    msg.psums.resize(kPower);
    for (int p = 1; p <= kPower; ++p) {
      msg.psums[static_cast<std::size_t>(p - 1)] =
          codec::read_power_sum(r, n, p);
    }
  }
  WB_REQUIRE_MSG(r.exhausted(), "trailing bits in message of node " << msg.id);
  return msg;
}

/// Every edge revealed on the board so far: decodable announcements reveal
/// {writer, back-neighbor} edges; certificates reveal their three edges.
std::vector<Edge> revealed_edges(const Whiteboard& board, std::size_t n) {
  std::vector<Edge> edges;
  for (const Bits& m : board.messages()) {
    const ChaseMessage msg = parse(m, n);
    if (msg.kind == kKindCert) {
      edges.push_back(make_edge(msg.id, msg.x));
      edges.push_back(make_edge(msg.id, msg.y));
      edges.push_back(make_edge(msg.x, msg.y));
      continue;
    }
    if (msg.back_degree > kPower) continue;  // not decodable
    const auto subset =
        decode_subset(msg.psums, static_cast<int>(msg.back_degree),
                      static_cast<std::uint32_t>(n));
    WB_REQUIRE_MSG(subset.has_value() &&
                       std::find(subset->begin(), subset->end(), msg.id) ==
                           subset->end(),
                   "announcement of node " << msg.id << " fails to decode");
    for (std::uint32_t u : *subset) {
      edges.push_back(make_edge(msg.id, static_cast<NodeId>(u)));
    }
  }
  return edges;
}

/// IDs of nodes that have written so far.
std::vector<bool> written_ids(const Whiteboard& board, std::size_t n) {
  std::vector<bool> w(n + 1, false);
  for (const Bits& m : board.messages()) w[parse(m, n).id] = true;
  return w;
}

}  // namespace

std::size_t TrianglePairChaseProtocol::message_bit_limit(std::size_t n) const {
  std::size_t bits = 1 + static_cast<std::size_t>(codec::id_bits(n));
  // A certificate carries two more IDs; an announcement a count plus three
  // power sums. The limit is the max of both shapes.
  const std::size_t cert =
      bits + 2 * static_cast<std::size_t>(codec::id_bits(n));
  std::size_t announce = bits + static_cast<std::size_t>(codec::count_bits(n));
  for (int p = 1; p <= kPower; ++p) {
    announce += static_cast<std::size_t>(codec::power_sum_bits(n, p));
  }
  return std::max(cert, announce);
}

Bits TrianglePairChaseProtocol::compose(const LocalView& view,
                                        const Whiteboard& board,
                                        BitWriter& w) const {
  const std::size_t n = view.n();

  // Does some revealed edge close a triangle through us?
  for (const Edge& e : revealed_edges(board, n)) {
    if (view.has_neighbor(e.u) && view.has_neighbor(e.v)) {
      w.write_uint(kKindCert, 1);
      codec::write_id(w, view.id(), n);
      codec::write_id(w, e.u, n);
      codec::write_id(w, e.v, n);
      return w.take();
    }
  }

  // Otherwise announce our back-neighborhood fingerprint.
  const std::vector<bool> written = written_ids(board, n);
  std::vector<std::uint32_t> back;
  for (NodeId u : view.neighbors()) {
    if (written[u]) back.push_back(u);
  }
  const std::vector<i128> p = power_sums(back, kPower);
  w.write_uint(kKindAnnounce, 1);
  codec::write_id(w, view.id(), n);
  codec::write_count(w, back.size(), n);
  for (int j = 1; j <= kPower; ++j) {
    codec::write_power_sum(w, p[static_cast<std::size_t>(j - 1)], n, j);
  }
  return w.take();
}

TriangleVerdict TrianglePairChaseProtocol::output(const Whiteboard& board,
                                                  std::size_t n) const {
  for (const Bits& m : board.messages()) {
    if (parse(m, n).kind == kKindCert) return TriangleVerdict::kYes;
  }
  if (n > csp_limit_) return TriangleVerdict::kNo;

  // Consistent-graph analysis: replay the deterministic compose() of every
  // writer against every candidate graph; keep the graphs that reproduce the
  // recorded board exactly, and answer only if they agree about triangles.
  std::vector<NodeId> order;
  for (const Bits& m : board.messages()) order.push_back(parse(m, n).id);

  bool any_yes = false, any_no = false, any_consistent = false;
  BitWriter w;  // one scratch writer for every replayed message
  for_each_labeled_graph(n, [&](const Graph& h) {
    Whiteboard prefix;
    for (std::size_t t = 0; t < order.size(); ++t) {
      const NodeId v = order[t];
      const LocalView hview(v, h.neighbors(v), n);
      if (!(compose(hview, prefix, w) == board.message(t))) return;
      prefix.append(board.message(t));
    }
    any_consistent = true;
    (has_triangle(h) ? any_yes : any_no) = true;
  });
  WB_REQUIRE_MSG(any_consistent, "no graph is consistent with this board");
  if (any_yes && any_no) return TriangleVerdict::kUnknown;
  return any_yes ? TriangleVerdict::kYes : TriangleVerdict::kNo;
}

}  // namespace wb
