#include "src/protocols/krz.h"

#include <algorithm>
#include <vector>

#include "src/graph/algorithms.h"
#include "src/protocols/codec.h"
#include "src/support/hash.h"

namespace wb {

KrzTriangleProtocol::KrzTriangleProtocol(std::uint64_t num, std::uint64_t den,
                                         std::uint64_t seed)
    : num_(num), den_(den), seed_(seed) {
  WB_CHECK_MSG(den >= 1, "sampling probability denominator must be >= 1");
  WB_CHECK_MSG(num <= den, "sampling probability must be <= 1");
}

bool KrzTriangleProtocol::edge_sampled(NodeId u, NodeId v) const {
  if (u > v) std::swap(u, v);
  Hasher128 h;
  h.update(seed_);
  h.update(u);
  h.update(v);
  return h.digest().lo % den_ < num_;
}

std::size_t KrzTriangleProtocol::message_bit_limit(std::size_t n) const {
  // id + sampled-edge count + at most n-1 endpoint ids.
  return static_cast<std::size_t>(codec::id_bits(n)) +
         static_cast<std::size_t>(codec::count_bits(n)) +
         (n - 1) * static_cast<std::size_t>(codec::id_bits(n));
}

Bits KrzTriangleProtocol::compose_initial(const LocalView& view,
                                          BitWriter& w) const {
  const std::size_t n = view.n();
  codec::write_id(w, view.id(), n);
  std::size_t sampled = 0;
  for (NodeId u : view.neighbors()) {
    if (u > view.id() && edge_sampled(view.id(), u)) ++sampled;
  }
  codec::write_count(w, sampled, n);
  for (NodeId u : view.neighbors()) {
    if (u > view.id() && edge_sampled(view.id(), u)) codec::write_id(w, u, n);
  }
  return w.take();
}

bool KrzTriangleProtocol::output(const Whiteboard& board,
                                 std::size_t n) const {
  // Robust decode: judge whatever messages made it to the board (a crashed
  // node's sampled edges are simply absent), but reject structurally invalid
  // boards — duplicate writers, non-larger endpoints, out-of-range fields —
  // with DataError.
  GraphBuilder sampled(n);
  std::vector<bool> seen(n + 1, false);
  for (const Bits& m : board.messages()) {
    BitReader r(m);
    const NodeId id = codec::read_id(r, n);
    WB_REQUIRE_MSG(!seen[id], "node " << id << " wrote twice");
    seen[id] = true;
    const std::size_t k = codec::read_count(r, n);
    for (std::size_t i = 0; i < k; ++i) {
      const NodeId u = codec::read_id(r, n);
      WB_REQUIRE_MSG(u > id, "sampled edge endpoint " << u
                                 << " is not larger than writer " << id);
      if (!sampled.has_edge(id, u)) sampled.add_edge(id, u);
    }
  }
  return has_triangle(sampled.build());
}

std::string KrzTriangleProtocol::name() const {
  return "krz-triangle[" + std::to_string(num_) + "/" + std::to_string(den_) +
         ":" + std::to_string(seed_) + "]";
}

}  // namespace wb
