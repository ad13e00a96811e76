#include "src/protocols/build_degenerate.h"

#include <memory>
#include <vector>

#include "src/protocols/codec.h"
#include "src/support/powersum.h"

namespace wb {

BuildDegenerateProtocol::BuildDegenerateProtocol(int k,
                                                 DegenerateDecoder decoder)
    : k_(k), decoder_(decoder) {
  WB_REQUIRE_MSG(k >= 1 && k <= 5, "build-degenerate K must be in 1..5");
}

std::string BuildDegenerateProtocol::name() const {
  return "build-degenerate-k" + std::to_string(k_) +
         (decoder_ == DegenerateDecoder::kNewton ? "" : "-table");
}

std::size_t BuildDegenerateProtocol::message_bit_limit(std::size_t n) const {
  std::size_t bits = static_cast<std::size_t>(codec::id_bits(n)) +
                     static_cast<std::size_t>(codec::count_bits(n));
  for (int p = 1; p <= k_; ++p) {
    bits += static_cast<std::size_t>(codec::power_sum_bits(n, p));
  }
  return bits;
}

Bits BuildDegenerateProtocol::compose_initial(const LocalView& view,
                                              BitWriter& w) const {
  const std::size_t n = view.n();
  codec::write_id(w, view.id(), n);
  codec::write_count(w, view.degree(), n);
  std::vector<std::uint32_t> ids(view.neighbors().begin(),
                                 view.neighbors().end());
  const std::vector<i128> p = power_sums(ids, k_);
  for (int j = 1; j <= k_; ++j) {
    codec::write_power_sum(w, p[static_cast<std::size_t>(j - 1)], n, j);
  }
  return w.take();
}

BuildOutput BuildDegenerateProtocol::output(const Whiteboard& board,
                                            std::size_t n) const {
  WB_REQUIRE_MSG(board.message_count() == n,
                 "expected " << n << " messages, got " << board.message_count());
  std::vector<std::size_t> deg(n + 1, 0);
  std::vector<std::vector<i128>> psum(n + 1);
  std::vector<bool> seen(n + 1, false);
  for (const Bits& m : board.messages()) {
    BitReader r(m);
    const NodeId id = codec::read_id(r, n);
    WB_REQUIRE_MSG(!seen[id], "node " << id << " wrote twice");
    seen[id] = true;
    deg[id] = codec::read_count(r, n);
    psum[id].resize(static_cast<std::size_t>(k_));
    for (int j = 1; j <= k_; ++j) {
      psum[id][static_cast<std::size_t>(j - 1)] = codec::read_power_sum(r, n, j);
    }
    WB_REQUIRE_MSG(r.exhausted(), "trailing bits in message of node " << id);
  }

  // Lemma 2 table decoder is built once per output evaluation; the Newton
  // decoder needs no preprocessing.
  std::unique_ptr<SubsetTable> table;
  if (decoder_ == DegenerateDecoder::kTable) {
    WB_REQUIRE_MSG(n <= 64 || k_ <= 2,
                   "lookup-table decoder is limited to small n^k");
    table = std::make_unique<SubsetTable>(static_cast<std::uint32_t>(n), k_);
  }
  auto decode = [&](std::span<const i128> p,
                    int d) -> std::optional<std::vector<std::uint32_t>> {
    if (table != nullptr) return table->lookup(p, d);
    return decode_subset(p, d, static_cast<std::uint32_t>(n));
  };

  // Algorithm 1: iterated pruning of residual-degree ≤ k nodes.
  GraphBuilder builder(n);
  std::vector<bool> alive(n + 1, true);
  std::vector<NodeId> ready;
  for (NodeId v = 1; v <= n; ++v) {
    if (deg[v] <= static_cast<std::size_t>(k_)) ready.push_back(v);
  }
  std::size_t pruned = 0;
  while (!ready.empty()) {
    const NodeId v = ready.back();
    ready.pop_back();
    if (!alive[v] || deg[v] > static_cast<std::size_t>(k_)) continue;
    alive[v] = false;
    ++pruned;
    const auto neighborhood = decode(psum[v], static_cast<int>(deg[v]));
    WB_REQUIRE_MSG(neighborhood.has_value(),
                   "power sums of node " << v << " decode to no ≤k-subset");
    for (std::uint32_t wid : *neighborhood) {
      const NodeId u = static_cast<NodeId>(wid);
      WB_REQUIRE_MSG(u != v && alive[u] && deg[u] >= 1,
                     "node " << v << " decodes dead/invalid neighbor " << u);
      builder.add_edge(v, u);
      --deg[u];
      power_sums_subtract(psum[u], v);
      if (deg[u] <= static_cast<std::size_t>(k_)) ready.push_back(u);
    }
  }
  if (pruned != n) return std::nullopt;  // stranded core: degeneracy > k
  return builder.build();
}

}  // namespace wb
