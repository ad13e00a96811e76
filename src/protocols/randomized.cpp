#include "src/protocols/randomized.h"

#include <algorithm>
#include <map>
#include <vector>

#include "src/protocols/codec.h"
#include "src/support/powersum.h"
#include "src/support/rng.h"

namespace wb {

namespace {

// Mersenne prime 2^61 - 1: multiplication fits in 128 bits, reduction is two
// shifts. Fingerprints are 61-bit field elements.
constexpr std::uint64_t kPrime = (std::uint64_t{1} << 61) - 1;
constexpr int kFingerprintBits = 61;

std::uint64_t mod_mul(std::uint64_t a, std::uint64_t b) {
  const u128 wide = static_cast<u128>(a) * b;
  const std::uint64_t lo = static_cast<std::uint64_t>(wide & kPrime);
  const std::uint64_t hi = static_cast<std::uint64_t>(wide >> 61);
  std::uint64_t s = lo + hi;          // < 2^62: fold once more, then reduce
  s = (s & kPrime) + (s >> 61);
  if (s >= kPrime) s -= kPrime;
  return s;
}

}  // namespace

RandomizedTwoCliquesProtocol::RandomizedTwoCliquesProtocol(
    std::uint64_t shared_seed) {
  Rng rng(shared_seed);
  point_ = rng.below(kPrime - 1) + 1;  // uniform in [1, p-1]
}

std::uint64_t RandomizedTwoCliquesProtocol::fingerprint(
    std::span<const NodeId> closed_neighborhood, std::uint64_t point) {
  std::uint64_t acc = 1;
  for (NodeId w : closed_neighborhood) {
    std::uint64_t term = point + w;
    if (term >= kPrime) term -= kPrime;
    acc = mod_mul(acc, term);
  }
  return acc;
}

std::size_t RandomizedTwoCliquesProtocol::message_bit_limit(
    std::size_t n) const {
  return static_cast<std::size_t>(codec::id_bits(n)) + kFingerprintBits;
}

Bits RandomizedTwoCliquesProtocol::compose_initial(const LocalView& view,
                                                   BitWriter& scratch) const {
  const std::size_t n = view.n();
  std::vector<NodeId> closed(view.neighbors().begin(),
                             view.neighbors().end());
  closed.push_back(view.id());
  std::sort(closed.begin(), closed.end());
  codec::write_id(scratch, view.id(), n);
  scratch.write_uint(fingerprint(closed, point_), kFingerprintBits);
  return scratch.take();
}

TwoCliquesOutput RandomizedTwoCliquesProtocol::output(const Whiteboard& board,
                                                      std::size_t n) const {
  WB_REQUIRE_MSG(board.message_count() == n,
                 "expected " << n << " messages, got " << board.message_count());
  TwoCliquesOutput out;
  std::map<std::uint64_t, std::vector<NodeId>> classes;
  for (const Bits& m : board.messages()) {
    BitReader r(m);
    const NodeId id = codec::read_id(r, n);
    const std::uint64_t fp = r.read_uint(kFingerprintBits);
    WB_REQUIRE_MSG(r.exhausted(), "trailing bits in message of node " << id);
    classes[fp].push_back(id);
  }
  if (n % 2 != 0 || classes.size() != 2) return out;
  const auto& first = classes.begin()->second;
  const auto& second = std::next(classes.begin())->second;
  if (first.size() != n / 2 || second.size() != n / 2) return out;
  out.yes = true;
  out.side.assign(n, 1);
  for (NodeId v : first) out.side[v - 1] = 0;
  return out;
}

}  // namespace wb
