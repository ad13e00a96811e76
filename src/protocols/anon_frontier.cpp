#include "src/protocols/anon_frontier.h"

#include <algorithm>

#include "src/protocols/codec.h"

namespace wb {

std::size_t AnonDegreeProtocol::message_bit_limit(std::size_t n) const {
  // Degrees range over 0..n-1: exactly the id field width.
  return static_cast<std::size_t>(codec::id_bits(n));
}

Bits AnonDegreeProtocol::compose(const LocalView& view, const Whiteboard&,
                                 BitWriter& scratch) const {
  scratch.write_uint(view.degree(), codec::id_bits(view.n()));
  return scratch.take();
}

AnonDegreeOutput AnonDegreeProtocol::output(const Whiteboard& board,
                                            std::size_t n) const {
  AnonDegreeOutput degrees;
  degrees.reserve(board.message_count());
  for (const Bits& m : board.messages()) {
    BitReader r(m);
    const std::uint64_t d = r.read_uint(codec::id_bits(n));
    WB_REQUIRE_MSG(d < n, "degree " << d << " out of range for n=" << n);
    WB_REQUIRE_MSG(r.exhausted(), "trailing bits in anonymous degree message");
    degrees.push_back(static_cast<std::size_t>(d));
  }
  std::sort(degrees.begin(), degrees.end());
  return degrees;
}

}  // namespace wb
