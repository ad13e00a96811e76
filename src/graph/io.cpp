#include "src/graph/io.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

namespace wb {

namespace {

/// Chunked whitespace-separated u64 tokenizer over an istream: fixed 64 KiB
/// buffer, tokens may span refills, overflow detected digit by digit.
class TokenStream {
 public:
  explicit TokenStream(std::istream& in) : in_(in) {}

  /// Next unsigned integer token. Returns false at clean EOF (only
  /// whitespace remained); throws DataError on junk or overflow.
  bool next_u64(std::uint64_t& out) {
    int c = get();
    while (c >= 0 && is_space(c)) c = get();
    if (c < 0) return false;
    WB_REQUIRE_MSG(c >= '0' && c <= '9', "unexpected character '"
                                             << static_cast<char>(c)
                                             << "' in edge list");
    std::uint64_t value = 0;
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    while (c >= '0' && c <= '9') {
      const auto d = static_cast<std::uint64_t>(c - '0');
      WB_REQUIRE_MSG(value <= (kMax - d) / 10, "integer overflow in edge list");
      value = value * 10 + d;
      c = get();
    }
    WB_REQUIRE_MSG(c < 0 || is_space(c), "unexpected character '"
                                             << static_cast<char>(c)
                                             << "' in edge list");
    out = value;
    return true;
  }

  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

 private:
  static bool is_space(int c) {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
           c == '\f';
  }
  int get() {
    if (pos_ == len_) {
      in_.read(buf_, sizeof buf_);
      len_ = static_cast<std::size_t>(in_.gcount());
      pos_ = 0;
      if (len_ == 0) return -1;
      bytes_ += len_;
    }
    return static_cast<unsigned char>(buf_[pos_++]);
  }

  std::istream& in_;
  char buf_[1 << 16];
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
  std::size_t bytes_ = 0;
};

void check_limits(std::uint64_t n, std::uint64_t m,
                  const EdgeListLimits& limits) {
  WB_REQUIRE_MSG(n <= limits.max_nodes, "node count " << n
                                                     << " exceeds the cap of "
                                                     << limits.max_nodes);
  WB_REQUIRE_MSG(m <= limits.max_edges, "edge count " << m
                                                     << " exceeds the cap of "
                                                     << limits.max_edges);
  WB_REQUIRE_MSG(n < std::numeric_limits<NodeId>::max(),
                 "node count " << n << " does not fit 32-bit node ids");
}

struct ParsedHeader {
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::size_t bytes = 0;
};

/// Parse the "n m" header and then hand each of the m validated endpoint
/// pairs to `sink`. The stream must already be positioned at the header.
template <typename Sink>
ParsedHeader parse_pairs(std::istream& in, const EdgeListLimits& limits,
                         const Sink& sink) {
  TokenStream ts(in);
  ParsedHeader h;
  WB_REQUIRE_MSG(ts.next_u64(h.n) && ts.next_u64(h.m), "missing graph header");
  check_limits(h.n, h.m, limits);
  for (std::uint64_t i = 0; i < h.m; ++i) {
    std::uint64_t u = 0, v = 0;
    WB_REQUIRE_MSG(ts.next_u64(u) && ts.next_u64(v), "truncated edge list");
    WB_REQUIRE_MSG(u >= 1 && v >= 1 && u <= h.n && v <= h.n,
                   "bad edge {" << u << "," << v << "}");
    sink(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  h.bytes = ts.bytes();
  return h;
}

}  // namespace

std::string to_edge_list(const Graph& g) {
  std::ostringstream os;
  write_edge_list(g, os);
  return os.str();
}

Graph read_edge_list(std::istream& in, const EdgeListLimits& limits,
                     EdgeListLoadStats* stats) {
  EdgeListLoadStats local;
  const std::istream::pos_type start = in.tellg();
  const bool seekable = start != std::istream::pos_type(-1) && !in.fail();

  if (seekable) {
    // Pre-parse the header alone for n (from_pair_stream needs it up front);
    // each replay pass then re-seeks and re-parses from the top.
    std::uint64_t n = 0, m = 0;
    {
      TokenStream ts(in);
      WB_REQUIRE_MSG(ts.next_u64(n) && ts.next_u64(m), "missing graph header");
      check_limits(n, m, limits);
    }
    const auto replay = [&](const Graph::PairSink& sink) {
      in.clear();
      in.seekg(start);
      WB_REQUIRE_MSG(!in.fail(), "seek failed while replaying edge list");
      local.bytes_read = parse_pairs(in, limits, sink).bytes;
    };
    Graph g = Graph::from_pair_stream(static_cast<std::size_t>(n), replay,
                                      &local.build);
    local.two_pass = true;
    if (stats != nullptr) *stats = local;
    return g;
  }

  // Non-seekable (pipe-like) input: buffer normalized pairs once.
  std::vector<Edge> edges;
  const ParsedHeader h = parse_pairs(in, limits, [&](NodeId u, NodeId v) {
    ++local.build.pairs;
    if (u == v) {
      ++local.build.self_loops_dropped;
      return;
    }
    edges.push_back(u < v ? Edge{u, v} : Edge{v, u});
  });
  local.bytes_read = h.bytes;
  const std::size_t kept = edges.size();
  const std::size_t buffer_bytes = edges.capacity() * sizeof(Edge);
  Graph g =
      Graph::from_unsorted_edges(static_cast<std::size_t>(h.n), std::move(edges));
  local.build.duplicates_dropped = kept - g.edge_count();
  local.build.peak_bytes = buffer_bytes + g.memory_bytes();
  if (stats != nullptr) *stats = local;
  return g;
}

void write_edge_list(const Graph& g, std::ostream& out) {
  // Manual chunked formatter: ostream operator<< per number is the bottleneck
  // at tens of millions of edges.
  char buf[1 << 16];
  std::size_t len = 0;
  const auto flush = [&] {
    out.write(buf, static_cast<std::streamsize>(len));
    len = 0;
  };
  const auto put_u64 = [&](std::uint64_t value, char sep) {
    if (len + 24 > sizeof buf) flush();
    const auto r = std::to_chars(buf + len, buf + sizeof buf - 1, value);
    len = static_cast<std::size_t>(r.ptr - buf);
    buf[len++] = sep;
  };
  put_u64(g.node_count(), ' ');
  put_u64(g.edge_count(), '\n');
  for (const Edge e : g.edges()) {
    put_u64(e.u, ' ');
    put_u64(e.v, '\n');
  }
  flush();
}

std::string to_dot(const Graph& g, const std::vector<NodeId>& highlight) {
  std::ostringstream os;
  os << "graph G {\n";
  for (NodeId v : highlight) {
    os << "  " << v << " [style=filled, fillcolor=lightblue];\n";
  }
  for (NodeId v = 1; v <= g.node_count(); ++v) {
    if (g.degree(v) == 0 &&
        std::find(highlight.begin(), highlight.end(), v) == highlight.end()) {
      os << "  " << v << ";\n";
    }
  }
  for (const Edge e : g.edges()) {
    os << "  " << e.u << " -- " << e.v << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace wb
