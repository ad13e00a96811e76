#include "src/graph/io.h"

#include <gtest/gtest.h>

#include <istream>
#include <sstream>
#include <streambuf>
#include <string>

#include "src/graph/generators.h"
#include "src/support/check.h"

namespace wb {
namespace {

/// read_edge_list over an istringstream (the seekable two-pass path).
Graph parse(const std::string& text) {
  std::istringstream in(text);
  return read_edge_list(in);
}

TEST(EdgeList, RoundTrip) {
  const Graph g = erdos_renyi(12, 1, 3, 5);
  EXPECT_EQ(parse(to_edge_list(g)), g);
}

TEST(EdgeList, EmptyGraph) {
  const Graph g(4);
  EXPECT_EQ(to_edge_list(g), "4 0\n");
  EXPECT_EQ(parse("4 0\n"), g);
}

TEST(EdgeList, MalformedInputs) {
  EXPECT_THROW((void)parse(""), DataError);
  EXPECT_THROW((void)parse("3 2\n1 2\n"), DataError);  // truncated
  EXPECT_THROW((void)parse("3 1\n1 5\n"), DataError);  // range
  // The loader drops a self-loop instead of refusing the file.
  EXPECT_EQ(parse("3 1\n2 2\n"), Graph(3));
}

TEST(EdgeList, NodeCountPastTheGraphCapIsRefusedBeforeAllocating) {
  // 10^9 nodes would ask for 8 GB of CSR offsets; the header alone is
  // refused, with the cap every Graph-building parser shares.
  try {
    (void)parse("1000000000 0\n");
    FAIL() << "a header past the node cap was accepted";
  } catch (const DataError& e) {
    EXPECT_EQ(std::string(e.what()),
              "node count 1000000000 exceeds the cap of " +
                  std::to_string(kMaxGraphNodes));
  }
  EXPECT_EQ(EdgeListLimits{}.max_nodes, kMaxGraphNodes);
}

// --- Streaming loader (read_edge_list / write_edge_list) ---

/// An istream over a fixed string whose buffer does not support seeking, to
/// force read_edge_list onto its buffered single-pass fallback.
class NonSeekableBuf final : public std::streambuf {
 public:
  explicit NonSeekableBuf(std::string text) : text_(std::move(text)) {
    setg(text_.data(), text_.data(), text_.data() + text_.size());
  }
  // No seekoff/seekpos overrides: the std::streambuf defaults fail, so
  // tellg() returns -1 and the loader must not assume rewindability.

 private:
  std::string text_;
};

TEST(StreamEdgeList, SeekableRoundTripIsTwoPass) {
  const Graph g = erdos_renyi(40, 1, 4, 17);
  std::stringstream ss;
  write_edge_list(g, ss);
  EdgeListLoadStats stats;
  const Graph h = read_edge_list(ss, {}, &stats);
  EXPECT_EQ(g, h);
  EXPECT_TRUE(stats.two_pass);
  EXPECT_GT(stats.bytes_read, 0u);
  EXPECT_EQ(stats.build.pairs, g.edge_count());
  EXPECT_EQ(stats.build.self_loops_dropped, 0u);
  EXPECT_EQ(stats.build.duplicates_dropped, 0u);
}

TEST(StreamEdgeList, NonSeekableFallbackRoundTrip) {
  const Graph g = erdos_renyi(25, 1, 3, 23);
  std::stringstream ss;
  write_edge_list(g, ss);
  NonSeekableBuf buf(ss.str());
  std::istream in(&buf);
  EdgeListLoadStats stats;
  const Graph h = read_edge_list(in, {}, &stats);
  EXPECT_EQ(g, h);
  EXPECT_FALSE(stats.two_pass);
}

TEST(StreamEdgeList, WriterMatchesToEdgeList) {
  for (const Graph& g : {path_graph(6), star_graph(9), Graph(3)}) {
    std::ostringstream os;
    write_edge_list(g, os);
    EXPECT_EQ(os.str(), to_edge_list(g));
  }
}

TEST(StreamEdgeList, ToleratesMessyExternalInput) {
  // Unsorted, reversed, duplicated, both-direction, self-loop — must
  // collapse to path 1-2-3 on both the two-pass and the buffered path.
  const std::string messy = "3 6\n3 2\n1 2\n2 2\n2 1\n2 3\n1 2\n";
  const Graph want(3, {{1, 2}, {2, 3}});
  {
    std::stringstream ss(messy);
    EdgeListLoadStats stats;
    EXPECT_EQ(read_edge_list(ss, {}, &stats), want);
    EXPECT_TRUE(stats.two_pass);
    EXPECT_EQ(stats.build.self_loops_dropped, 1u);
    EXPECT_EQ(stats.build.duplicates_dropped, 3u);
    EXPECT_EQ(stats.build.pairs, 6u);  // every input pair, loops included
  }
  {
    NonSeekableBuf buf(messy);
    std::istream in(&buf);
    EdgeListLoadStats stats;
    EXPECT_EQ(read_edge_list(in, {}, &stats), want);
    EXPECT_EQ(stats.build.self_loops_dropped, 1u);
    EXPECT_EQ(stats.build.duplicates_dropped, 3u);
  }
}

TEST(StreamEdgeList, MalformedInputsAreDataErrors) {
  const auto load = [](const std::string& text) {
    std::stringstream ss(text);
    return read_edge_list(ss);
  };
  EXPECT_THROW((void)load(""), DataError);                  // missing header
  EXPECT_THROW((void)load("3"), DataError);                 // half a header
  EXPECT_THROW((void)load("3 2\n1 2\n"), DataError);        // truncated
  EXPECT_THROW((void)load("3 2\n1 2\n2"), DataError);       // odd token
  EXPECT_THROW((void)load("3 1\n0 2\n"), DataError);        // id 0
  EXPECT_THROW((void)load("3 1\n1 4\n"), DataError);        // out of range
  EXPECT_THROW((void)load("3 1\n1 x\n"), DataError);        // junk char
  EXPECT_THROW((void)load("3 1\n1 99999999999999999999\n"),
               DataError);                                  // overflow
}

TEST(StreamEdgeList, HeaderLimitsRejectHostileFiles) {
  EdgeListLimits tight;
  tight.max_nodes = 100;
  tight.max_edges = 10;
  {
    std::stringstream ss("101 0\n");
    EXPECT_THROW((void)read_edge_list(ss, tight), DataError);
  }
  {
    std::stringstream ss("5 11\n");
    EXPECT_THROW((void)read_edge_list(ss, tight), DataError);
  }
  {
    std::stringstream ss("100 0\n");
    EXPECT_EQ(read_edge_list(ss, tight), Graph(100));
  }
}

TEST(StreamEdgeList, WhitespaceIsFlexible) {
  std::stringstream ss("4   3\n\n1\t2\r\n2 3\n  3 4");
  EXPECT_EQ(read_edge_list(ss), Graph(4, {{1, 2}, {2, 3}, {3, 4}}));
}

TEST(Dot, ContainsEdgesAndHighlights) {
  const std::vector<Edge> edges = {{1, 2}};
  const Graph g(3, edges);
  const std::string dot = to_dot(g, {2});
  EXPECT_NE(dot.find("1 -- 2;"), std::string::npos);
  EXPECT_NE(dot.find("2 [style=filled"), std::string::npos);
  EXPECT_NE(dot.find("  3;"), std::string::npos);  // isolated node listed
}

}  // namespace
}  // namespace wb
