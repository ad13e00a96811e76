#include "src/wb/whiteboard.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/protocols/bfs_sync.h"
#include "src/wb/engine.h"
#include "src/wb/exhaustive.h"

namespace wb {
namespace {

Bits bits_of(std::uint64_t value, int width) {
  BitWriter w;
  w.write_uint(value, width);
  return w.take();
}

TEST(Whiteboard, AppendAndAccess) {
  Whiteboard board;
  EXPECT_TRUE(board.empty());
  board.append(bits_of(3, 4));
  board.append(bits_of(9, 8));
  EXPECT_EQ(board.message_count(), 2u);
  EXPECT_EQ(board.total_bits(), 12u);
  EXPECT_TRUE(board.message(0) == bits_of(3, 4));
  EXPECT_THROW((void)board.message(2), LogicError);
}

struct CountView {
  std::size_t messages = 0;
};
struct SumView {
  std::size_t bits = 0;
};
// A folded view: the bit lengths of the messages it has seen, in order.
struct LengthsView {
  std::vector<std::size_t> lengths;
};

/// Fold callbacks for CountView that count how often they run.
struct CountingFold {
  int starts = 0;
  int folds = 0;
  const CountView& view(const Whiteboard& board) {
    return board.cached_view<CountView>(
        [this] {
          ++starts;
          return CountView{};
        },
        [this](CountView& v, const Bits&) {
          ++folds;
          ++v.messages;
        });
  }
};

TEST(WhiteboardCache, BuildsOncePerBoardState) {
  Whiteboard board;
  board.append(bits_of(1, 2));
  CountingFold count;
  EXPECT_EQ(count.view(board).messages, 1u);
  EXPECT_EQ(count.view(board).messages, 1u);
  EXPECT_EQ(count.starts, 1);
  EXPECT_EQ(count.folds, 1);
}

TEST(WhiteboardCache, AppendInvalidates) {
  // The view of the shorter board is not served for the longer one: the
  // memo folds in the appended message (and only that one).
  Whiteboard board;
  CountingFold count;
  EXPECT_EQ(count.view(board).messages, 0u);
  board.append(bits_of(1, 2));
  EXPECT_EQ(count.view(board).messages, 1u);
  EXPECT_EQ(count.starts, 1);
  EXPECT_EQ(count.folds, 1);
}

TEST(WhiteboardCache, DistinctViewTypesDoNotMix) {
  Whiteboard board;
  board.append(bits_of(7, 8));
  const auto count = [&board] {
    return board
        .cached_view<CountView>([] { return CountView{}; },
                                [](CountView& v, const Bits&) { ++v.messages; })
        .messages;
  };
  const auto sum = [&board] {
    return board
        .cached_view<SumView>(
            [] { return SumView{}; },
            [](SumView& v, const Bits& m) { v.bits += m.size(); })
        .bits;
  };
  EXPECT_EQ(count(), 1u);
  EXPECT_EQ(sum(), 8u);
  EXPECT_EQ(count(), 1u);
}

TEST(WhiteboardCache, CopiesShareThePrefixSafely) {
  // The exhaustive explorer copies boards at branch points; a copy's append
  // must not disturb the original's cached view.
  Whiteboard original;
  original.append(bits_of(1, 4));
  CountingFold count;
  (void)count.view(original);

  Whiteboard copy = original;
  copy.append(bits_of(2, 4));
  EXPECT_EQ(count.view(copy).messages, 2u);
  EXPECT_EQ(count.view(original).messages, 1u);
  EXPECT_EQ(count.starts, 2);  // the copy built its own; the original kept its
}

TEST(WhiteboardCache, FoldedViewExtendsOnAppendAndRebuildsPastATruncate) {
  Whiteboard board;
  int starts = 0, folds = 0;
  const auto start = [&starts] {
    ++starts;
    return LengthsView{};
  };
  const auto fold = [&folds](LengthsView& v, const Bits& m) {
    ++folds;
    v.lengths.push_back(m.size());
  };
  const auto lengths = [&] {
    return board.cached_view<LengthsView>(start, fold).lengths;
  };
  board.append(bits_of(1, 2));
  board.append(bits_of(1, 3));
  EXPECT_EQ(lengths(), (std::vector<std::size_t>{2, 3}));
  board.append(bits_of(1, 4));
  EXPECT_EQ(lengths(), (std::vector<std::size_t>{2, 3, 4}));
  EXPECT_EQ(starts, 1);
  EXPECT_EQ(folds, 3);  // each message decoded once

  // Truncating to a shorter prefix than the view saw drops it: the next
  // appends may differ.
  board.truncate(1);
  board.append(bits_of(1, 7));
  EXPECT_EQ(lengths(), (std::vector<std::size_t>{2, 7}));
  EXPECT_EQ(starts, 2);

  // A shared view is never extended in place: the snapshot keeps its own.
  const Whiteboard snapshot = board;
  board.append(bits_of(1, 5));
  EXPECT_EQ(lengths(), (std::vector<std::size_t>{2, 7, 5}));
  EXPECT_EQ(snapshot.cached_view<LengthsView>(start, fold).lengths,
            (std::vector<std::size_t>{2, 7}));
}

TEST(WhiteboardCache, FoldedViewDiscardsAPartialFoldThatThrows) {
  Whiteboard board;
  board.append(bits_of(1, 2));
  const auto start = [] { return LengthsView{}; };
  const auto fold = [](LengthsView& v, const Bits& m) {
    v.lengths.push_back(m.size());
    WB_REQUIRE_MSG(m.size() < 8, "undecodable");
  };
  EXPECT_EQ(board.cached_view<LengthsView>(start, fold).lengths.size(), 1u);
  board.append(bits_of(1, 9));
  EXPECT_THROW((void)board.cached_view<LengthsView>(start, fold), DataError);
  board.truncate(1);
  EXPECT_EQ(board.cached_view<LengthsView>(start, fold).lengths,
            (std::vector<std::size_t>{2}));
}

/// LengthsView callbacks with an unfold, counting how often each runs.
struct RollbackFold {
  int starts = 0;
  int folds = 0;
  const LengthsView& view(const Whiteboard& board) {
    return board.cached_view<LengthsView>(
        [this] {
          ++starts;
          return LengthsView{};
        },
        [this](LengthsView& v, const Bits& m) {
          ++folds;
          WB_REQUIRE_MSG(m.size() < 8, "undecodable");
          v.lengths.push_back(m.size());
        },
        [](LengthsView& v, const Bits&) { v.lengths.pop_back(); });
  }
};

std::vector<std::size_t> lengths_of(const Whiteboard& board) {
  std::vector<std::size_t> out;
  for (const Bits& m : board.messages()) out.push_back(m.size());
  return out;
}

TEST(WhiteboardCache, ViewWithUnfoldRollsBackAcrossTruncates) {
  // The explorer's pattern: write, read, rewind, write something else. A
  // view with an unfold is started once and decodes each write once.
  Whiteboard board;
  RollbackFold view;
  int appended = 0;
  for (int cycle = 0; cycle < 20; ++cycle) {
    board.truncate(static_cast<std::size_t>(cycle % 3));
    for (int k = 0; k < 1 + cycle % 4; ++k) {
      board.append(bits_of(1, 1 + (cycle + k) % 7));
      ++appended;
      EXPECT_EQ(view.view(board).lengths, lengths_of(board));
    }
  }
  EXPECT_EQ(view.starts, 1);
  EXPECT_EQ(view.folds, appended);
}

TEST(WhiteboardCache, SnapshotKeepsItsLongerViewAcrossATruncate) {
  // A view a snapshot shares is dropped, never unfolded under the snapshot.
  Whiteboard board;
  RollbackFold view;
  board.append(bits_of(1, 2));
  board.append(bits_of(1, 3));
  board.append(bits_of(1, 4));
  (void)view.view(board);
  const Whiteboard snapshot = board;
  board.truncate(1);
  EXPECT_EQ(view.view(snapshot).lengths,
            (std::vector<std::size_t>{2, 3, 4}));
  EXPECT_EQ(view.starts, 1);
  board.append(bits_of(1, 5));
  EXPECT_EQ(view.view(board).lengths, (std::vector<std::size_t>{2, 5}));
  EXPECT_EQ(view.starts, 2);
  EXPECT_EQ(view.view(snapshot).lengths,
            (std::vector<std::size_t>{2, 3, 4}));
}

TEST(WhiteboardCache, FoldThatThrowsAfterARollbackIsDiscarded) {
  Whiteboard board;
  RollbackFold view;
  board.append(bits_of(1, 2));
  board.append(bits_of(1, 3));
  (void)view.view(board);
  board.truncate(1);  // rolled back, not dropped
  board.append(bits_of(1, 9));
  EXPECT_THROW((void)view.view(board), DataError);
  EXPECT_EQ(view.starts, 1);
  EXPECT_THROW((void)view.view(board), DataError);  // every read, not once
  EXPECT_EQ(view.starts, 2);
  board.truncate(1);
  EXPECT_EQ(view.view(board).lengths, (std::vector<std::size_t>{2}));
  EXPECT_EQ(view.starts, 3);
}

TEST(Whiteboard, TruncateUnwindsAppends) {
  Whiteboard board;
  board.append(bits_of(1, 4));
  board.append(bits_of(2, 8));
  board.append(bits_of(3, 16));
  ASSERT_EQ(board.total_bits(), 28u);
  board.truncate(1);
  EXPECT_EQ(board.message_count(), 1u);
  EXPECT_EQ(board.total_bits(), 4u);
  EXPECT_TRUE(board.message(0) == bits_of(1, 4));
  // Re-append after truncation: the board behaves like a fresh prefix.
  board.append(bits_of(9, 8));
  EXPECT_EQ(board.message_count(), 2u);
  EXPECT_EQ(board.total_bits(), 12u);
  EXPECT_TRUE(board.message(1) == bits_of(9, 8));
  board.truncate(0);
  EXPECT_TRUE(board.empty());
  EXPECT_EQ(board.total_bits(), 0u);
}

TEST(Whiteboard, CopyIsStructuralSharingAndCopiesDivergeSafely) {
  // The engine snapshots a board into every ExecutionResult; the snapshot
  // must stay intact while the original backtracks (truncates) and explores
  // a different branch.
  Whiteboard original;
  original.append(bits_of(1, 4));
  original.append(bits_of(2, 4));
  original.append(bits_of(3, 4));
  const Whiteboard snapshot = original;  // O(1) copy

  original.truncate(1);
  original.append(bits_of(7, 4));
  original.append(bits_of(8, 4));

  ASSERT_EQ(snapshot.message_count(), 3u);
  EXPECT_TRUE(snapshot.message(0) == bits_of(1, 4));
  EXPECT_TRUE(snapshot.message(1) == bits_of(2, 4));
  EXPECT_TRUE(snapshot.message(2) == bits_of(3, 4));
  EXPECT_EQ(snapshot.total_bits(), 12u);

  ASSERT_EQ(original.message_count(), 3u);
  EXPECT_TRUE(original.message(0) == bits_of(1, 4));
  EXPECT_TRUE(original.message(1) == bits_of(7, 4));
  EXPECT_TRUE(original.message(2) == bits_of(8, 4));
}

TEST(Whiteboard, BothForksOfACopyCanAppend) {
  Whiteboard a;
  a.append(bits_of(5, 4));
  Whiteboard b = a;
  a.append(bits_of(6, 4));
  b.append(bits_of(7, 4));
  ASSERT_EQ(a.message_count(), 2u);
  ASSERT_EQ(b.message_count(), 2u);
  EXPECT_TRUE(a.message(1) == bits_of(6, 4));
  EXPECT_TRUE(b.message(1) == bits_of(7, 4));
  EXPECT_TRUE(a.message(0) == b.message(0));
}

TEST(Whiteboard, MovedFromBoardIsEmptyAndReusable) {
  // finish() && moves the engine's board out; the moved-from board must
  // report empty (not a stale count over null storage) and accept appends.
  Whiteboard a;
  a.append(bits_of(5, 4));
  a.append(bits_of(6, 4));
  const Whiteboard b = std::move(a);
  EXPECT_TRUE(a.empty());                  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.message_count(), 0u);
  EXPECT_EQ(a.total_bits(), 0u);
  EXPECT_THROW((void)a.message(0), LogicError);
  ASSERT_EQ(b.message_count(), 2u);
  EXPECT_TRUE(b.message(1) == bits_of(6, 4));

  a.append(bits_of(9, 8));
  EXPECT_EQ(a.message_count(), 1u);
  EXPECT_EQ(a.total_bits(), 8u);

  Whiteboard c;
  c = std::move(a);  // move-assignment path
  EXPECT_TRUE(a.empty());                  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.message_count(), 1u);
  EXPECT_TRUE(c.message(0) == bits_of(9, 8));
}

TEST(Whiteboard, ContentHashMatchesContentEquality) {
  Whiteboard a, b;
  a.append(bits_of(3, 4));
  a.append(bits_of(250, 8));
  b.append(bits_of(3, 4));
  b.append(bits_of(250, 8));
  EXPECT_EQ(a.content_hash(), b.content_hash());

  // Same totals, different message boundaries: 4+8 bits vs 8+4 bits.
  Whiteboard c;
  c.append(bits_of(3, 8));
  c.append(bits_of(250 & 0xf, 4));
  EXPECT_NE(a.content_hash(), c.content_hash());

  // Same messages, different order.
  Whiteboard d;
  d.append(bits_of(250, 8));
  d.append(bits_of(3, 4));
  EXPECT_NE(a.content_hash(), d.content_hash());

  // Dirty construction tails must not leak into the hash (word-wise hashing
  // relies on masked tails).
  Whiteboard clean, dirty;
  clean.append(Bits(std::vector<std::uint64_t>{0b1011}, 4));
  dirty.append(Bits(std::vector<std::uint64_t>{0xffffffffffffff0bULL}, 4));
  EXPECT_EQ(clean.content_hash(), dirty.content_hash());

  // Empty boards hash consistently too.
  EXPECT_EQ(Whiteboard().content_hash(), Whiteboard().content_hash());
  EXPECT_NE(Whiteboard().content_hash(), a.content_hash());
}

TEST(WhiteboardCache, SurvivesTruncateBackToTheCachedPrefix) {
  // truncate() keeps a cached view of a still-live prefix: the explorer
  // rewinds to a checkpoint and must not re-parse the unchanged board.
  Whiteboard board;
  board.append(bits_of(1, 2));
  CountingFold count;
  EXPECT_EQ(count.view(board).messages, 1u);
  board.append(bits_of(2, 2));
  EXPECT_EQ(count.view(board).messages, 2u);
  board.truncate(2);  // no-op truncate keeps the count-2 view
  EXPECT_EQ(count.view(board).messages, 2u);
  EXPECT_EQ(count.starts, 1);
  EXPECT_EQ(count.folds, 2);
  board.truncate(1);
  board.append(bits_of(3, 2));  // count back to 2, but different content
  EXPECT_EQ(count.view(board).messages, 2u);
  EXPECT_EQ(count.starts, 2);  // the truncate dropped the stale count-2 view
}

TEST(WhiteboardCache, ExhaustiveExplorationStaysCorrectWithCaching) {
  // End-to-end guard: the cached parses inside SyncBfs must not leak across
  // explorer branches (every schedule still yields the reference layers).
  const Graph g = complete_bipartite(2, 3);
  const SyncBfsProtocol p;
  const BfsForest ref = bfs_forest(g);
  EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
    return p.output(r.board, 5).layer == ref.layer;
  }));
}

}  // namespace
}  // namespace wb
