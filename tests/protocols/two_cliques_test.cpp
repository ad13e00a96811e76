#include "src/protocols/two_cliques.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/protocols/codec.h"
#include "src/wb/engine.h"
#include "src/wb/exhaustive.h"

namespace wb {
namespace {

/// Side assignments must be constant on each clique and split 0/1.
bool sides_are_consistent(const Graph& g, const TwoCliquesOutput& out) {
  if (!out.yes) return false;
  const Components c = connected_components(g);
  if (c.count != 2) return false;
  for (NodeId u = 1; u <= g.node_count(); ++u) {
    for (NodeId v = u + 1; v <= g.node_count(); ++v) {
      const bool same_comp = c.component[u - 1] == c.component[v - 1];
      const bool same_side = out.side[u - 1] == out.side[v - 1];
      if (same_comp != same_side) return false;
    }
  }
  return true;
}

TEST(TwoCliques, YesInstancesEverySchedule) {
  // (2n)! schedules: 2, 24, 720, 40320 — all within the explorer's budget.
  for (std::size_t n : {1u, 2u, 3u, 4u}) {
    const Graph g = two_cliques(n);
    const TwoCliquesProtocol p;
    EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
      const TwoCliquesOutput out = p.output(r.board, 2 * n);
      return out.yes && (n == 1 || sides_are_consistent(g, out));
    })) << "n=" << n;
  }
}

TEST(TwoCliques, YesInstanceN4SampledSchedules) {
  const Graph g = two_cliques(4);
  const TwoCliquesProtocol p;
  for (auto& adv : standard_adversaries(g, 31)) {
    const ExecutionResult r = run_protocol(g, p, *adv);
    ASSERT_TRUE(r.ok()) << adv->name();
    const TwoCliquesOutput out = p.output(r.board, 8);
    EXPECT_TRUE(out.yes) << adv->name();
    EXPECT_TRUE(sides_are_consistent(g, out)) << adv->name();
  }
}

TEST(TwoCliques, SwitchedNoInstancesEverySchedule) {
  // two_cliques_switched(3) is 2-regular connected on 6 nodes: a NO instance.
  const Graph g = two_cliques_switched(3);
  const TwoCliquesProtocol p;
  EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
    return !p.output(r.board, 6).yes;
  }));
}

TEST(TwoCliques, CycleC6IsANoInstanceEverySchedule) {
  // C6 is (n-1)=2-regular on 2n=6 nodes but connected: the count check (or a
  // conflict message) must reject it under *every* schedule — including the
  // all-one-side floods where no conflict is ever written.
  const Graph g = cycle_graph(6);
  const TwoCliquesProtocol p;
  EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
    return !p.output(r.board, 6).yes;
  }));
}

TEST(TwoCliques, LargerInstancesUnderBattery) {
  for (std::size_t n : {5u, 9u, 16u}) {
    const Graph yes = two_cliques(n);
    const Graph no = two_cliques_switched(n);
    const TwoCliquesProtocol p;
    for (auto& adv : standard_adversaries(yes, n)) {
      const ExecutionResult r = run_protocol(yes, p, *adv);
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(p.output(r.board, 2 * n).yes) << "n=" << n << " " << adv->name();
    }
    for (auto& adv : standard_adversaries(no, n)) {
      const ExecutionResult r = run_protocol(no, p, *adv);
      ASSERT_TRUE(r.ok());
      EXPECT_FALSE(p.output(r.board, 2 * n).yes) << "n=" << n << " " << adv->name();
    }
  }
}

/// The full-scan compose: decode every message on the board, then pick the
/// side from the neighbours' codes. The protocol's cached compose must
/// agree with it on every board, corrupted ones included.
Bits scan_compose(const LocalView& view, const Whiteboard& board) {
  const std::size_t n = view.n();
  std::uint64_t code = 0;
  if (!board.empty()) {
    bool saw0 = false, saw1 = false, saw_any_neighbor = false;
    for (const Bits& m : board.messages()) {
      BitReader r(m);
      const NodeId id = codec::read_id(r, n);
      const std::uint64_t c = r.read_uint(2);
      WB_REQUIRE_MSG(c <= 2, "bad 2-CLIQUES code " << c);
      WB_REQUIRE_MSG(r.exhausted(), "trailing bits in message of node " << id);
      if (!view.has_neighbor(id)) continue;
      saw_any_neighbor = true;
      saw0 = saw0 || c == 0;
      saw1 = saw1 || c == 1;
    }
    code = !saw_any_neighbor ? 1 : (saw0 && saw1) ? 2 : saw1 ? 1 : 0;
  }
  BitWriter w;
  codec::write_id(w, view.id(), n);
  w.write_uint(code, 2);
  return w.take();
}

/// Every node's compose on the engine's current board equals the scan.
void expect_compose_matches_scan(const EngineState& s, const Graph& g,
                                 const TwoCliquesProtocol& p) {
  for (NodeId v = 1; v <= g.node_count(); ++v) {
    const LocalView view(v, g.neighbors(v), g.node_count());
    ASSERT_TRUE(p.compose(view, s.board()) == scan_compose(view, s.board()))
        << "node " << v << " after " << s.board().message_count()
        << " messages";
  }
}

/// Depth-first over every schedule on one journaling state, checking every
/// prefix on the way down and again after each write is rewound: the view
/// rolls back with the board and never serves a rewound branch's messages.
void walk_every_prefix(EngineState& s, const Graph& g,
                       const TwoCliquesProtocol& p) {
  expect_compose_matches_scan(s, g, p);
  if (s.terminal()) return;
  const EngineState::Checkpoint pre_round = s.checkpoint();
  s.begin_round();
  if (!s.terminal()) {
    const EngineState::Checkpoint pre_write = s.checkpoint();
    for (std::size_t i = 0; i < s.candidates().size(); ++i) {
      s.write_node(s.candidates()[i]);
      walk_every_prefix(s, g, p);
      s.rewind(pre_write);
      expect_compose_matches_scan(s, g, p);
    }
  }
  s.rewind(pre_round);
}

TEST(TwoCliques, CachedComposeMatchesTheScanAtEveryPrefix) {
  const TwoCliquesProtocol p;
  for (const Graph& g :
       {two_cliques(3), cycle_graph(6), two_cliques_switched(3)}) {
    EngineState s(g, p);
    s.set_journaling(true);
    walk_every_prefix(s, g, p);
    EXPECT_EQ(s.board().message_count(), 0u);
  }
}

Bits clique_message(std::uint64_t raw_id, std::uint64_t code, std::size_t n) {
  BitWriter w;
  w.write_uint(raw_id - 1, codec::id_bits(n));
  w.write_uint(code, 2);
  return w.take();
}

TEST(TwoCliques, CachedComposeMatchesTheScanOnCorruptedBoards) {
  constexpr std::size_t n = 5;
  const TwoCliquesProtocol p;
  const std::vector<NodeId> neighbors = {2, 3};
  const LocalView view(1, neighbors, n);
  const auto same = [&](const Whiteboard& board) {
    return p.compose(view, board) == scan_compose(view, board);
  };

  Whiteboard board;
  // A conflict code from a non-neighbour leaves the node alone...
  board.append(clique_message(4, 2, n));
  EXPECT_TRUE(same(board));
  EXPECT_TRUE(p.compose(view, board) == clique_message(1, 1, n));
  // ...a neighbour's decides its side...
  board.append(clique_message(2, 0, n));
  EXPECT_TRUE(same(board));
  EXPECT_TRUE(p.compose(view, board) == clique_message(1, 0, n));
  // ...and a duplicate of that neighbour on the other side is a conflict,
  // not a last-writer-wins side 1.
  board.append(clique_message(2, 1, n));
  EXPECT_TRUE(same(board));
  EXPECT_TRUE(p.compose(view, board) == clique_message(1, 2, n));
  board.truncate(2);
  EXPECT_TRUE(same(board));

  // An out-of-range ID and trailing bits throw at every compose, however
  // many well-formed messages follow them.
  Whiteboard out_of_range = board;
  out_of_range.append(clique_message(7, 0, n));
  Whiteboard trailing = board;
  BitWriter w;
  w.write_uint(2, codec::id_bits(n));
  w.write_uint(1, 3);
  trailing.append(w.take());
  for (Whiteboard* bad : {&out_of_range, &trailing}) {
    EXPECT_THROW((void)p.compose(view, *bad), DataError);
    EXPECT_THROW((void)scan_compose(view, *bad), DataError);
    bad->append(clique_message(3, 1, n));
    EXPECT_THROW((void)p.compose(view, *bad), DataError);
    EXPECT_THROW((void)p.compose(view, *bad), DataError);
    bad->truncate(2);
    EXPECT_TRUE(same(*bad));
  }
}

TEST(TwoCliques, MessageIsLogN) {
  const TwoCliquesProtocol p;
  EXPECT_LE(p.message_bit_limit(4096), 12u + 2u);
}

}  // namespace
}  // namespace wb
