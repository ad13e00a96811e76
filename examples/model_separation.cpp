// The hierarchy, live (§5 of the paper): the same problems run in models on
// both sides of each separation.
//
//  1. rooted MIS separates SIMASYNC from SIMSYNC (Thm 5/6): the greedy
//     SIMSYNC protocol succeeds under every schedule; a naive SIMASYNC
//     attempt (same messages, but composed before anything is on the board)
//     produces broken sets the moment the graph has an edge between two
//     would-be members.
//  2. EOB-BFS separates SIMSYNC from ASYNC (Thm 7/8): free activation is
//     what sequences the layers; forcing everyone active up front (the
//     simultaneous discipline) destroys the layer certificates.
//  3. Corollary 4's boundary: the bipartite ASYNC protocol deadlocks two
//     layers past an odd edge, while SYNC's d0 bookkeeping sails through.
#include <cstdio>

#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/protocols/bfs_sync.h"
#include "src/protocols/eob_bfs.h"
#include "src/protocols/mis.h"
#include "src/support/bits.h"
#include "src/wb/engine.h"
#include "src/wb/exhaustive.h"

namespace wb {
namespace {

/// What Thm 6 says cannot work: the greedy MIS messages composed in
/// SIMASYNC style — from the *empty* board — so nobody sees anyone's
/// decision and adjacent nodes happily both claim membership.
class NaiveSimAsyncMis final : public SimAsyncProtocol<MisOutput> {
 public:
  explicit NaiveSimAsyncMis(NodeId root) : root_(root) {}
  std::size_t message_bit_limit(std::size_t n) const override {
    return bits_for_id(n) + 1;
  }
  Bits compose_initial(const LocalView& view, BitWriter& w) const override {
    w.write_uint(view.id() - 1, bits_for_id(view.n()));
    // Without board feedback the only local rule is "enter unless adjacent
    // to the root".
    w.write_bit(view.id() == root_ || !view.has_neighbor(root_));
    return w.take();
  }
  MisOutput output(const Whiteboard& board, std::size_t n) const override {
    MisOutput out;
    for (const Bits& m : board.messages()) {
      BitReader r(m);
      const NodeId id = static_cast<NodeId>(r.read_uint(bits_for_id(n)) + 1);
      if (r.read_bit()) out.push_back(id);
    }
    return out;
  }
  std::string name() const override { return "naive-simasync-mis"; }

 private:
  NodeId root_;
};

void mis_separation() {
  std::printf("=== 1. rooted MIS: SIMASYNC vs SIMSYNC ===\n");
  const Graph g = cycle_graph(6);
  const NodeId root = 1;

  const NaiveSimAsyncMis naive(root);
  const ExecutionResult rn = run_protocol(g, naive);
  const MisOutput broken = naive.output(rn.board, 6);
  std::printf("SIMASYNC naive attempt on C6 claims {");
  for (NodeId v : broken) std::printf(" %u", v);
  std::printf(" } — independent? %s (Thm 6: no SIMASYNC[o(n)] protocol can)\n",
              is_independent_set(g, broken) ? "yes" : "NO");

  const RootedMisProtocol greedy(root);
  const bool all_ok = all_executions_ok(g, greedy, [&](const ExecutionResult& r) {
    return is_rooted_mis(g, greedy.output(r.board, 6), root);
  });
  std::printf("SIMSYNC greedy on C6: every one of the 720 schedules valid: %s\n",
              all_ok ? "yes" : "NO");
}

void eob_separation() {
  std::printf("\n=== 2. EOB-BFS: SIMSYNC vs ASYNC ===\n");
  const Graph g = connected_even_odd_bipartite(10, 1, 3, 5);
  const EobBfsProtocol p;
  const BfsForest ref = bfs_forest(g);
  bool ok = true;
  std::uint64_t schedules = 0;
  for_each_execution(g, p, [&](const ExecutionResult& r) {
    ++schedules;
    ok = ok && r.ok() && p.output(r.board, 10).layer == ref.layer;
    return ok;
  });
  std::printf("ASYNC protocol, free activation: %llu schedules, layers "
              "correct: %s\n",
              static_cast<unsigned long long>(schedules), ok ? "yes" : "NO");
  std::printf(
      "Simultaneity breaks it structurally: with every node active (and its\n"
      "message frozen) in round 1, layer values cannot depend on earlier\n"
      "writes — Thm 8 turns that into 2^{Omega(n^2)} indistinguishable\n"
      "inputs vs O(n log n) whiteboard bits.\n");
}

void cor4_boundary() {
  std::printf("\n=== 3. ASYNC vs SYNC on a non-bipartite input ===\n");
  GraphBuilder b(5);
  b.add_edge(1, 2);
  b.add_edge(1, 3);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  const Graph g = b.build();
  const EobBfsProtocol bip(EobMode::kBipartiteNoCheck);
  const SyncBfsProtocol sync_p;
  const ExecutionResult ra = run_protocol(g, bip);
  const ExecutionResult rs = run_protocol(g, sync_p);
  std::printf("triangle+tail: ASYNC bipartite protocol -> %s (%zu/5 wrote)\n",
              std::string(status_name(ra.status)).c_str(),
              ra.board.message_count());
  std::printf("               SYNC protocol           -> %s (layers %s)\n",
              std::string(status_name(rs.status)).c_str(),
              rs.ok() && sync_p.output(rs.board, 5).layer == bfs_forest(g).layer
                  ? "correct"
                  : "wrong");
}

}  // namespace
}  // namespace wb

int main() {
  wb::mis_separation();
  wb::eob_separation();
  wb::cor4_boundary();
  return 0;
}
