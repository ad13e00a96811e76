// Executable Lemma 4: protocols of a smaller class, run through the adapters
// under a larger class's engine semantics, keep solving their problem.
#include "src/wb/adapters.h"

#include <gtest/gtest.h>

#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/protocols/build_degenerate.h"
#include "src/protocols/anon_frontier.h"
#include "src/protocols/build_forest.h"
#include "src/protocols/codec.h"
#include "src/protocols/eob_bfs.h"
#include "src/protocols/mis.h"
#include "src/wb/engine.h"
#include "src/wb/exhaustive.h"
#include "src/wb/faults.h"

namespace wb {
namespace {

TEST(Adapters, SimAsyncBuildRunsUnderSimSync) {
  const Graph g = random_forest(14, 80, 3);
  const BuildForestProtocol inner;
  const SimAsyncInSimSync<BuildOutput> wrapped(inner);
  EXPECT_EQ(wrapped.model_class(), ModelClass::kSimSync);
  for (auto& adv : standard_adversaries(g, 5)) {
    const ExecutionResult r = run_protocol(g, wrapped, *adv);
    ASSERT_TRUE(r.ok()) << adv->name();
    const BuildOutput out = wrapped.output(r.board, 14);
    ASSERT_TRUE(out.has_value()) << adv->name();
    EXPECT_EQ(*out, g) << adv->name();
  }
}

TEST(Adapters, SimAsyncBuildRebadgedToAsync) {
  const Graph g = random_k_degenerate(12, 2, 25, 7);
  const BuildDegenerateProtocol inner(2);
  const Rebadge<BuildOutput> wrapped(inner, ModelClass::kAsync);
  EXPECT_EQ(wrapped.model_class(), ModelClass::kAsync);
  const ExecutionResult r = run_protocol(g, wrapped);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*wrapped.output(r.board, 12), g);
}

TEST(Adapters, RebadgeRejectsInvalidMoves) {
  const BuildForestProtocol simasync;
  EXPECT_THROW(Rebadge<BuildOutput>(simasync, ModelClass::kSimSync),
               LogicError);
  const RootedMisProtocol simsync(1);
  EXPECT_THROW(Rebadge<MisOutput>(simsync, ModelClass::kAsync), LogicError);
}

TEST(Adapters, SimSyncMisRunsUnderAsyncInForcedOrder) {
  const Graph g = connected_gnp(10, 1, 3, 11);
  const RootedMisProtocol inner(4);
  const SimSyncInAsync<MisOutput> wrapped(inner);
  EXPECT_EQ(wrapped.model_class(), ModelClass::kAsync);
  for (auto& adv : standard_adversaries(g, 3)) {
    const ExecutionResult r = run_protocol(g, wrapped, *adv);
    ASSERT_TRUE(r.ok()) << adv->name();
    // The sequential-activation construction forces write order v_1..v_n —
    // the adversary never has more than one candidate.
    std::vector<NodeId> expect(10);
    for (NodeId v = 1; v <= 10; ++v) expect[v - 1] = v;
    EXPECT_EQ(r.write_order, expect) << adv->name();
    EXPECT_TRUE(is_rooted_mis(g, wrapped.output(r.board, 10), 4))
        << adv->name();
  }
}

TEST(Adapters, AsyncEobBfsRunsUnderSync) {
  const Graph g = connected_even_odd_bipartite(11, 1, 4, 9);
  const EobBfsProtocol inner;
  const AsyncInSync<BfsProtocolOutput> wrapped(inner);
  EXPECT_EQ(wrapped.model_class(), ModelClass::kSync);
  for (auto& adv : standard_adversaries(g, 13)) {
    const ExecutionResult r = run_protocol(g, wrapped, *adv);
    ASSERT_TRUE(r.ok()) << adv->name();
    const BfsProtocolOutput out = wrapped.output(r.board, 11);
    ASSERT_TRUE(out.valid) << adv->name();
    EXPECT_TRUE(is_valid_bfs_forest(g, out.layer, out.parent)) << adv->name();
  }
}

TEST(Adapters, AsyncInSyncMatchesNativeAsyncExhaustively) {
  // Every schedule of the wrapped protocol must still succeed and agree with
  // the reference BFS layers.
  const Graph g = connected_even_odd_bipartite(6, 1, 3, 21);
  const EobBfsProtocol inner;
  const AsyncInSync<BfsProtocolOutput> wrapped(inner);
  const BfsForest ref = bfs_forest(g);
  EXPECT_TRUE(all_executions_ok(g, wrapped, [&](const ExecutionResult& r) {
    const BfsProtocolOutput out = wrapped.output(r.board, 6);
    return out.valid && out.layer == ref.layer;
  }));
}

TEST(Adapters, FullChainReconstructsIdentically) {
  // SIMASYNC protocol pushed through the whole lattice: native, @simsync,
  // @async, and @async@sync — all four engines reconstruct the same graph.
  const Graph g = random_k_degenerate(10, 2, 30, 17);
  const BuildDegenerateProtocol native(2);
  const SimAsyncInSimSync<BuildOutput> at_simsync(native);
  const Rebadge<BuildOutput> at_async(native, ModelClass::kAsync);
  const AsyncInSync<BuildOutput> at_sync(at_async);

  const Protocol* protocols[] = {&native, &at_simsync, &at_async, &at_sync};
  const ModelClass classes[] = {ModelClass::kSimAsync, ModelClass::kSimSync,
                                ModelClass::kAsync, ModelClass::kSync};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(protocols[i]->model_class(), classes[i]);
  }
  for (const auto* typed : {static_cast<const ProtocolWithOutput<BuildOutput>*>(
                                &native),
                            static_cast<const ProtocolWithOutput<BuildOutput>*>(
                                &at_simsync),
                            static_cast<const ProtocolWithOutput<BuildOutput>*>(
                                &at_async),
                            static_cast<const ProtocolWithOutput<BuildOutput>*>(
                                &at_sync)}) {
    LastAdversary adv;
    const ExecutionResult r = run_protocol(g, *typed, adv);
    ASSERT_TRUE(r.ok()) << typed->name();
    EXPECT_EQ(*typed->output(r.board, 10), g) << typed->name();
  }
}

/// anon-degree's message from local knowledge alone: an anonymous SIMASYNC
/// protocol to wrap.
class AnonDegreeSimAsync final : public SimAsyncProtocol<std::size_t> {
 public:
  std::size_t message_bit_limit(std::size_t n) const override {
    return static_cast<std::size_t>(codec::id_bits(n));
  }
  Bits compose_initial(const LocalView& view, BitWriter& w) const override {
    w.write_uint(view.degree(), codec::id_bits(view.n()));
    return w.take();
  }
  std::size_t output(const Whiteboard& board, std::size_t) const override {
    return board.message_count();
  }
  bool anonymous() const override { return true; }
  std::string name() const override { return "anon-degree-simasync"; }
};

TEST(Adapters, AnonymityForwardsUnlessTheAdapterReadsAnId) {
  const AnonDegreeSimAsync simasync;
  const AnonDegreeProtocol simsync;
  const BuildForestProtocol signed_inner;
  EXPECT_TRUE(SimAsyncInSimSync<std::size_t>(simasync).anonymous());
  const Rebadge<std::size_t> at_async(simasync, ModelClass::kAsync);
  EXPECT_TRUE(at_async.anonymous());
  EXPECT_TRUE(AsyncInSync<std::size_t>(at_async).anonymous());
  EXPECT_TRUE(
      Rebadge<AnonDegreeOutput>(simsync, ModelClass::kSync).anonymous());
  // Sequential activation orders the writers by ID.
  EXPECT_FALSE(SimSyncInAsync<AnonDegreeOutput>(simsync).anonymous());
  EXPECT_FALSE(SimAsyncInSimSync<BuildOutput>(signed_inner).anonymous());
  // A crash set never writes, so it is fixed by the class permutations; a
  // live corruption channel salts by the writer's ID.
  EXPECT_TRUE(CrashStopAdapter(simsync, {2, 3}).anonymous());
  EXPECT_FALSE(CrashStopAdapter(signed_inner, {2}).anonymous());
  EXPECT_TRUE(CorruptingAdapter(simsync, {0, 1, 0}).anonymous());
  EXPECT_FALSE(CorruptingAdapter(simsync, {1, 4, 0}).anonymous());
}

}  // namespace
}  // namespace wb
