// Fault injection for the fleet controller: every failure mode of the
// asynchronous-crash model — SIGKILL mid-shard, a worker that never
// heartbeats, duplicate/stale results after a re-issue, foreign results,
// malformed frames, poisoned shards — must leave the merged report
// bit-identical to the no-fault reference (and therefore, by the PR 4/5
// shard pins, to the `exhaustive:1` serial oracle). Workers here are real
// forked processes running run_worker in-process (no exec), always with
// threads=1 so a forked child never touches the parent's thread pool.
#include "src/fleet/controller.h"

#if WB_FLEET_HAS_PROCESSES

#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/cli/runners.h"
#include "src/cli/spec.h"
#include "src/fleet/socket.h"
#include "src/fleet/worker.h"
#include "src/support/check.h"
#include "src/wb/shard.h"

namespace wb::fleet {
namespace {

using std::chrono::milliseconds;

shard::ShardResult serial_runner(const shard::ShardSpec& spec,
                                 std::size_t /*threads*/) {
  return cli::run_protocol_spec_shard(spec, 1);
}

PlanInputs make_plan(const std::string& name, const std::string& graph_spec,
                     const std::string& protocol, std::size_t shards,
                     const DistinctConfig& distinct = {}) {
  const Graph g = cli::graph_from_spec(graph_spec);
  shard::PlanOptions opts;
  opts.distinct = distinct;
  const auto specs =
      cli::plan_protocol_spec_shards(protocol, g, shards, opts);
  PlanInputs plan;
  plan.name = name;
  plan.manifest = shard::make_manifest(specs);
  for (const shard::ShardSpec& spec : specs) {
    plan.spec_documents.push_back(shard::serialize(spec));
  }
  return plan;
}

/// The no-fault reference: sweep every spec document serially in-process and
/// merge. PR 4's tests pin this against the `exhaustive:1` oracle, so
/// equality here is transitively oracle equality.
shard::MergedResult reference_merge(const PlanInputs& plan) {
  std::vector<shard::ShardResult> results;
  for (const std::string& doc : plan.spec_documents) {
    results.push_back(serial_runner(shard::parse_shard_spec(doc), 1));
  }
  return shard::merge_shard_results(results);
}

void expect_same_merge(const shard::MergedResult& got,
                       const shard::MergedResult& want) {
  EXPECT_EQ(got.shard_count, want.shard_count);
  EXPECT_EQ(got.executions, want.executions);
  EXPECT_EQ(got.engine_failures, want.engine_failures);
  EXPECT_EQ(got.wrong_outputs, want.wrong_outputs);
  EXPECT_EQ(got.distinct_boards, want.distinct_boards);
  EXPECT_EQ(got.distinct, want.distinct);
}

/// A start gate across fork(): the runner() it hands out blocks its first
/// sweep until the parent calls release(). Tests use it to pin an ordering
/// the controller leaves to the scheduler — "the other worker is admitted
/// (or dispatched) before this one finishes a shard" — without sleeping.
/// Built on a pipe: each released child consumes one byte.
class StartGate {
 public:
  StartGate() { WB_REQUIRE_MSG(::pipe(fds_) == 0, "pipe failed"); }
  ~StartGate() {
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  StartGate(const StartGate&) = delete;
  StartGate& operator=(const StartGate&) = delete;

  /// Parent side: let `children` gated children start sweeping.
  void release(std::size_t children) const {
    const std::string bytes(children, 'g');
    WB_REQUIRE_MSG(::write(fds_[1], bytes.data(), bytes.size()) ==
                       static_cast<ssize_t>(bytes.size()),
                   "gate write failed");
  }

  /// serial_runner behind the gate. The wait is bounded (30 s) so a test
  /// bug cannot hang the suite; a timed-out child just runs ungated.
  [[nodiscard]] ShardRunner runner() const {
    return [fd = fds_[0], waited = false](const shard::ShardSpec& spec,
                                          std::size_t threads) mutable {
      if (!waited) {
        waited = true;
        pollfd ready{fd, POLLIN, 0};
        char byte = 0;
        if (::poll(&ready, 1, 30000) == 1) (void)::read(fd, &byte, 1);
      }
      return serial_runner(spec, threads);
    };
  }

 private:
  int fds_[2] = {-1, -1};
};

/// Fork a child that serves frames with run_worker (in-process, no exec).
WorkerEndpoint fork_worker(const WorkerOptions& options = {},
                           const ShardRunner& runner = serial_runner) {
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  WB_REQUIRE_MSG(::pipe(to_child) == 0 && ::pipe(from_child) == 0,
                 "pipe failed");
  const pid_t pid = ::fork();
  WB_REQUIRE_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::_exit(run_worker(to_child[0], from_child[1], runner, options));
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  return WorkerEndpoint{pid, to_child[1], from_child[0]};
}

/// A hello from the calling process: call it in a forked child, so every
/// fake worker announces its own pid and identities stay distinct.
std::string hello_v2(const std::string& host, std::int64_t heartbeat_ms) {
  HelloInfo info;
  info.host = host;
  info.pid = ::getpid();
  info.threads = 1;
  info.heartbeat_ms = heartbeat_ms;
  return serialize_hello(info);
}

/// Fork a child that speaks raw frames according to `behave` (for byzantine
/// behaviors run_worker would never produce). behave(in_fd, out_fd) runs in
/// the child.
template <typename Behave>
WorkerEndpoint fork_raw(const Behave& behave) {
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  WB_REQUIRE_MSG(::pipe(to_child) == 0 && ::pipe(from_child) == 0,
                 "pipe failed");
  const pid_t pid = ::fork();
  WB_REQUIRE_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    ::close(to_child[1]);
    ::close(from_child[0]);
    ignore_sigpipe();
    behave(to_child[0], from_child[1]);
    ::_exit(0);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  return WorkerEndpoint{pid, to_child[1], from_child[0]};
}

WorkerLauncher plain_launcher(const WorkerOptions& options = {}) {
  return [options](std::size_t) { return fork_worker(options); };
}

// --- the happy path, as a baseline ------------------------------------------

TEST(FleetController, NoFaultSweepMatchesTheSerialReference) {
  const PlanInputs plan = make_plan("clean", "twocliques:3", "two-cliques", 3);
  FleetOptions options;
  options.workers = 3;
  const auto outcomes = run_fleet({plan}, options, plain_launcher());
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].completed) << outcomes[0].error;
  EXPECT_FALSE(outcomes[0].budget_exceeded);
  EXPECT_EQ(outcomes[0].reissues, 0u);
  expect_same_merge(outcomes[0].merged, reference_merge(plan));
}

TEST(FleetController, OneResidentFleetServesSeveralPlansConcurrently) {
  // Three heterogeneous plans — exact, failing-protocol, and hll — on two
  // workers in one run_fleet call; every merged report must match its own
  // serial reference (workers are plan-agnostic: the spec documents are
  // self-describing).
  const std::vector<PlanInputs> plans = {
      make_plan("clean", "twocliques:3", "two-cliques", 3),
      make_plan("failing", "path:4", "broken-first:1", 2),
      make_plan("sketched", "twocliques:3", "two-cliques", 2,
                DistinctConfig::Hll(12)),
  };
  FleetOptions options;
  options.workers = 2;
  const auto outcomes = run_fleet(plans, options, plain_launcher());
  ASSERT_EQ(outcomes.size(), 3u);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    ASSERT_TRUE(outcomes[i].completed) << outcomes[i].error;
    expect_same_merge(outcomes[i].merged, reference_merge(plans[i]));
  }
  // The failing protocol's wrong outputs must be counted, not lost.
  EXPECT_GT(outcomes[1].merged.wrong_outputs, 0u);
}

// --- crash faults ------------------------------------------------------------

class KillOneWorkerMidShard : public ::testing::TestWithParam<DistinctConfig> {
};

TEST_P(KillOneWorkerMidShard, SweepStillMatchesTheSerialReference) {
  // The ISSUE's success bar: kill -9 a worker while it provably holds a
  // shard (stall_first keeps it mid-service); the sweep must complete and
  // merge bit-identically, for the exact and the hll accumulator alike.
  const PlanInputs plan =
      make_plan("kill9", "twocliques:3", "two-cliques", 4, GetParam());
  WorkerOptions stalling;
  stalling.stall_first = milliseconds(400);
  std::vector<pid_t> pids;
  bool killed = false;
  std::string lost_reason;
  FleetObserver observer;
  observer.on_spawn = [&](std::size_t, pid_t pid) { pids.push_back(pid); };
  observer.on_dispatch = [&](std::size_t worker, const std::string&,
                             std::uint32_t, int) {
    if (!killed) {
      killed = true;
      ::kill(pids.at(worker), SIGKILL);
    }
  };
  observer.on_worker_lost = [&](std::size_t, const std::string& why) {
    lost_reason = why;
  };
  FleetOptions options;
  options.workers = 2;
  options.backoff_base = milliseconds(10);
  const auto outcomes = run_fleet(
      {plan}, options,
      [&](std::size_t) { return fork_worker(stalling); }, observer);
  ASSERT_TRUE(killed);
  EXPECT_NE(lost_reason, "");
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].completed) << outcomes[0].error;
  EXPECT_GE(outcomes[0].reissues, 1u);
  expect_same_merge(outcomes[0].merged, reference_merge(plan));
}

INSTANTIATE_TEST_SUITE_P(Accumulators, KillOneWorkerMidShard,
                         ::testing::Values(DistinctConfig::Exact(),
                                           DistinctConfig::Hll(14)));

TEST(FleetController, WorkerDeadAtDispatchGetsNoFurtherShardsThatPass) {
  // Worker 0's stdin read end is gone before the first dispatch, so the
  // dispatch write fails and the worker is lost mid-pass. With several
  // plans queued, the dispatch pass must stop offering that dead slot the
  // next plan's shard: its closed fd numbers are typically reused by the
  // respawned replacement's pipes, so a write on the stale entry would land
  // in the replacement's stdin, flip the dead entry back to busy, and later
  // double-close fds the replacement owns.
  const std::vector<PlanInputs> plans = {
      make_plan("first", "twocliques:3", "two-cliques", 2),
      make_plan("second", "path:4", "broken-first:1", 2),
  };
  std::vector<bool> lost;
  std::vector<std::string> dispatches_after_loss;
  FleetObserver observer;
  observer.on_worker_lost = [&](std::size_t worker, const std::string&) {
    if (lost.size() <= worker) lost.resize(worker + 1, false);
    lost[worker] = true;
  };
  observer.on_dispatch = [&](std::size_t worker, const std::string& plan,
                             std::uint32_t shard, int) {
    if (worker < lost.size() && lost[worker]) {
      dispatches_after_loss.push_back(plan + " shard " +
                                      std::to_string(shard) + " -> worker " +
                                      std::to_string(worker));
    }
  };
  FleetOptions options;
  options.workers = 1;
  options.backoff_base = milliseconds(10);
  std::size_t spawned = 0;
  const WorkerLauncher launcher = [&](std::size_t) {
    if (spawned++ == 0) {
      WorkerEndpoint trap = fork_raw([](int in_fd, int out_fd) {
        ::close(in_fd);
        write_frame(out_fd, Frame{FrameType::kHello, hello_v2("fake", 0)});
        std::this_thread::sleep_for(std::chrono::seconds(60));
      });
      // The hello is written only after the child closed its stdin end, so
      // consuming it here guarantees the controller's dispatch write fails
      // deterministically (EPIPE), not racily.
      FrameDecoder sync;
      (void)read_frame(trap.from_worker_fd, sync);
      return trap;
    }
    return fork_worker();
  };
  const auto outcomes = run_fleet(plans, options, launcher, observer);
  EXPECT_TRUE(dispatches_after_loss.empty())
      << "a lost worker slot was re-dispatched: "
      << dispatches_after_loss.front();
  ASSERT_EQ(outcomes.size(), 2u);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    ASSERT_TRUE(outcomes[i].completed) << outcomes[i].error;
    expect_same_merge(outcomes[i].merged, reference_merge(plans[i]));
  }
}

TEST(FleetController, NeverHeartbeatingWorkerIsSuspectedAndItsShardReissued) {
  // Worker 0 reads its spec and goes silent forever (no heartbeats, no
  // result) — indistinguishable from a dead one. The controller must
  // suspect it, re-issue the shard elsewhere, and still finish with the
  // reference totals.
  const PlanInputs plan = make_plan("silence", "twocliques:3", "two-cliques", 2);
  std::vector<std::string> requeue_reasons;
  FleetObserver observer;
  observer.on_requeue = [&](const std::string&, std::uint32_t,
                            const std::string& why) {
    requeue_reasons.push_back(why);
  };
  FleetOptions options;
  options.workers = 2;
  options.heartbeat_timeout = milliseconds(150);
  options.backoff_base = milliseconds(10);
  std::size_t spawned = 0;
  const WorkerLauncher launcher = [&](std::size_t) {
    if (spawned++ == 0) {
      // The trap: hello, swallow one spec, sleep "forever".
      return fork_raw([](int in_fd, int out_fd) {
        write_frame(out_fd, Frame{FrameType::kHello, hello_v2("fake", 0)});
        FrameDecoder decoder;
        (void)read_frame(in_fd, decoder);
        std::this_thread::sleep_for(std::chrono::seconds(60));
      });
    }
    return fork_worker();
  };
  const auto outcomes = run_fleet({plan}, options, launcher, observer);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].completed) << outcomes[0].error;
  EXPECT_GE(outcomes[0].reissues, 1u);
  ASSERT_FALSE(requeue_reasons.empty());
  EXPECT_NE(requeue_reasons[0].find("heartbeat"), std::string::npos)
      << requeue_reasons[0];
  expect_same_merge(outcomes[0].merged, reference_merge(plan));
}

TEST(FleetController, StaleDuplicateResultAfterCompletionIsDiscarded) {
  // A worker delivers its shard's result twice — the second copy models the
  // original holder of a re-issued shard answering after the re-run already
  // merged. First valid result wins; the duplicate is discarded as stale
  // and the totals cannot double-count.
  const PlanInputs plan = make_plan("stale", "twocliques:3", "two-cliques", 2);
  std::vector<std::string> discard_reasons;
  FleetObserver observer;
  observer.on_discard = [&](std::size_t, const std::string& why) {
    discard_reasons.push_back(why);
  };
  FleetOptions options;
  options.workers = 1;  // one worker serves both shards back to back
  const WorkerLauncher launcher = [](std::size_t) {
    return fork_raw([](int in_fd, int out_fd) {
      FrameDecoder decoder;
      write_frame(out_fd, Frame{FrameType::kHello, hello_v2("fake", 0)});
      while (const std::optional<Frame> frame = read_frame(in_fd, decoder)) {
        if (frame->type == FrameType::kAck) continue;
        if (frame->type != FrameType::kSpec) return;
        const shard::ShardResult result =
            serial_runner(shard::parse_shard_spec(frame->payload), 1);
        const std::string doc = shard::serialize(result);
        write_frame(out_fd, Frame{FrameType::kResult, doc});
        write_frame(out_fd, Frame{FrameType::kResult, doc});  // the stale twin
      }
    });
  };
  const auto outcomes = run_fleet({plan}, options, launcher, observer);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].completed) << outcomes[0].error;
  ASSERT_FALSE(discard_reasons.empty());
  EXPECT_NE(discard_reasons[0].find("stale"), std::string::npos)
      << discard_reasons[0];
  expect_same_merge(outcomes[0].merged, reference_merge(plan));
}

TEST(FleetController, ForeignResultIsDiscardedAndTheShardRetried) {
  // Worker 0 answers its first spec with a result from a *different* plan.
  // The plan-fingerprint guard must discard it (never merge it) and retry
  // the shard; the worker behaves afterwards, so the sweep completes.
  const PlanInputs plan = make_plan("served", "twocliques:3", "two-cliques", 2);
  const PlanInputs other = make_plan("other", "path:4", "broken-first:1", 1);
  const std::string foreign_doc = shard::serialize(
      serial_runner(shard::parse_shard_spec(other.spec_documents[0]), 1));
  std::vector<std::string> discard_reasons;
  FleetObserver observer;
  observer.on_discard = [&](std::size_t, const std::string& why) {
    discard_reasons.push_back(why);
  };
  FleetOptions options;
  options.workers = 1;
  options.backoff_base = milliseconds(10);
  const WorkerLauncher launcher = [&](std::size_t) {
    return fork_raw([&foreign_doc](int in_fd, int out_fd) {
      FrameDecoder decoder;
      write_frame(out_fd, Frame{FrameType::kHello, hello_v2("fake", 0)});
      bool lied = false;
      while (const std::optional<Frame> frame = read_frame(in_fd, decoder)) {
        if (frame->type == FrameType::kAck) continue;
        if (frame->type != FrameType::kSpec) return;
        if (!lied) {
          lied = true;
          write_frame(out_fd, Frame{FrameType::kResult, foreign_doc});
          continue;
        }
        const shard::ShardResult result =
            serial_runner(shard::parse_shard_spec(frame->payload), 1);
        write_frame(out_fd,
                    Frame{FrameType::kResult, shard::serialize(result)});
      }
    });
  };
  const auto outcomes = run_fleet({plan}, options, launcher, observer);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].completed) << outcomes[0].error;
  EXPECT_GE(outcomes[0].reissues, 1u);
  ASSERT_FALSE(discard_reasons.empty());
  EXPECT_NE(discard_reasons[0].find("foreign"), std::string::npos)
      << discard_reasons[0];
  expect_same_merge(outcomes[0].merged, reference_merge(plan));
}

TEST(FleetController, MalformedFramesKillTheWorkerAndTheFleetRecovers) {
  // A worker whose stream degenerates into garbage cannot be
  // resynchronized: the controller must kill it, respawn, and finish.
  const PlanInputs plan = make_plan("garbled", "twocliques:3", "two-cliques", 2);
  std::string lost_reason;
  FleetObserver observer;
  observer.on_worker_lost = [&](std::size_t, const std::string& why) {
    if (lost_reason.empty()) lost_reason = why;
  };
  FleetOptions options;
  options.workers = 1;
  options.backoff_base = milliseconds(10);
  std::size_t spawned = 0;
  const WorkerLauncher launcher = [&](std::size_t) {
    if (spawned++ == 0) {
      return fork_raw([](int in_fd, int out_fd) {
        write_frame(out_fd, Frame{FrameType::kHello, hello_v2("fake", 0)});
        FrameDecoder decoder;
        (void)read_frame(in_fd, decoder);  // wait for the spec
        const char garbage[] = "this is not a frame\n";
        (void)!::write(out_fd, garbage, sizeof garbage - 1);
        std::this_thread::sleep_for(std::chrono::seconds(60));
      });
    }
    return fork_worker();
  };
  const auto outcomes = run_fleet({plan}, options, launcher, observer);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].completed) << outcomes[0].error;
  EXPECT_NE(lost_reason.find("malformed"), std::string::npos) << lost_reason;
  expect_same_merge(outcomes[0].merged, reference_merge(plan));
}

// --- plan-level failures ------------------------------------------------------

TEST(FleetController, PoisonedShardFailsItsPlanButNotItsNeighbors) {
  // A spec whose protocol no worker can construct makes every attempt
  // answer with an error frame; after max_attempts the plan fails — while a
  // healthy plan served by the same fleet still completes.
  // A different graph than the healthy plan: the fingerprint is computed at
  // plan time, so tampering the protocol line below does not change it, and
  // two live plans may not share one.
  PlanInputs poisoned = make_plan("poisoned", "twocliques:4", "two-cliques", 2);
  {
    // Tamper the protocol line (opaque to the shard layer, fatal to the
    // runner), then rebuild a *consistent* manifest so the input guard
    // admits the plan and the failure happens in the workers.
    std::vector<shard::ShardSpec> specs;
    for (std::string& doc : poisoned.spec_documents) {
      shard::ShardSpec spec = shard::parse_shard_spec(doc);
      spec.protocol_spec = "no-such-protocol";
      doc = shard::serialize(spec);
      specs.push_back(std::move(spec));
    }
    poisoned.manifest = shard::make_manifest(specs);
  }
  const PlanInputs healthy = make_plan("healthy", "twocliques:3", "two-cliques", 2);
  FleetOptions options;
  options.workers = 2;
  options.max_attempts = 2;
  options.backoff_base = milliseconds(1);
  const auto outcomes =
      run_fleet({poisoned, healthy}, options, plain_launcher());
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].completed);
  EXPECT_NE(outcomes[0].error.find("attempts"), std::string::npos)
      << outcomes[0].error;
  ASSERT_TRUE(outcomes[1].completed) << outcomes[1].error;
  expect_same_merge(outcomes[1].merged, reference_merge(healthy));
}

TEST(FleetController, DuplicateFingerprintPlansAreRefusedUpFront) {
  // Results are attributed by fingerprint, so two live plans sharing one
  // would be indistinguishable on the wire; the controller refuses the
  // ambiguity before spawning anything.
  const PlanInputs a = make_plan("a", "twocliques:3", "two-cliques", 2);
  PlanInputs b = a;
  b.name = "b";
  FleetOptions options;
  options.workers = 1;
  EXPECT_THROW((void)run_fleet({a, b}, options, plain_launcher()), DataError);
}

TEST(FleetController, SwappedSpecDocumentIsRefusedUpFront) {
  // A spec document whose hash contradicts the manifest must be rejected
  // before any worker is spawned — not discovered after a sweep.
  PlanInputs plan = make_plan("swapped", "twocliques:3", "two-cliques", 2);
  std::swap(plan.spec_documents[0], plan.spec_documents[1]);
  FleetOptions options;
  options.workers = 1;
  EXPECT_THROW((void)run_fleet({plan}, options, plain_launcher()), DataError);
}

TEST(FleetController, BudgetExceededSurfacesLikeTheSerialOracle) {
  // A plan whose schedule space exceeds its budget must report
  // budget_exceeded — the flag the CLI turns into the oracle's
  // BudgetExceededError behavior — not silently truncated totals.
  const Graph g = cli::graph_from_spec("twocliques:3");
  shard::PlanOptions popts;
  popts.max_executions = 100;  // 6! = 720 schedules >> 100
  const auto specs =
      cli::plan_protocol_spec_shards("two-cliques", g, 2, popts);
  PlanInputs plan;
  plan.name = "overbudget";
  plan.manifest = shard::make_manifest(specs);
  for (const shard::ShardSpec& spec : specs) {
    plan.spec_documents.push_back(shard::serialize(spec));
  }
  FleetOptions options;
  options.workers = 2;
  const auto outcomes = run_fleet({plan}, options, plain_launcher());
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].completed) << outcomes[0].error;
  EXPECT_TRUE(outcomes[0].budget_exceeded);
}

// --- the worker loop, driven in-process --------------------------------------

TEST(FleetWorker, ServesSpecsThenShutsDownCleanly) {
  const PlanInputs plan = make_plan("direct", "twocliques:3", "two-cliques", 1);
  int to_worker[2] = {-1, -1};
  int from_worker[2] = {-1, -1};
  ASSERT_EQ(::pipe(to_worker), 0);
  ASSERT_EQ(::pipe(from_worker), 0);
  std::thread worker([&] {
    (void)run_worker(to_worker[0], from_worker[1], serial_runner);
    ::close(from_worker[1]);
  });
  write_frame(to_worker[1], Frame{FrameType::kSpec, plan.spec_documents[0]});
  write_frame(to_worker[1], Frame{FrameType::kShutdown, ""});
  FrameDecoder decoder;
  std::optional<Frame> hello = read_frame(from_worker[0], decoder);
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->type, FrameType::kHello);
  // Heartbeats may precede the result; skip them.
  std::optional<Frame> frame;
  do {
    frame = read_frame(from_worker[0], decoder);
    ASSERT_TRUE(frame.has_value());
  } while (frame->type == FrameType::kHeartbeat);
  EXPECT_EQ(frame->type, FrameType::kResult);
  const shard::ShardResult result = shard::parse_shard_result(frame->payload);
  EXPECT_EQ(result.plan, plan.manifest.plan);
  worker.join();
  ::close(to_worker[1]);
  ::close(to_worker[0]);
  ::close(from_worker[0]);
}

TEST(FleetWorker, UnsweepableSpecAnswersWithAnErrorFrameAndLivesOn) {
  int to_worker[2] = {-1, -1};
  int from_worker[2] = {-1, -1};
  ASSERT_EQ(::pipe(to_worker), 0);
  ASSERT_EQ(::pipe(from_worker), 0);
  int exit_code = -1;
  std::thread worker([&] {
    exit_code = run_worker(to_worker[0], from_worker[1], serial_runner);
    ::close(from_worker[1]);
  });
  write_frame(to_worker[1], Frame{FrameType::kSpec, "not a shard spec"});
  write_frame(to_worker[1], Frame{FrameType::kShutdown, ""});
  FrameDecoder decoder;
  std::optional<Frame> frame = read_frame(from_worker[0], decoder);  // hello
  ASSERT_TRUE(frame.has_value());
  do {
    frame = read_frame(from_worker[0], decoder);
    ASSERT_TRUE(frame.has_value());
  } while (frame->type == FrameType::kHeartbeat);
  EXPECT_EQ(frame->type, FrameType::kError);
  EXPECT_FALSE(frame->payload.empty());
  worker.join();
  EXPECT_EQ(exit_code, 0);  // one poisoned shard does not cost a worker
  ::close(to_worker[1]);
  ::close(to_worker[0]);
  ::close(from_worker[0]);
}

// --- the socket fleet: remote workers over real loopback connections --------
//
// These children are real processes dialing a real listener; every fault is
// injected on an actual TCP link (SIGKILL, shutdown(2), silence), and every
// sweep must still merge bit-identically to the serial reference.

/// Fork a child running the long-lived dial-in loop (wbsim fleet worker
/// --connect). The child closes the inherited listener fd first so a
/// dangling child can never keep the port alive past the controller.
pid_t fork_connect_worker(const SocketListener& listener,
                          const WorkerOptions& options = {},
                          const ShardRunner& runner = serial_runner) {
  const SocketAddress address = listener.bound_address();
  const int listener_fd = listener.fd();
  const pid_t pid = ::fork();
  WB_REQUIRE_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    ::close(listener_fd);
    ConnectOptions connect;
    connect.addresses = {address};
    connect.redial_base = milliseconds(50);
    connect.redial_max = milliseconds(500);
    connect.redial_limit = 40;  // bounded so a test bug cannot hang the suite
    ::_exit(run_worker_connect(connect, runner, options));
  }
  return pid;
}

/// Fork a raw TCP client: dial and run `behave(fd)` (byzantine or
/// half-broken remotes run_worker_connect would never produce).
template <typename Behave>
pid_t fork_raw_dialer(const SocketListener& listener, const Behave& behave) {
  const SocketAddress address = listener.bound_address();
  const int listener_fd = listener.fd();
  const pid_t pid = ::fork();
  WB_REQUIRE_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    ::close(listener_fd);
    ignore_sigpipe();
    behave(dial(address));
    ::_exit(0);
  }
  return pid;
}

/// Wait for `pid`; returns its exit code, or -signal when killed.
int reap(pid_t pid) {
  int status = 0;
  WB_REQUIRE_MSG(::waitpid(pid, &status, 0) == pid, "waitpid failed");
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return WIFSIGNALED(status) ? -WTERMSIG(status) : -1;
}

TEST(SocketFleet, DialInWorkersServeAnAllRemoteSweep) {
  // workers=0, no launcher: the fleet starts with nobody and *waits* — the
  // two dial-ins are its entire workforce. This is also the partition
  // half of the tolerance story: zero connected workers is not failure
  // while the listener is up.
  const PlanInputs plan = make_plan("remote", "twocliques:3", "two-cliques", 4);
  SocketListener listener(SocketAddress{"127.0.0.1", 0});
  // Neither worker sweeps until both are admitted: otherwise the first one
  // can drain the tiny plan before the second dials in.
  const StartGate gate;
  std::vector<std::string> admitted_hosts;
  bool any_reconnect = false;
  FleetObserver observer;
  observer.on_admit = [&](std::size_t, const HelloInfo& hello,
                          bool reconnected) {
    admitted_hosts.push_back(hello.host);
    any_reconnect = any_reconnect || reconnected;
    if (admitted_hosts.size() == 2) gate.release(2);
  };
  WorkerOptions alpha;
  alpha.hostname = "alpha";
  WorkerOptions beta;
  beta.hostname = "beta";
  const pid_t pid_a = fork_connect_worker(listener, alpha, gate.runner());
  const pid_t pid_b = fork_connect_worker(listener, beta, gate.runner());
  FleetOptions options;
  options.workers = 0;
  options.drain_grace = milliseconds(200);
  const auto outcomes =
      run_fleet({plan}, options, WorkerLauncher{}, observer, &listener);
  EXPECT_EQ(reap(pid_a), 0);
  EXPECT_EQ(reap(pid_b), 0);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].completed) << outcomes[0].error;
  expect_same_merge(outcomes[0].merged, reference_merge(plan));
  ASSERT_EQ(admitted_hosts.size(), 2u);
  EXPECT_NE(std::count(admitted_hosts.begin(), admitted_hosts.end(), "alpha"),
            0);
  EXPECT_NE(std::count(admitted_hosts.begin(), admitted_hosts.end(), "beta"),
            0);
  EXPECT_FALSE(any_reconnect);
}

TEST(SocketFleet, SigkillRemoteMidShardShiftsLoadToTheSurvivor) {
  const PlanInputs plan = make_plan("kill9", "twocliques:3", "two-cliques", 4);
  SocketListener listener(SocketAddress{"127.0.0.1", 0});
  WorkerOptions victim;
  victim.hostname = "victim";
  victim.stall_first = milliseconds(400);  // provably mid-shard when killed
  WorkerOptions survivor;
  survivor.hostname = "survivor";
  // The survivor sweeps nothing until the victim has a shard, or it could
  // drain the plan before the victim dials in.
  const StartGate gate;
  const pid_t victim_pid = fork_connect_worker(listener, victim);
  const pid_t survivor_pid =
      fork_connect_worker(listener, survivor, gate.runner());
  std::size_t victim_index = SIZE_MAX;
  bool killed = false;
  std::string lost_reason;
  FleetObserver observer;
  observer.on_admit = [&](std::size_t worker, const HelloInfo& hello, bool) {
    if (hello.host == "victim") victim_index = worker;
  };
  observer.on_dispatch = [&](std::size_t worker, const std::string&,
                             std::uint32_t, int) {
    if (!killed && worker == victim_index) {
      killed = true;
      ::kill(victim_pid, SIGKILL);
      gate.release(1);
    }
  };
  observer.on_worker_lost = [&](std::size_t worker, const std::string& why) {
    if (worker == victim_index) lost_reason = why;
  };
  FleetOptions options;
  options.workers = 0;
  options.backoff_base = milliseconds(10);
  options.drain_grace = milliseconds(100);
  const auto outcomes =
      run_fleet({plan}, options, WorkerLauncher{}, observer, &listener);
  EXPECT_EQ(reap(victim_pid), -SIGKILL);
  EXPECT_EQ(reap(survivor_pid), 0);
  ASSERT_TRUE(killed);
  EXPECT_NE(lost_reason, "");
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].completed) << outcomes[0].error;
  EXPECT_GE(outcomes[0].reissues, 1u);
  expect_same_merge(outcomes[0].merged, reference_merge(plan));
}

TEST(SocketFleet, RemoteLossSpendsNoRespawnBudget) {
  // Host-aware respawn policy: a mixed fleet (one local fork, one dial-in)
  // loses the remote — the controller must NOT burn a fork on it (dial-ins
  // are awaited, not forked); the local worker absorbs the load alone.
  const PlanInputs plan = make_plan("mixed", "twocliques:3", "two-cliques", 3);
  SocketListener listener(SocketAddress{"127.0.0.1", 0});
  WorkerOptions remote;
  remote.hostname = "remote";
  remote.stall_first = milliseconds(400);
  const pid_t remote_pid = fork_connect_worker(listener, remote);
  // The local worker sweeps nothing until the remote has a shard, or it
  // could drain the plan before the remote dials in.
  const StartGate gate;
  const WorkerLauncher gated_launcher = [&gate](std::size_t) {
    return fork_worker({}, gate.runner());
  };
  std::size_t remote_index = SIZE_MAX;
  std::size_t spawns = 0;
  bool killed = false;
  FleetObserver observer;
  observer.on_spawn = [&](std::size_t, pid_t) { ++spawns; };
  observer.on_admit = [&](std::size_t worker, const HelloInfo& hello, bool) {
    if (hello.host == "remote") remote_index = worker;
  };
  observer.on_dispatch = [&](std::size_t worker, const std::string&,
                             std::uint32_t, int) {
    if (!killed && worker == remote_index) {
      killed = true;
      ::kill(remote_pid, SIGKILL);
      gate.release(1);
    }
  };
  FleetOptions options;
  options.workers = 1;
  options.backoff_base = milliseconds(10);
  options.drain_grace = milliseconds(100);
  const auto outcomes =
      run_fleet({plan}, options, gated_launcher, observer, &listener);
  EXPECT_EQ(reap(remote_pid), -SIGKILL);
  ASSERT_TRUE(killed);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].completed) << outcomes[0].error;
  expect_same_merge(outcomes[0].merged, reference_merge(plan));
  EXPECT_EQ(spawns, 1u) << "a remote loss must not trigger a local respawn";
}

TEST(SocketFleet, SeveredLinkWorkerRedialsAndRedeliversWithoutAReSweep) {
  // The partition-then-reconnect pin: the link is severed while the worker
  // is mid-sweep. The worker survives, redials, is recognized by its
  // host/pid identity, and REDELIVERS the finished result — inside the
  // drain grace, so the shard is never swept twice.
  const PlanInputs plan = make_plan("sever", "twocliques:3", "two-cliques", 1);
  SocketListener listener(SocketAddress{"127.0.0.1", 0});
  WorkerOptions worker;
  worker.hostname = "flaky";
  worker.stall_first = milliseconds(300);
  worker.sever_after = milliseconds(100);  // dies mid-stall, sweep continues
  const pid_t pid = fork_connect_worker(listener, worker);
  bool reconnected_seen = false;
  std::string lost_reason;
  FleetObserver observer;
  observer.on_admit = [&](std::size_t, const HelloInfo& hello,
                          bool reconnected) {
    EXPECT_EQ(hello.host, "flaky");
    reconnected_seen = reconnected_seen || reconnected;
  };
  observer.on_worker_lost = [&](std::size_t, const std::string& why) {
    lost_reason = why;
  };
  FleetOptions options;
  options.workers = 0;
  options.drain_grace = milliseconds(3000);  // ample room for the redelivery
  const auto outcomes =
      run_fleet({plan}, options, WorkerLauncher{}, observer, &listener);
  EXPECT_EQ(reap(pid), 0);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].completed) << outcomes[0].error;
  expect_same_merge(outcomes[0].merged, reference_merge(plan));
  EXPECT_TRUE(reconnected_seen) << "the redial must be recognized, not "
                                   "admitted as a stranger";
  EXPECT_NE(lost_reason, "") << "the severed link must have been noticed";
  EXPECT_EQ(outcomes[0].reissues, 0u)
      << "the redelivery landed inside the drain grace; a re-sweep means "
         "drain semantics failed";
}

TEST(SocketFleet, HalfOpenConnectionIsSuspectedButTheLinkStaysOpen) {
  // A worker whose process lives but never speaks again (half-open link):
  // indistinguishable from a slow worker, so the controller may only
  // *suspect* it — re-issue its shard elsewhere, keep the link open. No
  // on_worker_lost, no respawn spent; the honest dial-in finishes the sweep.
  const PlanInputs plan = make_plan("halfopen", "twocliques:3", "two-cliques",
                                    2);
  SocketListener listener(SocketAddress{"127.0.0.1", 0});
  const pid_t silent_pid = fork_raw_dialer(listener, [](int fd) {
    write_frame(fd, Frame{FrameType::kHello, hello_v2("silent", 0)});
    FrameDecoder decoder;
    while (const std::optional<Frame> frame = read_frame(fd, decoder)) {
      if (frame->type == FrameType::kSpec) {
        ::usleep(60 * 1000 * 1000);  // the parent SIGKILLs us long before
      }
    }
  });
  WorkerOptions honest;
  honest.hostname = "honest";
  honest.heartbeat_interval = milliseconds(100);
  // The honest worker sweeps nothing until the silent one holds a shard, or
  // it could drain the plan before the silent one is admitted.
  const StartGate gate;
  const pid_t honest_pid =
      fork_connect_worker(listener, honest, gate.runner());
  std::size_t silent_index = SIZE_MAX;
  bool silent_dispatched = false;
  std::vector<std::string> lost;
  std::size_t requeues = 0;
  FleetObserver observer;
  observer.on_admit = [&](std::size_t worker, const HelloInfo& hello, bool) {
    if (hello.host == "silent") silent_index = worker;
  };
  observer.on_dispatch = [&](std::size_t worker, const std::string&,
                             std::uint32_t, int) {
    if (!silent_dispatched && worker == silent_index) {
      silent_dispatched = true;
      gate.release(1);
    }
  };
  observer.on_worker_lost = [&](std::size_t, const std::string& why) {
    lost.push_back(why);
  };
  observer.on_requeue = [&](const std::string&, std::uint32_t,
                            const std::string&) { ++requeues; };
  FleetOptions options;
  options.workers = 0;
  // Long enough that a loaded sanitizer build still lands both hellos inside
  // the handshake window; short enough that suspecting the silent worker
  // doesn't dominate the test.
  options.heartbeat_timeout = milliseconds(600);
  options.backoff_base = milliseconds(10);
  options.drain_grace = milliseconds(100);
  const auto outcomes =
      run_fleet({plan}, options, WorkerLauncher{}, observer, &listener);
  ::kill(silent_pid, SIGKILL);
  EXPECT_EQ(reap(silent_pid), -SIGKILL);
  EXPECT_EQ(reap(honest_pid), 0);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].completed) << outcomes[0].error;
  expect_same_merge(outcomes[0].merged, reference_merge(plan));
  EXPECT_GE(requeues, 1u) << "the silent worker's shard must be re-issued";
  EXPECT_TRUE(lost.empty())
      << "silence is not death — the link must stay open (got: " << lost[0]
      << ")";
}

TEST(SocketFleet, MisconfiguredHeartbeatIsRefusedAtHandshake) {
  // Satellite 2: a worker whose heartbeat interval cannot satisfy the
  // controller's timeout would be suspected on every sweep. It is refused
  // at the handshake — error frame, worker exits 2 (no futile redials).
  const PlanInputs plan = make_plan("hb", "twocliques:3", "two-cliques", 1);
  SocketListener listener(SocketAddress{"127.0.0.1", 0});
  WorkerOptions bad;
  bad.hostname = "lazy";
  bad.heartbeat_interval = milliseconds(5000);  // >= the controller's timeout
  const pid_t bad_pid = fork_connect_worker(listener, bad);
  WorkerOptions good;
  good.hostname = "good";
  good.heartbeat_interval = milliseconds(100);
  // The good worker sweeps nothing until the bad one was refused, or it
  // could drain the plan before the bad one dials in.
  const StartGate gate;
  const pid_t good_pid = fork_connect_worker(listener, good, gate.runner());
  std::vector<std::string> lost;
  std::vector<std::string> admitted;
  FleetObserver observer;
  observer.on_worker_lost = [&](std::size_t, const std::string& why) {
    lost.push_back(why);
    if (lost.size() == 1) gate.release(1);
  };
  observer.on_admit = [&](std::size_t, const HelloInfo& hello, bool) {
    admitted.push_back(hello.host);
  };
  FleetOptions options;
  options.workers = 0;
  // Generous: the timeout also bounds the hello handshake, and a sanitizer
  // build under load must not drop the bad worker for a *late* hello (the
  // refusal under test is the heartbeat mismatch, not handshake tardiness).
  options.heartbeat_timeout = milliseconds(1500);
  options.drain_grace = milliseconds(100);
  const auto outcomes =
      run_fleet({plan}, options, WorkerLauncher{}, observer, &listener);
  EXPECT_EQ(reap(bad_pid), 2) << "a refused worker must not redial";
  EXPECT_EQ(reap(good_pid), 0);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].completed) << outcomes[0].error;
  expect_same_merge(outcomes[0].merged, reference_merge(plan));
  EXPECT_EQ(admitted, std::vector<std::string>{"good"});
  ASSERT_FALSE(lost.empty());
  EXPECT_NE(lost[0].find("heartbeat"), std::string::npos) << lost[0];
}

TEST(SocketFleet, VersionSkewedHelloIsRefusedAtHandshake) {
  // Satellite 1: a worker from a future protocol version is refused up
  // front with an error frame; the current-version worker serves the sweep.
  const PlanInputs plan = make_plan("skew", "twocliques:3", "two-cliques", 1);
  SocketListener listener(SocketAddress{"127.0.0.1", 0});
  const pid_t skewed_pid = fork_raw_dialer(listener, [](int fd) {
    write_frame(fd, Frame{FrameType::kHello,
                          "wbhello v3\nhost futurist\npid 1\n"});
    FrameDecoder decoder;
    // Drain until the controller hangs up; the error frame arrives first.
    bool saw_error = false;
    try {
      while (const std::optional<Frame> frame = read_frame(fd, decoder)) {
        saw_error = saw_error || frame->type == FrameType::kError;
      }
    } catch (const DataError&) {
    }
    ::_exit(saw_error ? 0 : 7);
  });
  WorkerOptions current;
  current.hostname = "current";
  const pid_t current_pid = fork_connect_worker(listener, current);
  std::vector<std::string> lost;
  FleetObserver observer;
  observer.on_worker_lost = [&](std::size_t, const std::string& why) {
    lost.push_back(why);
  };
  FleetOptions options;
  options.workers = 0;
  options.drain_grace = milliseconds(100);
  const auto outcomes =
      run_fleet({plan}, options, WorkerLauncher{}, observer, &listener);
  EXPECT_EQ(reap(skewed_pid), 0) << "the skewed worker must see the error "
                                    "frame explaining its refusal";
  EXPECT_EQ(reap(current_pid), 0);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].completed) << outcomes[0].error;
  expect_same_merge(outcomes[0].merged, reference_merge(plan));
  ASSERT_FALSE(lost.empty());
  EXPECT_NE(lost[0].find("version"), std::string::npos) << lost[0];
}

TEST(SocketFleet, SlowTrickleFramesAreReassembledIntact) {
  // A congested link delivering a few bytes at a time (including mid-header
  // and mid-payload splits) must change nothing: the decoder reassembles,
  // the merge is bit-identical.
  const PlanInputs plan = make_plan("trickle", "twocliques:3", "two-cliques",
                                    2);
  SocketListener listener(SocketAddress{"127.0.0.1", 0});
  const pid_t pid = fork_raw_dialer(listener, [](int fd) {
    const auto trickle = [fd](const std::string& wire) {
      for (std::size_t i = 0; i < wire.size(); i += 7) {
        const std::size_t n = std::min<std::size_t>(7, wire.size() - i);
        std::size_t written = 0;
        while (written < n) {
          const ssize_t rc = ::write(fd, wire.data() + i + written,
                                     n - written);
          if (rc < 0 && (errno == EAGAIN || errno == EINTR)) continue;
          if (rc <= 0) ::_exit(7);
          written += static_cast<std::size_t>(rc);
        }
        ::usleep(200);
      }
    };
    trickle(encode_frame(
        Frame{FrameType::kHello, hello_v2("dripfeed", 0)}));
    FrameDecoder decoder;
    while (const std::optional<Frame> frame = read_frame(fd, decoder)) {
      if (frame->type == FrameType::kShutdown) ::_exit(0);
      if (frame->type != FrameType::kSpec) continue;
      const shard::ShardResult result =
          serial_runner(shard::parse_shard_spec(frame->payload), 1);
      trickle(encode_frame(Frame{FrameType::kResult,
                                 shard::serialize(result)}));
    }
  });
  FleetOptions options;
  options.workers = 0;
  options.heartbeat_timeout = milliseconds(10000);  // trickling is not death
  options.drain_grace = milliseconds(200);
  const auto outcomes =
      run_fleet({plan}, options, WorkerLauncher{}, {}, &listener);
  EXPECT_EQ(reap(pid), 0);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].completed) << outcomes[0].error;
  expect_same_merge(outcomes[0].merged, reference_merge(plan));
}

/// The acceptance bar of the ISSUE: two dial-in workers, one SIGKILLed
/// mid-shard, the other's connection severed once (it redials and
/// redelivers); the merged report must stay bit-identical to the serial
/// reference for the exact and the hll accumulator alike.
class SocketFleetKillAndSever
    : public ::testing::TestWithParam<DistinctConfig> {};

TEST_P(SocketFleetKillAndSever, SweepStaysBitIdenticalToTheOracle) {
  const PlanInputs plan =
      make_plan("gauntlet", "twocliques:3", "two-cliques", 4, GetParam());
  SocketListener listener(SocketAddress{"127.0.0.1", 0});
  WorkerOptions victim;
  victim.hostname = "victim";
  victim.stall_first = milliseconds(400);
  WorkerOptions survivor;
  survivor.hostname = "survivor";
  survivor.stall_first = milliseconds(400);
  survivor.sever_after = milliseconds(200);
  const pid_t victim_pid = fork_connect_worker(listener, victim);
  const pid_t survivor_pid = fork_connect_worker(listener, survivor);
  std::size_t victim_index = SIZE_MAX;
  bool killed = false;
  bool reconnected_seen = false;
  FleetObserver observer;
  observer.on_admit = [&](std::size_t worker, const HelloInfo& hello,
                          bool reconnected) {
    if (hello.host == "victim") victim_index = worker;
    reconnected_seen = reconnected_seen || reconnected;
  };
  observer.on_dispatch = [&](std::size_t worker, const std::string&,
                             std::uint32_t, int) {
    if (!killed && worker == victim_index) {
      killed = true;
      ::kill(victim_pid, SIGKILL);
    }
  };
  FleetOptions options;
  options.workers = 0;
  options.backoff_base = milliseconds(10);
  options.drain_grace = milliseconds(300);
  const auto outcomes =
      run_fleet({plan}, options, WorkerLauncher{}, observer, &listener);
  EXPECT_EQ(reap(victim_pid), -SIGKILL);
  EXPECT_EQ(reap(survivor_pid), 0);
  ASSERT_TRUE(killed);
  EXPECT_TRUE(reconnected_seen);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].completed) << outcomes[0].error;
  expect_same_merge(outcomes[0].merged, reference_merge(plan));
}

INSTANTIATE_TEST_SUITE_P(Accumulators, SocketFleetKillAndSever,
                         ::testing::Values(DistinctConfig::Exact(),
                                           DistinctConfig::Hll(14)));

TEST(FleetWorker, MalformedControllerStreamExitsWithDataErrorCode) {
  int to_worker[2] = {-1, -1};
  int from_worker[2] = {-1, -1};
  ASSERT_EQ(::pipe(to_worker), 0);
  ASSERT_EQ(::pipe(from_worker), 0);
  int exit_code = -1;
  std::thread worker([&] {
    exit_code = run_worker(to_worker[0], from_worker[1], serial_runner);
    ::close(from_worker[1]);
  });
  const char garbage[] = "wbframe v9 nonsense\n";
  ASSERT_GT(::write(to_worker[1], garbage, sizeof garbage - 1), 0);
  ::close(to_worker[1]);
  worker.join();
  EXPECT_EQ(exit_code, 2);
  ::close(to_worker[0]);
  ::close(from_worker[0]);
}

}  // namespace
}  // namespace wb::fleet

#endif  // WB_FLEET_HAS_PROCESSES
