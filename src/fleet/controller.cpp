#include "src/fleet/controller.h"

#if WB_FLEET_HAS_PROCESSES

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <optional>
#include <utility>

#include "src/fleet/socket.h"
#include "src/support/check.h"

namespace wb::fleet {

namespace {

using Clock = std::chrono::steady_clock;
using Millis = std::chrono::milliseconds;

enum class JobState : std::uint8_t { kPending, kInFlight, kDone, kFailed };

struct Job {
  JobState state = JobState::kPending;
  int attempts = 0;             // dispatches so far
  Clock::time_point not_before{};  // earliest re-dispatch (backoff)
  /// The most recent dispatchee — the only worker whose loss re-queues this
  /// job. Earlier (suspect) holders may still deliver a usable result, but
  /// their fate no longer gates progress.
  std::size_t current_worker = SIZE_MAX;
};

struct PlanState {
  const PlanInputs* inputs = nullptr;
  std::vector<Job> jobs;
  std::vector<shard::ShardResult> results;
  std::vector<bool> have_result;
  std::size_t done = 0;
  bool failed = false;
  std::string error;
  std::size_t reissues = 0;
};

/// kHandshaking is remote-only: an accepted connection is not dispatchable
/// until its hello validates. Launcher-spawned locals start kIdle — their
/// process exists the moment the launcher returns, so holding shards back
/// would only add latency (and the hello may have been consumed by the
/// launcher itself).
enum class WorkerHealth : std::uint8_t {
  kHandshaking,
  kIdle,
  kBusy,
  kSuspect,
  kDead,
};

struct Assignment {
  std::size_t plan = 0;
  std::uint32_t shard = 0;
};

struct WorkerState {
  WorkerEndpoint endpoint;
  FrameDecoder decoder;
  WorkerHealth health = WorkerHealth::kIdle;
  std::optional<Assignment> assigned;
  Clock::time_point dispatched_at{};
  Clock::time_point last_heard{};
  /// Accounting key: "local" for launcher-spawned workers, the peer address
  /// for a handshaking remote, the hello host once admitted.
  std::string host = "local";
};

struct HostStats {
  std::size_t admitted = 0;
  std::size_t lost = 0;
  std::size_t results = 0;
};

class Controller {
 public:
  Controller(const std::vector<PlanInputs>& plans, const FleetOptions& options,
             const WorkerLauncher& launcher, const FleetObserver& observer,
             SocketListener* listener)
      : options_(options),
        launcher_(launcher),
        observer_(observer),
        listener_(listener) {
    plans_.reserve(plans.size());
    for (const PlanInputs& inputs : plans) {
      PlanState state;
      state.inputs = &inputs;
      const std::uint32_t shards = inputs.manifest.shard_count;
      WB_REQUIRE_MSG(inputs.spec_documents.size() == shards,
                     "plan '" << inputs.name << "' carries "
                              << inputs.spec_documents.size()
                              << " spec documents for " << shards
                              << " shards");
      for (std::uint32_t k = 0; k < shards; ++k) {
        WB_REQUIRE_MSG(
            shard::hash_document(inputs.spec_documents[k]) ==
                inputs.manifest.spec_hashes[k],
            "plan '" << inputs.name << "' shard " << k
                     << ": spec document hash contradicts the manifest — "
                        "refusing to dispatch a swapped or corrupted spec");
      }
      state.jobs.resize(shards);
      state.results.resize(shards);
      state.have_result.assign(shards, false);
      plans_.push_back(std::move(state));
    }
    // Results are routed back to their plan by fingerprint, so two live
    // plans with the same fingerprint would be indistinguishable on the
    // wire — one would silently absorb the other's results.
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      for (std::size_t j = i + 1; j < plans_.size(); ++j) {
        WB_REQUIRE_MSG(
            !(plans_[i].inputs->manifest.plan == plans_[j].inputs->manifest.plan),
            "plans '" << plans_[i].inputs->name << "' and '"
                      << plans_[j].inputs->name
                      << "' share a fingerprint — results could not be "
                         "attributed to one of them");
      }
    }
  }

  std::vector<PlanOutcome> run() {
    ignore_sigpipe();
    for (std::size_t i = 0; i < options_.workers; ++i) spawn_worker();
    while (!finished()) {
      if (alive_workers() == 0 && !try_respawn() && !listening()) {
        // With a listener the fleet never gives up on attrition alone: a
        // full partition is indistinguishable from slow redials, and the
        // worker that heals it may be carrying a finished result.
        fail_remaining("no workers left and the respawn budget is exhausted");
        break;
      }
      dispatch_ready_jobs();
      poll_workers();
      enforce_timeouts();
    }
    shutdown_workers();
    report_hosts();
    return collect_outcomes();
  }

 private:
  // --- plan/job bookkeeping ------------------------------------------------

  bool finished() const {
    return std::all_of(plans_.begin(), plans_.end(), [](const PlanState& p) {
      return p.failed || p.done == p.jobs.size();
    });
  }

  void fail_plan(PlanState& plan, const std::string& why) {
    if (plan.failed) return;
    plan.failed = true;
    plan.error = why;
    for (Job& job : plan.jobs) {
      if (job.state != JobState::kDone) job.state = JobState::kFailed;
    }
  }

  void fail_remaining(const std::string& why) {
    for (PlanState& plan : plans_) {
      if (!plan.failed && plan.done != plan.jobs.size()) fail_plan(plan, why);
    }
  }

  Millis backoff_for(int attempts) const {
    // attempt 1 -> base, doubling, capped. attempts counts past dispatches.
    Millis delay = options_.backoff_base;
    for (int i = 1; i < attempts && delay < options_.backoff_max; ++i) {
      delay *= 2;
    }
    return std::min(delay, options_.backoff_max);
  }

  /// `min_delay` floors the re-dispatch wait below the backoff schedule —
  /// the drain grace of a lost remote link, giving a redialing worker's
  /// redelivery a window to land before the shard is swept again.
  void requeue(std::size_t plan_index, std::uint32_t shard,
               const std::string& reason, Millis min_delay = Millis(0)) {
    PlanState& plan = plans_[plan_index];
    Job& job = plan.jobs[shard];
    if (job.state != JobState::kInFlight) return;
    if (job.attempts >= options_.max_attempts) {
      fail_plan(plan, "shard " + std::to_string(shard) + " failed after " +
                          std::to_string(job.attempts) +
                          " attempts (last: " + reason + ")");
      return;
    }
    job.state = JobState::kPending;
    job.not_before =
        Clock::now() + std::max(backoff_for(job.attempts), min_delay);
    job.current_worker = SIZE_MAX;
    if (observer_.on_requeue) {
      observer_.on_requeue(plan.inputs->name, shard, reason);
    }
  }

  // --- worker lifecycle ----------------------------------------------------

  bool listening() const { return listener_ != nullptr && listener_->fd() >= 0; }

  std::size_t alive_workers() const {
    std::size_t n = 0;
    for (const WorkerState& w : workers_) {
      if (w.health != WorkerHealth::kDead) ++n;
    }
    return n;
  }

  bool spawn_worker() {
    if (!launcher_) return false;  // all-dial-in fleet: nothing to fork
    WorkerState state;
    try {
      state.endpoint = launcher_(next_worker_index_);
    } catch (const DataError&) {
      return false;
    }
    ++next_worker_index_;
    state.last_heard = Clock::now();
    workers_.push_back(std::move(state));
    ++hosts_[workers_.back().host].admitted;
    if (observer_.on_spawn) {
      observer_.on_spawn(workers_.size() - 1, workers_.back().endpoint.pid);
    }
    return true;
  }

  bool try_respawn() {
    if (respawns_used_ >= options_.max_respawns) return false;
    if (!launcher_) return false;
    ++respawns_used_;
    return spawn_worker();
  }

  void close_endpoint(WorkerState& w) {
    if (w.endpoint.to_worker_fd >= 0) ::close(w.endpoint.to_worker_fd);
    if (!w.endpoint.remote && w.endpoint.from_worker_fd >= 0) {
      ::close(w.endpoint.from_worker_fd);  // remote: same fd, already closed
    }
    w.endpoint.to_worker_fd = -1;
    w.endpoint.from_worker_fd = -1;
  }

  /// The worker (local: the process; remote: the *link*) is gone. Kill and
  /// reap a local, close fds, re-queue its shard, and spend a respawn if
  /// local and the budget allows. A remote loss spends no respawn — the
  /// worker process may well be alive and redialing, so its shard waits out
  /// drain_grace before re-issue to give a redelivery the first shot.
  void lose_worker(std::size_t index, const std::string& reason) {
    WorkerState& w = workers_[index];
    if (w.health == WorkerHealth::kDead) return;
    const bool remote = w.endpoint.remote;
    if (!remote && w.endpoint.pid > 0) {
      ::kill(w.endpoint.pid, SIGKILL);
      ::waitpid(w.endpoint.pid, nullptr, 0);
    }
    close_endpoint(w);
    w.health = WorkerHealth::kDead;
    ++hosts_[w.host].lost;
    if (observer_.on_worker_lost) observer_.on_worker_lost(index, reason);
    if (w.assigned.has_value()) {
      const Assignment a = *w.assigned;
      w.assigned.reset();
      if (plans_[a.plan].jobs[a.shard].current_worker == index) {
        requeue(a.plan, a.shard, reason,
                remote ? options_.drain_grace : Millis(0));
      }
    }
    if (!remote) try_respawn();
  }

  // --- dispatch ------------------------------------------------------------

  void dispatch_ready_jobs() {
    const Clock::time_point now = Clock::now();
    for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
      // Re-check health after every dispatch attempt: a failed dispatch
      // loses the worker (closing its fds, which a respawned replacement may
      // reuse), so writing to this slot again would hit the wrong process.
      for (std::size_t pi = 0;
           pi < plans_.size() && workers_[wi].health == WorkerHealth::kIdle;
           ++pi) {
        PlanState& plan = plans_[pi];
        if (plan.failed) continue;
        for (std::uint32_t k = 0; k < plan.jobs.size(); ++k) {
          Job& job = plan.jobs[k];
          if (job.state != JobState::kPending || job.not_before > now) {
            continue;
          }
          dispatch(wi, pi, k);
          break;
        }
      }
    }
  }

  bool dispatch(std::size_t worker_index, std::size_t plan_index,
                std::uint32_t shard) {
    WorkerState& w = workers_[worker_index];
    PlanState& plan = plans_[plan_index];
    Job& job = plan.jobs[shard];
    try {
      write_frame(w.endpoint.to_worker_fd,
                  Frame{FrameType::kSpec, plan.inputs->spec_documents[shard]});
    } catch (const DataError& e) {
      lose_worker(worker_index, std::string("dispatch write failed: ") +
                                    e.what());
      return false;
    }
    job.state = JobState::kInFlight;
    job.current_worker = worker_index;
    ++job.attempts;
    if (job.attempts > 1) ++plan.reissues;
    w.health = WorkerHealth::kBusy;
    w.assigned = Assignment{plan_index, shard};
    w.dispatched_at = Clock::now();
    w.last_heard = w.dispatched_at;
    if (observer_.on_dispatch) {
      observer_.on_dispatch(worker_index, plan.inputs->name, shard,
                            job.attempts);
    }
    return true;
  }

  // --- event loop ----------------------------------------------------------

  void poll_workers() {
    std::vector<pollfd> fds;
    std::vector<std::size_t> owners;  // SIZE_MAX marks the listener's slot
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      if (workers_[i].health == WorkerHealth::kDead) continue;
      fds.push_back(pollfd{workers_[i].endpoint.from_worker_fd, POLLIN, 0});
      owners.push_back(i);
    }
    if (listening()) {
      fds.push_back(pollfd{listener_->fd(), POLLIN, 0});
      owners.push_back(SIZE_MAX);
    }
    if (fds.empty()) return;
    const int timeout = static_cast<int>(
        std::clamp<std::int64_t>(next_wakeup_in_ms(), 1, 200));
    const int ready = ::poll(fds.data(), fds.size(), timeout);
    if (ready <= 0) return;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (owners[i] == SIZE_MAX) {
        accept_connections();
      } else {
        drain_worker(owners[i]);
      }
    }
  }

  void accept_connections() {
    while (true) {
      std::string peer;
      int fd = -1;
      try {
        fd = listener_->accept_connection(&peer);
      } catch (const DataError&) {
        return;  // broken listener: surviving workers carry on
      }
      if (fd < 0) return;
      WorkerState state;
      state.endpoint.remote = true;
      state.endpoint.to_worker_fd = fd;
      state.endpoint.from_worker_fd = fd;
      state.health = WorkerHealth::kHandshaking;
      state.host = peer;
      state.last_heard = Clock::now();
      workers_.push_back(std::move(state));
      if (observer_.on_accept) observer_.on_accept(workers_.size() - 1, peer);
    }
  }

  /// A handshaking remote's first frame must be a hello that validates;
  /// anything the controller cannot live with is refused with an error frame
  /// so the worker knows not to redial.
  void admit_remote(std::size_t index, const std::string& payload) {
    WorkerState& w = workers_[index];
    HelloInfo hello;
    try {
      hello = parse_hello(payload);
    } catch (const DataError& e) {
      refuse_remote(index, e.what());
      return;
    }
    if (hello.heartbeat_ms > 0 &&
        Millis(hello.heartbeat_ms) >= options_.heartbeat_timeout) {
      refuse_remote(index,
                    "worker heartbeat interval " +
                        std::to_string(hello.heartbeat_ms) +
                        "ms is not under the controller's heartbeat timeout " +
                        std::to_string(options_.heartbeat_timeout.count()) +
                        "ms — every sweep would be suspected; fix the "
                        "--heartbeat-ms/--heartbeat-timeout-ms pair");
      return;
    }
    bool reconnected = false;
    const std::string identity = hello.identity();
    const auto it = identity_to_worker_.find(identity);
    if (it != identity_to_worker_.end() && it->second != index) {
      reconnected = true;
      WorkerState& old = workers_[it->second];
      if (old.health != WorkerHealth::kDead) {
        // The worker redialed before we noticed the old link die (e.g. a
        // half-open connection). The new link is the live one; the old
        // slot is a ghost.
        lose_worker(it->second, "superseded by a reconnect from " + identity);
      }
    }
    identity_to_worker_[identity] = index;
    w.host = hello.host;
    w.health = WorkerHealth::kIdle;
    ++hosts_[w.host].admitted;
    if (observer_.on_admit) observer_.on_admit(index, hello, reconnected);
  }

  void refuse_remote(std::size_t index, const std::string& why) {
    WorkerState& w = workers_[index];
    try {
      write_frame(w.endpoint.to_worker_fd, Frame{FrameType::kError, why});
    } catch (const DataError&) {
      // It will find out from the close instead.
    }
    lose_worker(index, "handshake refused: " + why);
  }

  std::int64_t next_wakeup_in_ms() const {
    const Clock::time_point now = Clock::now();
    Clock::time_point wake = now + Millis(200);
    for (const WorkerState& w : workers_) {
      if (w.health == WorkerHealth::kBusy) {
        wake = std::min(wake, w.last_heard + options_.heartbeat_timeout);
      }
      if (w.health == WorkerHealth::kBusy ||
          w.health == WorkerHealth::kSuspect) {
        wake = std::min(wake, w.dispatched_at + options_.shard_deadline);
      }
    }
    for (const PlanState& plan : plans_) {
      if (plan.failed) continue;
      for (const Job& job : plan.jobs) {
        if (job.state == JobState::kPending) {
          wake = std::min(wake, job.not_before);
        }
      }
    }
    return std::chrono::duration_cast<Millis>(wake - now).count();
  }

  void drain_worker(std::size_t index) {
    WorkerState& w = workers_[index];
    char chunk[64 * 1024];
    const ssize_t n =
        ::read(w.endpoint.from_worker_fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) return;
      lose_worker(index, std::string("pipe read failed: ") +
                             std::strerror(errno));
      return;
    }
    if (n == 0) {
      lose_worker(index, w.decoder.idle()
                             ? "worker closed its pipe"
                             : "worker died mid-frame");
      return;
    }
    w.decoder.feed(chunk, static_cast<std::size_t>(n));
    while (true) {
      std::optional<Frame> frame;
      try {
        frame = w.decoder.next();
      } catch (const DataError& e) {
        // A framing error cannot be resynchronized; the worker is unusable.
        lose_worker(index, e.what());
        return;
      }
      if (!frame.has_value()) return;
      handle_frame(index, *frame);
      if (workers_[index].health == WorkerHealth::kDead) return;
    }
  }

  void handle_frame(std::size_t index, const Frame& frame) {
    WorkerState& w = workers_[index];
    w.last_heard = Clock::now();
    if (w.health == WorkerHealth::kHandshaking) {
      // Nothing but a valid hello admits a remote; any other opener is a
      // peer that does not speak our protocol.
      if (frame.type == FrameType::kHello) {
        admit_remote(index, frame.payload);
      } else {
        refuse_remote(index, "expected a hello frame, got " +
                                 std::string(to_string(frame.type)));
      }
      return;
    }
    switch (frame.type) {
      case FrameType::kHello:
      case FrameType::kHeartbeat:
        break;  // liveness only — last_heard already updated
      case FrameType::kResult:
        handle_result(index, frame.payload);
        break;
      case FrameType::kError: {
        // The worker is healthy — the shard's sweep failed. Re-queue it
        // (another worker, after backoff) and put this worker back to work.
        const std::optional<Assignment> a = std::exchange(w.assigned, {});
        w.health = WorkerHealth::kIdle;
        if (a.has_value() &&
            plans_[a->plan].jobs[a->shard].current_worker == index) {
          requeue(a->plan, a->shard, "worker error: " + frame.payload);
        }
        break;
      }
      case FrameType::kSpec:
      case FrameType::kShutdown:
      case FrameType::kAck:
        lose_worker(index, "worker sent a controller-only " +
                               std::string(to_string(frame.type)) + " frame");
        break;
    }
  }

  /// Tell the worker its last result frame was consumed (merged or
  /// classified and discarded — either way a redelivery would be pointless),
  /// so it can drop its redelivery copy.
  void ack_result(std::size_t index) {
    WorkerState& w = workers_[index];
    if (w.health == WorkerHealth::kDead) return;
    try {
      write_frame(w.endpoint.to_worker_fd, Frame{FrameType::kAck, {}});
    } catch (const DataError& e) {
      lose_worker(index, std::string("ack write failed: ") + e.what());
    }
  }

  void handle_result(std::size_t index, const std::string& payload) {
    WorkerState& w = workers_[index];
    const std::optional<Assignment> assigned = std::exchange(w.assigned, {});
    w.health = WorkerHealth::kIdle;

    shard::ShardResult result;
    try {
      result = shard::parse_shard_result(payload);
    } catch (const DataError& e) {
      // Well-framed but unparseable result: the worker's output cannot be
      // trusted, so treat it like a malformed stream.
      if (observer_.on_discard) {
        observer_.on_discard(index,
                             std::string("unparseable result: ") + e.what());
      }
      w.assigned = assigned;  // restore so lose_worker re-queues it
      lose_worker(index, "unparseable result payload");
      return;
    }

    // The plan-fingerprint guard: a result merges only into the live plan
    // whose manifest fingerprint it carries. Anything else is foreign —
    // another plan's artifact, a stale duplicate, or a corrupt file — and is
    // discarded, exactly like `wbsim shard-status` classifies on disk.
    PlanState* plan = nullptr;
    std::size_t plan_index = 0;
    for (std::size_t pi = 0; pi < plans_.size(); ++pi) {
      if (plans_[pi].inputs->manifest.plan == result.plan) {
        plan = &plans_[pi];
        plan_index = pi;
        break;
      }
    }
    const auto discard = [&](const std::string& why) {
      if (observer_.on_discard) observer_.on_discard(index, why);
      // The worker delivered *something*, but its assigned shard did not
      // complete — put that shard back in the queue if it still matters.
      if (assigned.has_value()) {
        Job& job = plans_[assigned->plan].jobs[assigned->shard];
        if (job.current_worker == index && job.state == JobState::kInFlight) {
          requeue(assigned->plan, assigned->shard, why);
        }
      }
      // Classified is consumed: a redelivery would be discarded again.
      ack_result(index);
    };
    if (plan == nullptr) {
      discard("foreign result (plan fingerprint matches no live plan)");
      return;
    }
    if (plan->failed) {
      discard("result for a failed plan");
      return;
    }
    if (result.shard_index >= plan->jobs.size() ||
        result.shard_count != plan->inputs->manifest.shard_count ||
        !(result.distinct == plan->inputs->manifest.distinct)) {
      discard("result contradicts its plan's manifest");
      return;
    }
    Job& job = plan->jobs[result.shard_index];
    if (job.state == JobState::kDone) {
      // A re-issued shard's original worker finally answered. Both runs are
      // bit-identical by the determinism contract, so dropping the late one
      // cannot change the merged totals.
      discard("stale result (shard " + std::to_string(result.shard_index) +
              " already merged)");
      return;
    }
    // First valid result wins — whether it came from the current dispatchee
    // or a suspect worker that turned out to be merely slow.
    const std::uint32_t merged_shard = result.shard_index;
    job.state = JobState::kDone;
    job.current_worker = SIZE_MAX;
    plan->results[merged_shard] = std::move(result);
    plan->have_result[merged_shard] = true;
    ++plan->done;
    ++hosts_[w.host].results;
    if (observer_.on_result) {
      observer_.on_result(plan->inputs->name, merged_shard);
    }
    ack_result(index);
    // If this worker delivered a different shard than its current
    // assignment (it was suspect, got rehabilitated by a late result for an
    // old assignment), re-queue whatever it was supposed to be doing.
    if (assigned.has_value() &&
        (assigned->plan != plan_index ||
         plans_[assigned->plan].jobs[assigned->shard].state ==
             JobState::kInFlight)) {
      Job& other = plans_[assigned->plan].jobs[assigned->shard];
      if (other.state == JobState::kInFlight &&
          other.current_worker == index) {
        requeue(assigned->plan, assigned->shard,
                "worker answered with a different shard");
      }
    }
  }

  void enforce_timeouts() {
    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      WorkerState& w = workers_[i];
      if (w.health == WorkerHealth::kHandshaking &&
          now - w.last_heard > options_.heartbeat_timeout) {
        // A connection that never says hello holds no shard; just drop it.
        lose_worker(i, "no hello within " +
                           std::to_string(options_.heartbeat_timeout.count()) +
                           "ms of connecting");
        continue;
      }
      if (w.health == WorkerHealth::kBusy &&
          now - w.last_heard > options_.heartbeat_timeout) {
        // Silent too long: suspect. Re-issue the shard elsewhere but keep
        // the link open — a slow worker's late result is still bit-identical
        // and welcome (asynchrony means we cannot know it is dead).
        w.health = WorkerHealth::kSuspect;
        if (w.assigned.has_value()) {
          requeue(w.assigned->plan, w.assigned->shard,
                  "no heartbeat for " +
                      std::to_string(options_.heartbeat_timeout.count()) +
                      "ms");
        }
      }
      if ((w.health == WorkerHealth::kBusy ||
           w.health == WorkerHealth::kSuspect) &&
          now - w.dispatched_at > options_.shard_deadline) {
        lose_worker(i, "shard deadline of " +
                           std::to_string(options_.shard_deadline.count()) +
                           "ms exceeded");
      }
    }
  }

  // --- teardown and reporting ----------------------------------------------

  void shutdown_workers() {
    // Stop accepting first: a dial-in landing during teardown would never be
    // served, and redialing workers should see refusal, not a dead session.
    if (listener_ != nullptr) listener_->close();
    for (WorkerState& w : workers_) {
      if (w.health == WorkerHealth::kDead) continue;
      try {
        write_frame(w.endpoint.to_worker_fd, Frame{FrameType::kShutdown, {}});
      } catch (const DataError&) {
        // Already gone; the reap below handles it.
      }
      if (w.endpoint.remote) {
        // Half-close our write side; the worker answering the shutdown frame
        // with a clean close gives us EOF below.
        ::shutdown(w.endpoint.to_worker_fd, SHUT_WR);
      } else {
        ::close(w.endpoint.to_worker_fd);
        w.endpoint.to_worker_fd = -1;
      }
    }
    // Grace period for clean exits (a worker mid-sweep finishes its shard
    // first), then SIGKILL whatever is left — e.g. a wedged suspect. A
    // remote cannot be killed, only waited out (drain_grace) and closed.
    const Clock::time_point deadline = Clock::now() + Millis(2000);
    for (WorkerState& w : workers_) {
      if (w.health == WorkerHealth::kDead) continue;
      if (w.endpoint.remote) {
        drain_remote(w);
        close_endpoint(w);
        w.health = WorkerHealth::kDead;
        continue;
      }
      while (true) {
        const pid_t reaped = ::waitpid(w.endpoint.pid, nullptr, WNOHANG);
        if (reaped == w.endpoint.pid || reaped < 0) break;
        if (Clock::now() >= deadline) {
          ::kill(w.endpoint.pid, SIGKILL);
          ::waitpid(w.endpoint.pid, nullptr, 0);
          break;
        }
        ::usleep(10 * 1000);
      }
      ::close(w.endpoint.from_worker_fd);
      w.endpoint.from_worker_fd = -1;
      w.health = WorkerHealth::kDead;
    }
  }

  /// Wait (bounded by drain_grace) for a remote to acknowledge shutdown by
  /// closing its side, discarding whatever it still sends.
  void drain_remote(WorkerState& w) {
    const Clock::time_point deadline = Clock::now() + options_.drain_grace;
    char sink[4096];
    while (true) {
      const std::int64_t left = std::chrono::duration_cast<Millis>(
                                    deadline - Clock::now())
                                    .count();
      if (left <= 0) return;
      pollfd pfd{w.endpoint.from_worker_fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(std::min<std::int64_t>(
                                            left, 100)));
      if (ready < 0 && errno != EINTR) return;
      if (ready <= 0) continue;
      const ssize_t n = ::read(w.endpoint.from_worker_fd, sink, sizeof sink);
      if (n == 0) return;  // clean EOF: the worker drained and closed
      if (n < 0 && errno != EINTR && errno != EAGAIN) return;
    }
  }

  void report_hosts() {
    if (!observer_.on_host_summary) return;
    for (const auto& [host, stats] : hosts_) {
      observer_.on_host_summary(host, stats.admitted, stats.lost,
                                stats.results);
    }
  }

  std::vector<PlanOutcome> collect_outcomes() {
    std::vector<PlanOutcome> outcomes;
    outcomes.reserve(plans_.size());
    for (PlanState& plan : plans_) {
      PlanOutcome outcome;
      outcome.name = plan.inputs->name;
      outcome.reissues = plan.reissues;
      if (plan.failed) {
        outcome.error = plan.error;
      } else {
        outcome.completed = true;
        try {
          outcome.merged = shard::merge_shard_results(plan.results);
        } catch (const BudgetExceededError&) {
          outcome.budget_exceeded = true;
        }
      }
      outcomes.push_back(std::move(outcome));
    }
    return outcomes;
  }

  const FleetOptions options_;
  const WorkerLauncher& launcher_;
  const FleetObserver& observer_;
  SocketListener* listener_ = nullptr;
  std::vector<PlanState> plans_;
  std::vector<WorkerState> workers_;
  /// hello v2 host/pid -> latest worker slot claiming it. Entries outlive
  /// their slot's death so a redial is recognized as a reconnect.
  std::map<std::string, std::size_t> identity_to_worker_;
  std::map<std::string, HostStats> hosts_;
  std::size_t next_worker_index_ = 0;
  std::size_t respawns_used_ = 0;
};

}  // namespace

std::vector<PlanOutcome> run_fleet(const std::vector<PlanInputs>& plans,
                                   const FleetOptions& options,
                                   const WorkerLauncher& launcher,
                                   const FleetObserver& observer,
                                   SocketListener* listener) {
  WB_REQUIRE_MSG(!plans.empty(), "no plans to serve");
  WB_REQUIRE_MSG(options.workers >= 1 || listener != nullptr,
                 "a fleet needs at least one worker or a listener for "
                 "dial-ins");
  WB_REQUIRE_MSG(launcher != nullptr || options.workers == 0,
                 "cannot launch " << options.workers
                                  << " workers without a launcher");
  WB_REQUIRE_MSG(options.max_attempts >= 1, "max_attempts must be at least 1");
  Controller controller(plans, options, launcher, observer, listener);
  return controller.run();
}

}  // namespace wb::fleet

#endif  // WB_FLEET_HAS_PROCESSES
