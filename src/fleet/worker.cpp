#include "src/fleet/worker.h"

#if WB_FLEET_HAS_PROCESSES

#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "src/support/check.h"

namespace wb::fleet {

namespace {

/// All frame writes go through one mutex so a heartbeat from the sidecar
/// thread can never interleave into the middle of a result frame.
class FrameChannel {
 public:
  explicit FrameChannel(int fd) : fd_(fd) {}
  void send(const Frame& frame) {
    const std::lock_guard<std::mutex> lock(mu_);
    write_frame(fd_, frame);
  }

 private:
  int fd_;
  std::mutex mu_;
};

/// Emits heartbeat frames every `interval` until stopped. Write failures are
/// swallowed: the controller going away mid-sweep is detected by the main
/// loop's next send, and a heartbeat must never crash a sweep.
class HeartbeatPump {
 public:
  HeartbeatPump(FrameChannel& channel, std::chrono::milliseconds interval)
      : channel_(channel), interval_(interval) {
    if (interval_.count() <= 0) return;
    thread_ = std::thread([this] { run(); });
  }

  ~HeartbeatPump() {
    if (!thread_.joinable()) return;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, interval_, [this] { return stop_; })) {
      lock.unlock();
      try {
        channel_.send(Frame{FrameType::kHeartbeat, {}});
      } catch (const DataError&) {
        // Controller gone; the sweep's own result send will notice.
      }
      lock.lock();
    }
  }

  FrameChannel& channel_;
  std::chrono::milliseconds interval_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Fault injection: hard-shutdown(2) `fd` after a delay unless stopped
/// first. Leaves the fd number alive (no close) so nothing double-closes —
/// only the link is dead, exactly like a severed cable.
class SeverTimer {
 public:
  SeverTimer(int fd, std::chrono::milliseconds after) : fd_(fd) {
    if (after.count() <= 0) return;
    thread_ = std::thread([this, after] {
      std::unique_lock<std::mutex> lock(mu_);
      if (!cv_.wait_for(lock, after, [this] { return stop_; })) {
        ::shutdown(fd_, SHUT_RDWR);
      }
    });
  }

  ~SeverTimer() {
    if (!thread_.joinable()) return;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  int fd_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

std::string local_hostname() {
  char buffer[256] = {0};
  if (::gethostname(buffer, sizeof buffer - 1) != 0) return "unknown-host";
  return buffer;
}

}  // namespace

SessionResult serve_worker(int in_fd, int out_fd, const ShardRunner& runner,
                           const WorkerOptions& options,
                           std::string pending_result) {
  ignore_sigpipe();
  FrameChannel channel(out_fd);
  FrameDecoder decoder;
  SeverTimer sever(in_fd, options.sever_after);
  bool first_spec = true;
  std::string pending = std::move(pending_result);
  try {
    HelloInfo hello;
    hello.host = options.hostname.empty() ? local_hostname() : options.hostname;
    hello.pid = ::getpid();
    hello.threads = options.threads;
    hello.heartbeat_ms = options.heartbeat_interval.count();
    channel.send(Frame{FrameType::kHello, serialize_hello(hello)});
    if (!pending.empty()) {
      // Redelivery of the previous session's unacknowledged result. If the
      // shard was merged in the meantime the controller discards it as
      // stale — both runs are bit-identical, so either way is correct.
      channel.send(Frame{FrameType::kResult, pending});
    }
    while (true) {
      const std::optional<Frame> frame = read_frame(in_fd, decoder);
      if (!frame.has_value()) {
        return {SessionEnd::kEof, std::move(pending)};
      }
      switch (frame->type) {
        case FrameType::kShutdown:
          return {SessionEnd::kShutdown, {}};
        case FrameType::kAck:
          pending.clear();
          break;
        case FrameType::kSpec: {
          // Heartbeats cover the whole service of the spec — parse, the
          // injected stall, and the sweep — so the controller's liveness
          // clock never depends on shard size.
          HeartbeatPump pump(channel, options.heartbeat_interval);
          if (first_spec && options.stall_first.count() > 0) {
            std::this_thread::sleep_for(options.stall_first);
          }
          first_spec = false;
          try {
            const shard::ShardSpec spec =
                shard::parse_shard_spec(frame->payload);
            const shard::ShardResult result = runner(spec, options.threads);
            // Held until the controller acks it: a link that dies between
            // this send and the ack leaves the result redeliverable.
            pending = shard::serialize(result);
            channel.send(Frame{FrameType::kResult, pending});
          } catch (const StreamError&) {
            throw;  // link loss mid-send: pending survives for redelivery
          } catch (const DataError& e) {
            channel.send(Frame{FrameType::kError, e.what()});
          } catch (const LogicError& e) {
            channel.send(Frame{FrameType::kError, e.what()});
          }
          break;
        }
        case FrameType::kHello:
        case FrameType::kHeartbeat:
          break;  // harmless from a controller; ignore
        case FrameType::kError:
          // The controller refused us — e.g. a heartbeat interval its
          // timeout cannot tolerate, announced at handshake. Redialing
          // would be refused again.
          std::fprintf(stderr, "fleet worker: refused by controller: %s\n",
                       frame->payload.c_str());
          return {SessionEnd::kProtocolError, std::move(pending)};
        case FrameType::kResult:
          // A controller never sends these; a peer that does is confused
          // enough that continuing would serve garbage.
          std::fprintf(stderr,
                       "fleet worker: unexpected %s frame from controller\n",
                       std::string(to_string(frame->type)).c_str());
          return {SessionEnd::kProtocolError, std::move(pending)};
      }
    }
  } catch (const StreamError&) {
    // Link loss, not malformed data: the session is over but the worker is
    // healthy — a dial-in worker redials with the pending result.
    return {SessionEnd::kEof, std::move(pending)};
  } catch (const DataError& e) {
    std::fprintf(stderr, "fleet worker: %s\n", e.what());
    return {SessionEnd::kProtocolError, std::move(pending)};
  }
}

int run_worker(int in_fd, int out_fd, const ShardRunner& runner,
               const WorkerOptions& options) {
  const SessionResult session = serve_worker(in_fd, out_fd, runner, options);
  return session.end == SessionEnd::kProtocolError ? 2 : 0;
}

}  // namespace wb::fleet

#endif  // WB_FLEET_HAS_PROCESSES
