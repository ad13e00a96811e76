#include "src/wb/engine.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <utility>

namespace wb {

namespace {

void insert_sorted(std::vector<NodeId>& ids, NodeId v) {
  ids.insert(std::lower_bound(ids.begin(), ids.end(), v), v);
}

void erase_sorted(std::vector<NodeId>& ids, NodeId v) {
  ids.erase(std::lower_bound(ids.begin(), ids.end(), v));
}

}  // namespace

EngineState::EngineState(const Graph& g, const Protocol& p, EngineOptions opts)
    : graph_(&g), protocol_(&p), opts_(opts), n_(g.node_count()),
      model_(p.model_class()), locality_(p.frontier_locality()) {
  WB_CHECK_MSG(n_ >= 1, "protocols run on graphs with at least one node");
  if (opts_.max_rounds == 0) opts_.max_rounds = 2 * n_ + 8;
  state_.assign(n_, NodeState::kAwake);
  if (is_asynchronous(model_)) memory_.assign(n_, Bits{});
  written_.assign(n_, false);
  stats_.activation_round.assign(n_, 0);
  stats_.write_round.assign(n_, 0);
  // Exactly n messages can ever be written and every node list holds at most
  // n IDs; reserving up front makes a whole run (and every backtracked
  // re-write) allocation-free on the board and the node sets.
  board_.reserve(n_);
  write_order_.reserve(n_);
  candidates_.reserve(n_);
  activated_.reserve(n_);
  awake_.resize(n_);
  std::iota(awake_.begin(), awake_.end(), NodeId{1});
}

void EngineState::trace(TraceEvent::Kind kind, NodeId v) {
  if (opts_.record_trace) trace_.push_back(TraceEvent{round_, kind, v});
}

void EngineState::journal(UndoRecord::Kind kind, NodeId v) {
  if (journaling_) journal_.push_back(UndoRecord{kind, v});
}

void EngineState::set_journaling(bool on) {
  // Only a virgin state may start journaling: checkpoints reach exactly as
  // far back as the journal, so enabling after any round would let rewind()
  // silently cross into unrecorded history.
  WB_CHECK_MSG(!on || (journal_.empty() && round_ == 0),
               "enable journaling before the first begin_round()");
  journaling_ = on;
  if (!on) journal_.clear();
}

EngineState::Checkpoint EngineState::checkpoint() const {
  WB_CHECK_MSG(journaling_, "checkpoint() requires journaling");
  WB_CHECK_MSG(!terminal(), "checkpoint() of a terminal state");
  Checkpoint cp;
  cp.round = round_;
  cp.journal_size = journal_.size();
  cp.writes = stats_.writes;
  cp.board_count = board_.message_count();
  cp.max_message_bits = stats_.max_message_bits;
  cp.total_bits = stats_.total_bits;
  cp.trace_size = trace_.size();
  cp.wrote_this_round = wrote_this_round_;
  return cp;
}

void EngineState::rewind(const Checkpoint& cp) {
  WB_CHECK_MSG(journaling_, "rewind() requires journaling");
  WB_CHECK_MSG(cp.journal_size <= journal_.size(),
               "rewind() past an already-rewound checkpoint");
  // Undo the writes first: each writer is active and unwritten again, so it
  // rejoins the candidates (until an undone activation below removes it).
  while (write_order_.size() > cp.writes) {
    const NodeId v = write_order_.back();
    written_[v - 1] = false;
    if (!twin_written_.empty()) --twin_written_[twin_class_[v - 1]];
    stats_.write_round[v - 1] = 0;
    insert_sorted(candidates_, v);
    write_order_.pop_back();
  }
  // Then the journal, newest-first.
  while (journal_.size() > cp.journal_size) {
    const UndoRecord u = journal_.back();
    journal_.pop_back();
    switch (u.kind) {
      case UndoRecord::Kind::kActivate:
        state_[u.node - 1] = NodeState::kAwake;
        stats_.activation_round[u.node - 1] = 0;
        erase_sorted(candidates_, u.node);
        insert_sorted(awake_, u.node);
        break;
      case UndoRecord::Kind::kTerminate:
        state_[u.node - 1] = NodeState::kActive;
        break;
    }
  }
  board_.truncate(cp.board_count);
  round_ = cp.round;
  stats_.rounds = cp.round;
  stats_.writes = cp.writes;
  stats_.max_message_bits = cp.max_message_bits;
  stats_.total_bits = cp.total_bits;
  trace_.resize(cp.trace_size);
  wrote_this_round_ = cp.wrote_this_round;
  status_.reset();
  error_.clear();
}

bool EngineState::compose_checked(NodeId v, Bits& message) {
  // Defensive reset (a no-op after a well-behaved take()): the compose
  // contract hands the protocol an *empty* writer.
  compose_scratch_.reset();
  try {
    message = protocol_->compose(view_of(v), board_, compose_scratch_);
  } catch (const DataError& e) {
    // Fault firewall: under crash/corruption failure models the board can be
    // one the protocol never promised to decode. A robust decoder signals
    // that with DataError; turn it into a clean terminal status instead of
    // letting it abort the whole sweep.
    std::ostringstream os;
    os << "node " << v << " compose rejected the whiteboard: " << e.what();
    fail(RunStatus::kFault, os.str());
    return false;
  }
  const std::size_t limit = protocol_->message_bit_limit(n_);
  if (message.size() > limit) {
    std::ostringstream os;
    os << "node " << v << " composed " << message.size()
       << " bits, exceeding the declared bound of " << limit << " bits";
    fail(RunStatus::kMessageOverflow, os.str());
    return false;
  }
  return true;
}

void EngineState::begin_round() {
  if (terminal()) return;
  const NodeId writer = wrote_this_round_ ? write_order_.back() : kNoNode;
  ++round_;
  wrote_this_round_ = false;
  stats_.rounds = round_;
  if (round_ > opts_.max_rounds) {
    fail(RunStatus::kProtocolError, "round limit exceeded without progress");
    return;
  }

  // Phase 1: termination updates. Only last round's writer can be active
  // with its message on the board: every earlier writer terminated a round
  // after its write.
  if (writer != kNoNode) {
    state_[writer - 1] = NodeState::kTerminated;
    journal(UndoRecord::Kind::kTerminate, writer);
    trace(TraceEvent::Kind::kTerminate, writer);
  }

  // Phase 2: activations (+ asynchronous compositions). Everyone awake is
  // asked in round 1 and whenever the protocol claims no locality; otherwise
  // only the writer's awake neighbours can change last round's (false)
  // answer. Both walks are ascending, as a full rescan would be.
  activated_.clear();
  bool running = true;
  if (round_ == 1 || !locality_.activate_neighbor_local) {
    for (const NodeId v : awake_) {
      if (!(running = evaluate(v))) break;
    }
  } else if (writer != kNoNode) {
    for (const NodeId v : graph_->neighbors(writer)) {
      if (state_[v - 1] == NodeState::kAwake && !(running = evaluate(v))) {
        break;
      }
    }
  }
  // Even when the round failed mid-way, so the node sets stay exact.
  admit_activated();
  if (!running || !candidates_.empty()) return;
  if (stats_.writes == n_) {
    status_ = RunStatus::kSuccess;
  } else {
    // No node can write and — since the whiteboard can no longer change —
    // no awake node will ever activate: corrupted configuration.
    std::ostringstream os;
    os << "deadlock after " << stats_.writes << "/" << n_ << " writes";
    fail(RunStatus::kDeadlock, os.str());
  }
}

bool EngineState::evaluate(NodeId v) {
  const bool wants = activate_of(v);
  if (terminal()) return false;
  if (!wants) {
    if (round_ == 1 && is_simultaneous(model_)) {
      std::ostringstream os;
      os << "protocol declares a simultaneous class but node " << v
         << " did not activate in round 1";
      fail(RunStatus::kProtocolError, os.str());
      return false;
    }
    return true;
  }
  state_[v - 1] = NodeState::kActive;
  stats_.activation_round[v - 1] = round_;
  journal(UndoRecord::Kind::kActivate, v);
  trace(TraceEvent::Kind::kActivate, v);
  activated_.push_back(v);
  // Asynchronous classes: the message is created now and frozen.
  return !is_asynchronous(model_) || compose_checked(v, memory_[v - 1]);
}

void EngineState::admit_activated() {
  if (activated_.empty()) return;
  awake_.erase(std::remove_if(std::lower_bound(awake_.begin(), awake_.end(),
                                               activated_.front()),
                              awake_.end(),
                              [&](NodeId v) {
                                return state_[v - 1] != NodeState::kAwake;
                              }),
               awake_.end());
  // Merge the (ascending) activations into candidates_ back to front, in
  // place: the reserved capacity makes this allocation-free.
  std::size_t i = candidates_.size();
  std::size_t j = activated_.size();
  candidates_.resize(i + j);
  for (std::size_t k = candidates_.size(); j > 0;) {
    candidates_[--k] = (i > 0 && candidates_[i - 1] > activated_[j - 1])
                           ? candidates_[--i]
                           : activated_[--j];
  }
}

void EngineState::write(std::size_t index) {
  WB_CHECK(!terminal());
  WB_CHECK_MSG(index < candidates_.size(), "adversary chose a non-candidate");
  write_node(candidates_[index]);
}

void EngineState::write_node(NodeId v) {
  WB_CHECK(!terminal());
  WB_CHECK_MSG(v >= 1 && v <= n_ && state_[v - 1] == NodeState::kActive &&
                   !written_[v - 1],
               "write_node(" << v << "): not an active unwritten node");
  WB_CHECK_MSG(!wrote_this_round_,
               "one adversarial write per round: begin_round() first");
  wrote_this_round_ = true;
  Bits message;
  if (is_asynchronous(model_)) {
    message = memory_[v - 1];  // a copy: after a rewind it can be written again
  } else if (!compose_checked(v, message)) {
    return;  // the write itself ended the run; nothing reached the board
  }
  stats_.max_message_bits = std::max(stats_.max_message_bits, message.size());
  board_.append(std::move(message));
  stats_.total_bits = board_.total_bits();
  written_[v - 1] = true;
  if (!twin_written_.empty()) ++twin_written_[twin_class_[v - 1]];
  erase_sorted(candidates_, v);
  stats_.write_round[v - 1] = round_;
  ++stats_.writes;
  write_order_.push_back(v);
  trace(TraceEvent::Kind::kWrite, v);
}

bool EngineState::activate_of(NodeId v) {
  try {
    return protocol_->activate(view_of(v), board_);
  } catch (const DataError& e) {
    std::ostringstream os;
    os << "node " << v << " activate rejected the whiteboard: " << e.what();
    fail(RunStatus::kFault, os.str());
    return false;
  }
}

void EngineState::fail(RunStatus status, std::string error) {
  status_ = status;
  error_ = std::move(error);
}

void EngineState::finish_into(ExecutionResult& out) const {
  WB_CHECK_MSG(terminal(), "finish() before the run reached a terminal state");
  out.status = *status_;
  out.board = board_;  // O(1): shares the immutable message prefix
  out.stats = stats_;
  out.write_order = write_order_;
  out.error = error_;
  out.trace = trace_;
}

ExecutionResult EngineState::finish() const& {
  ExecutionResult r;
  finish_into(r);
  return r;
}

ExecutionResult EngineState::finish() && {
  WB_CHECK_MSG(terminal(), "finish() before the run reached a terminal state");
  ExecutionResult r;
  r.status = *status_;
  r.board = std::move(board_);
  r.stats = std::move(stats_);
  r.write_order = std::move(write_order_);
  r.error = std::move(error_);
  r.trace = std::move(trace_);
  return r;
}

Hash128 EngineState::memo_key() const {
  Hasher128 h;
  const Hash128 content = board_.content_hash();
  h.update(content.lo);
  h.update(content.hi);
  if (!twin_written_.empty()) {
    for (const std::uint32_t count : twin_written_) h.update(count);
    return h.digest();
  }
  // The written set, packed 64 nodes per word. Not derivable from the board
  // for protocols whose messages do not embed the writer's id.
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    if (written_[i]) word |= std::uint64_t{1} << (i % 64);
    if (i % 64 == 63) {
      h.update(word);
      word = 0;
    }
  }
  if (n_ % 64 != 0) h.update(word);
  return h.digest();
}

void EngineState::set_twin_classes(std::span<const std::uint32_t> class_of,
                                   std::size_t classes) {
  WB_CHECK_MSG(class_of.size() == n_ && write_order_.empty(),
               "set_twin_classes needs one class per node, before any write");
  twin_class_ = class_of;
  twin_written_.assign(classes, 0);
}

ExecutionResult run_protocol(const Graph& g, const Protocol& p, Adversary& adv,
                             EngineOptions opts) {
  adv.reset();
  EngineState s(g, p, opts);
  while (true) {
    s.begin_round();
    if (s.terminal()) return std::move(s).finish();
    const std::size_t pick =
        adv.choose(s.candidates(), s.board(), s.round());
    s.write(pick);
  }
}

ExecutionResult run_protocol(const Graph& g, const Protocol& p,
                             EngineOptions opts) {
  FirstAdversary adv;
  return run_protocol(g, p, adv, opts);
}

}  // namespace wb
