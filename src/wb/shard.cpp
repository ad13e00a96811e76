#include "src/wb/shard.h"

#include <charconv>
#include <memory>
#include <sstream>
#include <tuple>
#include <utility>

#include "src/support/check.h"

namespace wb::shard {

namespace {

// --- Text-format helpers -----------------------------------------------------

void append_hex16(std::string& out, std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(kDigits[(v >> shift) & 0xF]);
  }
}

/// Strict line cursor over one serialized document. Every field accessor
/// names the keyword it expects, so diagnostics read like
/// "shard spec line 7: expected 'task ...', got 'tsak 0 1 3'".
class LineParser {
 public:
  LineParser(const std::string& text, const char* what)
      : text_(&text), what_(what) {}

  /// Next line, which must start with `keyword` followed by a space or be
  /// exactly `keyword`; returns the remainder after the space ("" if none).
  std::string expect(const std::string& keyword) {
    const std::string line = next_line(keyword);
    if (line == keyword) return "";
    WB_REQUIRE_MSG(line.size() > keyword.size() &&
                       line.compare(0, keyword.size(), keyword) == 0 &&
                       line[keyword.size()] == ' ',
                   what_ << " line " << line_no_ << ": expected '" << keyword
                         << " ...', got '" << line << "'");
    return line.substr(keyword.size() + 1);
  }

  void expect_end() {
    const std::string line = next_line("end");
    WB_REQUIRE_MSG(line == "end", what_ << " line " << line_no_
                                        << ": expected 'end', got '" << line
                                        << "'");
    WB_REQUIRE_MSG(pos_ >= text_->size(),
                   what_ << " line " << line_no_ + 1
                         << ": trailing content after 'end'");
  }

  [[nodiscard]] std::size_t line_no() const noexcept { return line_no_; }
  [[nodiscard]] const char* what() const noexcept { return what_; }

 private:
  std::string next_line(const std::string& expected) {
    WB_REQUIRE_MSG(pos_ < text_->size(),
                   what_ << ": truncated — expected '" << expected
                         << "' but the input ended at line " << line_no_);
    const std::size_t nl = text_->find('\n', pos_);
    WB_REQUIRE_MSG(nl != std::string::npos,
                   what_ << " line " << line_no_ + 1
                         << ": missing final newline");
    std::string line = text_->substr(pos_, nl - pos_);
    pos_ = nl + 1;
    ++line_no_;
    return line;
  }

  const std::string* text_;
  const char* what_;
  std::size_t pos_ = 0;
  std::size_t line_no_ = 0;
};

/// Split a field payload on single spaces (no empties).
std::vector<std::string> split_fields(const std::string& payload) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= payload.size()) {
    const std::size_t sp = payload.find(' ', start);
    if (sp == std::string::npos) {
      out.push_back(payload.substr(start));
      break;
    }
    out.push_back(payload.substr(start, sp - start));
    start = sp + 1;
  }
  return out;
}

std::uint64_t parse_u64_field(const LineParser& lp, const std::string& field,
                             const char* name) {
  std::uint64_t value = 0;
  const char* begin = field.data();
  const char* end = begin + field.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  WB_REQUIRE_MSG(ec == std::errc{} && ptr == end && !field.empty(),
                 lp.what() << " line " << lp.line_no() << ": bad " << name
                           << " '" << field << "'");
  return value;
}

std::uint64_t parse_hex16_field(const LineParser& lp, const std::string& field,
                               const char* name) {
  std::uint64_t value = 0;
  const char* begin = field.data();
  const char* end = begin + field.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value, 16);
  WB_REQUIRE_MSG(field.size() == 16 && ec == std::errc{} && ptr == end,
                 lp.what() << " line " << lp.line_no() << ": bad " << name
                           << " '" << field << "' (want 16 hex digits)");
  return value;
}

Hash128 parse_hash_line(LineParser& lp, const std::string& keyword,
                        const char* name) {
  const auto fields = split_fields(lp.expect(keyword));
  WB_REQUIRE_MSG(fields.size() == 2,
                 lp.what() << " line " << lp.line_no() << ": expected '"
                           << keyword << " <lo> <hi>'");
  Hash128 h;
  h.lo = parse_hex16_field(lp, fields[0], name);
  h.hi = parse_hex16_field(lp, fields[1], name);
  return h;
}

void append_hash_line(std::string& out, const std::string& keyword,
                      const Hash128& h) {
  out += keyword;
  out.push_back(' ');
  append_hex16(out, h.lo);
  out.push_back(' ');
  append_hex16(out, h.hi);
  out.push_back('\n');
}

/// Version line: `<magic> v<kFormatVersion>`; any other version is skew.
void require_version_line(LineParser& lp, const std::string& magic) {
  const std::string version = lp.expect(magic);
  std::string expected = "v";
  expected += std::to_string(kFormatVersion);
  WB_REQUIRE_MSG(version == expected,
                 lp.what() << ": unsupported format version '" << version
                           << "' (this build reads v" << kFormatVersion
                           << ")");
}

DistinctConfig parse_distinct_field(const LineParser& lp,
                                    const std::string& payload) {
  try {
    return parse_distinct_config(payload);
  } catch (const DataError& e) {
    WB_REQUIRE_MSG(false, lp.what() << " line " << lp.line_no() << ": "
                                    << e.what());
  }
  return {};  // unreachable
}

FaultSpec parse_fault_field(const LineParser& lp, const std::string& payload) {
  try {
    return parse_fault_spec(payload);
  } catch (const DataError& e) {
    WB_REQUIRE_MSG(false, lp.what() << " line " << lp.line_no() << ": "
                                    << e.what());
  }
  return {};  // unreachable
}

/// Pack a byte string into the word-wise hasher (length-prefixed so
/// concatenations can't collide trivially).
void hash_bytes(Hasher128& h, const std::string& bytes) {
  h.update(bytes.size());
  std::uint64_t word = 0;
  int filled = 0;
  for (const unsigned char c : bytes) {
    word |= static_cast<std::uint64_t>(c) << (8 * filled);
    if (++filled == 8) {
      h.update(word);
      word = 0;
      filled = 0;
    }
  }
  if (filled != 0) h.update(word);
}

/// Fingerprint of everything shards of one plan agree on — the instance,
/// budget, engine options, distinct-accumulator config, shard count, fault
/// spec, and the *complete* partition. Two partitions of the same instance
/// (e.g. different tasks_per_shard), an exact and an hll plan, or two fault
/// specs of the same instance hash differently, so their shards can never be
/// merged into wrong (or silently mixed exact/approximate) totals.
Hash128 fingerprint_plan(const std::string& protocol_spec, const Graph& g,
                         const PlanOptions& opts, std::size_t shard_count,
                         std::span<const FaultTask> tasks) {
  Hasher128 h;
  hash_bytes(h, protocol_spec);
  h.update(g.node_count());
  h.update(g.edge_count());
  for (const Edge& e : g.edges()) {
    h.update((static_cast<std::uint64_t>(e.u) << 32) | e.v);
  }
  h.update(opts.max_executions);
  h.update(opts.engine.max_rounds);
  h.update(opts.engine.record_trace ? 1 : 0);
  h.update(static_cast<std::uint64_t>(opts.distinct.kind));
  h.update(opts.distinct.kind == DistinctKind::kHll
               ? static_cast<std::uint64_t>(opts.distinct.hll_precision)
               : 0);
  h.update(shard_count);
  hash_bytes(h, fault_spec_to_string(opts.faults));
  h.update(tasks.size());
  for (const FaultTask& t : tasks) {
    h.update(t.world);
    h.update(t.prefix.depth);
    for (const NodeId v : t.prefix.prefix()) h.update(v);
  }
  return h.digest();
}

/// A `shard <index> <count>` payload: count in 1..kMaxShards, index below it.
std::pair<std::uint32_t, std::uint32_t> parse_shard_coordinates(
    const LineParser& lp, const std::string& payload) {
  const auto fields = split_fields(payload);
  WB_REQUIRE_MSG(fields.size() == 2,
                 lp.what() << " line " << lp.line_no()
                           << ": expected 'shard <index> <count>'");
  const std::uint64_t index = parse_u64_field(lp, fields[0], "shard index");
  const std::uint64_t count = parse_u64_field(lp, fields[1], "shard count");
  WB_REQUIRE_MSG(count >= 1 && count <= kMaxShards && index < count,
                 lp.what() << " line " << lp.line_no() << ": shard " << index
                           << " of " << count << " is out of range (at most "
                           << kMaxShards << " shards)");
  return {static_cast<std::uint32_t>(index), static_cast<std::uint32_t>(count)};
}

/// A `task <world> <depth> <node>...` line: world below `worlds`, every node
/// id in 1..n.
FaultTask parse_task(const LineParser& lp, const std::string& payload,
                     std::uint64_t n, std::uint64_t worlds) {
  const auto fields = split_fields(payload);
  WB_REQUIRE_MSG(fields.size() >= 2,
                 "shard spec line " << lp.line_no()
                                    << ": expected 'task <world> <depth> "
                                       "<node>...'");
  FaultTask task;
  task.world = parse_u64_field(lp, fields[0], "fault world");
  WB_REQUIRE_MSG(task.world < worlds,
                 "shard spec line " << lp.line_no() << ": fault world "
                                    << task.world << " out of range 0.."
                                    << worlds - 1);
  PrefixTask& prefix = task.prefix;
  prefix.depth = static_cast<std::size_t>(
      parse_u64_field(lp, fields[1], "prefix depth"));
  WB_REQUIRE_MSG(prefix.depth <= prefix.decision.size(),
                 "shard spec line " << lp.line_no() << ": prefix depth "
                                    << prefix.depth << " exceeds the maximum "
                                    << prefix.decision.size());
  WB_REQUIRE_MSG(fields.size() == 2 + prefix.depth,
                 "shard spec line "
                     << lp.line_no() << ": prefix of depth " << prefix.depth
                     << " must carry exactly " << prefix.depth << " node ids");
  for (std::size_t d = 0; d < prefix.depth; ++d) {
    const std::uint64_t v =
        parse_u64_field(lp, fields[2 + d], "prefix node");
    WB_REQUIRE_MSG(v >= 1 && v <= n, "shard spec line "
                                         << lp.line_no() << ": prefix node "
                                         << v << " out of range 1.." << n);
    prefix.decision[d] = static_cast<NodeId>(v);
  }
  return task;
}

/// Cap an untrusted entry count before vector::reserve: every serialized
/// entry occupies at least one byte of the document, so a count past the
/// input length is certainly lying and would otherwise turn a corrupted
/// file into a giant allocation (std::bad_alloc) instead of the parse error
/// the per-line reader reports.
std::size_t clamped_reserve(std::uint64_t declared, const std::string& text) {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(declared, text.size()));
}

/// Register block of an hll result: 2^p bytes, hex-encoded 64 bytes per
/// `reg` line (so a p = 14 sketch is 256 lines of 128 hex digits).
constexpr std::size_t kRegistersPerLine = 64;

void append_register_block(std::string& out,
                           std::span<const std::uint8_t> registers) {
  static constexpr char kDigits[] = "0123456789abcdef";
  out += "registers " + std::to_string(registers.size()) + "\n";
  for (std::size_t start = 0; start < registers.size();
       start += kRegistersPerLine) {
    const std::size_t count =
        std::min(kRegistersPerLine, registers.size() - start);
    out += "reg ";
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint8_t byte = registers[start + i];
      out.push_back(kDigits[byte >> 4]);
      out.push_back(kDigits[byte & 0xF]);
    }
    out.push_back('\n');
  }
}

HyperLogLog parse_register_block(LineParser& lp, int precision) {
  const std::uint64_t declared =
      parse_u64_field(lp, lp.expect("registers"), "register count");
  const std::size_t expected = std::size_t{1} << precision;
  WB_REQUIRE_MSG(declared == expected,
                 lp.what() << " line " << lp.line_no() << ": " << declared
                           << " registers, but precision " << precision
                           << " has " << expected);
  std::vector<std::uint8_t> registers;
  registers.reserve(expected);
  while (registers.size() < expected) {
    const std::size_t count =
        std::min(kRegistersPerLine, expected - registers.size());
    const std::string payload = lp.expect("reg");
    WB_REQUIRE_MSG(payload.size() == 2 * count,
                   lp.what() << " line " << lp.line_no()
                             << ": register line of " << payload.size()
                             << " hex digits, expected " << 2 * count);
    for (std::size_t i = 0; i < count; ++i) {
      const auto nibble = [&](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        WB_REQUIRE_MSG(false, lp.what() << " line " << lp.line_no()
                                        << ": bad hex digit '" << c
                                        << "' in register line");
        return 0;  // unreachable
      };
      registers.push_back(static_cast<std::uint8_t>(
          (nibble(payload[2 * i]) << 4) | nibble(payload[2 * i + 1])));
    }
  }
  try {
    return HyperLogLog::from_registers(precision, registers);
  } catch (const DataError& e) {
    WB_REQUIRE_MSG(false, lp.what() << " line " << lp.line_no() << ": "
                                    << e.what());
  }
  return HyperLogLog(precision);  // unreachable
}

}  // namespace

Hash128 hash_document(const std::string& text) {
  Hasher128 h;
  hash_bytes(h, text);
  return h.digest();
}

std::vector<ShardSpec> plan_shards(const Graph& g, const Protocol& p,
                                   const std::string& protocol_spec,
                                   std::size_t shard_count,
                                   const PlanOptions& opts) {
  WB_REQUIRE_MSG(shard_count >= 1 && shard_count <= kMaxShards,
                 "shard count " << shard_count << " is out of range 1.."
                                << kMaxShards);
  WB_REQUIRE_MSG(g.node_count() <= kMaxGraphNodes,
                 "graph of " << g.node_count() << " nodes exceeds the cap of "
                             << kMaxGraphNodes);
  // Adaptive plans carry no partition: shard k of K runs trial indices
  // k, k+K, k+2K, ... — the stride split run_shard derives from the shard
  // coordinates, which merges to exactly the single-stream trial set.
  const std::vector<FaultTask> tasks =
      opts.faults.kind == FaultKind::kAdaptive
          ? std::vector<FaultTask>{}
          : partition_fault_tasks(
                g, p, opts.faults, opts.engine,
                shard_count * std::max<std::size_t>(1, opts.tasks_per_shard));
  const Hash128 plan =
      fingerprint_plan(protocol_spec, g, opts, shard_count, tasks);
  std::vector<ShardSpec> specs(shard_count);
  for (std::size_t k = 0; k < shard_count; ++k) {
    specs[k].protocol_spec = protocol_spec;
    specs[k].graph = g;
    specs[k].max_executions = opts.max_executions;
    specs[k].engine = opts.engine;
    specs[k].distinct = opts.distinct;
    specs[k].plan = plan;
    specs[k].shard_index = static_cast<std::uint32_t>(k);
    specs[k].shard_count = static_cast<std::uint32_t>(shard_count);
    specs[k].faults = opts.faults;
  }
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    specs[t % shard_count].tasks.push_back(tasks[t]);
  }
  return specs;
}

ShardManifest make_manifest(std::span<const ShardSpec> specs) {
  WB_REQUIRE_MSG(!specs.empty(), "no shard specs to index");
  const ShardSpec& first = specs.front();
  WB_REQUIRE_MSG(specs.size() == first.shard_count,
                 "manifest needs the complete plan: got " << specs.size()
                                                          << " specs of "
                                                          << first.shard_count);
  ShardManifest manifest;
  manifest.plan = first.plan;
  manifest.shard_count = first.shard_count;
  manifest.max_executions = first.max_executions;
  manifest.distinct = first.distinct;
  manifest.spec_hashes.reserve(specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    WB_REQUIRE_MSG(specs[k].plan == first.plan,
                   "spec " << k << " belongs to a different plan");
    WB_REQUIRE_MSG(specs[k].shard_index == k,
                   "manifest needs specs in shard order: index "
                       << specs[k].shard_index << " at position " << k);
    manifest.spec_hashes.push_back(hash_document(serialize(specs[k])));
  }
  return manifest;
}

std::string serialize(const ShardSpec& spec) {
  std::ostringstream os;
  os << "wbshard-spec v" << kFormatVersion << "\n";
  os << "protocol " << spec.protocol_spec << "\n";
  os << "graph " << spec.graph.node_count() << " " << spec.graph.edge_count()
     << "\n";
  for (const Edge& e : spec.graph.edges()) {
    os << "edge " << e.u << " " << e.v << "\n";
  }
  os << "max-executions " << spec.max_executions << "\n";
  os << "faults " << fault_spec_to_string(spec.faults) << "\n";
  os << "engine " << spec.engine.max_rounds << " "
     << (spec.engine.record_trace ? 1 : 0) << "\n";
  os << "distinct " << to_string(spec.distinct) << "\n";
  std::string plan_line;
  append_hash_line(plan_line, "plan", spec.plan);
  os << plan_line;
  os << "shard " << spec.shard_index << " " << spec.shard_count << "\n";
  os << "tasks " << spec.tasks.size() << "\n";
  for (const FaultTask& t : spec.tasks) {
    os << "task " << t.world << " " << t.prefix.depth;
    for (const NodeId v : t.prefix.prefix()) os << " " << v;
    os << "\n";
  }
  os << "end\n";
  return os.str();
}

ShardSpec parse_shard_spec(const std::string& text) {
  LineParser lp(text, "shard spec");
  require_version_line(lp, "wbshard-spec");
  ShardSpec spec;

  spec.protocol_spec = lp.expect("protocol");
  WB_REQUIRE_MSG(!spec.protocol_spec.empty(),
                 "shard spec line " << lp.line_no() << ": empty protocol spec");

  const auto graph_fields = split_fields(lp.expect("graph"));
  WB_REQUIRE_MSG(graph_fields.size() == 2,
                 "shard spec line " << lp.line_no()
                                    << ": expected 'graph <n> <m>'");
  const std::uint64_t n = parse_u64_field(lp, graph_fields[0], "node count");
  const std::uint64_t m = parse_u64_field(lp, graph_fields[1], "edge count");
  WB_REQUIRE_MSG(n <= kMaxGraphNodes,
                 "shard spec line " << lp.line_no() << ": node count " << n
                                    << " exceeds the cap of " << kMaxGraphNodes);
  std::vector<Edge> edges;
  edges.reserve(clamped_reserve(m, text));
  for (std::uint64_t i = 0; i < m; ++i) {
    const auto ef = split_fields(lp.expect("edge"));
    WB_REQUIRE_MSG(ef.size() == 2, "shard spec line "
                                       << lp.line_no()
                                       << ": expected 'edge <u> <v>'");
    const std::uint64_t u = parse_u64_field(lp, ef[0], "edge endpoint");
    const std::uint64_t v = parse_u64_field(lp, ef[1], "edge endpoint");
    WB_REQUIRE_MSG(u >= 1 && v >= 1 && u <= n && v <= n && u != v,
                   "shard spec line " << lp.line_no() << ": bad edge {" << u
                                      << "," << v << "} on " << n << " nodes");
    const Edge e = make_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
    // The serializer writes the graph's sorted edge list, so a repeated or
    // out-of-order edge is a corrupted document.
    WB_REQUIRE_MSG(edges.empty() || edges.back() < e,
                   "shard spec line " << lp.line_no()
                                      << ": edges must be strictly increasing");
    edges.push_back(e);
  }
  spec.graph = Graph(static_cast<std::size_t>(n), edges);

  spec.max_executions =
      parse_u64_field(lp, lp.expect("max-executions"), "max-executions");
  spec.faults = parse_fault_field(lp, lp.expect("faults"));

  const auto engine_fields = split_fields(lp.expect("engine"));
  WB_REQUIRE_MSG(engine_fields.size() == 2,
                 "shard spec line "
                     << lp.line_no()
                     << ": expected 'engine <max-rounds> <record-trace>'");
  spec.engine.max_rounds = static_cast<std::size_t>(
      parse_u64_field(lp, engine_fields[0], "engine max-rounds"));
  const std::uint64_t trace =
      parse_u64_field(lp, engine_fields[1], "engine record-trace");
  WB_REQUIRE_MSG(trace <= 1, "shard spec line "
                                 << lp.line_no()
                                 << ": record-trace must be 0 or 1");
  spec.engine.record_trace = trace == 1;

  spec.distinct = parse_distinct_field(lp, lp.expect("distinct"));

  spec.plan = parse_hash_line(lp, "plan", "plan hash");

  std::tie(spec.shard_index, spec.shard_count) =
      parse_shard_coordinates(lp, lp.expect("shard"));

  // Adaptive specs sample trials and carry no tasks; every other kind's
  // tasks name one of its exhaustive fault worlds.
  std::uint64_t worlds = 0;
  if (spec.faults.kind == FaultKind::kCrash) {
    try {
      worlds = crash_world_count(spec.graph.node_count(), spec.faults.crash_f);
    } catch (const std::exception& e) {
      WB_REQUIRE_MSG(false, "shard spec line " << lp.line_no() << ": "
                                               << e.what());
    }
  } else if (spec.faults.kind != FaultKind::kAdaptive) {
    worlds = 1;
  }
  const std::uint64_t task_count =
      parse_u64_field(lp, lp.expect("tasks"), "task count");
  WB_REQUIRE_MSG(worlds > 0 || task_count == 0,
                 "shard spec line " << lp.line_no()
                                    << ": adaptive specs carry no tasks");
  spec.tasks.reserve(clamped_reserve(task_count, text));
  for (std::uint64_t i = 0; i < task_count; ++i) {
    spec.tasks.push_back(parse_task(lp, lp.expect("task"), n, worlds));
  }
  lp.expect_end();
  return spec;
}

std::string serialize(const ShardResult& result) {
  std::string out = "wbshard-result v" + std::to_string(kFormatVersion) + "\n";
  append_hash_line(out, "plan", result.plan);
  out += "shard " + std::to_string(result.shard_index) + " " +
         std::to_string(result.shard_count) + "\n";
  out += "max-executions " + std::to_string(result.max_executions) + "\n";
  out += "faults " + fault_spec_to_string(result.faults) + "\n";
  out += "executions " + std::to_string(result.executions) + "\n";
  out += "engine-failures " + std::to_string(result.engine_failures) + "\n";
  out += "wrong-outputs " + std::to_string(result.wrong_outputs) + "\n";
  out += std::string("budget-exceeded ") +
         (result.budget_exceeded ? "1" : "0") + "\n";
  out += "distinct-kind " + to_string(result.distinct) + "\n";
  if (result.distinct.kind == DistinctKind::kExact) {
    out += "distinct " + std::to_string(result.board_hashes.size()) + "\n";
    for (const Hash128& h : result.board_hashes) {
      append_hash_line(out, "hash", h);
    }
  } else {
    // A cleared (budget-exceeded) hll result serializes an all-zero sketch,
    // so the document stays deterministic and self-contained.
    const HyperLogLog empty{result.distinct.hll_precision};
    const HyperLogLog& sketch = result.hll.has_value() ? *result.hll : empty;
    append_register_block(out, sketch.registers());
  }
  out += "end\n";
  return out;
}

ShardResult parse_shard_result(const std::string& text) {
  LineParser lp(text, "shard result");
  require_version_line(lp, "wbshard-result");
  ShardResult result;

  result.plan = parse_hash_line(lp, "plan", "plan hash");

  std::tie(result.shard_index, result.shard_count) =
      parse_shard_coordinates(lp, lp.expect("shard"));

  result.max_executions =
      parse_u64_field(lp, lp.expect("max-executions"), "max-executions");

  result.faults = parse_fault_field(lp, lp.expect("faults"));

  result.executions =
      parse_u64_field(lp, lp.expect("executions"), "executions");
  result.engine_failures =
      parse_u64_field(lp, lp.expect("engine-failures"), "engine-failures");
  result.wrong_outputs =
      parse_u64_field(lp, lp.expect("wrong-outputs"), "wrong-outputs");
  WB_REQUIRE_MSG(result.engine_failures <= result.executions &&
                     result.wrong_outputs <=
                         result.executions - result.engine_failures,
                 "shard result line "
                     << lp.line_no() << ": " << result.engine_failures
                     << " engine failures + " << result.wrong_outputs
                     << " wrong outputs exceed " << result.executions
                     << " executions");
  const std::uint64_t exceeded =
      parse_u64_field(lp, lp.expect("budget-exceeded"), "budget-exceeded");
  WB_REQUIRE_MSG(exceeded <= 1, "shard result line "
                                    << lp.line_no()
                                    << ": budget-exceeded must be 0 or 1");
  result.budget_exceeded = exceeded == 1;

  result.distinct = parse_distinct_field(lp, lp.expect("distinct-kind"));

  if (result.distinct.kind == DistinctKind::kExact) {
    const std::uint64_t distinct =
        parse_u64_field(lp, lp.expect("distinct"), "distinct count");
    WB_REQUIRE_MSG(distinct <= result.executions,
                   "shard result line " << lp.line_no() << ": " << distinct
                                        << " distinct boards exceed "
                                        << result.executions << " executions");
    result.board_hashes.reserve(clamped_reserve(distinct, text));
    for (std::uint64_t i = 0; i < distinct; ++i) {
      const Hash128 h = parse_hash_line(lp, "hash", "board hash");
      WB_REQUIRE_MSG(
          result.board_hashes.empty() || result.board_hashes.back() < h,
          "shard result line " << lp.line_no()
                               << ": board hashes must be strictly increasing");
      result.board_hashes.push_back(h);
    }
  } else {
    result.hll = parse_register_block(lp, result.distinct.hll_precision);
  }
  lp.expect_end();
  return result;
}

std::string serialize(const ShardManifest& manifest) {
  std::string out =
      "wbshard-manifest v" + std::to_string(kFormatVersion) + "\n";
  append_hash_line(out, "plan", manifest.plan);
  out += "shards " + std::to_string(manifest.shard_count) + "\n";
  out += "max-executions " + std::to_string(manifest.max_executions) + "\n";
  out += "distinct " + to_string(manifest.distinct) + "\n";
  for (const Hash128& h : manifest.spec_hashes) {
    append_hash_line(out, "spec", h);
  }
  out += "end\n";
  return out;
}

ShardManifest parse_shard_manifest(const std::string& text) {
  LineParser lp(text, "shard manifest");
  require_version_line(lp, "wbshard-manifest");
  ShardManifest manifest;
  manifest.plan = parse_hash_line(lp, "plan", "plan hash");
  const std::uint64_t shards =
      parse_u64_field(lp, lp.expect("shards"), "shard count");
  WB_REQUIRE_MSG(shards >= 1 && shards <= kMaxShards,
                 "shard manifest line " << lp.line_no() << ": shard count "
                                        << shards << " is out of range 1.."
                                        << kMaxShards);
  manifest.shard_count = static_cast<std::uint32_t>(shards);
  manifest.max_executions =
      parse_u64_field(lp, lp.expect("max-executions"), "max-executions");
  manifest.distinct = parse_distinct_field(lp, lp.expect("distinct"));
  manifest.spec_hashes.reserve(
      clamped_reserve(manifest.shard_count, text));
  for (std::uint32_t k = 0; k < manifest.shard_count; ++k) {
    manifest.spec_hashes.push_back(parse_hash_line(lp, "spec", "spec hash"));
  }
  lp.expect_end();
  return manifest;
}

ShardResult run_shard(const ShardSpec& spec, const Protocol& p,
                      const FaultClassifier& classify, std::size_t threads) {
  WB_CHECK_MSG(classify != nullptr, "run_shard needs a fault classifier");
  ShardResult out;
  out.plan = spec.plan;
  out.shard_index = spec.shard_index;
  out.shard_count = spec.shard_count;
  out.max_executions = spec.max_executions;
  out.distinct = spec.distinct;
  out.faults = spec.faults;

  SweepTotals totals;
  try {
    if (spec.faults.kind == FaultKind::kAdaptive) {
      // Statistical mode: this shard runs its stride of the trial index
      // space.
      StatisticalOptions sopts;
      sopts.trials = spec.faults.trials;
      sopts.seed = spec.faults.seed;
      sopts.stride = spec.shard_count;
      sopts.offset = spec.shard_index;
      sopts.threads = threads;
      sopts.engine = spec.engine;
      totals =
          run_statistical_verdict(spec.graph, p, spec.faults, classify, sopts);
    } else {
      ExhaustiveOptions opts;
      opts.max_executions = spec.max_executions;
      opts.threads = threads;
      opts.distinct = spec.distinct;
      opts.engine = spec.engine;
      totals = sweep(spec.graph, p, spec.faults, spec.tasks, classify, opts);
    }
  } catch (const BudgetExceededError&) {
    // Exactly max_executions visits completed before the guard fired; which
    // ones is scheduling-dependent, so every schedule-dependent field is
    // cleared — the result file is deterministic, and the merge turns the
    // flag back into the oracle's BudgetExceededError.
    out.budget_exceeded = true;
    out.executions = spec.max_executions;
  }
  if (!out.budget_exceeded) {
    out.executions = totals.executions;
    out.engine_failures = totals.engine_failures;
    out.wrong_outputs = totals.wrong_outputs;
  }
  if (totals.distinct == nullptr) {
    // Cleared or statistical: an empty payload of the plan's kind.
    if (spec.distinct.kind == DistinctKind::kHll) {
      out.hll = HyperLogLog(spec.distinct.hll_precision);
    }
  } else if (spec.distinct.kind == DistinctKind::kExact) {
    out.board_hashes =
        static_cast<ExactDistinctAccumulator&>(*totals.distinct).take_sorted();
  } else {
    out.hll =
        static_cast<HllDistinctAccumulator&>(*totals.distinct).take_sketch();
  }
  return out;
}

MergedResult merge_shard_results(std::span<const ShardResult> results) {
  WB_REQUIRE_MSG(!results.empty(), "no shard results to merge");
  const ShardResult& first = results.front();
  std::vector<bool> seen(first.shard_count, false);
  std::vector<SweepTotals> parts(results.size());
  bool exceeded = false;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ShardResult& r = results[i];
    WB_REQUIRE_MSG(r.distinct == first.distinct,
                   "shard " << r.shard_index
                            << " counts distinct boards with "
                            << to_string(r.distinct) << ", expected "
                            << to_string(first.distinct)
                            << " — refusing to merge exact and approximate "
                               "artifacts");
    WB_REQUIRE_MSG(r.faults == first.faults,
                   "shard " << r.shard_index << " ran fault model '"
                            << fault_spec_to_string(r.faults)
                            << "', expected '"
                            << fault_spec_to_string(first.faults)
                            << "' — refusing to merge");
    WB_REQUIRE_MSG(r.plan == first.plan,
                   "shard " << r.shard_index
                            << " belongs to a different plan (fingerprint "
                               "mismatch) — refusing to merge");
    WB_REQUIRE_MSG(r.shard_count == first.shard_count,
                   "shard " << r.shard_index << " claims " << r.shard_count
                            << " shards, expected " << first.shard_count);
    WB_REQUIRE_MSG(r.shard_index < first.shard_count,
                   "shard index " << r.shard_index << " out of range");
    WB_REQUIRE_MSG(!seen[r.shard_index],
                   "duplicate result for shard " << r.shard_index);
    seen[r.shard_index] = true;
    exceeded = exceeded || r.budget_exceeded;
    SweepTotals& part = parts[i];
    part.executions = r.executions;
    part.engine_failures = r.engine_failures;
    part.wrong_outputs = r.wrong_outputs;
    if (first.distinct.kind == DistinctKind::kExact) {
      part.distinct = std::make_unique<ExactDistinctAccumulator>(
          ExactDistinctAccumulator::from_sorted(r.board_hashes));
    } else {
      WB_REQUIRE_MSG(r.hll.has_value(),
                     "shard " << r.shard_index
                              << " declares an hll distinct payload but "
                                 "carries no register block");
      part.distinct = std::make_unique<HllDistinctAccumulator>(*r.hll);
    }
  }
  for (std::uint32_t k = 0; k < first.shard_count; ++k) {
    WB_REQUIRE_MSG(seen[k], "missing result for shard " << k << " of "
                                                        << first.shard_count);
  }
  const SweepTotals totals = SweepTotals::merge(std::move(parts));
  // Adaptive sweeps count trials, not exhaustive visits — their trial
  // budget is the fault spec's, not max_executions.
  if (first.faults.kind != FaultKind::kAdaptive &&
      (exceeded || totals.executions > first.max_executions)) {
    throw BudgetExceededError(first.max_executions);
  }
  MergedResult merged;
  merged.shard_count = first.shard_count;
  merged.executions = totals.executions;
  merged.engine_failures = totals.engine_failures;
  merged.wrong_outputs = totals.wrong_outputs;
  merged.distinct_boards = totals.distinct->estimate();
  merged.distinct = first.distinct;
  merged.faults = first.faults;
  return merged;
}

}  // namespace wb::shard
