#include "src/cli/spec.h"

#include <charconv>
#include <fstream>
#include <string_view>

#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/support/check.h"
#include "src/sym/encode.h"

namespace wb::cli {

std::vector<std::string> split_spec(const std::string& spec) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = spec.find(':', start);
    if (pos == std::string::npos) {
      parts.push_back(spec.substr(start));
      return parts;
    }
    parts.push_back(spec.substr(start, pos - start));
    start = pos + 1;
  }
}

std::uint64_t parse_u64(const std::string& field, const std::string& what) {
  std::uint64_t value = 0;
  const auto* begin = field.data();
  const auto* end = begin + field.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  WB_REQUIRE_MSG(ec == std::errc{} && ptr == end,
                 "bad " << what << ": '" << field << "'");
  return value;
}

std::pair<std::uint64_t, std::uint64_t> parse_prob(const std::string& field) {
  const std::size_t slash = field.find('/');
  WB_REQUIRE_MSG(slash != std::string::npos,
                 "probability must be NUM/DEN, got '" << field << "'");
  const std::uint64_t num = parse_u64(field.substr(0, slash), "numerator");
  const std::uint64_t den = parse_u64(field.substr(slash + 1), "denominator");
  WB_REQUIRE_MSG(den > 0 && num <= den, "probability out of range: " << field);
  return {num, den};
}

namespace {

void expect_arity(const std::vector<std::string>& parts, std::size_t arity,
                  const char* usage) {
  WB_REQUIRE_MSG(parts.size() == arity, "expected spec " << usage);
}

}  // namespace

Graph graph_from_spec(const std::string& spec) {
  const auto parts = split_spec(spec);
  const std::string& kind = parts[0];
  if (kind == "file") {
    // The path may itself contain colons: take everything after "file:".
    WB_REQUIRE_MSG(spec.size() > 5, "file spec must be file:PATH");
    const std::string path = spec.substr(5);
    std::ifstream in(path, std::ios::binary);
    WB_REQUIRE_MSG(in.is_open(), "cannot open edge-list file '" << path << "'");
    return read_edge_list(in);
  }
  if (kind == "rmat") {
    expect_arity(parts, 4, "rmat:SCALE:EF:SEED");
    return rmat_graph(static_cast<int>(parse_u64(parts[1], "scale")),
                      parse_u64(parts[2], "edge factor"),
                      parse_u64(parts[3], "seed"));
  }
  if (kind == "powerlaw") {
    expect_arity(parts, 4, "powerlaw:N:EF:SEED");
    return random_power_law(parse_u64(parts[1], "N"),
                            parse_u64(parts[2], "edge factor"),
                            /*exponent=*/2.5, parse_u64(parts[3], "seed"));
  }
  if (kind == "path") {
    expect_arity(parts, 2, "path:N");
    return path_graph(parse_u64(parts[1], "N"));
  }
  if (kind == "cycle") {
    expect_arity(parts, 2, "cycle:N");
    return cycle_graph(parse_u64(parts[1], "N"));
  }
  if (kind == "complete") {
    expect_arity(parts, 2, "complete:N");
    return complete_graph(parse_u64(parts[1], "N"));
  }
  if (kind == "star") {
    expect_arity(parts, 2, "star:N");
    return star_graph(parse_u64(parts[1], "N"));
  }
  if (kind == "grid") {
    expect_arity(parts, 2, "grid:RxC");
    const std::size_t x = parts[1].find('x');
    WB_REQUIRE_MSG(x != std::string::npos, "grid spec must be grid:RxC");
    return grid_graph(parse_u64(parts[1].substr(0, x), "rows"),
                      parse_u64(parts[1].substr(x + 1), "cols"));
  }
  if (kind == "twocliques") {
    expect_arity(parts, 2, "twocliques:N");
    return two_cliques(parse_u64(parts[1], "N"));
  }
  if (kind == "switched") {
    expect_arity(parts, 2, "switched:N");
    return two_cliques_switched(parse_u64(parts[1], "N"));
  }
  if (kind == "tree") {
    expect_arity(parts, 3, "tree:N:SEED");
    return random_tree(parse_u64(parts[1], "N"), parse_u64(parts[2], "seed"));
  }
  if (kind == "forest") {
    expect_arity(parts, 4, "forest:N:PCT:SEED");
    return random_forest(parse_u64(parts[1], "N"),
                         static_cast<int>(parse_u64(parts[2], "percent")),
                         parse_u64(parts[3], "seed"));
  }
  if (kind == "kdeg") {
    expect_arity(parts, 5, "kdeg:N:K:PCT:SEED");
    return random_k_degenerate(parse_u64(parts[1], "N"),
                               static_cast<int>(parse_u64(parts[2], "K")),
                               static_cast<int>(parse_u64(parts[3], "percent")),
                               parse_u64(parts[4], "seed"));
  }
  if (kind == "gnp" || kind == "cgnp" || kind == "eob" || kind == "ceob") {
    expect_arity(parts, 4, "gnp:N:NUM/DEN:SEED");
    const std::uint64_t n = parse_u64(parts[1], "N");
    const auto [num, den] = parse_prob(parts[2]);
    const std::uint64_t seed = parse_u64(parts[3], "seed");
    if (kind == "gnp") return erdos_renyi(n, num, den, seed);
    if (kind == "cgnp") return connected_gnp(n, num, den, seed);
    if (kind == "eob") return random_even_odd_bipartite(n, num, den, seed);
    return connected_even_odd_bipartite(n, num, den, seed);
  }
  if (kind == "bipartite") {
    expect_arity(parts, 5, "bipartite:A:B:NUM/DEN:SEED");
    const auto [num, den] = parse_prob(parts[3]);
    return random_bipartite(parse_u64(parts[1], "A"), parse_u64(parts[2], "B"),
                            num, den, parse_u64(parts[4], "seed"));
  }
  WB_REQUIRE_MSG(false, "unknown graph kind '" << kind << "'\n"
                                               << graph_spec_help());
  return Graph(0);  // unreachable
}

std::unique_ptr<Adversary> adversary_from_spec(const std::string& spec,
                                               const Graph& g) {
  const auto parts = split_spec(spec);
  const std::string& kind = parts[0];
  if (kind == "first") return std::make_unique<FirstAdversary>();
  if (kind == "last") return std::make_unique<LastAdversary>();
  if (kind == "rotating") return std::make_unique<RotatingAdversary>();
  if (kind == "maxdeg") return std::make_unique<MaxDegreeAdversary>(g);
  if (kind == "mindeg") return std::make_unique<MinDegreeAdversary>(g);
  if (kind == "random") {
    expect_arity(parts, 2, "random:SEED");
    return std::make_unique<RandomAdversary>(parse_u64(parts[1], "seed"));
  }
  WB_REQUIRE_MSG(false, "unknown adversary '" << kind << "'\n"
                                              << adversary_spec_help());
  return nullptr;  // unreachable
}

bool is_exhaustive_spec(const std::string& spec) {
  return split_spec(spec)[0] == "exhaustive";
}

SweepSpec sweep_from_spec(const std::string& spec) {
  SweepSpec out;
  // The hll config itself contains a colon (hll:14), so `distinct=` is
  // defined as the final option: everything after it is the config text.
  std::string head = spec;
  constexpr std::string_view kDistinctKey = ":distinct=";
  const std::size_t distinct_pos = spec.find(kDistinctKey);
  if (distinct_pos != std::string::npos) {
    out.distinct =
        parse_distinct_config(spec.substr(distinct_pos + kDistinctKey.size()));
    head = spec.substr(0, distinct_pos);
  }
  // Fault specs contain colons too (crash:1, adaptive:SEED:TRIALS), so
  // `faults=` is the last option before distinct=: everything after it in
  // the remaining head is the fault spec text.
  constexpr std::string_view kFaultsKey = ":faults=";
  const std::size_t faults_pos = head.find(kFaultsKey);
  if (faults_pos != std::string::npos) {
    out.faults =
        parse_fault_spec(head.substr(faults_pos + kFaultsKey.size()));
    head = head.substr(0, faults_pos);
  }
  const auto parts = split_spec(head);
  WB_REQUIRE_MSG(parts[0] == "exhaustive",
                 "not an exhaustive spec: '" << spec << "'");
  constexpr std::string_view kShardsKey = "shards=";
  constexpr std::string_view kBudgetKey = "budget=";
  bool seen_shards = false;
  bool seen_budget = false;
  const auto reject_duplicate = [&](bool seen, const char* what) {
    WB_REQUIRE_MSG(!seen, "duplicate " << what << " in sweep spec '" << spec
                                       << "'");
  };
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const std::string& token = parts[i];
    if (token == "memoize") {
      reject_duplicate(out.memoize, "memoize option");
      out.memoize = true;
      continue;
    }
    if (token.starts_with(kShardsKey)) {
      reject_duplicate(seen_shards, "shards= option");
      seen_shards = true;
      out.shards = static_cast<std::size_t>(
          parse_u64(token.substr(kShardsKey.size()), "shard count"));
      WB_REQUIRE_MSG(out.shards >= 1, "shard count must be at least 1");
      continue;
    }
    if (token.starts_with(kBudgetKey)) {
      reject_duplicate(seen_budget, "budget= option");
      seen_budget = true;
      out.max_executions =
          parse_u64(token.substr(kBudgetKey.size()), "budget");
      WB_REQUIRE_MSG(out.max_executions >= 1, "budget must be at least 1");
      continue;
    }
    // A bare number is the thread count, and it must come first.
    WB_REQUIRE_MSG(
        i == 1 && !token.empty() &&
            token.find_first_not_of("0123456789") == std::string::npos,
        "expected exhaustive[:THREADS][:shards=K][:budget=N][:faults=F]"
        "[:distinct=exact|hll[:P]], got '"
            << spec << "'");
    out.threads = static_cast<std::size_t>(parse_u64(token, "threads"));
  }
  if (out.memoize) {
    // The memo table is a serial in-process structure, and its soundness
    // argument (board + written set determine the future) is fault-free.
    WB_REQUIRE_MSG(out.threads <= 1,
                   "memoized sweeps are serial — drop the thread count in '"
                       << spec << "'");
    WB_REQUIRE_MSG(out.shards == 0,
                   "memoize does not combine with shards= in '" << spec << "'");
    WB_REQUIRE_MSG(out.faults.kind == FaultKind::kNone,
                   "memoize does not combine with faults= in '" << spec << "'");
  }
  return out;
}

std::string format_sweep_spec(const SweepSpec& spec) {
  std::string out = "exhaustive";
  if (spec.threads != 0) out += ":" + std::to_string(spec.threads);
  if (spec.memoize) out += ":memoize";
  if (spec.shards != 0) out += ":shards=" + std::to_string(spec.shards);
  if (spec.max_executions != kDefaultSweepBudget) {
    out += ":budget=" + std::to_string(spec.max_executions);
  }
  if (spec.faults.kind != FaultKind::kNone) {
    out += ":faults=" + fault_spec_to_string(spec.faults);
  }
  if (!(spec.distinct == DistinctConfig{})) {
    out += ":distinct=" + to_string(spec.distinct);
  }
  return out;
}

bool is_symbolic_spec(const std::string& spec) {
  return split_spec(spec)[0] == "symbolic";
}

void symbolic_from_spec(const std::string& spec) {
  const auto parts = split_spec(spec);
  WB_REQUIRE_MSG(parts[0] == "symbolic",
                 "not a symbolic spec: '" << spec << "'");
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const std::string& token = parts[i];
    // Enumerator options get the typed refusal so callers (and exit codes)
    // can tell "the backend does not do this" from "you typo'd the spec".
    if (token.starts_with("faults=")) {
      throw sym::SymUnsupportedError(
          "fault models — the BDD transition relation is fault-free; use "
          "exhaustive:faults=...");
    }
    if (token.starts_with("distinct=")) {
      throw sym::SymUnsupportedError(
          "distinct= accumulators — the symbolic distinct count is exact by "
          "construction");
    }
    if (token.starts_with("budget=")) {
      throw sym::SymUnsupportedError(
          "budget= — no schedules are enumerated, so there is no execution "
          "budget to bound");
    }
    if (token.starts_with("shards=")) {
      throw sym::SymUnsupportedError(
          "shards= — the symbolic sweep is one in-process fixpoint");
    }
    if (!token.empty() &&
        token.find_first_not_of("0123456789") == std::string::npos) {
      throw sym::SymUnsupportedError(
          "thread counts — the symbolic sweep is one in-process fixpoint");
    }
    throw DataError("the symbolic backend takes no options, got '" + spec +
                    "'");
  }
}

std::string graph_spec_help() {
  return "graphs: path:N cycle:N complete:N star:N grid:RxC twocliques:N\n"
         "        switched:N tree:N:SEED forest:N:PCT:SEED kdeg:N:K:PCT:SEED\n"
         "        gnp:N:NUM/DEN:SEED cgnp:N:NUM/DEN:SEED eob:N:NUM/DEN:SEED\n"
         "        ceob:N:NUM/DEN:SEED bipartite:A:B:NUM/DEN:SEED\n"
         "        rmat:SCALE:EF:SEED powerlaw:N:EF:SEED file:PATH";
}

std::string adversary_spec_help() {
  return "adversaries: first last rotating maxdeg mindeg random:SEED";
}

}  // namespace wb::cli
