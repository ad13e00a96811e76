#include "src/cli/spec.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>

#include "src/cli/runners.h"
#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/sym/encode.h"

namespace wb::cli {
namespace {

TEST(SplitSpec, Basics) {
  EXPECT_EQ(split_spec("a:b:c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_spec("solo"), (std::vector<std::string>{"solo"}));
  EXPECT_EQ(split_spec("x:"), (std::vector<std::string>{"x", ""}));
}

TEST(ParseU64, AcceptsNumbersRejectsJunk) {
  EXPECT_EQ(parse_u64("42", "n"), 42u);
  EXPECT_EQ(parse_u64("0", "n"), 0u);
  EXPECT_THROW((void)parse_u64("", "n"), DataError);
  EXPECT_THROW((void)parse_u64("4x", "n"), DataError);
  EXPECT_THROW((void)parse_u64("-3", "n"), DataError);
}

/// `parse` must throw a DataError whose message names `field`.
void expect_refusal_naming(const std::function<void()>& parse,
                           const std::string& field) {
  try {
    parse();
    ADD_FAILURE() << "accepted a value past the " << field << " range";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(ParseU64, NarrowedFieldsRefuseValuesPastTheirType) {
  EXPECT_EQ(parse_u64_at_most("100", "percent", 100), 100u);
  EXPECT_EQ(parse_int("2147483647", "K"), 2147483647);
  expect_refusal_naming([] { (void)parse_u64_at_most("101", "percent", 100); },
                        "percent");
  // 2^31 and 2^32 + 2 would wrap to a negative or a small int.
  expect_refusal_naming([] { (void)parse_int("2147483648", "K"); }, "K");
  expect_refusal_naming([] { (void)parse_int("4294967298", "K"); }, "K");
}

TEST(ParseProb, FractionsValidated) {
  EXPECT_EQ(parse_prob("1/4"), (std::pair<std::uint64_t, std::uint64_t>{1, 4}));
  EXPECT_THROW((void)parse_prob("5"), DataError);
  EXPECT_THROW((void)parse_prob("3/2"), DataError);  // > 1
  EXPECT_THROW((void)parse_prob("1/0"), DataError);
}

TEST(SweepSpec, ParsesThreadsAndShardForms) {
  EXPECT_TRUE(is_exhaustive_spec("exhaustive"));
  EXPECT_TRUE(is_exhaustive_spec("exhaustive:4"));
  EXPECT_TRUE(is_exhaustive_spec("exhaustive:shards=2"));
  EXPECT_FALSE(is_exhaustive_spec("battery"));
  EXPECT_FALSE(is_exhaustive_spec("first"));

  SweepSpec spec = sweep_from_spec("exhaustive");
  EXPECT_EQ(spec.threads, 0u);
  EXPECT_EQ(spec.shards, 0u);
  EXPECT_EQ(spec.max_executions, kDefaultSweepBudget);

  spec = sweep_from_spec("exhaustive:3");
  EXPECT_EQ(spec.threads, 3u);
  EXPECT_EQ(spec.shards, 0u);

  spec = sweep_from_spec("exhaustive:shards=4");
  EXPECT_EQ(spec.threads, 0u);
  EXPECT_EQ(spec.shards, 4u);

  // Canonical order: THREADS before shards=.
  spec = sweep_from_spec("exhaustive:2:shards=4");
  EXPECT_EQ(spec.threads, 2u);
  EXPECT_EQ(spec.shards, 4u);

  // A thread count after another option is refused (no legacy order).
  EXPECT_THROW((void)sweep_from_spec("exhaustive:shards=4:2"), DataError);
  EXPECT_THROW((void)sweep_from_spec("exhaustive:budget=9:2"), DataError);

  EXPECT_THROW((void)sweep_from_spec("exhaustive:shards=0"), DataError);
  EXPECT_THROW((void)sweep_from_spec("exhaustive:shards=x"), DataError);
  EXPECT_THROW((void)sweep_from_spec("exhaustive:1:2"), DataError);
  EXPECT_THROW((void)sweep_from_spec("exhaustive:shards=2:1:0"), DataError);
  EXPECT_THROW((void)sweep_from_spec("exhaustive:shards=2:shards=3"),
               DataError);
  EXPECT_THROW((void)sweep_from_spec("exhaustive:bogus"), DataError);
  EXPECT_THROW((void)sweep_from_spec("battery"), DataError);
}

TEST(SweepSpec, ParsesTheBudgetOption) {
  SweepSpec spec = sweep_from_spec("exhaustive:budget=100000");
  EXPECT_EQ(spec.max_executions, 100000u);
  EXPECT_EQ(spec.threads, 0u);

  spec = sweep_from_spec("exhaustive:1:shards=4:budget=5000");
  EXPECT_EQ(spec.threads, 1u);
  EXPECT_EQ(spec.shards, 4u);
  EXPECT_EQ(spec.max_executions, 5000u);

  EXPECT_THROW((void)sweep_from_spec("exhaustive:budget=0"), DataError);
  EXPECT_THROW((void)sweep_from_spec("exhaustive:budget="), DataError);
  EXPECT_THROW((void)sweep_from_spec("exhaustive:budget=1:budget=2"),
               DataError);
}

TEST(SweepSpec, ParsesTheTrailingDistinctOption) {
  // distinct= is the final option of any exhaustive form (the hll config
  // itself contains a colon, so it cannot sit in the middle).
  SweepSpec spec = sweep_from_spec("exhaustive");
  EXPECT_EQ(spec.distinct, DistinctConfig::Exact());

  spec = sweep_from_spec("exhaustive:distinct=hll:14");
  EXPECT_EQ(spec.threads, 0u);
  EXPECT_EQ(spec.shards, 0u);
  EXPECT_EQ(spec.distinct, DistinctConfig::Hll(14));

  spec = sweep_from_spec("exhaustive:distinct=hll");
  EXPECT_EQ(spec.distinct, DistinctConfig::Hll());

  spec = sweep_from_spec("exhaustive:1:distinct=hll:8");
  EXPECT_EQ(spec.threads, 1u);
  EXPECT_EQ(spec.distinct, DistinctConfig::Hll(8));

  spec = sweep_from_spec("exhaustive:shards=4:distinct=exact");
  EXPECT_EQ(spec.shards, 4u);
  EXPECT_EQ(spec.distinct, DistinctConfig::Exact());

  spec = sweep_from_spec("exhaustive:2:shards=4:distinct=hll:12");
  EXPECT_EQ(spec.shards, 4u);
  EXPECT_EQ(spec.threads, 2u);
  EXPECT_EQ(spec.distinct, DistinctConfig::Hll(12));

  spec = sweep_from_spec("exhaustive:budget=77:distinct=hll:10");
  EXPECT_EQ(spec.max_executions, 77u);
  EXPECT_EQ(spec.distinct, DistinctConfig::Hll(10));

  EXPECT_THROW((void)sweep_from_spec("exhaustive:distinct=bogus"), DataError);
  EXPECT_THROW((void)sweep_from_spec("exhaustive:distinct=hll:99"), DataError);
  EXPECT_THROW((void)sweep_from_spec("exhaustive:distinct="), DataError);
}

TEST(SweepSpec, ParsesTheFaultsOption) {
  // faults= is the last option before distinct= (fault specs contain
  // colons too).
  SweepSpec spec = sweep_from_spec("exhaustive");
  EXPECT_EQ(spec.faults, FaultSpec::None());

  spec = sweep_from_spec("exhaustive:faults=crash:1");
  EXPECT_EQ(spec.faults, FaultSpec::Crash(1));

  spec = sweep_from_spec("exhaustive:2:faults=corrupt:1/8:3");
  EXPECT_EQ(spec.threads, 2u);
  EXPECT_EQ(spec.faults, FaultSpec::Corrupt(1, 8, 3));

  spec = sweep_from_spec(
      "exhaustive:shards=4:faults=adaptive:7:1024:distinct=hll:12");
  EXPECT_EQ(spec.shards, 4u);
  EXPECT_EQ(spec.faults, FaultSpec::Adaptive(7, 1024));
  EXPECT_EQ(spec.distinct, DistinctConfig::Hll(12));

  EXPECT_THROW((void)sweep_from_spec("exhaustive:faults=bogus:1"), DataError);
  EXPECT_THROW((void)sweep_from_spec("exhaustive:faults="), DataError);
  EXPECT_THROW((void)sweep_from_spec("exhaustive:faults=crash:x"), DataError);
}

TEST(SweepSpec, ParsesTheMemoizeOption) {
  SweepSpec spec = sweep_from_spec("exhaustive:memoize");
  EXPECT_TRUE(spec.memoize);
  EXPECT_EQ(spec.threads, 0u);

  spec = sweep_from_spec("exhaustive:1:memoize");
  EXPECT_TRUE(spec.memoize);
  EXPECT_EQ(spec.threads, 1u);

  spec = sweep_from_spec("exhaustive:memoize:budget=500");
  EXPECT_TRUE(spec.memoize);
  EXPECT_EQ(spec.max_executions, 500u);

  spec = sweep_from_spec("exhaustive:memoize:distinct=hll:12");
  EXPECT_TRUE(spec.memoize);
  EXPECT_EQ(spec.distinct, DistinctConfig::Hll(12));

  // The memoized sweep is serial, in-process, and fault-free — the parser
  // rejects contradictions instead of silently ignoring the flag.
  EXPECT_THROW((void)sweep_from_spec("exhaustive:4:memoize"), DataError);
  EXPECT_THROW((void)sweep_from_spec("exhaustive:memoize:shards=2"),
               DataError);
  EXPECT_THROW((void)sweep_from_spec("exhaustive:memoize:faults=crash:1"),
               DataError);
  EXPECT_THROW((void)sweep_from_spec("exhaustive:memoize:memoize"), DataError);
}

TEST(SymbolicSweepSpec, TakesNoOptions) {
  EXPECT_TRUE(is_symbolic_spec("symbolic"));
  EXPECT_TRUE(is_symbolic_spec("symbolic:order=grouped"));
  EXPECT_FALSE(is_symbolic_spec("exhaustive"));
  EXPECT_FALSE(is_symbolic_spec("battery"));

  EXPECT_NO_THROW(symbolic_from_spec("symbolic"));
  // engine= and order= are unknown tokens: plain parse errors, not
  // capabilities the backend declines.
  for (const char* spec :
       {"symbolic:engine=circuit", "symbolic:engine=frontier",
        "symbolic:order=grouped", "symbolic:order=interleave",
        "symbolic:junk", "symbolic:"}) {
    try {
      symbolic_from_spec(spec);
      FAIL() << "accepted " << spec;
    } catch (const sym::SymUnsupportedError& e) {
      FAIL() << spec << " is a typed refusal: " << e.what();
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find("takes no options"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SymbolicSweepSpec, EnumeratorOptionsAreTypedRefusals) {
  // The backend enumerates nothing: thread counts, budgets, shards, fault
  // models, and distinct accumulators have no symbolic meaning. Each is a
  // SymUnsupportedError (exit 2), not a generic parse error.
  for (const char* spec :
       {"symbolic:1", "symbolic:4", "symbolic:budget=1000",
        "symbolic:shards=2", "symbolic:faults=crash:1",
        "symbolic:distinct=hll:12"}) {
    EXPECT_THROW(symbolic_from_spec(spec), sym::SymUnsupportedError)
        << spec;
  }
  // memoize belongs to the enumerator grammar; here it is just an unknown
  // token, not a capability the backend declines.
  EXPECT_THROW(symbolic_from_spec("symbolic:memoize"), DataError);
}

TEST(SweepSpec, FormatParseRoundTrip) {
  // format ∘ parse is the identity on canonical text...
  for (const char* canonical : {
           "exhaustive",
           "exhaustive:1",
           "exhaustive:memoize",
           "exhaustive:1:memoize:budget=7",
           "exhaustive:shards=4",
           "exhaustive:2:shards=4",
           "exhaustive:budget=100000",
           "exhaustive:distinct=hll:14",
           "exhaustive:faults=crash:2",
           "exhaustive:4:faults=corrupt:1/8:3:distinct=hll:10",
           "exhaustive:1:shards=8:budget=5000:distinct=hll:12",
           "exhaustive:1:shards=2:budget=5000:faults=adaptive:7:64"
           ":distinct=hll:12",
       }) {
    EXPECT_EQ(format_sweep_spec(sweep_from_spec(canonical)), canonical)
        << canonical;
  }
  // ...and parse ∘ format is the identity on every SweepSpec, including the
  // defaults format omits.
  for (const SweepSpec spec :
       {SweepSpec{}, SweepSpec{.threads = 3}, SweepSpec{.shards = 2},
        SweepSpec{.max_executions = 1}, SweepSpec{.memoize = true},
        SweepSpec{.threads = 1, .shards = 4, .max_executions = 9,
                  .distinct = DistinctConfig::Hll(9)}}) {
    EXPECT_EQ(sweep_from_spec(format_sweep_spec(spec)), spec);
  }
  // The canonical order is the only order, and it round-trips as text.
  EXPECT_EQ(format_sweep_spec(sweep_from_spec("exhaustive:2:shards=4")),
            "exhaustive:2:shards=4");
}

TEST(GraphSpec, StructuredFamilies) {
  EXPECT_EQ(graph_from_spec("path:6"), path_graph(6));
  EXPECT_EQ(graph_from_spec("cycle:5"), cycle_graph(5));
  EXPECT_EQ(graph_from_spec("complete:4"), complete_graph(4));
  EXPECT_EQ(graph_from_spec("star:7"), star_graph(7));
  EXPECT_EQ(graph_from_spec("grid:3x4"), grid_graph(3, 4));
  EXPECT_EQ(graph_from_spec("twocliques:5"), two_cliques(5));
  EXPECT_EQ(graph_from_spec("switched:5"), two_cliques_switched(5));
}

TEST(GraphSpec, SeededFamiliesAreDeterministic) {
  EXPECT_EQ(graph_from_spec("tree:30:7"), random_tree(30, 7));
  EXPECT_EQ(graph_from_spec("forest:30:80:7"), random_forest(30, 80, 7));
  EXPECT_EQ(graph_from_spec("kdeg:30:3:20:7"),
            random_k_degenerate(30, 3, 20, 7));
  EXPECT_EQ(graph_from_spec("gnp:20:1/4:9"), erdos_renyi(20, 1, 4, 9));
  EXPECT_EQ(graph_from_spec("cgnp:20:1/4:9"), connected_gnp(20, 1, 4, 9));
  EXPECT_EQ(graph_from_spec("eob:20:1/4:9"),
            random_even_odd_bipartite(20, 1, 4, 9));
  EXPECT_EQ(graph_from_spec("ceob:20:1/4:9"),
            connected_even_odd_bipartite(20, 1, 4, 9));
  EXPECT_EQ(graph_from_spec("bipartite:5:6:1/3:2"),
            random_bipartite(5, 6, 1, 3, 2));
}

TEST(GraphSpec, Errors) {
  EXPECT_THROW((void)graph_from_spec("nope:5"), DataError);
  EXPECT_THROW((void)graph_from_spec("path"), DataError);
  EXPECT_THROW((void)graph_from_spec("grid:3"), DataError);
  EXPECT_THROW((void)graph_from_spec("gnp:10:0.5:1"), DataError);
}

TEST(GraphSpec, NarrowedParametersAreRangeChecked) {
  // Each refusal is a DataError (CLI exit 2) naming the parameter. The
  // narrowed values used to wrap (rmat:2^32+4 built scale 4, and so on);
  // the size minima used to fail an internal check (exit 3).
  const std::pair<const char*, const char*> cases[] = {
      {"rmat:4294967300:2:1", "scale"},
      {"kdeg:20:4294967298:20:3", "K"},
      {"kdeg:20:2:4294967316:3", "percent"},
      {"kdeg:20:2:101:3", "percent"},
      {"forest:20:4294967376:3", "percent"},
      {"forest:20:101:3", "percent"},
      {"path:0", "N"},
      {"cycle:2", "N"},
      {"star:0", "N"},
      {"grid:0x3", "rows"},
      {"grid:3x0", "cols"},
      {"twocliques:0", "N"},
      {"switched:2", "N"},
      {"tree:0:1", "N"},
      {"forest:0:50:1", "N"},
      {"kdeg:0:2:20:1", "N"},
      {"cgnp:0:1/2:1", "N"},
      {"ceob:1:1/2:1", "N"},
      {"rmat:0:1:1", "scale"},
      {"rmat:29:1:1", "scale"},
      {"rmat:2:0:1", "edge factor"},
      {"powerlaw:0:2:1", "N"},
      {"powerlaw:3:0:1", "edge factor"},
  };
  for (const auto& [spec, field] : cases) {
    SCOPED_TRACE(spec);
    expect_refusal_naming([spec] { (void)graph_from_spec(spec); }, field);
  }
}

TEST(ProtocolSpec, NarrowedParametersAreRangeChecked) {
  const Graph g = path_graph(4);
  const auto run = [&g](const std::string& protocol) {
    const auto adversary = adversary_from_spec("first", g);
    (void)run_protocol_spec(protocol, g, *adversary);
  };
  // build-degenerate:2^32+2 used to run as k = 2.
  expect_refusal_naming([&] { run("build-degenerate:4294967298"); }, "K");
  // mis:2^32+1 used to pass the range check as root 1.
  expect_refusal_naming([&] { run("mis:4294967297"); }, "root");
  expect_refusal_naming([&] { run("broken-first:4294967297"); }, "V");
  expect_refusal_naming([&] { run("diameter-oracle:4294967299"); }, "D");
  // Out-of-range protocol parameters used to fail an internal check.
  expect_refusal_naming([&] { run("subgraph:0"); }, "F");
  expect_refusal_naming([&] { run("build-degenerate:0"); }, "K");
  expect_refusal_naming([&] { run("build-degenerate:6"); }, "K");
}

TEST(GraphSpec, ScaleFamilies) {
  EXPECT_EQ(graph_from_spec("rmat:6:4:3"), rmat_graph(6, 4, 3));
  EXPECT_EQ(graph_from_spec("powerlaw:50:3:9"),
            random_power_law(50, 3, 2.5, 9));
  EXPECT_THROW((void)graph_from_spec("rmat:6:4"), DataError);
  EXPECT_THROW((void)graph_from_spec("powerlaw:50"), DataError);
}

TEST(GraphSpec, FileLoadsThroughTheStreamingReader) {
  const Graph g = erdos_renyi(15, 1, 3, 8);
  const std::string path =
      (std::filesystem::temp_directory_path() / "wb_spec_test.el").string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    write_edge_list(g, out);
  }
  EXPECT_EQ(graph_from_spec("file:" + path), g);
  std::filesystem::remove(path);
  EXPECT_THROW((void)graph_from_spec("file:/no/such/file.el"), DataError);
  EXPECT_THROW((void)graph_from_spec("file:"), DataError);
}

TEST(AdversarySpec, AllKinds) {
  const Graph g = star_graph(5);
  EXPECT_EQ(adversary_from_spec("first", g)->name(), "first");
  EXPECT_EQ(adversary_from_spec("last", g)->name(), "last");
  EXPECT_EQ(adversary_from_spec("rotating", g)->name(), "rotating");
  EXPECT_EQ(adversary_from_spec("maxdeg", g)->name(), "max-degree");
  EXPECT_EQ(adversary_from_spec("mindeg", g)->name(), "min-degree");
  EXPECT_EQ(adversary_from_spec("random:5", g)->name(), "random");
  EXPECT_THROW((void)adversary_from_spec("evil", g), DataError);
  EXPECT_THROW((void)adversary_from_spec("random", g), DataError);
}

}  // namespace
}  // namespace wb::cli
