// The command registry's contract: help is generated from the table (a
// command cannot exist without appearing in it), dispatch routes by name
// with the default command as the fallback, and the exit-code conventions
// are centralized in one place.
#include "src/cli/command.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "src/cli/runners.h"
#include "src/cli/spec.h"
#include "src/cli/verdicts.h"
#include "src/fleet/transport.h"
#include "src/graph/io.h"
#include "src/support/check.h"
#include "src/wb/shard.h"

namespace wb::cli {
namespace {

CommandRegistry make_registry(std::vector<std::string>* trace) {
  CommandRegistry registry("tool");
  registry.set_default(Command{
      "", "positional specs", "tool <spec> [flags]",
      [trace](const std::vector<std::string>& args) {
        trace->push_back("default:" + std::to_string(args.size()));
        return kExitPass;
      }});
  registry.add(Command{
      "alpha", "does the alpha thing", "tool alpha <x>",
      [trace](const std::vector<std::string>& args) {
        trace->push_back("alpha:" + (args.empty() ? "" : args[0]));
        return kExitPass;
      }});
  registry.add(Command{
      "beta", "does the beta thing", "tool beta",
      [](const std::vector<std::string>&) { return kExitFail; }});
  return registry;
}

TEST(CommandRegistry, DispatchRoutesByNameWithDefaultFallback) {
  std::vector<std::string> trace;
  const CommandRegistry registry = make_registry(&trace);
  EXPECT_EQ(registry.dispatch({"alpha", "x"}), kExitPass);
  EXPECT_EQ(registry.dispatch({"beta"}), kExitFail);
  // An unknown first token is not an error: it is the default command's
  // first positional argument (graph specs are open-ended).
  EXPECT_EQ(registry.dispatch({"path:4", "proto"}), kExitPass);
  EXPECT_EQ(trace,
            (std::vector<std::string>{"alpha:x", "default:2"}));
}

TEST(CommandRegistry, OverviewListsEveryRegisteredCommand) {
  std::vector<std::string> trace;
  const CommandRegistry registry = make_registry(&trace);
  const std::string overview = registry.overview();
  EXPECT_NE(overview.find("tool <spec> [flags]"), std::string::npos);
  EXPECT_NE(overview.find("alpha"), std::string::npos);
  EXPECT_NE(overview.find("does the alpha thing"), std::string::npos);
  EXPECT_NE(overview.find("beta"), std::string::npos);
  EXPECT_NE(overview.find("help"), std::string::npos);
}

TEST(CommandRegistry, PerCommandHelpIsGeneratedFromTheTable) {
  std::vector<std::string> trace;
  const CommandRegistry registry = make_registry(&trace);
  const std::string help = registry.help_for("alpha");
  EXPECT_NE(help.find("usage: tool alpha <x>"), std::string::npos);
  EXPECT_NE(help.find("does the alpha thing"), std::string::npos);
  // An unknown name names the known commands in its diagnostic.
  try {
    (void)registry.help_for("gamma");
    FAIL();
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("alpha"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("beta"), std::string::npos);
  }
}

TEST(CommandRegistry, DuplicateRegistrationIsABug) {
  std::vector<std::string> trace;
  CommandRegistry registry = make_registry(&trace);
  EXPECT_THROW(
      registry.add(Command{"alpha", "again", "tool alpha",
                           [](const std::vector<std::string>&) { return 0; }}),
      LogicError);
}

TEST(CommandRegistry, ExitCodeConventionsAreTheDocumentedOnes) {
  EXPECT_EQ(kExitPass, 0);
  EXPECT_EQ(kExitFail, 1);
  EXPECT_EQ(kExitUsage, 2);
  EXPECT_EQ(kExitBug, 3);
}

TEST(CommandRegistry, BudgetOverrunIsAUsageErrorNotABug) {
  // A sweep past its budget= is an input to change (exit 2), though
  // BudgetExceededError is a LogicError; every other LogicError is a bug.
  CommandRegistry registry("tool");
  registry.set_default(Command{
      "", "", "tool", [](const std::vector<std::string>&) { return 0; }});
  registry.add(Command{
      "sweep", "a 6! sweep under a budget of 10", "tool sweep",
      [](const std::vector<std::string>&) {
        ExhaustiveRunOptions opts;
        opts.threads = 1;
        opts.max_executions = 10;
        (void)run_protocol_spec_exhaustive(
            "anon-degree", graph_from_spec("star:6"), opts);
        return kExitPass;
      }});
  registry.add(Command{
      "bug", "a broken invariant", "tool bug",
      [](const std::vector<std::string>&) -> int {
        throw LogicError("broken invariant");
      }});
  registry.add(Command{
      "typo", "a malformed input", "tool typo",
      [](const std::vector<std::string>&) -> int {
        throw DataError("malformed input");
      }});
  const auto run = [&registry](const char* command) {
    char program[] = "tool";
    std::string token = command;
    char* argv[] = {program, token.data()};
    return registry.main(2, argv);
  };
  EXPECT_EQ(run("sweep"), kExitUsage);
  EXPECT_EQ(run("typo"), kExitUsage);
  EXPECT_EQ(run("bug"), kExitBug);
}

TEST(CommandRegistry, InputErrorsPrintTheirReasonAlone) {
  // An input error is for whoever typed the input: no source path, no C++
  // condition, only the reason the generator gives.
  CommandRegistry registry("tool");
  registry.set_default(Command{
      "", "", "tool", [](const std::vector<std::string>& args) {
        (void)graph_from_spec(args.at(0));
        return kExitPass;
      }});
  char program[] = "tool";
  char spec[] = "path:0";
  char* argv[] = {program, spec};
  testing::internal::CaptureStdout();
  const int code = registry.main(2, argv);
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "error: path N must be >= 1\n");
  EXPECT_EQ(code, kExitUsage);
}

/// Run `registry` on `args` as main() would, capturing what it prints.
std::pair<int, std::string> run_main(const CommandRegistry& registry,
                                     std::vector<std::string> args) {
  std::string program = "tool";
  std::vector<char*> argv{program.data()};
  for (std::string& a : args) argv.push_back(a.data());
  testing::internal::CaptureStdout();
  const int code = registry.main(static_cast<int>(argv.size()), argv.data());
  return {code, testing::internal::GetCapturedStdout()};
}

/// The classic `<graph> <protocol> exhaustive...` invocation, in-process.
CommandRegistry sweep_registry() {
  CommandRegistry registry("tool");
  registry.set_default(Command{
      "", "", "tool", [](const std::vector<std::string>& args) {
        const SweepSpec sweep = sweep_from_spec(args.at(2));
        ExhaustiveRunOptions opts;
        opts.threads = sweep.threads;
        opts.max_executions = sweep.max_executions;
        const RunReport report = run_protocol_spec_exhaustive(
            args.at(1), graph_from_spec(args.at(0)), opts);
        std::printf("%s", report.summary.c_str());
        return report.correct ? kExitPass : kExitFail;
      }});
  return registry;
}

TEST(CommandRegistry, StarTwentyCountsTwentyFactorialAndStarTwentyOneIsRefused) {
  // anon-degree's leaves are interchangeable, so the twin-keyed memo counts
  // 20! executions exactly; 21! > 2^64 - 1 is refused naming the bound.
  const CommandRegistry registry = sweep_registry();
  const std::string budget = ":budget=18446744073709551615";
  const auto [code20, out20] = run_main(
      registry, {"star:20", "anon-degree", "exhaustive:1" + budget});
  EXPECT_EQ(code20, kExitPass) << out20;
  EXPECT_NE(out20.find("schedules  2432902008176640000 executions"),
            std::string::npos)
      << out20;
  const auto [code21, out21] = run_main(
      registry, {"star:21", "anon-degree", "exhaustive:1" + budget});
  EXPECT_EQ(code21, kExitUsage) << out21;
  EXPECT_EQ(out21.rfind("error: execution count overflows 64 bits (", 0), 0u)
      << out21;
}

TEST(CommandRegistry, EveryInputGrammarPrintsItsReasonAlone) {
  // One malformed input per grammar: the shard spec, the wbframe header,
  // the edge list and the wb-verdicts document (its filter); each prints
  // only its reason.
  CommandRegistry registry("tool");
  registry.set_default(Command{
      "", "", "tool", [](const std::vector<std::string>&) { return 0; }});
  registry.add(Command{
      "shard", "", "tool shard", [](const std::vector<std::string>&) {
        (void)shard::parse_shard_spec("wbshard-spec v9\n");
        return kExitPass;
      }});
  registry.add(Command{
      "frame", "", "tool frame", [](const std::vector<std::string>&) {
        fleet::FrameDecoder decoder;
        decoder.feed("wbframe v1 gossip 3\nabc");
        (void)decoder.next();
        return kExitPass;
      }});
  registry.add(Command{
      "edges", "", "tool edges", [](const std::vector<std::string>&) {
        std::istringstream in("3 1\n1 x\n");
        (void)read_edge_list(in);
        return kExitPass;
      }});
  registry.add(Command{
      "verdicts", "", "tool verdicts", [](const std::vector<std::string>&) {
        (void)generate_verdict_matrix("no-such-protocol", 1);
        return kExitPass;
      }});
  const std::pair<const char*, const char*> pinned[] = {
      {"shard",
       "error: shard spec: unsupported format version 'v9' (this build "
       "reads v3)\n"},
      {"frame",
       "error: malformed frame: unknown frame type 'gossip' — expected "
       "hello|spec|result|heartbeat|shutdown|error|ack\n"},
      {"edges", "error: unexpected character 'x' in edge list\n"},
      {"verdicts",
       "error: no zoo protocol matches filter 'no-such-protocol'\n"},
  };
  for (const auto& [command, want] : pinned) {
    const auto [code, out] = run_main(registry, {command});
    EXPECT_EQ(out, want) << command;
    EXPECT_EQ(code, kExitUsage) << command;
  }
}

}  // namespace
}  // namespace wb::cli
