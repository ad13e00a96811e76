// The wbsim command registry.
//
// PR 6 replaced the tool's ad-hoc `if (command == ...)` dispatch with a
// declarative table: each subcommand registers its name, a one-line summary,
// and its usage text, and `wbsim help [CMD]` is *generated* from that table,
// so a command cannot exist without appearing in the help. The registry also
// centralizes the exit-code conventions every wbsim invocation obeys:
//
//   0  the run completed and every verdict was PASS
//   1  the run completed but something FAILed (wrong output, missing shard)
//   2  bad input — malformed spec/file/flags (wb::DataError), or a sweep
//      past its execution budget (wb::BudgetExceededError)
//   3  a bug in wbsim itself (wb::LogicError)
//
// Handlers signal 2/3 by throwing; CommandRegistry::main catches at the top
// and maps to the exit code, so no handler hand-rolls error printing.
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace wb::cli {

/// Shared exit-code conventions (see file comment).
inline constexpr int kExitPass = 0;
inline constexpr int kExitFail = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitBug = 3;

struct Command {
  /// Subcommand token ("shard-plan"). Must be unique in a registry.
  std::string name;
  /// One line for the `wbsim help` table.
  std::string summary;
  /// Full usage text for `wbsim help <name>`: synopsis line(s) first, then
  /// any option/format paragraphs.
  std::string usage;
  /// Arguments after the command token. Throws wb::DataError for bad
  /// invocations; returns an exit code otherwise.
  std::function<int(const std::vector<std::string>& args)> run;
};

class CommandRegistry {
 public:
  /// `program` is the name printed in generated help ("wbsim").
  explicit CommandRegistry(std::string program);

  /// Register a subcommand. Duplicate names are a bug (WB_CHECK).
  void add(Command command);

  /// The commandless invocation (`wbsim <graph> <protocol> ...`). Its usage
  /// text leads the overview; its handler receives every argument.
  void set_default(Command command);

  /// The generated `help` output: default synopsis, then one aligned
  /// `name  summary` row per registered command.
  [[nodiscard]] std::string overview() const;

  /// The generated `help <name>` output. Throws wb::DataError for an
  /// unknown name (listing the known ones).
  [[nodiscard]] std::string help_for(const std::string& name) const;

  /// Route one invocation: `help [CMD]` and `--help`/`-h` answer from the
  /// table; a registered name runs its handler with the remaining
  /// arguments; anything else falls through to the default command.
  /// Exceptions escape to main() below.
  [[nodiscard]] int dispatch(const std::vector<std::string>& args) const;

  /// dispatch() plus the top-level exception mapping: DataError and
  /// BudgetExceededError print `error: ...` and return kExitUsage, any
  /// other LogicError prints `internal error: ...` and returns kExitBug.
  [[nodiscard]] int main(int argc, char** argv) const;

 private:
  std::string program_;
  std::vector<Command> commands_;
  Command default_command_;
};

}  // namespace wb::cli
