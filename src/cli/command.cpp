#include "src/cli/command.h"

#include <algorithm>
#include <cstdio>

#include "src/support/check.h"
#include "src/wb/exhaustive.h"

namespace wb::cli {

CommandRegistry::CommandRegistry(std::string program)
    : program_(std::move(program)) {}

void CommandRegistry::add(Command command) {
  WB_CHECK_MSG(!command.name.empty(), "a subcommand needs a name");
  WB_CHECK_MSG(command.run != nullptr,
               "command '" << command.name << "' has no handler");
  const bool duplicate =
      std::any_of(commands_.begin(), commands_.end(),
                  [&](const Command& c) { return c.name == command.name; });
  WB_CHECK_MSG(!duplicate,
               "command '" << command.name << "' registered twice");
  commands_.push_back(std::move(command));
}

void CommandRegistry::set_default(Command command) {
  WB_CHECK_MSG(command.run != nullptr, "the default command needs a handler");
  default_command_ = std::move(command);
}

std::string CommandRegistry::overview() const {
  std::string out;
  if (!default_command_.usage.empty()) {
    out += "usage: " + default_command_.usage + "\n";
    out += "       " + program_ + " <command> [args...]\n\n";
  }
  out += "commands:\n";
  std::size_t width = 4;  // "help"
  for (const Command& c : commands_) width = std::max(width, c.name.size());
  for (const Command& c : commands_) {
    out += "  " + c.name + std::string(width - c.name.size() + 2, ' ') +
           c.summary + "\n";
  }
  out += "  help" + std::string(width - 4 + 2, ' ') +
         "this overview, or `" + program_ + " help <command>` for details\n";
  if (!default_command_.summary.empty()) {
    out += "\n" + default_command_.summary + "\n";
  }
  return out;
}

std::string CommandRegistry::help_for(const std::string& name) const {
  for (const Command& c : commands_) {
    if (c.name == name) {
      return "usage: " + c.usage + "\n\n" + c.summary + "\n";
    }
  }
  std::string known;
  for (const Command& c : commands_) {
    if (!known.empty()) known += ", ";
    known += c.name;
  }
  throw DataError("unknown command '" + name + "' — known commands: " + known);
}

int CommandRegistry::dispatch(const std::vector<std::string>& args) const {
  if (args.empty()) {
    std::printf("%s", overview().c_str());
    return kExitUsage;
  }
  if (args[0] == "help" || args[0] == "--help" || args[0] == "-h") {
    if (args.size() >= 2 && args[0] == "help") {
      std::printf("%s", help_for(args[1]).c_str());
    } else {
      std::printf("%s", overview().c_str());
    }
    return kExitPass;
  }
  for (const Command& c : commands_) {
    if (c.name == args[0]) {
      return c.run(std::vector<std::string>(args.begin() + 1, args.end()));
    }
  }
  WB_CHECK_MSG(default_command_.run != nullptr,
               "no default command registered");
  return default_command_.run(args);
}

int CommandRegistry::main(int argc, char** argv) const {
  try {
    return dispatch(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const DataError& e) {
    std::printf("error: %s\n", e.what());
    return kExitUsage;
  } catch (const BudgetExceededError& e) {
    // A sweep larger than its budget= is an input the user must change,
    // not a bug (BudgetExceededError is a LogicError only so the shard,
    // fault and verdict layers can catch it by its precise type).
    std::printf("error: %s\n", e.what());
    return kExitUsage;
  } catch (const LogicError& e) {
    std::printf("internal error: %s\n", e.what());
    return kExitBug;
  }
}

}  // namespace wb::cli
