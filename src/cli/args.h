#ifndef RELACC_CLI_ARGS_H_
#define RELACC_CLI_ARGS_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace relacc {

/// Minimal command-line parser for the relacc tool. Grammar:
///   relacc <command> [positionals...] [--flag] [--key=value] [--key value]
/// Flags may appear anywhere after the command. `--` ends flag parsing.
/// In the `--key value` form, a value may be a negative integer (`--k -5`);
/// any other token starting with '-' is not taken as a value. The boolean
/// flags (--json, --quiet, --rules-only, --flat, --werror,
/// --snapshot-strict) never take the next token as their value.
class Args {
 public:
  /// Parses argv[1..). argv[0] (the program name) must be excluded.
  static Result<Args> Parse(const std::vector<std::string>& argv);

  const std::string& command() const { return command_; }
  const std::vector<std::string>& positionals() const { return positionals_; }

  /// True iff --name was given (with or without a value).
  bool Has(const std::string& name) const;

  /// Value of --name; `fallback` when absent. A bare `--name` yields "".
  std::string GetString(const std::string& name,
                        const std::string& fallback = "") const;

  /// Integer value of --name; error if present but non-numeric or
  /// outside int64_t's range.
  Result<int64_t> GetInt(const std::string& name, int64_t fallback) const;

  /// Flags consumed by none of the Get*/Has calls above — used to reject
  /// typos (`--kk 5`) with a helpful message. Tracking is by lookup, so
  /// call after the command has read everything it supports.
  std::vector<std::string> UnreadFlags() const;

 private:
  std::string command_;
  std::vector<std::string> positionals_;
  std::unordered_map<std::string, std::string> flags_;
  mutable std::unordered_map<std::string, bool> read_;
};

}  // namespace relacc

#endif  // RELACC_CLI_ARGS_H_
