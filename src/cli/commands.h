#ifndef RELACC_CLI_COMMANDS_H_
#define RELACC_CLI_COMMANDS_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "cli/args.h"

namespace relacc {

/// Implementation of the `relacc` command-line tool, factored as a library
/// so tests drive commands through plain function calls. Every command
/// reads a JSON specification document (io/spec_io.h), writes its result
/// to `out`, and reports failures as a Status routed to one exit point
/// that prints the message to `err` and maps the code onto the process
/// exit code (0 ok, 2 usage, 3 not-Church-Rosser, 1 I/O or parse).
/// Commands run on relacc::AccuracyService (api/accuracy_service.h).
///
///   relacc --version | relacc version
///       Print the library version.
///   relacc check <spec.json> [--json] [--quiet]
///       IsCR: Church-Rosser verdict + deduced target.
///   relacc explain <spec.json> --attr <name> [--depth N]
///       Proof tree for the deduced te[attr].
///   relacc topk <spec.json> [--k N] [--algo topkct|heuristic|rankjoin]
///       [--threads N] [--json] [--snapshot FILE]
///       Top-k candidate targets for an incomplete te.
///   relacc fmt <spec.json> [--rules-only]
///       Normalized spec (canonical rule DSL) back to stdout.
///   relacc pipeline <spec.json> --key <attr[,attr...]> [--threads N]
///       [--completion best|heuristic|none] [--snapshot FILE] [--json]
///       Treats the entity relation as a flat database: entity resolution
///       over --key, then the whole-database accuracy pipeline.
///   relacc interactive <spec.json> [--k N]
///       The Fig. 3 user loop over a console (cli/console_user.h).
///   relacc discover <spec.json> --key <...> [--min-support N]
///       [--min-confidence X] [--max-rules N]
///       Bootstrap rule mining (discovery/ar_miner.h): deduce targets with
///       the current rules, mine candidate ARs, print them as DSL.
///   relacc help
int RunCliCommand(const Args& args, std::ostream& out, std::ostream& err);

/// Overload with an explicit input stream (`relacc interactive` reads user
/// commands from it; tests script it).
int RunCliCommand(const Args& args, std::ostream& out, std::ostream& err,
                  std::istream& in);

/// Convenience for main(): parse argv then dispatch.
int RunCli(const std::vector<std::string>& argv, std::ostream& out,
           std::ostream& err);

/// The help text (also printed by `relacc help`).
std::string CliUsage();

}  // namespace relacc

#endif  // RELACC_CLI_COMMANDS_H_
