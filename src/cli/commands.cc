#include "cli/commands.h"

#include <csignal>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>

#include "analysis/analyzer.h"
#include "analysis/diagnostic.h"
#include "api/accuracy_service.h"
#include "api/version.h"
#include "chase/chase_engine.h"
#include "chase/explain.h"
#include "cli/console_user.h"
#include "datagen/profile_generator.h"
#include "discovery/ar_miner.h"
#include "er/resolver.h"
#include "framework/framework.h"
#include "io/spec_io.h"
#include "pipeline/pipeline.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "snapshot/reader.h"
#include "topk/rank_join_ct.h"
#include "topk/topk_ct.h"
#include "util/strings.h"

namespace relacc {

namespace {

/// Loads the spec document named by the first positional argument.
/// Relative "tuples_csv" references resolve against the document's
/// directory.
Result<SpecDocument> LoadSpecAt(const std::string& path) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  const auto slash = path.find_last_of('/');
  const std::string base_dir =
      slash == std::string::npos ? "" : path.substr(0, slash);
  Result<SpecDocument> doc = SpecFromJsonText(text.value(), base_dir);
  if (!doc.ok() && doc.status().code() != StatusCode::kParseError &&
      doc.status().code() != StatusCode::kIoError) {
    // Spec-content problems (reported as kInvalidArgument by spec_io)
    // are document parse failures from the CLI's point of view — exit
    // code 1, as this tool has always reported for a bad spec file —
    // not usage errors (exit 2).
    return Status::ParseError(doc.status().message());
  }
  return doc;
}

Result<SpecDocument> LoadSpec(const Args& args) {
  if (args.positionals().empty()) {
    return Status::InvalidArgument("expected a <spec.json> argument");
  }
  return LoadSpecAt(args.positionals()[0]);
}

/// Rejects unrecognized flags after a command has consumed its own.
Status CheckUnread(const Args& args) {
  std::vector<std::string> unread = args.UnreadFlags();
  if (unread.empty()) return Status::OK();
  std::string msg = "unknown flag(s):";
  for (const std::string& f : unread) msg += " --" + f;
  return Status::InvalidArgument(std::move(msg));
}

/// Resolves --key into ResolverConfig::key_attrs over `schema`.
Status ParseKeyAttrs(const std::string& key, const Schema& schema,
                     ResolverConfig* resolver) {
  if (key.empty()) {
    return Status::InvalidArgument(
        "--key <attr[,attr...]> is required (entity-resolution key over "
        "the flat relation)");
  }
  for (const std::string& part : Split(key, ',')) {
    std::optional<AttrId> a = schema.IndexOf(std::string(Trim(part)));
    if (!a) {
      return Status::InvalidArgument("unknown key attribute '" + part + "'");
    }
    resolver->key_attrs.push_back(*a);
  }
  return Status::OK();
}

/// Shared by CmdPipeline and CmdDiscover: streams resolved entity
/// clusters through one pipeline session over a service built from the
/// spec document's (masters, rules, chase config).
Result<PipelineReport> StreamResolvedEntities(
    const Specification& spec, std::vector<EntityInstance> entities,
    ServiceOptions service_options) {
  Specification service_spec;
  service_spec.ie = Relation(spec.ie.schema());
  service_spec.masters = spec.masters;
  service_spec.rules = spec.rules;
  service_spec.config = spec.config;
  Result<std::unique_ptr<AccuracyService>> service = AccuracyService::Create(
      std::move(service_spec), std::move(service_options));
  if (!service.ok()) return service.status();
  Result<std::unique_ptr<PipelineSession>> session =
      service.value()->StartPipeline();
  if (!session.ok()) return session.status();
  RELACC_RETURN_NOT_OK(session.value()->Submit(std::move(entities)));
  return session.value()->Finish();
}

void PrintTarget(const Tuple& target, const Schema& schema,
                 std::ostream& out) {
  for (AttrId a = 0; a < schema.size(); ++a) {
    out << "  " << schema.name(a) << " = "
        << (target.at(a).is_null() ? std::string("(null)")
                                   : target.at(a).ToString())
        << "\n";
  }
}

/// Integer flag `--name` (default `fallback`) that a command uses as an
/// int: a value past int's range is rejected naming the value, not
/// narrowed into a different one (`--k 4294967297` would otherwise rank 1
/// candidate, `gen --entities 4294967298` generate 2 entities).
Result<int> GetIntFlag(const Args& args, const std::string& name,
                       int fallback) {
  Result<int64_t> v = args.GetInt(name, fallback);
  if (!v.ok()) return v.status();
  if (v.value() < std::numeric_limits<int>::min() ||
      v.value() > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("--" + name + " is out of range, got " +
                                   std::to_string(v.value()));
  }
  return static_cast<int>(v.value());
}

/// `--k` (default 5) of topk and interactive: candidates per ranking,
/// rejected below 1 naming the flag rather than the library option.
Result<int> GetKFlag(const Args& args) {
  Result<int> k = GetIntFlag(args, "k", 5);
  if (k.ok() && k.value() < 1) {
    return Status::InvalidArgument("--k must be >= 1, got " +
                                   std::to_string(k.value()));
  }
  return k;
}

Status CmdCheck(const Args& args, std::ostream& out) {
  const bool as_json = args.Has("json");
  const bool quiet = args.Has("quiet");
  Result<SpecDocument> doc = LoadSpec(args);
  if (!doc.ok()) return doc.status();
  RELACC_RETURN_NOT_OK(CheckUnread(args));

  const Specification& spec = doc.value().spec;
  ChaseOutcome outcome = IsCR(spec);
  if (as_json) {
    out << OutcomeToJson(outcome, spec.ie.schema()).Dump(2) << "\n";
  } else if (!outcome.church_rosser) {
    out << "NOT Church-Rosser: " << outcome.violation << "\n";
  } else {
    out << "Church-Rosser: yes\n";
    out << "target "
        << (outcome.target.IsComplete() ? "(complete)" : "(incomplete)")
        << ":\n";
    if (!quiet) PrintTarget(outcome.target, spec.ie.schema(), out);
  }
  if (!outcome.church_rosser) {
    // The verdict was fully reported on `out` above; an empty message
    // tells the exit point to set the code without a duplicate stderr
    // diagnostic.
    return Status::FailedPrecondition("");
  }
  return Status::OK();
}

Status CmdExplain(const Args& args, std::ostream& out) {
  const std::string attr_name = args.GetString("attr");
  Result<int> depth = GetIntFlag(args, "depth", 12);
  Result<SpecDocument> doc = LoadSpec(args);
  if (!doc.ok()) return doc.status();
  if (!depth.ok()) return depth.status();
  RELACC_RETURN_NOT_OK(CheckUnread(args));

  const Specification& spec = doc.value().spec;
  const Schema& schema = spec.ie.schema();
  ExplainedChase explained(spec);
  if (!explained.church_rosser()) {
    return Status::FailedPrecondition("specification is not Church-Rosser: " +
                                      explained.violation());
  }
  if (attr_name.empty()) {
    // Explain every deduced attribute.
    for (AttrId a = 0; a < schema.size(); ++a) {
      if (explained.FindTeDerivation(a).has_value()) {
        out << explained.Explain(*explained.FindTeDerivation(a),
                                 depth.value());
        out << "\n";
      }
    }
    return Status::OK();
  }
  std::optional<AttrId> attr = schema.IndexOf(attr_name);
  if (!attr) {
    return Status::InvalidArgument("unknown attribute '" + attr_name + "'");
  }
  std::optional<int> d = explained.FindTeDerivation(*attr);
  if (!d) {
    out << explained.ExplainTarget(*attr);
    return Status::OK();
  }
  out << explained.Explain(*d, depth.value());
  return Status::OK();
}

Status CmdTopK(const Args& args, std::ostream& out) {
  Result<int> k = GetKFlag(args);
  const std::string algo = args.GetString("algo", "topkct");
  const bool as_json = args.Has("json");
  const std::string snapshot = args.GetString("snapshot");
  if (!k.ok()) return k.status();
  TopKAlgorithm algorithm = TopKAlgorithm::kTopKCT;
  if (algo == "heuristic") {
    algorithm = TopKAlgorithm::kHeuristic;
  } else if (algo == "rankjoin") {
    algorithm = TopKAlgorithm::kRankJoin;
  } else if (algo == "brute") {
    algorithm = TopKAlgorithm::kBruteForce;
  } else if (algo != "topkct") {
    return Status::InvalidArgument(
        "--algo must be topkct, heuristic, rankjoin or brute");
  }
  RELACC_RETURN_NOT_OK(CheckUnread(args));

  // The ranking checks its candidates on the caller's thread.
  ServiceOptions service_options;
  service_options.num_threads = 1;
  std::unique_ptr<AccuracyService> service;
  Schema schema;
  if (!snapshot.empty()) {
    // The artifact replaces the spec document, chase config included.
    if (!args.positionals().empty()) {
      return Status::InvalidArgument(
          "--snapshot replaces the <spec.json> argument");
    }
    service_options.snapshot_path = snapshot;
    Result<std::unique_ptr<AccuracyService>> created =
        AccuracyService::Create(Specification(), std::move(service_options));
    if (!created.ok()) return created.status();
    service = std::move(created).value();
    schema = service->specification().ie.schema();
  } else {
    Result<SpecDocument> doc = LoadSpec(args);
    if (!doc.ok()) return doc.status();
    Specification& spec = doc.value().spec;
    schema = spec.ie.schema();
    Result<std::unique_ptr<AccuracyService>> created =
        AccuracyService::Create(std::move(spec), std::move(service_options));
    if (!created.ok()) return created.status();
    service = std::move(created).value();
  }
  Result<ChaseOutcome> outcome = service->DeduceEntity();
  if (!outcome.ok()) return outcome.status();
  if (!outcome.value().church_rosser) {
    return Status::FailedPrecondition("specification is not Church-Rosser: " +
                                      outcome.value().violation);
  }
  const Tuple& deduced = outcome.value().target;
  const int kk = k.value();
  // Run the ranking even when the deduced target is complete: the
  // algorithms then verify the target and return it as its own sole
  // candidate, which the JSON output has always reported.
  Result<TopKResult> ranked = service->TopK(kk, algorithm);
  if (!ranked.ok()) return ranked.status();
  const TopKResult& result = ranked.value();

  if (as_json) {
    // The shared serve serializer, so this document is byte-identical to
    // a serve client's `topk` result by construction.
    out << serve::TopKReportToJson(deduced, result, schema).Dump(2) << "\n";
    return Status::OK();
  }
  if (deduced.IsComplete()) {
    out << "deduced target is already complete; nothing to rank\n";
    PrintTarget(deduced, schema, out);
    return Status::OK();
  }
  out << "deduced target (incomplete):\n";
  PrintTarget(deduced, schema, out);
  out << "top-" << kk << " candidates (" << algo << "):\n";
  for (size_t i = 0; i < result.targets.size(); ++i) {
    out << "#" << (i + 1) << "  score=" << result.scores[i] << "\n";
    PrintTarget(result.targets[i], schema, out);
  }
  if (result.targets.empty()) out << "(no candidate targets found)\n";
  return Status::OK();
}

Status CmdFmt(const Args& args, std::ostream& out) {
  const bool rules_only = args.Has("rules-only");
  Result<SpecDocument> doc = LoadSpec(args);
  if (!doc.ok()) return doc.status();
  RELACC_RETURN_NOT_OK(CheckUnread(args));
  if (rules_only) {
    out << FormatProgramDsl(doc.value().spec.rules,
                            doc.value().spec.ie.schema(),
                            doc.value().Masters(), doc.value().entity_name);
  } else {
    out << SpecToJson(doc.value()).Dump(2) << "\n";
  }
  return Status::OK();
}

Status CmdPipeline(const Args& args, std::ostream& out) {
  const std::string key = args.GetString("key");
  Result<int64_t> threads = args.GetInt("threads", 0);
  Result<int64_t> window = args.GetInt("window", 0);
  const std::string completion = args.GetString("completion", "best");
  const std::string snapshot = args.GetString("snapshot");
  const bool as_json = args.Has("json");
  Result<SpecDocument> doc = LoadSpec(args);
  if (!doc.ok()) return doc.status();
  if (!threads.ok()) return threads.status();
  // Bounded before any service exists: each budget thread is an OS
  // thread, and the int cast must not wrap.
  if (threads.value() < 0 || threads.value() > 256) {
    return Status::InvalidArgument(
        "--threads must be between 0 and 256 (0 = hardware concurrency)");
  }
  if (!window.ok()) return window.status();
  if (window.value() < 0) {
    return Status::InvalidArgument(
        "--window must be >= 0 (0 = service default)");
  }
  CompletionPolicy policy = CompletionPolicy::kBestCandidate;
  if (completion == "heuristic") {
    policy = CompletionPolicy::kHeuristic;
  } else if (completion == "none") {
    policy = CompletionPolicy::kLeaveNull;
  } else if (completion != "best") {
    return Status::InvalidArgument(
        "--completion must be best, heuristic or none");
  }
  const Specification& spec = doc.value().spec;
  const Schema& schema = spec.ie.schema();
  ResolverConfig resolver;
  RELACC_RETURN_NOT_OK(ParseKeyAttrs(key, schema, &resolver));
  RELACC_RETURN_NOT_OK(CheckUnread(args));

  // The flat relation goes through entity resolution, then every cluster
  // streams through one pipeline session. The spec document's chase
  // config (builtin_axioms, action budget) governs every
  // per-entity chase; it used to be dropped here, silently running the
  // default config instead.
  ResolutionResult resolution = ResolveEntities(spec.ie, resolver);
  ServiceOptions service_options;
  service_options.num_threads = static_cast<int>(threads.value());
  service_options.completion = policy;
  if (window.value() > 0) {
    service_options.window = window.value();
  }
  if (!snapshot.empty()) {
    // The service (masters, rules, chase config, chased checkpoint)
    // comes from the artifact; the spec document still provides the
    // flat relation that entity resolution clusters. The document's
    // dictionary must not seed the service — the artifact restores its
    // own (id stability needs a fresh one).
    service_options.snapshot_path = snapshot;
  } else {
    // Seeded with the parse-time dictionary (SpecDocument::dict), so the
    // service never re-interns the document.
    service_options.dictionary = doc.value().dict;
  }
  Result<PipelineReport> finished = StreamResolvedEntities(
      spec, std::move(resolution.entities), std::move(service_options));
  if (!finished.ok()) return finished.status();
  const PipelineReport& report = finished.value();

  if (as_json) {
    // The shared serve serializer, so this document is byte-identical to
    // a serve client's `pipeline.finish` result by construction (the
    // serve-smoke CI lane diffs the two).
    out << serve::PipelineReportToJson(report, schema).Dump(2) << "\n";
    return Status::OK();
  }
  out << "entities resolved:          " << report.entities.size() << "\n"
      << "input tuples:               " << report.total_tuples << "\n"
      << "Church-Rosser:              " << report.num_church_rosser << "\n"
      << "complete via chase:         " << report.num_complete_by_chase << "\n"
      << "completed via candidates:   " << report.num_completed_by_candidates
      << "\n"
      << "still incomplete:           " << report.num_incomplete << "\n"
      << "attrs deduced by chase:     "
      << static_cast<int>(report.deduced_attr_fraction * 100.0 + 0.5) << "%\n";
  return Status::OK();
}

Status CmdInteractive(const Args& args, std::ostream& out, std::istream& in) {
  Result<int> k = GetKFlag(args);
  Result<SpecDocument> doc = LoadSpec(args);
  if (!doc.ok()) return doc.status();
  if (!k.ok()) return k.status();
  RELACC_RETURN_NOT_OK(CheckUnread(args));

  const Specification& spec = doc.value().spec;
  const Schema& schema = spec.ie.schema();
  ConsoleUser user(schema, in, out);

  // The console loop is the Fig. 3 oracle over an interactive session:
  // the session keeps its engine's chase trail warm across the user's
  // revisions.
  ServiceOptions service_options;
  service_options.num_threads = 1;
  Result<std::unique_ptr<AccuracyService>> service =
      AccuracyService::Create(spec, std::move(service_options));
  if (!service.ok()) return service.status();
  InteractionOptions session_options;
  session_options.k = k.value();
  Result<std::unique_ptr<InteractionSession>> session =
      service.value()->StartInteraction(std::move(session_options));
  if (!session.ok()) return session.status();
  FrameworkResult result =
      DriveInteraction(*session.value(), &user, /*max_rounds=*/32);
  if (!result.church_rosser) {
    return Status::FailedPrecondition(
        "specification is not Church-Rosser; revise the rules");
  }
  out << "\n== final target ("
      << (result.found_complete_target ? "complete" : "partial") << ", "
      << result.interaction_rounds << " interaction round(s)) ==\n";
  PrintTarget(result.target, schema, out);
  return Status::OK();
}

// --- relacc serve ----------------------------------------------------------

/// Signal → drain hand-off. The handler only calls RequestDrain (one
/// async-signal-safe write on the server's self-pipe); if the signal
/// lands in the window before the server pointer is published, the
/// pending flag makes CmdServe drain immediately after Start.
std::atomic<serve::Server*> g_serve_server{nullptr};
std::atomic<bool> g_serve_drain_pending{false};

extern "C" void RelaccServeSignalHandler(int) {
  serve::Server* server = g_serve_server.load();
  if (server != nullptr) {
    server->RequestDrain();
  } else {
    g_serve_drain_pending.store(true);
  }
}

/// Installs the drain handler on SIGTERM and SIGINT for the lifetime of
/// the scope, restoring the previous dispositions after — the serve
/// command must not leave handlers pointing at a dead server behind.
class ServeSignalScope {
 public:
  ServeSignalScope() {
    g_serve_drain_pending.store(false);
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = RelaccServeSignalHandler;
    sigemptyset(&action.sa_mask);
    sigaction(SIGTERM, &action, &old_term_);
    sigaction(SIGINT, &action, &old_int_);
    // A client that disconnects mid-response must not kill the daemon:
    // writes to its dead socket should fail with EPIPE, not raise
    // SIGPIPE. The wire layer already sends with MSG_NOSIGNAL; this
    // covers every other fd (port file, stray stdio on a closed pipe).
    struct sigaction ignore;
    std::memset(&ignore, 0, sizeof(ignore));
    ignore.sa_handler = SIG_IGN;
    sigemptyset(&ignore.sa_mask);
    sigaction(SIGPIPE, &ignore, &old_pipe_);
  }
  ~ServeSignalScope() {
    g_serve_server.store(nullptr);
    sigaction(SIGTERM, &old_term_, nullptr);
    sigaction(SIGINT, &old_int_, nullptr);
    sigaction(SIGPIPE, &old_pipe_, nullptr);
  }

 private:
  struct sigaction old_term_;
  struct sigaction old_int_;
  struct sigaction old_pipe_;
};

/// `relacc serve <spec.json> [--host H] [--port N] [--replicas N]
/// [--threads N] [--window N] [--queue-depth N] [--deadline-ms N]
/// [--quarantine-after N] [--fault-inject SPEC] [--port-file PATH]
/// [--snapshot FILE [--snapshot-strict]]`: the long-lived daemon of
/// serve/server.h over a pool of AccuracyService replicas built from
/// the spec document and/or a snapshot artifact. Spec + --snapshot
/// together enable graceful degradation: a corrupt or mismatched
/// artifact logs a warning and the daemon cold-builds from the spec
/// instead of refusing to start (--snapshot-strict restores the hard
/// failure). Exit contract: 0 after a clean SIGTERM/SIGINT drain, 2 on
/// usage errors, 1 when the address cannot be bound or the spec cannot
/// be read.
Status CmdServe(const Args& args, std::ostream& out) {
  const std::string host = args.GetString("host", "127.0.0.1");
  Result<int64_t> port = args.GetInt("port", 0);
  Result<int64_t> replicas = args.GetInt("replicas", 1);
  Result<int64_t> threads = args.GetInt("threads", 0);
  Result<int64_t> window = args.GetInt("window", 0);
  Result<int64_t> queue_depth = args.GetInt("queue-depth", 32);
  Result<int64_t> deadline_ms = args.GetInt("deadline-ms", 0);
  Result<int64_t> quarantine_after = args.GetInt("quarantine-after", 3);
  std::string fault_spec = args.GetString("fault-inject");
  const bool snapshot_strict = args.Has("snapshot-strict");
  const std::string port_file = args.GetString("port-file");
  const std::string snapshot = args.GetString("snapshot");
  std::optional<SpecDocument> doc;
  if (snapshot.empty() || !args.positionals().empty()) {
    if (!snapshot.empty() && snapshot_strict) {
      return Status::InvalidArgument(
          "--snapshot replaces the <spec.json> argument");
    }
    Result<SpecDocument> loaded = LoadSpec(args);
    if (!loaded.ok()) return loaded.status();
    doc = std::move(loaded).value();
  }
  if (!port.ok()) return port.status();
  if (!replicas.ok()) return replicas.status();
  if (!threads.ok()) return threads.status();
  if (!window.ok()) return window.status();
  if (!queue_depth.ok()) return queue_depth.status();
  if (!deadline_ms.ok()) return deadline_ms.status();
  if (!quarantine_after.ok()) return quarantine_after.status();
  if (port.value() < 0 || port.value() > 65535) {
    return Status::InvalidArgument(
        "--port must be in [0, 65535] (0 = ephemeral)");
  }
  if (replicas.value() < 1 || replicas.value() > 64) {
    return Status::InvalidArgument("--replicas must be in [1, 64]");
  }
  if (threads.value() < 0 || threads.value() > 256) {
    return Status::InvalidArgument(
        "--threads must be between 0 and 256 (0 = hardware concurrency)");
  }
  if (window.value() < 0) {
    return Status::InvalidArgument(
        "--window must be >= 0 (0 = service default)");
  }
  if (queue_depth.value() < 1 || queue_depth.value() > 4096) {
    return Status::InvalidArgument("--queue-depth must be in [1, 4096]");
  }
  if (deadline_ms.value() < 0) {
    return Status::InvalidArgument(
        "--deadline-ms must be >= 0 (0 = no deadline)");
  }
  if (quarantine_after.value() < 1 || quarantine_after.value() > 100) {
    return Status::InvalidArgument("--quarantine-after must be in [1, 100]");
  }
  RELACC_RETURN_NOT_OK(CheckUnread(args));
  if (fault_spec.empty()) {
    // Flag wins over environment; the env var exists so a supervisor
    // (or the chaos CI lane) can inject faults without changing the
    // daemon's command line.
    if (const char* env = std::getenv("RELACC_FAULT_INJECT")) fault_spec = env;
  }

  ServiceOptions service_options;
  service_options.num_threads = static_cast<int>(threads.value());
  if (window.value() > 0) service_options.window = window.value();
  if (!snapshot.empty()) {
    service_options.snapshot_path = snapshot;
    service_options.snapshot_fallback = doc.has_value() && !snapshot_strict;
  }

  // One service per replica, every one from the same spec/snapshot (a
  // snapshot is mmap-shared, so N replicas cost one set of pages).
  std::vector<std::unique_ptr<AccuracyService>> services;
  std::vector<AccuracyService*> service_ptrs;
  for (int64_t i = 0; i < replicas.value(); ++i) {
    Specification spec;
    if (doc.has_value()) {
      spec = i + 1 < replicas.value() ? doc->spec : std::move(doc->spec);
    }
    Result<std::unique_ptr<AccuracyService>> service =
        AccuracyService::Create(std::move(spec), service_options);
    if (!service.ok()) return service.status();
    if (i == 0 && service.value()->degraded()) {
      out << "warning: snapshot '" << snapshot
          << "' unusable, serving from a cold build instead: "
          << service.value()->degraded_reason() << "\n"
          << std::flush;
    }
    service_ptrs.push_back(service.value().get());
    services.push_back(std::move(service).value());
  }

  serve::ServerOptions server_options;
  server_options.host = host;
  server_options.port = static_cast<int>(port.value());
  server_options.queue_depth = static_cast<int>(queue_depth.value());
  server_options.default_deadline_ms = deadline_ms.value();
  server_options.quarantine_after = static_cast<int>(quarantine_after.value());
  server_options.fault_inject = fault_spec;
  ServeSignalScope signals;
  Result<std::unique_ptr<serve::Server>> server =
      serve::Server::Start(service_ptrs, server_options);
  if (!server.ok()) return server.status();
  g_serve_server.store(server.value().get());
  if (g_serve_drain_pending.load()) server.value()->RequestDrain();

  // Readiness protocol: the port file (then the listening line) appears
  // only once accepts are live, so a supervisor can wait on either.
  if (!port_file.empty()) {
    Status wrote = WriteFile(
        port_file, std::to_string(server.value()->port()) + "\n");
    if (!wrote.ok()) return wrote;
  }
  out << "relacc serve listening on " << host << ":"
      << server.value()->port() << " (" << server.value()->replicas()
      << " replica" << (server.value()->replicas() == 1 ? "" : "s") << ")\n"
      << std::flush;

  Status done = server.value()->Wait();
  const serve::Scheduler::Stats stats = server.value()->scheduler_stats();
  out << "relacc serve drained (interactive=" << stats.executed_interactive
      << " batch=" << stats.executed_batch << " rejected=" << stats.rejected
      << " deadline_exceeded=" << server.value()->deadline_exceeded()
      << " shed=" << server.value()->shed()
      << " quarantines=" << server.value()->pool().total_quarantines()
      << " readmissions=" << server.value()->pool().total_readmissions()
      << ")\n";
  return done;
}

Status CmdDiscover(const Args& args, std::ostream& out) {
  const std::string key = args.GetString("key");
  Result<int> min_support = GetIntFlag(args, "min-support", 20);
  const std::string min_conf_text = args.GetString("min-confidence", "0.98");
  Result<int> max_rules = GetIntFlag(args, "max-rules", 50);
  Result<SpecDocument> doc = LoadSpec(args);
  if (!doc.ok()) return doc.status();
  if (!min_support.ok()) return min_support.status();
  if (!max_rules.ok()) return max_rules.status();
  char* end = nullptr;
  const double min_confidence = std::strtod(min_conf_text.c_str(), &end);
  if (end == nullptr || *end != '\0' || min_confidence < 0.0 ||
      min_confidence > 1.0) {
    return Status::InvalidArgument(
        "--min-confidence expects a number in [0,1]");
  }
  const Specification& spec = doc.value().spec;
  const Schema& schema = spec.ie.schema();
  ResolverConfig resolver;
  RELACC_RETURN_NOT_OK(ParseKeyAttrs(key, schema, &resolver));
  RELACC_RETURN_NOT_OK(CheckUnread(args));

  // Bootstrap loop of ar_miner.h: deduce targets with the current Σ
  // (streamed through one pipeline session, same wiring as CmdPipeline),
  // then mine candidate rules from (instances, deduced targets).
  ResolutionResult resolution = ResolveEntities(spec.ie, resolver);
  // The miner below still needs resolution.entities, so the session gets
  // its own copy.
  std::vector<EntityInstance> clusters = resolution.entities;
  Result<PipelineReport> finished = StreamResolvedEntities(
      spec, std::move(clusters), ServiceOptions{});
  if (!finished.ok()) return finished.status();
  const PipelineReport& report = finished.value();

  std::vector<Tuple> targets(resolution.entities.size(),
                             Tuple(std::vector<Value>(schema.size())));
  for (size_t row = 0; row < report.row_entity.size(); ++row) {
    targets[report.row_entity[row]] = report.targets.tuple(row);
  }
  ArMinerConfig miner;
  miner.min_support = min_support.value();
  miner.min_confidence = min_confidence;
  miner.max_rules = max_rules.value();
  std::vector<MinedRule> mined =
      MineAccuracyRules(resolution.entities, targets, miner);

  out << "# mined " << mined.size() << " candidate rule(s) from "
      << resolution.entities.size() << " entities\n";
  for (const MinedRule& m : mined) {
    out << "# support=" << m.support << " confidence=" << m.confidence << "\n"
        << FormatRuleDsl(m.rule, schema, doc.value().Masters(),
                         doc.value().entity_name);
  }
  return Status::OK();
}

Status CmdGen(const Args& args, std::ostream& out) {
  const std::string profile = args.GetString("profile", "med");
  Result<int> entities = GetIntFlag(args, "entities", 50);
  Result<int64_t> seed = args.GetInt("seed", 42);
  Result<int> index = GetIntFlag(args, "entity", 0);
  const bool flat = args.Has("flat");
  const std::string output = args.GetString("out");
  if (!entities.ok()) return entities.status();
  if (!seed.ok()) return seed.status();
  if (!index.ok()) return index.status();
  if (profile != "med" && profile != "cfp") {
    return Status::InvalidArgument("--profile must be med or cfp");
  }
  RELACC_RETURN_NOT_OK(CheckUnread(args));

  ProfileConfig config = profile == "med"
                             ? MedConfig(static_cast<uint64_t>(seed.value()))
                             : CfpConfig(static_cast<uint64_t>(seed.value()));
  config.num_entities = entities.value();
  config.master_size = std::max(
      1, static_cast<int>(static_cast<int64_t>(entities.value()) * 8 / 10));
  EntityDataset dataset = GenerateProfile(config);
  if (index.value() < 0 ||
      static_cast<std::size_t>(index.value()) >= dataset.entities.size()) {
    return Status::OutOfRange("--entity out of range (dataset has " +
                              std::to_string(dataset.entities.size()) +
                              " entities)");
  }

  SpecDocument doc;
  doc.spec = dataset.SpecFor(index.value());
  if (flat) {
    // One flat relation holding every generated entity's tuples, so the
    // document exercises the full ER + pipeline path (`pipeline --key
    // key`) and multi-entity serve workloads instead of a single
    // instance. The profile's `key` attribute identifies each entity,
    // so resolution recovers the generated clusters.
    Relation all(dataset.schema);
    for (const EntityInstance& entity : dataset.entities) {
      for (const Tuple& t : entity.tuples()) all.Add(t);
    }
    doc.spec.ie = std::move(all);
  }
  doc.entity_name = "R";
  for (size_t m = 0; m < doc.spec.masters.size(); ++m) {
    doc.master_names.push_back("m" + std::to_string(m));
  }
  const std::string text = SpecToJson(doc).Dump(2) + "\n";
  if (output.empty()) {
    out << text;
    return Status::OK();
  }
  RELACC_RETURN_NOT_OK(WriteFile(output, text));
  if (flat) {
    out << "wrote " << output << " (flat, " << dataset.entities.size()
        << " entities, " << doc.spec.ie.size() << " tuples, "
        << doc.spec.rules.size() << " rules)\n";
  } else {
    out << "wrote " << output << " (entity " << index.value() << " of "
        << dataset.entities.size() << ", " << doc.spec.ie.size()
        << " tuples, " << doc.spec.rules.size() << " rules)\n";
  }
  return Status::OK();
}

// --- relacc snapshot -------------------------------------------------------

const char* SectionName(snapshot::SectionType type) {
  switch (type) {
    case snapshot::SectionType::kMeta:
      return "meta";
    case snapshot::SectionType::kDict:
      return "dict";
    case snapshot::SectionType::kEntity:
      return "entity";
    case snapshot::SectionType::kMasters:
      return "masters";
    case snapshot::SectionType::kRules:
      return "rules";
    case snapshot::SectionType::kProgram:
      return "program";
    case snapshot::SectionType::kCheckpoint:
      return "checkpoint";
  }
  return "unknown";
}

/// `relacc snapshot build <spec.json> --out <file> [--threads N]`:
/// builds the service exactly as `relacc serve <spec.json>` would
/// (the document's dictionary and chase config), chases the all-null
/// checkpoint once, and serializes the whole thing into one artifact.
Status CmdSnapshotBuild(const Args& args, std::ostream& out) {
  Result<int64_t> threads = args.GetInt("threads", 0);
  const std::string out_path = args.GetString("out");
  if (!threads.ok()) return threads.status();
  if (threads.value() < 0 || threads.value() > 256) {
    return Status::InvalidArgument(
        "--threads must be between 0 and 256 (0 = hardware concurrency)");
  }
  if (out_path.empty()) {
    return Status::InvalidArgument("--out <file> is required");
  }
  if (args.positionals().size() < 2) {
    return Status::InvalidArgument(
        "usage: relacc snapshot build <spec.json> --out <file>");
  }
  Result<SpecDocument> doc = LoadSpecAt(args.positionals()[1]);
  if (!doc.ok()) return doc.status();
  RELACC_RETURN_NOT_OK(CheckUnread(args));

  ServiceOptions service_options;
  service_options.num_threads = static_cast<int>(threads.value());
  service_options.dictionary = doc.value().dict;
  Result<std::unique_ptr<AccuracyService>> service = AccuracyService::Create(
      std::move(doc.value().spec), std::move(service_options));
  if (!service.ok()) return service.status();
  RELACC_RETURN_NOT_OK(service.value()->WriteSnapshot(out_path));

  // Re-open what was just written: one cheap validation pass, and the
  // summary line comes from the artifact itself, not from intent.
  Result<std::unique_ptr<snapshot::SnapshotReader>> reader =
      snapshot::SnapshotReader::Open(out_path);
  if (!reader.ok()) return reader.status();
  const snapshot::SnapshotReader::Info& info = reader.value()->info();
  out << "wrote " << out_path << " (" << info.file_size << " bytes, "
      << info.dict_terms << " terms, " << info.entity_rows
      << " entity tuples, " << info.num_masters << " master(s), "
      << info.program_steps << " ground steps, checkpoint "
      << (info.checkpoint_ok ? "ok" : "failed") << ")\n";
  return Status::OK();
}

/// `relacc snapshot info <file> [--json]`: header + section table of an
/// artifact, without loading any of it into a service.
Status CmdSnapshotInfo(const Args& args, std::ostream& out) {
  const bool as_json = args.Has("json");
  if (args.positionals().size() < 2) {
    return Status::InvalidArgument(
        "usage: relacc snapshot info <file> [--json]");
  }
  RELACC_RETURN_NOT_OK(CheckUnread(args));
  Result<std::unique_ptr<snapshot::SnapshotReader>> reader =
      snapshot::SnapshotReader::Open(args.positionals()[1]);
  if (!reader.ok()) return reader.status();
  const snapshot::SnapshotReader::Info& info = reader.value()->info();

  if (as_json) {
    Json j = Json::Object();
    j.Set("path", Json::Str(args.positionals()[1]));
    j.Set("format_version",
          Json::Int(static_cast<int64_t>(snapshot::kFormatVersion)));
    j.Set("tool_version", Json::Str(info.tool_version));
    j.Set("file_size", Json::Int(static_cast<int64_t>(info.file_size)));
    j.Set("num_attrs", Json::Int(info.num_attrs));
    j.Set("entity_rows", Json::Int(info.entity_rows));
    j.Set("num_masters", Json::Int(info.num_masters));
    j.Set("dict_terms", Json::Int(info.dict_terms));
    j.Set("program_steps", Json::Int(info.program_steps));
    j.Set("checkpoint_ok", Json::Bool(info.checkpoint_ok));
    Json sections = Json::Array();
    for (const snapshot::SectionEntry& s : info.sections) {
      Json row = Json::Object();
      row.Set("section", Json::Str(SectionName(s.type)));
      row.Set("offset", Json::Int(static_cast<int64_t>(s.offset)));
      row.Set("size", Json::Int(static_cast<int64_t>(s.size)));
      sections.Append(std::move(row));
    }
    j.Set("sections", std::move(sections));
    out << j.Dump(2) << "\n";
    return Status::OK();
  }
  out << args.positionals()[1] << ": relacc snapshot v"
      << snapshot::kFormatVersion << " (written by relacc "
      << info.tool_version << ")\n"
      << "  file size:      " << info.file_size << " bytes\n"
      << "  attributes:     " << info.num_attrs << "\n"
      << "  entity tuples:  " << info.entity_rows << "\n"
      << "  masters:        " << info.num_masters << "\n"
      << "  dict terms:     " << info.dict_terms << "\n"
      << "  ground steps:   " << info.program_steps << "\n"
      << "  checkpoint:     " << (info.checkpoint_ok ? "ok" : "failed")
      << "\n"
      << "  sections:\n";
  for (const snapshot::SectionEntry& s : info.sections) {
    out << "    " << SectionName(s.type) << ": offset=" << s.offset
        << " size=" << s.size << "\n";
  }
  return Status::OK();
}

Status CmdSnapshot(const Args& args, std::ostream& out) {
  if (args.positionals().empty()) {
    return Status::InvalidArgument(
        "usage: relacc snapshot build <spec.json> --out <file> | "
        "relacc snapshot info <file>");
  }
  const std::string& sub = args.positionals()[0];
  if (sub == "build") return CmdSnapshotBuild(args, out);
  if (sub == "info") return CmdSnapshotInfo(args, out);
  return Status::InvalidArgument("unknown snapshot subcommand '" + sub +
                                 "' (expected build or info)");
}

/// `relacc lint <spec.json> [--json] [--werror]`: loads the document
/// leniently (parse failures become diagnostics instead of aborting the
/// load), runs the static analyzer, and prints the findings. Its exit
/// contract extends the tool's usual one with code 4: 0 means a clean
/// spec, 1 an unreadable or structurally-broken document (nothing to
/// analyze), 2 a usage error, and 4 that the linter produced findings —
/// errors always fail; warnings only under --werror; notes never do.
/// Returns the exit code directly because 4 is not expressible as a
/// Status, but routes the 1/2 failures through the shared formatting.
int LintExitCode(const Status& status, std::ostream& err) {
  if (!status.message().empty()) {
    err << "error: " << status.ToString() << "\n";
  }
  switch (status.code()) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return 2;
    default:
      return 1;
  }
}

int CmdLint(const Args& args, std::ostream& out, std::ostream& err) {
  const bool as_json = args.Has("json");
  const bool werror = args.Has("werror");
  Status unread = CheckUnread(args);
  if (!unread.ok()) return LintExitCode(unread, err);
  if (args.positionals().empty()) {
    return LintExitCode(
        Status::InvalidArgument("expected a <spec.json> argument"), err);
  }
  const std::string& path = args.positionals()[0];
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return LintExitCode(text.status(), err);
  Result<Json> parsed = Json::Parse(text.value());
  if (!parsed.ok()) {
    return LintExitCode(Status::ParseError(parsed.status().message()), err);
  }
  const auto slash = path.find_last_of('/');
  const std::string base_dir =
      slash == std::string::npos ? "" : path.substr(0, slash);
  std::vector<ParseIssue> issues;
  Result<SpecDocument> doc =
      SpecFromJsonLenient(parsed.value(), base_dir, &issues);
  if (!doc.ok()) {
    // Structural problems (missing schema, bad tuples) leave nothing to
    // analyze; they stay hard failures like every other command's.
    return LintExitCode(Status::ParseError(doc.status().message()), err);
  }

  DiagnosticSink sink;
  for (const ParseIssue& issue : issues) {
    sink.Add(DiagnosticFromParseIssue(issue));
  }
  for (Diagnostic& d :
       AnalyzeSpecification(doc.value().spec, doc.value().entity_name,
                            doc.value().master_names)) {
    sink.Add(std::move(d));
  }
  sink.Sort();
  const int errors = sink.errors();
  const int warnings = sink.warnings();
  const std::vector<Diagnostic> diagnostics = sink.Take();

  if (as_json) {
    out << DiagnosticsToJson(diagnostics, path).Dump(2) << "\n";
  } else if (diagnostics.empty()) {
    out << path << ": no issues found\n";
  } else {
    out << FormatDiagnostics(diagnostics, path);
  }
  if (errors > 0 || (werror && warnings > 0)) return 4;
  return 0;
}

/// The single exit point: every command failure is a Status routed up
/// here, mapped onto the tool's historical exit codes — 2 for usage
/// errors, 3 for a specification that is not Church-Rosser, 1 for I/O,
/// parse and internal failures.
int ExitCodeOf(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return 2;
    case StatusCode::kFailedPrecondition:
      return 3;
    default:
      return 1;
  }
}

int FinishCli(const Status& status, std::ostream& err) {
  if (status.ok()) return 0;
  // An empty message means the command already reported the outcome on
  // its own stream (CmdCheck's Church-Rosser verdict goes to `out`);
  // only the exit code is taken from the status then.
  if (!status.message().empty()) {
    err << "error: " << status.ToString() << "\n";
  }
  return ExitCodeOf(status);
}

}  // namespace

std::string CliUsage() {
  return
      "relacc — determine the relative accuracy of attributes "
      "(Cao/Fan/Yu, SIGMOD'13)\n"
      "\n"
      "usage: relacc <command> <spec.json> [flags]\n"
      "       relacc --version\n"
      "\n"
      "commands:\n"
      "  check     Church-Rosser check + deduced target (IsCR)\n"
      "            [--json] [--quiet]\n"
      "  explain   proof tree for deduced target attributes\n"
      "            [--attr <name>] [--depth N]\n"
      "  topk      top-k candidate targets for an incomplete target\n"
      "            [--k N] [--algo topkct|heuristic|rankjoin|brute]\n"
      "            [--json] [--snapshot FILE]\n"
      "  fmt       normalize a spec document / its rule program\n"
      "            [--rules-only]\n"
      "  lint      static analysis of the spec (schema, dead rules,\n"
      "            duplicates, Church-Rosser conflict pairs)\n"
      "            [--json] [--werror]\n"
      "  pipeline  flat relation -> entity resolution -> per-entity targets\n"
      "            --key <attr[,attr...]> [--threads N] [--window N]\n"
      "            [--completion best|heuristic|none]\n"
      "            [--snapshot FILE] [--json]\n"
      "  interactive  the Fig. 3 user loop on one entity instance\n"
      "            [--k N]\n"
      "  serve     long-lived daemon over a pool of AccuracyService\n"
      "            replicas (frame protocol of serve/wire.h; per-request\n"
      "            deadlines, quarantine + re-admission, drains cleanly\n"
      "            on SIGTERM)\n"
      "            [--host H] [--port N] [--replicas N] [--threads N]\n"
      "            [--window N] [--queue-depth N] [--deadline-ms N]\n"
      "            [--quarantine-after N] [--fault-inject SPEC]\n"
      "            [--port-file PATH]\n"
      "            [--snapshot FILE [--snapshot-strict]]\n"
      "  snapshot  build / inspect mmap-able service artifacts for O(1)\n"
      "            start (snapshot build <spec.json> --out FILE;\n"
      "            snapshot info FILE [--json]); load one with\n"
      "            --snapshot on topk, pipeline and serve\n"
      "  discover  mine candidate form-(1) rules from a flat relation\n"
      "            --key <attr[,attr...]> [--min-support N]\n"
      "            [--min-confidence X] [--max-rules N]\n"
      "  gen       emit a sample spec document from the built-in generators\n"
      "            [--profile med|cfp] [--entities N] [--seed N]\n"
      "            [--entity I] [--flat] [--out FILE]\n"
      "  version   print the library version (also: relacc --version)\n"
      "  help      this text\n"
      "\n"
      "The spec document format is described in io/spec_io.h; rules use the\n"
      "DSL of dsl/parser.h (an ASCII form of the paper's Table 3 notation).\n"
      "All commands exit 0 on success, 2 on usage errors, 3 when the\n"
      "specification is not Church-Rosser, and 1 on I/O or parse failures.\n"
      "`lint` additionally exits 4 when it has findings: errors always\n"
      "fail; warnings fail only under --werror; notes never do.\n";
}

int RunCliCommand(const Args& args, std::ostream& out, std::ostream& err) {
  return RunCliCommand(args, out, err, std::cin);
}

int RunCliCommand(const Args& args, std::ostream& out, std::ostream& err,
                  std::istream& in) {
  const std::string& cmd = args.command();
  if (cmd == "check") return FinishCli(CmdCheck(args, out), err);
  if (cmd == "explain") return FinishCli(CmdExplain(args, out), err);
  if (cmd == "topk") return FinishCli(CmdTopK(args, out), err);
  if (cmd == "fmt") return FinishCli(CmdFmt(args, out), err);
  // lint owns its exit codes (4 = findings, which no Status expresses).
  if (cmd == "lint") return CmdLint(args, out, err);
  if (cmd == "pipeline") return FinishCli(CmdPipeline(args, out), err);
  if (cmd == "interactive") {
    return FinishCli(CmdInteractive(args, out, in), err);
  }
  if (cmd == "serve") return FinishCli(CmdServe(args, out), err);
  if (cmd == "snapshot") return FinishCli(CmdSnapshot(args, out), err);
  if (cmd == "discover") return FinishCli(CmdDiscover(args, out), err);
  if (cmd == "gen") return FinishCli(CmdGen(args, out), err);
  if (cmd == "version" || cmd == "--version") {
    out << "relacc " << kRelaccVersion << "\n";
    return 0;
  }
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    out << CliUsage();
    return 0;
  }
  err << "error: unknown command '" << cmd << "'\n\n" << CliUsage();
  return 2;
}

int RunCli(const std::vector<std::string>& argv, std::ostream& out,
           std::ostream& err) {
  Result<Args> args = Args::Parse(argv);
  if (!args.ok()) {
    err << "error: " << args.status().ToString() << "\n\n" << CliUsage();
    return 2;
  }
  return RunCliCommand(args.value(), out, err);
}

}  // namespace relacc
