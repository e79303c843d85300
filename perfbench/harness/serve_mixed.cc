// serve_mixed: `relacc serve` over TCP, one batch and two interactive
// clients against an embedded serve::Server with one replica.
//
// Set-up builds a snapshot from the spec document (masters, rules and a
// one-tuple entity of its own; never a flat relation, whose snapshot
// would ground the whole relation as one entity), opens a service from
// it (thread budget 2) and starts the server. Then, for `seconds`:
//   * the batch client streams pre-resolved Med entities, one chunk per
//     pipeline (pipeline.start / submit / finish / session.close), in
//     windows of 2 (one batch quantum each) with heuristic completion:
//     TopKCTh's work per entity is bounded, TopKCT's is not and the wire
//     has no budget for it, so one entity could hold the executor for
//     seconds;
//   * each interactive client runs the Exp-3 simulated user (k = 1)
//     over its share of the interactive pool: interact.start, then
//     suggest, and revise or accept until done, then session.close.
// Latency is interact.suggest only; every method's latency is a layer
// metric. entities_per_s counts batch entities reported plus interactive
// sessions finished, over the wall time of the loop.
//
// Checks: every pipeline.finish report is byte-identical to an
// in-process StartPipeline over the same chunk, and every interactive
// final target equals in-process DriveInteraction on the same entity.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/accuracy_service.h"
#include "framework/framework.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "workloads.h"

namespace relacc {
namespace perfbench {
namespace {

/// Candidates per suggestion. k = 1: the uncapped TopKCT a served
/// suggest runs needs tens of thousands of queue pops for a few entities
/// of every seed at k = 15 (seconds on the single executor, stalling
/// every client); at k = 1 the worst cases are a few thousand.
constexpr int kTopK = 1;
constexpr int kMaxRounds = 32;  // DriveInteraction's default
constexpr int64_t kBatchWindow = 2;
constexpr int kInteractiveClients = 2;

/// The outcome fields of FrameworkResult one interactive session ends on.
struct Final {
  bool church_rosser = false;
  bool found_complete_target = false;
  Tuple target;
  bool operator==(const Final& o) const {
    return church_rosser == o.church_rosser &&
           found_complete_target == o.found_complete_target &&
           target == o.target;
  }
};

struct ClientLog {
  std::map<std::string, std::vector<double>> latency_ms;  // by method
  int64_t requests = 0;
  int64_t request_bytes = 0;
  int64_t response_bytes = 0;
  int64_t entities = 0;      ///< final results delivered
  int64_t report_bytes = 0;  ///< batch: pipeline.finish texts, summed
  double session_ms = 0.0;   ///< interactive: start..close, summed
  int64_t sessions = 0;
  std::vector<std::string> errors;
  std::map<int, std::string> reports;  ///< chunk -> pipeline.finish text
  std::map<int, Final> finals;         ///< pool index -> final outcome
};

/// Everything the clients read; immutable while they run.
struct Stream {
  Schema schema;
  std::vector<std::vector<EntityInstance>> chunks;
  std::vector<Json> chunk_json;
  std::vector<EntityInstance> pool;
  std::vector<Json> pool_json;
  std::vector<Tuple> truths;
};

Result<Json> Call(serve::ServeClient* client, ClientLog* log, Tracer* tracer,
                  const std::string& method, Json params, int64_t request) {
  log->request_bytes += static_cast<int64_t>(params.Dump().size());
  ++log->requests;
  const Clock::time_point start = Clock::now();
  const std::string span_name = "serve." + method;
  Result<Json> response = [&] {
    Span span(tracer, span_name.c_str(), request);
    return client->Call(method, std::move(params));
  }();
  const double ms = MsBetween(start, Clock::now());
  if (!response.ok()) {
    log->errors.push_back(method + ": " + response.status().ToString());
    return response;
  }
  log->latency_ms[method].push_back(ms);
  log->response_bytes += static_cast<int64_t>(response.value().Dump().size());
  return response;
}

Json SessionParams(int64_t sid) {
  Json p = Json::Object();
  p.Set("session", Json::Int(sid));
  return p;
}

Result<Tuple> TupleFromObject(const Json* obj, const Schema& schema) {
  if (obj == nullptr || !obj->is_object()) {
    return Status::InvalidArgument("expected a tuple object");
  }
  std::vector<Value> values;
  for (AttrId a = 0; a < schema.size(); ++a) {
    const Json* cell = obj->Find(schema.name(a));
    Result<Value> v = cell == nullptr
                          ? Result<Value>(Value::Null())
                          : ValueFromJson(*cell, schema.type(a), "cell");
    if (!v.ok()) return v.status();
    values.push_back(std::move(v).value());
  }
  return Tuple(std::move(values));
}

void BatchClient(int port, const Stream& stream, const std::atomic<bool>& stop,
                 Tracer* tracer, ClientLog* log) {
  Result<std::unique_ptr<serve::ServeClient>> client =
      serve::ServeClient::Connect("127.0.0.1", port);
  if (!client.ok()) {
    log->errors.push_back("connect: " + client.status().ToString());
    return;
  }
  serve::ServeClient* c = client.value().get();
  for (int64_t n = 0; !stop.load(); ++n) {
    const int chunk = static_cast<int>(n % static_cast<int64_t>(stream.chunks.size()));
    const int64_t request = n;
    Json start = Json::Object();
    start.Set("window", Json::Int(kBatchWindow));
    start.Set("completion", Json::Str("heuristic"));
    Result<Json> started = Call(c, log, tracer, "pipeline.start", std::move(start), request);
    if (!started.ok()) return;
    const int64_t sid = started.value().GetInt("session").value();
    Json submit = SessionParams(sid);
    submit.Set("entities", stream.chunk_json[static_cast<std::size_t>(chunk)]);
    if (!Call(c, log, tracer, "pipeline.submit", std::move(submit), request).ok()) return;
    Result<Json> report =
        Call(c, log, tracer, "pipeline.finish", SessionParams(sid), request);
    if (!report.ok()) return;
    if (!Call(c, log, tracer, "session.close", SessionParams(sid), request).ok()) return;
    std::string text;
    {
      Span span(tracer, "json.report", request);
      text = report.value().Dump(2) + "\n";
    }
    log->report_bytes += static_cast<int64_t>(text.size());
    log->entities += static_cast<int64_t>(stream.chunks[static_cast<std::size_t>(chunk)].size());
    auto [it, inserted] = log->reports.emplace(chunk, text);
    if (!inserted && it->second != text) {
      log->errors.push_back("chunk " + std::to_string(chunk) + ": report changed");
    }
  }
}

/// One simulated-user session over the wire; false on a failed call.
bool InteractiveSession(serve::ServeClient* c, const Stream& stream, int index,
                        Tracer* tracer, int64_t request, ClientLog* log,
                        Final* out) {
  Json start = Json::Object();
  start.Set("entity", stream.pool_json[static_cast<std::size_t>(index)]);
  start.Set("k", Json::Int(kTopK));
  Result<Json> started = Call(c, log, tracer, "interact.start", std::move(start), request);
  if (!started.ok()) return false;
  const int64_t sid = started.value().GetInt("session").value();
  SimulatedUser user(stream.truths[static_cast<std::size_t>(index)]);
  for (int round = 0; round <= kMaxRounds; ++round) {
    Result<Json> suggested =
        Call(c, log, tracer, "interact.suggest", SessionParams(sid), request);
    if (!suggested.ok()) return false;
    const Json& s = suggested.value();
    out->church_rosser = s.GetBool("church_rosser").value_or(false);
    if (!out->church_rosser) break;
    Result<Tuple> deduced = TupleFromObject(s.Find("deduced_target"), stream.schema);
    if (!deduced.ok()) {
      log->errors.push_back("suggest: " + deduced.status().ToString());
      return false;
    }
    if (s.GetBool("complete").value_or(false)) {
      out->found_complete_target = true;
      out->target = deduced.value();
      break;
    }
    std::vector<Tuple> candidates;
    const Json* list = s.Find("candidates");
    for (int i = 0; list != nullptr && i < list->size(); ++i) {
      Result<Tuple> t = TupleFromObject(list->at(i).Find("target"), stream.schema);
      if (!t.ok()) {
        log->errors.push_back("suggest: " + t.status().ToString());
        return false;
      }
      candidates.push_back(std::move(t).value());
    }
    const UserOracle::Response resp = user.Inspect(deduced.value(), candidates);
    if (resp.accepted_candidate.has_value()) {
      Json accept = SessionParams(sid);
      accept.Set("index", Json::Int(*resp.accepted_candidate));
      if (!Call(c, log, tracer, "interact.accept", std::move(accept), request).ok()) {
        return false;
      }
      out->found_complete_target = true;
      out->target = candidates[static_cast<std::size_t>(*resp.accepted_candidate)];
      break;
    }
    if (!resp.revision.has_value()) {
      out->target = deduced.value();
      break;
    }
    Json revise = SessionParams(sid);
    revise.Set("attr", Json::Str(stream.schema.name(resp.revision->first)));
    revise.Set("value", ValueToJson(resp.revision->second));
    if (!Call(c, log, tracer, "interact.revise", std::move(revise), request).ok()) {
      return false;
    }
  }
  return Call(c, log, tracer, "session.close", SessionParams(sid), request).ok();
}

void InteractiveClient(int port, int client_index, const Stream& stream,
                       const std::atomic<bool>& stop, Tracer* tracer,
                       ClientLog* log) {
  Result<std::unique_ptr<serve::ServeClient>> client =
      serve::ServeClient::Connect("127.0.0.1", port);
  if (!client.ok()) {
    log->errors.push_back("connect: " + client.status().ToString());
    return;
  }
  const int pool = static_cast<int>(stream.pool.size());
  for (int64_t n = 0; !stop.load(); ++n) {
    const int index = static_cast<int>(
        (client_index + n * kInteractiveClients) % pool);
    const int64_t request = 1000000 * (client_index + 1) + n;
    const Clock::time_point start = Clock::now();
    Final final;
    if (!InteractiveSession(client.value().get(), stream, index, tracer,
                            request, log, &final)) {
      return;
    }
    log->session_ms += MsBetween(start, Clock::now());
    ++log->sessions;
    ++log->entities;
    auto [it, inserted] = log->finals.emplace(index, final);
    if (!inserted && !(it->second == final)) {
      log->errors.push_back("entity " + std::to_string(index) +
                            ": final target changed");
    }
  }
}

/// A service from the snapshot at `path` plus the server over it.
struct Serving {
  std::unique_ptr<AccuracyService> service;
  std::unique_ptr<serve::Server> server;

  Status Stop() {
    if (server == nullptr) return Status::OK();
    server->RequestDrain();
    Status drained = server->Wait();
    server.reset();
    service.reset();
    return drained;
  }
};

Status SetUp(const RunConfig& config, Tracer* tracer,
             std::unique_ptr<SpecDocument>* doc, Serving* serving,
             int64_t* snapshot_bytes) {
  Result<SpecDocument> loaded =
      LoadSpec(config.inputs_dir + "/spec.json", tracer);
  if (!loaded.ok()) return loaded.status();
  *doc = std::make_unique<SpecDocument>(std::move(loaded).value());
  const std::string path = config.out_dir + "/serve_mixed.snapshot";
  {
    ServiceOptions options;
    options.num_threads = kThreadBudget;
    options.columnar_storage = true;
    options.dictionary = (*doc)->dict;
    Result<std::unique_ptr<AccuracyService>> cold = [&] {
      Span span(tracer, "api.create");
      return AccuracyService::Create(ServiceSpec((*doc)->spec, (*doc)->spec.ie),
                                     std::move(options));
    }();
    if (!cold.ok()) return cold.status();
    Span span(tracer, "snapshot.write");
    RELACC_RETURN_NOT_OK(cold.value()->WriteSnapshot(path));
  }
  *snapshot_bytes = static_cast<int64_t>(std::filesystem::file_size(path));
  ServiceOptions options;
  options.num_threads = kThreadBudget;
  options.snapshot_path = path;
  Result<std::unique_ptr<AccuracyService>> opened = [&] {
    Span span(tracer, "snapshot.open");
    return AccuracyService::Create(Specification(), std::move(options));
  }();
  if (!opened.ok()) return opened.status();
  serving->service = std::move(opened).value();
  Result<std::unique_ptr<serve::Server>> server = [&] {
    Span span(tracer, "serve.start");
    return serve::Server::Start(serving->service.get());
  }();
  if (!server.ok()) return server.status();
  serving->server = std::move(server).value();
  // Warm-up: a first request over the wire, a deduce of the service's
  // own entity.
  Result<std::unique_ptr<serve::ServeClient>> client =
      serve::ServeClient::Connect("127.0.0.1", serving->server->port());
  if (!client.ok()) return client.status();
  return client.value()->Call("deduce", Json::Object()).status();
}

Result<Stream> LoadStream(const Json& inputs, const Schema& schema) {
  Stream stream;
  stream.schema = schema;
  const Json* batch = inputs.Find("batch");
  for (int c = 0; batch != nullptr && c < batch->size(); ++c) {
    Result<std::vector<EntityInstance>> chunk =
        serve::EntitiesFromJson(batch->at(c), schema);
    if (!chunk.ok()) return chunk.status();
    stream.chunks.push_back(std::move(chunk).value());
    stream.chunk_json.push_back(batch->at(c));
  }
  Result<std::vector<EntityInstance>> pool =
      serve::EntitiesFromJson(*inputs.Find("interactive"), schema);
  if (!pool.ok()) return pool.status();
  stream.pool = std::move(pool).value();
  for (const EntityInstance& e : stream.pool) {
    stream.pool_json.push_back(
        serve::EntitiesToJson(std::vector<EntityInstance>{e}, schema).at(0));
  }
  Result<std::vector<Tuple>> truths =
      TuplesFromJson(*inputs.Find("truths"), schema);
  if (!truths.ok()) return truths.status();
  stream.truths = std::move(truths).value();
  if (stream.chunks.empty() || stream.pool.size() < kInteractiveClients ||
      stream.truths.size() != stream.pool.size()) {
    return Status::InvalidArgument("serve_mixed inputs are incomplete");
  }
  return stream;
}

}  // namespace

void RunServeMixed(const RunConfig& config, RunResult* result) {
  Tracer tracer(config.trace);
  // Client-side inputs, decoded against the document's schema before
  // set-up (and outside the peak-RSS count).
  std::unique_ptr<SpecDocument> doc;
  Stream stream;
  {
    Result<Json> inputs = LoadJson(config.inputs_dir + "/inputs.json");
    if (!inputs.ok()) return result->Fail(inputs.status().ToString());
    Result<SpecDocument> probe = LoadSpec(config.inputs_dir + "/spec.json", nullptr);
    if (!probe.ok()) return result->Fail(probe.status().ToString());
    Result<Stream> loaded = LoadStream(inputs.value(), probe.value().spec.ie.schema());
    if (!loaded.ok()) return result->Fail(loaded.status().ToString());
    stream = std::move(loaded).value();
  }
  ResetPeakRss();

  std::vector<double> setup_s;
  Serving serving;
  int64_t snapshot_bytes = 0;
  for (int s = 0; s < kSetups; ++s) {
    const Status stopped = serving.Stop();
    if (!stopped.ok()) return result->Fail("drain: " + stopped.ToString());
    const Clock::time_point start = Clock::now();
    const Status up =
        SetUp(config, &tracer, &doc, &serving, &snapshot_bytes);
    if (!up.ok()) return result->Fail("set-up: " + up.ToString());
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
  }

  // Timed phase: three closed-loop clients for `seconds`.
  std::atomic<bool> stop{false};
  std::vector<ClientLog> logs(1 + kInteractiveClients);
  const int port = serving.server->port();
  const int64_t spans_before = tracer.size();
  const Clock::time_point timed_start = Clock::now();
  std::vector<std::thread> clients;
  clients.emplace_back(BatchClient, port, std::cref(stream), std::cref(stop),
                       &tracer, &logs[0]);
  for (int i = 0; i < kInteractiveClients; ++i) {
    clients.emplace_back(InteractiveClient, port, i, std::cref(stream),
                         std::cref(stop), &tracer,
                         &logs[static_cast<std::size_t>(1 + i)]);
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(config.seconds));
  stop.store(true);
  for (std::thread& t : clients) t.join();
  const double timed_ms = MsBetween(timed_start, Clock::now());
  const int64_t timed_spans = tracer.size() - spans_before;
  const double peak_rss = PeakRssMb();
  const serve::Scheduler::Stats sched = serving.server->scheduler_stats();
  const int64_t shed = serving.server->shed();
  const Status drained = serving.Stop();
  if (!drained.ok()) result->Fail("drain: " + drained.ToString());

  std::map<std::string, std::vector<double>> by_method;
  int64_t delivered = 0;
  int64_t requests = 0;
  int64_t request_bytes = 0;
  int64_t response_bytes = 0;
  int64_t report_bytes = 0;
  double session_ms = 0.0;
  int64_t sessions = 0;
  std::map<int, std::string> reports;
  std::map<int, Final> finals;
  for (const ClientLog& log : logs) {
    for (const auto& [method, ms] : log.latency_ms) {
      by_method[method].insert(by_method[method].end(), ms.begin(), ms.end());
    }
    result->attempted += log.requests;
    requests += log.requests;
    report_bytes += log.report_bytes;
    for (const std::string& e : log.errors) result->Fail(e);
    delivered += log.entities;
    request_bytes += log.request_bytes;
    response_bytes += log.response_bytes;
    session_ms += log.session_ms;
    sessions += log.sessions;
    reports.insert(log.reports.begin(), log.reports.end());
    for (const auto& [index, final] : log.finals) {
      auto [it, inserted] = finals.emplace(index, final);
      if (!inserted && !(it->second == final)) {
        result->Fail("entity " + std::to_string(index) +
                     ": clients disagree on the final target");
      }
    }
  }
  SetEndToEnd(setup_s, delivered / (timed_ms / 1000.0),
              SummarizeLatency(by_method["interact.suggest"]), peak_rss,
              result);

  // Checks against an in-process service over the same spec document.
  ServiceOptions options;
  options.num_threads = kThreadBudget;
  options.columnar_storage = true;
  options.dictionary = doc->dict;
  Result<std::unique_ptr<AccuracyService>> reference = AccuracyService::Create(
      ServiceSpec(doc->spec, doc->spec.ie), std::move(options));
  if (!reference.ok()) return result->Fail(reference.status().ToString());
  AccuracyService* ref = reference.value().get();
  double ref_ms = 0.0;
  int64_t ref_entities = 0;
  std::map<int, PipelineReport> ref_reports;
  for (const auto& [chunk, served] : reports) {
    ++result->attempted;
    const Clock::time_point start = Clock::now();
    PipelineSessionOptions session_options;
    session_options.window = kBatchWindow;
    session_options.completion = CompletionPolicy::kHeuristic;
    Result<std::unique_ptr<PipelineSession>> session =
        ref->StartPipeline(std::move(session_options));
    Status submitted =
        session.ok() ? session.value()->Submit(
                           stream.chunks[static_cast<std::size_t>(chunk)])
                     : session.status();
    Result<PipelineReport> report =
        submitted.ok() ? session.value()->Finish()
                       : Result<PipelineReport>(submitted);
    ref_ms += MsBetween(start, Clock::now());
    if (!report.ok()) {
      result->Fail("reference pipeline: " + report.status().ToString());
      continue;
    }
    ref_entities += static_cast<int64_t>(report.value().entities.size());
    const std::string text =
        serve::PipelineReportToJson(report.value(), stream.schema).Dump(2) +
        "\n";
    if (text != served) {
      result->Fail("chunk " + std::to_string(chunk) +
                   ": served report differs from in-process StartPipeline");
    }
    ref_reports.emplace(chunk, std::move(report).value());
  }
  double ref_session_ms = 0.0;
  for (const auto& [index, served] : finals) {
    ++result->attempted;
    const Clock::time_point start = Clock::now();
    InteractionOptions session_options;
    session_options.k = kTopK;
    Result<std::unique_ptr<InteractionSession>> session = ref->StartInteraction(
        Relation(stream.pool[static_cast<std::size_t>(index)]),
        std::move(session_options));
    if (!session.ok()) {
      result->Fail("reference interaction: " + session.status().ToString());
      continue;
    }
    SimulatedUser user(stream.truths[static_cast<std::size_t>(index)]);
    const FrameworkResult fr = DriveInteraction(*session.value(), &user, kMaxRounds);
    const double ms = MsBetween(start, Clock::now());
    ref_ms += ms;
    ref_session_ms += ms;
    ++ref_entities;
    const Final expected{fr.church_rosser, fr.found_complete_target, fr.target};
    if (!(expected == served)) {
      result->Fail("entity " + std::to_string(index) +
                   ": served final target differs from DriveInteraction");
    }
  }
  result->info.Set("chunks_checked", Json::Int(static_cast<int64_t>(reports.size())));
  result->info.Set("sessions_checked", Json::Int(static_cast<int64_t>(finals.size())));

  if (!config.trace) return;
  // The serial layer replay of the same requests, checked against the
  // in-process outcomes above.
  LayerReplay replay(doc->spec, &tracer);
  for (const auto& [chunk, report] : ref_reports) {
    const std::vector<EntityInstance>& entities =
        stream.chunks[static_cast<std::size_t>(chunk)];
    for (std::size_t e = 0; e < entities.size(); ++e) {
      const DeduceReplay r =
          replay.Deduce(entities[e], 1, chunk, /*heuristic=*/true);
      if (!MatchesReport(r, report.entities[e])) {
        result->Fail("chunk " + std::to_string(chunk) + " entity " +
                     std::to_string(e) + ": replay differs");
      }
    }
  }
  for (const auto& [index, served] : finals) {
    const InteractReplay r = replay.Interact(
        stream.pool[static_cast<std::size_t>(index)],
        stream.truths[static_cast<std::size_t>(index)], kTopK, kMaxRounds,
        index);
    const Final replayed{r.church_rosser, r.found_complete_target, r.target};
    if (!(replayed == served) || !r.targets_check) {
      result->Fail("entity " + std::to_string(index) + ": replay differs");
    }
  }
  SetLayers(tracer, replay.counts(),
            ref_ms / static_cast<double>(std::max<int64_t>(1, ref_entities)),
            timed_spans, timed_ms, result);
  Metrics& m = result->layers;
  m.Set("snapshot.bytes", static_cast<double>(snapshot_bytes), "B");
  const double per_request = 1.0 / static_cast<double>(std::max<int64_t>(1, requests));
  m.Set("serve.request_bytes", static_cast<double>(request_bytes) * per_request, "B");
  m.Set("serve.response_bytes", static_cast<double>(response_bytes) * per_request, "B");
  const int64_t finishes = static_cast<int64_t>(by_method["pipeline.finish"].size());
  m.Set("json.report_bytes",
        static_cast<double>(report_bytes) /
            static_cast<double>(std::max<int64_t>(1, finishes)),
        "B");
  m.Set("serve.executed_interactive", static_cast<double>(sched.executed_interactive), "count");
  m.Set("serve.executed_batch", static_cast<double>(sched.executed_batch), "count");
  m.Set("serve.rejected", static_cast<double>(sched.rejected), "count");
  m.Set("serve.shed", static_cast<double>(shed), "count");
  if (sessions > 0 && !finals.empty()) {
    m.Set("serve.overhead_ms",
          session_ms / static_cast<double>(sessions) -
              ref_session_ms / static_cast<double>(finals.size()),
          "ms");
  }
  for (const char* method : ServeMethods()) {
    const Latency l = SummarizeLatency(by_method[method]);
    const std::string base = std::string("serve.") + method;
    m.Set(base + ".p50_ms", l.p50_ms, "ms");
    m.Set(base + ".tail_ms", l.tail_ms, "ms");
    m.Set(base + ".n", static_cast<double>(l.samples), "count");
  }
  const Status written = tracer.Write(config.out_dir + "/trace_serve_mixed.json");
  if (!written.ok()) result->Fail(written.ToString());
}

}  // namespace perfbench
}  // namespace relacc
