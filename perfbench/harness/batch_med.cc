// batch_med: the `relacc pipeline` job, repeated by one caller.
//
// One job = one flat Med relation of entities_per_job entities:
// ResolveEntities, then StartPipeline / Submit / Finish on one service
// (thread budget 2, columnar storage, top-1 completion within
// kSearchBudget queue pops), then the report serialized as `relacc
// pipeline --json` prints it. The jobs cycle until the timed
// phase ends. Latency is per job (every job has the same size profile);
// entities_per_s counts resolved entities whose report was delivered.
//
// Checks: a job's report digest never changes between repeats, and the
// serial replay (ResolveEntities, then per entity ground / chase /
// top-1 completion) reproduces every entity's verdict and target. The
// digest, resolved-entity count and number of targets equal to ground
// truth over one pass of the jobs go to `info`, where run.py compares
// them with the pinned values of pinned seeds.

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/accuracy_service.h"
#include "er/resolver.h"
#include "serve/wire.h"
#include "workloads.h"

namespace relacc {
namespace perfbench {
namespace {

struct JobOutcome {
  bool ok = false;
  std::string error;
  std::string digest;
  int64_t bytes = 0;
  double service_ms = 0.0;  ///< StartPipeline + Submit + Finish
  PipelineReport report;
  PipelineSession::Stats stats;
};

ResolverConfig KeyResolver(const Schema& schema) {
  ResolverConfig resolver;
  resolver.key_attrs.push_back(schema.MustIndexOf("key"));
  return resolver;
}

/// Intra-block candidate pairs ResolveEntities visits (its blocking rule:
/// the first block_prefix characters of the lower-cased key).
int64_t CandidatePairs(const Relation& flat, const ResolverConfig& resolver) {
  std::map<std::string, int64_t> blocks;
  for (const Tuple& t : flat.tuples()) {
    std::string key;
    for (AttrId a : resolver.key_attrs) key += t.at(a).ToString() + "|";
    for (char& ch : key) ch = static_cast<char>(std::tolower(ch));
    ++blocks[key.substr(0, static_cast<std::size_t>(resolver.block_prefix))];
  }
  int64_t pairs = 0;
  for (const auto& [prefix, n] : blocks) pairs += n * (n - 1) / 2;
  return pairs;
}

JobOutcome RunJob(AccuracyService* service, const Relation& job,
                  const ResolverConfig& resolver, Tracer* tracer,
                  int64_t request) {
  JobOutcome out;
  Span job_span(tracer, "job", request);
  ResolutionResult resolution;
  {
    Span span(tracer, "job.resolve", request);
    resolution = ResolveEntities(job, resolver);
  }
  const Clock::time_point service_start = Clock::now();
  Result<std::unique_ptr<PipelineSession>> session = [&] {
    Span span(tracer, "api.start_pipeline", request);
    PipelineSessionOptions options;
    options.topk = SearchOptions();
    return service->StartPipeline(std::move(options));
  }();
  if (!session.ok()) {
    out.error = session.status().ToString();
    return out;
  }
  Status submitted = [&] {
    Span span(tracer, "api.submit", request);
    return session.value()->Submit(std::move(resolution.entities));
  }();
  if (!submitted.ok()) {
    out.error = submitted.ToString();
    return out;
  }
  Result<PipelineReport> report = [&] {
    Span span(tracer, "api.finish", request);
    return session.value()->Finish();
  }();
  if (!report.ok()) {
    out.error = report.status().ToString();
    return out;
  }
  out.service_ms = MsBetween(service_start, Clock::now());
  std::string text;
  {
    Span span(tracer, "json.report", request);
    text = serve::PipelineReportToJson(report.value(), job.schema())
               .Dump(2) +
           "\n";
  }
  out.ok = true;
  out.digest = HexDigest(text);
  out.bytes = static_cast<int64_t>(text.size());
  out.stats = session.value()->stats();
  out.report = std::move(report).value();
  return out;
}

}  // namespace

void RunBatchMed(const RunConfig& config, RunResult* result) {
  Tracer tracer(config.trace);
  Result<Json> inputs = LoadJson(config.inputs_dir + "/inputs.json");
  if (!inputs.ok()) return result->Fail(inputs.status().ToString());
  const Json& ranges = *inputs.value().Find("jobs");
  ResetPeakRss();

  // Set-up: parse the spec document, create the service, serve a first
  // request. Repeated; the last service is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<SpecDocument> doc;
  std::unique_ptr<AccuracyService> service;
  std::vector<Relation> jobs;
  for (int s = 0; s < kSetups; ++s) {
    service.reset();
    const Clock::time_point start = Clock::now();
    Result<SpecDocument> loaded =
        LoadSpec(config.inputs_dir + "/spec.json", &tracer);
    if (!loaded.ok()) return result->Fail(loaded.status().ToString());
    doc = std::make_unique<SpecDocument>(std::move(loaded).value());
    const Schema& schema = doc->spec.ie.schema();
    jobs.clear();
    for (int j = 0; j < ranges.size(); ++j) {
      Relation job(schema);
      for (int64_t r = ranges.at(j).at(0).as_int();
           r < ranges.at(j).at(1).as_int(); ++r) {
        job.Add(doc->spec.ie.tuple(static_cast<int>(r)));
      }
      jobs.push_back(std::move(job));
    }
    ServiceOptions options;
    options.num_threads = kThreadBudget;
    options.columnar_storage = true;
    options.dictionary = doc->dict;
    Result<std::unique_ptr<AccuracyService>> created = [&] {
      Span span(&tracer, "api.create");
      return AccuracyService::Create(ServiceSpec(doc->spec, Relation(schema)),
                                     std::move(options));
    }();
    if (!created.ok()) return result->Fail(created.status().ToString());
    service = std::move(created).value();
    // Warm-up: a pipeline over one one-tuple entity, so the first
    // request is servable without the set-up depending on a job's data.
    EntityInstance first_tuple(0, schema);
    first_tuple.Add(doc->spec.ie.tuple(0));
    PipelineSessionOptions warm_options;
    warm_options.topk = SearchOptions();
    Result<std::unique_ptr<PipelineSession>> warm =
        service->StartPipeline(std::move(warm_options));
    Status warmed = warm.ok() ? warm.value()->Submit(std::move(first_tuple))
                              : warm.status();
    if (warmed.ok()) warmed = warm.value()->Finish().status();
    if (!warmed.ok()) return result->Fail("warm-up: " + warmed.ToString());
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
  }
  const Schema& schema = doc->spec.ie.schema();
  const ResolverConfig resolver = KeyResolver(schema);

  // Timed phase: jobs in order, cycling, until `seconds` have passed.
  std::vector<std::unique_ptr<JobOutcome>> first(jobs.size());
  std::vector<double> latency_ms;
  int64_t entities = 0;
  int64_t windows = 0;
  int64_t peak_engines = 0;
  int64_t report_bytes = 0;
  double busy_ms = 0.0;
  double service_ms = 0.0;
  const int64_t spans_before = tracer.size();
  const Clock::time_point timed_start = Clock::now();
  for (int64_t n = 0; MsBetween(timed_start, Clock::now()) <
                      config.seconds * 1000.0;
       ++n) {
    const std::size_t j = static_cast<std::size_t>(n) % jobs.size();
    const Clock::time_point start = Clock::now();
    JobOutcome out = RunJob(service.get(), jobs[j], resolver, &tracer, n);
    const double ms = MsBetween(start, Clock::now());
    ++result->attempted;
    if (!out.ok) {
      result->Fail("job " + std::to_string(j) + ": " + out.error);
      continue;
    }
    latency_ms.push_back(ms);
    busy_ms += ms;
    service_ms += out.service_ms;
    entities += static_cast<int64_t>(out.report.entities.size());
    windows += out.stats.windows;
    peak_engines = std::max(peak_engines, out.stats.peak_in_flight_engines);
    report_bytes += out.bytes;
    if (first[j] == nullptr) {
      first[j] = std::make_unique<JobOutcome>(std::move(out));
    } else if (out.digest != first[j]->digest) {
      result->Fail("job " + std::to_string(j) + ": report digest " +
                   out.digest + " != " + first[j]->digest);
    }
  }
  const double timed_ms = MsBetween(timed_start, Clock::now());
  const int64_t timed_spans = tracer.size() - spans_before;
  const double peak_rss = PeakRssMb();
  const int64_t jobs_run = static_cast<int64_t>(latency_ms.size());
  SetEndToEnd(setup_s, busy_ms > 0 ? entities / (busy_ms / 1000.0) : 0.0,
              SummarizeLatency(latency_ms), peak_rss, result);

  // Truth by entity key, for the ground-truth count.
  Result<std::vector<Tuple>> truths =
      TuplesFromJson(*inputs.value().Find("truths"), schema);
  if (!truths.ok()) return result->Fail(truths.status().ToString());
  std::map<std::string, Tuple> truth_of;
  const AttrId key = schema.MustIndexOf("key");
  for (const Tuple& t : truths.value()) truth_of[t.at(key).as_string()] = t;

  // Checks: the serial replay of every job that ran, entity by entity.
  LayerReplay replay(doc->spec, &tracer, SearchOptions());
  std::string pass_digests;  // job digests in job order
  int64_t pass_entities = 0;
  int64_t truth_targets = 0;
  int64_t pairs = 0;
  bool full_pass = true;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (first[j] == nullptr) {
      full_pass = false;
      continue;
    }
    const PipelineReport& served = first[j]->report;
    pass_digests += first[j]->digest;
    pass_entities += static_cast<int64_t>(served.entities.size());
    for (const EntityReport& e : served.entities) {
      auto it = truth_of.find(e.target.size() > key && !e.target.at(key).is_null()
                                  ? e.target.at(key).as_string()
                                  : std::string());
      if (it != truth_of.end() && it->second == e.target) ++truth_targets;
    }
    pairs += CandidatePairs(jobs[j], resolver);
    ResolutionResult resolution;
    {
      Span span(&tracer, "er.resolve", static_cast<int64_t>(j));
      resolution = ResolveEntities(jobs[j], resolver);
    }
    ++result->attempted;
    if (resolution.entities.size() != served.entities.size()) {
      result->Fail("job " + std::to_string(j) + ": replay resolved " +
                   std::to_string(resolution.entities.size()) +
                   " entities, the service reported " +
                   std::to_string(served.entities.size()));
      continue;
    }
    for (std::size_t e = 0; e < resolution.entities.size(); ++e) {
      const DeduceReplay r = replay.Deduce(resolution.entities[e], 1,
                                           static_cast<int64_t>(j));
      if (!MatchesReport(r, served.entities[e])) {
        result->Fail("job " + std::to_string(j) + " entity " +
                     std::to_string(e) + ": replay differs from the service");
      }
    }
  }
  result->info.Set("jobs_run", Json::Int(jobs_run));
  result->info.Set("full_pass", Json::Bool(full_pass));
  result->info.Set("report_digest", Json::Str(HexDigest(pass_digests)));
  result->info.Set("resolved_entities", Json::Int(pass_entities));
  result->info.Set("truth_targets", Json::Int(truth_targets));

  if (!config.trace) return;
  SetLayers(tracer, replay.counts(),
            service_ms / static_cast<double>(std::max<int64_t>(1, entities)),
            timed_spans, timed_ms, result);
  Metrics& m = result->layers;
  m.Set("er.pairs_compared", static_cast<double>(pairs), "count");
  m.Set("er.entities", static_cast<double>(pass_entities), "count");
  m.Set("api.windows",
        static_cast<double>(windows) / static_cast<double>(std::max<int64_t>(1, jobs_run)),
        "count");
  m.Set("api.peak_in_flight_engines", static_cast<double>(peak_engines),
        "count");
  m.Set("json.report_bytes",
        static_cast<double>(report_bytes) /
            static_cast<double>(std::max<int64_t>(1, jobs_run)),
        "B");
  const Status written = tracer.Write(config.out_dir + "/trace_batch_med.json");
  if (!written.ok()) result->Fail(written.ToString());
}

}  // namespace perfbench
}  // namespace relacc
