#include "pipeline/pipeline.h"

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <utility>

#include "api/accuracy_service.h"

namespace relacc {

PipelineThreadPlan ComputePipelineThreadPlan(int budget,
                                             int64_t num_entities) {
  if (budget <= 0) {
    budget = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  PipelineThreadPlan plan;
  plan.chase_threads = static_cast<int>(std::clamp<int64_t>(
      num_entities, 1, static_cast<int64_t>(budget)));
  plan.completion_workers = plan.chase_threads;
  plan.check_threads = std::max(1, budget / plan.completion_workers);
  return plan;
}

namespace {

/// The batch entry points are one streaming session submitted in one go:
/// build a service over (masters, rules, config), stream every entity
/// through a PipelineSession with the legacy window, finish. Report
/// identity with the historical in-place implementation is enforced by
/// tests/test_accuracy_service.cc across windows, budgets and completion
/// workers.
PipelineReport RunPipelineViaService(
    const std::vector<EntityInstance>& entities,
    const std::vector<Relation>& masters,
    const std::vector<AccuracyRule>& rules, const PipelineOptions& options) {
  Specification spec;
  spec.ie = Relation(entities.empty() ? Schema() : entities[0].schema());
  spec.masters = masters;
  spec.rules = rules;
  spec.config = options.chase;

  ServiceOptions service_options;
  service_options.num_threads = options.num_threads;
  service_options.completion = options.completion;
  // The historical window: engines of at most this many entities were
  // alive across the two-phase boundary.
  const PipelineThreadPlan plan = ComputePipelineThreadPlan(
      options.num_threads, static_cast<int64_t>(entities.size()));
  service_options.window = std::max<int64_t>(64, 8 * plan.chase_threads);
  // None of the calls below can fail for inputs the historical batch
  // function accepted (the window is >= 64, the managed topk knobs are
  // cleared, and mixed-arity entity batches aborted inside
  // Relation::Add before this refactor too) — so a failure here is a
  // caller error the old contract answered with an abort, not a Status.
  Result<std::unique_ptr<AccuracyService>> service =
      AccuracyService::Create(std::move(spec), std::move(service_options));
  if (!service.ok()) std::abort();

  PipelineSessionOptions session_options;
  session_options.preference = options.preference;
  session_options.topk = options.topk;
  // The legacy contract: whatever the caller put in topk.num_threads /
  // topk.checker is replaced by the thread plan. The service API rejects
  // these knobs instead of overriding them — the shim keeps the historical
  // silent-override behaviour for source compatibility.
  session_options.topk.num_threads = 1;
  session_options.topk.checker = nullptr;
  Result<std::unique_ptr<PipelineSession>> session =
      service.value()->StartPipeline(std::move(session_options));
  if (!session.ok()) std::abort();

  Status submitted = session.value()->Submit(entities);
  if (!submitted.ok()) std::abort();
  Result<PipelineReport> report = session.value()->Finish();
  if (!report.ok()) std::abort();
  return std::move(report).value();
}

}  // namespace

PipelineReport RunPipeline(const std::vector<EntityInstance>& entities,
                           const std::vector<Relation>& masters,
                           const std::vector<AccuracyRule>& rules,
                           const PipelineOptions& options) {
  return RunPipelineViaService(entities, masters, rules, options);
}

PipelineReport RunPipelineOnFlat(const Relation& flat,
                                 const ResolverConfig& resolver_config,
                                 const std::vector<Relation>& masters,
                                 const std::vector<AccuracyRule>& rules,
                                 const PipelineOptions& options) {
  ResolutionResult resolution = ResolveEntities(flat, resolver_config);
  return RunPipelineViaService(resolution.entities, masters, rules, options);
}

}  // namespace relacc
