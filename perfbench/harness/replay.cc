#include "replay.h"

#include <utility>

#include "framework/framework.h"
#include "rules/grounding.h"
#include "topk/preference.h"

namespace relacc {
namespace perfbench {

bool MatchesReport(const DeduceReplay& r, const EntityReport& report) {
  if (r.church_rosser != report.church_rosser || !r.targets_check) return false;
  if (!r.church_rosser) return true;
  const Tuple& target = r.topk.targets.empty() ? r.deduced : r.topk.targets[0];
  return target == report.target;
}

LayerReplay::Built LayerReplay::Build(const Relation& entity, int64_t request) {
  Built b;
  ++counts_.entities;
  {
    Span span(tracer_, "rules.ground", request);
    b.cie = std::make_unique<ColumnarRelation>(
        ColumnarRelation::FromRelation(entity, &dict_));
    b.program = std::make_unique<GroundProgram>(
        Instantiate(*b.cie, spec_.masters, spec_.rules));
  }
  counts_.ground_steps += static_cast<int64_t>(b.program->steps.size());
  {
    Span span(tracer_, "chase.index", request);
    b.engine =
        std::make_unique<ChaseEngine>(*b.cie, b.program.get(), spec_.config);
  }
  {
    Span span(tracer_, "chase.checkpoint", request);
    b.checkpoint = b.engine->RunFromCheckpoint();
  }
  counts_.steps_applied += b.checkpoint.stats.steps_applied;
  counts_.pairs_derived += b.checkpoint.stats.pairs_derived;
  return b;
}

TopKResult LayerReplay::Rank(const ChaseEngine& engine, const Relation& entity,
                             const Tuple& deduced, int k, bool heuristic,
                             int64_t request, bool* targets_check) {
  PreferenceModel pref;
  {
    Span span(tracer_, "topk.preference", request);
    pref = PreferenceModel::FromOccurrences(entity, spec_.masters);
  }
  TopKResult result;
  {
    Span span(tracer_, "topk.search", request);
    result = heuristic
                 ? TopKCTh(engine, spec_.masters, deduced, pref, k, topk_)
                 : TopKCT(engine, spec_.masters, deduced, pref, k, topk_);
  }
  counts_.heap_pops += result.heap_pops;
  counts_.queue_pops += result.queue_pops;
  counts_.topk_checks += result.checks;
  counts_.topk_targets += static_cast<int64_t>(result.targets.size());
  {
    Span span(tracer_, "chase.check", request);
    for (const Tuple& t : result.targets) {
      if (!engine.CheckCandidate(t)) *targets_check = false;
    }
  }
  counts_.checks += static_cast<int64_t>(result.targets.size());
  return result;
}

DeduceReplay LayerReplay::Deduce(const Relation& entity, int k,
                                 int64_t request, bool heuristic) {
  DeduceReplay out;
  Built b = Build(entity, request);
  const ChaseOutcome& outcome = b.checkpoint;
  out.church_rosser = outcome.church_rosser;
  if (!outcome.church_rosser) return out;
  out.deduced = outcome.target;
  if (!out.deduced.IsComplete()) {
    out.topk = Rank(*b.engine, entity, out.deduced, k, heuristic, request,
                    &out.targets_check);
  }
  return out;
}

InteractReplay LayerReplay::Interact(const Relation& entity, const Tuple& truth,
                                     int k, int max_rounds, int64_t request) {
  InteractReplay out;
  Built b = Build(entity, request);
  SimulatedUser user(truth);
  Tuple te(std::vector<Value>(entity.schema().size(), Value::Null()));
  for (int round = 0; round <= max_rounds; ++round) {
    ChaseOutcome outcome;
    {
      Span span(tracer_, "chase.resume", request);
      outcome = b.engine->ResumeWith(te);
    }
    ++counts_.resumes;
    if (!outcome.church_rosser) {
      out.church_rosser = false;
      return out;
    }
    out.church_rosser = true;
    if (outcome.target.IsComplete()) {
      out.found_complete_target = true;
      out.target = outcome.target;
      return out;
    }
    const TopKResult ranked = Rank(*b.engine, entity, outcome.target, k,
                                   /*heuristic=*/false, request,
                                   &out.targets_check);
    const UserOracle::Response resp =
        user.Inspect(outcome.target, ranked.targets);
    if (resp.accepted_candidate.has_value()) {
      out.found_complete_target = true;
      out.target =
          ranked.targets[static_cast<std::size_t>(*resp.accepted_candidate)];
      return out;
    }
    if (!resp.revision.has_value()) {
      out.target = outcome.target;
      return out;
    }
    te.set(resp.revision->first, resp.revision->second);
  }
  return out;
}

}  // namespace perfbench
}  // namespace relacc
