#include "api/accuracy_service.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "analysis/analyzer.h"
#include "api/version.h"
#include "rules/grounding.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "topk/rank_join_ct.h"
#include "util/thread_pool.h"

namespace relacc {

namespace {

/// Phase-2 carry-over for one incomplete entity: the encoded relation,
/// the grounded program and the engine with its warm all-null
/// checkpoint, kept alive across the phase boundary so completion never
/// re-encodes, re-grounds or re-chases.
struct PendingCompletion {
  std::unique_ptr<ColumnarRelation> cie;
  std::unique_ptr<GroundProgram> program;
  std::unique_ptr<ChaseEngine> engine;  ///< references *program
};

/// Phase 1 for one entity: ground and run the checkpoint chase. When the
/// target stays incomplete (and completion is enabled), the engine is
/// handed back via `pending` for phase 2. Pure function of its inputs
/// (the block's dictionary only accretes interned terms, thread-safely);
/// called concurrently. The entity is encoded into the block's dictionary
/// and its pair rules are grounded here; the master steps come from the
/// service's shared `block`.
EntityReport ChaseEntityPhase(const EntityInstance& entity,
                              const MasterBlock& block,
                              const std::vector<AccuracyRule>& rules,
                              const ChaseConfig& chase,
                              CompletionPolicy completion,
                              std::unique_ptr<PendingCompletion>* pending) {
  EntityReport report;
  report.entity_id = entity.entity_id();
  report.num_tuples = entity.size();

  auto cie = std::make_unique<ColumnarRelation>(
      ColumnarRelation::FromRelation(entity, block.dict()));
  auto program =
      std::make_unique<GroundProgram>(Instantiate(*cie, block, rules));
  auto engine = std::make_unique<ChaseEngine>(*cie, program.get(), chase);
  // Serve the all-null chase from the engine's checkpoint: the candidate
  // completion of phase 2 checks against the same checkpoint, so each
  // entity is chased once, not twice.
  ChaseOutcome outcome = engine->RunFromCheckpoint();
  if (!outcome.church_rosser) {
    report.violation = outcome.violation;
    return report;
  }
  report.church_rosser = true;
  report.deduced_attrs = outcome.target.size() - outcome.target.NullCount();
  report.target = outcome.target;
  report.complete = outcome.target.IsComplete();
  if (!report.complete && completion != CompletionPolicy::kLeaveNull) {
    auto p = std::make_unique<PendingCompletion>();
    p->cie = std::move(cie);
    p->program = std::move(program);
    p->engine = std::move(engine);
    *pending = std::move(p);
  }
  return report;
}

/// Phase 2 for one incomplete entity (Sec. 6): top-1 candidate target
/// over the entity's encoded relation and the service's shared master
/// tables, every check run on the entity's own engine.
void CompleteEntityPhase(const PendingCompletion& pending,
                         const MasterDomains& masters,
                         CompletionPolicy completion,
                         const TopKOptions& topk_options,
                         const PreferenceModel* preference,
                         EntityReport* report) {
  PreferenceModel local_pref;
  const PreferenceModel* pref = preference;
  if (pref == nullptr) {
    local_pref = PreferenceModel::FromOccurrences(*pending.cie, masters);
    pref = &local_pref;
  }
  const ChaseEngine& engine = *pending.engine;
  TopKResult topk =
      completion == CompletionPolicy::kHeuristic
          ? TopKCTh(engine, masters, report->target, *pref, 1, topk_options)
          : TopKCT(engine, masters, report->target, *pref, 1, topk_options);
  if (!topk.targets.empty()) {
    report->target = topk.targets[0];
    report->used_candidate = true;
  }
  report->complete = report->target.IsComplete();
}

int ResolveBudget(int num_threads) {
  if (num_threads > 0) return num_threads;
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace

// ---------------------------------------------------------- AccuracyService

AccuracyService::AccuracyService(Specification spec, ServiceOptions options,
                                 int budget)
    : spec_(std::move(spec)), options_(std::move(options)), budget_(budget) {
  dict_ = options_.dictionary != nullptr ? options_.dictionary
                                         : std::make_shared<Dictionary>();
}

AccuracyService::~AccuracyService() = default;

Result<std::unique_ptr<AccuracyService>> AccuracyService::Create(
    Specification spec, ServiceOptions options) {
  if (!options.columnar_storage) {
    return Status::InvalidArgument(
        "ServiceOptions::columnar_storage = false: row storage was removed; "
        "every service stores its entities dictionary-encoded");
  }
  if (options.window < 1) {
    return Status::InvalidArgument(
        "ServiceOptions::window must be >= 1, got " +
        std::to_string(options.window));
  }
  if (options.validate_spec) {
    // Static analysis at the door (analysis/analyzer.h): reject on
    // error-severity findings; warnings are lint's business.
    std::vector<Diagnostic> diagnostics = AnalyzeSpecification(spec);
    std::string errors;
    for (const Diagnostic& d : diagnostics) {
      if (d.severity != Severity::kError) continue;
      if (!errors.empty()) errors += "; ";
      errors += d.message + " [" + d.check_id + "]";
    }
    if (!errors.empty()) {
      return Status::InvalidArgument("specification failed validation: " +
                                     errors);
    }
  }
  if (!options.snapshot_path.empty()) {
    // A snapshot restores dictionary, config and derived state wholesale;
    // options that describe a from-scratch build contradict it.
    if (options.dictionary != nullptr) {
      return Status::InvalidArgument(
          "ServiceOptions::snapshot_path and ::dictionary are mutually "
          "exclusive: the artifact restores its own dictionary (id "
          "stability requires a fresh one)");
    }
    if (options.validate_spec) {
      return Status::InvalidArgument(
          "ServiceOptions::snapshot_path and ::validate_spec are mutually "
          "exclusive: the artifact was validated when it was built");
    }
    const int budget = ResolveBudget(options.num_threads);
    ServiceOptions snap_options = options;  // the attempt; `options` is
                                            // retained for the fallback
    auto service = std::unique_ptr<AccuracyService>(
        new AccuracyService(Specification(), std::move(snap_options), budget));
    const Status loaded = service->LoadFromSnapshot();
    if (loaded.ok()) return service;
    if (!options.snapshot_fallback) return loaded;
    // Graceful degradation: a corrupt/mismatched artifact must not keep
    // the daemon down when the spec can rebuild the same state cold.
    // The cold build stores the same dictionary-encoded state, so results
    // are bit-for-bit what the snapshot would have served — only the
    // O(1) start is lost.
    service.reset();  // drop the half-open reader before rebuilding
    options.snapshot_path.clear();
    auto cold = std::unique_ptr<AccuracyService>(
        new AccuracyService(std::move(spec), std::move(options), budget));
    cold->degraded_ = true;
    cold->degraded_reason_ = loaded.ToString();
    return cold;
  }
  const int budget = ResolveBudget(options.num_threads);
  return std::unique_ptr<AccuracyService>(
      new AccuracyService(std::move(spec), std::move(options), budget));
}

Status AccuracyService::LoadFromSnapshot() {
  auto reader_res = snapshot::SnapshotReader::Open(options_.snapshot_path);
  if (!reader_res.ok()) return reader_res.status();
  reader_ = std::move(reader_res).value();
  const snapshot::SnapshotReader::Info& info = reader_->info();

  RELACC_RETURN_NOT_OK(reader_->LoadDictionary(dict_.get()));

  auto entity_res = reader_->LoadEntity(dict_.get());
  if (!entity_res.ok()) return entity_res.status();
  cie_ = std::make_unique<ColumnarRelation>(std::move(entity_res).value());

  auto rules_res = reader_->LoadRules();
  if (!rules_res.ok()) return rules_res.status();
  spec_.rules = std::move(rules_res).value();
  spec_.config = info.config;
  // The public Specification keeps the row boundary: Ie rows are
  // materialized here (the entity instance is modest next to the
  // masters), the masters stay zero-copy until something needs rows.
  spec_.ie = cie_->ToRelation();
  cmasters_.reserve(static_cast<std::size_t>(info.num_masters));
  for (int m = 0; m < info.num_masters; ++m) {
    auto master_res = reader_->LoadMaster(m, dict_.get());
    if (!master_res.ok()) return master_res.status();
    cmasters_.push_back(std::move(master_res).value());
  }

  auto cp_res = reader_->LoadCheckpoint();
  if (!cp_res.ok()) return cp_res.status();
  checkpoint_image_ =
      std::make_unique<ChaseCheckpoint>(std::move(cp_res).value());

  // Pre-materialize the all-null outcome the warm DeduceEntity serves
  // without ever building an engine — identical, field for field, to
  // what RunFromCheckpoint returns after an ImportCheckpoint.
  snapshot_outcome_ = std::make_unique<ChaseOutcome>();
  ChaseOutcome& out = *snapshot_outcome_;
  out.stats.ground_steps = info.program_steps;
  out.stats.steps_applied = checkpoint_image_->steps_applied;
  out.stats.pairs_derived = checkpoint_image_->pairs_derived;
  if (checkpoint_image_->ok) {
    out.church_rosser = true;
    const Schema& schema = cie_->schema();
    std::vector<Value> te;
    te.reserve(static_cast<std::size_t>(schema.size()));
    for (AttrId a = 0; a < schema.size(); ++a) {
      te.push_back(MaterializeAs(
          *dict_, checkpoint_image_->te[static_cast<std::size_t>(a)],
          schema.type(a)));
    }
    out.target = Tuple(std::move(te));
  } else {
    out.church_rosser = false;
    out.violation = checkpoint_image_->violation;
  }
  return Status::OK();
}

Status AccuracyService::EnsureMasters() {
  if (reader_ == nullptr || masters_loaded_) return Status::OK();
  spec_.masters.reserve(cmasters_.size());
  for (const ColumnarRelation& master : cmasters_) {
    spec_.masters.push_back(master.ToRelation());
  }
  masters_loaded_ = true;
  return Status::OK();
}

Status AccuracyService::WriteSnapshot(const std::string& path) {
  // Interning order matters: the master block and engine builds (step
  // payloads, residual constants) and the master encodings below all
  // intern into dict_ BEFORE the dictionary section is written, so the
  // ids embedded in the checkpoint and the columns are ids of the
  // serialized dict.
  RELACC_RETURN_NOT_OK(EnsureDefaultEngine());
  ChaseCheckpoint checkpoint;
  engine_->ExportCheckpoint(&checkpoint);  // !ok is a serializable state

  std::vector<ColumnarRelation> owned_masters;
  snapshot::SnapshotContents contents;
  if (reader_ != nullptr) {
    for (const ColumnarRelation& master : cmasters_) {
      contents.masters.push_back(&master);
    }
  } else {
    owned_masters.reserve(spec_.masters.size());
    for (const Relation& master : spec_.masters) {
      owned_masters.push_back(
          ColumnarRelation::FromRelation(master, dict_.get()));
    }
    for (const ColumnarRelation& master : owned_masters) {
      contents.masters.push_back(&master);
    }
  }
  contents.dict = dict_.get();
  contents.entity = cie_.get();
  contents.rules = &spec_.rules;
  contents.config = &spec_.config;
  contents.program = program_.get();
  contents.checkpoint = &checkpoint;
  contents.tool_version = kRelaccVersion;
  return snapshot::WriteSnapshotFile(contents, path);
}

Status AccuracyService::EnsureDefaultEngine() {
  if (engine_ != nullptr) return Status::OK();
  if (reader_ != nullptr) {
    // Snapshot path: the program and the chased checkpoint come from the
    // artifact — no grounding, no chase. The engine is still only built
    // on demand (TopK, candidate checks, interactions); the default
    // DeduceEntity never gets here.
    auto program_res = reader_->LoadProgram();
    if (!program_res.ok()) return program_res.status();
    program_ =
        std::make_unique<GroundProgram>(std::move(program_res).value());
    engine_ =
        std::make_unique<ChaseEngine>(*cie_, program_.get(), spec_.config);
    Status imported = engine_->ImportCheckpoint(*checkpoint_image_);
    if (!imported.ok()) {
      engine_.reset();
      program_.reset();
      return imported;
    }
    return Status::OK();
  }
  const MasterBlock& block = EnsureMasterBlock();
  cie_ = std::make_unique<ColumnarRelation>(
      ColumnarRelation::FromRelation(spec_.ie, dict_.get()));
  program_ =
      std::make_unique<GroundProgram>(Instantiate(*cie_, block, spec_.rules));
  engine_ = std::make_unique<ChaseEngine>(*cie_, program_.get(), spec_.config);
  return Status::OK();
}

const MasterBlock& AccuracyService::EnsureMasterBlock() {
  if (master_block_ == nullptr) {
    master_block_ = MasterBlock::Build(spec_.masters, spec_.rules, dict_);
  }
  return *master_block_;
}

const MasterDomains& AccuracyService::EnsureMasterDomains() {
  if (!master_domains_.has_value()) master_domains_.emplace(spec_.masters);
  return *master_domains_;
}

Status AccuracyService::CheckEntityArity(const std::string& what,
                                         const Schema& schema) const {
  const AttrId arity = spec_.ie.schema().size();
  if (schema.size() == arity) return Status::OK();
  return Status::InvalidArgument(
      what + " has schema arity " + std::to_string(schema.size()) +
      ", the service schema has " + std::to_string(arity));
}

ThreadPool& AccuracyService::ChasePool() {
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(budget_);
  return *pool_;
}

Result<ChaseOutcome> AccuracyService::DeduceEntity() {
  if (reader_ != nullptr && engine_ == nullptr && !spec_.config.keep_orders) {
    // The artifact carries the chased all-null checkpoint, so the warm
    // answer needs neither grounding nor an engine: O(1) in |Γ| and in
    // the master sizes. keep_orders falls through — the caller asked
    // for the closed orders, which only the engine materializes.
    return *snapshot_outcome_;
  }
  RELACC_RETURN_NOT_OK(EnsureDefaultEngine());
  return engine_->RunFromCheckpoint();
}

Result<ChaseOutcome> AccuracyService::DeduceEntity(const Relation& entity) {
  RELACC_RETURN_NOT_OK(CheckEntityArity("AccuracyService::DeduceEntity: entity",
                                        entity.schema()));
  RELACC_RETURN_NOT_OK(EnsureMasters());
  const MasterBlock& block = EnsureMasterBlock();
  const ColumnarRelation cie =
      ColumnarRelation::FromRelation(entity, dict_.get());
  const GroundProgram program = Instantiate(cie, block, spec_.rules);
  const ChaseEngine engine(cie, &program, spec_.config);
  return engine.RunFromInitial();
}

Result<TopKResult> AccuracyService::TopK(int k, TopKAlgorithm algo,
                                         const TopKOptions& topk,
                                         const PreferenceModel* preference) {
  if (k < 1) {
    return Status::InvalidArgument("TopK: k must be >= 1, got " +
                                   std::to_string(k));
  }
  RELACC_RETURN_NOT_OK(EnsureMasters());
  RELACC_RETURN_NOT_OK(EnsureDefaultEngine());
  const ChaseOutcome outcome = engine_->RunFromCheckpoint();
  if (!outcome.church_rosser) {
    return Status::FailedPrecondition(
        "specification is not Church-Rosser: " + outcome.violation);
  }
  // A complete deduced target is not an error: the algorithms verify it
  // and return it as its own sole candidate (their m == 0 branch).
  const MasterDomains& masters = EnsureMasterDomains();
  PreferenceModel local_pref;
  if (preference == nullptr) {
    local_pref = PreferenceModel::FromOccurrences(*cie_, masters);
    preference = &local_pref;
  }
  const ChaseEngine& engine = *engine_;
  switch (algo) {
    case TopKAlgorithm::kHeuristic:
      return TopKCTh(engine, masters, outcome.target, *preference, k, topk);
    case TopKAlgorithm::kRankJoin:
      return RankJoinCT(engine, masters, outcome.target, *preference, k,
                        topk);
    case TopKAlgorithm::kBruteForce:
      return TopKBruteForce(engine, masters, outcome.target, *preference, k,
                            topk);
    case TopKAlgorithm::kTopKCT:
      break;
  }
  return TopKCT(engine, masters, outcome.target, *preference, k, topk);
}

Result<std::vector<char>> AccuracyService::CheckCandidates(
    const std::vector<Tuple>& candidates) {
  RELACC_RETURN_NOT_OK(EnsureDefaultEngine());
  std::vector<char> verdicts(candidates.size(), 0);
  // Checks are pure per candidate, so the inline path and the pooled path
  // produce identical verdict vectors. Only single-candidate batches skip
  // the pool (nothing to overlap); ParallelForSlots never hands out more
  // slots than candidates, so small batches still fan out.
  if (budget_ == 1 || candidates.size() <= 1) {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      verdicts[i] = engine_->CheckCandidate(candidates[i]) ? 1 : 0;
    }
    return verdicts;
  }
  if (check_engines_.empty()) {
    check_engines_.reserve(static_cast<std::size_t>(budget_));
    for (int slot = 0; slot < budget_; ++slot) {
      // Over engine_'s (Ie, program, config), so its TermId-encoded
      // checkpoint is valid here. Adopting it shares the all-null chase
      // by pointer instead of re-running it per slot; each slot engine
      // then grows its own probe state from it.
      auto engine =
          std::make_unique<ChaseEngine>(*cie_, program_.get(), spec_.config);
      engine->AdoptCheckpointFrom(*engine_);
      check_engines_.push_back(std::move(engine));
    }
  }
  ChasePool().ParallelForSlots(
      static_cast<int64_t>(candidates.size()), [&](int slot, int64_t i) {
        verdicts[i] =
            check_engines_[slot]->CheckCandidate(candidates[i]) ? 1 : 0;
      });
  return verdicts;
}

Result<std::unique_ptr<PipelineSession>> AccuracyService::StartPipeline(
    PipelineSessionOptions options) {
  RELACC_RETURN_NOT_OK(EnsureMasters());
  if (options.window < 0) {
    return Status::InvalidArgument(
        "PipelineSessionOptions::window must be >= 0 (0 = service default), "
        "got " +
        std::to_string(options.window));
  }
  const int64_t window =
      options.window == 0 ? options_.window : options.window;
  const CompletionPolicy completion =
      options.completion.value_or(options_.completion);
  return std::unique_ptr<PipelineSession>(
      new PipelineSession(this, std::move(options), completion, window));
}

Result<std::unique_ptr<InteractionSession>>
AccuracyService::StartInteractionImpl(InteractionOptions options,
                                      const Relation* own_ie) {
  if (options.k < 1) {
    return Status::InvalidArgument(
        "InteractionOptions::k must be >= 1, got " +
        std::to_string(options.k));
  }
  RELACC_RETURN_NOT_OK(EnsureMasters());
  auto session = std::unique_ptr<InteractionSession>(
      new InteractionSession(this, std::move(options)));
  const ColumnarRelation* cie;
  const GroundProgram* program;
  if (own_ie == nullptr) {
    RELACC_RETURN_NOT_OK(EnsureDefaultEngine());
    cie = cie_.get();
    program = program_.get();
  } else {
    const MasterBlock& block = EnsureMasterBlock();
    session->own_cie_ = std::make_unique<ColumnarRelation>(
        ColumnarRelation::FromRelation(*own_ie, dict_.get()));
    cie = session->own_cie_.get();
    session->own_program_ = std::make_unique<GroundProgram>(
        Instantiate(*cie, block, spec_.rules));
    program = session->own_program_.get();
  }
  // Session-owned engine either way: the ResumeWith trail session is
  // engine state, so concurrent interactions must not share one engine.
  // Default-entity sessions still share the service checkpoint by
  // pointer (no second all-null chase): the session engine reads the
  // service's encoded entity, so both intern into one dictionary.
  session->engine_ = std::make_unique<ChaseEngine>(*cie, program, spec_.config);
  if (session->own_cie_ == nullptr) {
    session->engine_->AdoptCheckpointFrom(*engine_);
  }
  session->template_ =
      Tuple(std::vector<Value>(cie->schema().size(), Value::Null()));
  const MasterDomains& masters = EnsureMasterDomains();
  if (session->options_.preference == nullptr) {
    session->own_pref_ = PreferenceModel::FromOccurrences(*cie, masters);
  }
  return session;
}

Result<std::unique_ptr<InteractionSession>> AccuracyService::StartInteraction(
    InteractionOptions options) {
  return StartInteractionImpl(std::move(options), nullptr);
}

Result<std::unique_ptr<InteractionSession>> AccuracyService::StartInteraction(
    Relation entity, InteractionOptions options) {
  RELACC_RETURN_NOT_OK(CheckEntityArity(
      "AccuracyService::StartInteraction: entity", entity.schema()));
  return StartInteractionImpl(std::move(options), &entity);
}

// ---------------------------------------------------------- PipelineSession

PipelineSession::PipelineSession(AccuracyService* service,
                                 PipelineSessionOptions options,
                                 CompletionPolicy completion, int64_t window)
    : service_(service),
      options_(std::move(options)),
      completion_(completion),
      window_(window) {}

Status PipelineSession::Submit(EntityInstance entity) {
  std::vector<EntityInstance> batch;
  batch.push_back(std::move(entity));
  return Submit(std::move(batch));
}

Status PipelineSession::Submit(std::vector<EntityInstance> batch) {
  if (finished_) {
    return Status::FailedPrecondition(
        "PipelineSession::Submit after Finish()");
  }
  // Validate the whole batch before accepting any of it, so a failed
  // Submit leaves the stream exactly as it was.
  for (const EntityInstance& e : batch) {
    RELACC_RETURN_NOT_OK(service_->CheckEntityArity(
        "PipelineSession::Submit: entity " + std::to_string(e.entity_id()),
        e.schema()));
  }
  stats_.submitted += static_cast<int64_t>(batch.size());
  // Retire each full window before buffering more, so buffered input and
  // in-flight engines stay O(window) however large the batch is.
  for (EntityInstance& e : batch) {
    if (!have_schema_) {
      schema_ = e.schema();
      have_schema_ = true;
    }
    buffer_.push_back(std::move(e));
    if (static_cast<int64_t>(buffer_.size()) == window_) ProcessWindow();
  }
  return Status::OK();
}

void PipelineSession::ProcessWindow() {
  const Specification& spec = service_->spec_;
  const std::vector<EntityInstance>& entities = buffer_;
  const int64_t count = static_cast<int64_t>(entities.size());
  std::vector<EntityReport> reports(entities.size());
  std::vector<std::unique_ptr<PendingCompletion>> pending(entities.size());
  const MasterBlock& block = service_->EnsureMasterBlock();
  service_->ChasePool().ParallelFor(count, [&](int64_t k) {
    reports[static_cast<std::size_t>(k)] = ChaseEntityPhase(
        entities[static_cast<std::size_t>(k)], block, spec.rules,
        spec.config, completion_, &pending[static_cast<std::size_t>(k)]);
  });

  std::vector<int64_t> todo;
  for (int64_t k = 0; k < count; ++k) {
    if (pending[static_cast<std::size_t>(k)] != nullptr) todo.push_back(k);
  }
  if (!todo.empty()) {
    const MasterDomains& masters = service_->EnsureMasterDomains();
    // Phase 2, entity-parallel like phase 1: every completion is a pure
    // function of its entity and checks on that entity's own engine, and
    // results land at the entity's input index, so the reduction is
    // byte-identical to the serial loop for every budget.
    service_->ChasePool().ParallelFor(
        static_cast<int64_t>(todo.size()), [&](int64_t t) {
          const std::size_t k =
              static_cast<std::size_t>(todo[static_cast<std::size_t>(t)]);
          CompleteEntityPhase(*pending[k], masters, completion_,
                              options_.topk, options_.preference,
                              &reports[k]);
          pending[k].reset();  // free the checkpoint/probe memory as we go
        });
  }

  for (EntityReport& r : reports) reports_.push_back(std::move(r));
  stats_.processed += count;
  ++stats_.windows;
  stats_.peak_in_flight_engines = std::max(
      stats_.peak_in_flight_engines, static_cast<int64_t>(todo.size()));
  buffer_.clear();
}

std::optional<EntityReport> PipelineSession::Poll() {
  if (next_poll_ >= reports_.size()) return std::nullopt;
  return reports_[next_poll_++];
}

std::vector<EntityReport> PipelineSession::Drain() {
  std::vector<EntityReport> out(
      reports_.begin() + static_cast<std::ptrdiff_t>(next_poll_),
      reports_.end());
  next_poll_ = reports_.size();
  return out;
}

Result<PipelineReport> PipelineSession::Finish() {
  if (finished_) {
    return Status::FailedPrecondition(
        "PipelineSession::Finish called twice");
  }
  if (!buffer_.empty()) ProcessWindow();
  finished_ = true;

  // Deterministic aggregation in input order.
  PipelineReport report;
  report.entities = reports_;
  const Schema schema = have_schema_ ? schema_ : Schema();
  report.targets = Relation(schema);
  int64_t attrs_total = 0;
  int64_t attrs_deduced = 0;
  for (std::size_t i = 0; i < report.entities.size(); ++i) {
    const EntityReport& e = report.entities[i];
    report.total_tuples += e.num_tuples;
    if (!e.church_rosser) {
      ++report.num_non_church_rosser;
      continue;
    }
    ++report.num_church_rosser;
    attrs_total += schema.size();
    attrs_deduced += e.deduced_attrs;
    if (e.complete && !e.used_candidate) ++report.num_complete_by_chase;
    if (e.complete && e.used_candidate) ++report.num_completed_by_candidates;
    if (!e.complete) ++report.num_incomplete;
    report.targets.Add(e.target);
    report.row_entity.push_back(static_cast<int>(i));
  }
  report.deduced_attr_fraction =
      attrs_total > 0 ? static_cast<double>(attrs_deduced) /
                            static_cast<double>(attrs_total)
                      : 0.0;
  return report;
}

// ------------------------------------------------------- InteractionSession

InteractionSession::InteractionSession(AccuracyService* service,
                                       InteractionOptions options)
    : service_(service), options_(std::move(options)) {}

InteractionSession::~InteractionSession() = default;

Result<Suggestion> InteractionSession::Suggest() {
  if (finished_) {
    return Status::FailedPrecondition(
        "InteractionSession::Suggest after the session finished");
  }
  Suggestion s;
  const ChaseOutcome outcome = engine_->ResumeWith(template_);
  s.church_rosser = outcome.church_rosser;
  if (!outcome.church_rosser) {
    s.violation = outcome.violation;
    last_.reset();
    return s;
  }
  s.deduced_target = outcome.target;
  s.complete = outcome.target.IsComplete();
  if (s.complete) {
    finished_ = true;
    final_target_ = outcome.target;
    last_.reset();
    return s;
  }
  s.candidates = TopKCT(*engine_, service_->EnsureMasterDomains(),
                        s.deduced_target, preference(), options_.k,
                        options_.topk);
  last_ = s;
  return s;
}

Status InteractionSession::Revise(AttrId attr, Value value) {
  if (finished_) {
    return Status::FailedPrecondition(
        "InteractionSession::Revise after the session finished");
  }
  if (attr < 0 || attr >= template_.size()) {
    return Status::InvalidArgument(
        "Revise: attribute " + std::to_string(attr) +
        " out of range [0, " + std::to_string(template_.size()) + ")");
  }
  if (value.is_null()) {
    return Status::InvalidArgument(
        "Revise: a revision supplies a known value; got null");
  }
  template_.set(attr, std::move(value));
  ++revisions_;
  last_.reset();  // the previous candidates no longer match the template
  return Status::OK();
}

Result<Tuple> InteractionSession::Accept(int index) {
  if (finished_) {
    return Status::FailedPrecondition(
        "InteractionSession::Accept after the session finished");
  }
  if (!last_.has_value()) {
    return Status::FailedPrecondition(
        "Accept: no suggestion outstanding; call Suggest() first");
  }
  if (index < 0 ||
      index >= static_cast<int>(last_->candidates.targets.size())) {
    return Status::OutOfRange(
        "Accept: candidate index " + std::to_string(index) +
        " out of range [0, " +
        std::to_string(last_->candidates.targets.size()) + ")");
  }
  finished_ = true;
  final_target_ = last_->candidates.targets[index];
  return final_target_;
}

}  // namespace relacc
