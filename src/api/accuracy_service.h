#ifndef RELACC_API_ACCURACY_SERVICE_H_
#define RELACC_API_ACCURACY_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chase/chase_engine.h"
#include "chase/specification.h"
#include "core/columnar.h"
#include "core/dictionary.h"
#include "core/relation.h"
#include "pipeline/pipeline.h"
#include "topk/preference.h"
#include "topk/topk_ct.h"
#include "util/status.h"

namespace relacc {

class ThreadPool;  // util/thread_pool.h

namespace snapshot {
class SnapshotReader;  // snapshot/reader.h
}  // namespace snapshot

class PipelineSession;
class InteractionSession;

/// Options fixed for the lifetime of an AccuracyService.
struct ServiceOptions {
  /// Worker-thread budget: the width of the service's one pool, on which
  /// a pipeline window's entities are chased and completed (one entity
  /// per task) and a CheckCandidates batch fans out. Every top-k search
  /// runs on its caller's thread, checking one candidate at a time. <= 0
  /// selects the hardware concurrency.
  int num_threads = 0;

  /// Default completion policy for pipeline sessions and one-shot runs.
  CompletionPolicy completion = CompletionPolicy::kBestCandidate;

  /// Default streaming window: the maximum number of in-flight completion
  /// engines a PipelineSession keeps alive at once (each holds a warm
  /// all-null checkpoint, O(attrs·n²) bits). Memory is O(window), not
  /// O(entities). Must be >= 1.
  int64_t window = 64;

  /// Run the static analyzer (analysis/analyzer.h) over the
  /// specification in Create. Error-severity findings — unknown
  /// attribute ids, unresolvable master references — make Create return
  /// kInvalidArgument carrying the full formatted diagnostic list;
  /// warnings and notes never reject (run `relacc lint` for those).
  /// Off by default: programmatic callers often assemble specs that are
  /// correct by construction and should not pay the analysis.
  bool validate_spec = false;

  /// Exists only because the benchmark harness (perfbench/harness)
  /// still assigns it; it is to be deleted with that harness's three
  /// assignments. Every service stores its entities dictionary-encoded
  /// (core/columnar.h), so `true` is the only accepted value: Create
  /// rejects `false` with kInvalidArgument.
  bool columnar_storage = true;

  /// The term dictionary the service interns into. Null (the default)
  /// makes the service create its own; pass one to share terms across
  /// services or to reuse a dictionary built at parse time
  /// (SpecDocument::dict). Every entity is encoded into it: the engines'
  /// TermId-encoded checkpoints are shared across workers and sessions,
  /// which requires a common dictionary.
  std::shared_ptr<Dictionary> dictionary;

  /// Path to a snapshot artifact (src/snapshot/) to load the service
  /// from instead of grounding + chasing the Specification: Create
  /// ignores the passed spec and restores dictionary, entity instance,
  /// masters (zero-copy, mmap-backed), rules, config, grounded program
  /// and the chased all-null checkpoint from the file. Incompatible
  /// with `dictionary` and `validate_spec` — those describe a
  /// from-scratch build, so Create rejects the combinations with
  /// kInvalidArgument.
  /// Version or CRC problems surface as kInvalidArgument / kDataLoss;
  /// a service is never half-built from a bad artifact.
  std::string snapshot_path;

  /// Graceful degradation for serving: when loading `snapshot_path`
  /// fails (corrupt file, version mismatch, missing file), fall back to
  /// a cold build from the passed Specification instead of
  /// refusing to start. The fallback service reports degraded() ==
  /// true with the load error as its reason; `relacc serve` logs the
  /// warning and carries on (opt out with --snapshot-strict). Ignored
  /// when snapshot_path is empty. With fallback enabled the spec AND
  /// the snapshot options may both be supplied — the usual mutual
  /// exclusions still apply to the snapshot attempt itself.
  bool snapshot_fallback = false;
};

/// Per-session options of AccuracyService::StartPipeline.
struct PipelineSessionOptions {
  /// Completion policy; empty means the service default.
  std::optional<CompletionPolicy> completion;

  /// Streaming window override; 0 means the service default. See
  /// ServiceOptions::window.
  int64_t window = 0;

  /// Per-entity top-k knobs (max_expansions, include_default_values).
  /// Each entity's checks run on that entity's own engine.
  TopKOptions topk;

  /// Occurrence-count preference weights are built per entity (over the
  /// service's shared master tables) unless a model is supplied here.
  const PreferenceModel* preference = nullptr;
};

/// Options of an interactive session (the Fig. 3 loop).
struct InteractionOptions {
  int k = 15;  ///< candidates per Suggest() (paper default)

  /// Top-k knobs for Suggest(); the checks run on the session's engine.
  TopKOptions topk;

  /// Preference model for ranking; null builds occurrence-count weights
  /// over the session's entity instance (plus the service's shared master
  /// tables) once at start.
  const PreferenceModel* preference = nullptr;
};

/// What one Suggest() round shows the user: the deduced target under the
/// current template, and — when it is incomplete — the ranked candidates.
struct Suggestion {
  bool church_rosser = false;
  std::string violation;  ///< when !church_rosser
  Tuple deduced_target;
  bool complete = false;
  TopKResult candidates;  ///< empty when complete or !church_rosser
};

/// Which top-k algorithm a one-shot AccuracyService::TopK call runs.
enum class TopKAlgorithm {
  kTopKCT,      ///< Fig. 5 best-first search (instance optimal)
  kHeuristic,   ///< TopKCTh, the PTIME greedy-repair heuristic (Sec. 6.3)
  kRankJoin,    ///< RankJoinCT over ranked attribute lists
  kBruteForce,  ///< exhaustive oracle; tiny instances only
};

/// The streaming, session-oriented entry point of the library: one
/// long-lived object constructed from a Specification (entity instance,
/// master relations, accuracy rules, chase config) plus a ServiceOptions,
/// owning for its whole lifetime
///
///   * the master block: the form-(2) part of Γ, which depends only on
///     the rules and the masters, grounded and indexed once on first
///     per-entity use and shared by every entity's program and engine
///     (each entity grounds only its own pair rules);
///   * the master tables of top-k (MasterDomains): each master column's
///     distinct values with their master counts, built once on the first
///     top-k, completion or interaction call and shared by every
///     entity's preference model and search space, so per-entity top-k
///     preparation is O(|Ie|) plus the domains it emits;
///   * the grounded program and chase engine of the spec's own entity
///     instance — and with them the shared all-null *checkpoint* every
///     deduction, candidate check and interactive resume starts from
///     (built lazily on first use, so pipeline-only services over a
///     placeholder instance never pay for it);
///   * the one thread pool of ServiceOptions::num_threads: a pipeline
///     window chases its entities on it and then completes the incomplete
///     ones on it, one entity per task, each on its own engine; and
///     CheckCandidates fans a candidate batch out on it, one engine per
///     worker slot (built once, sharing the service engine's checkpoint).
///
/// Every top-k search (TopK, Suggest, pipeline completion) checks one
/// candidate at a time, in the search's order, on one engine: the
/// service's, the session's or the entity's. So rankings and their
/// counters are the same for every budget.
///
/// Work is exposed as sessions:
///
///   * StartPipeline() — a streaming whole-database run: Submit entity
///     batches as they arrive, Poll/Drain per-entity reports as they
///     complete, Finish() for the aggregate PipelineReport. At most
///     `window` completion engines are in flight, so memory is bounded by
///     the window, not by the number of entities; the report is
///     byte-identical for every window and budget.
///   * StartInteraction() — the Fig. 3 user loop as a stateful object:
///     Suggest()/Revise()/Accept() over a persistent chase session
///     (ChaseEngine::ResumeWith), so each accumulating revision costs
///     O(its own changes).
///   * DeduceEntity()/TopK() — one-shot conveniences routed through the
///     same shared checkpoint.
///
/// Error handling: every fallible path returns Status / Result<T>; the
/// service never writes to stderr or exits the process. Domain outcomes
/// (a non-Church-Rosser spec, an incomplete target) are reported in the
/// returned values, not as errors — except where a call is meaningless
/// without them (TopK on a non-CR spec is kFailedPrecondition).
///
/// Threading and ownership: the service and its sessions are not
/// internally synchronized — drive them from one thread at a time (the
/// pipeline windows and the batch check run on the service pool
/// inside). Sessions hold pointers into the service and must not outlive
/// it. The service is immovable; the Specification is copied in and
/// owned.
class AccuracyService {
 public:
  /// Validates `options` and takes ownership of `spec`; spec.config is
  /// the chase configuration.
  static Result<std::unique_ptr<AccuracyService>> Create(
      Specification spec, ServiceOptions options = {});

  AccuracyService(const AccuracyService&) = delete;
  AccuracyService& operator=(const AccuracyService&) = delete;
  ~AccuracyService();

  const Specification& specification() const { return spec_; }

  /// The resolved worker-thread budget (hardware concurrency when
  /// ServiceOptions::num_threads was <= 0).
  int thread_budget() const { return budget_; }

  /// The service-wide term dictionary (ServiceOptions::dictionary or
  /// service-created): every engine the service builds interns into it,
  /// so TermId-encoded checkpoints stay portable across the default
  /// engine, the CheckCandidates slot engines and sessions.
  Dictionary* dictionary() const { return dict_.get(); }

  /// How this service stores its data: "columnar" (built from the
  /// Specification) or "snapshot" (mmap-backed artifact). Serve stats
  /// and bench rows report this label.
  const char* storage_mode() const {
    return reader_ != nullptr ? "snapshot" : "columnar";
  }

  /// Terms currently interned in the service dictionary (including the
  /// reserved null slot).
  std::size_t dictionary_terms() const { return dict_->size(); }

  /// True when this service is the cold-build fallback of a failed
  /// snapshot load (ServiceOptions::snapshot_fallback): results are
  /// identical, only the O(1) warm start was lost.
  bool degraded() const { return degraded_; }
  /// The snapshot-load error behind degraded(); empty otherwise.
  const std::string& degraded_reason() const { return degraded_reason_; }

  /// Serializes the service's full derived state — dictionary, encoded
  /// entity instance, masters, rules, config, grounded program, chased
  /// all-null checkpoint — into a snapshot artifact at `path`, building
  /// the engine and checkpoint first if needed. A snapshot-loaded
  /// service can re-export.
  Status WriteSnapshot(const std::string& path);

  /// Opens a streaming pipeline session. Rejects a negative window with
  /// kInvalidArgument.
  Result<std::unique_ptr<PipelineSession>> StartPipeline(
      PipelineSessionOptions options = {});

  /// Opens an interactive session over the spec's own entity instance.
  /// The session shares the service checkpoint (no second all-null
  /// chase).
  Result<std::unique_ptr<InteractionSession>> StartInteraction(
      InteractionOptions options = {});

  /// Opens an interactive session over a caller-supplied entity instance
  /// (its pair rules grounded here, its master steps shared from the
  /// service's master block; the session keeps the relation encoded).
  /// kInvalidArgument when the entity's arity differs from the service
  /// schema's.
  Result<std::unique_ptr<InteractionSession>> StartInteraction(
      Relation entity, InteractionOptions options = {});

  /// IsCR over the spec's own entity instance, served from (and priming)
  /// the shared checkpoint. The Church-Rosser verdict and any violation
  /// live in the returned ChaseOutcome; Status is for service-level
  /// failures only.
  Result<ChaseOutcome> DeduceEntity();

  /// IsCR over a caller-supplied entity instance: its pair rules are
  /// grounded fresh, the master steps come from the service's shared
  /// master block. No engine or program is retained, but the entity's
  /// terms are interned into the service dictionary (the block's keyed
  /// watchers are ids of it), as pipeline and interaction sessions do.
  /// kInvalidArgument when the entity's arity differs from the service
  /// schema's.
  Result<ChaseOutcome> DeduceEntity(const Relation& entity);

  /// Top-k candidate targets for the spec's own deduced target, checked
  /// on the service engine (its shared checkpoint). An already-complete
  /// deduced
  /// target is returned (check-verified) as its own sole candidate.
  /// kFailedPrecondition when the spec is not Church-Rosser;
  /// kInvalidArgument for k < 1. `preference` null builds occurrence-count
  /// weights over ie and the shared master tables.
  Result<TopKResult> TopK(int k, TopKAlgorithm algo = TopKAlgorithm::kTopKCT,
                          const TopKOptions& topk = {},
                          const PreferenceModel* preference = nullptr);

  /// The candidate-target `check` (Sec. 6) for every candidate against
  /// the spec's own entity instance, fanned out over the service pool
  /// (inline on the service engine at budget 1 or for a single
  /// candidate); verdicts[i] corresponds to candidates[i], the same for
  /// every budget. Candidates must
  /// satisfy the ChaseEngine::CheckCandidate contract (complete, agreeing
  /// with the deduced target on its non-null attributes).
  Result<std::vector<char>> CheckCandidates(
      const std::vector<Tuple>& candidates);

  /// The service's shared top-k master tables; null until the first
  /// top-k, completion or interaction call builds them (DeduceEntity
  /// never does).
  const MasterDomains* master_domains() const {
    return master_domains_.has_value() ? &*master_domains_ : nullptr;
  }

 private:
  friend class PipelineSession;
  friend class InteractionSession;

  AccuracyService(Specification spec, ServiceOptions options, int budget);

  /// Shared tail of both StartInteraction overloads: validates options
  /// and wires a session over either the service's own relation and
  /// program (own_ie null: checkpoint adopted from the service engine)
  /// or `own_ie` encoded into the session and grounded here.
  Result<std::unique_ptr<InteractionSession>> StartInteractionImpl(
      InteractionOptions options, const Relation* own_ie);

  /// The service's shared master block: the form-(2) steps of the
  /// rules over the masters, grounded and indexed once (into dict_) on
  /// the first per-entity use — never by Create or a snapshot load, whose
  /// warm deduce needs no grounding at all. Requires row masters
  /// (EnsureMasters on a snapshot service).
  const MasterBlock& EnsureMasterBlock();

  /// The service's shared top-k master tables, built from the row
  /// masters on first use (the same precondition as EnsureMasterBlock).
  const MasterDomains& EnsureMasterDomains();

  /// Grounds the spec's own entity instance and builds its engine, once.
  /// On a snapshot-loaded service this deserializes the stored program
  /// and installs the stored checkpoint instead of re-grounding and
  /// re-chasing.
  Status EnsureDefaultEngine();

  /// Restores the service's state from options_.snapshot_path; called
  /// once by Create, before the service is handed out.
  Status LoadFromSnapshot();

  /// Materializes spec_.masters rows from the mmap-backed columnar
  /// masters of a snapshot-loaded service, once, on the first call
  /// that actually needs row masters (top-k search spaces, grounding
  /// ad-hoc entities, pipelines). The warm deduce path never does.
  Status EnsureMasters();

  /// The service's one thread pool (width = budget), built on first
  /// use: pipeline windows and CheckCandidates run on it.
  ThreadPool& ChasePool();

  /// kInvalidArgument, prefixed by `what`, when `schema`'s arity differs
  /// from the service schema's. Grounding and the chase index read every
  /// attribute of the service schema, so every per-entity entry point
  /// checks this before grounding anything.
  Status CheckEntityArity(const std::string& what, const Schema& schema) const;

  Specification spec_;
  ServiceOptions options_;
  int budget_;

  /// Set by Create on the snapshot-fallback path (see
  /// ServiceOptions::snapshot_fallback).
  bool degraded_ = false;
  std::string degraded_reason_;

  /// The service-wide dictionary; never null after construction.
  std::shared_ptr<Dictionary> dict_;

  std::unique_ptr<ThreadPool> pool_;

  // The shared master block (EnsureMasterBlock); null until first use.
  std::shared_ptr<const MasterBlock> master_block_;

  // The shared top-k master tables (EnsureMasterDomains); empty until
  // first use.
  std::optional<MasterDomains> master_domains_;

  // Lazily-grounded state of the spec's own entity instance; engine_
  // owns the shared all-null checkpoint. cie_ is the dictionary-encoded
  // spec_.ie the engine reads its columns from (and must outlive the
  // engine).
  std::unique_ptr<ColumnarRelation> cie_;
  std::unique_ptr<GroundProgram> program_;
  std::unique_ptr<ChaseEngine> engine_;

  // Snapshot mode (reader_ != nullptr): the open artifact — it owns
  // the mapping the borrowed master columns alias, so it outlives
  // them — plus the decoded checkpoint image (consumed lazily by
  // EnsureDefaultEngine), the pre-materialized all-null outcome the
  // O(1) warm DeduceEntity serves, and the zero-copy masters that
  // EnsureMasters row-materializes on demand.
  std::unique_ptr<snapshot::SnapshotReader> reader_;
  std::unique_ptr<ChaseCheckpoint> checkpoint_image_;
  std::unique_ptr<ChaseOutcome> snapshot_outcome_;
  std::vector<ColumnarRelation> cmasters_;
  bool masters_loaded_ = false;

  // One engine per ChasePool slot for CheckCandidates' fan-out, each
  // over engine_'s Ie and program and sharing its checkpoint: engines
  // hold mutable probe state, so workers never share one. Empty until
  // the first batch that fans out.
  std::vector<std::unique_ptr<ChaseEngine>> check_engines_;
};

/// A streaming whole-database run: submit entity batches as they
/// arrive, poll per-entity reports as they complete, finish for the
/// aggregate. Entities are processed in windows — phase 1 chases every
/// entity of the window on the service pool, phase 2 completes the
/// incomplete ones on the same pool, each on its own engine, and reports
/// are reduced in input order — so at most `window` completion engines
/// are ever alive (stats().peak_in_flight_engines proves it).
///
/// Windows run on the caller's thread: Submit processes every window its
/// entities fill before it returns, and Finish processes the partial
/// tail. Submit retires each full window before it buffers more, so
/// buffered input stays O(window) however large a batch arrives. An
/// external scheduler that time-slices one executor thread across many
/// sessions (serve/scheduler.h) therefore gets one window per Submit of
/// `window` entities; the service's thread budget is the only
/// parallelism.
///
/// Like InteractionSession, a session is not internally synchronized:
/// use it from one thread at a time, and do not interleave other calls
/// on its service while a Submit or Finish is running.
///
/// Reports come back in input order and are byte-identical for every
/// window size and thread budget (enforced by
/// tests/test_accuracy_service.cc and bench/pipeline_scaling.cc).
class PipelineSession {
 public:
  struct Stats {
    int64_t submitted = 0;  ///< entities accepted by Submit
    int64_t processed = 0;  ///< entities chased + completed so far
    int64_t windows = 0;    ///< windows processed
    /// Peak number of simultaneously-alive phase-2 completion engines;
    /// <= window by construction.
    int64_t peak_in_flight_engines = 0;
  };

  PipelineSession(const PipelineSession&) = delete;
  PipelineSession& operator=(const PipelineSession&) = delete;

  /// Appends entities to the stream, processing every full window they
  /// complete before returning (those reports are Poll()able afterwards).
  /// kFailedPrecondition after Finish(); kInvalidArgument, naming the
  /// entity, when an entity's schema arity differs from the service
  /// schema's (nothing from the batch is accepted then).
  Status Submit(std::vector<EntityInstance> batch);
  Status Submit(EntityInstance entity);

  /// Next completed per-entity report in input order, if one is ready.
  std::optional<EntityReport> Poll();

  /// Every completed-but-unpolled report, in input order.
  std::vector<EntityReport> Drain();

  /// Processes the final partial window and returns the aggregate report.
  /// The session refuses further Submit/Finish calls afterwards;
  /// Poll/Drain keep working on what completed. A session destroyed
  /// without Finish() drops the entities of its partial window.
  Result<PipelineReport> Finish();

  bool finished() const { return finished_; }
  int64_t window() const { return window_; }

  Stats stats() const { return stats_; }

 private:
  friend class AccuracyService;

  PipelineSession(AccuracyService* service, PipelineSessionOptions options,
                  CompletionPolicy completion, int64_t window);

  /// Processes the buffered entities as one window, start to finish:
  /// entity-parallel chase, then entity-parallel completion of the
  /// incomplete entities. Reports are reduced by input index, so they
  /// are byte-identical to the serial loop for every budget. Appends
  /// them to reports_, updates stats_ and empties the buffer.
  void ProcessWindow();

  AccuracyService* service_;
  PipelineSessionOptions options_;
  CompletionPolicy completion_;
  int64_t window_;

  Schema schema_;  ///< of the first accepted entity
  bool have_schema_ = false;
  std::vector<EntityInstance> buffer_;  ///< submitted, not yet windowed
  bool finished_ = false;
  std::vector<EntityReport> reports_;  ///< processed, input order
  std::size_t next_poll_ = 0;
  Stats stats_;
};

/// The Fig. 3 interactive loop as a stateful object: Suggest() chases the
/// current target template (via the engine's persistent trail session, so
/// accumulating revisions cost O(their own changes)) and ranks candidate
/// targets when the deduced target is incomplete; Revise() folds a
/// user-supplied value into the template; Accept() finalizes on a
/// suggested candidate. A completing Suggest() finalizes the session by
/// itself.
class InteractionSession {
 public:
  InteractionSession(const InteractionSession&) = delete;
  InteractionSession& operator=(const InteractionSession&) = delete;
  ~InteractionSession();

  /// One deduction round: chases the current template and — when the
  /// result is incomplete — computes the top-k candidates. Not an error
  /// when the spec is not Church-Rosser: the Suggestion carries the
  /// verdict and violation. kFailedPrecondition once finished.
  Result<Suggestion> Suggest();

  /// Folds the accurate value of one attribute into the target template
  /// (the user's Fig. 3 "revise" move). kInvalidArgument for an
  /// out-of-range attribute or a null value; kFailedPrecondition once
  /// finished. Invalidates the previous Suggestion for Accept().
  Status Revise(AttrId attr, Value value);

  /// Accepts candidate `index` of the latest Suggest() as the final
  /// target. kFailedPrecondition when finished or no suggestion is
  /// outstanding; kOutOfRange for a bad index.
  Result<Tuple> Accept(int index);

  /// True once a complete target was deduced or accepted.
  bool finished() const { return finished_; }

  /// The final target; meaningful once finished().
  const Tuple& final_target() const { return final_target_; }

  /// The current (partial) target template the next Suggest() chases.
  const Tuple& target_template() const { return template_; }

  /// Revisions applied so far (h of the paper's Exp-3).
  int revisions() const { return revisions_; }

 private:
  friend class AccuracyService;

  InteractionSession(AccuracyService* service, InteractionOptions options);

  /// The preference model Suggest() ranks with.
  const PreferenceModel& preference() const {
    return options_.preference != nullptr ? *options_.preference : own_pref_;
  }

  AccuracyService* service_;
  InteractionOptions options_;

  // For sessions over a caller-supplied entity; default-entity sessions
  // borrow the service's encoded relation and program instead. own_cie_
  // is the encoded entity the session engine reads (interned into the
  // service dictionary).
  std::unique_ptr<ColumnarRelation> own_cie_;
  std::unique_ptr<GroundProgram> own_program_;

  std::unique_ptr<ChaseEngine> engine_;  ///< always session-owned
  PreferenceModel own_pref_;             ///< used when options_.preference null

  Tuple template_;
  std::optional<Suggestion> last_;  ///< latest Suggest, for Accept
  Tuple final_target_;
  bool finished_ = false;
  int revisions_ = 0;
};

}  // namespace relacc

#endif  // RELACC_API_ACCURACY_SERVICE_H_
