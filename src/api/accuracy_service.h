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
#include "snapshot/memo_cache.h"
#include "topk/preference.h"
#include "topk/topk_ct.h"
#include "util/status.h"

namespace relacc {

class CandidateChecker;  // topk/batch_check.h
class ThreadPool;        // util/thread_pool.h

namespace snapshot {
class SnapshotReader;  // snapshot/reader.h
}  // namespace snapshot

class PipelineSession;
class InteractionSession;

/// Options fixed for the lifetime of an AccuracyService.
struct ServiceOptions {
  /// Total worker-thread budget shared by everything the service runs —
  /// entity-parallel chasing and the candidate-check fan-out time-multiplex
  /// it, never multiply it. <= 0 selects the hardware concurrency.
  int num_threads = 0;

  /// Chase configuration override. When set it replaces the `config`
  /// embedded in the Specification; when empty the spec's own config
  /// governs. An optional (rather than a plain ChaseConfig) so a
  /// spec-pinned config (e.g. an action budget) is never silently
  /// clobbered by a default-constructed option.
  std::optional<ChaseConfig> chase;

  /// Default completion policy for pipeline sessions and one-shot runs.
  CompletionPolicy completion = CompletionPolicy::kBestCandidate;

  /// Default streaming window: the maximum number of in-flight completion
  /// engines a PipelineSession keeps alive at once (each holds a warm
  /// all-null checkpoint, O(attrs·n²) bits). Memory is O(window), not
  /// O(entities). Must be >= 1.
  int64_t window = 64;

  /// Shard count for grounding — the service's master block over
  /// rule×Im rows, Instantiate over rule×Ie row partitions, plus the
  /// sharded engine index build that consumes Γ (see rules/grounding.h).
  /// 0 derives the count from the thread budget; 1 forces the serial
  /// path. The GroundProgram (and therefore every chase) is identical for
  /// every value; only first-use and per-entity latency change.
  int ground_shards = 0;

  /// Run the static analyzer (analysis/analyzer.h) over the
  /// specification in Create. Error-severity findings — unknown
  /// attribute ids, unresolvable master references — make Create return
  /// kInvalidArgument carrying the full formatted diagnostic list;
  /// warnings and notes never reject (run `relacc lint` for those).
  /// Off by default: programmatic callers often assemble specs that are
  /// correct by construction and should not pay the analysis.
  bool validate_spec = false;

  /// Store and chase the spec's entity instances dictionary-encoded
  /// (core/columnar.h): terms are interned once into the service
  /// dictionary, and grounding/chasing run on integer columns. Reports
  /// and outcomes are byte-identical to the row path for every setting
  /// (enforced by tests); what changes is the memory and cache profile —
  /// O(distinct terms) Values plus 4-byte ids instead of a Value per
  /// cell. The row Relation stays the public-API boundary either way.
  bool columnar_storage = false;

  /// The term dictionary the service interns into. Null (the default)
  /// makes the service create its own; pass one to share terms across
  /// services or to reuse a dictionary built at parse time
  /// (SpecDocument::dict). Used by both storage modes — the engines'
  /// TermId-encoded checkpoints are shared across workers and sessions,
  /// which requires a common dictionary regardless of storage layout.
  std::shared_ptr<Dictionary> dictionary;

  /// Path to a snapshot artifact (src/snapshot/) to load the service
  /// from instead of grounding + chasing the Specification: Create
  /// ignores the passed spec and restores dictionary, entity instance,
  /// masters (zero-copy, mmap-backed), rules, config, grounded program
  /// and the chased all-null checkpoint from the file. Incompatible
  /// with `chase`, `dictionary`, `validate_spec` and `columnar_storage
  /// == false` being meaningful — those describe a from-scratch build,
  /// so Create rejects the combinations with kInvalidArgument.
  /// Version or CRC problems surface as kInvalidArgument / kDataLoss;
  /// a service is never half-built from a bad artifact.
  std::string snapshot_path;

  /// Graceful degradation for serving: when loading `snapshot_path`
  /// fails (corrupt file, version mismatch, missing file), fall back to
  /// a cold columnar build from the passed Specification instead of
  /// refusing to start. The fallback service reports degraded() ==
  /// true with the load error as its reason; `relacc serve` logs the
  /// warning and carries on (opt out with --snapshot-strict). Ignored
  /// when snapshot_path is empty. With fallback enabled the spec AND
  /// the snapshot options may both be supplied — the usual mutual
  /// exclusions still apply to the snapshot attempt itself.
  bool snapshot_fallback = false;

  /// Capacity (entries) of the in-service verdict memo cache: repeated
  /// CheckCandidates batches and repeated ad-hoc DeduceEntity calls —
  /// the serve daemon's retried/replayed load — are answered from the
  /// memo instead of re-chasing. 0 (the default) disables the cache.
  std::size_t memo_cache_entries = 0;
};

/// Per-session options of AccuracyService::StartPipeline.
struct PipelineSessionOptions {
  /// Completion policy; empty means the service default.
  std::optional<CompletionPolicy> completion;

  /// Streaming window override; 0 means the service default. See
  /// ServiceOptions::window.
  int64_t window = 0;

  /// Per-entity top-k knobs (max_expansions, include_default_values, ...).
  /// `num_threads` and `checker` are managed by the service thread plan:
  /// setting them here is rejected with kInvalidArgument instead of being
  /// silently overridden (set ServiceOptions::num_threads instead).
  TopKOptions topk;

  /// Occurrence-count preference weights are built per entity (plus
  /// masters) unless a model is supplied here.
  const PreferenceModel* preference = nullptr;

  /// Phase-2 entity-level parallelism: how many in-flight entities
  /// complete concurrently, each through its own slot-pooled checker of
  /// width budget/workers (see PipelineThreadPlan). 0 derives
  /// `completion_workers` from the thread plan per window — one worker
  /// per pending incomplete entity up to the budget, so a window with a
  /// single incomplete entity hands that entity's checker the whole
  /// budget; 1 forces the one-entity-at-a-time completion loop (whose
  /// single checker then gets the whole budget) for every window.
  /// Reports are byte-identical for every value — the reduction is by
  /// input index, and per-entity completion is a pure function of the
  /// entity.
  int completion_workers = 0;
};

/// Options of an interactive session (the Fig. 3 loop).
struct InteractionOptions {
  int k = 15;  ///< candidates per Suggest() (paper default)

  /// Top-k knobs for Suggest(). As with PipelineSessionOptions::topk,
  /// `num_threads`/`checker` are managed by the service and rejected when
  /// set.
  TopKOptions topk;

  /// Preference model for ranking; null builds occurrence-count weights
  /// over the session's entity instance (plus masters) once at start.
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
///   * the grounded program and chase engine of the spec's own entity
///     instance — and with them the shared all-null *checkpoint* every
///     deduction, candidate check and interactive resume starts from
///     (built lazily on first use, so pipeline-only services over a
///     placeholder instance never pay for it);
///   * the persistent CandidateCheckers (and their thread pools): one
///     service-wide checker for one-shot calls and interactive sessions,
///     plus a slot pool of completion checkers — one per completion
///     worker — all rebound across entities, sessions and one-shot calls
///     instead of being rebuilt per call; and
///   * the thread plan: ServiceOptions::num_threads is the single budget
///     that entity-parallel chasing, entity-parallel completion and
///     candidate-check fan-out time-multiplex (see PipelineThreadPlan in
///     pipeline/pipeline.h; completion_workers × check_threads never
///     exceeds the budget).
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
///     same shared checkpoint and checker.
///
/// Error handling: every fallible path returns Status / Result<T>; the
/// service never writes to stderr or exits the process. Domain outcomes
/// (a non-Church-Rosser spec, an incomplete target) are reported in the
/// returned values, not as errors — except where a call is meaningless
/// without them (TopK on a non-CR spec is kFailedPrecondition).
///
/// Threading and ownership: the service and its sessions are not
/// internally synchronized — drive them from one thread at a time (the
/// parallelism lives *inside*, governed by the budget). Sessions hold
/// pointers into the service and must not outlive it. The service is
/// immovable; the Specification is copied in and owned.
class AccuracyService {
 public:
  /// Validates `options` and takes ownership of `spec`. When
  /// `options.chase` is set it replaces spec.config.
  static Result<std::unique_ptr<AccuracyService>> Create(
      Specification spec, ServiceOptions options = {});

  AccuracyService(const AccuracyService&) = delete;
  AccuracyService& operator=(const AccuracyService&) = delete;
  ~AccuracyService();

  const Specification& specification() const { return spec_; }

  /// The resolved worker-thread budget (hardware concurrency when
  /// ServiceOptions::num_threads was <= 0).
  int thread_budget() const { return budget_; }

  /// The resolved default streaming window.
  int64_t default_window() const { return options_.window; }

  /// The service-wide term dictionary (ServiceOptions::dictionary or
  /// service-created): every engine the service builds interns into it,
  /// so TermId-encoded checkpoints stay portable across the default
  /// engine, checker worker engines, completion slots and sessions.
  Dictionary* dictionary() const { return dict_.get(); }

  /// Whether entity instances are stored and chased dictionary-encoded.
  bool columnar_storage() const { return options_.columnar_storage; }

  /// How this service stores its data: "row", "columnar", or
  /// "snapshot" (mmap-backed artifact). Serve stats and bench rows
  /// report this label.
  const char* storage_mode() const {
    if (reader_ != nullptr) return "snapshot";
    return options_.columnar_storage ? "columnar" : "row";
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

  /// Counters of the verdict memo cache; all zero when the cache is
  /// disabled (ServiceOptions::memo_cache_entries == 0).
  snapshot::MemoCache::Stats memo_stats() const;

  /// Serializes the service's full derived state — dictionary, encoded
  /// entity instance, masters, rules, config, grounded program, chased
  /// all-null checkpoint — into a snapshot artifact at `path`, building
  /// the engine and checkpoint first if needed. Requires columnar
  /// storage (the artifact ships dictionary-encoded columns);
  /// kFailedPrecondition otherwise. A snapshot-loaded service can
  /// re-export.
  Status WriteSnapshot(const std::string& path);

  /// Opens a streaming pipeline session. Rejects managed TopKOptions
  /// knobs (num_threads/checker) and negative windows with
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
  /// service's master block; the relation is copied into the session).
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
  Result<ChaseOutcome> DeduceEntity(const Relation& entity);

  /// Top-k candidate targets for the spec's own deduced target, through
  /// the shared checkpoint and checker. An already-complete deduced
  /// target is returned (check-verified) as its own sole candidate.
  /// kFailedPrecondition when the spec is not Church-Rosser;
  /// kInvalidArgument for k < 1 or managed topk knobs. `preference` null
  /// builds occurrence-count weights over (ie, masters).
  Result<TopKResult> TopK(int k, TopKAlgorithm algo = TopKAlgorithm::kTopKCT,
                          TopKOptions topk = {},
                          const PreferenceModel* preference = nullptr);

  /// The candidate-target `check` (Sec. 6) for every candidate against
  /// the spec's own entity instance, fanned out through the shared
  /// checker; verdicts[i] corresponds to candidates[i]. Candidates must
  /// satisfy the CheckCandidateTarget contract (complete, agreeing with
  /// the deduced target on its non-null attributes).
  Result<std::vector<char>> CheckCandidates(
      const std::vector<Tuple>& candidates);

 private:
  friend class PipelineSession;
  friend class InteractionSession;

  AccuracyService(Specification spec, ServiceOptions options, int budget);

  /// Shared tail of both StartInteraction overloads: validates options
  /// and wires a session over either the service's own relation and
  /// program (own_ie null: checkpoint adopted from the service engine)
  /// or a session-owned relation grounded here.
  Result<std::unique_ptr<InteractionSession>> StartInteractionImpl(
      InteractionOptions options, std::unique_ptr<Relation> own_ie);

  /// The service's shared master block: the form-(2) steps of the
  /// rules over the masters, grounded and indexed once (into dict_) on
  /// the first per-entity use — never by Create or a snapshot load, whose
  /// warm deduce needs no grounding at all. Requires row masters
  /// (EnsureMasters on a snapshot service).
  const MasterBlock& EnsureMasterBlock();

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

  /// FNV fingerprint of the service's own entity instance, computed
  /// once (memo-cache key half).
  uint64_t OwnEntityFingerprint();

  /// The shared chase pool (width = budget), built on first use.
  ThreadPool& ChasePool();

  /// Hands out the persistent CandidateChecker bound to `engine`,
  /// rebinding only when the binding token changed. Tokens are unique per
  /// engine binding (NewBindingToken), never reused, so a token match
  /// guarantees the checker is still bound to this very engine — pointer
  /// equality alone could be fooled by a new engine reusing a freed
  /// address.
  const CandidateChecker& AcquireChecker(const ChaseEngine& engine,
                                         uint64_t token);
  uint64_t NewBindingToken() { return next_token_++; }

  /// Grows the completion-checker slot pool to at least `workers` slots.
  /// Called single-threaded (by a pipeline session) before a parallel
  /// completion fan-out.
  void EnsureCompletionSlots(int workers);

  /// Hands out slot `slot`'s persistent completion checker, rebound to
  /// `engine` (a fresh engine every call, so no token bookkeeping: the
  /// pool survives the rebind, which is the reuse win). Recreates the
  /// checker when `width` changed since the slot was built. Distinct
  /// slots are called concurrently — each call touches only its own
  /// slot, and the vector itself is only grown by EnsureCompletionSlots
  /// between fan-outs.
  const CandidateChecker& AcquireCompletionChecker(int slot, int width,
                                                   const ChaseEngine& engine);

  /// The resolved grounding shard count (ServiceOptions::ground_shards;
  /// 0 means the budget).
  int GroundShardCount() const {
    return options_.ground_shards > 0 ? options_.ground_shards : budget_;
  }

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

  // Lazily-grounded state of the spec's own entity instance; engine_
  // owns the shared all-null checkpoint. Under columnar storage, cie_
  // is the dictionary-encoded spec_.ie the engine reads its columns
  // from (and must outlive the engine).
  std::unique_ptr<ColumnarRelation> cie_;
  std::unique_ptr<GroundProgram> program_;
  std::unique_ptr<ChaseEngine> engine_;
  uint64_t engine_token_ = 0;

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

  // The verdict memo (ServiceOptions::memo_cache_entries); null when
  // disabled.
  std::unique_ptr<snapshot::MemoCache> memo_;
  uint64_t own_entity_fp_ = 0;
  bool own_entity_fp_set_ = false;

  std::unique_ptr<CandidateChecker> checker_;
  uint64_t bound_token_ = 0;   ///< token of the engine checker_ is bound to
  uint64_t next_token_ = 1;  ///< 0 is never handed out

  /// Phase-2 completion slot pool: one persistent CandidateChecker (and
  /// thread pool) per completion worker, rebound across entities,
  /// sessions and windows.
  std::vector<std::unique_ptr<CandidateChecker>> completion_checkers_;
};

/// A streaming whole-database run: submit entity batches as they
/// arrive, poll per-entity reports as they complete, finish for the
/// aggregate. Entities are processed in windows — phase-1
/// entity-parallel chase, then phase-2 completion across the plan's
/// completion-worker slots with an input-order reduction — so at most
/// `window` completion engines are ever alive
/// (stats().peak_in_flight_engines proves it).
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
/// window size, thread budget and completion-worker count (enforced by
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
  /// entity-parallel chase, then completion of the incomplete entities
  /// across the completion-worker slots. Reports are reduced by input
  /// index, so they are byte-identical to the serial loop for every
  /// worker count. Appends them to reports_, updates stats_ and empties
  /// the buffer.
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

  AccuracyService* service_;
  InteractionOptions options_;

  // For sessions over a caller-supplied entity; default-entity sessions
  // borrow the service's relation and program instead. Under columnar
  // storage, own_cie_ is the encoded form the session engine reads
  // (interned into the service dictionary).
  std::unique_ptr<Relation> own_ie_;
  std::unique_ptr<ColumnarRelation> own_cie_;
  std::unique_ptr<GroundProgram> own_program_;

  std::unique_ptr<ChaseEngine> engine_;  ///< always session-owned
  uint64_t token_ = 0;
  PreferenceModel own_pref_;             ///< used when options_.preference null

  Tuple template_;
  std::optional<Suggestion> last_;  ///< latest Suggest, for Accept
  Tuple final_target_;
  bool finished_ = false;
  int revisions_ = 0;
};

}  // namespace relacc

#endif  // RELACC_API_ACCURACY_SERVICE_H_
