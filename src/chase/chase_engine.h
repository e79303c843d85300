#ifndef RELACC_CHASE_CHASE_ENGINE_H_
#define RELACC_CHASE_CHASE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chase/specification.h"
#include "core/columnar.h"
#include "core/dictionary.h"
#include "core/relation.h"
#include "rules/grounding.h"
#include "util/status.h"

namespace relacc {

/// A serializable image of the shared all-null checkpoint — exactly the
/// derived state a snapshot persists so a loaded engine resumes from
/// the chased terminal instance instead of re-running the checkpoint
/// chase. te ids are TermIds of the engine's dictionary (snapshot loads
/// re-intern in id order, so ids are stable); `order_succ` holds each
/// attribute's transitively-closed successor words
/// (PartialOrder::successor_words()) — predecessors, in-degrees and the
/// greatest element are derived on import. When the base specification
/// is not Church-Rosser there is no checkpoint state: ok is false and
/// the violation plus the failing chase's stats round-trip instead, so
/// a loaded service reports the identical failure.
struct ChaseCheckpoint {
  bool ok = false;
  std::vector<TermId> te;                         ///< [attr]
  std::vector<int32_t> te_rule;                   ///< [attr] provenance
  std::vector<int32_t> remaining;                 ///< [ground step]
  std::vector<uint8_t> dead;                      ///< [ground step]
  std::vector<std::vector<uint64_t>> order_succ;  ///< [attr] closed succ
  int64_t steps_applied = 0;
  int64_t pairs_derived = 0;
  int64_t actions = 0;
  std::string violation;  ///< when !ok
};

/// Executes chasing sequences over a pre-grounded program (Sec. 2.2 / 5).
///
/// Construction builds the immutable part of the index H of algorithm IsCR
/// (Fig. 4): watch lists Φδ keyed by order-pair events (attr,i,j) and by
/// target-template events te[A]:=v, plus the initial residual counters nφ.
/// `Run` then simulates one stable chasing sequence from a given initial
/// target template; it is cheap to call repeatedly (the top-k algorithms'
/// `check` runs it once per inspected candidate).
///
/// The engine implements the validity checks of Sec. 2.2 and aborts —
/// reporting not-Church-Rosser — when an applied step would (a) create
/// ti ⪯ tj ∧ tj ⪯ ti with ti[A] ≠ tj[A], or (b) change a non-null te[A]
/// (whether via a form-(2) assignment or via the λ greatest-element rule).
///
/// Shared master block. When the program carries a MasterBlock (the
/// form-(2) steps, grounded once per service and shared by every entity's
/// engine), the engine indexes only the program's own steps. The block's
/// counters, payload ids and watchers are read from the block: its
/// watchers are keyed by (attr, value), so setting te[A] := v visits only
/// the master steps waiting on exactly that value, merged with the
/// entity's own watchers of A in virtual-id order. Queue order, stats,
/// violation messages and checkpoint images are therefore indexed by the
/// same virtual step ids as the flat program (GroundProgram::Materialize)
/// and the chase is identical to one over it. Per-run counters and dead
/// flags stay dense over all of Γ. A program without a block is the
/// empty-block case of the same index.
class ChaseEngine {
 public:
  /// `ie` and `program` must outlive the engine. Construction builds the
  /// immutable index H on the calling thread in one pass over the
  /// program's own steps; a block-backed program's master steps are
  /// already indexed in the block, so the pass is per-entity sized.
  ///
  /// The engine is dictionary-encoded end to end: the Ie columns, the te
  /// slots of every run state, the ϕ8/ϕ9 value index and the
  /// residual-constant watch entries are all TermIds of ie.mutable_dict()
  /// (Value equality == id equality by the interning contract), so the
  /// chase hot loop compares integers, not Values. Sibling engines —
  /// CheckCandidates slot engines, pipeline windows, serve sessions — encode
  /// their entities into one shared dictionary, so each distinct term is
  /// interned once and checkpoints can be shared (AdoptCheckpointFrom
  /// requires a common dictionary). A block-backed program requires ie's
  /// dictionary to be the block's (the block's watchers are keyed by its
  /// ids); a mismatch aborts. A row Relation is encoded once, at the API
  /// boundary, with ColumnarRelation::FromRelation.
  ChaseEngine(const ColumnarRelation& ie, const GroundProgram* program,
              ChaseConfig config);

  ChaseEngine(const ChaseEngine&) = delete;
  ChaseEngine& operator=(const ChaseEngine&) = delete;
  ~ChaseEngine();  // out-of-line: RunState is incomplete here

  /// Runs a chasing sequence to a terminal instance starting from
  /// `initial_te` (arity = schema size; null where unknown). Corresponds to
  /// IsCR when initial_te is all-null, and to the candidate-target `check`
  /// when initial_te is complete.
  ChaseOutcome Run(const Tuple& initial_te) const;

  /// Run with the all-null initial template (the paper's (D0, te^{D0})).
  ChaseOutcome RunFromInitial() const;

  /// Same outcome as RunFromInitial(), but served from (and priming) the
  /// shared all-null checkpoint instead of a throwaway run. Callers that
  /// chase first and then check candidates — the pipeline, the CLI —
  /// should use this so the all-null chase runs once, not twice.
  ChaseOutcome RunFromCheckpoint() const;

  /// Candidate-target check (Sec. 3 / 6's `check`): `t` must be complete
  /// and agree with the deduced target on its non-null attributes (callers
  /// guarantee this). True iff (D0, Σ, Im, t) is Church-Rosser and deduces
  /// t itself: te attributes are immutable, so a violation-free
  /// continuation necessarily deduces t. Semantically identical to
  /// Run(t).church_rosser, but resumes from a lazily-prepared checkpoint —
  /// the terminal instance of the all-null chase — instead of replaying
  /// the axiom closure per candidate. Valid because orders and te only
  /// grow monotonically: every violation the from-scratch run would find,
  /// the continuation finds too.
  ///
  /// The engine keeps one long-lived probe state, chases forward in place
  /// and rolls every change back in O(changes) — whether the probe
  /// succeeded or aborted mid-chase on a Church-Rosser violation.
  bool CheckCandidate(const Tuple& t) const;

  /// Shares `other`'s prepared all-null checkpoint with this engine,
  /// building it on `other` first if needed. The checkpoint is a pure
  /// function of (Ie, program, config) and immutable once built, so
  /// engines over the same triple — e.g. AccuracyService's
  /// CheckCandidates slot engines and interaction-session engines — share
  /// one instance by pointer instead of each re-running (or deep-copying)
  /// the all-null chase.
  void AdoptCheckpointFrom(const ChaseEngine& other);

  /// Incremental re-chase (Fig. 3 loop): resumes from the all-null
  /// terminal checkpoint, enforcing the (possibly partial) designated
  /// target values of `extra_te` on top. Produces the same outcome as
  /// Run(extra_te) — validated by tests — while skipping the replay of
  /// everything the all-null chase already derived; the interactive
  /// framework calls this once per user revision.
  ///
  /// The engine keeps a persistent *chase session*: a long-lived state —
  /// separate from CheckCandidate's probe state, so checks and resumes
  /// never disturb each other — holding the terminal instance of the
  /// last successful resume. When `extra_te` extends the session's
  /// applied values (the framework's case: revisions only accumulate),
  /// only the new values are chased in, so the call costs O(changes of
  /// this revision); otherwise the session rolls back to the checkpoint
  /// through its trail and re-chases `extra_te` from there. The outcome
  /// (flag, target, stats, orders when keep_orders) is extracted before
  /// any rollback; a resume that aborts mid-chase rolls back to the last
  /// valid session state.
  ///
  /// Stats are per-call deltas — the work *this call* performed, so
  /// summing them across framework rounds never double-counts the
  /// checkpoint chase (ground_steps stays |Γ|, a program constant).
  /// Consequently a session-extending call may legitimately report
  /// smaller numbers than a resume from the checkpoint would: it
  /// genuinely does less work.
  /// Exception: when the base spec itself is not Church-Rosser, the
  /// failing all-null chase's own stats are reported.
  ChaseOutcome ResumeWith(const Tuple& extra_te) const;

  /// Fills `out` with an image of the all-null checkpoint, building it
  /// first if needed (so this pays the checkpoint chase exactly when
  /// nothing has). Returns out->ok — false means the base specification
  /// is not Church-Rosser and `out` carries the violation instead.
  bool ExportCheckpoint(ChaseCheckpoint* out) const;

  /// Installs a previously exported image as this engine's checkpoint
  /// without chasing: orders are rebuilt from the closed successor
  /// words over this engine's own columns, the step bookkeeping is
  /// adopted verbatim, and subsequent RunFromCheckpoint /
  /// CheckCandidate / ResumeWith behave exactly as if the engine had
  /// chased the checkpoint itself. The image must come from an engine
  /// over the same (Ie, Γ, config) — shape mismatches (attr count, step
  /// count, order matrix sizes, te ids outside the dictionary) are
  /// rejected with kDataLoss and leave the engine unchanged.
  Status ImportCheckpoint(const ChaseCheckpoint& image);

  /// The encoded Ie the engine chases (top-k's BuildSearchSpace reads it).
  const ColumnarRelation& encoded_ie() const { return *ie_; }
  const GroundProgram& program() const { return *program_; }
  const ChaseConfig& config() const { return config_; }

  /// The term dictionary this engine encodes against (ie's).
  const Dictionary& dict() const { return *dict_; }
  Dictionary* mutable_dict() const { return dict_; }

 private:
  struct RunState;

  /// A rollback point on a trail-enabled RunState: positions into the
  /// composite journal (te slots, residual decrements, dead flags), one
  /// PartialOrder::Mark per attribute, and the counters in force. Marks
  /// are positions, so they nest — the session mark sits above the
  /// checkpoint mark, and each probe/resume marks on top of those.
  struct StateMark {
    std::size_t te_set = 0;
    std::size_t remaining_dec = 0;
    std::size_t dead_set = 0;
    std::vector<PartialOrder::Mark> order_marks;
    ChaseStats stats;
    int64_t actions = 0;
  };

  // Builds the all-null terminal checkpoint once; false if the base
  // specification is not Church-Rosser.
  bool EnsureCheckpoint() const;

  // The long-lived mutable state CheckCandidate probes on, created
  // lazily as one copy of the checkpoint (per engine, not per candidate).
  RunState* EnsureProbeState() const;

  // The resume session (see ResumeWith): another long-lived copy of the
  // checkpoint, plus session_te_/session_mark_ tracking the applied
  // prefix, created lazily on the first resume.
  RunState* EnsureSessionState() const;

  // True iff `extra_te` agrees with every designated value the session
  // has already applied — the continuation can then start from the
  // session state instead of the checkpoint.
  bool ExtendsSession(const Tuple& extra_te) const;

  // Phases of Run(), factored so CheckCandidate can resume mid-way.
  bool InitState(RunState* st, const Tuple& initial_te) const;
  bool DrainQueue(RunState* st) const;

  // Continues a prepared (checkpoint-shaped) state with the designated
  // target values of `te`: ApplySetTe per non-null attribute, λ flush,
  // queue drain. Shared by CheckCandidate and ResumeWith.
  bool ContinueWith(RunState* st, const Tuple& te) const;

  // Rollback bracket: MarkState snapshots a rollback point on a
  // trail-enabled state; RollbackTo undoes everything done since (te
  // slots, residual counters, dead flags, queue, dirty lists, order
  // pairs, stats) in O(changes) — valid on success and mid-chase abort
  // alike, because every mutation is journaled as it happens. MarkState
  // fills a caller-owned mark so steady-state brackets allocate nothing.
  void MarkState(const RunState& st, StateMark* mark) const;
  void RollbackTo(RunState* st, const StateMark& mark) const;

  // Provenance of a chase action, for violation messages that name the
  // rules involved and cross-reference the static `relacc lint` checks.
  // Non-negative ids index the specification's rule list (via
  // GroundProgram::rule_names); negatives are the engine's own actions.
  static constexpr int32_t kByDesignated = -1;  ///< designated target value
  static constexpr int32_t kByLambda = -2;      ///< λ greatest-element rule
  static constexpr int32_t kByAxiom = -3;       ///< built-in axiom ϕ7/ϕ8/ϕ9

  // Human-readable name of the rule (or engine action) behind `rule_id`.
  std::string RuleNameOf(int32_t rule_id) const;

  // Applies "insert i ⪯_attr j, close, λ-update" as one action. Returns
  // false on a validity violation (recorded in state). `rule_id` is the
  // provenance of the pair being inserted.
  bool ApplyAddPair(RunState* st, AttrId attr, int i, int j,
                    int32_t rule_id) const;
  // Applies te[attr] := v (an interned id). Returns false on a violation.
  bool ApplySetTe(RunState* st, AttrId attr, TermId v, int32_t rule_id) const;
  // Re-evaluates λ for attributes whose order changed.
  bool FlushLambda(RunState* st) const;

  // One residual predicate of step `s` now holds: decrement its counter
  // (journaled) and queue the step when none is left.
  void Satisfy(RunState* st, int32_t s) const;
  void EmitOrderEvent(RunState* st, AttrId attr, int i, int j) const;
  void EmitTeEvent(RunState* st, AttrId attr, TermId v) const;

  // Aborts when the program's master block interns into another
  // dictionary than dict_ (its keyed watchers would be meaningless).
  void RequireBlockDictionary() const;

  // Second half of construction (columns/value groups are already
  // encoded when it runs): watch lists, residual counters, step te ids.
  void BuildIndex();

  // The ground step behind virtual id `s` and its interned kSetTe payload.
  struct StepRef {
    const GroundStep* step;
    TermId te;
  };
  StepRef StepAt(int32_t s) const;

  // Encodes te ids back into a boundary Tuple, coercing numeric
  // representatives to the schema column type so outcomes carry the
  // boundary values, not the dictionary representatives.
  Tuple MaterializeTe(const std::vector<TermId>& te) const;

  // dict_->value(id).ToString() with null id -> "" (violation messages).
  std::string TermToString(TermId id) const;

  uint64_t OrderKey(AttrId attr, int i, int j) const {
    return (static_cast<uint64_t>(attr) * static_cast<uint64_t>(n_) +
            static_cast<uint64_t>(i)) *
               static_cast<uint64_t>(n_) +
           static_cast<uint64_t>(j);
  }

  const ColumnarRelation* ie_;
  const Schema* schema_;
  /// ie's (caller-owned) term dictionary; columns_, watch constants and
  /// every RunState te slot are ids into it.
  Dictionary* dict_;
  const GroundProgram* program_;
  ChaseConfig config_;
  int n_;
  int num_attrs_;

  /// The program's master block (null for a flat program), and the
  /// virtual numbering over it: per rule r, the first virtual id of its
  /// steps (vstart_) and the number of the program's own steps of rules
  /// before r (local_begin_). Block step b of rule r has virtual id
  /// b + local_begin_[r]; own step k of rule r has k + rule_begin(r).
  const MasterBlock* master_ = nullptr;
  std::vector<int32_t> vstart_;
  std::vector<int32_t> local_begin_;
  std::vector<int> remaining0_;  ///< residual sizes per ground step
  std::vector<int32_t> ready0_;  ///< steps with empty residuals, in order
  std::unordered_map<uint64_t, std::vector<int32_t>> order_watch_;
  /// Per attribute: 1 iff some ground step watches an order pair of it.
  std::vector<char> attr_has_order_watch_;
  /// One entry per residual te-compare: the watching step/predicate plus
  /// the comparison pre-encoded (kEq/kNe run on ids alone; order ops
  /// fall back to the dictionary values).
  struct TeWatch {
    int32_t step;
    int32_t pred;
    CompareOp op;
    TermId constant;
  };
  /// Per attribute: watchers of te[attr] among the program's own steps
  /// (the block keeps its own, keyed by value), by virtual step id.
  std::vector<std::vector<TeWatch>> te_watch_;
  /// kSetTe payloads pre-interned per own step (kNullTermId for
  /// kAddOrder steps), so DrainQueue never touches a Value.
  std::vector<TermId> step_te_;
  /// Dictionary-encoded column per attribute (orders & the ϕ8 anchor).
  std::vector<std::vector<TermId>> columns_;
  /// Per attribute: groups of tuple indices sharing a non-null value, in
  /// first-seen row order — deterministic and independent of the term
  /// ids — plus an id -> group index for the ϕ8 anchor lookup.
  std::vector<std::vector<std::vector<int>>> value_groups_;
  std::vector<std::unordered_map<TermId, int32_t>> value_slot_;

  /// Lazily-built checkpoint for CheckCandidate (terminal all-null state).
  /// Immutable once built and shared by pointer with the engines that
  /// adopt it (AdoptCheckpointFrom).
  mutable std::shared_ptr<const RunState> checkpoint_;
  mutable bool checkpoint_failed_ = false;
  /// Violation + stats of the failed all-null chase (for RunFromCheckpoint).
  mutable std::string checkpoint_violation_;
  mutable ChaseStats checkpoint_failed_stats_;
  /// Probe state; mutated and rolled back by CheckCandidate.
  mutable std::unique_ptr<RunState> probe_state_;
  /// Scratch mark for the per-candidate probe bracket (reused).
  mutable StateMark probe_mark_;
  /// Resume session (ResumeWith): state, applied designated
  /// values (interned; kNullTermId = unset), and the rollback points at
  /// the checkpoint and at the end of the applied prefix.
  mutable std::unique_ptr<RunState> session_state_;
  mutable std::vector<TermId> session_te_;
  mutable StateMark session_base_;
  mutable StateMark session_mark_;
};

/// Convenience wrapper: grounds `spec` and runs IsCR (Fig. 4), returning
/// the unique terminal instance when spec is Church-Rosser.
ChaseOutcome IsCR(const Specification& spec);

}  // namespace relacc

#endif  // RELACC_CHASE_CHASE_ENGINE_H_
