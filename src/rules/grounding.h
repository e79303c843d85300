#ifndef RELACC_RULES_GROUNDING_H_
#define RELACC_RULES_GROUNDING_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/dictionary.h"
#include "core/relation.h"
#include "rules/accuracy_rule.h"

namespace relacc {

class ColumnarRelation;  // core/columnar.h

/// A residual conjunct of a ground step (procedure Instantiation, Sec. 5):
/// every predicate that could be evaluated against constants has been
/// folded away; only order predicates and target-template predicates
/// remain, both of which become satisfiable as the chase proceeds.
struct GroundPredicate {
  enum class Kind {
    kOrderPair,  ///< ti ⪯_attr tj derived (strictness resolved at ground time)
    kTeCompare,  ///< te[attr] op constant; evaluable once te[attr] is set
  };

  Kind kind = Kind::kOrderPair;
  AttrId attr = -1;
  int i = -1;
  int j = -1;
  CompareOp op = CompareOp::kEq;
  Value constant;
};

/// A possible single chase step φ ∈ Γ: once the residual LHS is satisfied,
/// enforce the conclusion (extend a partial order or instantiate te).
struct GroundStep {
  enum class Kind { kAddOrder, kSetTe };

  Kind kind = Kind::kAddOrder;
  AttrId attr = -1;
  int i = -1;              ///< kAddOrder: ti ⪯_attr tj
  int j = -1;
  Value te_value;          ///< kSetTe: te[attr] := te_value
  std::vector<GroundPredicate> residual;
  int rule_id = -1;        ///< index into the specification's rule list
};

class MasterBlock;

/// Output of Instantiation: the ground step set Γ plus sizing facts needed
/// to build the chase index H. Built once per entity instance and shared
/// across chase runs (the top-k `check` re-runs the chase many times with
/// different initial targets over the same Γ).
///
/// Γ is split by rule form. `steps` holds the entity's own steps — the
/// form-(1) pair steps — and `master` the form-(2) steps, which depend
/// only on the rules and the master tuples and are therefore grounded
/// once and shared by every entity of a service (see MasterBlock). Step
/// ids are *virtual*: they run over the rules in rule order, each rule
/// contributing its steps from `steps` or from the block, so a step's id
/// is its index in Materialize().steps — the flat program serial
/// Instantiation emits. A program without a block (the snapshot reader's,
/// or a Materialize() result) is the same thing with every step in
/// `steps`.
struct GroundProgram {
  std::vector<GroundStep> steps;
  std::shared_ptr<const MasterBlock> master;
  int num_tuples = 0;
  int num_attrs = 0;
  /// Rule names by rule_id (parallel to the specification's rule list),
  /// so chase violations can name the rules whose steps conflicted and
  /// cross-reference the static `relacc lint` checks.
  std::vector<std::string> rule_names;

  /// |Γ|: the entity's own steps plus the block's.
  std::size_t size() const;

  /// Invokes fn(step) for every step of Γ in virtual-id order.
  template <typename Fn>
  void ForEachStep(Fn&& fn) const;

  /// The flat program: every step of Γ in `steps`, in virtual-id order,
  /// and no block.
  GroundProgram Materialize() const;
};

/// The form-(2) part of Γ, grounded once per rule set and master set and
/// shared read-only by every program (and engine) built over it — the
/// master-side analogue of a rule engine's read-only EDB layer. It holds
/// every form-(2) step in serial emission order (rule, master row,
/// assignment), with the kSetTe payloads and residual constants interned
/// into one dictionary, and its te-watchers keyed by (attr, TermId).
/// GroundMasterRule only emits `te[A] = c` residuals, so a watcher holds
/// exactly when te[A] is set to its key's value; every other value leaves
/// it untouched. The block also holds the rule constants the form-(1)
/// pair loop compares against, interned once here instead of once per
/// entity.
///
/// Every engine over a block-backed program must intern into the block's
/// dictionary (ChaseEngine enforces it). Blocks are immutable and only
/// handed out by Build, so a program can share ownership of its block.
class MasterBlock : public std::enable_shared_from_this<MasterBlock> {
 public:
  /// A te-watcher: block step `step` (of rule `rule`) waits on a value.
  struct Watch {
    int32_t step;
    int32_t rule;
  };

  /// Grounds every form-(2) rule of `rules` against its master relation,
  /// on the calling thread, in rule then master-row order. Rules
  /// referencing an absent master contribute no steps. Payloads and
  /// residual constants are interned in step order, then every rule's
  /// kAttrConst constants in rule and conjunct order, so term ids are a
  /// function of the inputs alone.
  static std::shared_ptr<const MasterBlock> Build(
      const std::vector<Relation>& masters,
      const std::vector<AccuracyRule>& rules, std::shared_ptr<Dictionary> dict);

  const std::vector<GroundStep>& steps() const { return steps_; }
  /// Size of the rule list the block was built from.
  int num_rules() const { return static_cast<int>(rule_begin_.size()) - 1; }
  /// Block steps of rule r are [rule_begin(r), rule_begin(r + 1)).
  int32_t rule_begin(int rule) const { return rule_begin_[rule]; }
  Dictionary* dict() const { return dict_.get(); }
  /// Interned kSetTe payload of block step `step`.
  TermId step_te(int32_t step) const { return step_te_[step]; }
  /// Residual size of each block step (the chase's initial counters).
  const std::vector<int32_t>& residual_sizes() const { return residual_size_; }
  /// Watchers of te[attr] = v in block-step order (empty when none).
  std::span<const Watch> Watchers(AttrId attr, TermId v) const;
  /// Interned constants of rule `rule`'s lhs conjuncts: entry k is the
  /// k-th conjunct's kAttrConst constant, kNullTermId where it has none.
  const std::vector<TermId>& rule_constants(int rule) const {
    return rule_constants_[rule];
  }

 private:
  explicit MasterBlock(std::shared_ptr<Dictionary> dict);

  std::shared_ptr<Dictionary> dict_;
  std::vector<GroundStep> steps_;
  std::vector<int32_t> rule_begin_;
  std::vector<TermId> step_te_;
  std::vector<int32_t> residual_size_;
  /// The keyed watch index, flat: the watchers of the key in slot k are
  /// watches_[watch_begin_[k], watch_begin_[k + 1]).
  std::unordered_map<uint64_t, uint32_t> watch_slot_;
  std::vector<uint32_t> watch_begin_;
  std::vector<Watch> watches_;
  std::vector<std::vector<TermId>> rule_constants_;
};

template <typename Fn>
void GroundProgram::ForEachStep(Fn&& fn) const {
  // Both lists are sorted by rule id and no rule has steps in both, so a
  // merge on rule id yields the virtual order.
  const std::span<const GroundStep> block =
      master ? std::span<const GroundStep>(master->steps())
             : std::span<const GroundStep>();
  std::size_t k = 0;
  std::size_t b = 0;
  while (k < steps.size() || b < block.size()) {
    if (b == block.size() ||
        (k < steps.size() && steps[k].rule_id <= block[b].rule_id)) {
      fn(steps[k++]);
    } else {
      fn(block[b++]);
    }
  }
}

/// Structural equality, field for field in step order (tests assert
/// step-by-step identity between the TermId grounder and the naive
/// oracle's reference grounder, and between block-backed and flat
/// programs). Programs compare as materialized: a block-backed program
/// equals its Materialize() twin and the snapshot reader's flat copy.
/// Value equality treats null == null as true, so residual constants
/// compare as stored.
bool operator==(const GroundPredicate& a, const GroundPredicate& b);
inline bool operator!=(const GroundPredicate& a, const GroundPredicate& b) {
  return !(a == b);
}
bool operator==(const GroundStep& a, const GroundStep& b);
inline bool operator!=(const GroundStep& a, const GroundStep& b) {
  return !(a == b);
}
bool operator==(const GroundProgram& a, const GroundProgram& b);
inline bool operator!=(const GroundProgram& a, const GroundProgram& b) {
  return !(a == b);
}

/// Procedure Instantiation (Sec. 5, Fig. 4 line 1): partially evaluates
/// every rule against every ordered tuple pair of `ie` (form 1) / every
/// master tuple (form 2). Steps whose LHS is already false are dropped.
/// Grounding is serial and runs on the calling thread; parallelism is
/// across entities (the pipeline window grounds its entities
/// concurrently).
///
/// The entity is dictionary-encoded: every constant conjunct whose
/// operator is an equality is decided by TermId comparison (id equality
/// == value equality by the interning contract, nulls included); order
/// comparisons fall back to the dictionary values, whose cross-type
/// numeric Compare agrees with the schema-typed values. Residual
/// constants lifted out of tuples (kAttrTe) are materialized with the
/// schema column type, so the program is step-for-step identical
/// (operator== above) to the naive oracle's Value-level
/// ReferenceInstantiate (chase/explain.h) — enforced by tests. Rule
/// constants come pre-interned from the block, so Instantiate interns
/// nothing.
///
/// Cost. The form-(2) half is O(|Σ₂|·|Im|) and does not depend on the
/// entity: a service builds its MasterBlock once and pays it once, not
/// per entity. Per entity, grounding is O(|Σ₁|·|Ie|²) over the pair
/// rules, and the chase touches a master step only when a te value its
/// residual waits on is set (its keyed watcher) — so beyond the pair
/// rules an entity costs the master steps that actually fire, plus
/// O(|Γ|) dense per-run counters.
///
/// This overload grounds the pair rules of `rules` against `ie` and
/// shares `block` (built from the same rule list, interning into ie's
/// dictionary) for the rest.
GroundProgram Instantiate(const ColumnarRelation& ie, const MasterBlock& block,
                          const std::vector<AccuracyRule>& rules);

/// Instantiation against a private block built from `masters`, interning
/// into ie's dictionary (which must therefore outlive the program, as it
/// must outlive `ie`). It pays the O(|Σ₂|·|Im|) half on every call; reuse
/// a block to avoid that.
GroundProgram Instantiate(const ColumnarRelation& ie,
                          const std::vector<Relation>& masters,
                          const std::vector<AccuracyRule>& rules);

}  // namespace relacc

#endif  // RELACC_RULES_GROUNDING_H_
