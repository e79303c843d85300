#ifndef RELACC_CHASE_EXPLAIN_H_
#define RELACC_CHASE_EXPLAIN_H_

#include <optional>
#include <string>
#include <vector>

#include "chase/specification.h"
#include "core/relation.h"
#include "rules/grounding.h"

namespace relacc {

/// A fact derived by the chase: either an accuracy-order pair
/// ti ⪯_attr tj or a target-template instantiation te[attr] = v.
struct ChaseFact {
  enum class Kind { kOrderPair, kTeValue };

  Kind kind = Kind::kOrderPair;
  AttrId attr = -1;
  int i = -1;  ///< kOrderPair only
  int j = -1;
  Value te_value;  ///< kTeValue only
};

/// How a fact was derived.
enum class DerivationVia {
  kRule,          ///< a ground instance of an AR fired
  kTransitivity,  ///< closure of the partial order
  kLambda,        ///< λ: greatest element of ⪯_attr instantiates te[attr]
};

/// One node of the derivation DAG. Premises point at earlier derivations
/// (indices into ExplainedChase::derivations()), so the graph is acyclic by
/// construction.
struct Derivation {
  ChaseFact fact;
  DerivationVia via = DerivationVia::kRule;
  std::string rule_name;  ///< kRule only; the AR that fired
  std::vector<int> premises;
};

/// A chase run that records *why* each order pair and target value was
/// derived, yielding human-readable proof trees ("why is 772 the most
/// accurate totalPts?"). It re-runs the chase naively — O(|Γ|·facts) rather
/// than the indexed engine of chase_engine.h — because explanation is an
/// interactive, per-entity operation where clarity beats throughput; tests
/// cross-validate its verdict and target against ChaseEngine.
///
/// The built-in axioms ϕ7–ϕ9 are expanded declaratively (rules/axioms.h) so
/// axiom applications are first-class, nameable derivation steps.
class ExplainedChase {
 public:
  explicit ExplainedChase(const Specification& spec);

  /// Same verdict as IsCR(spec).
  bool church_rosser() const { return church_rosser_; }
  /// Description of the first violation when not Church-Rosser.
  const std::string& violation() const { return violation_; }
  /// The deduced target tuple (meaningless unless church_rosser()).
  const Tuple& target() const { return target_; }

  /// All derivations, in application order.
  const std::vector<Derivation>& derivations() const { return derivations_; }

  /// Index of the derivation that set te[attr], if the chase deduced it.
  std::optional<int> FindTeDerivation(AttrId attr) const;

  /// Index of the derivation of ti ⪯_attr tj, if derived.
  std::optional<int> FindPairDerivation(AttrId attr, int i, int j) const;

  /// Renders the proof tree rooted at `derivation_index` as indented text.
  /// Sub-proofs deeper than `max_depth` are elided with "…"; a premise
  /// already printed in the current tree is referenced, not re-expanded.
  std::string Explain(int derivation_index, int max_depth = 12) const;

  /// Convenience: proof tree for te[attr], or a note that it was not
  /// deduced.
  std::string ExplainTarget(AttrId attr) const;

  /// One-line rendering of a fact, e.g. `t1 <= t2 on [rnds]  {16 <= 27}` or
  /// `te[MN] = "Jeffrey"`.
  std::string FactToString(const ChaseFact& fact) const;

 private:
  struct AttrState;

  void Run(const Specification& spec);
  bool ApplyAddPair(AttrId attr, int i, int j, DerivationVia via,
                    const std::string& rule, std::vector<int> premises);
  bool ApplySetTe(AttrId attr, const Value& v, DerivationVia via,
                  const std::string& rule, std::vector<int> premises);
  bool UpdateLambda(AttrId attr);
  int Record(Derivation d);

  Schema schema_;
  Relation ie_;
  bool church_rosser_ = true;
  std::string violation_;
  Tuple target_;
  std::vector<Derivation> derivations_;

  int n_ = 0;
  /// Per attribute: closure bit matrix (n*n, row-major, reach_[a][i*n+j] =
  /// ti ⪯_a tj) and the derivation index of each pair; te derivation index.
  std::vector<std::vector<char>> reach_;
  std::vector<std::vector<int>> pair_derivation_;
  std::vector<int> te_derivation_;
};

/// The naive oracle's own grounder: procedure Instantiation evaluated on
/// Values, straight off the tuples, returning the flat program (every
/// step in `steps`, no block). ExplainedChase walks it; tests compare the
/// dictionary-encoded Instantiate (rules/grounding.h) against it step for
/// step. The form-(2) steps come from a private MasterBlock, whose
/// grounding reads master tuples as Values already.
GroundProgram ReferenceInstantiate(const Relation& ie,
                                   const std::vector<Relation>& masters,
                                   const std::vector<AccuracyRule>& rules);

}  // namespace relacc

#endif  // RELACC_CHASE_EXPLAIN_H_
