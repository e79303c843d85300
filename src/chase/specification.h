#ifndef RELACC_CHASE_SPECIFICATION_H_
#define RELACC_CHASE_SPECIFICATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/relation.h"
#include "order/partial_order.h"
#include "rules/accuracy_rule.h"

namespace relacc {

/// Tuning knobs of the chase.
struct ChaseConfig {
  /// Handle the axioms ϕ7 (null lowest), ϕ8 (te anchor) and ϕ9 (equality)
  /// natively instead of requiring them in Σ. Grounding ϕ8 declaratively
  /// costs O(|Ie|²·n) ground steps; the native path is behaviourally
  /// equivalent (cross-validated in tests) and linear-ish.
  bool builtin_axioms = true;

  /// Keep the per-attribute partial orders in the outcome (they are sized
  /// O(n²) bits per attribute; top-k `check` runs don't need them).
  bool keep_orders = false;

  /// Safety valve on internal actions; -1 = unbounded. The chase provably
  /// terminates (Prop. 1), so this only guards against implementation bugs.
  int64_t max_actions = -1;
};

/// A specification S = (D0, Σ, Im, te^{D0}) of an entity (Sec. 2.2):
/// the entity instance, the master relations (index 0 is "the" Im; constant
/// CFDs compile to additional single-purpose master relations), and the ARs.
/// The initial target template is supplied per chase run.
struct Specification {
  Relation ie;
  std::vector<Relation> masters;
  std::vector<AccuracyRule> rules;
  ChaseConfig config;
};

/// Counters reported by a chase run.
struct ChaseStats {
  int64_t ground_steps = 0;    ///< |Γ| after Instantiation
  int64_t steps_applied = 0;   ///< chase steps that changed the instance
  int64_t pairs_derived = 0;   ///< ⪯ pairs added across all attributes
};

/// Result of a chase / IsCR run. When `church_rosser` is false the chase
/// found an invalid step (conflicting orders or an overwrite of a non-null
/// target attribute); `violation` describes it and `target` is meaningless
/// (the paper's IsCR returns nil).
struct ChaseOutcome {
  bool church_rosser = false;
  Tuple target;
  std::vector<PartialOrder> orders;  ///< per attribute, iff keep_orders
  ChaseStats stats;
  std::string violation;
};

}  // namespace relacc

#endif  // RELACC_CHASE_SPECIFICATION_H_
