#ifndef RELACC_FRAMEWORK_FRAMEWORK_H_
#define RELACC_FRAMEWORK_FRAMEWORK_H_

#include <functional>
#include <optional>
#include <vector>

#include "chase/chase_engine.h"
#include "chase/specification.h"
#include "topk/topk_ct.h"

namespace relacc {

/// The user side of the Fig. 3 loop. Given the current (incomplete) target
/// and the suggested top-k candidates, the user either picks a candidate,
/// or supplies the accurate value for one null attribute (revising S), or
/// gives up for this round.
class UserOracle {
 public:
  virtual ~UserOracle() = default;

  struct Response {
    /// Candidate index the user accepted, or nullopt.
    std::optional<int> accepted_candidate;
    /// Otherwise: a (attribute, value) revision for the target template.
    std::optional<std::pair<AttrId, Value>> revision;
  };

  virtual Response Inspect(const Tuple& deduced_te,
                           const std::vector<Tuple>& candidates) = 0;
};

/// Simulates the Exp-3 protocol: accepts a candidate iff it equals the
/// ground-truth tuple; otherwise reveals the true value of one
/// (deterministically chosen) null attribute of te per round.
class SimulatedUser : public UserOracle {
 public:
  explicit SimulatedUser(Tuple ground_truth)
      : truth_(std::move(ground_truth)) {}

  Response Inspect(const Tuple& deduced_te,
                   const std::vector<Tuple>& candidates) override;

  int revisions_made() const { return revisions_; }

 private:
  Tuple truth_;
  int revisions_ = 0;
};

/// Outcome of the interactive framework.
struct FrameworkResult {
  bool church_rosser = false;
  bool found_complete_target = false;
  Tuple target;                     ///< final target (complete on success)
  int interaction_rounds = 0;       ///< user revisions performed (h of Exp-3)
  int automatic_attrs = 0;          ///< attrs deduced before any interaction
  TopKResult last_topk;             ///< candidates of the final round
};

class InteractionSession;  // api/accuracy_service.h

/// The deducing framework of Fig. 3, driving an AccuracyService
/// interaction session with a UserOracle: Suggest (check Church-Rosser,
/// chase to the deduced target, rank top-k candidates when it is
/// incomplete); on an incomplete target consult the user; Accept an
/// approved candidate or fold the revealed value back via Revise; stop
/// after `max_rounds` revisions. The adapter between callback-style
/// oracles (SimulatedUser, the CLI console) and the session API.
/// `interaction_rounds` counts the revisions made before the loop
/// stopped, including when a revision turns the session
/// non-Church-Rosser.
FrameworkResult DriveInteraction(InteractionSession& session,
                                 UserOracle* user, int max_rounds = 32);

}  // namespace relacc

#endif  // RELACC_FRAMEWORK_FRAMEWORK_H_
