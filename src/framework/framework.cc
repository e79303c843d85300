#include "framework/framework.h"

#include <utility>

#include "api/accuracy_service.h"

namespace relacc {

UserOracle::Response SimulatedUser::Inspect(
    const Tuple& deduced_te, const std::vector<Tuple>& candidates) {
  Response r;
  for (int i = 0; i < static_cast<int>(candidates.size()); ++i) {
    if (candidates[i] == truth_) {
      r.accepted_candidate = i;
      return r;
    }
  }
  // Reveal the true value of the first still-null attribute (Exp-3 picks
  // one at random; a deterministic pick keeps runs reproducible and is
  // statistically equivalent under our generators' symmetric noise).
  for (AttrId a = 0; a < deduced_te.size(); ++a) {
    if (deduced_te.at(a).is_null() && !truth_.at(a).is_null()) {
      ++revisions_;
      r.revision = {a, truth_.at(a)};
      return r;
    }
  }
  return r;  // nothing to reveal: give up
}

FrameworkResult DriveInteraction(InteractionSession& session,
                                 UserOracle* user, int max_rounds) {
  FrameworkResult result;
  for (int round = 0; round <= max_rounds; ++round) {
    Result<Suggestion> suggested = session.Suggest();
    if (!suggested.ok()) {
      // Finished or otherwise unusable session; report what we have.
      result.interaction_rounds = round;
      return result;
    }
    const Suggestion& s = suggested.value();
    if (!s.church_rosser) {
      // Step (4) "No" branch: a real deployment asks the user to revise Σ;
      // the driver has no rule editing, so report failure.
      result.church_rosser = false;
      result.interaction_rounds = round;
      return result;
    }
    result.church_rosser = true;
    if (round == 0) {
      result.automatic_attrs =
          s.deduced_target.size() - s.deduced_target.NullCount();
    }
    if (s.complete) {
      result.found_complete_target = true;
      result.target = s.deduced_target;
      result.interaction_rounds = round;
      return result;
    }
    result.last_topk = s.candidates;
    const UserOracle::Response resp =
        user->Inspect(s.deduced_target, s.candidates.targets);
    if (resp.accepted_candidate.has_value()) {
      Result<Tuple> accepted = session.Accept(*resp.accepted_candidate);
      result.interaction_rounds = round;
      if (accepted.ok()) {
        result.found_complete_target = true;
        result.target = std::move(accepted).value();
      } else {
        result.target = s.deduced_target;  // oracle pointed out of range
      }
      return result;
    }
    if (!resp.revision.has_value()) {
      result.target = s.deduced_target;
      result.interaction_rounds = round;
      return result;  // user gave up; return the partial target
    }
    const Status revised =
        session.Revise(resp.revision->first, resp.revision->second);
    if (!revised.ok()) {
      result.target = s.deduced_target;
      result.interaction_rounds = round;
      return result;  // oracle produced an unusable revision
    }
  }
  result.interaction_rounds = max_rounds;
  return result;
}

}  // namespace relacc
