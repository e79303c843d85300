#include "topk/rank_join_ct.h"

#include <utility>

#include "topk/rank_join.h"

namespace relacc {

TopKResult RankJoinCT(const ChaseEngine& engine, const MasterDomains& masters,
                      const Tuple& deduced_te, const PreferenceModel& pref,
                      int k, const TopKOptions& opts) {
  TopKResult result;
  if (k <= 0) return result;

  // Ranked lists Li: the active domains of te's null attributes, sorted
  // up front — the cost RankJoinCT pays that TopKCT avoids.
  SearchSpace space =
      BuildSearchSpace(engine.encoded_ie(), masters, deduced_te, pref,
                       opts.include_default_values);
  for (WeightedDomain& list : space.domains) {
    if (list.empty()) return result;  // no candidate can exist
    SortByDescendingWeight(&list);
  }

  // A complete te is its own sole candidate, which TopKCT checks.
  if (space.z.empty()) {
    return TopKCT(engine, masters, deduced_te, pref, k, opts);
  }
  const double base_score = pref.Score(deduced_te);
  const std::vector<AttrId>& z = space.z;

  // Consume join results in output order, checking each one.
  std::unique_ptr<RankedStream> stream =
      BuildRankJoinTree(std::move(space.domains));
  RunAcceptLoop(
      // RankedStream has no non-consuming peek: the budget is checked
      // before Next(), so budget-first semantics.
      &engine, opts, k, [] { return true; },
      [&](Tuple* t, double* score) {
        auto row = stream->Next();
        if (!row.has_value()) return false;
        *t = deduced_te;
        for (std::size_t i = 0; i < z.size(); ++i) {
          t->set(z[i], row->values[i]);
        }
        *score = base_score + row->score;
        return true;
      },
      &result);
  return result;
}

}  // namespace relacc
