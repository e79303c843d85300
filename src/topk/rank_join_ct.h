#ifndef RELACC_TOPK_RANK_JOIN_CT_H_
#define RELACC_TOPK_RANK_JOIN_CT_H_

#include "topk/topk_ct.h"

namespace relacc {

/// Algorithm RankJoinCT (Sec. 6.1): extends top-k rank-join processing
/// [21, 26] to the candidate-target problem. Sorts the active domain of
/// every null attribute of `deduced_te` into a ranked list, joins the lists
/// with a left-deep HRJN tree, and checks every join result in output
/// order until k candidate targets pass.
///
/// Exact, early-terminating (Prop. 6), but — as the paper observes — it
/// must sort the domains up front and invokes `check` on every join result
/// in score order, so TopKCT dominates it in practice (Exp-4).
TopKResult RankJoinCT(const ChaseEngine& engine, const MasterDomains& masters,
                      const Tuple& deduced_te, const PreferenceModel& pref,
                      int k, const TopKOptions& opts = {});

}  // namespace relacc

#endif  // RELACC_TOPK_RANK_JOIN_CT_H_
