#include "topk/batch_check.h"

#include <algorithm>

#include "topk/preference.h"

namespace relacc {

CandidateChecker::CandidateChecker(const ChaseEngine& prototype,
                                   int num_threads)
    : prototype_(&prototype), num_threads_(std::max(1, num_threads)) {}

CandidateChecker::~CandidateChecker() = default;

void CandidateChecker::EnsureWorkers() const {
  if (pool_ != nullptr) return;
  pool_ = std::make_unique<ThreadPool>(num_threads_);
  engines_.reserve(num_threads_);
  for (int w = 0; w < num_threads_; ++w) {
    // Workers read the prototype's encoded Ie, so they share its
    // dictionary: the adopted checkpoint below carries TermId-encoded
    // state, and ids are only meaningful within one dictionary.
    auto engine = std::make_unique<ChaseEngine>(prototype_->encoded_ie(),
                                                &prototype_->program(),
                                                prototype_->config());
    // The checkpoint is the dominant per-engine setup cost; adopting the
    // prototype's shares it by pointer (it is immutable once built)
    // instead of re-running the all-null chase per worker. Each worker
    // engine then grows its own long-lived probe state from it — marked
    // and rolled back per candidate — so the per-candidate cost is
    // O(changes), not O(state copy).
    engine->AdoptCheckpointFrom(*prototype_);
    engines_.push_back(std::move(engine));
  }
}

std::vector<char> CandidateChecker::CheckAll(
    const std::vector<Tuple>& candidates) const {
  std::vector<char> verdicts(candidates.size(), 0);
  // Checks are pure per candidate, so the inline path and the pooled path
  // produce identical verdict vectors. Only single-candidate batches skip
  // the pool (nothing to overlap); ParallelForSlots never hands out more
  // slots than candidates, so small batches still fan out.
  if (num_threads_ == 1 || candidates.size() <= 1) {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      verdicts[i] = prototype_->CheckCandidate(candidates[i]) ? 1 : 0;
    }
    return verdicts;
  }
  EnsureWorkers();
  pool_->ParallelForSlots(
      static_cast<int64_t>(candidates.size()), [&](int slot, int64_t i) {
        verdicts[i] = engines_[slot]->CheckCandidate(candidates[i]) ? 1 : 0;
      });
  return verdicts;
}

std::vector<Tuple> EnumerateCandidateProduct(
    const ColumnarRelation& ie, const MasterDomains& masters,
    const Tuple& te, bool include_default_values, std::size_t limit) {
  std::vector<Tuple> out;
  // Unweighted: the default model scores every value 0.
  ForEachCompletion(BuildSearchSpace(ie, masters, te, PreferenceModel(),
                                     include_default_values),
                    te, 0.0, [&](Tuple t, double) {
                      if (out.size() >= limit) return false;
                      out.push_back(std::move(t));
                      return true;
                    });
  return out;
}

}  // namespace relacc
