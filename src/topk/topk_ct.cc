#include "topk/topk_ct.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "topk/pairing_heap.h"
#include "topk/value_heap.h"

namespace relacc {
namespace {

/// TopKCTh's greedy repair tries at most this many replacement values per
/// attribute per seed (the heuristic trades completeness for time,
/// Sec. 6.3).
constexpr int kMaxRepairValues = 4;

/// The search object o of Fig. 5: indices into the per-attribute buffers
/// Bi, plus the score o.w. The concrete tuple o.t is materialized lazily.
struct Obj {
  std::vector<int32_t> p;
  double w = 0.0;
};

struct ObjLess {
  bool operator()(const Obj& a, const Obj& b) const {
    if (a.w != b.w) return a.w < b.w;
    // Deterministic tie-break: lexicographically smaller index vector wins.
    return b.p < a.p;
  }
};

struct IndexVectorHash {
  std::size_t operator()(const std::vector<int32_t>& v) const {
    std::size_t h = 0x9e3779b97f4a7c15ULL;
    for (int32_t x : v) {
      h ^= static_cast<std::size_t>(x) + 0x9e3779b97f4a7c15ULL + (h << 6) +
           (h >> 2);
    }
    return h;
  }
};

Tuple Materialize(const Tuple& te, const SearchSpace& space,
                  const std::vector<WeightedDomain>& b, const Obj& o) {
  Tuple t = te;
  for (std::size_t i = 0; i < space.z.size(); ++i) {
    t.set(space.z[i], b[i][o.p[i]].first);
  }
  return t;
}

}  // namespace

void RunBatchedAcceptLoop(const CandidateChecker* checker,
                          const TopKOptions& opts, int k,
                          const std::function<bool()>& has_more,
                          const std::function<bool(Tuple*, double*)>& produce,
                          TopKResult* result) {
  std::vector<Tuple> batch;
  std::vector<double> batch_scores;
  bool done = false;
  while (static_cast<int>(result->targets.size()) < k && !done) {
    const int round_cap =
        checker == nullptr
            ? 1
            : checker->RoundCap(k - static_cast<int>(result->targets.size()));
    batch.clear();
    batch_scores.clear();
    bool budget_hit = false;
    while (static_cast<int>(batch.size()) < round_cap) {
      if (opts.max_expansions >= 0 &&
          result->queue_pops >= opts.max_expansions) {
        if (!has_more()) {
          done = true;  // space ran out at the boundary: not a budget stop
        } else {
          budget_hit = true;
        }
        break;
      }
      Tuple t;
      double score = 0.0;
      if (!produce(&t, &score)) {
        done = true;
        break;
      }
      ++result->queue_pops;
      batch.push_back(std::move(t));
      batch_scores.push_back(score);
    }
    result->checks += static_cast<int64_t>(batch.size());
    const std::vector<char> verdicts =
        checker == nullptr ? std::vector<char>(batch.size(), 1)
                           : checker->CheckAll(batch);
    for (std::size_t i = 0;
         i < batch.size() && static_cast<int>(result->targets.size()) < k;
         ++i) {
      if (!verdicts[i]) continue;
      result->targets.push_back(std::move(batch[i]));
      result->scores.push_back(batch_scores[i]);
    }
    if (budget_hit && static_cast<int>(result->targets.size()) < k) {
      result->exhausted_budget = true;
      break;
    }
  }
}

namespace {

/// TopKCT over a built search space (TopKCTh's seed phase reuses the
/// space it repairs over, with a null `checker`: unchecked). k >= 1.
TopKResult BestFirstSearch(const CandidateChecker* checker,
                           const SearchSpace& space, const Tuple& deduced_te,
                           const PreferenceModel& pref, int k,
                           const TopKOptions& opts) {
  TopKResult result;
  const std::size_t m = space.z.size();
  const double base_score = pref.Score(deduced_te);

  if (m == 0) {
    // te is already complete; it is its own (sole) candidate target.
    ++result.checks;
    if (checker == nullptr || checker->CheckAll({deduced_te})[0] != 0) {
      result.targets.push_back(deduced_te);
      result.scores.push_back(base_score);
    }
    return result;
  }

  // Heaps Hi over the active domains; buffers Bi of popped values (Fig. 5
  // lines 2, 10-11). An empty domain means no candidate target can exist.
  std::vector<ValueHeap> heaps;
  heaps.reserve(m);
  std::vector<WeightedDomain> buffers(m);
  for (std::size_t i = 0; i < m; ++i) {
    if (space.domains[i].empty()) return result;
    heaps.emplace_back(space.domains[i]);
    buffers[i].push_back(heaps[i].Pop());
  }

  PairingHeap<Obj, ObjLess> queue;
  std::unordered_set<std::vector<int32_t>, IndexVectorHash> seen;
  {
    Obj o;
    o.p.assign(m, 0);
    o.w = base_score;
    for (std::size_t i = 0; i < m; ++i) o.w += buffers[i][0].second;
    seen.insert(o.p);
    queue.Push(std::move(o));
  }

  // Pop and expand in the exact sequential best-first order (Fig. 5 lines
  // 10-15); only the `check` is deferred and batched.
  RunBatchedAcceptLoop(
      checker, opts, k, [&] { return !queue.empty(); },
      [&](Tuple* t, double* score) {
        if (queue.empty()) return false;
        const Obj o = queue.Pop();
        *score = o.w;
        *t = Materialize(deduced_te, space, buffers, o);
        // Expand: successors differing from o in exactly one attribute,
        // taking the next-best value of that attribute.
        for (std::size_t i = 0; i < m; ++i) {
          const std::size_t next = static_cast<std::size_t>(o.p[i]) + 1;
          if (next >= buffers[i].size()) {
            if (heaps[i].empty()) continue;  // domain exhausted in dim i
            buffers[i].push_back(heaps[i].Pop());
          }
          Obj succ = o;
          succ.p[i] = static_cast<int32_t>(next);
          succ.w = o.w - buffers[i][o.p[i]].second + buffers[i][next].second;
          if (seen.insert(succ.p).second) queue.Push(std::move(succ));
        }
        return true;
      },
      &result);
  for (const ValueHeap& h : heaps) result.heap_pops += h.pops();
  return result;
}

}  // namespace

TopKResult TopKCT(const CandidateChecker& checker,
                  const MasterDomains& masters,
                  const Tuple& deduced_te, const PreferenceModel& pref, int k,
                  const TopKOptions& opts) {
  if (k <= 0) return {};
  return BestFirstSearch(
      &checker,
      BuildSearchSpace(checker.prototype().encoded_ie(), masters, deduced_te,
                       pref, opts.include_default_values),
      deduced_te, pref, k, opts);
}

TopKResult TopKCTh(const CandidateChecker& checker,
                   const MasterDomains& masters,
                   const Tuple& deduced_te, const PreferenceModel& pref,
                   int k, const TopKOptions& opts) {
  TopKResult result;
  if (k <= 0) return result;
  const SearchSpace space =
      BuildSearchSpace(checker.prototype().encoded_ie(), masters, deduced_te,
                       pref, opts.include_default_values);
  // Phase 1: k unvalidated seeds (TopKCT without the check step).
  const TopKResult seeds =
      BestFirstSearch(nullptr, space, deduced_te, pref, k, opts);
  result.queue_pops = seeds.queue_pops;
  result.heap_pops = seeds.heap_pops;

  // A seed needs exactly one accept, so rounds never speculate past the
  // pool width.
  const int round_cap = checker.RoundCap(1);

  auto is_dup = [&](const Tuple& t) {
    for (const Tuple& prev : result.targets) {
      if (prev == t) return true;  // dedup revised seeds
    }
    return false;
  };

  // With a pool, check all seeds in one parallel round up front: verdicts
  // are pure per candidate, so replaying the accept/repair decisions in
  // seed order below gives the same ranked output as checking one seed at
  // a time (only the checks counter sees the speculation).
  std::vector<char> seed_verdicts;
  if (checker.num_threads() > 1 && seeds.targets.size() > 1) {
    seed_verdicts = checker.CheckAll(seeds.targets);
    result.checks += static_cast<int64_t>(seeds.targets.size());
  }

  for (std::size_t s = 0; s < seeds.targets.size() &&
                          static_cast<int>(result.targets.size()) < k;
       ++s) {
    const Tuple& t = seeds.targets[s];
    if (!is_dup(t)) {
      bool pass;
      if (seed_verdicts.empty()) {
        ++result.checks;
        pass = checker.CheckAll({t})[0] != 0;
      } else {
        pass = seed_verdicts[s] != 0;
      }
      if (pass) {
        result.targets.push_back(t);
        result.scores.push_back(seeds.scores[s]);
        continue;
      }
    }
    // Phase 2: greedy repair — revisit each null attribute in turn and try
    // the remaining active-domain values in weight order until the check
    // passes (Sec. 6.3). At most O(m · |dom|) checks per seed. Revisions
    // are generated lazily, one round_cap-sized batch at a time (later
    // domains are never even sorted once one passes), and the first
    // revision that passes wins — exactly as in the one-at-a-time loop.
    // Accepting a revision is what ends a seed, so the dedup set cannot
    // change mid-seed and filtering duplicates at generation time is
    // equivalent to skipping them inline.
    bool accepted = false;
    std::vector<Tuple> batch;
    std::vector<double> batch_scores;
    for (std::size_t i = 0; i < space.z.size() && !accepted; ++i) {
      // Values sorted by descending weight for the greedy order.
      WeightedDomain dom = space.domains[i];
      SortByDescendingWeight(&dom);
      const Value original = t.at(space.z[i]);
      int tried = 0;
      std::size_t next = 0;
      while (!accepted) {
        batch.clear();
        batch_scores.clear();
        while (next < dom.size() &&
               static_cast<int>(batch.size()) < round_cap) {
          if (tried >= kMaxRepairValues) break;
          const auto& [v, w] = dom[next];
          ++next;
          if (v == original) continue;
          ++tried;
          Tuple revised = t;
          revised.set(space.z[i], v);
          if (is_dup(revised)) continue;
          batch_scores.push_back(seeds.scores[s] -
                                 pref.Weight(space.z[i], original) + w);
          batch.push_back(std::move(revised));
        }
        if (batch.empty()) break;  // attribute exhausted
        result.checks += static_cast<int64_t>(batch.size());
        const std::vector<char> verdicts = checker.CheckAll(batch);
        for (std::size_t j = 0; j < batch.size(); ++j) {
          if (!verdicts[j]) continue;
          result.targets.push_back(std::move(batch[j]));
          result.scores.push_back(batch_scores[j]);
          accepted = true;
          break;
        }
      }
    }
  }
  return result;
}

TopKResult TopKBruteForce(const CandidateChecker& checker,
                          const MasterDomains& masters,
                          const Tuple& deduced_te, const PreferenceModel& pref,
                          int k, const TopKOptions& opts) {
  TopKResult result;
  if (k <= 0) return result;
  const SearchSpace space =
      BuildSearchSpace(checker.prototype().encoded_ie(), masters, deduced_te,
                       pref, opts.include_default_values);

  // The oracle checks the whole product space anyway, so batches can be
  // large; enumeration order is preserved by indexing.
  const std::size_t batch_cap =
      std::max<std::size_t>(64, static_cast<std::size_t>(checker.batch_size()));

  std::vector<std::pair<double, Tuple>> accepted;
  std::vector<Tuple> batch;
  std::vector<double> batch_scores;
  auto flush = [&] {
    result.checks += static_cast<int64_t>(batch.size());
    const std::vector<char> verdicts = checker.CheckAll(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (verdicts[i]) {
        accepted.emplace_back(batch_scores[i], std::move(batch[i]));
      }
    }
    batch.clear();
    batch_scores.clear();
  };

  ForEachCompletion(space, deduced_te, pref.Score(deduced_te),
                    [&](Tuple t, double score) {
                      batch.push_back(std::move(t));
                      batch_scores.push_back(score);
                      if (batch.size() >= batch_cap) flush();
                      return true;
                    });
  flush();
  std::stable_sort(
      accepted.begin(), accepted.end(),
      [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0;
       i < accepted.size() && static_cast<int>(result.targets.size()) < k;
       ++i) {
    result.targets.push_back(accepted[i].second);
    result.scores.push_back(accepted[i].first);
  }
  return result;
}

}  // namespace relacc
