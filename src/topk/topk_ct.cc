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

void RunAcceptLoop(const ChaseEngine* engine, const TopKOptions& opts, int k,
                   const std::function<bool()>& has_more,
                   const std::function<bool(Tuple*, double*)>& produce,
                   TopKResult* result) {
  while (static_cast<int>(result->targets.size()) < k) {
    if (opts.max_expansions >= 0 &&
        result->queue_pops >= opts.max_expansions) {
      // A space that ran out at the boundary is not a budget stop.
      result->exhausted_budget = has_more();
      return;
    }
    Tuple t;
    double score = 0.0;
    if (!produce(&t, &score)) return;
    ++result->queue_pops;
    ++result->checks;
    if (engine != nullptr && !engine->CheckCandidate(t)) continue;
    result->targets.push_back(std::move(t));
    result->scores.push_back(score);
  }
}

namespace {

/// TopKCT over a built search space (TopKCTh's seed phase reuses the
/// space it repairs over, with a null `engine`: unchecked). k >= 1.
TopKResult BestFirstSearch(const ChaseEngine* engine,
                           const SearchSpace& space, const Tuple& deduced_te,
                           const PreferenceModel& pref, int k,
                           const TopKOptions& opts) {
  TopKResult result;
  const std::size_t m = space.z.size();
  const double base_score = pref.Score(deduced_te);

  if (m == 0) {
    // te is already complete; it is its own (sole) candidate target.
    ++result.checks;
    if (engine == nullptr || engine->CheckCandidate(deduced_te)) {
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

  // Pop, check and expand in best-first order (Fig. 5 lines 10-15).
  RunAcceptLoop(
      engine, opts, k, [&] { return !queue.empty(); },
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

TopKResult TopKCT(const ChaseEngine& engine, const MasterDomains& masters,
                  const Tuple& deduced_te, const PreferenceModel& pref, int k,
                  const TopKOptions& opts) {
  if (k <= 0) return {};
  return BestFirstSearch(
      &engine,
      BuildSearchSpace(engine.encoded_ie(), masters, deduced_te, pref,
                       opts.include_default_values),
      deduced_te, pref, k, opts);
}

TopKResult TopKCTh(const ChaseEngine& engine, const MasterDomains& masters,
                   const Tuple& deduced_te, const PreferenceModel& pref,
                   int k, const TopKOptions& opts) {
  TopKResult result;
  if (k <= 0) return result;
  const SearchSpace space =
      BuildSearchSpace(engine.encoded_ie(), masters, deduced_te, pref,
                       opts.include_default_values);
  // Phase 1: k unvalidated seeds (TopKCT without the check step).
  const TopKResult seeds =
      BestFirstSearch(nullptr, space, deduced_te, pref, k, opts);
  result.queue_pops = seeds.queue_pops;
  result.heap_pops = seeds.heap_pops;

  auto is_dup = [&](const Tuple& t) {
    for (const Tuple& prev : result.targets) {
      if (prev == t) return true;  // dedup revised seeds
    }
    return false;
  };
  auto accept_if_passes = [&](Tuple t, double score) {
    ++result.checks;
    if (!engine.CheckCandidate(t)) return false;
    result.targets.push_back(std::move(t));
    result.scores.push_back(score);
    return true;
  };

  for (std::size_t s = 0; s < seeds.targets.size() &&
                          static_cast<int>(result.targets.size()) < k;
       ++s) {
    const Tuple& t = seeds.targets[s];
    if (!is_dup(t) && accept_if_passes(t, seeds.scores[s])) continue;
    // Phase 2: greedy repair — revisit each null attribute in turn and try
    // the remaining active-domain values in weight order until the check
    // passes (Sec. 6.3). At most O(m · kMaxRepairValues) checks per seed;
    // later domains are never even sorted once one revision passes.
    bool accepted = false;
    for (std::size_t i = 0; i < space.z.size() && !accepted; ++i) {
      // Values sorted by descending weight for the greedy order.
      WeightedDomain dom = space.domains[i];
      SortByDescendingWeight(&dom);
      const Value original = t.at(space.z[i]);
      int tried = 0;
      for (std::size_t next = 0;
           next < dom.size() && tried < kMaxRepairValues && !accepted;
           ++next) {
        const auto& [v, w] = dom[next];
        if (v == original) continue;
        ++tried;
        Tuple revised = t;
        revised.set(space.z[i], v);
        if (is_dup(revised)) continue;
        accepted = accept_if_passes(
            std::move(revised),
            seeds.scores[s] - pref.Weight(space.z[i], original) + w);
      }
    }
  }
  return result;
}

TopKResult TopKBruteForce(const ChaseEngine& engine,
                          const MasterDomains& masters,
                          const Tuple& deduced_te, const PreferenceModel& pref,
                          int k, const TopKOptions& opts) {
  TopKResult result;
  if (k <= 0) return result;
  const SearchSpace space =
      BuildSearchSpace(engine.encoded_ie(), masters, deduced_te, pref,
                       opts.include_default_values);

  std::vector<std::pair<double, Tuple>> accepted;
  ForEachCompletion(space, deduced_te, pref.Score(deduced_te),
                    [&](Tuple t, double score) {
                      ++result.checks;
                      if (engine.CheckCandidate(t)) {
                        accepted.emplace_back(score, std::move(t));
                      }
                      return true;
                    });
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
