#include "discovery/ar_miner.h"

#include <algorithm>

#include "rules/predicate.h"

namespace relacc {
namespace {

/// One labeled tuple pair of one entity instance.
struct LabeledPair {
  const Tuple* t1;
  const Tuple* t2;
};

/// Evaluates a candidate body (witness + optional guard) on a pair.
struct CandidateBody {
  AttrId witness = -1;   ///< t1[witness] < t2[witness]
  AttrId guard = -1;     ///< t1[guard] = t2[guard]; -1 = none

  bool Matches(const LabeledPair& p) const {
    if (!EvalCompare(CompareOp::kLt, p.t1->at(witness), p.t2->at(witness))) {
      return false;
    }
    if (guard >= 0 &&
        !EvalCompare(CompareOp::kEq, p.t1->at(guard), p.t2->at(guard))) {
      return false;
    }
    return true;
  }
};

AccuracyRule ToRule(const Schema& schema, const CandidateBody& body,
                    AttrId target) {
  AccuracyRule r;
  r.form = AccuracyRule::Form::kTuplePair;
  r.name = "mined:" + schema.name(body.witness) +
           (body.guard >= 0 ? "&" + schema.name(body.guard) : std::string()) +
           "->" + schema.name(target);
  r.provenance = RuleProvenance::kCurrency;
  TuplePairPredicate w;
  w.kind = TuplePairPredicate::Kind::kAttrAttr;
  w.left_attr = body.witness;
  w.right_attr = body.witness;
  w.op = CompareOp::kLt;
  r.lhs.push_back(w);
  if (body.guard >= 0) {
    TuplePairPredicate g;
    g.kind = TuplePairPredicate::Kind::kAttrAttr;
    g.left_attr = body.guard;
    g.right_attr = body.guard;
    g.op = CompareOp::kEq;
    r.lhs.push_back(g);
  }
  // Null guard on the conclusion side: a tuple with a null target value
  // must not be ordered above non-null ones (unguarded conclusions
  // conflict with axiom ϕ7, null has the lowest accuracy; Sec. 2.2).
  TuplePairPredicate nn;
  nn.kind = TuplePairPredicate::Kind::kAttrConst;
  nn.which = 2;
  nn.left_attr = target;
  nn.op = CompareOp::kNe;
  nn.constant = Value::Null();
  r.lhs.push_back(nn);
  r.rhs_attr = target;
  return r;
}

}  // namespace

std::vector<MinedRule> MineAccuracyRules(
    const std::vector<EntityInstance>& instances,
    const std::vector<Tuple>& targets, const ArMinerConfig& config) {
  std::vector<MinedRule> mined;
  if (instances.empty()) return mined;
  const Schema& schema = instances[0].schema();
  const int num_attrs = schema.size();

  // Collect all intra-entity ordered pairs once.
  std::vector<LabeledPair> pairs;
  std::vector<int> entity_of;
  for (std::size_t e = 0; e < instances.size(); ++e) {
    const auto& tuples = instances[e].tuples();
    for (std::size_t i = 0; i < tuples.size(); ++i) {
      for (std::size_t j = 0; j < tuples.size(); ++j) {
        if (i == j) continue;
        pairs.push_back({&tuples[i], &tuples[j]});
        entity_of.push_back(static_cast<int>(e));
      }
    }
  }

  // Pair labels per target attribute A: positive when t2 hits the curated
  // A-value and t1 misses it; negative when t1 hits and t2 misses (an AR
  // matching a negative pair would order the accurate value *below*).
  auto label = [&](const LabeledPair& p, int e, AttrId a) {
    const Value& truth = targets[e].at(a);
    if (truth.is_null()) return 0;
    const bool hit1 = p.t1->at(a) == truth;
    const bool hit2 = p.t2->at(a) == truth;
    if (hit2 && !hit1) return +1;
    if (hit1 && !hit2) return -1;
    return 0;
  };

  // Level-wise search: witnesses alone, then witness+guard refinements of
  // candidates that were close to confident.
  for (AttrId target = 0; target < num_attrs; ++target) {
    std::vector<CandidateBody> level;
    for (AttrId w = 0; w < num_attrs; ++w) {
      if (schema.type(w) != ValueType::kInt &&
          schema.type(w) != ValueType::kDouble) {
        continue;  // order witnesses must come from ordered domains
      }
      level.push_back({w, -1});
    }
    for (int depth = 0; depth < 2; ++depth) {
      std::vector<CandidateBody> next_level;
      for (const CandidateBody& body : level) {
        int positive = 0;
        int negative = 0;
        for (std::size_t p = 0; p < pairs.size(); ++p) {
          if (!body.Matches(pairs[p])) continue;
          const int l = label(pairs[p], entity_of[p], target);
          positive += l > 0 ? 1 : 0;
          negative += l < 0 ? 1 : 0;
        }
        const int matched = positive + negative;
        if (matched == 0) continue;
        const double confidence =
            static_cast<double>(positive) / static_cast<double>(matched);
        if (positive >= config.min_support &&
            confidence >= config.min_confidence) {
          MinedRule m;
          m.rule = ToRule(schema, body, target);
          m.support = positive;
          m.confidence = confidence;
          mined.push_back(std::move(m));
          if (static_cast<int>(mined.size()) >= config.max_rules) {
            return mined;
          }
        } else if (depth == 0 && positive >= config.min_support &&
                   confidence >= 0.5) {
          // Close miss: refine with an equality guard at the next level
          // (the containment-based specialization of Sec. 4 Remark (1)).
          for (AttrId g = 0; g < num_attrs; ++g) {
            if (g != body.witness && g != target) {
              next_level.push_back({body.witness, g});
            }
          }
        }
      }
      level = std::move(next_level);
    }
  }
  std::sort(mined.begin(), mined.end(), [](const auto& a, const auto& b) {
    if (a.confidence != b.confidence) return a.confidence > b.confidence;
    return a.support > b.support;
  });
  return mined;
}

}  // namespace relacc
