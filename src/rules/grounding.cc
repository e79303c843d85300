#include "rules/grounding.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "core/columnar.h"

namespace relacc {
namespace {

/// Grounds one form-(2) rule on master tuple tm, emitting one kSetTe step
/// per assignment with a non-null source value. The conjuncts are decided
/// before the residual is built, so a master tuple the rule rejects costs
/// no allocation.
void GroundMasterRule(const AccuracyRule& rule, const Tuple& tm, int rule_id,
                      std::vector<GroundStep>* out) {
  for (const MasterPredicate& p : rule.master_lhs) {
    switch (p.kind) {
      case MasterPredicate::Kind::kMasterConst:
        if (!EvalCompare(p.op, tm.at(p.master_attr), p.constant)) return;
        break;
      case MasterPredicate::Kind::kTeConst:
        if (p.constant.is_null()) return;  // te never becomes null
        break;
      case MasterPredicate::Kind::kTeMaster:
        if (tm.at(p.master_attr).is_null()) return;
        break;
    }
  }
  std::vector<GroundPredicate> residual;
  for (const MasterPredicate& p : rule.master_lhs) {
    if (p.kind == MasterPredicate::Kind::kMasterConst) continue;
    GroundPredicate g;
    g.kind = GroundPredicate::Kind::kTeCompare;
    g.attr = p.te_attr;
    g.op = CompareOp::kEq;
    g.constant = p.kind == MasterPredicate::Kind::kTeConst
                     ? p.constant
                     : tm.at(p.master_attr);
    residual.push_back(std::move(g));
  }
  for (const auto& [te_attr, m_attr] : rule.assignments) {
    const Value& v = tm.at(m_attr);
    if (v.is_null()) continue;  // no information to copy
    GroundStep step;
    step.kind = GroundStep::Kind::kSetTe;
    step.attr = te_attr;
    step.te_value = v;
    step.residual = residual;
    step.rule_id = rule_id;
    out->push_back(std::move(step));
  }
}

/// Grounds every form-(2) rule of `rules` against every tuple of its
/// master relation, appending to `out` in rule, then tm order. Rules
/// referencing an absent master contribute no steps.
void GroundMasterRows(const std::vector<Relation>& masters,
                      const std::vector<AccuracyRule>& rules,
                      std::vector<GroundStep>* out) {
  for (int r = 0; r < static_cast<int>(rules.size()); ++r) {
    const AccuracyRule& rule = rules[r];
    if (rule.form == AccuracyRule::Form::kTuplePair || rule.master_index < 0 ||
        rule.master_index >= static_cast<int>(masters.size())) {
      continue;
    }
    const Relation& im = masters[rule.master_index];
    for (int t = 0; t < im.size(); ++t) {
      GroundMasterRule(rule, im.tuple(t), r, out);
    }
  }
}

/// Pre-interns every kAttrConst constant of every rule so the columnar
/// pair loop compares ids instead of Values. Interning an absent
/// constant is harmless — a fresh id simply matches no column id. Entry
/// [r][k] is the constant of rule r's k-th lhs conjunct (kNullTermId
/// where the conjunct has none).
std::vector<std::vector<TermId>> InternRuleConstants(
    const std::vector<AccuracyRule>& rules, Dictionary* dict) {
  std::vector<std::vector<TermId>> ids(rules.size());
  for (std::size_t r = 0; r < rules.size(); ++r) {
    ids[r].assign(rules[r].lhs.size(), kNullTermId);
    for (std::size_t k = 0; k < rules[r].lhs.size(); ++k) {
      const TuplePairPredicate& p = rules[r].lhs[k];
      if (p.kind == TuplePairPredicate::Kind::kAttrConst) {
        ids[r][k] = dict->Intern(p.constant);
      }
    }
  }
  return ids;
}

/// Grounds one form-(1) rule on the ordered pair (ti, tj). Returns false if
/// some constant predicate already fails (the step is dropped). Equality
/// operators are decided on TermIds (id equality == Value::operator==
/// equality by the interning contract, nulls included: all nulls share
/// kNullTermId); order operators fall back to the dictionary
/// representatives, whose cross-type numeric Compare agrees with the
/// schema-typed values. `const_ids[k]` pre-resolves the k-th conjunct's
/// kAttrConst constant.
bool GroundPairRule(const AccuracyRule& rule,
                    const std::vector<TermId>& const_ids,
                    const ColumnarRelation& ie, int i, int j,
                    GroundStep* out) {
  const Dictionary& dict = ie.dict();
  out->kind = GroundStep::Kind::kAddOrder;
  out->attr = rule.rhs_attr;
  out->i = i;
  out->j = j;
  out->residual.clear();
  for (std::size_t k = 0; k < rule.lhs.size(); ++k) {
    const TuplePairPredicate& p = rule.lhs[k];
    switch (p.kind) {
      case TuplePairPredicate::Kind::kAttrAttr: {
        const TermId a = ie.id_at(i, p.left_attr);
        const TermId b = ie.id_at(j, p.right_attr);
        if (p.op == CompareOp::kEq) {
          if (a != b) return false;
        } else if (p.op == CompareOp::kNe) {
          if (a == b) return false;
        } else if (!EvalCompare(p.op, dict.value(a), dict.value(b))) {
          return false;
        }
        break;
      }
      case TuplePairPredicate::Kind::kAttrConst: {
        const int row = p.which == 1 ? i : j;
        const TermId v = ie.id_at(row, p.left_attr);
        if (p.op == CompareOp::kEq) {
          if (v != const_ids[k]) return false;
        } else if (p.op == CompareOp::kNe) {
          if (v == const_ids[k]) return false;
        } else if (!EvalCompare(p.op, dict.value(v), p.constant)) {
          return false;
        }
        break;
      }
      case TuplePairPredicate::Kind::kAttrTe: {
        // ti[a] op te[b]  ==>  te[b] op' c with c = ti[a], materialized
        // with the schema column type (the boundary value, not the
        // dictionary representative). te values are non-null once set,
        // so te = null is unsatisfiable.
        const int row = p.which == 1 ? i : j;
        const TermId vid = ie.id_at(row, p.left_attr);
        const CompareOp flipped = FlipCompareOp(p.op);
        if (vid == kNullTermId && flipped != CompareOp::kNe) return false;
        GroundPredicate g;
        g.kind = GroundPredicate::Kind::kTeCompare;
        g.attr = p.right_attr;
        g.op = flipped;
        g.constant = MaterializeAs(dict, vid, ie.schema().type(p.left_attr));
        out->residual.push_back(std::move(g));
        break;
      }
      case TuplePairPredicate::Kind::kTeConst: {
        if (p.constant.is_null() && p.op != CompareOp::kNe) return false;
        GroundPredicate g;
        g.kind = GroundPredicate::Kind::kTeCompare;
        g.attr = p.left_attr;
        g.op = p.op;
        g.constant = p.constant;
        out->residual.push_back(std::move(g));
        break;
      }
      case TuplePairPredicate::Kind::kOrder: {
        // t1 ≺_a t2 requires differing values; resolved now since tuple
        // values are constants.
        if (p.strict &&
            ie.id_at(i, p.left_attr) == ie.id_at(j, p.left_attr)) {
          return false;
        }
        GroundPredicate g;
        g.kind = GroundPredicate::Kind::kOrderPair;
        g.attr = p.left_attr;
        g.i = i;
        g.j = j;
        out->residual.push_back(std::move(g));
        break;
      }
    }
  }
  return true;
}

/// Grounds every form-(1) rule of `rules` against every ordered pair
/// (ti, tj), i != j, of `ie`, appending to `out` in serial emission order:
/// rule, then ti, then tj.
void GroundRows(const ColumnarRelation& ie, const MasterBlock& block,
                const std::vector<AccuracyRule>& rules,
                std::vector<GroundStep>* out) {
  const int n = ie.size();
  GroundStep scratch;
  for (int r = 0; r < static_cast<int>(rules.size()); ++r) {
    const AccuracyRule& rule = rules[r];
    if (rule.form != AccuracyRule::Form::kTuplePair) continue;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        if (GroundPairRule(rule, block.rule_constants(r), ie, i, j,
                           &scratch)) {
          scratch.rule_id = r;
          out->push_back(scratch);
        }
      }
    }
  }
}

std::vector<std::string> RuleNames(const std::vector<AccuracyRule>& rules) {
  std::vector<std::string> names;
  names.reserve(rules.size());
  for (const AccuracyRule& rule : rules) names.push_back(rule.name);
  return names;
}

[[noreturn]] void AbortBlockMismatch(const char* what) {
  std::fprintf(stderr, "Instantiate: %s\n", what);
  std::abort();
}

uint64_t WatchKey(AttrId attr, TermId v) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(attr)) << 32) | v;
}

/// A non-owning handle on a caller-owned dictionary (the `masters`
/// overload's private block interns into the relation's dictionary).
std::shared_ptr<Dictionary> Borrow(Dictionary* dict) {
  return std::shared_ptr<Dictionary>(std::shared_ptr<Dictionary>(), dict);
}

}  // namespace

bool operator==(const GroundPredicate& a, const GroundPredicate& b) {
  return a.kind == b.kind && a.attr == b.attr && a.i == b.i && a.j == b.j &&
         a.op == b.op && a.constant == b.constant;
}

bool operator==(const GroundStep& a, const GroundStep& b) {
  return a.kind == b.kind && a.attr == b.attr && a.i == b.i && a.j == b.j &&
         a.te_value == b.te_value && a.rule_id == b.rule_id &&
         a.residual == b.residual;
}

bool operator==(const GroundProgram& a, const GroundProgram& b) {
  if (a.num_tuples != b.num_tuples || a.num_attrs != b.num_attrs ||
      a.rule_names != b.rule_names || a.size() != b.size()) {
    return false;
  }
  std::vector<const GroundStep*> flat;
  flat.reserve(a.size());
  a.ForEachStep([&](const GroundStep& step) { flat.push_back(&step); });
  std::size_t s = 0;
  bool equal = true;
  b.ForEachStep([&](const GroundStep& step) {
    equal = equal && *flat[s++] == step;
  });
  return equal;
}

std::size_t GroundProgram::size() const {
  return steps.size() + (master != nullptr ? master->steps().size() : 0);
}

GroundProgram GroundProgram::Materialize() const {
  GroundProgram flat;
  flat.num_tuples = num_tuples;
  flat.num_attrs = num_attrs;
  flat.rule_names = rule_names;
  flat.steps.reserve(size());
  ForEachStep([&](const GroundStep& step) { flat.steps.push_back(step); });
  return flat;
}

// ------------------------------------------------------------ MasterBlock

MasterBlock::MasterBlock(std::shared_ptr<Dictionary> dict)
    : dict_(std::move(dict)) {}

std::shared_ptr<const MasterBlock> MasterBlock::Build(
    const std::vector<Relation>& masters,
    const std::vector<AccuracyRule>& rules, std::shared_ptr<Dictionary> dict) {
  std::shared_ptr<MasterBlock> block(new MasterBlock(std::move(dict)));
  GroundMasterRows(masters, rules, &block->steps_);

  const std::vector<GroundStep>& steps = block->steps_;
  block->rule_begin_.assign(rules.size() + 1, 0);
  for (const GroundStep& step : steps) ++block->rule_begin_[step.rule_id + 1];
  for (std::size_t r = 0; r < rules.size(); ++r) {
    block->rule_begin_[r + 1] += block->rule_begin_[r];
  }
  // Interning in step order: term ids are a function of the inputs alone.
  Dictionary& d = *block->dict_;
  struct Keyed {
    uint64_t key;
    Watch watch;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(steps.size());
  block->step_te_.reserve(steps.size());
  block->residual_size_.reserve(steps.size());
  for (int32_t b = 0; b < static_cast<int32_t>(steps.size()); ++b) {
    const GroundStep& step = steps[b];
    block->step_te_.push_back(d.Intern(step.te_value));
    block->residual_size_.push_back(static_cast<int32_t>(step.residual.size()));
    for (const GroundPredicate& g : step.residual) {
      // GroundMasterRule emits only `te[A] = c` residuals (c non-null).
      keyed.push_back({WatchKey(g.attr, d.Intern(g.constant)),
                       Watch{b, step.rule_id}});
    }
  }
  // Group by key (a counting sort over first-seen key slots), keeping
  // block-step order within a key.
  std::vector<uint32_t> slot(keyed.size());
  block->watch_slot_.reserve(keyed.size());
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    slot[i] = block->watch_slot_
                  .try_emplace(keyed[i].key,
                               static_cast<uint32_t>(block->watch_slot_.size()))
                  .first->second;
  }
  block->watch_begin_.assign(block->watch_slot_.size() + 1, 0);
  for (const uint32_t k : slot) ++block->watch_begin_[k + 1];
  for (std::size_t k = 1; k < block->watch_begin_.size(); ++k) {
    block->watch_begin_[k] += block->watch_begin_[k - 1];
  }
  std::vector<uint32_t> next(block->watch_begin_.begin(),
                             block->watch_begin_.end() - 1);
  block->watches_.resize(keyed.size());
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    block->watches_[next[slot[i]]++] = keyed[i].watch;
  }
  block->rule_constants_ = InternRuleConstants(rules, &d);
  return block;
}

std::span<const MasterBlock::Watch> MasterBlock::Watchers(AttrId attr,
                                                          TermId v) const {
  const auto it = watch_slot_.find(WatchKey(attr, v));
  if (it == watch_slot_.end()) return {};
  const uint32_t k = it->second;
  return {watches_.data() + watch_begin_[k],
          watch_begin_[k + 1] - watch_begin_[k]};
}

// ------------------------------------------------------------ Instantiate

GroundProgram Instantiate(const ColumnarRelation& ie, const MasterBlock& block,
                          const std::vector<AccuracyRule>& rules) {
  if (block.dict() != ie.mutable_dict()) {
    AbortBlockMismatch(
        "the master block interns into another dictionary than the entity");
  }
  if (block.num_rules() != static_cast<int>(rules.size())) {
    AbortBlockMismatch("the master block was built from another rule list");
  }
  GroundProgram prog;
  prog.num_tuples = ie.size();
  prog.num_attrs = ie.schema().size();
  prog.rule_names = RuleNames(rules);
  prog.master = block.shared_from_this();
  GroundRows(ie, block, rules, &prog.steps);
  return prog;
}

GroundProgram Instantiate(const ColumnarRelation& ie,
                          const std::vector<Relation>& masters,
                          const std::vector<AccuracyRule>& rules) {
  const std::shared_ptr<const MasterBlock> block =
      MasterBlock::Build(masters, rules, Borrow(ie.mutable_dict()));
  return Instantiate(ie, *block, rules);
}

}  // namespace relacc
