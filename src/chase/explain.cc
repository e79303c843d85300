#include "chase/explain.h"

#include <unordered_set>
#include <utility>

#include "rules/axioms.h"
#include "rules/grounding.h"
#include "rules/predicate.h"

namespace relacc {

ExplainedChase::ExplainedChase(const Specification& spec)
    : schema_(spec.ie.schema()), ie_(spec.ie) {
  n_ = ie_.size();
  int num_attrs = schema_.size();
  reach_.assign(num_attrs, std::vector<char>(n_ * n_, 0));
  pair_derivation_.assign(num_attrs, std::vector<int>(n_ * n_, -1));
  te_derivation_.assign(num_attrs, -1);
  target_ = Tuple(std::vector<Value>(num_attrs));
  Run(spec);
}

int ExplainedChase::Record(Derivation d) {
  derivations_.push_back(std::move(d));
  return static_cast<int>(derivations_.size()) - 1;
}

bool ExplainedChase::ApplyAddPair(AttrId attr, int i, int j, DerivationVia via,
                                  const std::string& rule,
                                  std::vector<int> premises) {
  if (i == j || reach_[attr][i * n_ + j]) return true;  // no-op
  // Validity: i ⪯ j with j ⪯ i already present and differing values would
  // make ⪯ fail antisymmetry up to value equality (Sec. 2.2(a)).
  if (reach_[attr][j * n_ + i] && ie_.tuple(i).at(attr) != ie_.tuple(j).at(attr)) {
    church_rosser_ = false;
    if (violation_.empty()) {
      violation_ = "conflicting accuracy orders on [" + schema_.name(attr) +
                   "] between tuples " + std::to_string(i) + " and " +
                   std::to_string(j);
    }
    return false;
  }

  Derivation d;
  d.fact = {ChaseFact::Kind::kOrderPair, attr, i, j, Value()};
  d.via = via;
  d.rule_name = rule;
  d.premises = std::move(premises);
  int base = Record(std::move(d));
  reach_[attr][i * n_ + j] = 1;
  pair_derivation_[attr][i * n_ + j] = base;

  // Incremental transitive closure; every inferred pair recurses through
  // ApplyAddPair so it is validity-checked and recorded itself.
  for (int k = 0; k < n_; ++k) {
    if (reach_[attr][k * n_ + i] && !reach_[attr][k * n_ + j]) {
      if (!ApplyAddPair(attr, k, j, DerivationVia::kTransitivity, "",
                        {pair_derivation_[attr][k * n_ + i], base})) {
        return false;
      }
    }
  }
  for (int k = 0; k < n_; ++k) {
    if (reach_[attr][j * n_ + k] && !reach_[attr][i * n_ + k]) {
      if (!ApplyAddPair(attr, i, k, DerivationVia::kTransitivity, "",
                        {base, pair_derivation_[attr][j * n_ + k]})) {
        return false;
      }
    }
  }
  return UpdateLambda(attr);
}

bool ExplainedChase::UpdateLambda(AttrId attr) {
  // Greatest element: some t with t' ⪯ t for every other t'.
  for (int t = 0; t < n_; ++t) {
    bool greatest = true;
    std::vector<int> premises;
    for (int other = 0; other < n_ && greatest; ++other) {
      if (other == t) continue;
      if (reach_[attr][other * n_ + t]) {
        premises.push_back(pair_derivation_[attr][other * n_ + t]);
      } else {
        greatest = false;
      }
    }
    if (!greatest) continue;
    const Value& v = ie_.tuple(t).at(attr);
    if (v.is_null()) return true;  // λ never assigns null
    return ApplySetTe(attr, v, DerivationVia::kLambda,
                      "t" + std::to_string(t) + " is the greatest element",
                      std::move(premises));
  }
  return true;
}

bool ExplainedChase::ApplySetTe(AttrId attr, const Value& v, DerivationVia via,
                                const std::string& rule,
                                std::vector<int> premises) {
  const Value& current = target_.at(attr);
  if (!current.is_null()) {
    if (current == v) return true;  // no-op
    church_rosser_ = false;
    if (violation_.empty()) {
      violation_ = "target attribute [" + schema_.name(attr) +
                   "] would change from " + current.ToString() + " to " +
                   v.ToString();
    }
    return false;
  }
  Derivation d;
  d.fact = {ChaseFact::Kind::kTeValue, attr, -1, -1, v};
  d.via = via;
  d.rule_name = rule;
  d.premises = std::move(premises);
  te_derivation_[attr] = Record(std::move(d));
  target_.set(attr, v);
  return true;
}

void ExplainedChase::Run(const Specification& spec) {
  // Expand the axioms declaratively so their applications carry names.
  std::vector<AccuracyRule> rules = spec.rules;
  if (spec.config.builtin_axioms) {
    std::vector<AccuracyRule> axioms = ExpandAxioms(schema_);
    rules.insert(rules.end(), axioms.begin(), axioms.end());
  }
  // The oracle walks the flat program, never the chase engine's index
  // over a shared master block.
  const GroundProgram program =
      Instantiate(ie_, spec.masters, rules).Materialize();

  // λ applies to the initial empty orders already: a lone tuple (or a set
  // of value-equal tuples once ϕ9 fires) is trivially the greatest element.
  for (AttrId a = 0; a < schema_.size() && church_rosser_; ++a) {
    UpdateLambda(a);
  }

  // Naive fixpoint over the ground steps. Each step fires at most once;
  // a pass that changes nothing ends the loop. Steps whose residual
  // mentions te re-evaluate every pass (te only grows, so no retraction).
  std::vector<char> fired(program.steps.size(), 0);
  bool changed = true;
  while (changed && church_rosser_) {
    changed = false;
    for (size_t s = 0; s < program.steps.size() && church_rosser_; ++s) {
      if (fired[s]) continue;
      const GroundStep& step = program.steps[s];
      bool satisfied = true;
      std::vector<int> premises;
      for (const GroundPredicate& p : step.residual) {
        if (p.kind == GroundPredicate::Kind::kOrderPair) {
          if (!reach_[p.attr][p.i * n_ + p.j]) {
            satisfied = false;
            break;
          }
          premises.push_back(pair_derivation_[p.attr][p.i * n_ + p.j]);
        } else {  // kTeCompare
          const Value& te_v = target_.at(p.attr);
          // te[A] op c with te[A] still null only holds for the null
          // comparisons the first-order semantics admits (null = null).
          if (!EvalCompare(p.op, te_v, p.constant)) {
            satisfied = false;
            break;
          }
          if (te_derivation_[p.attr] >= 0) {
            premises.push_back(te_derivation_[p.attr]);
          }
        }
      }
      if (!satisfied) continue;
      fired[s] = 1;
      changed = true;
      const std::string& rule_name =
          step.rule_id >= 0 && step.rule_id < static_cast<int>(rules.size())
              ? rules[step.rule_id].name
              : "";
      if (step.kind == GroundStep::Kind::kAddOrder) {
        ApplyAddPair(step.attr, step.i, step.j, DerivationVia::kRule,
                     rule_name, std::move(premises));
      } else {
        ApplySetTe(step.attr, step.te_value, DerivationVia::kRule, rule_name,
                   std::move(premises));
      }
    }
  }
}

std::optional<int> ExplainedChase::FindTeDerivation(AttrId attr) const {
  if (attr < 0 || attr >= schema_.size() || te_derivation_[attr] < 0) {
    return std::nullopt;
  }
  return te_derivation_[attr];
}

std::optional<int> ExplainedChase::FindPairDerivation(AttrId attr, int i,
                                                      int j) const {
  if (attr < 0 || attr >= schema_.size() || i < 0 || j < 0 || i >= n_ ||
      j >= n_ || pair_derivation_[attr][i * n_ + j] < 0) {
    return std::nullopt;
  }
  return pair_derivation_[attr][i * n_ + j];
}

std::string ExplainedChase::FactToString(const ChaseFact& fact) const {
  if (fact.kind == ChaseFact::Kind::kTeValue) {
    return "te[" + schema_.name(fact.attr) + "] = " + fact.te_value.ToString();
  }
  std::string out = "t" + std::to_string(fact.i) + " <= t" +
                    std::to_string(fact.j) + " on [" +
                    schema_.name(fact.attr) + "]";
  const Value& vi = ie_.tuple(fact.i).at(fact.attr);
  const Value& vj = ie_.tuple(fact.j).at(fact.attr);
  out += "  {" + (vi.is_null() ? "null" : vi.ToString()) + " <= " +
         (vj.is_null() ? "null" : vj.ToString()) + "}";
  return out;
}

namespace {

const char* ViaLabel(DerivationVia via) {
  switch (via) {
    case DerivationVia::kRule: return "rule";
    case DerivationVia::kTransitivity: return "transitivity";
    case DerivationVia::kLambda: return "lambda";
  }
  return "?";
}

}  // namespace

std::string ExplainedChase::Explain(int derivation_index, int max_depth) const {
  std::string out;
  std::unordered_set<int> printed;

  // Depth-first rendering; `prefix` carries the tree-drawing indent.
  auto render = [&](auto&& self, int index, const std::string& prefix,
                    bool last, int depth) -> void {
    const Derivation& d = derivations_[index];
    std::string line = prefix;
    if (depth > 0) {
      line += last ? "`- " : "|- ";
    }
    line += FactToString(d.fact);
    line += "   [";
    line += ViaLabel(d.via);
    if (!d.rule_name.empty()) line += ": " + d.rule_name;
    line += "]";
    if (printed.count(index) > 0 && !d.premises.empty()) {
      out += line + "  (shown above)\n";
      return;
    }
    printed.insert(index);
    out += line + "\n";
    if (depth >= max_depth && !d.premises.empty()) {
      out += prefix + (depth > 0 ? (last ? "   " : "|  ") : "") + "`- ...\n";
      return;
    }
    for (size_t p = 0; p < d.premises.size(); ++p) {
      std::string child_prefix =
          prefix + (depth > 0 ? (last ? "   " : "|  ") : "");
      self(self, d.premises[p], child_prefix, p + 1 == d.premises.size(),
           depth + 1);
    }
  };

  if (derivation_index < 0 ||
      derivation_index >= static_cast<int>(derivations_.size())) {
    return "(no such derivation)\n";
  }
  render(render, derivation_index, "", true, 0);
  return out;
}

std::string ExplainedChase::ExplainTarget(AttrId attr) const {
  std::optional<int> d = FindTeDerivation(attr);
  if (!d) {
    return "te[" + schema_.name(attr) + "] was not deduced by the chase\n";
  }
  return Explain(*d);
}

}  // namespace relacc
