#include "rules/grounding.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "core/columnar.h"
#include "util/thread_pool.h"

namespace relacc {
namespace {

/// Grounds one form-(1) rule on the ordered pair (ti, tj). Returns false if
/// some constant predicate already fails (the step is dropped).
bool GroundPairRule(const AccuracyRule& rule, const Relation& ie, int i,
                    int j, GroundStep* out) {
  const Tuple& t1 = ie.tuple(i);
  const Tuple& t2 = ie.tuple(j);
  out->kind = GroundStep::Kind::kAddOrder;
  out->attr = rule.rhs_attr;
  out->i = i;
  out->j = j;
  out->residual.clear();
  for (const TuplePairPredicate& p : rule.lhs) {
    switch (p.kind) {
      case TuplePairPredicate::Kind::kAttrAttr: {
        if (!EvalCompare(p.op, t1.at(p.left_attr), t2.at(p.right_attr))) {
          return false;
        }
        break;
      }
      case TuplePairPredicate::Kind::kAttrConst: {
        const Tuple& t = p.which == 1 ? t1 : t2;
        if (!EvalCompare(p.op, t.at(p.left_attr), p.constant)) return false;
        break;
      }
      case TuplePairPredicate::Kind::kAttrTe: {
        // ti[a] op te[b]  ==>  te[b] op' c with c = ti[a].
        const Tuple& t = p.which == 1 ? t1 : t2;
        const Value& c = t.at(p.left_attr);
        const CompareOp flipped = FlipCompareOp(p.op);
        // te values are non-null once set, so te = null is unsatisfiable
        // and te-order-compare against null is always false.
        if (c.is_null() && flipped != CompareOp::kNe) return false;
        GroundPredicate g;
        g.kind = GroundPredicate::Kind::kTeCompare;
        g.attr = p.right_attr;
        g.op = flipped;
        g.constant = c;
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
        if (p.strict && t1.at(p.left_attr) == t2.at(p.left_attr)) {
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

/// Grounds one form-(2) rule on master tuple tm, emitting one kSetTe step
/// per assignment with a non-null source value.
void GroundMasterRule(const AccuracyRule& rule, const Tuple& tm, int rule_id,
                      std::vector<GroundStep>* out) {
  std::vector<GroundPredicate> residual;
  for (const MasterPredicate& p : rule.master_lhs) {
    switch (p.kind) {
      case MasterPredicate::Kind::kMasterConst: {
        if (!EvalCompare(p.op, tm.at(p.master_attr), p.constant)) return;
        break;
      }
      case MasterPredicate::Kind::kTeConst: {
        if (p.constant.is_null()) return;  // te never becomes null
        GroundPredicate g;
        g.kind = GroundPredicate::Kind::kTeCompare;
        g.attr = p.te_attr;
        g.op = CompareOp::kEq;
        g.constant = p.constant;
        residual.push_back(std::move(g));
        break;
      }
      case MasterPredicate::Kind::kTeMaster: {
        const Value& c = tm.at(p.master_attr);
        if (c.is_null()) return;
        GroundPredicate g;
        g.kind = GroundPredicate::Kind::kTeCompare;
        g.attr = p.te_attr;
        g.op = CompareOp::kEq;
        g.constant = c;
        residual.push_back(std::move(g));
        break;
      }
    }
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

/// The flattened loop space of Instantiation: one row per (rule, ti)
/// outer-loop iteration of a form-(1) rule (`pair_rows` per rule) and
/// per (rule, tm) iteration of a form-(2) rule. `starts[r]` is the first
/// global row of rule r, `starts[rules.size()]` the total row count.
/// Form-(2) rules contribute no rows when `masters` is null (the pair
/// half of a block-backed program) or when they reference an absent
/// master relation; pass `pair_rows` 0 for the master half alone.
std::vector<int64_t> RowStarts(int pair_rows,
                               const std::vector<Relation>* masters,
                               const std::vector<AccuracyRule>& rules) {
  std::vector<int64_t> starts(rules.size() + 1, 0);
  for (std::size_t r = 0; r < rules.size(); ++r) {
    int64_t rows = 0;
    if (rules[r].form == AccuracyRule::Form::kTuplePair) {
      rows = pair_rows;
    } else if (masters != nullptr && rules[r].master_index >= 0 &&
               rules[r].master_index < static_cast<int>(masters->size())) {
      rows = (*masters)[rules[r].master_index].size();
    }
    starts[r + 1] = starts[r] + rows;
  }
  return starts;
}

/// Grounds global pair rows [begin, end) in row order, appending to
/// `out`. Emission order within a row (the inner j loop) is the serial
/// order, so concatenating contiguous ranges in ascending row order
/// reproduces the serial program exactly.
void GroundRows(const Relation& ie, const std::vector<AccuracyRule>& rules,
                const std::vector<int64_t>& starts, int64_t begin,
                int64_t end, std::vector<GroundStep>* out) {
  const int n = ie.size();
  GroundStep scratch;
  for (int r = 0; r < static_cast<int>(rules.size()); ++r) {
    const int64_t lo = std::max(begin, starts[r]);
    const int64_t hi = std::min(end, starts[r + 1]);
    if (lo >= hi) continue;
    const AccuracyRule& rule = rules[r];
    for (int64_t row = lo; row < hi; ++row) {
      const int i = static_cast<int>(row - starts[r]);
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        if (GroundPairRule(rule, ie, i, j, &scratch)) {
          scratch.rule_id = r;
          out->push_back(scratch);
        }
      }
    }
  }
}

/// Grounds global master rows [begin, end) — the (rule, tm) rows of
/// RowStarts(0, &masters, rules) — in row order, appending to `out`.
void GroundMasterRows(const std::vector<Relation>& masters,
                      const std::vector<AccuracyRule>& rules,
                      const std::vector<int64_t>& starts, int64_t begin,
                      int64_t end, std::vector<GroundStep>* out) {
  for (int r = 0; r < static_cast<int>(rules.size()); ++r) {
    const int64_t lo = std::max(begin, starts[r]);
    const int64_t hi = std::min(end, starts[r + 1]);
    if (lo >= hi) continue;
    const Relation& im = masters[rules[r].master_index];
    for (int64_t row = lo; row < hi; ++row) {
      GroundMasterRule(rules[r], im.tuple(static_cast<int>(row - starts[r])),
                       r, out);
    }
  }
}

/// Pre-interns every kAttrConst constant of every rule so the columnar
/// pair loop compares ids instead of Values. Must run serially, before
/// any shard fan-out, and interning an absent constant is harmless — a
/// fresh id simply matches no column id. Entry [r][k] is the constant of
/// rule r's k-th lhs conjunct (kNullTermId where the conjunct has none).
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

/// Columnar twin of GroundPairRule. Equality operators are decided on
/// TermIds (id equality == Value::operator== equality by the interning
/// contract, nulls included: all nulls share kNullTermId); order
/// operators fall back to the dictionary representatives, whose
/// cross-type numeric Compare agrees with the schema-typed row values.
/// `const_ids[k]` pre-resolves the k-th conjunct's kAttrConst constant.
bool GroundPairRuleColumnar(const AccuracyRule& rule,
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
        // with the schema column type so the residual constant is
        // byte-identical to the row path's.
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

/// Columnar twin of GroundRows — identical loop structure and emission
/// order.
void GroundRowsColumnar(const ColumnarRelation& ie,
                        const std::vector<AccuracyRule>& rules,
                        const std::vector<std::vector<TermId>>& const_ids,
                        const std::vector<int64_t>& starts, int64_t begin,
                        int64_t end, std::vector<GroundStep>* out) {
  const int n = ie.size();
  GroundStep scratch;
  for (int r = 0; r < static_cast<int>(rules.size()); ++r) {
    const int64_t lo = std::max(begin, starts[r]);
    const int64_t hi = std::min(end, starts[r + 1]);
    if (lo >= hi) continue;
    const AccuracyRule& rule = rules[r];
    for (int64_t row = lo; row < hi; ++row) {
      const int i = static_cast<int>(row - starts[r]);
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        if (GroundPairRuleColumnar(rule, const_ids[r], ie, i, j, &scratch)) {
          scratch.rule_id = r;
          out->push_back(scratch);
        }
      }
    }
  }
}

/// Shard/merge skeleton shared by every sharded path: `ground(begin, end,
/// out)` grounds a contiguous global-row range into a private list; the
/// merge concatenates in shard order, which is the serial emission
/// order. Below ~2 rows per shard (or with num_shards <= 1) the fan-out
/// costs more than the grounding, so the range is grounded serially —
/// the reference the sharded result must match.
template <typename GroundRange>
std::vector<GroundStep> GroundSharded(int64_t rows, int num_shards,
                                      ThreadPool* pool,
                                      const GroundRange& ground) {
  const int64_t shards =
      std::min<int64_t>(std::max(1, num_shards), std::max<int64_t>(1, rows));
  if (shards <= 1) {
    std::vector<GroundStep> steps;
    ground(0, rows, &steps);
    return steps;
  }
  std::vector<std::vector<GroundStep>> parts(
      static_cast<std::size_t>(shards));
  const int64_t chunk = (rows + shards - 1) / shards;
  const auto ground_shard = [&](int64_t s) {
    const int64_t begin = s * chunk;
    const int64_t end = std::min(begin + chunk, rows);
    if (begin < end) {
      ground(begin, end, &parts[static_cast<std::size_t>(s)]);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(shards, ground_shard);
  } else {
    // Shards beyond the core count cannot run anyway; cap the transient
    // pool so an aggressive shard count costs partitioning, not OS
    // threads (ParallelFor chunks the shards over fewer workers).
    ThreadPool local(static_cast<int>(std::min<int64_t>(
        shards,
        std::max(1u, std::thread::hardware_concurrency()))));
    local.ParallelFor(shards, ground_shard);
  }

  std::vector<GroundStep> steps;
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  steps.reserve(total);
  // Deterministic merge: shard order == ascending row order == the
  // serial emission order.
  for (auto& part : parts) {
    for (GroundStep& step : part) steps.push_back(std::move(step));
  }
  return steps;
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

/// The program shell every overload fills: sizes, rule names and the
/// shared block (built from this very rule list).
GroundProgram ProgramOver(int num_tuples, int num_attrs,
                          const MasterBlock& block,
                          const std::vector<AccuracyRule>& rules) {
  if (block.num_rules() != static_cast<int>(rules.size())) {
    AbortBlockMismatch("the master block was built from another rule list");
  }
  GroundProgram prog;
  prog.num_tuples = num_tuples;
  prog.num_attrs = num_attrs;
  prog.rule_names = RuleNames(rules);
  prog.master = block.shared_from_this();
  return prog;
}

uint64_t WatchKey(AttrId attr, TermId v) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(attr)) << 32) | v;
}

/// A non-owning handle on a caller-owned dictionary (the columnar
/// overloads' private blocks intern into the relation's dictionary).
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
    const std::vector<AccuracyRule>& rules, std::shared_ptr<Dictionary> dict,
    int num_shards, ThreadPool* pool) {
  std::shared_ptr<MasterBlock> block(new MasterBlock(std::move(dict)));
  const std::vector<int64_t> starts = RowStarts(0, &masters, rules);
  block->steps_ = GroundSharded(
      starts.back(), num_shards, pool,
      [&](int64_t begin, int64_t end, std::vector<GroundStep>* out) {
        GroundMasterRows(masters, rules, starts, begin, end, out);
      });

  const std::vector<GroundStep>& steps = block->steps_;
  block->rule_begin_.assign(rules.size() + 1, 0);
  for (const GroundStep& step : steps) ++block->rule_begin_[step.rule_id + 1];
  for (std::size_t r = 0; r < rules.size(); ++r) {
    block->rule_begin_[r + 1] += block->rule_begin_[r];
  }
  // Serial interning in step order: term ids are a function of the
  // inputs alone, whatever the shard count.
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

GroundProgram Instantiate(const Relation& ie, const MasterBlock& block,
                          const std::vector<AccuracyRule>& rules) {
  return Instantiate(ie, block, rules, 1);
}

GroundProgram Instantiate(const Relation& ie, const MasterBlock& block,
                          const std::vector<AccuracyRule>& rules,
                          int num_shards, ThreadPool* pool) {
  GroundProgram prog = ProgramOver(ie.size(), ie.schema().size(), block, rules);
  const std::vector<int64_t> starts = RowStarts(ie.size(), nullptr, rules);
  prog.steps = GroundSharded(
      starts.back(), num_shards, pool,
      [&](int64_t begin, int64_t end, std::vector<GroundStep>* out) {
        GroundRows(ie, rules, starts, begin, end, out);
      });
  return prog;
}

GroundProgram Instantiate(const Relation& ie,
                          const std::vector<Relation>& masters,
                          const std::vector<AccuracyRule>& rules) {
  return Instantiate(ie, masters, rules, 1);
}

GroundProgram Instantiate(const Relation& ie,
                          const std::vector<Relation>& masters,
                          const std::vector<AccuracyRule>& rules,
                          int num_shards, ThreadPool* pool) {
  const std::shared_ptr<const MasterBlock> block = MasterBlock::Build(
      masters, rules, std::make_shared<Dictionary>(), num_shards, pool);
  return Instantiate(ie, *block, rules, num_shards, pool);
}

GroundProgram Instantiate(const ColumnarRelation& ie, const MasterBlock& block,
                          const std::vector<AccuracyRule>& rules) {
  return Instantiate(ie, block, rules, 1);
}

GroundProgram Instantiate(const ColumnarRelation& ie, const MasterBlock& block,
                          const std::vector<AccuracyRule>& rules,
                          int num_shards, ThreadPool* pool) {
  if (block.dict() != ie.mutable_dict()) {
    AbortBlockMismatch(
        "the master block interns into another dictionary than the entity");
  }
  GroundProgram prog = ProgramOver(ie.size(), ie.schema().size(), block, rules);
  // Constants are interned before the fan-out; shard workers only read
  // the dictionary (lock-free shelf loads) on order comparisons.
  const std::vector<std::vector<TermId>> const_ids =
      InternRuleConstants(rules, ie.mutable_dict());
  const std::vector<int64_t> starts = RowStarts(ie.size(), nullptr, rules);
  prog.steps = GroundSharded(
      starts.back(), num_shards, pool,
      [&](int64_t begin, int64_t end, std::vector<GroundStep>* out) {
        GroundRowsColumnar(ie, rules, const_ids, starts, begin, end, out);
      });
  return prog;
}

GroundProgram Instantiate(const ColumnarRelation& ie,
                          const std::vector<Relation>& masters,
                          const std::vector<AccuracyRule>& rules) {
  return Instantiate(ie, masters, rules, 1);
}

GroundProgram Instantiate(const ColumnarRelation& ie,
                          const std::vector<Relation>& masters,
                          const std::vector<AccuracyRule>& rules,
                          int num_shards, ThreadPool* pool) {
  const std::shared_ptr<const MasterBlock> block = MasterBlock::Build(
      masters, rules, Borrow(ie.mutable_dict()), num_shards, pool);
  return Instantiate(ie, *block, rules, num_shards, pool);
}

}  // namespace relacc
