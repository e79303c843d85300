#include "chase/chase_engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <limits>
#include <string>
#include <utility>

#include "util/thread_pool.h"

namespace relacc {

/// Mutable per-run state; one instance per Run() call so the engine itself
/// stays const and reusable. Everything is dictionary-encoded: te slots
/// are TermIds (4 bytes, trivially copyable), so the one checkpoint copy
/// per long-lived state and the rollback journal both stay small.
struct ChaseEngine::RunState {
  std::vector<PartialOrder> orders;
  std::vector<TermId> te;
  /// Provenance of each set te slot (rule id or a kBy* sentinel), for
  /// violation messages; parallel to `te`, kByDesignated where unset.
  std::vector<int32_t> te_rule;
  std::vector<int> remaining;
  std::vector<char> dead;
  std::deque<int32_t> queue;           ///< ready ground steps (Q of Fig. 4)
  std::vector<char> attr_dirty;        ///< λ re-check needed
  std::vector<AttrId> dirty_list;
  std::vector<std::pair<int, int>> scratch_pairs;
  ChaseStats stats;
  std::string violation;
  int64_t actions = 0;

  /// Composite rollback journal. Disabled — and therefore
  /// empty and copy-free — on checkpoint states; enabled exactly once per
  /// long-lived state (the engine's check probe state and its resume
  /// session state). The order-pair deltas live inside each
  /// PartialOrder's own trail; a StateMark records positions into all of
  /// them, so rollback points nest (checkpoint < session prefix < current
  /// probe). The vectors keep their capacity across brackets, so a
  /// warmed-up check or resume allocates nothing.
  struct Trail {
    bool enabled = false;
    std::vector<AttrId> te_set;          ///< te[attr] went null -> value
    std::vector<int32_t> remaining_dec;  ///< one entry per --remaining[s]
    std::vector<int32_t> dead_set;       ///< dead[s] went 0 -> 1
  };
  Trail trail;
};

ChaseEngine::~ChaseEngine() = default;

ChaseEngine::ChaseEngine(const Relation& ie, const GroundProgram* program,
                         ChaseConfig config, ThreadPool* build_pool,
                         Dictionary* dict)
    : ie_(&ie),
      schema_(&ie.schema()),
      dict_(dict),
      program_(program),
      config_(config),
      n_(ie.size()),
      num_attrs_(ie.schema().size()) {
  const MasterBlock* block = program->master.get();
  if (dict_ == nullptr && block != nullptr) dict_ = block->dict();
  if (dict_ == nullptr) {
    owned_dict_ = std::make_unique<Dictionary>();
    dict_ = owned_dict_.get();
  }
  RequireBlockDictionary();
  columns_.resize(num_attrs_);
  value_groups_.resize(num_attrs_);
  value_slot_.resize(num_attrs_);
  for (AttrId a = 0; a < num_attrs_; ++a) {
    columns_[a].reserve(n_);
    for (int i = 0; i < n_; ++i) {
      const TermId id = dict_->Intern(ie.tuple(i).at(a));
      columns_[a].push_back(id);
      if (id == kNullTermId) continue;
      auto [it, inserted] = value_slot_[a].try_emplace(
          id, static_cast<int32_t>(value_groups_[a].size()));
      if (inserted) value_groups_[a].emplace_back();
      value_groups_[a][it->second].push_back(i);
    }
  }
  BuildIndex(build_pool);
}

ChaseEngine::ChaseEngine(const ColumnarRelation& ie,
                         const GroundProgram* program, ChaseConfig config,
                         ThreadPool* build_pool)
    : cie_(&ie),
      schema_(&ie.schema()),
      dict_(ie.mutable_dict()),
      program_(program),
      config_(config),
      n_(ie.size()),
      num_attrs_(ie.schema().size()) {
  RequireBlockDictionary();
  columns_.resize(num_attrs_);
  value_groups_.resize(num_attrs_);
  value_slot_.resize(num_attrs_);
  for (AttrId a = 0; a < num_attrs_; ++a) {
    const TermColumn& col = ie.column(a);  // already this dictionary's ids
    columns_[a].assign(col.begin(), col.end());
    for (int i = 0; i < n_; ++i) {
      const TermId id = columns_[a][i];
      if (id == kNullTermId) continue;
      auto [it, inserted] = value_slot_[a].try_emplace(
          id, static_cast<int32_t>(value_groups_[a].size()));
      if (inserted) value_groups_[a].emplace_back();
      value_groups_[a][it->second].push_back(i);
    }
  }
  BuildIndex(build_pool);
}

const Relation& ChaseEngine::ie() const {
  if (ie_ != nullptr) return *ie_;
  // Columnar engine: the row adapter exists only for consumers that walk
  // tuples (top-k search-space builders); built once, thread-safely.
  std::call_once(ie_once_, [this] {
    materialized_ie_ = std::make_unique<Relation>(cie_->ToRelation());
  });
  return *materialized_ie_;
}

void ChaseEngine::RequireBlockDictionary() const {
  const MasterBlock* block = program_->master.get();
  if (block != nullptr && block->dict() != dict_) {
    std::fprintf(stderr,
                 "ChaseEngine: the program's master block interns into "
                 "another dictionary than the engine\n");
    std::abort();
  }
}

void ChaseEngine::BuildIndex(ThreadPool* build_pool) {
  te_watch_.resize(num_attrs_);
  attr_has_order_watch_.assign(num_attrs_, 0);
  const auto& steps = program_->steps;
  master_ = program_->master.get();
  remaining0_.assign(program_->size(), 0);
  step_te_.assign(steps.size(), kNullTermId);

  // Virtual numbering (see GroundProgram): rule r's steps start at
  // vstart_[r] — its own steps first, then its block steps (a rule has
  // one kind or the other). The block's counters are copied per rule;
  // its watchers stay in the block, keyed by value.
  if (master_ != nullptr) {
    const int rules = master_->num_rules();
    local_begin_.assign(static_cast<std::size_t>(rules) + 1, 0);
    for (const GroundStep& step : steps) ++local_begin_[step.rule_id + 1];
    vstart_.assign(static_cast<std::size_t>(rules) + 1, 0);
    const std::vector<int32_t>& sizes = master_->residual_sizes();
    for (int r = 0; r < rules; ++r) {
      local_begin_[r + 1] += local_begin_[r];
      vstart_[r] = local_begin_[r] + master_->rule_begin(r);
      const int32_t own = local_begin_[r + 1] - local_begin_[r];
      std::copy(sizes.begin() + master_->rule_begin(r),
                sizes.begin() + master_->rule_begin(r + 1),
                remaining0_.begin() + vstart_[r] + own);
    }
    vstart_[rules] = static_cast<int32_t>(program_->size());
  }
  const auto vid = [&](int32_t k) {
    return master_ == nullptr ? k : k + master_->rule_begin(steps[k].rule_id);
  };
  for (int32_t k = 0; k < static_cast<int32_t>(steps.size()); ++k) {
    remaining0_[vid(k)] = static_cast<int>(steps[k].residual.size());
  }
  for (int32_t s = 0; s < static_cast<int32_t>(remaining0_.size()); ++s) {
    if (remaining0_[s] == 0) ready0_.push_back(s);
  }

  // Watch lists keyed by (step, residual predicate) — the Γ-sized part
  // of the index. A shard scans a contiguous step range into private
  // maps/lists; the merge appends them in shard order, so every per-key
  // watcher list comes out in ascending step order exactly as the serial
  // scan would emit it. Below the cutoff (or with no pool) the fan-out
  // would cost more than the scan. Residual te constants (and kSetTe
  // payloads) are interned here once, so the chase loop compares ids;
  // Dictionary::Intern is thread-safe, which the sharded build leans on.
  struct WatchShard {
    std::unordered_map<uint64_t, std::vector<int32_t>> order_watch;
    std::vector<std::vector<TeWatch>> te_watch;
    std::vector<char> attr_has_order_watch;
  };
  const auto scan_steps = [&](int32_t begin, int32_t end, auto&& order_emit,
                              auto&& te_emit) {
    for (int32_t k = begin; k < end; ++k) {
      const GroundStep& step = steps[k];
      const int32_t s = vid(k);
      if (step.kind == GroundStep::Kind::kSetTe) {
        step_te_[k] = dict_->Intern(step.te_value);
      }
      for (int32_t p = 0; p < static_cast<int32_t>(step.residual.size());
           ++p) {
        const GroundPredicate& g = step.residual[p];
        if (g.kind == GroundPredicate::Kind::kOrderPair) {
          order_emit(g, s);
        } else {
          te_emit(g, s, p);
        }
      }
    }
  };
  const auto make_watch = [&](const GroundPredicate& g, int32_t s, int32_t p) {
    return TeWatch{s, p, g.op, dict_->Intern(g.constant)};
  };
  constexpr std::size_t kParallelBuildCutoff = 2048;
  const int shards =
      build_pool != nullptr && steps.size() >= kParallelBuildCutoff
          ? std::min<int>(build_pool->num_threads(),
                          static_cast<int>(steps.size()))
          : 1;
  if (shards <= 1) {
    scan_steps(0, static_cast<int32_t>(steps.size()),
               [&](const GroundPredicate& g, int32_t s) {
                 order_watch_[OrderKey(g.attr, g.i, g.j)].push_back(s);
                 attr_has_order_watch_[g.attr] = 1;
               },
               [&](const GroundPredicate& g, int32_t s, int32_t p) {
                 te_watch_[g.attr].push_back(make_watch(g, s, p));
               });
    return;
  }
  std::vector<WatchShard> parts(static_cast<std::size_t>(shards));
  const int64_t chunk =
      (static_cast<int64_t>(steps.size()) + shards - 1) / shards;
  build_pool->ParallelFor(shards, [&](int64_t w) {
    WatchShard& part = parts[static_cast<std::size_t>(w)];
    part.te_watch.resize(num_attrs_);
    part.attr_has_order_watch.assign(num_attrs_, 0);
    const int32_t begin = static_cast<int32_t>(w * chunk);
    const int32_t end = static_cast<int32_t>(
        std::min<int64_t>((w + 1) * chunk, steps.size()));
    scan_steps(begin, end,
               [&](const GroundPredicate& g, int32_t s) {
                 part.order_watch[OrderKey(g.attr, g.i, g.j)].push_back(s);
                 part.attr_has_order_watch[g.attr] = 1;
               },
               [&](const GroundPredicate& g, int32_t s, int32_t p) {
                 part.te_watch[g.attr].push_back(make_watch(g, s, p));
               });
  });
  for (WatchShard& part : parts) {
    for (auto& [key, watchers] : part.order_watch) {
      std::vector<int32_t>& dst = order_watch_[key];
      dst.insert(dst.end(), watchers.begin(), watchers.end());
    }
    for (AttrId a = 0; a < num_attrs_; ++a) {
      te_watch_[a].insert(te_watch_[a].end(), part.te_watch[a].begin(),
                          part.te_watch[a].end());
      if (part.attr_has_order_watch[a]) attr_has_order_watch_[a] = 1;
    }
  }
}

ChaseEngine::StepRef ChaseEngine::StepAt(int32_t s) const {
  if (master_ == nullptr) return {&program_->steps[s], step_te_[s]};
  // The rule whose virtual range holds s (empty rules share their
  // successor's start, so upper_bound skips them).
  const int r = static_cast<int>(
      std::upper_bound(vstart_.begin(), vstart_.end(), s) - vstart_.begin() -
      1);
  const int32_t off = s - vstart_[r];
  const int32_t own = local_begin_[r + 1] - local_begin_[r];
  if (off < own) {
    const int32_t k = local_begin_[r] + off;
    return {&program_->steps[k], step_te_[k]};
  }
  const int32_t b = master_->rule_begin(r) + (off - own);
  return {&master_->steps()[b], master_->step_te(b)};
}

void ChaseEngine::Satisfy(RunState* st, int32_t s) const {
  if (st->trail.enabled) st->trail.remaining_dec.push_back(s);
  if (--st->remaining[s] == 0) st->queue.push_back(s);
}

void ChaseEngine::EmitOrderEvent(RunState* st, AttrId attr, int i,
                                 int j) const {
  auto it = order_watch_.find(OrderKey(attr, i, j));
  if (it == order_watch_.end()) return;
  for (int32_t s : it->second) {
    if (st->dead[s]) continue;
    Satisfy(st, s);
  }
}

void ChaseEngine::EmitTeEvent(RunState* st, AttrId attr, TermId v) const {
  // The block's watchers of exactly (attr, v) hold; they are merged with
  // the entity's own watchers of attr in virtual-id order, so steps
  // become ready in the order a flat scan of Γ would queue them. Block
  // watchers of other values are never visited and never marked dead:
  // te[attr] is immutable once set, so their predicate can never hold and
  // their step can never reach remaining == 0.
  const std::span<const MasterBlock::Watch> block =
      master_ != nullptr ? master_->Watchers(attr, v)
                         : std::span<const MasterBlock::Watch>();
  std::size_t next = 0;
  const auto satisfy_block_before = [&](int32_t limit) {
    for (; next < block.size(); ++next) {
      const int32_t s = block[next].step + local_begin_[block[next].rule];
      if (s >= limit) return;
      // Only an imported image from a flat engine marks master steps dead.
      if (!st->dead[s]) Satisfy(st, s);
    }
  };
  for (const TeWatch& w : te_watch_[attr]) {
    const int32_t s = w.step;
    satisfy_block_before(s);
    if (st->dead[s]) continue;
    // Interning is canonical (Value equality == id equality), so the
    // dominant kEq/kNe compares run on ids; order comparisons — rare in
    // residuals — fall back to the dictionary values.
    bool holds;
    switch (w.op) {
      case CompareOp::kEq:
        holds = v == w.constant;
        break;
      case CompareOp::kNe:
        holds = v != w.constant;
        break;
      default:
        holds = EvalCompare(w.op, dict_->value(v), dict_->value(w.constant));
        break;
    }
    if (holds) {
      Satisfy(st, s);
    } else {
      // te[attr] is immutable once set, so the predicate is permanently
      // false and the step can never fire.
      if (st->trail.enabled) st->trail.dead_set.push_back(s);
      st->dead[s] = 1;
    }
  }
  satisfy_block_before(std::numeric_limits<int32_t>::max());
}

std::string ChaseEngine::RuleNameOf(int32_t rule_id) const {
  if (rule_id == kByLambda) return "the lambda greatest-element rule";
  if (rule_id == kByAxiom) return "a built-in axiom";
  if (rule_id == kByDesignated) return "a designated target value";
  if (rule_id >= 0 &&
      rule_id < static_cast<int32_t>(program_->rule_names.size()) &&
      !program_->rule_names[rule_id].empty()) {
    return "rule '" + program_->rule_names[rule_id] + "'";
  }
  return "rule #" + std::to_string(rule_id);
}

bool ChaseEngine::ApplyAddPair(RunState* st, AttrId attr, int i, int j,
                               int32_t rule_id) const {
  st->scratch_pairs.clear();
  bool conflict = false;
  if (!st->orders[attr].AddPair(i, j, &st->scratch_pairs, &conflict)) {
    return true;  // already present: not a chase step
  }
  st->stats.pairs_derived += static_cast<int64_t>(st->scratch_pairs.size());
  if (conflict) {
    // Cross-reference the static analyzer: find the ground step that
    // derives the opposite pair (preferring one from another rule) so
    // the message names the conflicting rule pair like `relacc lint`'s
    // cr-order-conflict does.
    int32_t opposite = rule_id;
    bool found = false;
    for (const GroundStep& step : program_->steps) {
      if (step.kind != GroundStep::Kind::kAddOrder || step.attr != attr ||
          step.i != j || step.j != i) {
        continue;
      }
      if (!found || (opposite == rule_id && step.rule_id != rule_id)) {
        opposite = step.rule_id;
        found = true;
      }
      if (opposite != rule_id) break;
    }
    st->violation = "order conflict on attribute " + schema_->name(attr) +
                    " (pair derived by " + RuleNameOf(rule_id);
    if (found) {
      st->violation += ", opposite order derivable by " + RuleNameOf(opposite);
    }
    st->violation +=
        "); `relacc lint` flags such rule pairs as cr-order-conflict";
    return false;
  }
  // EmitOrderEvent only touches counters/queue, never orders, so the
  // scratch list is stable while we emit from it. Attributes no ground
  // step watches (common for the attributes top-k fills in) skip event
  // emission wholesale — anchors there can derive tens of thousands of
  // pairs per candidate check.
  if (attr_has_order_watch_[attr]) {
    for (const auto& [a, b] : st->scratch_pairs) {
      EmitOrderEvent(st, attr, a, b);
    }
  }
  if (!st->attr_dirty[attr]) {
    st->attr_dirty[attr] = 1;
    st->dirty_list.push_back(attr);
  }
  return true;
}

bool ChaseEngine::ApplySetTe(RunState* st, AttrId attr, TermId v,
                             int32_t rule_id) const {
  TermId& slot = st->te[attr];
  if (slot != kNullTermId) {
    if (slot == v) return true;  // no-op
    st->violation = "conflicting target values for attribute " +
                    schema_->name(attr) + ": " + TermToString(slot) +
                    " (set by " + RuleNameOf(st->te_rule[attr]) + ") vs " +
                    TermToString(v) + " (from " + RuleNameOf(rule_id) +
                    "); `relacc lint` flags such rule pairs as "
                    "cr-assign-conflict";
    return false;
  }
  if (st->trail.enabled) st->trail.te_set.push_back(attr);
  slot = v;
  st->te_rule[attr] = rule_id;
  EmitTeEvent(st, attr, v);
  if (config_.builtin_axioms) {
    // Axiom ϕ8: the defined target value anchors the top of ⪯_attr. The
    // anchored pairs inherit the setter's provenance — a conflict they
    // cause traces back to the rule that set te[attr].
    auto it = value_slot_[attr].find(v);
    if (it != value_slot_[attr].end()) {
      for (int j : value_groups_[attr][it->second]) {
        for (int i = 0; i < n_; ++i) {
          if (i == j) continue;
          if (!ApplyAddPair(st, attr, i, j, rule_id)) return false;
        }
      }
    }
  }
  return true;
}

bool ChaseEngine::FlushLambda(RunState* st) const {
  // λ (Sec. 2.2): whenever ⪯_A gains a greatest element with a non-null
  // value, te[A] takes that value; disagreement with an already-set te[A]
  // is an invalid step. Processing may dirty further attributes (the ϕ8
  // anchor), hence the worklist.
  while (!st->dirty_list.empty()) {
    const AttrId attr = st->dirty_list.back();
    st->dirty_list.pop_back();
    st->attr_dirty[attr] = 0;
    const int g = st->orders[attr].GreatestElement();
    if (g < 0) continue;
    const TermId val = columns_[attr][g];
    if (val == kNullTermId) continue;  // never instantiate te with null
    if (st->te[attr] == kNullTermId) {
      if (!ApplySetTe(st, attr, val, kByLambda)) return false;
    } else if (st->te[attr] != val) {
      st->violation = "lambda would overwrite target attribute " +
                      schema_->name(attr) + ": " +
                      TermToString(st->te[attr]) + " (set by " +
                      RuleNameOf(st->te_rule[attr]) + ") vs " +
                      TermToString(val) +
                      " (the greatest element of the derived order)";
      return false;
    }
  }
  return true;
}

std::string ChaseEngine::TermToString(TermId id) const {
  return dict_->value(id).ToString();
}

Tuple ChaseEngine::MaterializeTe(const std::vector<TermId>& te) const {
  std::vector<Value> values;
  values.reserve(num_attrs_);
  for (AttrId a = 0; a < num_attrs_; ++a) {
    values.push_back(MaterializeAs(*dict_, te[a], schema_->type(a)));
  }
  return Tuple(std::move(values));
}

bool ChaseEngine::InitState(RunState* st_ptr, const Tuple& initial_te) const {
  RunState& st = *st_ptr;
  st.te.assign(num_attrs_, kNullTermId);
  st.te_rule.assign(num_attrs_, kByDesignated);
  st.remaining = remaining0_;
  st.dead.assign(program_->size(), 0);
  // Every attribute starts λ-dirty: a singleton instance has a greatest
  // element before any pair is derived (its only tuple).
  st.attr_dirty.assign(num_attrs_, 1);
  st.orders.reserve(num_attrs_);
  for (AttrId a = 0; a < num_attrs_; ++a) {
    st.orders.emplace_back(columns_[a]);
    st.dirty_list.push_back(a);
  }
  st.stats.ground_steps = static_cast<int64_t>(program_->size());

  // Steps with empty residuals are ready immediately (initial Q).
  st.queue.assign(ready0_.begin(), ready0_.end());

  bool ok = true;
  if (config_.builtin_axioms) {
    // Axiom ϕ9 (equal values tie) and ϕ7 (null has lowest accuracy).
    for (AttrId a = 0; a < num_attrs_ && ok; ++a) {
      std::vector<int> nulls;
      for (int i = 0; i < n_; ++i) {
        if (columns_[a][i] == kNullTermId) nulls.push_back(i);
      }
      // ϕ9 over non-null duplicates, in first-seen group order (stable
      // across the row and columnar construction paths).
      for (const std::vector<int>& indices : value_groups_[a]) {
        for (std::size_t x = 0; x < indices.size() && ok; ++x) {
          for (std::size_t y = x + 1; y < indices.size() && ok; ++y) {
            ok = ApplyAddPair(&st, a, indices[x], indices[y], kByAxiom) &&
                 ApplyAddPair(&st, a, indices[y], indices[x], kByAxiom);
          }
        }
        if (!ok) break;
      }
      // ϕ9 over nulls (null = null holds) and ϕ7 null -> non-null.
      for (std::size_t x = 0; x < nulls.size() && ok; ++x) {
        for (std::size_t y = x + 1; y < nulls.size() && ok; ++y) {
          ok = ApplyAddPair(&st, a, nulls[x], nulls[y], kByAxiom) &&
               ApplyAddPair(&st, a, nulls[y], nulls[x], kByAxiom);
        }
      }
      for (std::size_t x = 0; x < nulls.size() && ok; ++x) {
        for (int j = 0; j < n_ && ok; ++j) {
          if (columns_[a][j] != kNullTermId) {
            ok = ApplyAddPair(&st, a, nulls[x], j, kByAxiom);
          }
        }
      }
    }
  }
  // Designated initial target values (all-null for IsCR proper; complete
  // for the candidate-target check; partial after user interaction).
  for (AttrId a = 0; a < num_attrs_ && ok; ++a) {
    if (a < initial_te.size() && !initial_te.at(a).is_null()) {
      ok = ApplySetTe(&st, a, dict_->Intern(initial_te.at(a)), kByDesignated);
    }
  }
  if (ok) ok = FlushLambda(&st);
  return ok;
}

bool ChaseEngine::DrainQueue(RunState* st_ptr) const {
  RunState& st = *st_ptr;
  // Main loop of IsCR (Fig. 4 lines 4-13).
  while (!st.queue.empty()) {
    if (config_.max_actions >= 0 && ++st.actions > config_.max_actions) {
      st.violation = "action budget exceeded";
      return false;
    }
    const int32_t s = st.queue.front();
    st.queue.pop_front();
    if (st.dead[s]) continue;
    const StepRef ref = StepAt(s);
    const GroundStep& step = *ref.step;
    bool applied_ok;
    if (step.kind == GroundStep::Kind::kAddOrder) {
      applied_ok = ApplyAddPair(&st, step.attr, step.i, step.j, step.rule_id);
    } else {
      applied_ok = ApplySetTe(&st, step.attr, ref.te, step.rule_id);
    }
    if (applied_ok) applied_ok = FlushLambda(&st);
    if (!applied_ok) return false;
    ++st.stats.steps_applied;
  }
  return true;
}

ChaseOutcome ChaseEngine::Run(const Tuple& initial_te) const {
  RunState st;
  const bool ok = InitState(&st, initial_te) && DrainQueue(&st);
  if (!ok) {
    ChaseOutcome out;
    out.church_rosser = false;
    out.stats = st.stats;
    out.violation = st.violation;
    return out;
  }
  ChaseOutcome out;
  out.church_rosser = true;
  out.target = MaterializeTe(st.te);
  out.stats = st.stats;
  if (config_.keep_orders) out.orders = std::move(st.orders);
  return out;
}

void ChaseEngine::AdoptCheckpointFrom(const ChaseEngine& other) {
  if (!other.EnsureCheckpoint()) {
    checkpoint_failed_ = true;
    checkpoint_violation_ = other.checkpoint_violation_;
    checkpoint_failed_stats_ = other.checkpoint_failed_stats_;
    return;
  }
  checkpoint_ = other.checkpoint_;  // pointer share, not a deep copy
  checkpoint_failed_ = false;
  // Both rebuilt over the adopted checkpoint on demand.
  probe_state_.reset();
  session_state_.reset();
}

bool ChaseEngine::EnsureCheckpoint() const {
  if (checkpoint_ == nullptr && !checkpoint_failed_) {
    auto base = std::make_unique<RunState>();
    Tuple all_null(std::vector<Value>(num_attrs_, Value::Null()));
    if (InitState(base.get(), all_null) && DrainQueue(base.get())) {
      // Frozen from here on: CheckCandidate and ResumeWith work on
      // long-lived copies of it; workers share it by pointer.
      checkpoint_ = std::shared_ptr<const RunState>(std::move(base));
    } else {
      checkpoint_failed_ = true;  // base spec is not Church-Rosser
      checkpoint_violation_ = base->violation;
      checkpoint_failed_stats_ = base->stats;
    }
  }
  return !checkpoint_failed_;
}

bool ChaseEngine::ExportCheckpoint(ChaseCheckpoint* out) const {
  *out = ChaseCheckpoint();
  if (!EnsureCheckpoint()) {
    out->ok = false;
    out->violation = checkpoint_violation_;
    out->steps_applied = checkpoint_failed_stats_.steps_applied;
    out->pairs_derived = checkpoint_failed_stats_.pairs_derived;
    return false;
  }
  const RunState& st = *checkpoint_;
  out->ok = true;
  out->te = st.te;
  out->te_rule = st.te_rule;
  out->remaining.assign(st.remaining.begin(), st.remaining.end());
  out->dead.assign(st.dead.begin(), st.dead.end());
  out->order_succ.reserve(st.orders.size());
  for (const PartialOrder& order : st.orders) {
    out->order_succ.push_back(order.successor_words());
  }
  out->steps_applied = st.stats.steps_applied;
  out->pairs_derived = st.stats.pairs_derived;
  out->actions = st.actions;
  return true;
}

Status ChaseEngine::ImportCheckpoint(const ChaseCheckpoint& image) {
  if (!image.ok) {
    checkpoint_ = nullptr;
    checkpoint_failed_ = true;
    checkpoint_violation_ = image.violation;
    checkpoint_failed_stats_ = ChaseStats{};
    checkpoint_failed_stats_.ground_steps =
        static_cast<int64_t>(program_->size());
    checkpoint_failed_stats_.steps_applied = image.steps_applied;
    checkpoint_failed_stats_.pairs_derived = image.pairs_derived;
    probe_state_.reset();
    session_state_.reset();
    return Status::OK();
  }
  const std::size_t steps = program_->size();
  const auto attrs = static_cast<std::size_t>(num_attrs_);
  if (image.te.size() != attrs || image.te_rule.size() != attrs ||
      image.order_succ.size() != attrs || image.remaining.size() != steps ||
      image.dead.size() != steps) {
    return Status::DataLoss(
        "checkpoint image does not match the program/instance shape");
  }
  const std::size_t words =
      static_cast<std::size_t>(n_) *
      ((static_cast<std::size_t>(n_) + 63) / 64);
  for (const std::vector<uint64_t>& succ : image.order_succ) {
    if (succ.size() != words) {
      return Status::DataLoss("checkpoint order matrix has the wrong size");
    }
  }
  for (const TermId id : image.te) {
    if (id >= dict_->size()) {
      return Status::DataLoss("checkpoint te id outside the dictionary");
    }
  }
  auto st = std::make_unique<RunState>();
  st->te = image.te;
  st->te_rule = image.te_rule;
  st->remaining.assign(image.remaining.begin(), image.remaining.end());
  st->dead.assign(image.dead.begin(), image.dead.end());
  st->orders.reserve(attrs);
  for (AttrId a = 0; a < num_attrs_; ++a) {
    st->orders.push_back(PartialOrder::RestoreClosed(
        columns_[a], image.order_succ[static_cast<std::size_t>(a)].data()));
  }
  // The image was taken at a drained state: queue empty, nothing λ-dirty,
  // trail disabled — the invariants EnsureCheckpoint leaves behind.
  st->attr_dirty.assign(attrs, 0);
  st->stats.ground_steps = static_cast<int64_t>(steps);
  st->stats.steps_applied = image.steps_applied;
  st->stats.pairs_derived = image.pairs_derived;
  st->actions = image.actions;
  checkpoint_ = std::shared_ptr<const RunState>(std::move(st));
  checkpoint_failed_ = false;
  checkpoint_violation_.clear();
  probe_state_.reset();
  session_state_.reset();
  return Status::OK();
}

ChaseEngine::RunState* ChaseEngine::EnsureProbeState() const {
  if (probe_state_ == nullptr) {
    probe_state_ = std::make_unique<RunState>(*checkpoint_);
    for (PartialOrder& order : probe_state_->orders) order.EnableTrail();
    probe_state_->trail.enabled = true;
  }
  return probe_state_.get();
}

ChaseEngine::RunState* ChaseEngine::EnsureSessionState() const {
  if (session_state_ == nullptr) {
    session_state_ = std::make_unique<RunState>(*checkpoint_);
    for (PartialOrder& order : session_state_->orders) order.EnableTrail();
    session_state_->trail.enabled = true;
    session_te_.assign(num_attrs_, kNullTermId);
    MarkState(*session_state_, &session_base_);
    MarkState(*session_state_, &session_mark_);
  }
  return session_state_.get();
}

bool ChaseEngine::ExtendsSession(const Tuple& extra_te) const {
  for (AttrId a = 0; a < num_attrs_; ++a) {
    const TermId applied = session_te_[a];
    if (applied == kNullTermId) continue;
    // Id equality is value equality: Intern returns the applied id iff
    // the revision carries an ==-equal value.
    if (a >= extra_te.size() || extra_te.at(a).is_null() ||
        dict_->Intern(extra_te.at(a)) != applied) {
      return false;
    }
  }
  return true;
}

bool ChaseEngine::ContinueWith(RunState* st, const Tuple& te) const {
  bool ok = true;
  for (AttrId a = 0; a < num_attrs_ && ok; ++a) {
    if (a >= te.size() || te.at(a).is_null()) continue;
    ok = ApplySetTe(st, a, dict_->Intern(te.at(a)), kByDesignated);
  }
  if (ok) ok = FlushLambda(st);
  if (ok) ok = DrainQueue(st);
  return ok;
}

void ChaseEngine::MarkState(const RunState& st, StateMark* mark) const {
  const RunState::Trail& trail = st.trail;
  mark->te_set = trail.te_set.size();
  mark->remaining_dec = trail.remaining_dec.size();
  mark->dead_set = trail.dead_set.size();
  mark->order_marks.resize(num_attrs_);
  for (AttrId a = 0; a < num_attrs_; ++a) {
    mark->order_marks[a] = st.orders[a].MarkTrail();
  }
  mark->stats = st.stats;
  mark->actions = st.actions;
}

void ChaseEngine::RollbackTo(RunState* st, const StateMark& mark) const {
  RunState::Trail& trail = st->trail;
  while (trail.te_set.size() > mark.te_set) {
    st->te[trail.te_set.back()] = kNullTermId;
    st->te_rule[trail.te_set.back()] = kByDesignated;
    trail.te_set.pop_back();
  }
  while (trail.remaining_dec.size() > mark.remaining_dec) {
    ++st->remaining[trail.remaining_dec.back()];
    trail.remaining_dec.pop_back();
  }
  while (trail.dead_set.size() > mark.dead_set) {
    st->dead[trail.dead_set.back()] = 0;
    trail.dead_set.pop_back();
  }
  // An aborted continuation can leave ready steps queued and attributes
  // λ-dirty; a successful one drained both. Either way every mark is
  // taken at a drained state, so clearing restores it.
  st->queue.clear();
  for (AttrId a : st->dirty_list) st->attr_dirty[a] = 0;
  st->dirty_list.clear();
  for (AttrId a = 0; a < num_attrs_; ++a) {
    st->orders[a].UndoTo(mark.order_marks[a]);
  }
  st->stats = mark.stats;
  st->actions = mark.actions;
  st->violation.clear();
}

bool ChaseEngine::CheckCandidate(const Tuple& t) const {
  if (!EnsureCheckpoint()) return false;
  // Chase forward on the long-lived copy of the checkpoint in place, then
  // undo exactly what this probe changed — O(delta), not O(state).
  RunState* st = EnsureProbeState();
  MarkState(*st, &probe_mark_);
  const bool ok = ContinueWith(st, t);
  RollbackTo(st, probe_mark_);
  return ok;
}

namespace {

/// Per-call stats of a resume: only the work done beyond `base` (the
/// session state the call started from). ground_steps is |Γ|, a program
/// constant, not additive.
ChaseStats ResumeDelta(const ChaseStats& now, const ChaseStats& base) {
  ChaseStats delta;
  delta.ground_steps = now.ground_steps;
  delta.steps_applied = now.steps_applied - base.steps_applied;
  delta.pairs_derived = now.pairs_derived - base.pairs_derived;
  return delta;
}

}  // namespace

ChaseOutcome ChaseEngine::ResumeWith(const Tuple& extra_te) const {
  ChaseOutcome out;
  if (!EnsureCheckpoint()) {
    out.church_rosser = false;
    out.violation = checkpoint_violation_;
    out.stats = checkpoint_failed_stats_;
    return out;
  }
  // Resume on the persistent session state. When `extra_te`
  // extends the applied prefix — the framework's case: revisions only
  // accumulate — the continuation starts from the last terminal instance
  // and chases in just the new designated values, O(changes of this
  // revision). Sound for the same reason CheckCandidate's continuation
  // is: orders and te grow monotonically and the chase is Church-Rosser,
  // so the prefix's terminal instance is an intermediate state of the
  // extended chase. Otherwise the session rolls back to the checkpoint
  // through its trail first.
  RunState* st = EnsureSessionState();
  if (!ExtendsSession(extra_te)) {
    RollbackTo(st, session_base_);
    session_te_.assign(num_attrs_, kNullTermId);
    MarkState(*st, &session_mark_);
  }
  const ChaseStats before = st->stats;
  const bool ok = ContinueWith(st, extra_te);
  out.stats = ResumeDelta(st->stats, before);
  if (ok) {
    out.church_rosser = true;
    out.target = MaterializeTe(st->te);
    // Materializing orders copies the bit-matrices — the one O(state)
    // cost left, paid only when the caller asked to keep them. The
    // copies skip the session's journal: callers get the same trail-free
    // orders a from-scratch run returns.
    if (config_.keep_orders) {
      out.orders.reserve(st->orders.size());
      for (const PartialOrder& order : st->orders) {
        out.orders.push_back(order.CopyWithoutTrail());
      }
    }
    // The successful continuation becomes the new session prefix.
    std::vector<TermId> applied(num_attrs_, kNullTermId);
    for (AttrId a = 0; a < num_attrs_; ++a) {
      if (a < extra_te.size() && !extra_te.at(a).is_null()) {
        applied[a] = dict_->Intern(extra_te.at(a));
      }
    }
    session_te_ = std::move(applied);
    MarkState(*st, &session_mark_);
  } else {
    out.church_rosser = false;
    out.violation = st->violation;
    // Extract first, then restore the last valid session state.
    RollbackTo(st, session_mark_);
  }
  return out;
}

ChaseOutcome ChaseEngine::RunFromCheckpoint() const {
  ChaseOutcome out;
  if (!EnsureCheckpoint()) {
    out.church_rosser = false;
    out.violation = checkpoint_violation_;
    out.stats = checkpoint_failed_stats_;
    return out;
  }
  out.church_rosser = true;
  out.target = MaterializeTe(checkpoint_->te);
  out.stats = checkpoint_->stats;
  if (config_.keep_orders) out.orders = checkpoint_->orders;
  return out;
}

ChaseOutcome ChaseEngine::RunFromInitial() const {
  return Run(Tuple(std::vector<Value>(num_attrs_, Value::Null())));
}

ChaseOutcome IsCR(const Specification& spec) {
  const GroundProgram program =
      Instantiate(spec.ie, spec.masters, spec.rules);
  ChaseEngine engine(spec.ie, &program, spec.config);
  return engine.RunFromInitial();
}

bool CheckCandidateTarget(const ChaseEngine& engine, const Tuple& t) {
  // All attributes of t are non-null and te attributes are immutable, so a
  // violation-free continuation necessarily deduces t itself.
  return engine.CheckCandidate(t);
}

}  // namespace relacc
