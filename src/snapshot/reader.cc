#include "snapshot/reader.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <utility>

namespace relacc {
namespace snapshot {

namespace {

constexpr uint32_t kMaxSectionType = 7;
constexpr uint32_t kMaxSections = 64;  // sanity bound, format has 7

/// Chunk size for parallel CRC verification at open. Large enough that
/// per-chunk thread overhead vanishes, small enough that a ~300 MB
/// program section splits across every worker.
constexpr uint64_t kCrcChunkBytes = uint64_t{16} << 20;

Status Corrupt(const std::string& what) {
  return Status::DataLoss("snapshot: " + what);
}

/// Pointers into the mapping for one encoded columnar relation; decoded
/// once, consumed either zero-copy (masters) or by an owning copy
/// (the entity instance).
struct ColumnarView {
  Schema schema;
  std::size_t rows = 0;
  std::vector<const TermId*> columns;
  std::vector<const uint64_t*> null_words;
  const int64_t* row_ids = nullptr;
  const int32_t* row_sources = nullptr;
  const int32_t* row_snapshots = nullptr;
};

bool DecodeSchema(ByteCursor* cur, Schema* out) {
  const uint32_t arity = cur->U32();
  if (!cur->ok() || arity > 4096) return false;
  std::vector<Attribute> attrs;
  attrs.reserve(arity);
  for (uint32_t a = 0; a < arity; ++a) {
    Attribute attr;
    attr.name = cur->Str();
    const uint8_t type = cur->U8();
    if (!cur->ok() || type > static_cast<uint8_t>(ValueType::kBool)) {
      return false;
    }
    attr.type = static_cast<ValueType>(type);
    attrs.push_back(std::move(attr));
  }
  *out = Schema(std::move(attrs));
  return cur->ok();
}

bool DecodeColumnarView(ByteCursor* cur, ColumnarView* out) {
  if (!DecodeSchema(cur, &out->schema)) return false;
  const uint64_t rows = cur->U64();
  if (!cur->ok() || rows > (uint64_t{1} << 31)) return false;
  out->rows = static_cast<std::size_t>(rows);
  const int arity = out->schema.size();
  out->columns.resize(static_cast<std::size_t>(arity));
  out->null_words.resize(static_cast<std::size_t>(arity));
  for (int a = 0; a < arity; ++a) {
    cur->AlignTo(8);
    out->columns[static_cast<std::size_t>(a)] =
        cur->Array<TermId>(out->rows);
  }
  const std::size_t words = (out->rows + 63) / 64;
  for (int a = 0; a < arity; ++a) {
    cur->AlignTo(8);
    out->null_words[static_cast<std::size_t>(a)] =
        cur->Array<uint64_t>(words);
  }
  cur->AlignTo(8);
  out->row_ids = cur->Array<int64_t>(out->rows);
  cur->AlignTo(8);
  out->row_sources = cur->Array<int32_t>(out->rows);
  cur->AlignTo(4);
  out->row_snapshots = cur->Array<int32_t>(out->rows);
  return cur->ok();
}

bool DecodeCompareOp(uint8_t raw, CompareOp* out) {
  if (raw > static_cast<uint8_t>(CompareOp::kGe)) return false;
  *out = static_cast<CompareOp>(raw);
  return true;
}

}  // namespace

Result<std::unique_ptr<SnapshotReader>> SnapshotReader::Open(
    const std::string& path) {
  auto file_res = MmapFile::Open(path);
  if (!file_res.ok()) return file_res.status();
  std::shared_ptr<MmapFile> file = std::move(file_res).value();
  const uint8_t* data = file->data();
  const std::size_t size = file->size();

  if (size < kHeaderBytes) {
    return Corrupt("file truncated before the header (" +
                   std::to_string(size) + " bytes)");
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(
        "snapshot: " + path + " is not a relacc snapshot (bad magic)");
  }
  ByteCursor head(data + sizeof(kMagic), kHeaderBytes - sizeof(kMagic));
  const uint32_t version = head.U32();
  const uint32_t section_count = head.U32();
  const uint64_t stated_size = head.U64();
  const uint32_t stated_crc = head.U32();
  if (version != kFormatVersion) {
    return Status::InvalidArgument(
        "snapshot: format version " + std::to_string(version) +
        " is not supported (this build reads version " +
        std::to_string(kFormatVersion) + "); rebuild the artifact with "
        "`relacc snapshot build`");
  }
  if (section_count == 0 || section_count > kMaxSections) {
    return Corrupt("implausible section count " +
                   std::to_string(section_count));
  }
  if (stated_size != size) {
    return Corrupt("file size " + std::to_string(size) +
                   " does not match the header (" +
                   std::to_string(stated_size) + "); truncated?");
  }
  const std::size_t table_bytes = kSectionEntryBytes * section_count;
  if (size - kHeaderBytes < table_bytes) {
    return Corrupt("file truncated inside the section table");
  }
  uint32_t crc = Crc32(data, 24);
  crc = Crc32(data + kHeaderBytes, table_bytes, crc);
  if (crc != stated_crc) {
    return Corrupt("header/table CRC mismatch");
  }

  auto reader = std::unique_ptr<SnapshotReader>(new SnapshotReader());
  reader->file_ = std::move(file);
  reader->by_type_.resize(kMaxSectionType + 1);
  std::vector<bool> seen(kMaxSectionType + 1, false);
  ByteCursor table(data + kHeaderBytes, table_bytes);
  for (uint32_t s = 0; s < section_count; ++s) {
    SectionEntry e;
    const uint32_t type = table.U32();
    table.U32();  // reserved
    e.offset = table.U64();
    e.size = table.U64();
    e.crc = table.U32();
    table.U32();  // reserved
    if (type == 0 || type > kMaxSectionType) {
      return Corrupt("unknown section type " + std::to_string(type));
    }
    e.type = static_cast<SectionType>(type);
    if (seen[type]) {
      return Corrupt("duplicate section type " + std::to_string(type));
    }
    seen[type] = true;
    if (e.offset < kHeaderBytes + table_bytes || e.offset > size ||
        size - e.offset < e.size) {
      return Corrupt("section " + std::to_string(type) +
                     " extends past the end of the file");
    }
    reader->by_type_[type] = e;
    reader->info_.sections.push_back(e);
  }
  for (uint32_t t = 1; t <= kMaxSectionType; ++t) {
    if (!seen[t]) {
      return Corrupt("required section type " + std::to_string(t) +
                     " is missing");
    }
  }

  // Content pass: verify every section CRC. Open is CRC-bound on large
  // artifacts (the program section alone can run to hundreds of MB), so
  // payloads are cut into kCrcChunkBytes chunks fanned across threads
  // and the per-chunk CRCs are stitched back with Crc32Combine. Small
  // files never leave this thread.
  struct Chunk {
    uint64_t offset;
    uint64_t size;
    uint32_t crc;
  };
  std::vector<Chunk> chunks;
  for (const SectionEntry& e : reader->info_.sections) {
    uint64_t off = 0;
    do {
      const uint64_t len = std::min<uint64_t>(kCrcChunkBytes, e.size - off);
      chunks.push_back(Chunk{e.offset + off, len, 0});
      off += len;
    } while (off < e.size);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t workers = std::min<std::size_t>(
      {chunks.size(), hw == 0 ? std::size_t{1} : hw, std::size_t{8}});
  std::atomic<std::size_t> next{0};
  const auto crc_worker = [&chunks, &next, data] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < chunks.size();
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      Chunk& c = chunks[i];
      c.crc = Crc32(data + c.offset, static_cast<std::size_t>(c.size));
    }
  };
  if (workers > 1) {
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (std::size_t t = 1; t < workers; ++t) pool.emplace_back(crc_worker);
    crc_worker();
    for (std::thread& t : pool) t.join();
  } else {
    crc_worker();
  }
  std::size_t ci = 0;
  for (const SectionEntry& e : reader->info_.sections) {
    uint32_t section_crc = chunks[ci].crc;
    uint64_t covered = chunks[ci].size;
    ++ci;
    while (covered < e.size) {
      section_crc = Crc32Combine(section_crc, chunks[ci].crc, chunks[ci].size);
      covered += chunks[ci].size;
      ++ci;
    }
    if (section_crc != e.crc) {
      return Corrupt("section " +
                     std::to_string(static_cast<uint32_t>(e.type)) +
                     " CRC mismatch");
    }
  }

  // Decode the verified meta section into the Info summary.
  Info& info = reader->info_;
  info.file_size = size;
  ByteCursor meta = reader->SectionCursor(SectionType::kMeta);
  info.tool_version = meta.Str();
  info.config.builtin_axioms = meta.U8() != 0;
  info.config.keep_orders = meta.U8() != 0;
  info.config.max_actions = meta.I64();
  info.num_attrs = static_cast<int>(meta.U32());
  info.entity_rows = static_cast<int64_t>(meta.U64());
  info.num_masters = static_cast<int>(meta.U32());
  info.dict_terms = static_cast<int64_t>(meta.U64());
  info.program_steps = static_cast<int64_t>(meta.U64());
  info.checkpoint_ok = meta.U8() != 0;
  if (!meta.AtEnd()) return Corrupt("malformed meta section");
  return reader;
}

ByteCursor SnapshotReader::SectionCursor(SectionType type) const {
  const SectionEntry& e = by_type_[static_cast<uint32_t>(type)];
  return ByteCursor(file_->data() + e.offset,
                    static_cast<std::size_t>(e.size));
}

Status SnapshotReader::LoadDictionary(Dictionary* dict) const {
  if (dict->size() != 1) {
    return Status::FailedPrecondition(
        "snapshot: LoadDictionary needs a fresh dictionary (only the null "
        "slot assigned); got " +
        std::to_string(dict->size()) + " terms");
  }
  ByteCursor cur = SectionCursor(SectionType::kDict);
  const uint64_t count = cur.U64();
  // Bulk path: one move into the shelf per term, no hashing — the
  // lookup index is rebuilt lazily iff something interns later (an
  // engine build); the pure read path never pays for it. The stream is
  // distinct-by-construction and CRC-vouched, so the only structural
  // check left is that no stored representative is null (null ids are
  // bitmap state, never dictionary entries — a null here would alias
  // kNullTermId and break id stability).
  for (uint64_t id = kNullTermId + 1; cur.ok() && id < count; ++id) {
    Value v = cur.Val();
    if (!cur.ok()) break;
    if (v.is_null()) {
      return Corrupt("dictionary stream holds a null representative");
    }
    if (dict->AppendForLoad(std::move(v)) != static_cast<TermId>(id)) {
      return Corrupt("dictionary stream is not in first-intern order");
    }
  }
  if (!cur.ok() || !cur.AtEnd() || dict->size() != count) {
    return Corrupt("malformed dict section");
  }
  return Status::OK();
}

Result<ColumnarRelation> SnapshotReader::LoadEntity(Dictionary* dict) const {
  ByteCursor cur = SectionCursor(SectionType::kEntity);
  ColumnarView view;
  if (!DecodeColumnarView(&cur, &view) || !cur.AtEnd()) {
    return Corrupt("malformed entity section");
  }
  // Owned copy with id validation: the entity is modest next to the
  // masters and the engine copies its columns regardless.
  const std::size_t terms = dict->size();
  ColumnarRelation rel(view.schema, dict);
  const int arity = view.schema.size();
  std::vector<TermId> ids(static_cast<std::size_t>(arity));
  for (std::size_t row = 0; row < view.rows; ++row) {
    for (int a = 0; a < arity; ++a) {
      const TermId id = view.columns[static_cast<std::size_t>(a)][row];
      if (id >= terms) {
        return Corrupt("entity term id outside the dictionary");
      }
      ids[static_cast<std::size_t>(a)] = id;
    }
    rel.AddEncoded(ids, view.row_ids[row],
                   static_cast<int>(view.row_sources[row]),
                   static_cast<int>(view.row_snapshots[row]));
  }
  return rel;
}

Result<ColumnarRelation> SnapshotReader::LoadMaster(int index,
                                                    Dictionary* dict) const {
  if (index < 0 || index >= info_.num_masters) {
    return Status::InvalidArgument(
        "snapshot: master index " + std::to_string(index) +
        " out of range [0, " + std::to_string(info_.num_masters) + ")");
  }
  ByteCursor cur = SectionCursor(SectionType::kMasters);
  const uint32_t count = cur.U32();
  if (!cur.ok() || static_cast<int>(count) != info_.num_masters) {
    return Corrupt("malformed masters section");
  }
  ColumnarView view;
  for (int m = 0; m <= index; ++m) {
    cur.AlignTo(8);
    if (!DecodeColumnarView(&cur, &view)) {
      return Corrupt("malformed masters section");
    }
  }
  return ColumnarRelation::FromBorrowed(
      view.schema, dict, static_cast<int>(view.rows), view.columns,
      view.null_words, view.row_ids, view.row_sources, view.row_snapshots);
}

Result<std::vector<AccuracyRule>> SnapshotReader::LoadRules() const {
  ByteCursor cur = SectionCursor(SectionType::kRules);
  const uint32_t count = cur.U32();
  std::vector<AccuracyRule> rules;
  if (cur.ok()) rules.reserve(count);
  for (uint32_t r = 0; cur.ok() && r < count; ++r) {
    AccuracyRule rule;
    const uint8_t form = cur.U8();
    if (form > static_cast<uint8_t>(AccuracyRule::Form::kMaster)) {
      return Corrupt("malformed rules section (bad form)");
    }
    rule.form = static_cast<AccuracyRule::Form>(form);
    rule.name = cur.Str();
    const uint8_t provenance = cur.U8();
    if (provenance > static_cast<uint8_t>(RuleProvenance::kCfd)) {
      return Corrupt("malformed rules section (bad provenance)");
    }
    rule.provenance = static_cast<RuleProvenance>(provenance);
    rule.line = cur.I32();
    rule.column = cur.I32();
    const uint32_t lhs = cur.U32();
    if (!cur.ok() || lhs > (1u << 20)) {
      return Corrupt("malformed rules section");
    }
    rule.lhs.reserve(lhs);
    for (uint32_t p = 0; p < lhs; ++p) {
      TuplePairPredicate pred;
      const uint8_t kind = cur.U8();
      if (kind > static_cast<uint8_t>(TuplePairPredicate::Kind::kOrder)) {
        return Corrupt("malformed rules section (bad predicate kind)");
      }
      pred.kind = static_cast<TuplePairPredicate::Kind>(kind);
      pred.which = cur.I32();
      pred.left_attr = cur.I32();
      pred.right_attr = cur.I32();
      if (!DecodeCompareOp(cur.U8(), &pred.op)) {
        return Corrupt("malformed rules section (bad compare op)");
      }
      pred.constant = cur.Val();
      pred.strict = cur.U8() != 0;
      rule.lhs.push_back(std::move(pred));
    }
    rule.rhs_attr = cur.I32();
    rule.master_index = cur.I32();
    const uint32_t master_lhs = cur.U32();
    if (!cur.ok() || master_lhs > (1u << 20)) {
      return Corrupt("malformed rules section");
    }
    rule.master_lhs.reserve(master_lhs);
    for (uint32_t p = 0; p < master_lhs; ++p) {
      MasterPredicate pred;
      const uint8_t kind = cur.U8();
      if (kind > static_cast<uint8_t>(MasterPredicate::Kind::kMasterConst)) {
        return Corrupt("malformed rules section (bad master predicate)");
      }
      pred.kind = static_cast<MasterPredicate::Kind>(kind);
      pred.te_attr = cur.I32();
      pred.master_attr = cur.I32();
      if (!DecodeCompareOp(cur.U8(), &pred.op)) {
        return Corrupt("malformed rules section (bad compare op)");
      }
      pred.constant = cur.Val();
      rule.master_lhs.push_back(std::move(pred));
    }
    const uint32_t assignments = cur.U32();
    if (!cur.ok() || assignments > (1u << 20)) {
      return Corrupt("malformed rules section");
    }
    rule.assignments.reserve(assignments);
    for (uint32_t p = 0; p < assignments; ++p) {
      const AttrId te_attr = cur.I32();
      const AttrId tm_attr = cur.I32();
      rule.assignments.emplace_back(te_attr, tm_attr);
    }
    rules.push_back(std::move(rule));
  }
  if (!cur.ok() || !cur.AtEnd()) return Corrupt("malformed rules section");
  return rules;
}

Result<GroundProgram> SnapshotReader::LoadProgram() const {
  ByteCursor cur = SectionCursor(SectionType::kProgram);
  GroundProgram program;
  program.num_tuples = static_cast<int>(cur.U32());
  program.num_attrs = static_cast<int>(cur.U32());
  const uint64_t steps = cur.U64();
  if (!cur.ok() || steps > (uint64_t{1} << 40)) {
    return Corrupt("malformed program section");
  }
  program.steps.reserve(static_cast<std::size_t>(steps));
  for (uint64_t s = 0; cur.ok() && s < steps; ++s) {
    GroundStep step;
    const uint8_t kind = cur.U8();
    if (kind > static_cast<uint8_t>(GroundStep::Kind::kSetTe)) {
      return Corrupt("malformed program section (bad step kind)");
    }
    step.kind = static_cast<GroundStep::Kind>(kind);
    step.attr = cur.I32();
    step.i = cur.I32();
    step.j = cur.I32();
    step.te_value = cur.Val();
    step.rule_id = cur.I32();
    const uint32_t residual = cur.U32();
    if (!cur.ok() || residual > (1u << 24)) {
      return Corrupt("malformed program section");
    }
    step.residual.reserve(residual);
    for (uint32_t p = 0; p < residual; ++p) {
      GroundPredicate pred;
      const uint8_t pkind = cur.U8();
      if (pkind > static_cast<uint8_t>(GroundPredicate::Kind::kTeCompare)) {
        return Corrupt("malformed program section (bad predicate kind)");
      }
      pred.kind = static_cast<GroundPredicate::Kind>(pkind);
      pred.attr = cur.I32();
      pred.i = cur.I32();
      pred.j = cur.I32();
      if (!DecodeCompareOp(cur.U8(), &pred.op)) {
        return Corrupt("malformed program section (bad compare op)");
      }
      pred.constant = cur.Val();
      step.residual.push_back(std::move(pred));
    }
    program.steps.push_back(std::move(step));
  }
  const uint32_t names = cur.U32();
  if (!cur.ok() || names > (1u << 20)) {
    return Corrupt("malformed program section");
  }
  program.rule_names.reserve(names);
  for (uint32_t n = 0; n < names; ++n) {
    program.rule_names.push_back(cur.Str());
  }
  if (!cur.ok() || !cur.AtEnd()) return Corrupt("malformed program section");
  return program;
}

Result<ChaseCheckpoint> SnapshotReader::LoadCheckpoint() const {
  ByteCursor cur = SectionCursor(SectionType::kCheckpoint);
  ChaseCheckpoint cp;
  cp.ok = cur.U8() != 0;
  if (!cp.ok) {
    cp.violation = cur.Str();
    cp.steps_applied = cur.I64();
    cp.pairs_derived = cur.I64();
    if (!cur.ok() || !cur.AtEnd()) {
      return Corrupt("malformed checkpoint section");
    }
    return cp;
  }
  const uint32_t attrs = cur.U32();
  const uint64_t steps = cur.U64();
  if (!cur.ok() || attrs > 4096 || steps > (uint64_t{1} << 40)) {
    return Corrupt("malformed checkpoint section");
  }
  cur.AlignTo(8);
  const TermId* te = cur.Array<TermId>(attrs);
  cur.AlignTo(8);
  const int32_t* te_rule = cur.Array<int32_t>(attrs);
  cur.AlignTo(8);
  const int32_t* remaining =
      cur.Array<int32_t>(static_cast<std::size_t>(steps));
  cur.AlignTo(8);
  const uint8_t* dead = cur.Array<uint8_t>(static_cast<std::size_t>(steps));
  if (!cur.ok()) return Corrupt("malformed checkpoint section");
  cp.te.assign(te, te + attrs);
  cp.te_rule.assign(te_rule, te_rule + attrs);
  cp.remaining.assign(remaining, remaining + steps);
  cp.dead.assign(dead, dead + steps);
  cp.order_succ.reserve(attrs);
  for (uint32_t a = 0; a < attrs; ++a) {
    cur.AlignTo(8);
    const uint64_t words = cur.U64();
    if (!cur.ok() || words > (uint64_t{1} << 40)) {
      return Corrupt("malformed checkpoint section");
    }
    const uint64_t* succ = cur.Array<uint64_t>(static_cast<std::size_t>(words));
    if (!cur.ok()) return Corrupt("malformed checkpoint section");
    cp.order_succ.emplace_back(succ, succ + words);
  }
  cp.steps_applied = cur.I64();
  cp.pairs_derived = cur.I64();
  cp.actions = cur.I64();
  if (!cur.ok() || !cur.AtEnd()) {
    return Corrupt("malformed checkpoint section");
  }
  return cp;
}

}  // namespace snapshot
}  // namespace relacc
