#include "snapshot/writer.h"

#include <cstdio>
#include <cstring>
#include <utility>

#include "snapshot/format.h"

namespace relacc {
namespace snapshot {

namespace {

void EncodeSchema(const Schema& schema, ByteSink* out) {
  out->U32(static_cast<uint32_t>(schema.size()));
  for (AttrId a = 0; a < schema.size(); ++a) {
    out->Str(schema.name(a));
    out->U8(static_cast<uint8_t>(schema.type(a)));
  }
}

/// One columnar relation: schema, row count, then the fixed-width
/// payloads each 8-aligned *within the section* — sections are
/// 8-aligned in the file, so section-relative alignment is absolute
/// alignment and the reader can hand the arrays to
/// ColumnarRelation::FromBorrowed in place.
void EncodeColumnar(const ColumnarRelation& rel, ByteSink* out) {
  EncodeSchema(rel.schema(), out);
  const auto rows = static_cast<std::size_t>(rel.size());
  out->U64(rows);
  for (AttrId a = 0; a < rel.schema().size(); ++a) {
    out->AlignTo(8);
    out->Raw(rel.column(a).data(), rows * sizeof(TermId));
  }
  const std::size_t words = (rows + 63) / 64;
  for (AttrId a = 0; a < rel.schema().size(); ++a) {
    out->AlignTo(8);
    out->Raw(rel.nulls(a).words(), words * sizeof(uint64_t));
  }
  out->AlignTo(8);
  out->Raw(rel.row_ids().data(), rows * sizeof(int64_t));
  out->AlignTo(8);
  out->Raw(rel.row_sources().data(), rows * sizeof(int32_t));
  out->AlignTo(4);
  out->Raw(rel.row_snapshots().data(), rows * sizeof(int32_t));
}

void EncodeDict(const Dictionary& dict, ByteSink* out) {
  const uint64_t count = dict.size();
  out->U64(count);
  for (TermId id = kNullTermId + 1; id < count; ++id) {
    out->Val(dict.value(id));
  }
}

void EncodeRules(const std::vector<AccuracyRule>& rules, ByteSink* out) {
  out->U32(static_cast<uint32_t>(rules.size()));
  for (const AccuracyRule& rule : rules) {
    out->U8(static_cast<uint8_t>(rule.form));
    out->Str(rule.name);
    out->U8(static_cast<uint8_t>(rule.provenance));
    out->I32(rule.line);
    out->I32(rule.column);
    out->U32(static_cast<uint32_t>(rule.lhs.size()));
    for (const TuplePairPredicate& p : rule.lhs) {
      out->U8(static_cast<uint8_t>(p.kind));
      out->I32(p.which);
      out->I32(p.left_attr);
      out->I32(p.right_attr);
      out->U8(static_cast<uint8_t>(p.op));
      out->Val(p.constant);
      out->U8(p.strict ? 1 : 0);
    }
    out->I32(rule.rhs_attr);
    out->I32(rule.master_index);
    out->U32(static_cast<uint32_t>(rule.master_lhs.size()));
    for (const MasterPredicate& p : rule.master_lhs) {
      out->U8(static_cast<uint8_t>(p.kind));
      out->I32(p.te_attr);
      out->I32(p.master_attr);
      out->U8(static_cast<uint8_t>(p.op));
      out->Val(p.constant);
    }
    out->U32(static_cast<uint32_t>(rule.assignments.size()));
    for (const auto& [te_attr, tm_attr] : rule.assignments) {
      out->I32(te_attr);
      out->I32(tm_attr);
    }
  }
}

/// Ground steps carry their Values directly (tag + payload, not TermId
/// references): decoding then never depends on dictionary state, and
/// the loaded program is GroundProgram::operator==-identical to the
/// one Instantiate produced — the identity tests diff them directly.
/// Steps are written in virtual-id order, master block included, so the
/// loaded program is the flat one (no block) and the checkpoint's
/// per-step arrays line up with it.
void EncodeProgram(const GroundProgram& program, ByteSink* out) {
  out->U32(static_cast<uint32_t>(program.num_tuples));
  out->U32(static_cast<uint32_t>(program.num_attrs));
  out->U64(program.size());
  program.ForEachStep([&](const GroundStep& step) {
    out->U8(static_cast<uint8_t>(step.kind));
    out->I32(step.attr);
    out->I32(step.i);
    out->I32(step.j);
    out->Val(step.te_value);
    out->I32(step.rule_id);
    out->U32(static_cast<uint32_t>(step.residual.size()));
    for (const GroundPredicate& p : step.residual) {
      out->U8(static_cast<uint8_t>(p.kind));
      out->I32(p.attr);
      out->I32(p.i);
      out->I32(p.j);
      out->U8(static_cast<uint8_t>(p.op));
      out->Val(p.constant);
    }
  });
  out->U32(static_cast<uint32_t>(program.rule_names.size()));
  for (const std::string& name : program.rule_names) out->Str(name);
}

void EncodeCheckpoint(const ChaseCheckpoint& cp, ByteSink* out) {
  out->U8(cp.ok ? 1 : 0);
  if (!cp.ok) {
    out->Str(cp.violation);
    out->I64(cp.steps_applied);
    out->I64(cp.pairs_derived);
    return;
  }
  out->U32(static_cast<uint32_t>(cp.te.size()));
  out->U64(cp.remaining.size());
  out->AlignTo(8);
  out->Raw(cp.te.data(), cp.te.size() * sizeof(TermId));
  out->AlignTo(8);
  out->Raw(cp.te_rule.data(), cp.te_rule.size() * sizeof(int32_t));
  out->AlignTo(8);
  out->Raw(cp.remaining.data(), cp.remaining.size() * sizeof(int32_t));
  out->AlignTo(8);
  out->Raw(cp.dead.data(), cp.dead.size() * sizeof(uint8_t));
  for (const std::vector<uint64_t>& succ : cp.order_succ) {
    out->AlignTo(8);
    out->U64(succ.size());
    out->Raw(succ.data(), succ.size() * sizeof(uint64_t));
  }
  out->I64(cp.steps_applied);
  out->I64(cp.pairs_derived);
  out->I64(cp.actions);
}

void EncodeMeta(const SnapshotContents& c, ByteSink* out) {
  out->Str(c.tool_version);
  out->U8(c.config->builtin_axioms ? 1 : 0);
  out->U8(c.config->keep_orders ? 1 : 0);
  out->I64(c.config->max_actions);
  out->U32(static_cast<uint32_t>(c.entity->schema().size()));
  out->U64(static_cast<uint64_t>(c.entity->size()));
  out->U32(static_cast<uint32_t>(c.masters.size()));
  out->U64(c.dict->size());
  out->U64(c.program->size());
  out->U8(c.checkpoint->ok ? 1 : 0);
}

}  // namespace

Status WriteSnapshotFile(const SnapshotContents& c, const std::string& path) {
  if (c.dict == nullptr || c.entity == nullptr || c.rules == nullptr ||
      c.config == nullptr || c.program == nullptr || c.checkpoint == nullptr) {
    return Status::InvalidArgument(
        "WriteSnapshotFile: incomplete SnapshotContents");
  }

  // Assemble every section payload in memory first; the masters
  // dominate and are written as raw column copies, so the transient
  // footprint is roughly one copy of the columnar data.
  struct Section {
    SectionType type;
    ByteSink payload;
  };
  std::vector<Section> sections;
  sections.resize(7);
  sections[0].type = SectionType::kMeta;
  EncodeMeta(c, &sections[0].payload);
  sections[1].type = SectionType::kDict;
  EncodeDict(*c.dict, &sections[1].payload);
  sections[2].type = SectionType::kEntity;
  EncodeColumnar(*c.entity, &sections[2].payload);
  sections[3].type = SectionType::kMasters;
  {
    ByteSink& out = sections[3].payload;
    out.U32(static_cast<uint32_t>(c.masters.size()));
    for (const ColumnarRelation* master : c.masters) {
      out.AlignTo(8);
      EncodeColumnar(*master, &out);
    }
  }
  sections[4].type = SectionType::kRules;
  EncodeRules(*c.rules, &sections[4].payload);
  sections[5].type = SectionType::kProgram;
  EncodeProgram(*c.program, &sections[5].payload);
  sections[6].type = SectionType::kCheckpoint;
  EncodeCheckpoint(*c.checkpoint, &sections[6].payload);

  // Lay out the file: header, table, 8-aligned payloads.
  const std::size_t table_bytes = kSectionEntryBytes * sections.size();
  std::vector<SectionEntry> table(sections.size());
  uint64_t offset = kHeaderBytes + table_bytes;
  for (std::size_t s = 0; s < sections.size(); ++s) {
    offset = (offset + 7) & ~uint64_t{7};
    table[s].type = sections[s].type;
    table[s].offset = offset;
    table[s].size = sections[s].payload.size();
    table[s].crc = Crc32(sections[s].payload.bytes().data(),
                         sections[s].payload.size());
    offset += table[s].size;
  }
  const uint64_t file_size = offset;

  ByteSink head;
  head.Raw(kMagic, sizeof(kMagic));
  head.U32(kFormatVersion);
  head.U32(static_cast<uint32_t>(sections.size()));
  head.U64(file_size);
  // Header CRC covers bytes [0, 24) plus the whole table; encode the
  // table first, then splice the CRC into its slot.
  ByteSink table_sink;
  for (const SectionEntry& e : table) {
    table_sink.U32(static_cast<uint32_t>(e.type));
    table_sink.U32(0);
    table_sink.U64(e.offset);
    table_sink.U64(e.size);
    table_sink.U32(e.crc);
    table_sink.U32(0);
  }
  uint32_t head_crc = Crc32(head.bytes().data(), head.size());
  head_crc = Crc32(table_sink.bytes().data(), table_sink.size(), head_crc);
  head.U32(head_crc);
  head.U32(0);  // reserved

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("snapshot: cannot open " + tmp + " for writing");
  }
  auto write_all = [&](const void* data, std::size_t size) {
    return size == 0 || std::fwrite(data, 1, size, f) == size;
  };
  bool ok = write_all(head.bytes().data(), head.size()) &&
            write_all(table_sink.bytes().data(), table_sink.size());
  uint64_t written = kHeaderBytes + table_bytes;
  static const char kZeros[8] = {0};
  for (std::size_t s = 0; ok && s < sections.size(); ++s) {
    const uint64_t pad = table[s].offset - written;
    ok = write_all(kZeros, static_cast<std::size_t>(pad)) &&
         write_all(sections[s].payload.bytes().data(),
                   sections[s].payload.size());
    written = table[s].offset + table[s].size;
  }
  ok = ok && std::fflush(f) == 0;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IoError("snapshot: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("snapshot: cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

}  // namespace snapshot
}  // namespace relacc
