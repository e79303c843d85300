#include "core/relation.h"

#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "util/csv.h"

namespace relacc {

void Relation::Add(Tuple t) {
  if (t.size() != schema_.size()) {
    std::fprintf(stderr, "Relation::Add: arity %d != schema %d\n", t.size(),
                 schema_.size());
    std::abort();
  }
  tuples_.push_back(std::move(t));
}

std::vector<Value> Relation::ColumnDomain(AttrId a) const {
  std::vector<Value> out;
  std::unordered_set<Value, ValueHash> seen;
  for (const Tuple& t : tuples_) {
    const Value& v = t.at(a);
    if (!v.is_null() && seen.insert(v).second) out.push_back(v);
  }
  return out;
}

std::string Relation::ToCsv() const {
  CsvWriter w;
  std::vector<std::string> header;
  header.reserve(schema_.size());
  for (const Attribute& a : schema_.attributes()) header.push_back(a.name);
  w.WriteRow(header);
  for (const Tuple& t : tuples_) {
    std::vector<std::string> row;
    row.reserve(t.size());
    for (const Value& v : t.values()) row.push_back(v.ToString());
    w.WriteRow(row);
  }
  return w.contents();
}

Result<Relation> Relation::FromCsv(const Schema& schema,
                                   const std::string& text) {
  CsvReader reader;
  auto rows_res = reader.Parse(text);
  if (!rows_res.ok()) return rows_res.status();
  const auto& rows = rows_res.value();
  if (rows.empty()) return Status::ParseError("empty CSV");
  if (static_cast<int>(rows[0].size()) != schema.size()) {
    return Status::ParseError("header arity mismatch");
  }
  for (int a = 0; a < schema.size(); ++a) {
    if (rows[0][a] != schema.name(a)) {
      return Status::ParseError("header name mismatch at column " +
                                std::to_string(a) + ": " + rows[0][a]);
    }
  }
  Relation rel(schema);
  for (std::size_t r = 1; r < rows.size(); ++r) {
    if (static_cast<int>(rows[r].size()) != schema.size()) {
      return Status::ParseError("row arity mismatch at line " +
                                std::to_string(r + 1));
    }
    std::vector<Value> values;
    values.reserve(schema.size());
    for (int a = 0; a < schema.size(); ++a) {
      auto v = Value::Parse(schema.type(a), rows[r][a]);
      if (!v.ok()) return v.status();
      values.push_back(std::move(v).value());
    }
    rel.Add(Tuple(std::move(values)));
  }
  return rel;
}

}  // namespace relacc
