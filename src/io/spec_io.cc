#include "io/spec_io.h"

#include <cstdio>
#include <utility>

#include "dsl/cfd_text.h"
#include "rules/cfd.h"

namespace relacc {

Json ValueToJson(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull: return Json::Null();
    case ValueType::kInt: return Json::Int(v.as_int());
    case ValueType::kDouble: return Json::Real(v.as_double());
    case ValueType::kString: return Json::Str(v.as_string());
    case ValueType::kBool: return Json::Bool(v.as_bool());
  }
  return Json::Null();
}

Result<Value> ValueFromJson(const Json& cell, ValueType declared,
                            const std::string& where) {
  if (cell.is_null()) return Value::Null();
  switch (declared) {
    case ValueType::kString:
      if (cell.is_string()) return Value::Str(cell.as_string());
      break;
    case ValueType::kInt:
      if (cell.is_int()) return Value::Int(cell.as_int());
      break;
    case ValueType::kDouble:
      if (cell.is_number()) return Value::Real(cell.as_double());
      break;
    case ValueType::kBool:
      if (cell.is_bool()) return Value::Bool(cell.as_bool());
      break;
    case ValueType::kNull:
      break;
  }
  return Status::InvalidArgument(where + ": cell does not match declared type '" +
                                 ValueTypeName(declared) + "'");
}

namespace {

Result<ValueType> ValueTypeFromName(const std::string& name) {
  if (name == "string") return ValueType::kString;
  if (name == "int") return ValueType::kInt;
  if (name == "double") return ValueType::kDouble;
  if (name == "bool") return ValueType::kBool;
  return Status::InvalidArgument("unknown attribute type '" + name + "'");
}

Result<Schema> SchemaFromJson(const Json& array, const std::string& where) {
  std::vector<Attribute> attrs;
  for (int i = 0; i < array.size(); ++i) {
    const Json& a = array.at(i);
    if (!a.is_object()) {
      return Status::InvalidArgument(where + ": schema entries must be objects");
    }
    Result<std::string> name = a.GetString("name");
    if (!name.ok()) return name.status();
    Result<std::string> type = a.GetString("type");
    if (!type.ok()) return type.status();
    Result<ValueType> vt = ValueTypeFromName(type.value());
    if (!vt.ok()) return vt.status();
    attrs.push_back({name.value(), vt.value()});
  }
  if (attrs.empty()) {
    return Status::InvalidArgument(where + ": empty schema");
  }
  return Schema(std::move(attrs));
}

Json SchemaToJson(const Schema& schema) {
  Json array = Json::Array();
  for (const Attribute& attr : schema.attributes()) {
    Json a = Json::Object();
    a.Set("name", Json::Str(attr.name));
    a.Set("type", Json::Str(ValueTypeName(attr.type)));
    array.Append(a);
  }
  return array;
}

Result<Relation> RelationFromJson(const Json& obj, const std::string& where,
                                  const std::string& base_dir) {
  Result<const Json*> schema_json = obj.GetArray("schema");
  if (!schema_json.ok()) return schema_json.status();
  Result<Schema> schema = SchemaFromJson(*schema_json.value(), where);
  if (!schema.ok()) return schema.status();

  Relation relation(schema.value());
  const Json* tuples = obj.Find("tuples");
  if (tuples != nullptr) {
    if (!tuples->is_array()) {
      return Status::InvalidArgument(where + ": 'tuples' must be an array");
    }
    for (int r = 0; r < tuples->size(); ++r) {
      const Json& row = tuples->at(r);
      if (!row.is_array() || row.size() != schema.value().size()) {
        return Status::InvalidArgument(
            where + ": row " + std::to_string(r) + " has arity " +
            std::to_string(row.size()) + ", schema has " +
            std::to_string(schema.value().size()));
      }
      std::vector<Value> values;
      values.reserve(row.size());
      for (int c = 0; c < row.size(); ++c) {
        Result<Value> v = ValueFromJson(
            row.at(c), schema.value().type(c),
            where + " row " + std::to_string(r) + " column '" +
                schema.value().name(c) + "'");
        if (!v.ok()) return v.status();
        values.push_back(std::move(v).value());
      }
      relation.Add(Tuple(std::move(values)));
    }
  }
  const Json* csv_ref = obj.Find("tuples_csv");
  if (csv_ref != nullptr) {
    if (!csv_ref->is_string()) {
      return Status::InvalidArgument(where + ": 'tuples_csv' must be a path");
    }
    std::string path = csv_ref->as_string();
    if (!path.empty() && path[0] != '/' && !base_dir.empty()) {
      path = base_dir + "/" + path;
    }
    Result<std::string> csv = ReadFile(path);
    if (!csv.ok()) return csv.status();
    Result<Relation> rows = Relation::FromCsv(schema.value(), csv.value());
    if (!rows.ok()) {
      return Status::ParseError(where + " (" + path +
                                "): " + rows.status().message());
    }
    for (const Tuple& t : rows.value().tuples()) relation.Add(t);
  }
  return relation;
}

Json RelationToJson(const Relation& relation, const std::string& name) {
  Json obj = Json::Object();
  obj.Set("name", Json::Str(name));
  obj.Set("schema", SchemaToJson(relation.schema()));
  Json tuples = Json::Array();
  for (const Tuple& t : relation.tuples()) {
    Json row = Json::Array();
    for (const Value& v : t.values()) row.Append(ValueToJson(v));
    tuples.Append(std::move(row));
  }
  obj.Set("tuples", std::move(tuples));
  return obj;
}

}  // namespace

std::vector<NamedMaster> SpecDocument::Masters() const {
  std::vector<NamedMaster> masters;
  masters.reserve(spec.masters.size());
  for (size_t i = 0; i < spec.masters.size(); ++i) {
    std::string name = i < master_names.size() ? master_names[i]
                                               : "m" + std::to_string(i);
    masters.push_back({name, &spec.masters[i].schema(), static_cast<int>(i)});
  }
  return masters;
}

namespace {

/// Shared deserialization. With `issues` non-null (lenient mode) the
/// rule/CFD text failures are collected instead of aborting.
Result<SpecDocument> SpecFromJsonImpl(const Json& doc,
                                      const std::string& base_dir,
                                      std::vector<ParseIssue>* issues) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("specification document must be an object");
  }
  SpecDocument out;

  Result<const Json*> entity = doc.GetObject("entity");
  if (!entity.ok()) return entity.status();
  Result<std::string> entity_name = entity.value()->GetString("name");
  out.entity_name = entity_name.ok() ? entity_name.value() : "R";
  Result<Relation> ie = RelationFromJson(*entity.value(), "entity", base_dir);
  if (!ie.ok()) return ie.status();
  out.spec.ie = std::move(ie).value();

  const Json* masters = doc.Find("masters");
  if (masters != nullptr) {
    if (!masters->is_array()) {
      return Status::InvalidArgument("'masters' must be an array");
    }
    for (int i = 0; i < masters->size(); ++i) {
      const Json& m = masters->at(i);
      if (!m.is_object()) {
        return Status::InvalidArgument("'masters' entries must be objects");
      }
      Result<std::string> name = m.GetString("name");
      std::string master_name =
          name.ok() ? name.value() : "m" + std::to_string(i);
      Result<Relation> master =
          RelationFromJson(m, "master '" + master_name + "'", base_dir);
      if (!master.ok()) return master.status();
      out.spec.masters.push_back(std::move(master).value());
      out.master_names.push_back(master_name);
    }
  }

  const Json* config = doc.Find("config");
  if (config != nullptr) {
    if (!config->is_object()) {
      return Status::InvalidArgument("'config' must be an object");
    }
    // A missing key keeps its default and an unknown key is ignored, but
    // a known key of the wrong type is an error, not a silent default.
    auto read = [](const auto& value, auto* field) {
      if (value.ok()) {
        *field = value.value();
      } else if (value.status().code() != StatusCode::kNotFound) {
        return Status::InvalidArgument("config: " + value.status().message());
      }
      return Status::OK();
    };
    RELACC_RETURN_NOT_OK(read(config->GetBool("builtin_axioms"),
                              &out.spec.config.builtin_axioms));
    RELACC_RETURN_NOT_OK(read(config->GetBool("keep_orders"),
                              &out.spec.config.keep_orders));
    RELACC_RETURN_NOT_OK(read(config->GetInt("max_actions"),
                              &out.spec.config.max_actions));
  }

  const Json* rules = doc.Find("rules");
  if (rules != nullptr) {
    if (!rules->is_string()) {
      return Status::InvalidArgument(
          "'rules' must be a string holding a rule-DSL program");
    }
    RuleParser parser(out.spec.ie.schema(), out.entity_name, out.Masters());
    if (issues != nullptr) {
      ParsedProgram program = parser.ParseProgramLenient(rules->as_string());
      out.spec.rules = std::move(program.rules);
      for (ParseIssue& issue : program.issues) {
        issues->push_back(std::move(issue));
      }
    } else {
      Result<std::vector<AccuracyRule>> parsed =
          parser.ParseProgram(rules->as_string());
      if (!parsed.ok()) return parsed.status();
      out.spec.rules = std::move(parsed).value();
    }
  }

  // Constant CFDs (Sec. 2.1 Remark): compile to form-(2) ARs over one
  // synthesized master relation appended after the declared masters.
  const Json* cfds = doc.Find("cfds");
  if (cfds != nullptr) {
    if (!cfds->is_array()) {
      return Status::InvalidArgument(
          "'cfds' must be an array of constant-CFD strings");
    }
    std::vector<ConstantCfd> parsed_cfds;
    for (int i = 0; i < cfds->size(); ++i) {
      if (!cfds->at(i).is_string()) {
        return Status::InvalidArgument("'cfds' entries must be strings");
      }
      ParseIssue cfd_issue;
      Result<ConstantCfd> cfd =
          ParseConstantCfd(cfds->at(i).as_string(), out.spec.ie.schema(),
                           "cfd" + std::to_string(i),
                           issues != nullptr ? &cfd_issue : nullptr);
      if (!cfd.ok()) {
        if (issues == nullptr) return cfd.status();
        // CFD strings are separate one-line programs; keep the in-string
        // span but say which entry it concerns.
        cfd_issue.message =
            "cfds[" + std::to_string(i) + "]: " + cfd_issue.message;
        issues->push_back(std::move(cfd_issue));
        continue;
      }
      parsed_cfds.push_back(std::move(cfd).value());
    }
    if (!parsed_cfds.empty()) {
      CompiledCfds compiled =
          CompileCfds(out.spec.ie.schema(), parsed_cfds,
                      static_cast<int>(out.spec.masters.size()));
      out.spec.masters.push_back(std::move(compiled.master));
      out.master_names.push_back("cfd_patterns");
      for (AccuracyRule& rule : compiled.rules) {
        out.spec.rules.push_back(std::move(rule));
      }
    }
  }

  // Parse-time interning (see SpecDocument::dict): one pass over every
  // loaded cell, entity and masters alike.
  out.dict = std::make_shared<Dictionary>();
  for (const Tuple& t : out.spec.ie.tuples()) {
    for (AttrId a = 0; a < out.spec.ie.schema().size(); ++a) {
      out.dict->Intern(t.at(a));
    }
  }
  for (const Relation& m : out.spec.masters) {
    for (const Tuple& t : m.tuples()) {
      for (AttrId a = 0; a < m.schema().size(); ++a) out.dict->Intern(t.at(a));
    }
  }
  return out;
}

}  // namespace

Result<SpecDocument> SpecFromJson(const Json& doc,
                                  const std::string& base_dir) {
  return SpecFromJsonImpl(doc, base_dir, nullptr);
}

Result<SpecDocument> SpecFromJsonLenient(const Json& doc,
                                         const std::string& base_dir,
                                         std::vector<ParseIssue>* issues) {
  return SpecFromJsonImpl(doc, base_dir, issues);
}

Result<SpecDocument> SpecFromJsonText(const std::string& text,
                                      const std::string& base_dir) {
  Result<Json> doc = Json::Parse(text);
  if (!doc.ok()) return doc.status();
  return SpecFromJson(doc.value(), base_dir);
}

Json SpecToJson(const SpecDocument& doc) {
  Json out = Json::Object();
  out.Set("entity", RelationToJson(doc.spec.ie, doc.entity_name));

  Json masters = Json::Array();
  for (size_t i = 0; i < doc.spec.masters.size(); ++i) {
    std::string name = i < doc.master_names.size() ? doc.master_names[i]
                                                   : "m" + std::to_string(i);
    masters.Append(RelationToJson(doc.spec.masters[i], name));
  }
  out.Set("masters", std::move(masters));

  out.Set("rules", Json::Str(FormatProgramDsl(doc.spec.rules,
                                              doc.spec.ie.schema(),
                                              doc.Masters(),
                                              doc.entity_name)));

  Json config = Json::Object();
  config.Set("builtin_axioms", Json::Bool(doc.spec.config.builtin_axioms));
  config.Set("keep_orders", Json::Bool(doc.spec.config.keep_orders));
  config.Set("max_actions", Json::Int(doc.spec.config.max_actions));
  out.Set("config", std::move(config));
  return out;
}

Json TupleToJson(const Tuple& tuple, const Schema& schema) {
  Json obj = Json::Object();
  for (AttrId a = 0; a < schema.size(); ++a) {
    obj.Set(schema.name(a), ValueToJson(tuple.at(a)));
  }
  return obj;
}

Json OutcomeToJson(const ChaseOutcome& outcome, const Schema& schema) {
  Json out = Json::Object();
  out.Set("church_rosser", Json::Bool(outcome.church_rosser));
  if (outcome.church_rosser) {
    out.Set("target", TupleToJson(outcome.target, schema));
    out.Set("complete", Json::Bool(outcome.target.IsComplete()));
  } else {
    out.Set("target", Json::Null());
    out.Set("violation", Json::Str(outcome.violation));
  }
  Json stats = Json::Object();
  stats.Set("ground_steps", Json::Int(outcome.stats.ground_steps));
  stats.Set("steps_applied", Json::Int(outcome.stats.steps_applied));
  stats.Set("pairs_derived", Json::Int(outcome.stats.pairs_derived));
  out.Set("stats", std::move(stats));
  return out;
}

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open '" + path + "'");
  std::string content;
  char buf[1 << 14];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return Status::IoError("error reading '" + path + "'");
  return content;
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open '" + path + "' for writing");
  size_t written = std::fwrite(content.data(), 1, content.size(), f);
  bool bad = written != content.size();
  if (std::fclose(f) != 0) bad = true;
  return bad ? Status::IoError("error writing '" + path + "'") : Status::OK();
}

}  // namespace relacc
