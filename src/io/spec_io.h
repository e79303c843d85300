#ifndef RELACC_IO_SPEC_IO_H_
#define RELACC_IO_SPEC_IO_H_

#include <memory>
#include <string>
#include <vector>

#include "chase/specification.h"
#include "core/dictionary.h"
#include "dsl/parser.h"
#include "util/json.h"
#include "util/status.h"

namespace relacc {

/// A Specification plus the names the JSON document carries for its
/// relations (names are needed by the rule DSL and by diagnostics; the
/// in-memory Specification identifies relations positionally).
struct SpecDocument {
  Specification spec;
  std::string entity_name = "R";
  std::vector<std::string> master_names;  ///< parallel to spec.masters

  /// Term dictionary built at parse time: every entity and master cell
  /// is interned as the document loads, so a service seeded with it
  /// (ServiceOptions::dictionary) starts with a warm dictionary instead
  /// of re-interning the whole instance. Shared so
  /// copies of the document (and services outliving it) stay cheap.
  std::shared_ptr<Dictionary> dict;

  /// NamedMaster views over spec.masters for the DSL. The document must
  /// outlive the returned vector (it borrows the schemas).
  std::vector<NamedMaster> Masters() const;
};

/// JSON (de)serialization of specifications. The document layout:
///
/// {
///   "entity":  {"name": "stat", "schema": [{"name": "FN", "type": "string"},
///               ...], "tuples": [["MJ", null, ...], ...]},
///   "masters": [{"name": "nba", "schema": [...], "tuples": [...]}, ...],
///   "rules":   "rule phi1 @currency: forall t1, t2 in stat (...)\n...",
///   "cfds":    ["[team] = \"Chicago Bulls\" -> [arena] = \"United Center\""],
///   "config":  {"builtin_axioms": true}
/// }
///
/// Rules are carried as one rule-DSL program string (see dsl/parser.h) so
/// the DSL stays the single authoritative rule syntax. Tuple cells use the
/// natural JSON value; cell types are validated against the declared schema
/// (an integer cell is accepted for a "double" attribute and widened).
///
/// "masters", "rules", "cfds" and "config" are optional; missing means
/// empty / defaults. Constant CFDs (dsl/cfd_text.h syntax) compile to
/// form-(2) ARs over a synthesized master relation named "cfd_patterns"
/// (Sec. 2.1 Remark), so a re-serialized document carries them as ordinary
/// rules + master data.
///
/// Any relation may carry `"tuples_csv": "file.csv"` instead of (or in
/// addition to) inline "tuples": rows are loaded from that CSV (header
/// validated against the schema; see core/relation.h) and appended after
/// the inline rows. Relative paths resolve against `base_dir` (the
/// directory of the document file; "" = the working directory).
/// Serialization always emits inline tuples — the CSV reference is an
/// input convenience.
Result<SpecDocument> SpecFromJson(const Json& doc,
                                  const std::string& base_dir = "");

/// Error-tolerant variant for `relacc lint`: rule-DSL and CFD parse
/// failures are appended to `issues` (with source spans and analyzer
/// check ids) instead of aborting the load — the document loads with the
/// rules that did parse, so the analyzer can still run over them.
/// Structural problems (missing entity, malformed tuples, unreadable CSV
/// references) still fail the whole load, as no useful spec exists then.
Result<SpecDocument> SpecFromJsonLenient(const Json& doc,
                                         const std::string& base_dir,
                                         std::vector<ParseIssue>* issues);

/// Convenience: parse text then deserialize.
Result<SpecDocument> SpecFromJsonText(const std::string& text,
                                      const std::string& base_dir = "");

/// Serializes back to the document layout above (round-trips through
/// SpecFromJson up to rule-name sanitization, which is idempotent).
Json SpecToJson(const SpecDocument& doc);

/// Serializes a chase outcome for machine consumption:
/// {"church_rosser": bool, "target": {attr: value, ...} | null,
///  "violation": "...", "stats": {...}}. The target object maps attribute
/// names to values (null where undeduced); it is omitted (JSON null) when
/// the specification is not Church-Rosser.
Json OutcomeToJson(const ChaseOutcome& outcome, const Schema& schema);

/// Serializes a tuple as an attribute-name -> value object.
Json TupleToJson(const Tuple& tuple, const Schema& schema);

/// Serializes one cell with the natural JSON value for its type.
Json ValueToJson(const Value& v);

/// Deserializes one cell against the declared attribute type (an integer
/// cell is accepted for a "double" attribute and widened; null is always
/// accepted). `where` prefixes the error message.
Result<Value> ValueFromJson(const Json& cell, ValueType declared,
                            const std::string& where);

/// Reads a whole file into a string (IoError on failure).
Result<std::string> ReadFile(const std::string& path);

/// Writes `content` to `path` (IoError on failure).
Status WriteFile(const std::string& path, const std::string& content);

}  // namespace relacc

#endif  // RELACC_IO_SPEC_IO_H_
