#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <utility>

#include "snapshot/memo_cache.h"

namespace relacc {
namespace perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Latency SummarizeLatency(std::vector<double> samples_ms) {
  Latency out;
  out.samples = static_cast<int64_t>(samples_ms.size());
  if (samples_ms.empty()) return out;
  out.p50_ms = Median(samples_ms);
  std::sort(samples_ms.begin(), samples_ms.end());
  // Nearest rank: the smallest sample with at least 95% of the samples
  // at or below it.
  const int64_t n = out.samples;
  const int64_t rank = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(0.95 * static_cast<double>(n))) - 1, 0,
      n - 1);
  out.tail_ms = samples_ms[static_cast<std::size_t>(rank)];
  out.tail_ok = n - 1 - rank >= 10;
  return out;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  malloc_trim(0);  // hand freed input buffers back first
  std::ofstream("/proc/self/clear_refs") << "5";
}

namespace {
/// Spans open on this thread, innermost last (the parent of a new span).
thread_local std::vector<int32_t> open_spans;
}  // namespace

int32_t Tracer::Begin(const char* name, int64_t request) {
  if (!enabled_) return -1;
  Record r;
  r.name = name;
  r.request = request;
  r.parent = open_spans.empty() ? -1 : open_spans.back();
  r.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
  int32_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int32_t>(records_.size());
    records_.push_back(std::move(r));
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  const int64_t end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - origin_)
                             .count();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  records_[static_cast<std::size_t>(id)].end_ns = end_ns;
}

double Tracer::TotalMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t ns = 0;
  for (const Record& r : records_) {
    if (r.name == name && r.end_ns >= r.start_ns) ns += r.end_ns - r.start_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

int64_t Tracer::Count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::count_if(records_.begin(), records_.end(),
                       [&](const Record& r) { return r.name == name; });
}

int64_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(records_.size());
}

Status Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"spans\": [\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    Json span = Json::Object();
    span.Set("id", Json::Int(static_cast<int64_t>(i)));
    span.Set("name", Json::Str(r.name));
    span.Set("start_ns", Json::Int(r.start_ns));
    span.Set("end_ns", Json::Int(r.end_ns));
    span.Set("parent", Json::Int(r.parent));
    span.Set("request", Json::Int(r.request));
    out += span.Dump();
    out += i + 1 < records_.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return WriteFile(path, out);
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

Json Metrics::ToJson() const {
  Json out = Json::Object();
  for (const std::string& name : order_) {
    const auto& [value, unit] = values_.at(name);
    Json m = Json::Object();
    m.Set("value", Json::Real(value));
    m.Set("unit", Json::Str(unit));
    out.Set(name, std::move(m));
  }
  return out;
}

void RunResult::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 20) errors.push_back(what);
}

Result<SpecDocument> LoadSpec(const std::string& path, Tracer* tracer) {
  Span span(tracer, "io.parse");
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return SpecFromJsonText(text.value());
}

Result<Json> LoadJson(const std::string& path) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return Json::Parse(text.value());
}

Json TuplesToJson(const std::vector<Tuple>& tuples) {
  Json rows = Json::Array();
  for (const Tuple& t : tuples) {
    Json row = Json::Array();
    for (const Value& v : t.values()) row.Append(ValueToJson(v));
    rows.Append(std::move(row));
  }
  return rows;
}

Result<std::vector<Tuple>> TuplesFromJson(const Json& array,
                                          const Schema& schema) {
  if (!array.is_array()) return Status::InvalidArgument("expected an array");
  std::vector<Tuple> out;
  out.reserve(static_cast<std::size_t>(array.size()));
  for (int i = 0; i < array.size(); ++i) {
    const Json& row = array.at(i);
    if (!row.is_array() || row.size() != schema.size()) {
      return Status::InvalidArgument("tuple " + std::to_string(i) +
                                     " does not match the schema");
    }
    std::vector<Value> values;
    values.reserve(static_cast<std::size_t>(row.size()));
    for (AttrId a = 0; a < schema.size(); ++a) {
      Result<Value> v = ValueFromJson(row.at(a), schema.type(a), "cell");
      if (!v.ok()) return v.status();
      values.push_back(std::move(v).value());
    }
    out.emplace_back(std::move(values));
  }
  return out;
}

Specification ServiceSpec(const Specification& doc_spec, Relation ie) {
  Specification spec;
  spec.ie = std::move(ie);
  spec.masters = doc_spec.masters;
  spec.rules = doc_spec.rules;
  spec.config = doc_spec.config;
  return spec;
}

std::string HexDigest(const std::string& text) {
  const uint64_t h =
      snapshot::FingerprintBytes(snapshot::kFnvOffset, text.data(), text.size());
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace perfbench
}  // namespace relacc
