#include "snapshot/memo_cache.h"

namespace relacc {
namespace snapshot {

namespace {
constexpr uint64_t kFnvPrime = 0x100000001b3ull;
}  // namespace

uint64_t FingerprintBytes(uint64_t h, const void* data, std::size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t FingerprintValue(uint64_t h, const Value& v) {
  const auto tag = static_cast<uint8_t>(v.type());
  h = FingerprintBytes(h, &tag, 1);
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt: {
      const int64_t i = v.as_int();
      h = FingerprintBytes(h, &i, sizeof(i));
      break;
    }
    case ValueType::kDouble: {
      const double d = v.as_double();
      h = FingerprintBytes(h, &d, sizeof(d));
      break;
    }
    case ValueType::kString: {
      const std::string& s = v.as_string();
      const uint64_t len = s.size();
      h = FingerprintBytes(h, &len, sizeof(len));
      h = FingerprintBytes(h, s.data(), s.size());
      break;
    }
    case ValueType::kBool: {
      const uint8_t b = v.as_bool() ? 1 : 0;
      h = FingerprintBytes(h, &b, 1);
      break;
    }
  }
  return h;
}

uint64_t FingerprintTuple(uint64_t h, const Tuple& t) {
  const int64_t id = t.id();
  const int32_t source = t.source();
  const int32_t snapshot = t.snapshot();
  h = FingerprintBytes(h, &id, sizeof(id));
  h = FingerprintBytes(h, &source, sizeof(source));
  h = FingerprintBytes(h, &snapshot, sizeof(snapshot));
  for (AttrId a = 0; a < t.size(); ++a) {
    h = FingerprintValue(h, t.at(a));
  }
  return h;
}

}  // namespace snapshot
}  // namespace relacc
