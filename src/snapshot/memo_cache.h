#ifndef RELACC_SNAPSHOT_MEMO_CACHE_H_
#define RELACC_SNAPSHOT_MEMO_CACHE_H_

#include <cstddef>
#include <cstdint>

#include "core/tuple.h"
#include "core/value.h"

namespace relacc {
namespace snapshot {

/// FNV-1a (64-bit) accumulators: cheap digests for comparing outputs
/// (bench outcome digests, report digests). Fingerprints fold the value
/// type tag with the payload bytes, so `int 1` and `"1"` (and null vs.
/// empty string) never collide structurally. FNV-1a is not
/// collision-resistant: never key untrusted input on these alone.
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

uint64_t FingerprintBytes(uint64_t h, const void* data, std::size_t size);
uint64_t FingerprintValue(uint64_t h, const Value& v);
uint64_t FingerprintTuple(uint64_t h, const Tuple& t);

}  // namespace snapshot
}  // namespace relacc

#endif  // RELACC_SNAPSHOT_MEMO_CACHE_H_
