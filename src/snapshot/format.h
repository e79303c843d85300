#ifndef RELACC_SNAPSHOT_FORMAT_H_
#define RELACC_SNAPSHOT_FORMAT_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/value.h"
#include "util/status.h"

// The relacc snapshot artifact: one little-endian binary file holding
// everything `AccuracyService::Create` otherwise recomputes — the term
// dictionary, the columnar entity instance and master relations, the
// compiled rules, the grounded program and the chased all-null
// checkpoint — so a service starts by mapping the file instead of
// grounding + chasing, and N replicas (threads or processes) share one
// physical copy of the master columns through the page cache.
//
// Layout:
//   [header: 32 bytes][section table: 32 bytes x N][sections, 8-aligned]
//
// header:
//   0..7   magic "RELACCSN"
//   8..11  u32 format version (kFormatVersion)
//   12..15 u32 section count
//   16..23 u64 file size (redundant with stat(); catches truncation of
//          the final section, whose table entry is otherwise valid)
//   24..27 u32 CRC-32 of bytes [0, 24) plus the whole section table
//   28..31 u32 reserved (zero)
//
// Every section carries its own CRC-32 in the table, verified at open
// (kDataLoss on mismatch — a service is never half-built from a bad
// artifact). Sections are self-describing byte streams decoded with
// ByteCursor; fixed-width TermId / null-bitmap payloads are 8-aligned
// so `ColumnarRelation` can view them in place, zero-copy.
//
// Versioning policy: kFormatVersion bumps on ANY layout change — there
// are no minor in-place extensions. A reader rejects every version it
// was not built for with kInvalidArgument and the caller re-builds the
// artifact (`relacc snapshot build` is cheap relative to shipping
// compatibility shims for a cache file).

static_assert(std::endian::native == std::endian::little,
              "snapshot artifacts are little-endian and read in place; "
              "big-endian hosts would need byte-swapping load paths");

namespace relacc {
namespace snapshot {

inline constexpr char kMagic[8] = {'R', 'E', 'L', 'A', 'C', 'C', 'S', 'N'};
inline constexpr uint32_t kFormatVersion = 2;
inline constexpr std::size_t kHeaderBytes = 32;
inline constexpr std::size_t kSectionEntryBytes = 32;

/// Section identifiers. The table may list them in any order; exactly
/// one of each is required (kMasters covers all master relations).
enum class SectionType : uint32_t {
  kMeta = 1,        ///< versions, ChaseConfig, counts
  kDict = 2,        ///< interned terms, id order 1..n-1
  kEntity = 3,      ///< columnar entity instance Ie
  kMasters = 4,     ///< columnar master relations Im
  kRules = 5,       ///< compiled AccuracyRule set
  kProgram = 6,     ///< grounded program Γ
  kCheckpoint = 7,  ///< chased all-null checkpoint state
};

/// One decoded section-table row (in-memory form; on disk each row is
/// kSectionEntryBytes: u32 type, u32 reserved, u64 offset, u64 size,
/// u32 crc, u32 reserved).
struct SectionEntry {
  SectionType type = SectionType::kMeta;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint32_t crc = 0;
};

/// CRC-32 (IEEE, reflected 0xEDB88320 — the zlib/PNG polynomial),
/// slicing-by-8 so verifying a mapped gigabyte costs a fraction of the
/// page faults it guards. `seed` chains partial computations.
uint32_t Crc32(const void* data, std::size_t size, uint32_t seed = 0);

/// CRC of a concatenation from the CRCs of its halves: with
/// crc1 = Crc32(A) and crc2 = Crc32(B), returns Crc32(A‖B) for
/// len2 = |B| (the zlib crc32_combine construction — crc1 is advanced
/// by len2 zero bytes via GF(2) matrix exponentiation, then xored with
/// crc2). This is what lets the reader verify one large section as
/// independent chunks on several threads and stitch the results.
uint32_t Crc32Combine(uint32_t crc1, uint32_t crc2, uint64_t len2);

/// Append-only little-endian encoder for section payloads.
class ByteSink {
 public:
  void U8(uint8_t v) { bytes_.push_back(v); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I32(int32_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }

  void Raw(const void* data, std::size_t size) {
    const auto* p = static_cast<const uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + size);
  }

  /// u32 length + bytes.
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }

  /// Value as u8 ValueType tag + typed payload (exact, not interned —
  /// decoding never depends on dictionary state).
  void Val(const Value& v);

  /// Pads with zero bytes to the next multiple of `alignment`.
  void AlignTo(std::size_t alignment);

  std::size_t size() const { return bytes_.size(); }
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
};

/// Bounds-checked little-endian decoder over a mapped section. Every
/// read fails softly past the end (sticky error; numeric reads return
/// 0), so a decoder loop checks ok() once at the end instead of
/// plumbing a Status through every field — the section CRC already
/// vouches for content, the cursor guards against structural bugs.
class ByteCursor {
 public:
  ByteCursor(const void* data, std::size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}

  uint8_t U8() { return Fixed<uint8_t>(); }
  uint32_t U32() { return Fixed<uint32_t>(); }
  uint64_t U64() { return Fixed<uint64_t>(); }
  int32_t I32() { return Fixed<int32_t>(); }
  int64_t I64() { return Fixed<int64_t>(); }
  double F64() { return Fixed<double>(); }

  std::string Str();
  Value Val();

  /// Pointer to `count` elements of T at the (aligned) current offset,
  /// advancing past them — the zero-copy view used for TermId columns
  /// and bitmap words. nullptr (and the sticky error) when out of
  /// bounds or misaligned.
  template <typename T>
  const T* Array(std::size_t count) {
    const std::size_t bytes = count * sizeof(T);
    if (failed_ || size_ - pos_ < bytes || (pos_ % alignof(T)) != 0) {
      failed_ = true;
      return nullptr;
    }
    const T* p = reinterpret_cast<const T*>(data_ + pos_);
    pos_ += bytes;
    return p;
  }

  /// Skips zero padding up to the next multiple of `alignment`.
  void AlignTo(std::size_t alignment) {
    const std::size_t rem = pos_ % alignment;
    if (rem != 0) Skip(alignment - rem);
  }

  void Skip(std::size_t bytes) {
    if (failed_ || size_ - pos_ < bytes) {
      failed_ = true;
      return;
    }
    pos_ += bytes;
  }

  bool ok() const { return !failed_; }
  bool AtEnd() const { return !failed_ && pos_ == size_; }
  std::size_t pos() const { return pos_; }

  /// The sticky error as a Status for the enclosing loader.
  Status ToStatus(const std::string& what) const {
    if (!failed_) return Status::OK();
    return Status::DataLoss("snapshot: malformed " + what + " section");
  }

 private:
  template <typename T>
  T Fixed() {
    T v{};
    if (failed_ || size_ - pos_ < sizeof(T)) {
      failed_ = true;
      return v;
    }
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace snapshot
}  // namespace relacc

#endif  // RELACC_SNAPSHOT_FORMAT_H_
