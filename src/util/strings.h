#ifndef RELACC_UTIL_STRINGS_H_
#define RELACC_UTIL_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace relacc {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, char sep);

/// ASCII lower-casing copy.
std::string ToLower(std::string_view s);

/// Strips leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Levenshtein edit distance (insert/delete/substitute, unit costs).
std::size_t EditDistance(std::string_view a, std::string_view b);

/// 1 - EditDistance / max(len); 1.0 for two empty strings.
double EditSimilarity(std::string_view a, std::string_view b);

/// The set of a string's character trigrams, packed for comparison. Each
/// 3-byte window s[i..i+2] becomes the uint32_t
/// (s[i] << 16) | (s[i+1] << 8) | s[i+2] with the bytes read as unsigned,
/// so two grams are equal exactly when their bytes are (NUL and bytes
/// >= 0x80 included). The grams are kept sorted and deduplicated: the
/// Jaccard of two signatures is one linear merge, with no hashing and no
/// allocation. A string shorter than 3 bytes has the empty signature.
///
/// Build a signature once per string when each string is compared many
/// times (entity resolution compares a tuple's key with every other key
/// of its block).
class TrigramSignature {
 public:
  TrigramSignature() = default;
  explicit TrigramSignature(std::string_view s);

  /// The distinct grams, ascending.
  const std::vector<uint32_t>& grams() const { return grams_; }

  /// |A ∩ B| / |A ∪ B| over the two gram sets; 1.0 when both are empty.
  double Jaccard(const TrigramSignature& other) const;

 private:
  std::vector<uint32_t> grams_;
};

/// Jaccard similarity over character trigrams; falls back to
/// EditSimilarity for strings shorter than 3 characters.
double TrigramJaccard(std::string_view a, std::string_view b);

/// TrigramJaccard(a, b) with the signatures precomputed: `sa` must be
/// TrigramSignature(a) and `sb` TrigramSignature(b). The strings are read
/// only by the short-string fallback.
double TrigramJaccard(std::string_view a, const TrigramSignature& sa,
                      std::string_view b, const TrigramSignature& sb);

}  // namespace relacc

#endif  // RELACC_UTIL_STRINGS_H_
