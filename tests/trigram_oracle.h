#ifndef RELACC_TESTS_TRIGRAM_ORACLE_H_
#define RELACC_TESTS_TRIGRAM_ORACLE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_set>

#include "util/strings.h"

namespace relacc {
namespace testing_fixture {

/// The per-pair hash-set trigram Jaccard that TrigramSignature replaced,
/// kept as the differential oracle: one unordered_set of 3-byte
/// substrings per string, built on every call.
inline double HashSetTrigramJaccard(std::string_view a, std::string_view b) {
  if (a.size() < 3 || b.size() < 3) return EditSimilarity(a, b);
  auto grams = [](std::string_view s) {
    std::unordered_set<std::string> g;
    for (std::size_t i = 0; i + 3 <= s.size(); ++i) g.emplace(s.substr(i, 3));
    return g;
  };
  const auto ga = grams(a);
  const auto gb = grams(b);
  std::size_t inter = 0;
  for (const auto& g : ga) inter += gb.count(g);
  const std::size_t uni = ga.size() + gb.size() - inter;
  if (uni == 0) return 1.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace testing_fixture
}  // namespace relacc

#endif  // RELACC_TESTS_TRIGRAM_ORACLE_H_
