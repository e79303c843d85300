#include "util/strings.h"

#include <algorithm>
#include <cctype>

namespace relacc {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.push_back(sep);
    out += parts[i];
  }
  return out;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

std::string_view Trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  std::vector<std::size_t> prev(a.size() + 1);
  std::vector<std::size_t> cur(a.size() + 1);
  for (std::size_t i = 0; i <= a.size(); ++i) prev[i] = i;
  for (std::size_t j = 1; j <= b.size(); ++j) {
    cur[0] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
      const std::size_t sub = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[a.size()];
}

double EditSimilarity(std::string_view a, std::string_view b) {
  const std::size_t m = std::max(a.size(), b.size());
  if (m == 0) return 1.0;
  return 1.0 - static_cast<double>(EditDistance(a, b)) / static_cast<double>(m);
}

TrigramSignature::TrigramSignature(std::string_view s) {
  if (s.size() < 3) return;
  const auto byte = [s](std::size_t i) {
    return static_cast<uint32_t>(static_cast<unsigned char>(s[i]));
  };
  grams_.reserve(s.size() - 2);
  for (std::size_t i = 0; i + 3 <= s.size(); ++i) {
    grams_.push_back(byte(i) << 16 | byte(i + 1) << 8 | byte(i + 2));
  }
  std::sort(grams_.begin(), grams_.end());
  grams_.erase(std::unique(grams_.begin(), grams_.end()), grams_.end());
}

double TrigramSignature::Jaccard(const TrigramSignature& other) const {
  const std::vector<uint32_t>& a = grams_;
  const std::vector<uint32_t>& b = other.grams_;
  std::size_t inter = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++inter;
      ++i;
      ++j;
    }
  }
  const std::size_t uni = a.size() + b.size() - inter;
  if (uni == 0) return 1.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

double TrigramJaccard(std::string_view a, std::string_view b) {
  return TrigramJaccard(a, TrigramSignature(a), b, TrigramSignature(b));
}

double TrigramJaccard(std::string_view a, const TrigramSignature& sa,
                      std::string_view b, const TrigramSignature& sb) {
  if (a.size() < 3 || b.size() < 3) return EditSimilarity(a, b);
  return sa.Jaccard(sb);
}

}  // namespace relacc
