#include "er/resolver.h"

#include <algorithm>
#include <unordered_map>

#include "util/strings.h"

namespace relacc {

UnionFind::UnionFind(int n) : parent_(n), rank_(n, 0) {
  for (int i = 0; i < n; ++i) parent_[i] = i;
}

int UnionFind::Find(int x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];
    x = parent_[x];
  }
  return x;
}

bool UnionFind::Union(int a, int b) {
  int ra = Find(a);
  int rb = Find(b);
  if (ra == rb) return false;
  if (rank_[ra] < rank_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  if (rank_[ra] == rank_[rb]) ++rank_[ra];
  return true;
}

ResolutionResult ResolveEntities(const Relation& flat,
                                 const ResolverConfig& config) {
  const int n = flat.size();
  // Normalized key per tuple: lower-cased concatenation of key attributes
  // (nulls render as empty), and its trigram signature, built once since
  // a tuple is compared with every other member of its block.
  std::vector<std::string> keys(n);
  std::vector<TrigramSignature> signatures(n);
  for (int i = 0; i < n; ++i) {
    std::string key;
    for (AttrId a : config.key_attrs) {
      key += ToLower(flat.tuple(i).at(a).ToString());
      key.push_back('|');
    }
    signatures[i] = TrigramSignature(key);
    keys[i] = std::move(key);
  }

  // Blocking on the key prefix.
  std::unordered_map<std::string, std::vector<int>> blocks;
  for (int i = 0; i < n; ++i) {
    blocks[keys[i].substr(
               0, std::min<std::size_t>(keys[i].size(),
                                        static_cast<std::size_t>(
                                            config.block_prefix)))]
        .push_back(i);
  }

  ResolutionResult result;
  UnionFind uf(n);
  for (const auto& [prefix, members] : blocks) {
    (void)prefix;
    for (std::size_t x = 0; x < members.size(); ++x) {
      for (std::size_t y = x + 1; y < members.size(); ++y) {
        const int i = members[x];
        const int j = members[y];
        if (uf.Find(i) == uf.Find(j)) continue;
        ++result.pairs_compared;
        if (TrigramJaccard(keys[i], signatures[i], keys[j], signatures[j]) >=
            config.similarity_threshold) {
          uf.Union(i, j);
        }
      }
    }
  }

  result.cluster_of.assign(n, -1);
  std::unordered_map<int, int> root_to_cluster;
  for (int i = 0; i < n; ++i) {
    const int root = uf.Find(i);
    auto [it, inserted] =
        root_to_cluster.emplace(root, static_cast<int>(result.entities.size()));
    if (inserted) {
      result.entities.emplace_back(static_cast<int64_t>(it->second),
                                   flat.schema());
    }
    result.cluster_of[i] = it->second;
    result.entities[it->second].Add(flat.tuple(i));
  }
  return result;
}

}  // namespace relacc
