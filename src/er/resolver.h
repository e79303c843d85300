#ifndef RELACC_ER_RESOLVER_H_
#define RELACC_ER_RESOLVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/relation.h"

namespace relacc {

/// Configuration of the entity-resolution substrate. The paper (Sec. 2.1)
/// assumes entity instances Ie are "identified by entity resolution
/// techniques [9, 24]"; this module provides that substrate so the examples
/// can start from a flat, duplicated relation.
struct ResolverConfig {
  /// Attributes whose (concatenated, lower-cased) values identify an
  /// entity; pairwise similarity is computed over this key.
  std::vector<AttrId> key_attrs;
  /// Blocking: tuples sharing the first `block_prefix` characters of the
  /// normalized key land in one block; only intra-block pairs are compared.
  int block_prefix = 3;
  /// Pairs at least this similar (trigram Jaccard over the key) match.
  double similarity_threshold = 0.75;
};

/// Result: one EntityInstance per discovered cluster, plus the cluster id
/// assigned to every input tuple (parallel to the input order).
struct ResolutionResult {
  std::vector<EntityInstance> entities;
  std::vector<int> cluster_of;
  /// Intra-block pairs whose similarity was computed (pairs whose tuples
  /// were already clustered together are skipped).
  int64_t pairs_compared = 0;
};

/// Union-find over tuple indices (exposed for tests and reuse).
class UnionFind {
 public:
  explicit UnionFind(int n);
  int Find(int x);
  /// Returns true if the two sets were distinct.
  bool Union(int a, int b);

 private:
  std::vector<int> parent_;
  std::vector<int> rank_;
};

/// Groups the tuples of `flat` into entity instances: normalize keys,
/// block, match pairs by similarity, cluster with union-find.
///
/// Cost: one TrigramSignature per tuple, then one linear merge of two
/// signatures per intra-block pair (pairs already in one cluster are
/// skipped). A block of b tuples costs up to b(b-1)/2 merges, so the
/// pair count grows quadratically with the largest block.
ResolutionResult ResolveEntities(const Relation& flat,
                                 const ResolverConfig& config);

}  // namespace relacc

#endif  // RELACC_ER_RESOLVER_H_
