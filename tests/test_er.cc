// Tests for the entity-resolution substrate.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "datagen/profile_generator.h"
#include "er/resolver.h"
#include "trigram_oracle.h"
#include "util/strings.h"

namespace relacc {
namespace {

TEST(UnionFind, BasicMerging) {
  UnionFind uf(5);
  EXPECT_NE(uf.Find(0), uf.Find(1));
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_FALSE(uf.Union(1, 0));  // already merged
  EXPECT_TRUE(uf.Union(2, 3));
  EXPECT_TRUE(uf.Union(0, 3));
  EXPECT_EQ(uf.Find(1), uf.Find(2));
  EXPECT_NE(uf.Find(4), uf.Find(0));
}

Relation PeopleRelation() {
  Schema schema({{"name", ValueType::kString}, {"city", ValueType::kString}});
  Relation r(schema);
  auto add = [&](const char* n, const char* c) {
    r.Add(Tuple({Value::Str(n), Value::Str(c)}));
  };
  add("Michael Jordan", "Chicago");
  add("Michael Jordon", "Chicago");   // typo, same entity
  add("MICHAEL JORDAN", "Chicago");   // case noise
  add("Scottie Pippen", "Chicago");
  add("Scotty Pippen", "Chicago");    // variant spelling
  add("Dennis Rodman", "Detroit");
  return r;
}

TEST(Resolver, ClustersTyposAndCaseVariants) {
  const Relation flat = PeopleRelation();
  ResolverConfig cfg;
  cfg.key_attrs = {flat.schema().MustIndexOf("name")};
  cfg.similarity_threshold = 0.5;
  const ResolutionResult res = ResolveEntities(flat, cfg);
  EXPECT_EQ(res.entities.size(), 3u);
  // The three Jordan rows share a cluster.
  EXPECT_EQ(res.cluster_of[0], res.cluster_of[1]);
  EXPECT_EQ(res.cluster_of[0], res.cluster_of[2]);
  EXPECT_EQ(res.cluster_of[3], res.cluster_of[4]);
  EXPECT_NE(res.cluster_of[0], res.cluster_of[3]);
  EXPECT_NE(res.cluster_of[0], res.cluster_of[5]);
}

TEST(Resolver, ThresholdOneKeepsEverythingSeparate) {
  const Relation flat = PeopleRelation();
  ResolverConfig cfg;
  cfg.key_attrs = {flat.schema().MustIndexOf("name")};
  cfg.similarity_threshold = 1.01;  // nothing ever matches
  const ResolutionResult res = ResolveEntities(flat, cfg);
  EXPECT_EQ(res.entities.size(), flat.tuples().size());
}

TEST(Resolver, EntityInstancesCarryTheirTuples) {
  const Relation flat = PeopleRelation();
  ResolverConfig cfg;
  cfg.key_attrs = {flat.schema().MustIndexOf("name")};
  cfg.similarity_threshold = 0.5;
  const ResolutionResult res = ResolveEntities(flat, cfg);
  int total = 0;
  for (const EntityInstance& e : res.entities) total += e.size();
  EXPECT_EQ(total, flat.size());
}

/// The flat relation `relacc gen --profile <name> --flat` writes: every
/// generated entity's tuples, entity by entity.
Relation FlatProfile(ProfileConfig config, int num_entities) {
  config.num_entities = num_entities;
  config.master_size = std::max(1, num_entities * 8 / 10);
  const EntityDataset dataset = GenerateProfile(config);
  Relation flat(dataset.schema);
  for (const EntityInstance& entity : dataset.entities) {
    for (const Tuple& t : entity.tuples()) flat.Add(t);
  }
  return flat;
}

/// Entity resolution written independently of the resolver: keys as the
/// resolver normalizes them, every intra-block pair compared with the
/// hash-set trigram Jaccard (no pair is skipped), clusters as connected
/// components numbered by their first tuple. Similarities are computed
/// once per relation and then thresholded, so one oracle serves every
/// threshold.
class OracleResolver {
 public:
  OracleResolver(const Relation& flat, const std::vector<AttrId>& key_attrs,
                 int block_prefix)
      : n_(flat.size()) {
    std::vector<std::string> keys(n_);
    for (int i = 0; i < n_; ++i) {
      for (AttrId a : key_attrs) {
        keys[i] += ToLower(flat.tuple(i).at(a).ToString()) + "|";
      }
    }
    for (int i = 0; i < n_; ++i) {
      for (int j = i + 1; j < n_; ++j) {
        const std::size_t p = static_cast<std::size_t>(block_prefix);
        if (keys[i].substr(0, p) != keys[j].substr(0, p)) continue;
        pairs_.push_back(
            {i, j, testing_fixture::HashSetTrigramJaccard(keys[i], keys[j])});
      }
    }
  }

  std::vector<int> ClusterOf(double threshold) const {
    std::vector<int> parent(n_);
    for (int i = 0; i < n_; ++i) parent[i] = i;
    auto find = [&](int x) {
      while (parent[x] != x) x = parent[x];
      return x;
    };
    for (const Pair& pair : pairs_) {
      if (pair.similarity >= threshold) {
        const int ri = find(pair.i);
        const int rj = find(pair.j);
        parent[std::max(ri, rj)] = std::min(ri, rj);
      }
    }
    // Roots are each component's smallest tuple index, so numbering roots
    // in tuple order numbers clusters by first tuple.
    std::vector<int> cluster_of(n_);
    std::vector<int> root_cluster(n_, -1);
    int next = 0;
    for (int i = 0; i < n_; ++i) {
      int& c = root_cluster[find(i)];
      if (c < 0) c = next++;
      cluster_of[i] = c;
    }
    return cluster_of;
  }

  std::size_t num_pairs() const { return pairs_.size(); }

 private:
  struct Pair {
    int i;
    int j;
    double similarity;
  };
  int n_;
  std::vector<Pair> pairs_;
};

TEST(Resolver, MatchesHashSetOracleOnGeneratedFlatRelations) {
  struct Profile {
    const char* name;
    ProfileConfig (*config)(uint64_t);
  };
  const Profile profiles[] = {{"med", &MedConfig}, {"cfp", &CfpConfig}};
  int merged_cases = 0;
  for (const Profile& profile : profiles) {
    for (const uint64_t seed : {1u, 7u, 23u}) {
      const Relation flat = FlatProfile(profile.config(seed), 90);
      ASSERT_GE(flat.size(), 200) << profile.name << " seed " << seed;
      const AttrId key = flat.schema().MustIndexOf("key");
      // Prefix 3 puts every generated key ("med-e…") in one block; 6
      // splits them by the entity number's first digit.
      for (const int block_prefix : {3, 6}) {
        const OracleResolver oracle(flat, {key}, block_prefix);
        ASSERT_GT(oracle.num_pairs(), 0u);
        for (const double threshold : {0.5, 0.75, 0.95, 1.01}) {
          SCOPED_TRACE(std::string(profile.name) + " seed " +
                       std::to_string(seed) + " prefix " +
                       std::to_string(block_prefix) + " threshold " +
                       std::to_string(threshold));
          ResolverConfig config;
          config.key_attrs = {key};
          config.block_prefix = block_prefix;
          config.similarity_threshold = threshold;
          const ResolutionResult res = ResolveEntities(flat, config);
          const std::vector<int> want = oracle.ClusterOf(threshold);
          ASSERT_EQ(res.cluster_of, want);
          // Only pairs already clustered together are skipped, so with no
          // match every intra-block pair is compared.
          ASSERT_LE(res.pairs_compared,
                    static_cast<int64_t>(oracle.num_pairs()));
          if (threshold > 1.0) {
            ASSERT_EQ(res.pairs_compared,
                      static_cast<int64_t>(oracle.num_pairs()));
          }
          const int clusters = *std::max_element(want.begin(), want.end()) + 1;
          ASSERT_EQ(static_cast<int>(res.entities.size()), clusters);
          if (clusters < flat.size()) ++merged_cases;
          for (int c = 0; c < clusters; ++c) {
            std::vector<Tuple> tuples;
            for (int i = 0; i < flat.size(); ++i) {
              if (want[i] == c) tuples.push_back(flat.tuple(i));
            }
            ASSERT_EQ(res.entities[c].entity_id(), c);
            ASSERT_EQ(res.entities[c].tuples(), tuples) << "cluster " << c;
          }
        }
      }
    }
  }
  // The thresholds below 1 must actually merge tuples somewhere, or the
  // comparison shows nothing.
  EXPECT_GT(merged_cases, 0);
}

}  // namespace
}  // namespace relacc
