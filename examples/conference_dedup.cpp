// Conference dedup: a CFP-style pipeline that starts *before* entity
// instances exist — from one flat, duplicated relation of call-for-papers
// postings (the situation Sec. 2.1 delegates to entity resolution [9,24]):
//
//   flat postings --ER--> entity instances --chase--> target tuples
//
// The example flattens a generated CFP dataset, re-discovers the entities
// with the er/ substrate (blocking + trigram similarity + union-find), and
// then runs the accuracy chase per recovered entity.

#include <cstdio>

#include "chase/chase_engine.h"
#include "core/columnar.h"
#include "core/dictionary.h"
#include "datagen/profile_generator.h"
#include "er/resolver.h"
#include "truth/metrics.h"
#include "util/rng.h"

using namespace relacc;

int main() {
  ProfileConfig config = CfpConfig(/*seed=*/7);
  const EntityDataset ds = GenerateProfile(config);

  // Flatten all entity instances into one relation, shuffled, as if the
  // postings had been crawled from the web in arbitrary order.
  Relation flat(ds.schema);
  std::vector<int> true_entity_of;
  for (std::size_t e = 0; e < ds.entities.size(); ++e) {
    for (const Tuple& t : ds.entities[e].tuples()) {
      flat.Add(t);
      true_entity_of.push_back(static_cast<int>(e));
    }
  }
  std::printf("== conference_dedup: %d postings for %zu conferences ==\n",
              flat.size(), ds.entities.size());

  // Entity resolution on the key attribute.
  ResolverConfig er;
  er.key_attrs = {flat.schema().MustIndexOf("key")};
  er.similarity_threshold = 0.9;
  const ResolutionResult res = ResolveEntities(flat, er);
  std::printf("ER recovered %zu clusters\n", res.entities.size());

  // Cluster purity against the generator's ground truth.
  int pure = 0;
  for (const EntityInstance& inst : res.entities) {
    (void)inst;
  }
  {
    // A cluster is pure if all of its tuples come from one true entity.
    std::vector<int> first_seen(res.entities.size(), -1);
    std::vector<char> impure(res.entities.size(), 0);
    for (std::size_t i = 0; i < res.cluster_of.size(); ++i) {
      const int c = res.cluster_of[i];
      if (first_seen[c] < 0) {
        first_seen[c] = true_entity_of[i];
      } else if (first_seen[c] != true_entity_of[i]) {
        impure[c] = 1;
      }
    }
    for (char x : impure) pure += x ? 0 : 1;
  }
  std::printf("pure clusters: %d / %zu\n", pure, res.entities.size());

  // Chase each recovered entity instance, encoded once into one shared
  // dictionary (the engine chases dictionary-encoded columns).
  Dictionary dict;
  int church_rosser = 0, complete = 0;
  for (const EntityInstance& inst : res.entities) {
    const ColumnarRelation cie = ColumnarRelation::FromRelation(inst, &dict);
    const GroundProgram prog = Instantiate(cie, ds.masters, ds.rules);
    const ChaseEngine engine(cie, &prog, ds.chase_config);
    const ChaseOutcome out = engine.RunFromInitial();
    if (!out.church_rosser) continue;
    ++church_rosser;
    if (out.target.IsComplete()) ++complete;
  }
  std::printf("Church-Rosser instances: %d / %zu\n", church_rosser,
              res.entities.size());
  std::printf("complete targets deduced automatically: %d (%.1f%%)\n",
              complete, 100.0 * complete / res.entities.size());
  return 0;
}
