// Parameterized property suites over the extension modules, cross-checking
// them against the core engine on generated workloads:
//  * target dominance: a deduced te[A] is witnessed by a ⪯_A-greatest tuple;
//  * the explainer derives exactly the engine's order pairs;
//  * DSL and JSON round trips preserve chase semantics on generated rules;
//  * the pipeline is deterministic across thread counts and profiles.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chase/chase_engine.h"
#include "chase/explain.h"
#include "datagen/profile_generator.h"
#include "dsl/parser.h"
#include "io/spec_io.h"
#include "pipeline/pipeline.h"
#include "service_fixture.h"

namespace relacc {
namespace {

class ExtensionProperties : public ::testing::TestWithParam<int> {
 protected:
  EntityDataset MakeDataset(bool cfp = false) const {
    ProfileConfig config =
        cfp ? CfpConfig(static_cast<uint64_t>(GetParam()))
            : MedConfig(static_cast<uint64_t>(GetParam()));
    config.num_entities = 12;
    config.master_size = 10;
    return GenerateProfile(config);
  }
};

TEST_P(ExtensionProperties, DeducedTargetValuesAreDominanceWitnessed) {
  EntityDataset dataset = MakeDataset();
  for (size_t i = 0; i < dataset.entities.size(); ++i) {
    Specification spec = dataset.SpecFor(static_cast<int>(i));
    spec.config.keep_orders = true;
    ChaseOutcome outcome = IsCR(spec);
    if (!outcome.church_rosser) continue;
    ASSERT_EQ(outcome.orders.size(),
              static_cast<size_t>(spec.ie.schema().size()));
    for (AttrId a = 0; a < spec.ie.schema().size(); ++a) {
      const Value& te_v = outcome.target.at(a);
      if (te_v.is_null()) continue;
      const PartialOrder& order = outcome.orders[a];
      // te[A] is either a master-data assignment or the value of a
      // ⪯_A-greatest tuple (λ). In both cases, if a greatest tuple exists
      // its value must agree with te[A] — otherwise the run would have
      // aborted as not Church-Rosser.
      const int g = order.GreatestElement();
      if (g >= 0 && !spec.ie.tuple(g).at(a).is_null()) {
        EXPECT_EQ(spec.ie.tuple(g).at(a), te_v)
            << "entity " << i << " attr " << spec.ie.schema().name(a);
      }
    }
  }
}

TEST_P(ExtensionProperties, ExplainerDerivesExactlyTheEnginePairs) {
  EntityDataset dataset = MakeDataset();
  for (size_t i = 0; i < std::min<size_t>(dataset.entities.size(), 6); ++i) {
    Specification spec = dataset.SpecFor(static_cast<int>(i));
    if (spec.ie.size() > 24) continue;  // keep the naive chase affordable
    spec.config.keep_orders = true;
    ChaseOutcome outcome = IsCR(spec);
    if (!outcome.church_rosser) continue;
    ExplainedChase explained(spec);
    ASSERT_TRUE(explained.church_rosser());
    const int n = spec.ie.size();
    for (AttrId a = 0; a < spec.ie.schema().size(); ++a) {
      for (int x = 0; x < n; ++x) {
        for (int y = 0; y < n; ++y) {
          if (x == y) continue;
          const bool engine_has = outcome.orders[a].Reaches(x, y);
          const bool explainer_has =
              explained.FindPairDerivation(a, x, y).has_value();
          EXPECT_EQ(engine_has, explainer_has)
              << "entity " << i << " attr " << spec.ie.schema().name(a)
              << " pair (" << x << "," << y << ")";
        }
      }
    }
  }
}

TEST_P(ExtensionProperties, GeneratedRulesSurviveTheDslRoundTrip) {
  EntityDataset dataset = MakeDataset();
  std::vector<NamedMaster> masters;
  for (size_t m = 0; m < dataset.masters.size(); ++m) {
    masters.push_back({"m" + std::to_string(m), &dataset.masters[m].schema(),
                       static_cast<int>(m)});
  }
  std::string program =
      FormatProgramDsl(dataset.rules, dataset.schema, masters, "R");
  RuleParser parser(dataset.schema, "R", masters);
  Result<std::vector<AccuracyRule>> reparsed = parser.ParseProgram(program);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed.value().size(), dataset.rules.size());

  for (size_t i = 0; i < std::min<size_t>(dataset.entities.size(), 8); ++i) {
    Specification original = dataset.SpecFor(static_cast<int>(i));
    Specification round_tripped = original;
    round_tripped.rules = reparsed.value();
    ChaseOutcome a = IsCR(original);
    ChaseOutcome b = IsCR(round_tripped);
    ASSERT_EQ(a.church_rosser, b.church_rosser) << "entity " << i;
    if (a.church_rosser) {
      EXPECT_EQ(a.target, b.target) << "entity " << i;
    }
  }
}

TEST_P(ExtensionProperties, GeneratedSpecsSurviveTheJsonRoundTrip) {
  EntityDataset dataset = MakeDataset();
  for (size_t i = 0; i < std::min<size_t>(dataset.entities.size(), 4); ++i) {
    SpecDocument doc;
    doc.spec = dataset.SpecFor(static_cast<int>(i));
    doc.entity_name = "R";
    for (size_t m = 0; m < doc.spec.masters.size(); ++m) {
      doc.master_names.push_back("m" + std::to_string(m));
    }
    Result<SpecDocument> loaded = SpecFromJsonText(SpecToJson(doc).Dump());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ChaseOutcome a = IsCR(doc.spec);
    ChaseOutcome b = IsCR(loaded.value().spec);
    ASSERT_EQ(a.church_rosser, b.church_rosser) << "entity " << i;
    if (a.church_rosser) {
      EXPECT_EQ(a.target, b.target) << "entity " << i;
    }
  }
}

TEST_P(ExtensionProperties, PipelineIsThreadCountInvariantOnCfp) {
  EntityDataset dataset = MakeDataset(/*cfp=*/true);
  PipelineReport a = testing_fixture::OneWindowPipeline(
      dataset.entities, dataset.masters, dataset.rules, /*budget=*/1);
  PipelineReport b = testing_fixture::OneWindowPipeline(
      dataset.entities, dataset.masters, dataset.rules, /*budget=*/5);
  ASSERT_EQ(a.entities.size(), b.entities.size());
  for (size_t i = 0; i < a.entities.size(); ++i) {
    EXPECT_EQ(a.entities[i].target, b.entities[i].target) << i;
  }
  EXPECT_EQ(a.num_complete_by_chase, b.num_complete_by_chase);
  EXPECT_EQ(a.num_completed_by_candidates, b.num_completed_by_candidates);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtensionProperties, ::testing::Range(1, 13));

}  // namespace
}  // namespace relacc
