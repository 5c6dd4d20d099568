// Dedicated property suite for Lemma 1 of [RM97]: "the k-index approach
// enhanced with transformations always returns a superset of the answer
// set" -- i.e. the index filter admits candidates but never dismisses a
// true answer, for every combination of feature space, coefficient count,
// transformation, and threshold.
//
// The test compares three layers for random workloads:
//   ground truth   time-domain distances on transformed normal forms
//   index filter   raw candidate sets from the R*-tree traversal
//   full pipeline  Database range query results (filter + postprocess)

#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/transformation.h"
#include "geom/search_region.h"
#include "ts/transforms.h"
#include "util/random.h"
#include "util/stats.h"
#include "workload/generators.h"

namespace simq {
namespace {

struct Lemma1Case {
  FeatureSpace space;
  int num_coefficients;
  const char* rule;
  int length;
};

std::shared_ptr<TransformationRule> MakeRule(const std::string& name) {
  if (name == "none") {
    return nullptr;
  }
  if (name == "mavg8") {
    return MakeMovingAverageRule(8);
  }
  if (name == "mavg20") {
    return MakeMovingAverageRule(20);
  }
  if (name == "reverse") {
    return MakeReverseRule();
  }
  if (name == "reverse_mavg8") {
    std::vector<std::unique_ptr<TransformationRule>> parts;
    parts.push_back(MakeReverseRule());
    parts.push_back(MakeMovingAverageRule(8));
    return MakeCompositeRule(std::move(parts));
  }
  if (name == "scale_neg") {
    return MakeScaleRule(-1.5);
  }
  ADD_FAILURE() << "unknown rule " << name;
  return nullptr;
}

class Lemma1Test : public ::testing::TestWithParam<Lemma1Case> {};

TEST_P(Lemma1Test, IndexFilterNeverDismissesTrueAnswers) {
  const Lemma1Case c = GetParam();
  const std::shared_ptr<TransformationRule> rule = MakeRule(c.rule);

  // Skip combinations the planner would legitimately reject (unsafe space).
  FeatureConfig config;
  config.space = c.space;
  config.num_coefficients = c.num_coefficients;
  if (rule != nullptr) {
    const auto lowered = rule->IndexTransform(c.length, c.num_coefficients);
    ASSERT_TRUE(lowered.has_value());
    if (!lowered->IsSafeIn(c.space)) {
      GTEST_SKIP() << "transformation unsafe in this space (by design)";
    }
  }

  const std::vector<TimeSeries> series = workload::RandomWalkSeries(
      200, c.length,
      static_cast<uint64_t>(1000 + c.length + c.num_coefficients));
  Database db(config);
  ASSERT_TRUE(db.CreateRelation("r").ok());
  ASSERT_TRUE(db.BulkLoad("r", series).ok());
  const Relation* relation = db.GetRelation("r");

  Random rng(static_cast<uint64_t>(c.length * 31 + c.num_coefficients));
  for (int trial = 0; trial < 8; ++trial) {
    const int64_t probe = rng.UniformInt(0, 199);
    const double epsilon = rng.UniformDouble(0.1, 10.0);

    // Ground truth in the time domain.
    std::vector<double> target =
        ToNormalForm(relation->record(probe).raw).values;
    if (rule != nullptr) {
      target = rule->Apply(target);
    }
    std::set<int64_t> truth;
    for (const Record& record : relation->records()) {
      std::vector<double> transformed = ToNormalForm(record.raw).values;
      if (rule != nullptr) {
        transformed = rule->Apply(transformed);
      }
      if (EuclideanDistance(transformed, target) <= epsilon) {
        truth.insert(record.id);
      }
    }

    // Raw index filter: traverse the tree directly.
    const Spectrum target_spectrum = Dft(target);
    const std::vector<Complex> query_coeffs =
        ExtractCoefficients(target_spectrum, c.num_coefficients);
    const SearchRegion region =
        SearchRegion::MakeRange(query_coeffs, epsilon, config);
    std::vector<DimAffine> affines;
    const std::vector<DimAffine>* affines_ptr = nullptr;
    if (rule != nullptr) {
      affines = LowerToFeatureSpace(
          *rule->IndexTransform(c.length, c.num_coefficients), config);
      affines_ptr = &affines;
    }
    std::vector<int64_t> candidates;
    relation->index().Search(region, affines_ptr, &candidates);
    const std::set<int64_t> candidate_set(candidates.begin(),
                                          candidates.end());

    // Lemma 1: candidates are a superset of the truth.
    for (const int64_t id : truth) {
      EXPECT_EQ(candidate_set.count(id), 1u)
          << "FALSE DISMISSAL: series " << id << " (trial " << trial
          << ", eps " << epsilon << ", rule " << c.rule << ")";
    }

    // Full pipeline: exactly the truth.
    Query query;
    query.kind = QueryKind::kRange;
    query.relation = "r";
    query.query_series.literal = target;
    query.query_prenormalized = true;
    query.epsilon = epsilon;
    query.transform = rule;
    query.strategy = ExecutionStrategy::kIndex;
    const Result<QueryResult> result = db.Execute(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::set<int64_t> answers;
    for (const Match& match : result.value().matches) {
      answers.insert(match.id);
    }
    EXPECT_EQ(answers, truth) << "trial " << trial << " eps " << epsilon;
  }
}

std::vector<Lemma1Case> AllCases() {
  std::vector<Lemma1Case> cases;
  for (const FeatureSpace space :
       {FeatureSpace::kPolar, FeatureSpace::kRectangular}) {
    for (const int k : {1, 2, 4}) {
      for (const char* rule :
           {"none", "mavg8", "mavg20", "reverse", "reverse_mavg8",
            "scale_neg"}) {
        for (const int length : {32, 128}) {
          cases.push_back(Lemma1Case{space, k, rule, length});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Lemma1Test, ::testing::ValuesIn(AllCases()));

TEST(Lemma1WarpTest, CrossLengthNoFalseDismissals) {
  // The warp transformation changes the output length; Lemma 1 must still
  // hold for the cross-rate queries of Appendix A.
  FeatureConfig config;
  const std::vector<TimeSeries> series =
      workload::RandomWalkSeries(150, 64, 777);
  Database db(config);
  ASSERT_TRUE(db.CreateRelation("r").ok());
  ASSERT_TRUE(db.BulkLoad("r", series).ok());
  const Relation* relation = db.GetRelation("r");
  const auto warp = std::shared_ptr<const TransformationRule>(
      MakeTimeWarpRule(2).release());

  Random rng(888);
  for (int trial = 0; trial < 10; ++trial) {
    const int64_t probe = rng.UniformInt(0, 149);
    const double epsilon = rng.UniformDouble(0.5, 8.0);
    const std::vector<double> target =
        warp->Apply(ToNormalForm(relation->record(probe).raw).values);

    std::set<int64_t> truth;
    for (const Record& record : relation->records()) {
      if (EuclideanDistance(warp->Apply(ToNormalForm(record.raw).values),
                            target) <= epsilon) {
        truth.insert(record.id);
      }
    }

    Query query;
    query.kind = QueryKind::kRange;
    query.relation = "r";
    query.query_series.literal = target;
    query.query_prenormalized = true;
    query.epsilon = epsilon;
    query.transform = warp;
    query.strategy = ExecutionStrategy::kIndex;
    const Result<QueryResult> result = db.Execute(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::set<int64_t> answers;
    for (const Match& match : result.value().matches) {
      answers.insert(match.id);
    }
    EXPECT_EQ(answers, truth) << "trial " << trial << " eps " << epsilon;
  }
}

}  // namespace
}  // namespace simq
