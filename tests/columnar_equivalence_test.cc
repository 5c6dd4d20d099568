// Property tests for the columnar execution engine: on randomized
// workloads, every execution strategy (index, early-abandoning scan, full
// scan) must return exactly the same answer set, and the batched columnar
// kernels must agree with a record-at-a-time AoS reference computed
// directly from the stored spectra. Epsilons are chosen as midpoints
// between consecutive reference distances so no answer sits on a rounding
// knife-edge.

#include <algorithm>
#include <cmath>
#include <complex>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/feature_store.h"
#include "core/transformation.h"
#include "ts/transforms.h"
#include "util/random.h"
#include "util/stats.h"
#include "workload/generators.h"

namespace simq {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::set<int64_t> MatchIds(const QueryResult& result) {
  std::set<int64_t> ids;
  for (const Match& match : result.matches) {
    ids.insert(match.id);
  }
  return ids;
}

std::set<std::pair<int64_t, int64_t>> PairSet(const QueryResult& result) {
  std::set<std::pair<int64_t, int64_t>> pairs;
  for (const PairMatch& pair : result.pairs) {
    pairs.emplace(pair.first, pair.second);
  }
  return pairs;
}

// Record-at-a-time reference: normal-form distance between T(x) and q in
// the time domain, the semantics the AoS engine implemented before the
// columnar refactor.
double ReferenceDistance(const std::vector<double>& data_raw,
                         const std::vector<double>& query_raw,
                         const TransformationRule* rule) {
  std::vector<double> lhs = ToNormalForm(data_raw).values;
  if (rule != nullptr) {
    lhs = rule->Apply(lhs);
  }
  return EuclideanDistance(lhs, ToNormalForm(query_raw).values);
}

// An epsilon with clearance on both sides: midway between the k-th and
// (k+1)-th smallest distances (skipping near-ties).
double MidpointEpsilon(std::vector<double> distances, size_t k) {
  std::sort(distances.begin(), distances.end());
  k = std::min(k, distances.size() - 2);
  for (size_t i = k; i + 1 < distances.size(); ++i) {
    if (distances[i + 1] - distances[i] > 1e-6) {
      return 0.5 * (distances[i] + distances[i + 1]);
    }
  }
  return distances.back() + 1.0;
}

struct RuleCase {
  const char* name;
  std::shared_ptr<const TransformationRule> rule;
};

std::vector<RuleCase> IndexableRules() {
  std::vector<RuleCase> rules;
  rules.push_back({"identity", nullptr});
  rules.push_back({"mavg7", MakeMovingAverageRule(7)});
  rules.push_back({"reverse", MakeReverseRule()});
  return rules;
}

TEST(ColumnarEquivalenceTest, RangeStrategiesAgreeOnRandomWorkloads) {
  for (const uint64_t seed : {11u, 29u, 73u}) {
    for (const int length : {64, 100}) {
      const std::vector<TimeSeries> series =
          workload::RandomWalkSeries(200, length, seed);
      Database db;
      ASSERT_TRUE(db.CreateRelation("r").ok());
      ASSERT_TRUE(db.BulkLoad("r", series).ok());

      for (const RuleCase& rule_case : IndexableRules()) {
        const TransformationRule* rule = rule_case.rule.get();
        const std::vector<double>& probe = series[seed % 7].values;

        std::vector<double> reference;
        reference.reserve(series.size());
        for (const TimeSeries& ts : series) {
          reference.push_back(ReferenceDistance(ts.values, probe, rule));
        }
        const double epsilon = MidpointEpsilon(reference, 12);
        std::set<int64_t> expected;
        for (size_t i = 0; i < reference.size(); ++i) {
          if (reference[i] <= epsilon) {
            expected.insert(static_cast<int64_t>(i));
          }
        }

        Query query;
        query.kind = QueryKind::kRange;
        query.relation = "r";
        query.query_series.literal = probe;  // semantics: D(T(x), q)
        query.epsilon = epsilon;
        query.transform = rule_case.rule;

        QueryResult results[3];
        const ExecutionStrategy strategies[] = {
            ExecutionStrategy::kIndex, ExecutionStrategy::kScan,
            ExecutionStrategy::kScanNoEarlyAbandon};
        for (int s = 0; s < 3; ++s) {
          query.strategy = strategies[s];
          const Result<QueryResult> result = db.Execute(query);
          ASSERT_TRUE(result.ok())
              << rule_case.name << ": " << result.status().ToString();
          results[s] = result.value();
        }
        for (int s = 0; s < 3; ++s) {
          EXPECT_EQ(MatchIds(results[s]), expected)
              << "rule=" << rule_case.name << " strategy=" << s
              << " seed=" << seed << " length=" << length;
        }
        // Index and scan must agree exactly; the time-domain reference
        // only up to FFT rounding.
        for (const Match& match : results[0].matches) {
          EXPECT_NEAR(match.distance,
                      reference[static_cast<size_t>(match.id)], 1e-8);
        }
      }
    }
  }
}

TEST(ColumnarEquivalenceTest, NearestStrategiesAgreeOnRandomWorkloads) {
  const std::vector<TimeSeries> series =
      workload::RandomWalkSeries(300, 128, 5);
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  ASSERT_TRUE(db.BulkLoad("r", series).ok());

  for (const RuleCase& rule_case : IndexableRules()) {
    Query query;
    query.kind = QueryKind::kNearest;
    query.relation = "r";
    query.query_series.literal = series[17].values;
    query.k = 9;
    query.transform = rule_case.rule;

    query.strategy = ExecutionStrategy::kIndex;
    const Result<QueryResult> via_index = db.Execute(query);
    query.strategy = ExecutionStrategy::kScan;
    const Result<QueryResult> via_scan = db.Execute(query);
    ASSERT_TRUE(via_index.ok());
    ASSERT_TRUE(via_scan.ok());
    ASSERT_EQ(via_index.value().matches.size(),
              via_scan.value().matches.size());
    for (size_t i = 0; i < via_scan.value().matches.size(); ++i) {
      EXPECT_EQ(via_index.value().matches[i].id,
                via_scan.value().matches[i].id)
          << rule_case.name;
      EXPECT_NEAR(via_index.value().matches[i].distance,
                  via_scan.value().matches[i].distance, 1e-9);
    }
  }
}

TEST(ColumnarEquivalenceTest, JoinMethodsAgreeOnStockWorkload) {
  workload::StockMarketOptions options;
  options.num_series = 220;
  const std::vector<TimeSeries> market = workload::StockMarket(options);
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  ASSERT_TRUE(db.BulkLoad("r", market).ok());
  const auto mavg = MakeMovingAverageRule(20);

  // Reference pair distances from the time domain.
  const Relation* relation = db.GetRelation("r");
  std::vector<std::vector<double>> smoothed;
  smoothed.reserve(static_cast<size_t>(relation->size()));
  for (const Record& record : relation->records()) {
    smoothed.push_back(mavg->Apply(ToNormalForm(record.raw).values));
  }
  std::vector<double> pair_distances;
  for (size_t i = 0; i < smoothed.size(); ++i) {
    for (size_t j = i + 1; j < smoothed.size(); ++j) {
      pair_distances.push_back(
          EuclideanDistance(smoothed[i], smoothed[j]));
    }
  }
  const double epsilon = MidpointEpsilon(pair_distances, 10);

  const Result<QueryResult> full =
      db.SelfJoin("r", epsilon, mavg.get(), JoinMethod::kFullScan);
  const Result<QueryResult> abandon =
      db.SelfJoin("r", epsilon, mavg.get(), JoinMethod::kScanEarlyAbandon);
  const Result<QueryResult> indexed =
      db.SelfJoin("r", epsilon, mavg.get(), JoinMethod::kIndexTransform);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(abandon.ok());
  ASSERT_TRUE(indexed.ok());

  EXPECT_EQ(PairSet(full.value()), PairSet(abandon.value()));

  // The scan methods report each unordered pair once; the index method
  // reports both orientations (Table 1 accounting).
  std::set<std::pair<int64_t, int64_t>> both_orientations;
  for (const auto& [i, j] : PairSet(abandon.value())) {
    both_orientations.emplace(i, j);
    both_orientations.emplace(j, i);
  }
  EXPECT_EQ(PairSet(indexed.value()), both_orientations);

  // Reference check: the scan join answers match the time domain.
  std::set<std::pair<int64_t, int64_t>> expected;
  for (size_t i = 0; i < smoothed.size(); ++i) {
    for (size_t j = i + 1; j < smoothed.size(); ++j) {
      if (EuclideanDistance(smoothed[i], smoothed[j]) <= epsilon) {
        expected.emplace(static_cast<int64_t>(i), static_cast<int64_t>(j));
      }
    }
  }
  EXPECT_EQ(PairSet(abandon.value()), expected);
}

TEST(ColumnarEquivalenceTest, AsymmetricJoinAgreesAcrossMethods) {
  // The hedging join r >< T_rev(r): scan and index methods both report
  // ordered pairs, so their answer sets must be identical.
  workload::StockMarketOptions options;
  options.num_series = 150;
  const std::vector<TimeSeries> market = workload::StockMarket(options);
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  ASSERT_TRUE(db.BulkLoad("r", market).ok());
  const auto reverse = MakeReverseRule();

  const Relation* relation = db.GetRelation("r");
  std::vector<double> pair_distances;
  for (int64_t i = 0; i < relation->size(); ++i) {
    for (int64_t j = 0; j < relation->size(); ++j) {
      if (i == j) {
        continue;
      }
      pair_distances.push_back(EuclideanDistance(
          ToNormalForm(relation->record(i).raw).values,
          reverse->Apply(ToNormalForm(relation->record(j).raw).values)));
    }
  }
  const double epsilon = MidpointEpsilon(pair_distances, 8);

  const Result<QueryResult> scan = db.SelfJoin(
      "r", epsilon, nullptr, reverse.get(), JoinMethod::kScanEarlyAbandon);
  const Result<QueryResult> indexed = db.SelfJoin(
      "r", epsilon, nullptr, reverse.get(), JoinMethod::kIndexTransform);
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(indexed.ok());
  EXPECT_FALSE(PairSet(scan.value()).empty());
  EXPECT_EQ(PairSet(scan.value()), PairSet(indexed.value()));
}

TEST(ColumnarEquivalenceTest, StoreMirrorsRecordData) {
  // The SoA store must hold exactly the spectra/statistics derived from
  // the records' raw values, including after incremental inserts.
  const std::vector<TimeSeries> series = workload::RandomWalkSeries(50, 33, 3);
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  for (const TimeSeries& ts : series) {
    ASSERT_TRUE(db.Insert("r", ts).ok());
  }
  const Relation* relation = db.GetRelation("r");
  const FeatureStore& store = relation->store();
  ASSERT_EQ(store.size(), relation->size());
  ASSERT_EQ(store.spectrum_length(), 33);
  for (int64_t i = 0; i < relation->size(); ++i) {
    const std::vector<double>& raw = relation->record(i).raw;
    const SeriesFeatures features = ComputeFeatures(raw);
    const std::vector<double> normal_values = ToNormalForm(raw).values;
    EXPECT_EQ(store.mean(i), features.mean);
    EXPECT_EQ(store.std_dev(i), features.std_dev);
    const double* row = store.SpectrumRow(i);
    for (int f = 0; f < store.spectrum_length(); ++f) {
      EXPECT_EQ(row[2 * f],
                features.normal_spectrum[static_cast<size_t>(f)].real());
      EXPECT_EQ(row[2 * f + 1],
                features.normal_spectrum[static_cast<size_t>(f)].imag());
    }
    const double* normal = store.NormalRow(i);
    for (int t = 0; t < store.series_length(); ++t) {
      EXPECT_EQ(normal[t], normal_values[static_cast<size_t>(t)]);
    }
  }
}

TEST(ColumnarEquivalenceTest, KernelsMatchComplexArithmetic) {
  // Direct kernel-vs-AoS check: the batched kernels must agree with naive
  // std::complex arithmetic over the same spectra to reassociation noise,
  // and must abandon iff the full sum exceeds the limit.
  Random rng(99);
  const int n = 37;
  Spectrum a(static_cast<size_t>(n)), b(static_cast<size_t>(n)),
      m(static_cast<size_t>(n));
  for (int f = 0; f < n; ++f) {
    a[static_cast<size_t>(f)] = Complex(rng.NextGaussian(),
                                        rng.NextGaussian());
    b[static_cast<size_t>(f)] = Complex(rng.NextGaussian(),
                                        rng.NextGaussian());
    m[static_cast<size_t>(f)] = Complex(rng.NextGaussian(),
                                        rng.NextGaussian());
  }
  const std::vector<double> a_ri = InterleaveSpectrum(a);
  const std::vector<double> b_ri = InterleaveSpectrum(b);
  const std::vector<double> m_ri = InterleaveSpectrum(m);

  double plain = 0.0, with_mult = 0.0, two_sided = 0.0;
  for (int f = 0; f < n; ++f) {
    plain += std::norm(a[static_cast<size_t>(f)] - b[static_cast<size_t>(f)]);
    with_mult += std::norm(a[static_cast<size_t>(f)] *
                               m[static_cast<size_t>(f)] -
                           b[static_cast<size_t>(f)]);
    two_sided += std::norm(a[static_cast<size_t>(f)] *
                               m[static_cast<size_t>(f)] -
                           b[static_cast<size_t>(f)] *
                               m[static_cast<size_t>(f)]);
  }
  EXPECT_NEAR(RowDistanceSq(a_ri.data(), b_ri.data(), n, kInf), plain,
              1e-12 * plain);
  EXPECT_NEAR(
      RowDistanceSqMult(a_ri.data(), m_ri.data(), b_ri.data(), n, kInf),
      with_mult, 1e-12 * with_mult);
  EXPECT_NEAR(RowDistanceSqTwoSided(a_ri.data(), b_ri.data(), m_ri.data(),
                                    m_ri.data(), n, kInf),
              two_sided, 1e-12 * two_sided);

  // Abandoning: a limit below the total must yield +infinity, a limit
  // above it the exact value.
  EXPECT_EQ(RowDistanceSq(a_ri.data(), b_ri.data(), n, plain * 0.5), kInf);
  EXPECT_LT(RowDistanceSq(a_ri.data(), b_ri.data(), n, plain * 2.0), kInf);
}

}  // namespace
}  // namespace simq
