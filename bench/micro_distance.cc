// Microbenchmarks of the exact-distance kernels: full vs. early-abandoning
// Euclidean distance in time and frequency domains. The frequency-domain
// early abandon is what makes the paper's "good implementation" of the
// sequential scan competitive (large coefficients first).

#include <benchmark/benchmark.h>

#include "core/database.h"
#include "core/feature_store.h"
#include "ts/dft.h"
#include "ts/transforms.h"
#include "util/random.h"
#include "util/stats.h"
#include "workload/generators.h"

namespace simq {
namespace {

std::vector<double> RandomWalk(int n, uint64_t seed) {
  Random rng(seed);
  std::vector<double> x(static_cast<size_t>(n));
  x[0] = rng.UniformDouble(20.0, 99.0);
  for (int t = 1; t < n; ++t) {
    x[static_cast<size_t>(t)] =
        x[static_cast<size_t>(t - 1)] + rng.UniformDouble(-4.0, 4.0);
  }
  return x;
}

void BM_TimeDomainDistanceFull(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<double> a = ToNormalForm(RandomWalk(n, 1)).values;
  const std::vector<double> b = ToNormalForm(RandomWalk(n, 2)).values;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EuclideanDistance(a, b));
  }
}
BENCHMARK(BM_TimeDomainDistanceFull)->Arg(128)->Arg(1024);

void BM_FreqDomainEarlyAbandon(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Spectrum a = Dft(ToNormalForm(RandomWalk(n, 3)).values);
  const Spectrum b = Dft(ToNormalForm(RandomWalk(n, 4)).values);
  // A tight threshold abandons within the first few coefficients because
  // random-walk energy concentrates at the front of the spectrum.
  for (auto _ : state) {
    benchmark::DoNotOptimize(EuclideanDistanceEarlyAbandon(a, b, 0.5));
  }
}
BENCHMARK(BM_FreqDomainEarlyAbandon)->Arg(128)->Arg(1024);

void BM_FreqDomainFull(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Spectrum a = Dft(ToNormalForm(RandomWalk(n, 5)).values);
  const Spectrum b = Dft(ToNormalForm(RandomWalk(n, 6)).values);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EuclideanDistance(a, b));
  }
}
BENCHMARK(BM_FreqDomainFull)->Arg(128)->Arg(1024);

void BM_NormalForm(benchmark::State& state) {
  const std::vector<double> x =
      RandomWalk(static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ToNormalForm(x));
  }
}
BENCHMARK(BM_NormalForm)->Arg(128)->Arg(1024);

void BM_MovingAverage(benchmark::State& state) {
  const std::vector<double> x =
      RandomWalk(static_cast<int>(state.range(0)), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CircularMovingAverage(x, 20));
  }
}
BENCHMARK(BM_MovingAverage)->Arg(128)->Arg(1024);

// ---------------------------------------------------------------------------
// Sequential-scan kernels: the pre-refactor record-at-a-time AoS loop vs.
// the columnar batch kernel over the FeatureStore, on an identical
// relation. The AoS reference below replicates the scalar FreqDistance
// loop that core/database.cc used before the columnar engine.
// ---------------------------------------------------------------------------

constexpr int kScanCount = 2000;
constexpr double kInf = std::numeric_limits<double>::infinity();

const Database& ScanDatabase() {
  static const Database* db = [] {
    auto* out = new Database();
    SIMQ_CHECK(out->CreateRelation("r").ok());
    SIMQ_CHECK(
        out->BulkLoad("r", workload::RandomWalkSeries(kScanCount, 128, 42))
            .ok());
    return out;
  }();
  return *db;
}

// The old scalar kernel: per-coefficient complex norm with a branch per
// coefficient.
double AosFreqDistance(const Spectrum& data, const Spectrum& query,
                       double threshold) {
  const double limit = threshold == kInf ? kInf : threshold * threshold;
  double sum = 0.0;
  for (size_t f = 0; f < data.size(); ++f) {
    sum += std::norm(data[f] - query[f]);
    if (sum > limit) {
      return kInf;
    }
  }
  return std::sqrt(sum);
}

void BM_ScanKernelAoS(benchmark::State& state) {
  const Database& db = ScanDatabase();
  const Relation* relation = db.GetRelation("r");
  const double threshold = state.range(0) != 0 ? 0.5 : kInf;
  const Spectrum query =
      Dft(ToNormalForm(RandomWalk(128, 1234)).values);
  // The row-of-structs layout: one heap-allocated spectrum per record.
  std::vector<Spectrum> spectra;
  spectra.reserve(relation->records().size());
  for (const Record& record : relation->records()) {
    spectra.push_back(ComputeFeatures(record.raw).normal_spectrum);
  }
  for (auto _ : state) {
    int64_t matches = 0;
    for (const Spectrum& spectrum : spectra) {
      if (AosFreqDistance(spectrum, query, threshold) <= threshold) {
        ++matches;
      }
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * kScanCount);
}
BENCHMARK(BM_ScanKernelAoS)
    ->Arg(0)   // full distance (Table 1 method a regime)
    ->Arg(1);  // early abandoning (method b regime)

void BM_ScanKernelColumnar(benchmark::State& state) {
  const Database& db = ScanDatabase();
  const FeatureStore& store = db.GetRelation("r")->store();
  const double threshold = state.range(0) != 0 ? 0.5 : kInf;
  const double limit_sq =
      threshold == kInf ? kInf : threshold * threshold;
  const std::vector<double> query = InterleaveSpectrum(
      Dft(ToNormalForm(RandomWalk(128, 1234)).values));
  const int n = store.spectrum_length();
  const bool screen = limit_sq != kInf;  // engine's prefix-column screen
  const double q0 = query[0], q1 = query[1], q2 = query[2], q3 = query[3];
  for (auto _ : state) {
    int64_t matches = 0;
    for (int64_t i = 0; i < store.size(); ++i) {
      if (screen &&
          PrefixScreenDead(store.PrefixRow(i), q0, q1, q2, q3, limit_sq)) {
        continue;
      }
      const double dist_sq =
          RowDistanceSq(store.SpectrumRow(i), query.data(), n, limit_sq);
      if (dist_sq <= limit_sq) {
        ++matches;
      }
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * kScanCount);
}
BENCHMARK(BM_ScanKernelColumnar)->Arg(0)->Arg(1);

// Whole-query scan through the engine (planner + columnar kernels), the
// number CI tracks in BENCH_scan.json.
void BM_RangeQueryScan(benchmark::State& state) {
  const Database& db = ScanDatabase();
  Query query;
  query.kind = QueryKind::kRange;
  query.relation = "r";
  query.query_series.id = 17;
  query.epsilon = 4.0;
  query.strategy = state.range(0) != 0 ? ExecutionStrategy::kScan
                                       : ExecutionStrategy::kScanNoEarlyAbandon;
  for (auto _ : state) {
    const Result<QueryResult> result = db.Execute(query);
    benchmark::DoNotOptimize(result.value().matches.size());
  }
  state.SetItemsProcessed(state.iterations() * kScanCount);
}
BENCHMARK(BM_RangeQueryScan)->Arg(0)->Arg(1);

}  // namespace
}  // namespace simq

BENCHMARK_MAIN();
