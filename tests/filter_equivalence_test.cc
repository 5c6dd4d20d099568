// Filter-equivalence property suite: the quantized filter-and-refine
// engine (src/filter, MODE FILTERED) must return answers bit-identical to
// the unfiltered engines -- same ids, same names, same IEEE-754 distance
// bits, same tie-breaking, same pair emission -- for every shard count,
// bit width, strategy, and workload, including tie-heavy ones where
// distances land exactly on eps and on the k-th kNN distance. The filter
// may only change HOW MANY exact checks run (stats), never the answer.
//
// Also covered: the bracketing invariant of the quantizer, the code
// round-trip through the bit-packed rows, the lower/upper-bound sandwich
// against brute-force distances, the stale-on-mutation rebuild contract,
// and the planner bias of an explicit MODE FILTERED under VIA AUTO.
//
// Code identity: the blocked, radix-sorted, branchless, pool-parallel
// codes build must reproduce the straightforward build (a std::sort per
// dimension plus a std::upper_bound encode, row-major) exactly -- edges,
// packed rows, dimension planes, scan order and row-energy bound -- at
// every width, at store sizes around the cell count, with a partial last
// dimension block, duplicated rows, and two builds racing on the pool.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/feature_store.h"
#include "core/sharded_relation.h"
#include "filter/bound_kernels.h"
#include "filter/quantized_codes.h"
#include "filter/quantizer.h"
#include "ts/transforms.h"
#include "util/thread_pool.h"
#include "workload/generators.h"

namespace simq {
namespace {

ShardingOptions Sharded(int shards) {
  ShardingOptions options;
  options.num_shards = shards;
  return options;
}

Database BuildDatabase(const std::vector<TimeSeries>& series, int shards,
                       int bits) {
  Database db(FeatureConfig(), RTree::Options(), Sharded(shards));
  FilterOptions filter;
  filter.bits_per_dim = bits;
  db.set_filter_options(filter);
  EXPECT_TRUE(db.CreateRelation("r").ok());
  EXPECT_TRUE(db.BulkLoad("r", series).ok());
  return db;
}

// A clustered, tie-heavy workload: random-walk seeds plus exact
// duplicates (distance exactly 0 under the normal form), vertically
// shifted copies (also distance 0: shifts are invisible to normal forms),
// and small perturbations (tiny nonzero distances), so range answers are
// nonempty and kNN rankings carry genuine ties at the k-th distance.
std::vector<TimeSeries> TieHeavyWorkload(int seeds, int length,
                                         uint64_t seed) {
  std::vector<TimeSeries> series =
      workload::RandomWalkSeries(seeds, length, seed);
  const int base = static_cast<int>(series.size());
  for (int i = 0; i < base; ++i) {
    TimeSeries dup = series[static_cast<size_t>(i)];
    dup.id = "dup" + std::to_string(i);
    series.push_back(dup);

    TimeSeries shifted = series[static_cast<size_t>(i)];
    shifted.id = "shift" + std::to_string(i);
    for (double& v : shifted.values) {
      v += 3.25;
    }
    series.push_back(shifted);

    TimeSeries tweaked = series[static_cast<size_t>(i)];
    tweaked.id = "tweak" + std::to_string(i);
    tweaked.values[static_cast<size_t>(i % length)] += 0.05;
    series.push_back(tweaked);
  }
  return series;
}

void ExpectSameMatches(const QueryResult& expected, const QueryResult& actual,
                       const std::string& context) {
  ASSERT_EQ(expected.matches.size(), actual.matches.size()) << context;
  for (size_t i = 0; i < expected.matches.size(); ++i) {
    EXPECT_EQ(expected.matches[i].id, actual.matches[i].id)
        << context << " row " << i;
    EXPECT_EQ(expected.matches[i].name, actual.matches[i].name)
        << context << " row " << i;
    // Bit-exact: survivors run the identical exact kernels.
    EXPECT_EQ(expected.matches[i].distance, actual.matches[i].distance)
        << context << " row " << i;
  }
}

void ExpectSamePairs(const QueryResult& expected, const QueryResult& actual,
                     const std::string& context) {
  ASSERT_EQ(expected.pairs.size(), actual.pairs.size()) << context;
  // The filtered join preserves the unfiltered emission order exactly
  // (same (i, j) loop, same block merge), so compare verbatim.
  for (size_t i = 0; i < expected.pairs.size(); ++i) {
    EXPECT_EQ(expected.pairs[i].first, actual.pairs[i].first)
        << context << " pair " << i;
    EXPECT_EQ(expected.pairs[i].second, actual.pairs[i].second)
        << context << " pair " << i;
    EXPECT_EQ(expected.pairs[i].distance, actual.pairs[i].distance)
        << context << " pair " << i;
  }
}

// Executes `text` twice -- MODE EXACT vs MODE FILTERED -- and expects
// bit-identical answers; returns the filtered result for stats checks.
QueryResult ExpectFilteredMatchesExact(const Database& db,
                                       const std::string& text,
                                       const std::string& context) {
  Result<QueryResult> exact = db.ExecuteText(text + " MODE EXACT");
  Result<QueryResult> filtered = db.ExecuteText(text + " MODE FILTERED");
  EXPECT_TRUE(exact.ok()) << context << ": " << exact.status().ToString();
  EXPECT_TRUE(filtered.ok())
      << context << ": " << filtered.status().ToString();
  if (!exact.ok() || !filtered.ok()) {
    return QueryResult();
  }
  ExpectSameMatches(exact.value(), filtered.value(), context);
  ExpectSamePairs(exact.value(), filtered.value(), context);
  return filtered.value();
}

TEST(Quantizer, CellsBracketEveryEncodedValue) {
  const std::vector<TimeSeries> series =
      workload::RandomWalkSeries(64, 48, 7);
  FeatureStore store;
  for (const TimeSeries& ts : series) {
    const auto normal = ToNormalForm(ts.values);
    store.Append(ComputeFeatures(ts.values), normal.values);
  }
  for (const int bits : {4, 5, 6, 7, 8}) {
    const ScalarQuantizer q = ScalarQuantizer::Train(store, bits);
    ASSERT_EQ(q.dims(), 2 * store.spectrum_length());
    ASSERT_EQ(q.cells(), 1 << bits);
    for (int64_t i = 0; i < store.size(); ++i) {
      const double* row = store.SpectrumRow(i);
      for (int d = 0; d < q.dims(); ++d) {
        const uint32_t c = q.Encode(d, row[d]);
        ASSERT_LT(c, static_cast<uint32_t>(q.cells()));
        const double* edges = q.bounds(d);
        EXPECT_LE(edges[c], row[d]) << "bits " << bits << " dim " << d;
        EXPECT_GE(edges[c + 1], row[d]) << "bits " << bits << " dim " << d;
      }
    }
  }
}

TEST(QuantizedCodes, PackedRowsRoundTripEveryWidth) {
  const std::vector<TimeSeries> series =
      workload::RandomWalkSeries(40, 33, 11);  // odd length: tail dims
  FeatureStore store;
  for (const TimeSeries& ts : series) {
    const auto normal = ToNormalForm(ts.values);
    store.Append(ComputeFeatures(ts.values), normal.values);
  }
  for (const int bits : {4, 5, 6, 7, 8}) {
    const QuantizedCodes codes(store, bits);
    ASSERT_EQ(codes.size(), store.size());
    for (int64_t i = 0; i < codes.size(); ++i) {
      const double* row = store.SpectrumRow(i);
      for (int d = 0; d < codes.dims(); ++d) {
        EXPECT_EQ(QuantizedCodes::CodeAt(codes.CodeRow(i), d, bits),
                  codes.quantizer().Encode(d, row[d]))
            << "bits " << bits << " row " << i << " dim " << d;
      }
    }
  }
}

FeatureStore StoreOf(const std::vector<TimeSeries>& series) {
  FeatureStore store;
  for (const TimeSeries& ts : series) {
    const auto normal = ToNormalForm(ts.values);
    store.Append(ComputeFeatures(ts.values), normal.values);
  }
  return store;
}

// The reference codes build: per dimension, a gathered column sorted with
// std::sort for the quantile edges, then a row-major encode through
// std::upper_bound that packs the rows, fills the dimension planes and
// accumulates the column sums, and a variance sort for the scan order.
struct ReferenceCodes {
  int dims = 0;
  int cells = 0;
  int64_t row_stride = 0;
  double max_row_energy = 0.0;
  std::vector<double> bounds;  // dims * (cells + 1)
  std::vector<uint8_t> codes;
  std::vector<uint8_t> columns;
  std::vector<int32_t> scan_order;

  const double* edges(int d) const {
    return bounds.data() + static_cast<size_t>(d) * (cells + 1);
  }
};

uint32_t ReferenceEncode(const double* edges, int cells, double value) {
  const double* it = std::upper_bound(edges, edges + cells + 1, value);
  int64_t c = (it - edges) - 1;
  if (c < 0) {
    c = 0;
  } else if (c >= cells) {
    c = cells - 1;
  }
  return static_cast<uint32_t>(c);
}

ReferenceCodes BuildReferenceCodes(const FeatureStore& store, int bits) {
  ReferenceCodes ref;
  ref.cells = 1 << bits;
  const int64_t count = store.size();
  ref.dims = 2 * store.spectrum_length();
  const int dims = ref.dims;
  ref.bounds.resize(static_cast<size_t>(dims) * (ref.cells + 1));
  std::vector<double> column(static_cast<size_t>(count));
  for (int d = 0; d < dims; ++d) {
    for (int64_t i = 0; i < count; ++i) {
      column[static_cast<size_t>(i)] = store.SpectrumRow(i)[d];
    }
    std::sort(column.begin(), column.end());
    double* edges =
        ref.bounds.data() + static_cast<size_t>(d) * (ref.cells + 1);
    for (int c = 0; c <= ref.cells; ++c) {
      const int64_t rank =
          count <= 1 ? 0 : static_cast<int64_t>(c) * (count - 1) / ref.cells;
      edges[c] = column[static_cast<size_t>(rank)];
    }
    const double widest =
        std::max(std::abs(edges[0]), std::abs(edges[ref.cells]));
    ref.max_row_energy += widest * widest;
  }
  const int64_t payload = (static_cast<int64_t>(dims) * bits + 7) / 8;
  ref.row_stride = (payload + 8 + 7) & ~int64_t{7};
  ref.codes.assign(static_cast<size_t>(count * ref.row_stride), 0);
  ref.columns.resize(static_cast<size_t>(dims) * count);
  std::vector<double> sum(static_cast<size_t>(dims), 0.0);
  std::vector<double> sum_sq(static_cast<size_t>(dims), 0.0);
  for (int64_t i = 0; i < count; ++i) {
    const double* row = store.SpectrumRow(i);
    uint8_t* out = ref.codes.data() + i * ref.row_stride;
    for (int d = 0; d < dims; ++d) {
      const uint64_t code = ReferenceEncode(ref.edges(d), ref.cells, row[d]);
      const int64_t bit = static_cast<int64_t>(d) * bits;
      uint64_t word = 0;
      std::memcpy(&word, out + (bit >> 3), sizeof(word));
      word |= code << (bit & 7);
      std::memcpy(out + (bit >> 3), &word, sizeof(word));
      ref.columns[static_cast<size_t>(d) * count + i] =
          static_cast<uint8_t>(code);
      sum[static_cast<size_t>(d)] += row[d];
      sum_sq[static_cast<size_t>(d)] += row[d] * row[d];
    }
  }
  std::vector<double> variance(static_cast<size_t>(dims), 0.0);
  for (int d = 0; d < dims; ++d) {
    const double mean =
        sum[static_cast<size_t>(d)] / static_cast<double>(count);
    variance[static_cast<size_t>(d)] =
        sum_sq[static_cast<size_t>(d)] / static_cast<double>(count) -
        mean * mean;
  }
  ref.scan_order.resize(static_cast<size_t>(dims));
  for (int d = 0; d < dims; ++d) {
    ref.scan_order[static_cast<size_t>(d)] = d;
  }
  std::sort(ref.scan_order.begin(), ref.scan_order.end(),
            [&](int32_t a, int32_t b) {
              if (variance[static_cast<size_t>(a)] !=
                  variance[static_cast<size_t>(b)]) {
                return variance[static_cast<size_t>(a)] >
                       variance[static_cast<size_t>(b)];
              }
              return a < b;
            });
  return ref;
}

bool SameBytes(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

// Edges equal as doubles (a radix sort may order -0.0 and +0.0 unlike
// std::sort; no code depends on that order); everything else
// byte-identical.
void ExpectSameCodes(const ReferenceCodes& ref, const QuantizedCodes& codes,
                     const std::string& context) {
  ASSERT_EQ(codes.dims(), ref.dims) << context;
  ASSERT_EQ(codes.cells(), ref.cells) << context;
  ASSERT_EQ(codes.row_stride(), ref.row_stride) << context;
  const int64_t count = codes.size();
  for (int d = 0; d < ref.dims; ++d) {
    const double* edges = codes.quantizer().bounds(d);
    for (int c = 0; c <= ref.cells; ++c) {
      ASSERT_EQ(edges[c], ref.edges(d)[c])
          << context << " dim " << d << " edge " << c;
    }
    ASSERT_EQ(std::memcmp(codes.Column(d),
                          ref.columns.data() + static_cast<size_t>(d) * count,
                          static_cast<size_t>(count)),
              0)
        << context << " column " << d;
  }
  if (count > 0) {
    ASSERT_EQ(std::memcmp(codes.CodeRow(0), ref.codes.data(),
                          static_cast<size_t>(count * ref.row_stride)),
              0)
        << context << " packed rows";
  }
  EXPECT_EQ(codes.scan_order(), ref.scan_order) << context;
  EXPECT_TRUE(SameBytes(codes.quantizer().max_row_energy(),
                        ref.max_row_energy))
      << context << " max_row_energy " << codes.quantizer().max_row_energy()
      << " vs " << ref.max_row_energy;
}

TEST(QuantizedCodes, BuildMatchesReferenceAtEveryWidthAndSize) {
  // Odd spectrum length 33: 66 dimensions, so the last block of 8 holds 2.
  // The tie-heavy workload repeats rows exactly (dup*, shift*).
  const std::vector<TimeSeries> pool = TieHeavyWorkload(300, 33, 5);
  for (const int bits : {4, 5, 6, 7, 8}) {
    const int cells = 1 << bits;
    for (const int rows : {1, 2, cells - 1, cells + 1, 1067}) {
      const FeatureStore store = StoreOf(std::vector<TimeSeries>(
          pool.begin(), pool.begin() + rows));
      const ReferenceCodes ref = BuildReferenceCodes(store, bits);
      const std::string context =
          "bits " + std::to_string(bits) + " rows " + std::to_string(rows);
      {
        const QuantizedCodes pooled(store, bits);
        ExpectSameCodes(ref, pooled, context + " pooled");
      }
      {
        ThreadPool::ScopedParallelismBudget serial(1);
        const QuantizedCodes inline_build(store, bits);
        ExpectSameCodes(ref, inline_build, context + " serial");
      }
    }
  }
}

TEST(QuantizedCodes, FullBlocksMatchReferenceOnDuplicatedRows) {
  // Length 128: 256 dimensions, every block full; every row appears twice.
  std::vector<TimeSeries> series = workload::RandomWalkSeries(400, 128, 61);
  const size_t base = series.size();
  for (size_t i = 0; i < base; ++i) {
    series.push_back(series[i]);
  }
  const FeatureStore store = StoreOf(series);
  for (const int bits : {4, 8}) {
    const QuantizedCodes codes(store, bits);
    ExpectSameCodes(BuildReferenceCodes(store, bits), codes,
                    "bits " + std::to_string(bits));
  }
}

TEST(Quantizer, EncodeClampsLikeUpperBoundOutsideTheGrid) {
  const FeatureStore store =
      StoreOf(workload::RandomWalkSeries(100, 21, 29));
  const double kInf = std::numeric_limits<double>::infinity();
  for (const int bits : {4, 5, 6, 7, 8}) {
    const ScalarQuantizer q = ScalarQuantizer::Train(store, bits);
    for (int d = 0; d < q.dims(); ++d) {
      const double* edges = q.bounds(d);
      std::vector<double> probes = {
          -kInf, kInf, std::numeric_limits<double>::quiet_NaN(),
          -std::numeric_limits<double>::quiet_NaN(),
          edges[0] - 1.0, edges[q.cells()] + 1.0, -0.0, 0.0};
      for (int c = 0; c <= q.cells(); ++c) {
        probes.push_back(edges[c]);
        probes.push_back(std::nextafter(edges[c], -kInf));
        probes.push_back(std::nextafter(edges[c], kInf));
      }
      for (const double value : probes) {
        EXPECT_EQ(q.Encode(d, value),
                  ReferenceEncode(edges, q.cells(), value))
            << "bits " << bits << " dim " << d << " value " << value;
      }
    }
  }
}

TEST(QuantizedCodes, ConcurrentBuildsOnThePoolMatchASerialBuild) {
  // Two builds of the same store fan out on the shared pool at once (a
  // query's lazy compile racing a fold); both must equal the serial
  // reference build.
  const FeatureStore store =
      StoreOf(workload::RandomWalkSeries(1067, 64, 73));
  const ReferenceCodes serial = BuildReferenceCodes(store, 8);
  for (int round = 0; round < 3; ++round) {
    std::unique_ptr<QuantizedCodes> built[2];
    std::thread builders[2];
    for (int t = 0; t < 2; ++t) {
      builders[t] = std::thread(
          [&, t] { built[t] = std::make_unique<QuantizedCodes>(store, 8); });
    }
    for (std::thread& builder : builders) {
      builder.join();
    }
    for (int t = 0; t < 2; ++t) {
      ExpectSameCodes(serial, *built[t],
                      "round " + std::to_string(round) + " builder " +
                          std::to_string(t));
    }
  }
}

TEST(BoundKernels, LowerUpperSandwichBruteForceDistances) {
  const int length = 40;
  const std::vector<TimeSeries> series =
      workload::RandomWalkSeries(80, length, 19);
  FeatureStore store;
  for (const TimeSeries& ts : series) {
    const auto normal = ToNormalForm(ts.values);
    store.Append(ComputeFeatures(ts.values), normal.values);
  }
  const int n = store.spectrum_length();
  for (const int bits : {4, 8}) {
    const QuantizedCodes codes(store, bits);
    // Queries: stored rows (exact cell hits) and perturbed ones.
    for (int qi = 0; qi < 8; ++qi) {
      std::vector<double> query(static_cast<size_t>(2 * n));
      const double* src = store.SpectrumRow(qi * 7 % store.size());
      for (int d = 0; d < 2 * n; ++d) {
        query[static_cast<size_t>(d)] = src[d] + (qi % 3 - 1) * 0.01 * d;
      }
      const QueryLuts luts = BuildQueryLuts(
          codes.quantizer(), query.data(), nullptr, n, /*with_upper=*/true);
      WithFilterBits(bits, [&](auto tag) {
        constexpr int kBits = decltype(tag)::value;
        for (int64_t i = 0; i < codes.size(); ++i) {
          const double exact_sq = RowDistanceSq(
              store.SpectrumRow(i), query.data(), n,
              std::numeric_limits<double>::infinity());
          double ub_sq = 0.0;
          const double lb_sq = LowerUpperBoundSq<kBits>(
              codes.CodeRow(i), luts,
              std::numeric_limits<double>::infinity(), &ub_sq);
          // The sandwich must hold up to the documented FP slack.
          EXPECT_LE(lb_sq, SafeThreshold(exact_sq, luts.slack))
              << "bits " << bits << " row " << i;
          EXPECT_LE(exact_sq, SafeThreshold(ub_sq, luts.slack))
              << "bits " << bits << " row " << i;
        }
      });
    }
  }
}

TEST(FilterEquivalence, RangeKnnJoinAcrossShardsAndWidths) {
  const std::vector<TimeSeries> series = TieHeavyWorkload(12, 32, 23);
  for (const int shards : {1, 2, 4}) {
    for (const int bits : {4, 6, 8}) {
      const Database db = BuildDatabase(series, shards, bits);
      const std::string tag =
          "shards=" + std::to_string(shards) + " bits=" + std::to_string(bits);
      // Range: eps 0 (exact duplicates only), a mid eps, and a huge eps
      // (everything matches -- zero pruning, pure pass-through).
      for (const char* eps : {"0", "0.3", "2.5", "1e6"}) {
        ExpectFilteredMatchesExact(
            db,
            std::string("RANGE r WITHIN ") + eps + " OF #walk0 VIA SCAN",
            tag + " range eps=" + eps);
      }
      // kNN: k hitting the duplicate/shift tie groups, k = 1, k > count.
      for (const char* k : {"1", "3", "7", "500"}) {
        ExpectFilteredMatchesExact(
            db, std::string("NEAREST ") + k + " r TO #walk1 VIA SCAN",
            tag + " knn k=" + k);
      }
      // Literal query series (not a stored record).
      ExpectFilteredMatchesExact(
          db,
          "NEAREST 5 r TO [1, 2, 1.5, 3, 2, 1, 0.5, 1, 2, 3, 2.5, 2, 1, 0, "
          "1, 2, 1, 0.5, 0, 1, 2, 3, 2, 1, 1.5, 2, 2.5, 3, 2, 1, 0.5, 0] "
          "VIA SCAN",
          tag + " knn literal");
      // Self-join at a tie-rich eps and at 0 (duplicate pairs only).
      for (const char* eps : {"0", "0.4", "3.0"}) {
        const QueryResult filtered = ExpectFilteredMatchesExact(
            db, std::string("PAIRS r WITHIN ") + eps + " VIA SCAN",
            tag + " join eps=" + eps);
        EXPECT_TRUE(filtered.stats.used_filter) << tag;
        EXPECT_GT(filtered.stats.filter_scanned, 0) << tag;
      }
    }
  }
}

TEST(FilterEquivalence, EpsilonExactlyAtStoredDistanceKeepsTies) {
  const std::vector<TimeSeries> series = TieHeavyWorkload(10, 24, 31);
  const Database db = BuildDatabase(series, 2, 8);
  // Harvest true distances (from a wide RANGE scan, so the doubles come
  // from the same abandoning kernel the boundary query will run), then
  // query with eps exactly equal to one: the boundary record must
  // survive the filter (no false dismissal at the threshold).
  const Result<QueryResult> all =
      db.ExecuteText("RANGE r WITHIN 1e9 OF #walk2 VIA SCAN MODE EXACT");
  ASSERT_TRUE(all.ok());
  ASSERT_GT(all.value().matches.size(), 8u);
  for (const size_t pick : {size_t{3}, size_t{7}}) {
    const double eps = all.value().matches[pick].distance;
    std::ostringstream text;
    text.precision(17);
    text << "RANGE r WITHIN " << eps << " OF #walk2 VIA SCAN";
    const QueryResult filtered =
        ExpectFilteredMatchesExact(db, text.str(), "tie at eps");
    // Every record at distance <= eps (including the boundary ties) is in.
    size_t at_or_below = 0;
    for (const Match& m : all.value().matches) {
      at_or_below += m.distance <= eps ? 1 : 0;
    }
    EXPECT_EQ(filtered.matches.size(), at_or_below);
  }
}

TEST(FilterEquivalence, SpectralMultiplierRulesUseWeightedLuts) {
  const std::vector<TimeSeries> series = TieHeavyWorkload(10, 32, 41);
  for (const int shards : {1, 3}) {
    const Database db = BuildDatabase(series, shards, 8);
    const std::string tag = "shards=" + std::to_string(shards);
    // mavg lowers to a spectral multiplier with zero entries at some
    // frequencies (the base-constant path of the LUT builder).
    ExpectFilteredMatchesExact(
        db, "RANGE r WITHIN 1.0 OF #walk0 USING mavg(4) VIA SCAN",
        tag + " range mavg");
    ExpectFilteredMatchesExact(
        db, "NEAREST 6 r TO #walk3 USING mavg(8) VIA SCAN",
        tag + " knn mavg");
    // Transformed joins fall back to the exact kernels (the filter only
    // covers untransformed joins) -- still bit-identical, filter off.
    const QueryResult join = ExpectFilteredMatchesExact(
        db, "PAIRS r WITHIN 2.0 USING mavg(4) VIA SCAN", tag + " join mavg");
    EXPECT_FALSE(join.stats.used_filter) << tag;
  }
}

TEST(FilterEquivalence, PatternPredicatesApplyBeforeTheCodeScan) {
  const std::vector<TimeSeries> series = TieHeavyWorkload(10, 28, 53);
  const Database db = BuildDatabase(series, 2, 8);
  const QueryResult filtered = ExpectFilteredMatchesExact(
      db, "RANGE r WITHIN 2.0 OF #walk0 VIA SCAN MEAN 10 60 STD 0.5 30",
      "stats pattern");
  // Records excluded by the pattern are never bound-scanned.
  EXPECT_LT(filtered.stats.filter_scanned,
            static_cast<int64_t>(series.size()));
  ExpectFilteredMatchesExact(
      db, "NEAREST 4 r TO #walk1 VIA SCAN MEAN 10 60", "knn pattern");
}

TEST(FilterEquivalence, ExplicitFilteredBiasesAutoPlanningToScan) {
  const std::vector<TimeSeries> series = TieHeavyWorkload(8, 24, 61);
  const Database db = BuildDatabase(series, 1, 8);
  const Result<QueryResult> filtered =
      db.ExecuteText("RANGE r WITHIN 0.5 OF #walk0 MODE FILTERED");
  ASSERT_TRUE(filtered.ok());
  EXPECT_FALSE(filtered.value().stats.used_index);
  EXPECT_TRUE(filtered.value().stats.used_filter);
  // Same query without the request plans the index as before.
  const Result<QueryResult> target =
      db.ExecuteText("RANGE r WITHIN 0.5 OF #walk0");
  ASSERT_TRUE(target.ok());
  EXPECT_TRUE(target.value().stats.used_index);
  ExpectSameMatches(target.value(), filtered.value(), "auto bias");
  // VIA INDEX + MODE FILTERED keeps the index path (filter inapplicable).
  const Result<QueryResult> indexed =
      db.ExecuteText("RANGE r WITHIN 0.5 OF #walk0 VIA INDEX MODE FILTERED");
  ASSERT_TRUE(indexed.ok());
  EXPECT_TRUE(indexed.value().stats.used_index);
  EXPECT_FALSE(indexed.value().stats.used_filter);
  ExpectSameMatches(target.value(), indexed.value(), "index unaffected");
  // PAIRS under auto planning: an explicit MODE FILTERED routes an
  // untransformed join to the filtered scan instead of the index join,
  // with an identical pair set (emission orders differ between join
  // methods, so compare as sorted sets of (first, second, distance)).
  const Result<QueryResult> join_filtered =
      db.ExecuteText("PAIRS r WITHIN 0.5 MODE FILTERED");
  ASSERT_TRUE(join_filtered.ok());
  EXPECT_TRUE(join_filtered.value().stats.used_filter);
  EXPECT_FALSE(join_filtered.value().stats.used_index);
  const Result<QueryResult> join_auto = db.ExecuteText("PAIRS r WITHIN 0.5");
  ASSERT_TRUE(join_auto.ok());
  EXPECT_TRUE(join_auto.value().stats.used_index);
  const auto sorted_set = [](const QueryResult& result) {
    std::vector<PairMatch> pairs;
    // Index joins emit both orientations; scans emit each unordered pair
    // once (the documented Table-1 accounting). Canonicalize to ordered
    // (min, max) and dedupe before comparing.
    for (const PairMatch& p : result.pairs) {
      pairs.push_back(PairMatch{std::min(p.first, p.second),
                                std::max(p.first, p.second), p.distance});
    }
    std::sort(pairs.begin(), pairs.end(),
              [](const PairMatch& a, const PairMatch& b) {
                if (a.first != b.first) {
                  return a.first < b.first;
                }
                return a.second < b.second;
              });
    pairs.erase(std::unique(pairs.begin(), pairs.end(),
                            [](const PairMatch& a, const PairMatch& b) {
                              return a.first == b.first &&
                                     a.second == b.second;
                            }),
                pairs.end());
    return pairs;
  };
  const std::vector<PairMatch> expected = sorted_set(join_auto.value());
  const std::vector<PairMatch> actual = sorted_set(join_filtered.value());
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].first, actual[i].first);
    EXPECT_EQ(expected[i].second, actual[i].second);
  }
}

TEST(FilterEquivalence, EngineWideToggleAndStats) {
  const std::vector<TimeSeries> series = TieHeavyWorkload(10, 32, 71);
  Database db = BuildDatabase(series, 2, 8);
  db.set_filter_engine(FilterEngine::kQuantized);
  const Result<QueryResult> on =
      db.ExecuteText("RANGE r WITHIN 0.4 OF #walk0 VIA SCAN");
  ASSERT_TRUE(on.ok());
  EXPECT_TRUE(on.value().stats.used_filter);
  EXPECT_EQ(on.value().stats.candidates, on.value().stats.exact_checks);
  EXPECT_GE(on.value().stats.filter_scanned, on.value().stats.candidates);
  // Pruning must actually bite at a small eps on this workload.
  EXPECT_LT(on.value().stats.candidates, on.value().stats.filter_scanned);
  // Per-query MODE EXACT overrides the engine default.
  const Result<QueryResult> off =
      db.ExecuteText("RANGE r WITHIN 0.4 OF #walk0 VIA SCAN MODE EXACT");
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off.value().stats.used_filter);
  ExpectSameMatches(off.value(), on.value(), "toggle");
}

TEST(FilterEquivalence, CodesRebuildAfterMutationLikeTheSnapshot) {
  std::vector<TimeSeries> series = TieHeavyWorkload(8, 24, 83);
  Database db = BuildDatabase(series, 2, 8);
  const QueryResult before = ExpectFilteredMatchesExact(
      db, "RANGE r WITHIN 1.0 OF #walk0 VIA SCAN", "before insert");
  // Mutate one shard: the new record lands in the delta layer, so the
  // compiled codes stay put -- it is exact-checked, not code-scanned --
  // and the answer must still match the exact engine (which sees it too).
  TimeSeries extra = series[0];
  extra.id = "fresh";
  extra.values[3] += 0.01;
  ASSERT_TRUE(db.Insert("r", extra).ok());
  const QueryResult after = ExpectFilteredMatchesExact(
      db, "RANGE r WITHIN 1.0 OF #walk0 VIA SCAN", "after insert");
  EXPECT_EQ(after.stats.filter_scanned, before.stats.filter_scanned);
  // Recompaction folds the delta row into a fresh generation of codes;
  // only then does the code scan cover it.
  ASSERT_TRUE(db.Recompact("r").ok());
  const QueryResult folded = ExpectFilteredMatchesExact(
      db, "RANGE r WITHIN 1.0 OF #walk0 VIA SCAN", "after recompact");
  EXPECT_EQ(folded.stats.filter_scanned, before.stats.filter_scanned + 1);
  // The new record is an eps-0 duplicate up to the tweak; make sure it
  // can actually be found through the filter.
  const Result<QueryResult> probe =
      db.ExecuteText("NEAREST 2 r TO #fresh VIA SCAN MODE FILTERED");
  ASSERT_TRUE(probe.ok());
  ASSERT_FALSE(probe.value().matches.empty());
  EXPECT_EQ(probe.value().matches[0].name, "fresh");
}

TEST(FilterEquivalence, RawModeAndNonSpectralRulesFallBackExactly) {
  const std::vector<TimeSeries> series = TieHeavyWorkload(8, 24, 97);
  const Database db = BuildDatabase(series, 2, 8);
  // kRaw distances are not in the quantized (normal-form spectral) space:
  // the filter must decline and the answers must still match.
  const QueryResult raw = ExpectFilteredMatchesExact(
      db, "RANGE r WITHIN 50 OF #walk0 VIA SCAN MODE RAW", "raw mode");
  EXPECT_FALSE(raw.stats.used_filter);
  // despike is non-spectral: time-domain fallback, filter off.
  const QueryResult despiked = ExpectFilteredMatchesExact(
      db, "RANGE r WITHIN 2.0 OF #walk0 USING despike(4) VIA SCAN",
      "non-spectral rule");
  EXPECT_FALSE(despiked.stats.used_filter);
}

}  // namespace
}  // namespace simq
