// Bulk-load identity: Database::BulkLoad sizes each shard's FeatureStore
// once and derives every row once, in parallel, straight into its store and
// point slots (core/sharded_relation.h). This suite pins that path to a
// serial reference kept here -- per row ComputeFeatures(raw) plus
// ToNormalForm(raw), appended one at a time with FeatureStore::Append, and
// an STR build over MakeFeaturePoint of each row -- bit for bit: the store
// columns, the index points, the tree, the packed snapshot, the relation's
// stats summary and the snapshot file bytes. It runs 1 and 3 shards, both
// partition policies, batch sizes around the derivation grain, with and
// without a one-thread parallelism budget, over batches that hold a
// constant series and a NaN-bearing one, at series lengths 45 (the
// Bluestein DFT path, with padded store rows), 64 and 128 (the real-input
// FFT path; 128 is perfbench's shape). The store's padding lanes must read
// 0.0 although AddRows leaves new rows uninitialised, and a batch large
// enough for the STR build to tile its slabs on the pool must give the
// tree a serial build gives.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/feature_store.h"
#include "core/persistence.h"
#include "index/packed_rtree.h"
#include "index/rtree.h"
#include "ts/feature.h"
#include "ts/transforms.h"
#include "util/thread_pool.h"
#include "workload/generators.h"

namespace simq {
namespace {

bool SameBits(const double* a, const double* b, int64_t count) {
  return std::memcmp(a, b, static_cast<size_t>(count) * sizeof(double)) ==
         0;
}

bool SameBits(double a, double b) { return SameBits(&a, &b, 1); }

// Random walks plus a constant series (std 0: an all-zero normal form) and
// a series with one NaN value (NaN statistics, spectrum and point).
std::vector<TimeSeries> MakeBatch(int count, int length) {
  std::vector<TimeSeries> batch =
      workload::RandomWalkSeries(count, length, 97 + count);
  if (count > 1) {
    batch[1].values.assign(static_cast<size_t>(length), 3.25);
  }
  if (count > 2) {
    batch[static_cast<size_t>(count / 2)].values[static_cast<size_t>(
        length / 3)] = std::numeric_limits<double>::quiet_NaN();
  }
  return batch;
}

// Rows are padded to a multiple of 8 doubles (64 bytes); the lanes past a
// row's values must hold +0.0. Checked over every row of `store`.
void ExpectZeroPadding(const FeatureStore& store, const std::string& where) {
  const int64_t spectrum_lanes = 2 * int64_t{store.spectrum_length()};
  const int64_t spectrum_stride = (spectrum_lanes + 7) / 8 * 8;
  const int64_t normal_lanes = store.series_length();
  const int64_t normal_stride = (normal_lanes + 7) / 8 * 8;
  const double zero = 0.0;
  for (int64_t i = 0; i < store.size(); ++i) {
    for (int64_t lane = spectrum_lanes; lane < spectrum_stride; ++lane) {
      EXPECT_TRUE(std::memcmp(store.SpectrumRow(i) + lane, &zero,
                              sizeof(zero)) == 0)
          << where << " spectrum row " << i << " lane " << lane;
    }
    for (int64_t lane = normal_lanes; lane < normal_stride; ++lane) {
      EXPECT_TRUE(std::memcmp(store.NormalRow(i) + lane, &zero,
                              sizeof(zero)) == 0)
          << where << " normal row " << i << " lane " << lane;
    }
  }
}

// Leaves freed, nonzero heap memory of about `bytes` behind, so a store
// allocated next is likely to reuse dirty memory rather than fresh zero
// pages -- which would hide a missing write of the padding lanes.
void DirtyTheHeap(size_t bytes) {
  std::vector<double> junk(bytes / sizeof(double),
                           std::numeric_limits<double>::quiet_NaN());
  volatile double sink = junk[junk.size() / 2];
  (void)sink;
}

// Global ids per shard in local-row order, computed from the documented
// partition policies (ShardingOptions), not read from the subject.
std::vector<std::vector<int64_t>> ExpectedPartition(
    int count, const ShardingOptions& sharding) {
  const int num = sharding.num_shards;
  const bool hash = sharding.partition == ShardingOptions::Partition::kHash;
  std::vector<std::vector<int64_t>> ids(static_cast<size_t>(num));
  for (int s = 0; s < num; ++s) {
    for (int64_t g = 0; g < count; ++g) {
      const bool in_shard = hash ? g % num == s
                                 : g >= int64_t{count} * s / num &&
                                       g < int64_t{count} * (s + 1) / num;
      if (in_shard) {
        ids[static_cast<size_t>(s)].push_back(g);
      }
    }
  }
  return ids;
}

// The serial reference for one shard.
struct ReferenceShard {
  FeatureStore store;
  std::vector<std::vector<double>> points;
  std::unique_ptr<RTree> tree;
};

ReferenceShard BuildReferenceShard(const std::vector<TimeSeries>& batch,
                                   const std::vector<int64_t>& ids,
                                   const FeatureConfig& config) {
  ReferenceShard ref;
  std::vector<std::pair<Rect, int64_t>> entries;
  for (const int64_t g : ids) {
    const std::vector<double>& raw = batch[static_cast<size_t>(g)].values;
    const SeriesFeatures features = ComputeFeatures(raw);
    const std::vector<double> normal = ToNormalForm(raw).values;
    ref.store.Append(features, normal);
    ref.points.push_back(MakeFeaturePoint(features, config));
    entries.emplace_back(Rect::FromPoint(ref.points.back()), g);

    // The appended row itself, against the values it was built from, so
    // the reference does not lean on the store code it is checking.
    const int64_t row = ref.store.size() - 1;
    const std::vector<double> spectrum =
        InterleaveSpectrum(features.normal_spectrum);
    EXPECT_TRUE(SameBits(ref.store.SpectrumRow(row), spectrum.data(),
                         static_cast<int64_t>(spectrum.size())));
    EXPECT_TRUE(SameBits(ref.store.PrefixRow(row), spectrum.data(), 4));
    EXPECT_TRUE(SameBits(ref.store.NormalRow(row), normal.data(),
                         static_cast<int64_t>(normal.size())));
    EXPECT_TRUE(SameBits(ref.store.mean(row), features.mean));
    EXPECT_TRUE(SameBits(ref.store.std_dev(row), features.std_dev));
  }
  ref.tree = std::make_unique<RTree>(FeatureDimension(config));
  if (!entries.empty()) {
    // The serial STR build: with a one-thread budget every slab tiles on
    // this thread, one after another.
    ThreadPool::ScopedParallelismBudget serial(1);
    ref.tree->BulkLoad(std::move(entries));
  }
  return ref;
}

void ExpectSameStore(const FeatureStore& got, const FeatureStore& want,
                     const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  if (want.size() == 0) {
    return;
  }
  ASSERT_EQ(got.spectrum_length(), want.spectrum_length()) << where;
  ASSERT_EQ(got.series_length(), want.series_length()) << where;
  for (int64_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(SameBits(got.SpectrumRow(i), want.SpectrumRow(i),
                         2 * int64_t{want.spectrum_length()}))
        << where << " spectrum row " << i;
    EXPECT_TRUE(SameBits(got.NormalRow(i), want.NormalRow(i),
                         want.series_length()))
        << where << " normal row " << i;
    EXPECT_TRUE(SameBits(got.PrefixRow(i), want.PrefixRow(i), 4))
        << where << " prefix row " << i;
    EXPECT_TRUE(SameBits(got.mean(i), want.mean(i))) << where << " mean " << i;
    EXPECT_TRUE(SameBits(got.std_dev(i), want.std_dev(i)))
        << where << " std " << i;
  }
}

void ExpectSameRect(const Rect& got, const Rect& want,
                    const std::string& where) {
  ASSERT_EQ(got.dims(), want.dims()) << where;
  EXPECT_TRUE(SameBits(got.lo_data(), want.lo_data(), want.dims())) << where;
  EXPECT_TRUE(SameBits(got.hi_data(), want.hi_data(), want.dims())) << where;
}

// Structural equality of two pointer trees: same node shapes, levels,
// entry rectangles (bitwise) and ids, in the same order.
void ExpectSameNode(const RTree::Node* got, const RTree::Node* want,
                    const std::string& where) {
  ASSERT_EQ(got->is_leaf, want->is_leaf) << where;
  ASSERT_EQ(got->level, want->level) << where;
  ASSERT_EQ(got->num_entries(), want->num_entries()) << where;
  for (int i = 0; i < want->num_entries(); ++i) {
    const size_t e = static_cast<size_t>(i);
    ExpectSameRect(got->rects[e], want->rects[e], where);
    if (want->is_leaf) {
      EXPECT_EQ(got->ids[e], want->ids[e]) << where;
    } else {
      ExpectSameNode(got->children[e].get(), want->children[e].get(),
                     where + "/" + std::to_string(i));
    }
  }
}

void ExpectSamePacked(const PackedRTree& got, const PackedRTree& want,
                      const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  ASSERT_EQ(got.height(), want.height()) << where;
  ASSERT_EQ(got.node_count(), want.node_count()) << where;
  const int dims = want.dims();
  for (int32_t node = 0; node < want.node_count(); ++node) {
    ASSERT_EQ(got.Level(node), want.Level(node)) << where;
    ASSERT_EQ(got.EntryCount(node), want.EntryCount(node)) << where;
    for (int e = 0; e < want.EntryCount(node); ++e) {
      EXPECT_EQ(got.EntryId(node, e), want.EntryId(node, e)) << where;
      const PackedRect a = got.EntryRect(node, e);
      const PackedRect b = want.EntryRect(node, e);
      for (int d = 0; d < dims; ++d) {
        EXPECT_TRUE(SameBits(a.lo(d), b.lo(d))) << where << " node " << node;
        EXPECT_TRUE(SameBits(a.hi(d), b.hi(d))) << where << " node " << node;
      }
    }
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::string SnapshotBytes(const Database& db, const std::string& tag) {
  const std::string path = ::testing::TempDir() + "/bulk_identity_" +
                           std::to_string(::getpid()) + "_" + tag + ".simqdb";
  EXPECT_TRUE(SaveDatabase(db, path).ok());
  const std::string bytes = ReadFile(path);
  std::remove(path.c_str());
  return bytes;
}

// (num_shards, partition, batch size, one-thread budget, series length)
using Params = std::tuple<int, ShardingOptions::Partition, int, bool, int>;

class BulkLoadIdentityTest : public ::testing::TestWithParam<Params> {};

TEST_P(BulkLoadIdentityTest, MatchesSerialReference) {
  const auto [num_shards, partition, count, budgeted, length] = GetParam();
  ShardingOptions sharding;
  sharding.num_shards = num_shards;
  sharding.partition = partition;
  const FeatureConfig config;
  const std::vector<TimeSeries> batch = MakeBatch(count, length);

  Database db(config, RTree::Options(), sharding);
  ASSERT_TRUE(db.CreateRelation("r").ok());
  DirtyTheHeap(static_cast<size_t>(count) * 2 * static_cast<size_t>(length) *
               sizeof(double));
  {
    std::unique_ptr<ThreadPool::ScopedParallelismBudget> budget;
    if (budgeted) {
      budget = std::make_unique<ThreadPool::ScopedParallelismBudget>(1);
    }
    ASSERT_TRUE(db.BulkLoad("r", batch).ok());
  }
  const Relation& relation = *db.GetRelation("r");
  const ShardedRelation& data = relation.sharded();
  ASSERT_EQ(relation.size(), count);
  ASSERT_EQ(data.num_shards(), num_shards);

  const std::vector<std::vector<int64_t>> partition_ids =
      ExpectedPartition(count, sharding);
  const int dims = FeatureDimension(config);
  for (int s = 0; s < num_shards; ++s) {
    const std::string where = "shard " + std::to_string(s);
    const RelationShard& shard = data.shard(s);
    const std::vector<int64_t>& ids = partition_ids[static_cast<size_t>(s)];
    ASSERT_EQ(shard.size(), static_cast<int64_t>(ids.size())) << where;
    for (size_t i = 0; i < ids.size(); ++i) {
      const int64_t local = static_cast<int64_t>(i);
      EXPECT_EQ(shard.global_id(local), ids[i]) << where;
      EXPECT_EQ(data.shard_of(ids[i]), s) << where;
      EXPECT_EQ(data.local_of(ids[i]), local) << where;
      EXPECT_TRUE(shard.alive(local)) << where;
    }

    const ReferenceShard ref = BuildReferenceShard(batch, ids, config);
    ExpectSameStore(shard.store(), ref.store, where);
    ExpectZeroPadding(shard.store(), where);
    ExpectZeroPadding(ref.store, where + " reference");
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_TRUE(SameBits(shard.point(static_cast<int64_t>(i)),
                           ref.points[i].data(), dims))
          << where << " point " << i;
    }
    ASSERT_EQ(shard.index().size(), ref.tree->size()) << where;
    ExpectSameNode(shard.index().root(), ref.tree->root(), where);
    ExpectSamePacked(shard.packed_index(), PackedRTree(*ref.tree), where);
  }

  // Stats summary: the same fold, in id order, over the reference features.
  StatsSummary want;
  for (int g = 0; g < count; ++g) {
    const SeriesFeatures f =
        ComputeFeatures(batch[static_cast<size_t>(g)].values);
    if (g == 0) {
      want.mean_min = want.mean_max = f.mean;
      want.std_min = want.std_max = f.std_dev;
    } else {
      want.mean_min = std::min(want.mean_min, f.mean);
      want.mean_max = std::max(want.mean_max, f.mean);
      want.std_min = std::min(want.std_min, f.std_dev);
      want.std_max = std::max(want.std_max, f.std_dev);
    }
  }
  const StatsSummary got = SummarizeRelation(relation);
  EXPECT_EQ(std::memcmp(&got, &want, sizeof(got)), 0);

  // Snapshot bytes: a database built by serial inserts saves the same file.
  Database serial(config, RTree::Options(), sharding);
  ASSERT_TRUE(serial.CreateRelation("r").ok());
  for (const TimeSeries& ts : batch) {
    ASSERT_TRUE(serial.Insert("r", ts).ok());
  }
  const std::string tag = std::to_string(num_shards) + "_" +
                          std::to_string(static_cast<int>(partition)) + "_" +
                          std::to_string(count) + "_" +
                          std::to_string(budgeted) + "_" +
                          std::to_string(length);
  EXPECT_EQ(SnapshotBytes(db, tag + "_bulk"),
            SnapshotBytes(serial, tag + "_serial"));

  // Inserts after the exactly sized bulk load grow the store and keep the
  // loaded rows in place.
  const std::vector<TimeSeries> extra =
      workload::RandomWalkSeries(2, length, 5);
  for (size_t i = 0; i < extra.size(); ++i) {
    TimeSeries ts = extra[i];
    ts.id = "extra" + std::to_string(i);
    const Result<int64_t> id = db.Insert("r", ts);
    ASSERT_TRUE(id.ok());
    const SeriesFeatures f = ComputeFeatures(ts.values);
    const std::vector<double> normal = ToNormalForm(ts.values).values;
    EXPECT_TRUE(SameBits(data.SpectrumRow(id.value()),
                         InterleaveSpectrum(f.normal_spectrum).data(),
                         2 * length));
    EXPECT_TRUE(SameBits(data.NormalRow(id.value()), normal.data(), length));
  }
  for (int s = 0; s < num_shards; ++s) {
    const ReferenceShard ref = BuildReferenceShard(
        batch, partition_ids[static_cast<size_t>(s)], config);
    const FeatureStore& store = data.shard(s).store();
    for (int64_t i = 0; i < ref.store.size(); ++i) {
      EXPECT_TRUE(SameBits(store.SpectrumRow(i), ref.store.SpectrumRow(i),
                           2 * length))
          << "shard " << s << " row " << i << " after inserts";
    }
    ExpectZeroPadding(store, "shard " + std::to_string(s) + " after inserts");
  }
}

// One shard holding a batch large enough that the STR build tiles three
// slabs on the pool at each of its first levels (6000 rows: 188 leaf
// groups), loaded with and without a one-thread budget: the tree and the
// packed snapshot match the serial reference bit for bit.
TEST(BulkLoadIdentity, PooledStrTilingMatchesSerialBuild) {
  constexpr int kCount = 6000;
  constexpr int kRowLength = 64;
  const FeatureConfig config;
  const std::vector<TimeSeries> batch = MakeBatch(kCount, kRowLength);
  std::vector<int64_t> ids(kCount);
  for (int64_t g = 0; g < kCount; ++g) {
    ids[static_cast<size_t>(g)] = g;
  }
  const ReferenceShard ref = BuildReferenceShard(batch, ids, config);
  const PackedRTree ref_packed(*ref.tree);
  ShardingOptions sharding;
  sharding.num_shards = 1;
  for (const bool budgeted : {false, true}) {
    const std::string where = budgeted ? "budget1" : "pooled";
    Database db(config, RTree::Options(), sharding);
    ASSERT_TRUE(db.CreateRelation("r").ok());
    {
      std::unique_ptr<ThreadPool::ScopedParallelismBudget> budget;
      if (budgeted) {
        budget = std::make_unique<ThreadPool::ScopedParallelismBudget>(1);
      }
      ASSERT_TRUE(db.BulkLoad("r", batch).ok());
    }
    const RelationShard& shard = db.GetRelation("r")->sharded().shard(0);
    ExpectSameStore(shard.store(), ref.store, where);
    ASSERT_EQ(shard.index().size(), ref.tree->size()) << where;
    ExpectSameNode(shard.index().root(), ref.tree->root(), where);
    ExpectSamePacked(shard.packed_index(), ref_packed, where);
  }
}

std::string ParamName(const ::testing::TestParamInfo<Params>& info) {
  const auto [num_shards, partition, count, budgeted, length] = info.param;
  return std::to_string(num_shards) + "shards_" +
         (partition == ShardingOptions::Partition::kHash ? "hash" : "range") +
         "_" + std::to_string(count) + "rows_" +
         (budgeted ? "budget1" : "pooled") + "_len" + std::to_string(length);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BulkLoadIdentityTest,
    ::testing::Combine(::testing::Values(1, 3),
                       ::testing::Values(ShardingOptions::Partition::kHash,
                                         ShardingOptions::Partition::kRange),
                       ::testing::Values(1, 255, 256, 257, 1067),
                       ::testing::Bool(), ::testing::Values(45, 64, 128)),
    ParamName);

}  // namespace
}  // namespace simq
