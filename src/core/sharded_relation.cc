#include "core/sharded_relation.h"

#include <algorithm>
#include <utility>

#include "geom/rect.h"
#include "ts/transforms.h"
#include "util/env.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace simq {
namespace {

// Rows per block of the bulk load's derivation fan-out. Deriving a row
// (normal form, DFT, feature point) costs about a microsecond, so a block
// of 256 rows amortizes the scheduling of a pool task many times over.
constexpr int64_t kDeriveGrain = 256;

}  // namespace

ShardingOptions ShardingOptions::FromEnv() {
  ShardingOptions options;
  // A set-but-invalid SIMQ_SHARDS aborts with a clear message instead of
  // silently running unsharded (util/env.h).
  options.num_shards =
      PositiveIntFromEnv("SIMQ_SHARDS", options.num_shards);
  return options;
}

RelationShard::RelationShard(int dims, const RTree::Options& index_options)
    : index_(std::make_unique<RTree>(dims, index_options)) {}

const QuantizedCodes* RelationShard::quantized_codes_if_fresh(
    int bits) const {
  return quantized_.Peek(bits);
}

ShardedRelation::ShardedRelation(const FeatureConfig& config,
                                 const RTree::Options& index_options,
                                 const ShardingOptions& options)
    : config_(config),
      dims_(FeatureDimension(config)),
      index_options_(index_options),
      options_(options) {
  options_.num_shards = std::max(1, options_.num_shards);
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<RelationShard>(dims_, index_options));
  }
}

uint64_t ShardedRelation::epoch() const {
  uint64_t sum = 0;
  for (const auto& shard : shards_) {
    sum += shard->epoch_;
  }
  return sum;
}

uint64_t ShardedRelation::generation() const {
  uint64_t sum = 0;
  for (const auto& shard : shards_) {
    sum += shard->generation_;
  }
  return sum;
}

int64_t ShardedRelation::delta_rows() const {
  int64_t sum = 0;
  for (const auto& shard : shards_) {
    sum += shard->size() - shard->packed_.covered();
  }
  return sum;
}

int64_t ShardedRelation::pending_tombstones() const {
  int64_t sum = 0;
  for (const auto& shard : shards_) {
    sum += shard->pending_tombstones_;
  }
  return sum;
}

int64_t ShardedRelation::delta_pressure() const {
  int64_t max = 0;
  for (const auto& shard : shards_) {
    max = std::max(max, shard->mutations_since_publish_);
  }
  return max;
}

int ShardedRelation::RouteNext() const {
  const int num = num_shards();
  if (num == 1) {
    return 0;
  }
  if (options_.partition == ShardingOptions::Partition::kHash) {
    return static_cast<int>(size() % num);
  }
  // kRange: fill the smallest shard; ties resolve to the lowest index, so
  // the routing is deterministic in the insertion sequence.
  int target = 0;
  for (int s = 1; s < num; ++s) {
    if (shards_[static_cast<size_t>(s)]->size() <
        shards_[static_cast<size_t>(target)]->size()) {
      target = s;
    }
  }
  return target;
}

void RelationShard::DeriveRow(int64_t local, const double* raw,
                              const FeatureConfig& config) {
  store_.DeriveRow(local, raw);
  FeaturePointInto(store_.mean(local), store_.std_dev(local),
                   store_.SpectrumRow(local), store_.spectrum_length(),
                   config, points_.data() + local * index_->dims());
}

void ShardedRelation::Append(const std::vector<double>& raw) {
  const int64_t global = size();
  const int target = RouteNext();
  RelationShard& shard = *shards_[static_cast<size_t>(target)];
  const int n = static_cast<int>(raw.size());
  const int64_t local = shard.store_.AddRows(1, n, n);
  shard_of_.push_back(target);
  local_of_.push_back(local);
  shard.global_ids_.push_back(global);
  shard.alive_.push_back(1);
  shard.points_.resize(shard.points_.size() + static_cast<size_t>(dims_));
  shard.DeriveRow(local, raw.data(), config_);
  const double* point = shard.point(local);
  shard.index_->InsertPoint(std::vector<double>(point, point + dims_),
                            global);
  if (!delta_enabled_) {
    shard.packed_.Invalidate();
    shard.quantized_.Invalidate();
  }
  ++shard.mutations_since_publish_;
  ++shard.epoch_;
}

bool ShardedRelation::Delete(int64_t g) {
  RelationShard& shard = *shards_[static_cast<size_t>(shard_of(g))];
  uint8_t& alive = shard.alive_[static_cast<size_t>(local_of(g))];
  if (alive == 0) {
    return false;
  }
  alive = 0;
  ++dead_;
  ++shard.pending_tombstones_;
  if (!delta_enabled_) {
    shard.packed_.Invalidate();
    shard.quantized_.Invalidate();
  }
  ++shard.mutations_since_publish_;
  ++shard.epoch_;
  return true;
}

void ShardedRelation::BulkLoad(const std::vector<TimeSeries>& batch) {
  const int64_t count = static_cast<int64_t>(batch.size());
  if (count == 0) {
    return;
  }
  const int64_t base = size();
  const int num = num_shards();

  // Partition the batch: per-shard global-id lists, each ascending.
  std::vector<std::vector<int64_t>> shard_ids(static_cast<size_t>(num));
  if (options_.partition == ShardingOptions::Partition::kHash) {
    for (int64_t i = 0; i < count; ++i) {
      const int64_t g = base + i;
      shard_ids[static_cast<size_t>(g % num)].push_back(g);
    }
  } else {
    // kRange: contiguous id blocks, proportionally split.
    for (int s = 0; s < num; ++s) {
      const int64_t lo = base + count * s / num;
      const int64_t hi = base + count * (s + 1) / num;
      for (int64_t g = lo; g < hi; ++g) {
        shard_ids[static_cast<size_t>(s)].push_back(g);
      }
    }
  }

  // Locator entries and every shard's store and point rows are laid out
  // up front -- they depend only on the partition -- so each row below
  // has its own slots to write.
  shard_of_.resize(static_cast<size_t>(base + count));
  local_of_.resize(static_cast<size_t>(base + count));
  const int n = batch.front().length();
  for (int s = 0; s < num; ++s) {
    RelationShard& shard = *shards_[static_cast<size_t>(s)];
    const std::vector<int64_t>& ids = shard_ids[static_cast<size_t>(s)];
    if (ids.empty()) {
      continue;
    }
    const int64_t existing =
        shard.store_.AddRows(static_cast<int64_t>(ids.size()), n, n);
    shard.points_.resize(shard.points_.size() +
                         ids.size() * static_cast<size_t>(dims_));
    for (size_t i = 0; i < ids.size(); ++i) {
      shard_of_[static_cast<size_t>(ids[i])] = s;
      local_of_[static_cast<size_t>(ids[i])] =
          existing + static_cast<int64_t>(i);
    }
  }

  // Derive every row once, in parallel over the whole batch: its normal
  // form and that normal form's spectrum are computed straight into the
  // row's store slots, and its index point from the stored row. Each row
  // is a pure function of its raw values and writes only its own slots,
  // so the result is identical to a serial Append of each row, for any
  // thread count and any shard count.
  ThreadPool::Global().ParallelFor(
      0, count, kDeriveGrain, [&](int64_t /*block*/, int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const int64_t g = base + i;
          shards_[static_cast<size_t>(shard_of(g))]->DeriveRow(
              local_of(g), batch[static_cast<size_t>(i)].values.data(),
              config_);
        }
      });

  // Per shard, the serial remainder: ids, aliveness, and the STR build
  // over the freshly written points. Shards build concurrently; each task
  // touches only its own shard.
  ThreadPool::Global().ParallelFor(
      0, num, /*min_grain=*/1, [&](int64_t /*block*/, int64_t lo, int64_t hi) {
        for (int64_t s = lo; s < hi; ++s) {
          RelationShard& shard = *shards_[static_cast<size_t>(s)];
          const std::vector<int64_t>& ids =
              shard_ids[static_cast<size_t>(s)];
          if (ids.empty()) {
            continue;
          }
          const int64_t first = shard.size();
          shard.global_ids_.insert(shard.global_ids_.end(), ids.begin(),
                                   ids.end());
          shard.alive_.resize(shard.alive_.size() + ids.size(), 1);
          std::vector<std::pair<Rect, int64_t>> entries;
          entries.reserve(ids.size());
          for (size_t i = 0; i < ids.size(); ++i) {
            const double* point =
                shard.points_.data() +
                (first + static_cast<int64_t>(i)) * dims_;
            entries.emplace_back(
                Rect::FromPoint(std::vector<double>(point, point + dims_)),
                ids[i]);
          }
          shard.index_->BulkLoad(std::move(entries));
          // A bulk load replaces the shard tree wholesale, so the compiled
          // artifacts go stale even with the delta layer on; the next
          // compile covers everything, so no delta pressure accrues.
          shard.packed_.Invalidate();
          shard.quantized_.Invalidate();
          shard.mutations_since_publish_ = 0;
          ++shard.epoch_;
        }
      });
}

Status ShardedRelation::BuildRecompaction(
    int bits, std::vector<RelationShard::Recompaction>* out) const {
  SIMQ_RETURN_IF_FAILPOINT("recompact.build");
  out->clear();
  out->reserve(shards_.size());
  for (const auto& shard_ptr : shards_) {
    const RelationShard& shard = *shard_ptr;
    RelationShard::Recompaction built;
    built.build_rows = shard.size();
    built.bits = bits;
    std::vector<std::pair<Rect, int64_t>> entries;
    entries.reserve(static_cast<size_t>(built.build_rows));
    for (int64_t r = 0; r < built.build_rows; ++r) {
      if (!shard.alive(r)) {
        continue;
      }
      const double* point = shard.points_.data() + r * dims_;
      entries.emplace_back(
          Rect::FromPoint(std::vector<double>(point, point + dims_)),
          shard.global_id(r));
    }
    built.shed =
        built.build_rows - static_cast<int64_t>(entries.size());
    built.tree = std::make_unique<RTree>(dims_, index_options_);
    if (!entries.empty()) {
      built.tree->BulkLoad(std::move(entries));
    }
    built.packed = std::make_unique<PackedRTree>(*built.tree);
    if (bits >= ScalarQuantizer::kMinBits &&
        bits <= ScalarQuantizer::kMaxBits && built.build_rows > 0) {
      built.codes = std::make_unique<QuantizedCodes>(shard.store_, bits);
    }
    out->push_back(std::move(built));
  }
  return Status::Ok();
}

Status ShardedRelation::PublishRecompaction(
    std::vector<RelationShard::Recompaction> built) {
  SIMQ_CHECK_EQ(static_cast<int>(built.size()), num_shards());
  SIMQ_RETURN_IF_FAILPOINT("recompact.publish.before");
  for (size_t s = 0; s < shards_.size(); ++s) {
    RelationShard& shard = *shards_[s];
    RelationShard::Recompaction& plan = built[s];
    if (s > 0) {
      // Between-shard boundary: a crash here leaves some shards on the
      // new generation and the rest on the old one -- each shard's
      // artifacts stay self-consistent, so answers are unaffected.
      SIMQ_RETURN_IF_FAILPOINT("recompact.publish.mid");
    }
    // Catch up rows appended since the build (dead or not: the tree keeps
    // an entry per un-shed row; tombstones filter at read time).
    for (int64_t r = plan.build_rows; r < shard.size(); ++r) {
      const double* point = shard.points_.data() + r * dims_;
      plan.tree->InsertPoint(std::vector<double>(point, point + dims_),
                             shard.global_id(r));
    }
    shard.index_ = std::move(plan.tree);
    shard.packed_.Install(std::move(plan.packed), plan.build_rows);
    shard.quantized_.Install(plan.bits, std::move(plan.codes));
    shard.pending_tombstones_ -= plan.shed;
    shard.mutations_since_publish_ = shard.size() - plan.build_rows;
    ++shard.generation_;
  }
  SIMQ_RETURN_IF_FAILPOINT("recompact.publish.after");
  return Status::Ok();
}

}  // namespace simq
