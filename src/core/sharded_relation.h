/// Horizontal sharding of a relation's data plane.
///
/// A `ShardedRelation` partitions a relation's derived data -- the columnar
/// FeatureStore and the R*-tree over feature points -- into N
/// `RelationShard`s. Record identity stays global: ids are dense in
/// insertion order exactly as in the unsharded engine, shard trees store
/// *global* ids, and a locator (two flat arrays, global id -> (shard,
/// local row)) maps between the two spaces in O(1). Because every
/// per-record computation (normal form, spectrum, distance kernels) is a
/// pure function of that record alone, partitioning cannot change any
/// distance the engine computes -- the scatter-gather drivers in
/// core/database.cc therefore return answers bit-identical to the
/// unsharded engine (see DESIGN.md "Sharded execution").
///
/// Partitioning policies (ShardingOptions::Partition):
///   * kHash:  shard = global id mod N. Balanced for the dense id
///             sequence; inserts keep rotating across shards.
///   * kRange: bulk loads split the batch into N contiguous id ranges;
///             incremental inserts route to the currently smallest shard
///             (ties to the lowest shard index). Deterministic.
///
/// Mutations follow the unsharded contract: callers must hold exclusive
/// access (the query service's writer lock). A mutation bumps only the
/// epoch of the shard it touched. The relation epoch reported to the
/// service layer is the sum of the shard epochs: monotone, and it changes
/// whenever any shard changes, so result-cache keys and snapshot
/// isolation remain correct (service/query_service.h).
///
/// Delta layer (DESIGN.md "Delta layer & MVCC generations"): with the
/// delta layer enabled (the default), a mutation does NOT invalidate the
/// shard's compiled artifacts. The packed snapshot and quantized codes
/// each cover a row prefix [0, covered) frozen at their compile; rows at
/// or past an artifact's coverage are that artifact's *delta* and the
/// scatter-gather drivers scan them exactly (the pointer tree and the
/// columnar store always cover every row, so the delta needs no second
/// index). Deletes are tombstones in a per-shard aliveness bitmap,
/// filtered on every read path and shed from the tree at recompaction.
/// `BuildRecompaction` (under a shared lock: readers keep running, the
/// store is frozen) compiles a fresh live-only tree + snapshot + codes
/// per shard; `PublishRecompaction` (under the exclusive lock, brief)
/// catches up rows appended since the build, swaps the artifacts in, and
/// bumps the shard *generation* -- a second monotone counter, summed like
/// the epoch, that counts published snapshot generations.
///
/// Thread-safety: all const accessors are safe under concurrent readers
/// (the packed snapshot cache takes its own mutex; node-access counters
/// are relaxed atomics). `Append`/`BulkLoad`/`Delete`/
/// `PublishRecompaction` require exclusive access; `BuildRecompaction`
/// requires shared access (no concurrent mutation).

#ifndef SIMQ_CORE_SHARDED_RELATION_H_
#define SIMQ_CORE_SHARDED_RELATION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/feature_store.h"
#include "filter/quantized_codes.h"
#include "index/packed_rtree.h"
#include "index/rtree.h"
#include "ts/feature.h"
#include "ts/time_series.h"
#include "util/logging.h"
#include "util/status.h"

namespace simq {

/// How a Database partitions each relation's data plane.
struct ShardingOptions {
  /// Number of horizontal shards per relation; 1 = the unsharded engine
  /// (a single shard owning everything). Values below 1 clamp to 1.
  int num_shards = 1;

  enum class Partition {
    kHash,   ///< shard = global id mod num_shards
    kRange,  ///< contiguous id ranges per bulk load; inserts fill smallest
  };
  Partition partition = Partition::kHash;

  /// Options with num_shards taken from the SIMQ_SHARDS environment
  /// variable when it is set to a positive integer (benches and the shell
  /// use this; library callers pass options explicitly).
  static ShardingOptions FromEnv();
};

/// One horizontal shard: a FeatureStore slice, the R*-tree over that
/// slice's feature points (storing global record ids), and a lazily
/// compiled packed snapshot of it. Rows are indexed by *local* position;
/// `global_id(local)` maps back to the record id.
class RelationShard {
 public:
  RelationShard(int dims, const RTree::Options& index_options);

  /// One shard's freshly compiled recompaction artifacts, built under a
  /// shared lock and handed to PublishRecompaction under the exclusive
  /// lock.
  struct Recompaction {
    std::unique_ptr<RTree> tree;            // live rows of [0, build_rows)
    std::unique_ptr<PackedRTree> packed;    // snapshot of `tree`
    std::unique_ptr<QuantizedCodes> codes;  // all rows of [0, build_rows)
    int64_t build_rows = 0;   // shard size frozen at build time
    int64_t shed = 0;         // dead rows omitted from `tree`
    int bits = 0;             // code width `codes` was built at
  };

  RelationShard(const RelationShard&) = delete;
  RelationShard& operator=(const RelationShard&) = delete;

  /// Columnar derived data of this shard's records, local row order.
  const FeatureStore& store() const { return store_; }
  /// The shard's mutable ground-truth index. Entry ids are global.
  const RTree& index() const { return *index_; }
  /// Packed snapshot of index(); recompiled lazily when stale. With the
  /// delta layer enabled it goes stale only on bulk load -- appends and
  /// deletes leave it in place and grow its delta instead (see
  /// packed_covered()). Safe against concurrent queries.
  const PackedRTree& packed_index() const {
    return packed_.Get(*index_, size());
  }
  /// Bit-packed scalar-quantized codes of this shard's spectrum rows at
  /// `bits` bits per dimension (filter/quantized_codes.h): derived data
  /// under the same stale-on-mutation contract as the packed snapshot --
  /// a mutation of this shard invalidates only this shard's codes, and
  /// the next filtered query recompiles them. Safe against concurrent
  /// queries.
  const QuantizedCodes& quantized_codes(int bits) const {
    return quantized_.Get(store_, bits);
  }

  /// Degradation-aware variants: null when the (re)compile fails -- the
  /// "packed.compile" / "filter.compile" failpoints, standing in for any
  /// future real compile failure. Callers (core/database.cc engine
  /// resolution) fall back to the pointer tree / exact scan and count the
  /// degradation instead of aborting.
  const PackedRTree* packed_index_or_null() const {
    return packed_.TryGet(*index_, /*can_fail=*/true, size());
  }
  const QuantizedCodes* quantized_codes_or_null(int bits) const {
    return quantized_.TryGet(store_, bits);
  }
  /// Already-compiled fresh codes at `bits`, or null -- never compiles.
  /// The EXPLAIN cardinality estimator reads the quantizer grid through
  /// this so estimating never does (or fails) a code build.
  const QuantizedCodes* quantized_codes_if_fresh(int bits) const;

  int64_t size() const { return static_cast<int64_t>(global_ids_.size()); }
  /// Index point of local row `local`: index().dims() doubles.
  const double* point(int64_t local) const {
    return points_.data() + local * index_->dims();
  }
  int64_t global_id(int64_t local) const {
    return global_ids_[static_cast<size_t>(local)];
  }
  /// Monotone per-shard mutation counter (see file comment).
  uint64_t epoch() const { return epoch_; }
  /// Monotone count of published recompaction generations (file comment).
  uint64_t generation() const { return generation_; }

  /// Tombstone filter: false once local row `local` has been deleted.
  /// Every read path must drop dead rows; their store/code rows stay in
  /// place (ids are dense and rows never move) until recompaction sheds
  /// them from the tree.
  bool alive(int64_t local) const {
    return alive_[static_cast<size_t>(local)] != 0;
  }
  /// Dead rows still present as entries of the current pointer tree
  /// (i.e. not yet shed by a recompaction publish).
  int64_t pending_tombstones() const { return pending_tombstones_; }
  /// Rows covered by the current packed snapshot; rows at or past this
  /// are the snapshot's delta (0 when no fresh snapshot exists).
  int64_t packed_covered() const { return packed_.covered(); }
  /// Mutations (inserts + deletes) applied since the last recompaction
  /// publish -- the delta-pressure signal the service thresholds on.
  int64_t mutations_since_publish() const { return mutations_since_publish_; }

 private:
  friend class ShardedRelation;

  // Derives local row `local` -- already sized in the store and the point
  // column -- from its raw values: the store row (FeatureStore::DeriveRow)
  // and then its index point, read off the stored spectrum.
  void DeriveRow(int64_t local, const double* raw,
                 const FeatureConfig& config);

  FeatureStore store_;
  std::vector<int64_t> global_ids_;  // local row -> global record id
  std::vector<uint8_t> alive_;       // local row -> 0 once deleted
  std::vector<double> points_;       // local row-major feature points
  std::unique_ptr<RTree> index_;
  PackedSnapshotCache packed_;
  QuantizedCodesCache quantized_;
  uint64_t epoch_ = 0;
  uint64_t generation_ = 0;
  int64_t pending_tombstones_ = 0;
  int64_t mutations_since_publish_ = 0;
};

class ShardedRelation {
 public:
  /// `config` fixes how a record's raw values map to its index point
  /// (and so the index dimensionality).
  ShardedRelation(const FeatureConfig& config,
                  const RTree::Options& index_options,
                  const ShardingOptions& options);

  ShardedRelation(const ShardedRelation&) = delete;
  ShardedRelation& operator=(const ShardedRelation&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const RelationShard& shard(int s) const { return *shards_[static_cast<size_t>(s)]; }
  const ShardingOptions& options() const { return options_; }

  /// Total records across shards (== the relation's record count).
  int64_t size() const { return static_cast<int64_t>(shard_of_.size()); }
  /// Relation epoch: the sum of the shard epochs. Monotone; changes on
  /// every mutation of any shard.
  uint64_t epoch() const;
  /// Relation generation: the sum of the shard generations. Monotone;
  /// changes on every recompaction publish of any shard.
  uint64_t generation() const;

  /// Whether mutations leave compiled artifacts in place (delta layer) or
  /// invalidate them (legacy rebuild-per-query; the fuzz oracle). Flip
  /// only under exclusive access.
  bool delta_enabled() const { return delta_enabled_; }
  void set_delta_enabled(bool enabled) { delta_enabled_ = enabled; }

  /// Tombstone filter by global id.
  bool alive(int64_t g) const {
    return shards_[static_cast<size_t>(shard_of(g))]->alive(local_of(g));
  }
  /// Live records across shards.
  int64_t live_size() const { return size() - dead_; }
  /// Rows not covered by any shard's packed snapshot (EXPLAIN
  /// `delta_rows`).
  int64_t delta_rows() const;
  /// Dead rows not yet shed from any shard's tree.
  int64_t pending_tombstones() const;
  /// Largest per-shard mutations_since_publish -- the recompaction
  /// trigger signal.
  int64_t delta_pressure() const;

  /// Locator: which shard holds global id `g`, and at which local row.
  int shard_of(int64_t g) const { return shard_of_[static_cast<size_t>(g)]; }
  int64_t local_of(int64_t g) const { return local_of_[static_cast<size_t>(g)]; }

  /// Row accessors by global id (one locator hop; the scan drivers iterate
  /// shards locally instead and never pay it).
  const double* SpectrumRow(int64_t g) const {
    const RelationShard& s = *shards_[static_cast<size_t>(shard_of(g))];
    return s.store().SpectrumRow(local_of(g));
  }
  const double* NormalRow(int64_t g) const {
    const RelationShard& s = *shards_[static_cast<size_t>(shard_of(g))];
    return s.store().NormalRow(local_of(g));
  }
  double mean(int64_t g) const {
    const RelationShard& s = *shards_[static_cast<size_t>(shard_of(g))];
    return s.store().mean(local_of(g));
  }
  double std_dev(int64_t g) const {
    const RelationShard& s = *shards_[static_cast<size_t>(shard_of(g))];
    return s.store().std_dev(local_of(g));
  }

  /// Routes one new record (global id == size()) to its shard: derives
  /// its normal form, spectrum and feature point from `raw` (the normal
  /// form once), appends them to the shard store, inserts the point into
  /// the shard tree under the global id, and bumps that shard's epoch.
  /// With the delta layer enabled the shard's compiled artifacts stay
  /// valid (the new row is their delta); otherwise they are invalidated.
  /// Caller holds exclusive access.
  void Append(const std::vector<double>& raw);

  /// Bulk load of `batch` as global ids [size(), size() + batch.size()),
  /// every series of one length. Partitions the ids per the configured
  /// policy and sizes each shard's store for its share once; one
  /// ParallelFor over the batch's rows (ThreadPool::Global()) then derives
  /// each row once and writes it straight into its store and point slots;
  /// last, per shard and concurrently across shards, the ids and
  /// aliveness flags are filled and the shard tree is STR bulk-loaded.
  /// The result equals a serial Append of every row into its shard's
  /// store followed by the same STR build. Each loaded shard's epoch is
  /// bumped once. Caller holds exclusive access.
  void BulkLoad(const std::vector<TimeSeries>& batch);

  /// Tombstones global id `g` (false when it is already dead): marks the
  /// row dead, bumps the owning shard's epoch, and -- with the delta
  /// layer enabled -- leaves every compiled artifact in place (read paths
  /// filter on alive()). Caller holds exclusive access.
  bool Delete(int64_t g);

  /// Compiles fresh recompaction artifacts for every shard: a live-only
  /// STR-built tree, its packed snapshot, and quantized codes at `bits`
  /// bits per dimension (skipped when `bits` is outside the supported
  /// widths). Requires shared access -- concurrent readers are fine, the
  /// store must not grow underneath. Fails only at the "recompact.build"
  /// failpoint.
  Status BuildRecompaction(int bits,
                           std::vector<RelationShard::Recompaction>* out) const;

  /// Publishes `built` artifacts: per shard, inserts rows appended since
  /// the build into the fresh tree, swaps it in, installs the snapshot
  /// and codes at their build coverage, bumps the shard generation, and
  /// resets the delta-pressure counter. Requires exclusive access. The
  /// "recompact.publish.before" / ".mid" / ".after" failpoints bracket
  /// the swap (mid fires between shards).
  Status PublishRecompaction(std::vector<RelationShard::Recompaction> built);

 private:
  /// Shard that receives the next incremental append.
  int RouteNext() const;

  FeatureConfig config_;          // raw values -> index point
  int dims_;
  RTree::Options index_options_;  // for recompaction's fresh trees
  ShardingOptions options_;
  std::vector<std::unique_ptr<RelationShard>> shards_;
  std::vector<int32_t> shard_of_;  // global id -> shard
  std::vector<int64_t> local_of_;  // global id -> local row within shard
  int64_t dead_ = 0;               // total tombstoned rows
  bool delta_enabled_ = true;
};

}  // namespace simq

#endif  // SIMQ_CORE_SHARDED_RELATION_H_
