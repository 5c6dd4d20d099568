#include "core/database.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/parser.h"
#include "filter/bound_kernels.h"
#include "obs/trace.h"
#include "filter/quantized_codes.h"
#include "geom/search_region.h"
#include "ts/transforms.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace simq {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool StatsAdmit(double mean, double std_dev, const Pattern& pattern) {
  if (pattern.mean_range.has_value()) {
    if (mean < pattern.mean_range->first ||
        mean > pattern.mean_range->second) {
      return false;
    }
  }
  if (pattern.std_range.has_value()) {
    if (std_dev < pattern.std_range->first ||
        std_dev > pattern.std_range->second) {
      return false;
    }
  }
  return true;
}

// Cooperative-stop poll for the parallel driver loops: workers check this
// at block boundaries (scan units, shards, outer rows, candidate batches)
// and bail out early; the driver's epilogue then re-checks the context and
// returns its typed error (kTimeout/kCancelled). Cancellation is sticky
// and deadlines are monotone, so the epilogue observes the same verdict
// the workers did. A null context never stops anything.
inline bool ShouldStop(const ExecutionContext* exec) {
  return exec != nullptr && !exec->Check().ok();
}

// How many index candidates / join rows are refined between polls. Poll
// cost is one relaxed load + one clock read, so this mainly bounds how
// much work a cancelled query still does inside one block.
constexpr int64_t kPollStride = 1024;

// Work granularity for ParallelFor over records: aim for blocks of at
// least ~2^19 doubles of kernel work so scheduling overhead stays
// negligible even for short series.
int64_t RecordGrain(int series_length) {
  return std::max<int64_t>(
      64, (int64_t{1} << 19) / std::max(1, 2 * series_length));
}

// Multiplier values of a spectral rule for output frequencies 0..out_n-1,
// materialized once per query so the per-candidate distance kernels stay a
// tight multiply-subtract loop. Returns nullopt for the identity.
std::optional<Spectrum> MaterializeMultiplier(const TransformationRule* rule,
                                              int n) {
  if (rule == nullptr) {
    return std::nullopt;
  }
  const int out_n = rule->OutputLength(n);
  Spectrum multiplier(static_cast<size_t>(out_n));
  for (int f = 0; f < out_n; ++f) {
    const std::optional<Complex> m = rule->Multiplier(f, n);
    SIMQ_CHECK(m.has_value()) << "rule is not spectral";
    multiplier[static_cast<size_t>(f)] = *m;
  }
  return multiplier;
}

// Squared early-abandon limit for a check that accepts a row when its
// distance, sqrt(dist_sq), is <= threshold. A correctly rounded sqrt can
// equal the threshold while dist_sq exceeds threshold * threshold by an
// ulp or two, so the limit sits a relative 2^-49 above the square: a row
// at exactly the threshold is never abandoned, and since the final
// compare decides, abandoning a little later changes no answer.
double AbandonLimitSq(double threshold) {
  return threshold == kInf
             ? kInf
             : threshold * threshold *
                   (1.0 + 8.0 * std::numeric_limits<double>::epsilon());
}

// Exact frequency-domain distance between T(data) and the query spectrum,
// early-abandoning once the partial sum exceeds threshold. `data` is an
// interleaved store row of n coefficients, read in place; `multiplier` is
// the materialized spectral form of T (nullptr for the identity) and may
// be longer than n (expanding rules wrap the row around). Relies on
// Parseval: this equals the time-domain distance between T(x) and q.
double FreqDistance(const double* data, int n, const Spectrum& query,
                    const Spectrum* multiplier, double threshold) {
  const int out_n = multiplier != nullptr
                        ? static_cast<int>(multiplier->size())
                        : n;
  SIMQ_CHECK_EQ(static_cast<int>(query.size()), out_n);
  const double limit = AbandonLimitSq(threshold);
  double sum = 0.0;
  for (int f = 0; f < out_n; ++f) {
    const int k = f % n;
    Complex value(data[2 * k], data[2 * k + 1]);
    if (multiplier != nullptr) {
      value *= (*multiplier)[static_cast<size_t>(f)];
    }
    sum += std::norm(value - query[static_cast<size_t>(f)]);
    if (sum > limit) {
      return kInf;
    }
  }
  return std::sqrt(sum);
}

// Query-side state for the exact checks of ExecuteRange/ExecuteNearest:
// columnar kernels over the sharded FeatureStores whenever the check runs
// in the frequency domain over same-length spectra (the common case);
// generic wraparound/time-domain fallbacks otherwise (expanding rules,
// non-spectral rules, raw mode). Holds references to its constructor
// arguments -- valid within one Execute call. Distance(id) addresses rows
// by global id through the relation's shard locator; the arithmetic is
// identical for every shard count because each kernel reads only that
// record's row.
class ExactChecker {
 public:
  ExactChecker(const Relation& relation, const Query& query,
               const TransformationRule* rule, bool spectral, int out_n,
               const Spectrum& query_spectrum, const Spectrum* mult,
               const std::vector<double>& query_values)
      : relation_(relation),
        data_(relation.sharded()),
        query_(query),
        rule_(rule),
        spectral_(spectral),
        n_(relation.series_length()),
        query_spectrum_(query_spectrum),
        mult_(mult),
        query_values_(query_values),
        columnar_(query.mode == DistanceMode::kNormalForm && spectral &&
                  out_n == relation.series_length()) {
    if (columnar_) {
      query_ri_ = InterleaveSpectrum(query_spectrum);
      if (mult != nullptr) {
        mult_ri_ = InterleaveSpectrum(*mult);
      }
    }
  }

  bool columnar() const { return columnar_; }
  // Interleaved query spectrum / multiplier; empty / null when not
  // columnar (or no multiplier).
  const std::vector<double>& query_ri() const { return query_ri_; }
  const double* mult_ri() const {
    return mult_ri_.empty() ? nullptr : mult_ri_.data();
  }

  // Early-abandoning exact distance to record `id`; `threshold` bounds the
  // distance of interest (kInf disables abandoning).
  double Distance(int64_t id, double threshold) const {
    if (columnar_) {
      const double limit_sq = AbandonLimitSq(threshold);
      const double* mult_ptr = mult_ri();
      const double dist_sq =
          mult_ptr != nullptr
              ? RowDistanceSqMult(data_.SpectrumRow(id), mult_ptr,
                                  query_ri_.data(), n_, limit_sq)
              : RowDistanceSq(data_.SpectrumRow(id), query_ri_.data(), n_,
                              limit_sq);
      return std::sqrt(dist_sq);
    }
    if (query_.mode == DistanceMode::kNormalForm && spectral_) {
      return FreqDistance(data_.SpectrumRow(id), n_, query_spectrum_, mult_,
                          threshold);
    }
    std::vector<double> base;
    if (query_.mode == DistanceMode::kNormalForm) {
      const double* normal = data_.NormalRow(id);
      base.assign(normal, normal + n_);
    } else {
      base = relation_.record(id).raw;
    }
    const std::vector<double> transformed =
        rule_ != nullptr ? rule_->Apply(base) : std::move(base);
    return threshold == kInf
               ? EuclideanDistance(transformed, query_values_)
               : EuclideanDistanceEarlyAbandon(transformed, query_values_,
                                               threshold);
  }

 private:
  const Relation& relation_;
  const ShardedRelation& data_;
  const Query& query_;
  const TransformationRule* rule_;
  const bool spectral_;
  const int n_;
  const Spectrum& query_spectrum_;
  const Spectrum* mult_;
  const std::vector<double>& query_values_;
  const bool columnar_;
  std::vector<double> query_ri_;
  std::vector<double> mult_ri_;
};

// Runs `body` on one shard's index through the chosen traversal engine
// (both engines expose the same Search/NearestNeighbors signatures) and
// returns the node-access delta -- the single place the paper's node-I/O
// accounting is read, so all strategies report it identically.
template <typename Body>
int64_t RunOnShardEngine(const RelationShard& shard, IndexEngine engine,
                         Body&& body) {
  if (engine == IndexEngine::kPacked) {
    const PackedRTree& tree = shard.packed_index();
    const int64_t before = tree.node_accesses();
    body(tree);
    return tree.node_accesses() - before;
  }
  const RTree& tree = shard.index();
  const int64_t before = tree.node_accesses();
  body(tree);
  return tree.node_accesses() - before;
}

// Scatter driver for whole-relation index operations: resolves every
// shard's traversal engine up front (so parallel fan-outs never contend
// on a snapshot rebuild), hands the full tree array to `body`, and
// returns the summed node-access delta across the shards.
template <typename Body>
int64_t RunOnShardEngines(const ShardedRelation& data, IndexEngine engine,
                          Body&& body) {
  const int num_shards = data.num_shards();
  const auto run = [&](const auto& trees) {
    int64_t before = 0;
    for (const auto* tree : trees) {
      before += tree->node_accesses();
    }
    body(trees);
    int64_t after = 0;
    for (const auto* tree : trees) {
      after += tree->node_accesses();
    }
    return after - before;
  };
  if (engine == IndexEngine::kPacked) {
    std::vector<const PackedRTree*> trees;
    trees.reserve(static_cast<size_t>(num_shards));
    for (int s = 0; s < num_shards; ++s) {
      trees.push_back(&data.shard(s).packed_index());
    }
    return run(trees);
  }
  std::vector<const RTree*> trees;
  trees.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    trees.push_back(&data.shard(s).index());
  }
  return run(trees);
}

// One contiguous local-row range of one shard: the work unit of the
// sharded scan drivers. Units are ordered (shard, row range); a
// ParallelFor over the unit list with per-block buffers merged in block
// order is deterministic for any thread count, exactly like the
// pre-sharding blocked scans.
struct ScanUnit {
  int shard = 0;
  int64_t lo = 0;
  int64_t hi = 0;
};

std::vector<ScanUnit> MakeScanUnits(const ShardedRelation& data,
                                    int64_t grain) {
  std::vector<ScanUnit> units;
  for (int s = 0; s < data.num_shards(); ++s) {
    const int64_t n = data.shard(s).size();
    for (int64_t lo = 0; lo < n; lo += grain) {
      units.push_back(ScanUnit{s, lo, std::min(n, lo + grain)});
    }
  }
  return units;
}

// Spectrum-row pointer per global id, gathered once per join so the
// O(N^2) kernels below index records flat regardless of how rows are
// sharded -- the gather is what makes the join answers independent of
// the shard count by construction.
std::vector<const double*> GatherSpectrumRows(const ShardedRelation& data) {
  std::vector<const double*> rows(static_cast<size_t>(data.size()));
  for (int s = 0; s < data.num_shards(); ++s) {
    const RelationShard& shard = data.shard(s);
    const FeatureStore& store = shard.store();
    for (int64_t i = 0; i < shard.size(); ++i) {
      rows[static_cast<size_t>(shard.global_id(i))] = store.SpectrumRow(i);
    }
  }
  return rows;
}

// Per-shard quantized codes plus per-query bound LUTs for the filtered
// scan paths. Codes are resolved (lazily recompiling any shard a mutation
// staled) before the parallel fan-out, so workers never contend on a
// rebuild -- the same discipline as RunOnShardEngines and the packed
// snapshots. LUTs are built against each shard's own quantile grid.
struct ShardFilterState {
  std::vector<const QuantizedCodes*> codes;
  std::vector<QueryLuts> luts;
  // Largest absolute FP slack across the shards: the guard for
  // comparisons that mix bounds from different shards (the kNN tau).
  double max_slack = 0.0;
  int bits = 8;
};

// Nullopt when any shard's code compile fails (the "filter.compile"
// failpoint): the caller counts the degradation and runs the exact scan
// instead -- same answers, no acceleration.
std::optional<ShardFilterState> MakeShardFilterState(
    const ShardedRelation& data, int bits, const double* query_ri,
    const double* mult_ri, int n, bool with_upper) {
  ShardFilterState state;
  const int num_shards = data.num_shards();
  state.codes.reserve(static_cast<size_t>(num_shards));
  state.luts.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    const QuantizedCodes* codes = data.shard(s).quantized_codes_or_null(bits);
    if (codes == nullptr) {
      return std::nullopt;
    }
    state.codes.push_back(codes);
    state.luts.push_back(BuildQueryLuts(codes->quantizer(), query_ri,
                                        mult_ri, n, with_upper));
    state.max_slack = std::max(state.max_slack, state.luts.back().slack);
    state.bits = codes->bits();
  }
  return state;
}

void SortMatches(std::vector<Match>* matches) {
  std::sort(matches->begin(), matches->end(),
            [](const Match& a, const Match& b) {
              if (a.distance != b.distance) {
                return a.distance < b.distance;
              }
              return a.id < b.id;
            });
}

// The query's trace, or null (the common case: one pointer load).
inline obs::Trace* QueryTrace(const Query& query) {
  return query.exec != nullptr ? query.exec->trace() : nullptr;
}

// Pre-execution per-shard cardinality estimates for EXPLAIN / EXPLAIN
// ANALYZE -- computed only for explained or traced queries, never on the
// hot path. Range estimates (`k` == 0) read the shard quantizer's cell
// occupancy when codes are already compiled (the if_fresh peek: a plan
// estimate must not trigger -- or fail -- a code build) and fall back to
// the shard row count; nearest estimates are min(rows, k), since each
// shard contributes at most k candidates to the merge and there is no
// radius to estimate against. Estimates feed the reported plan only; no
// pruning decision reads them.
void FillShardEstimates(const ShardedRelation& data, int bits,
                        const ExactChecker& checker, int n, double epsilon,
                        int k, ExecutionStats* stats) {
  const int num_shards = data.num_shards();
  stats->shard_stats.assign(static_cast<size_t>(num_shards),
                            ExecutionStats::ShardStats{});
  for (int s = 0; s < num_shards; ++s) {
    ExecutionStats::ShardStats& ss =
        stats->shard_stats[static_cast<size_t>(s)];
    ss.shard = s;
    ss.rows = data.shard(s).size();
    if (k > 0) {
      ss.estimated_candidates = std::min<int64_t>(ss.rows, k);
      continue;
    }
    ss.estimated_candidates = ss.rows;
    if (!checker.columnar()) {
      continue;
    }
    const QuantizedCodes* codes =
        data.shard(s).quantized_codes_if_fresh(bits);
    if (codes != nullptr && codes->dims() > 0) {
      const double fraction = EstimateRangeSurvivorFraction(
          codes->quantizer(), checker.query_ri().data(), checker.mult_ri(),
          n, epsilon);
      ss.estimated_candidates = std::min<int64_t>(
          ss.rows, static_cast<int64_t>(std::ceil(
                       fraction * static_cast<double>(ss.rows))));
    }
  }
}

}  // namespace

Relation::Relation(std::string name, const FeatureConfig& config,
                   RTree::Options index_options,
                   const ShardingOptions& sharding)
    : name_(std::move(name)),
      config_(config),
      data_(config, index_options, sharding) {}

const Record& Relation::record(int64_t id) const {
  SIMQ_CHECK_GE(id, 0);
  SIMQ_CHECK_LT(id, size());
  return records_[static_cast<size_t>(id)];
}

const RTree& Relation::index() const {
  SIMQ_CHECK_EQ(data_.num_shards(), 1)
      << "Relation::index() is only defined for unsharded relations; use "
         "sharded().shard(s).index()";
  return data_.shard(0).index();
}

const FeatureStore& Relation::store() const {
  SIMQ_CHECK_EQ(data_.num_shards(), 1)
      << "Relation::store() is only defined for unsharded relations; use "
         "sharded().shard(s).store()";
  return data_.shard(0).store();
}

const PackedRTree& Relation::packed_index() const {
  SIMQ_CHECK_EQ(data_.num_shards(), 1)
      << "Relation::packed_index() is only defined for unsharded "
         "relations; use sharded().shard(s).packed_index()";
  return data_.shard(0).packed_index();
}

Result<int64_t> Relation::FindByName(const std::string& series_name) const {
  const auto it = by_name_.find(series_name);
  if (it == by_name_.end() || !data_.alive(it->second)) {
    // Deleted series resolve like never-inserted ones; the name itself
    // stays reserved (re-inserting it is still AlreadyExists) because ids
    // are dense and the tombstoned row keeps its slot.
    return Status::NotFound("no series named '" + series_name +
                            "' in relation '" + name_ + "'");
  }
  return it->second;
}

Database::Database(FeatureConfig config, RTree::Options index_options,
                   ShardingOptions sharding)
    : config_(config), index_options_(index_options), sharding_(sharding) {
  sharding_.num_shards = std::max(1, sharding_.num_shards);
}

bool Database::UseQuantizedFilter(FilterMode filter) const {
  switch (filter) {
    case FilterMode::kFiltered:
      return true;
    case FilterMode::kExact:
      return false;
    case FilterMode::kDefault:
      break;
  }
  return filter_engine_ == FilterEngine::kQuantized;
}

IndexEngine Database::EffectiveIndexEngine() const {
  if (index_engine_ == IndexEngine::kPacked &&
      PackedRTree::SupportsFanout(index_options_.max_entries)) {
    return IndexEngine::kPacked;
  }
  return IndexEngine::kPointer;
}

IndexEngine Database::ResolveQueryEngine(const ShardedRelation& data,
                                         bool* degraded) const {
  const IndexEngine engine = EffectiveIndexEngine();
  if (engine != IndexEngine::kPacked) {
    return engine;
  }
  // Compile every shard's snapshot up front (the usual pre-fan-out
  // discipline); one failed compile demotes the whole query to the pointer
  // tree so all shards traverse the same engine and the node-access
  // accounting stays coherent.
  for (int s = 0; s < data.num_shards(); ++s) {
    if (data.shard(s).packed_index_or_null() == nullptr) {
      degradation_->packed_compile_failures.fetch_add(
          1, std::memory_order_relaxed);
      degradation_->degraded_queries.fetch_add(1, std::memory_order_relaxed);
      *degraded = true;
      return IndexEngine::kPointer;
    }
  }
  return engine;
}

Status Database::CreateRelation(const std::string& name) {
  if (relations_.count(name) > 0) {
    return Status::AlreadyExists("relation '" + name + "' already exists");
  }
  auto relation =
      std::make_unique<Relation>(name, config_, index_options_, sharding_);
  relation->data_.set_delta_enabled(delta_options_.enabled);
  relations_[name] = std::move(relation);
  return Status::Ok();
}

void Database::set_delta_options(const DeltaOptions& options) {
  delta_options_ = options;
  for (auto& [name, relation] : relations_) {
    relation->data_.set_delta_enabled(options.enabled);
  }
}

Status Database::Delete(const std::string& relation, int64_t id) {
  const auto it = relations_.find(relation);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + relation + "'");
  }
  Relation* rel = it->second.get();
  if (id < 0 || id >= rel->size()) {
    return Status::OutOfRange("series id out of range");
  }
  if (!rel->data_.Delete(id)) {
    return Status::NotFound("series #" + std::to_string(id) +
                            " is already deleted");
  }
  return Status::Ok();
}

Status Database::BuildRecompaction(
    const std::string& relation,
    std::vector<RelationShard::Recompaction>* out) const {
  const Relation* rel = GetRelation(relation);
  if (rel == nullptr) {
    return Status::NotFound("no relation named '" + relation + "'");
  }
  return rel->data_.BuildRecompaction(filter_options_.bits_per_dim, out);
}

Status Database::PublishRecompaction(
    const std::string& relation,
    std::vector<RelationShard::Recompaction> built) {
  const auto it = relations_.find(relation);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + relation + "'");
  }
  return it->second->data_.PublishRecompaction(std::move(built));
}

Status Database::Recompact(const std::string& relation) {
  std::vector<RelationShard::Recompaction> built;
  SIMQ_RETURN_IF_ERROR(BuildRecompaction(relation, &built));
  return PublishRecompaction(relation, std::move(built));
}

Result<int64_t> Database::Insert(const std::string& relation,
                                 const TimeSeries& series) {
  const auto it = relations_.find(relation);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + relation + "'");
  }
  Relation* rel = it->second.get();
  if (series.values.empty()) {
    return Status::InvalidArgument("cannot insert an empty series");
  }
  if (rel->series_length_ == 0) {
    rel->series_length_ = series.length();
  } else if (rel->series_length_ != series.length()) {
    return Status::InvalidArgument(
        "series length does not match relation '" + relation + "'");
  }

  Record record;
  record.id = rel->size();
  record.name =
      series.id.empty() ? "s" + std::to_string(record.id) : series.id;
  if (rel->by_name_.count(record.name) > 0) {
    return Status::AlreadyExists("series '" + record.name +
                                 "' already exists in relation");
  }
  record.raw = series.values;

  // Derive the record's data once, straight into its shard: the shard's
  // store and tree grow, that shard's epoch bumps, and the other shards'
  // snapshots stay warm.
  rel->data_.Append(record.raw);
  rel->by_name_[record.name] = record.id;
  rel->records_.push_back(std::move(record));
  return rel->size() - 1;
}

Status Database::BulkLoad(const std::string& relation,
                          const std::vector<TimeSeries>& series) {
  const auto it = relations_.find(relation);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + relation + "'");
  }
  Relation* rel = it->second.get();
  if (rel->size() != 0) {
    return Status::FailedPrecondition(
        "BulkLoad requires an empty relation; use Insert instead");
  }
  // Validation pass (serial, all-or-nothing: an invalid batch leaves the
  // relation empty, including the series-length sentinel a partial pass
  // may have set). Only cheap checks run here; the expensive per-record
  // derivations happen inside the parallel shard builds below.
  const int prior_length = rel->series_length_;
  const auto fail = [&](Status status) {
    rel->by_name_.clear();
    rel->records_.clear();
    rel->series_length_ = prior_length;
    return status;
  };
  rel->records_.reserve(series.size());
  for (const TimeSeries& ts : series) {
    if (ts.values.empty()) {
      return fail(Status::InvalidArgument("cannot insert an empty series"));
    }
    if (rel->series_length_ == 0) {
      rel->series_length_ = ts.length();
    } else if (rel->series_length_ != ts.length()) {
      return fail(
          Status::InvalidArgument("series length mismatch in bulk load"));
    }
    Record record;
    record.id = rel->size();
    record.name = ts.id.empty() ? "s" + std::to_string(record.id) : ts.id;
    if (rel->by_name_.count(record.name) > 0) {
      return fail(Status::AlreadyExists("series '" + record.name +
                                        "' already exists in relation"));
    }
    record.raw = ts.values;
    rel->by_name_[record.name] = record.id;
    rel->records_.push_back(std::move(record));
  }
  // Row-parallel derivation straight into the pre-sized shard stores,
  // then the per-shard STR builds (core/sharded_relation.h).
  rel->data_.BulkLoad(series);
  return Status::Ok();
}

const Relation* Database::GetRelation(const std::string& name) const {
  const auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, relation] : relations_) {
    names.push_back(name);
  }
  return names;
}

Result<std::vector<double>> Database::ResolveSeries(
    const Relation& relation, const SeriesRef& ref) const {
  if (ref.id.has_value()) {
    if (*ref.id < 0 || *ref.id >= relation.size()) {
      return Status::OutOfRange("series id out of range");
    }
    if (!relation.sharded().alive(*ref.id)) {
      return Status::NotFound("series #" + std::to_string(*ref.id) +
                              " is deleted");
    }
    return relation.record(*ref.id).raw;
  }
  if (ref.name.has_value()) {
    Result<int64_t> id = relation.FindByName(*ref.name);
    if (!id.ok()) {
      return id.status();
    }
    return relation.record(id.value()).raw;
  }
  if (ref.literal.empty()) {
    return Status::InvalidArgument("query series is empty");
  }
  return ref.literal;
}

Result<QueryResult> Database::Execute(const Query& query) const {
  const Relation* relation = GetRelation(query.relation);
  if (relation == nullptr) {
    return Status::NotFound("no relation named '" + query.relation + "'");
  }
  switch (query.kind) {
    case QueryKind::kRange:
      return ExecuteRange(*relation, query);
    case QueryKind::kNearest:
      return ExecuteNearest(*relation, query);
    case QueryKind::kAllPairs: {
      const TransformationRule* left_rule = query.transform.get();
      const TransformationRule* right_rule =
          query.transform_right != nullptr ? query.transform_right.get()
                                           : left_rule;
      if (query.mode != DistanceMode::kNormalForm) {
        return Status::Unimplemented(
            "all-pairs queries support normal-form distances only");
      }
      const int n = relation->series_length();
      bool can_index = true;
      for (const TransformationRule* rule : {left_rule, right_rule}) {
        if (rule == nullptr || n == 0) {
          continue;
        }
        const std::optional<LinearTransform> lowered =
            rule->IndexTransform(n, config_.num_coefficients);
        // Only the data-side (right) transformation must be safe in the
        // index space; the left rule merely transforms the probe point.
        const bool needs_safety = rule == right_rule;
        can_index = can_index && lowered.has_value() &&
                    (!needs_safety || lowered->IsSafeIn(config_.space)) &&
                    rule->OutputLength(n) == n;
      }
      const bool any_rule = left_rule != nullptr || right_rule != nullptr;
      // An explicit MODE FILTERED biases kAuto planning to the filtered
      // early-abandon scan when the quantized join screen applies (an
      // untransformed join: identity or normal-form-invariant rules) --
      // mirroring the range/nearest planners.
      const bool filter_biased =
          query.filter == FilterMode::kFiltered &&
          (left_rule == nullptr || left_rule->IsNormalFormInvariant()) &&
          (right_rule == nullptr || right_rule->IsNormalFormInvariant());
      JoinMethod method = JoinMethod::kScanEarlyAbandon;
      switch (query.strategy) {
        case ExecutionStrategy::kAuto:
          method = filter_biased ? JoinMethod::kScanEarlyAbandon
                   : can_index  ? (any_rule ? JoinMethod::kIndexTransform
                                            : JoinMethod::kIndexNoTransform)
                                : JoinMethod::kScanEarlyAbandon;
          break;
        case ExecutionStrategy::kIndex:
          if (!can_index) {
            return Status::FailedPrecondition(
                "transformation is not index-accelerable for this join");
          }
          method = any_rule ? JoinMethod::kIndexTransform
                            : JoinMethod::kIndexNoTransform;
          break;
        case ExecutionStrategy::kScan:
          method = JoinMethod::kScanEarlyAbandon;
          break;
        case ExecutionStrategy::kScanNoEarlyAbandon:
          method = JoinMethod::kFullScan;
          break;
      }
      // Joins trace as one stage: the join drivers have their own
      // internal phasing, but the service-level question ("where did the
      // time go?") is answered by one span with the pair accounting.
      obs::Trace* const trace = QueryTrace(query);
      const double span_start = trace != nullptr ? trace->NowMs() : 0.0;
      Result<QueryResult> result =
          SelfJoin(query.relation, query.epsilon, left_rule, right_rule,
                   method, query.filter, query.exec);
      if (trace != nullptr && result.ok()) {
        const ExecutionStats& stats = result.value().stats;
        const int span =
            trace->AddCompleted("join", trace->engine_parent(), span_start,
                                trace->NowMs() - span_start);
        trace->SetRows(
            span,
            stats.filter_scanned > 0 ? stats.filter_scanned
                                     : stats.exact_checks,
            stats.filter_scanned > 0
                ? stats.filter_scanned - stats.candidates
                : 0,
            static_cast<int64_t>(result.value().pairs.size()));
      }
      return result;
    }
  }
  return Status::Internal("unknown query kind");
}

Result<QueryResult> Database::ExecuteText(const std::string& text) const {
  Result<Query> query = ParseQuery(text);
  if (!query.ok()) {
    return query.status();
  }
  return Execute(query.value());
}

Result<QueryResult> Database::ExecuteRange(const Relation& relation,
                                           const Query& query) const {
  QueryResult out;
  if (query.epsilon < 0.0) {
    return Status::InvalidArgument("epsilon must be nonnegative");
  }
  SIMQ_RETURN_IF_ERROR(CheckExecution(query.exec));
  const ExecutionContext* exec = query.exec.get();
  obs::Trace* const trace = QueryTrace(query);
  if (relation.size() == 0) {
    return out;
  }
  Result<std::vector<double>> resolved =
      ResolveSeries(relation, query.query_series);
  if (!resolved.ok()) {
    return resolved.status();
  }
  const std::vector<double>& raw_query = resolved.value();

  const TransformationRule* rule = query.transform.get();
  if (query.mode == DistanceMode::kNormalForm && rule != nullptr &&
      rule->IsNormalFormInvariant()) {
    rule = nullptr;  // the [GK95] shortcut: invisible to normal forms
  }
  const int n = relation.series_length();
  const int out_n = rule != nullptr ? rule->OutputLength(n) : n;
  if (static_cast<int>(raw_query.size()) != out_n) {
    return Status::InvalidArgument(
        "query series length does not match the transformed data length");
  }

  // Query-side representation.
  std::vector<double> query_values;
  if (query.mode == DistanceMode::kNormalForm && !query.query_prenormalized) {
    query_values = ToNormalForm(raw_query).values;
  } else {
    query_values = raw_query;
  }
  const Spectrum query_spectrum = Dft(query_values);

  const bool spectral = rule == nullptr || rule->IsSpectral(n);
  std::optional<LinearTransform> index_transform;
  if (rule != nullptr && spectral) {
    index_transform = rule->IndexTransform(n, config_.num_coefficients);
  }
  const std::optional<Spectrum> multiplier =
      spectral ? MaterializeMultiplier(rule, n) : std::nullopt;
  const Spectrum* mult = multiplier.has_value() ? &*multiplier : nullptr;
  const bool can_use_index =
      query.mode == DistanceMode::kNormalForm &&
      (rule == nullptr || (index_transform.has_value() &&
                           index_transform->IsSafeIn(config_.space)));

  ExecutionStrategy strategy = query.strategy;
  if (strategy == ExecutionStrategy::kAuto) {
    // An explicit MODE FILTERED biases planning toward the quantized
    // filter scan whenever that path is eligible (normal-form spectral
    // distance over same-length spectra); otherwise the usual
    // index-first rule.
    const bool filter_eligible = query.filter == FilterMode::kFiltered &&
                                 query.mode == DistanceMode::kNormalForm &&
                                 spectral && out_n == n;
    strategy = filter_eligible  ? ExecutionStrategy::kScan
               : can_use_index ? ExecutionStrategy::kIndex
                                : ExecutionStrategy::kScan;
  }
  if (strategy == ExecutionStrategy::kIndex && !can_use_index) {
    return Status::FailedPrecondition(
        "query is not index-accelerable (requires normal-form mode and a "
        "safe spectral transformation)");
  }

  // Columnar kernels apply whenever the exact check runs in the frequency
  // domain over same-length spectra (the common case); expanding rules
  // (out_n != n, e.g. time warps) fall back to the generic wraparound
  // distance inside the checker.
  const ExactChecker checker(relation, query, rule, spectral, out_n,
                             query_spectrum, mult, query_values);
  const bool columnar = checker.columnar();
  const ShardedRelation& data = relation.sharded();

  // Trivial pattern "a given constant object": check that object directly.
  if (query.pattern.kind == Pattern::Kind::kConstant) {
    if (!query.pattern.constant_id.has_value() ||
        *query.pattern.constant_id < 0 ||
        *query.pattern.constant_id >= relation.size()) {
      return Status::OutOfRange("pattern constant id out of range");
    }
    const Record& record = relation.record(*query.pattern.constant_id);
    if (data.alive(record.id) &&
        StatsAdmit(data.mean(record.id), data.std_dev(record.id),
                   query.pattern)) {
      ++out.stats.exact_checks;
      const double distance = checker.Distance(record.id, query.epsilon);
      if (distance <= query.epsilon) {
        out.matches.push_back(Match{record.id, record.name, distance});
      }
    }
    return out;
  }

  // Quantized-filter eligibility and code compile, resolved before the
  // strategy branch: a failed compile (the "filter.compile" failpoint)
  // falls through to the exact scan below with the degradation counted --
  // same answers, no acceleration, never an abort.
  const int trace_parent = trace != nullptr ? trace->engine_parent() : 0;
  std::optional<ShardFilterState> filter_state;
  if (strategy == ExecutionStrategy::kScan && columnar && n >= 1 &&
      UseQuantizedFilter(query.filter)) {
    // Code resolve (a compile when stale) plus the per-shard LUT builds.
    obs::ScopedSpan setup_span(trace, "filter.setup", trace_parent);
    filter_state = MakeShardFilterState(
        data, filter_options_.bits_per_dim, checker.query_ri().data(),
        checker.mult_ri(), n, /*with_upper=*/false);
    if (!filter_state.has_value()) {
      degradation_->filter_compile_failures.fetch_add(
          1, std::memory_order_relaxed);
      degradation_->degraded_queries.fetch_add(1, std::memory_order_relaxed);
      out.stats.degraded = true;
    }
  }

  // Per-shard estimates (after the code compile above, so the quantizer
  // grid is visible to the estimator on the filtered path) and actuals
  // are produced only for explained or traced queries.
  const bool want_shard_stats = query.explain || trace != nullptr;
  if (want_shard_stats) {
    FillShardEstimates(data, filter_options_.bits_per_dim, checker, n,
                       query.epsilon, /*k=*/0, &out.stats);
  }

  if (strategy == ExecutionStrategy::kIndex) {
    const std::vector<Complex> query_coeffs =
        ExtractCoefficients(query_spectrum, config_.num_coefficients);
    SearchRegion region =
        SearchRegion::MakeRange(query_coeffs, query.epsilon, config_);
    if (config_.include_mean_std) {
      if (query.pattern.mean_range.has_value()) {
        region.ConstrainMean(query.pattern.mean_range->first,
                             query.pattern.mean_range->second);
      }
      if (query.pattern.std_range.has_value()) {
        region.ConstrainStd(query.pattern.std_range->first,
                            query.pattern.std_range->second);
      }
    }
    std::vector<DimAffine> affines;
    const std::vector<DimAffine>* affines_ptr = nullptr;
    if (rule != nullptr) {
      affines = LowerToFeatureSpace(*index_transform, config_);
      affines_ptr = &affines;
    }
    // Scatter: every shard's tree is searched (in parallel across shards;
    // the admission scheduler's per-query parallelism budget caps this
    // fan-out like any other ParallelFor). Gather: per-shard match
    // buffers are concatenated in shard order and canonically sorted
    // below, so the answer is independent of shard count and scheduling.
    const int num_shards = data.num_shards();
    std::vector<std::vector<Match>> shard_matches(
        static_cast<size_t>(num_shards));
    std::vector<int64_t> shard_candidates(static_cast<size_t>(num_shards), 0);
    std::vector<int64_t> shard_checks(static_cast<size_t>(num_shards), 0);
    const IndexEngine engine = ResolveQueryEngine(data, &out.stats.degraded);
    const int64_t node_accesses = RunOnShardEngines(
        data, engine, [&](const auto& trees) {
          ThreadPool::Global().ParallelFor(
              0, num_shards, /*min_grain=*/1,
              [&](int64_t /*block*/, int64_t lo, int64_t hi) {
                for (int64_t s = lo; s < hi; ++s) {
                  if (ShouldStop(exec)) {
                    break;
                  }
                  const double span_start =
                      trace != nullptr ? trace->NowMs() : 0.0;
                  std::vector<int64_t> candidates;
                  trees[static_cast<size_t>(s)]->Search(region, affines_ptr,
                                                        &candidates);
                  shard_candidates[static_cast<size_t>(s)] =
                      static_cast<int64_t>(candidates.size());
                  std::vector<Match>& local =
                      shard_matches[static_cast<size_t>(s)];
                  int64_t checks = 0;
                  bool stopped = false;
                  for (size_t c = 0; c < candidates.size(); ++c) {
                    if (c % kPollStride == 0 && ShouldStop(exec)) {
                      stopped = true;
                      break;
                    }
                    const int64_t id = candidates[c];
                    if (!data.alive(id) ||
                        !StatsAdmit(data.mean(id), data.std_dev(id),
                                    query.pattern)) {
                      continue;
                    }
                    ++checks;
                    const double distance =
                        checker.Distance(id, query.epsilon);
                    if (distance <= query.epsilon) {
                      local.push_back(
                          Match{id, relation.record(id).name, distance});
                    }
                  }
                  if (engine == IndexEngine::kPacked && !stopped) {
                    // Delta scan: rows appended after the shard's packed
                    // snapshot was compiled are not in it -- check them
                    // exactly. The pointer tree (kPointer) always holds
                    // every row, so only the packed engine has a delta.
                    const RelationShard& shard =
                        data.shard(static_cast<int>(s));
                    for (int64_t r = shard.packed_covered();
                         r < shard.size(); ++r) {
                      if (checks % kPollStride == 0 && ShouldStop(exec)) {
                        stopped = true;
                        break;
                      }
                      const int64_t id = shard.global_id(r);
                      if (!shard.alive(r) ||
                          !StatsAdmit(data.mean(id), data.std_dev(id),
                                      query.pattern)) {
                        continue;
                      }
                      ++checks;
                      const double distance =
                          checker.Distance(id, query.epsilon);
                      if (distance <= query.epsilon) {
                        local.push_back(
                            Match{id, relation.record(id).name, distance});
                      }
                    }
                  }
                  shard_checks[static_cast<size_t>(s)] = checks;
                  if (trace != nullptr) {
                    const int span = trace->AddCompleted(
                        "index shard", trace_parent, span_start,
                        trace->NowMs() - span_start);
                    trace->SetShard(span, static_cast<int>(s));
                    trace->SetRows(
                        span, shard_candidates[static_cast<size_t>(s)],
                        shard_candidates[static_cast<size_t>(s)] - checks,
                        static_cast<int64_t>(local.size()));
                  }
                  if (stopped) {
                    break;
                  }
                }
              });
        });
    out.stats.used_index = true;
    out.stats.node_accesses = node_accesses;
    for (int s = 0; s < num_shards; ++s) {
      out.stats.candidates += shard_candidates[static_cast<size_t>(s)];
      out.stats.exact_checks += shard_checks[static_cast<size_t>(s)];
      out.matches.insert(out.matches.end(),
                         shard_matches[static_cast<size_t>(s)].begin(),
                         shard_matches[static_cast<size_t>(s)].end());
      if (want_shard_stats) {
        ExecutionStats::ShardStats& ss =
            out.stats.shard_stats[static_cast<size_t>(s)];
        ss.candidates = shard_candidates[static_cast<size_t>(s)];
        ss.exact_checks = shard_checks[static_cast<size_t>(s)];
      }
    }
  } else if (filter_state.has_value()) {
    // Two-phase quantized filter-and-refine scan (DESIGN.md "Quantized
    // filter"): phase 1 bound-scans the per-shard bit-packed codes and
    // drops every record whose lower-bound distance already exceeds eps
    // (Lemma-1 style: the bound is conservative, so nothing true is
    // dropped); phase 2 refines only the survivors through the exact
    // columnar kernels the unfiltered scan runs -- same kernels, same
    // threshold -- so the answer set and every distance are
    // bit-identical by construction.
    const ShardFilterState& filter = *filter_state;
    const double eps_sq = query.epsilon * query.epsilon;
    ThreadPool& pool = ThreadPool::Global();
    const std::vector<ScanUnit> units = MakeScanUnits(data, RecordGrain(n));
    const size_t max_blocks = static_cast<size_t>(pool.max_blocks());
    std::vector<std::vector<Match>> block_matches(max_blocks);
    std::vector<int64_t> block_checks(max_blocks, 0);
    std::vector<int64_t> block_scanned(max_blocks, 0);
    // Phase 1 and 2 are fused per scan unit on this path, so one span
    // covers both; scanned/pruned/returned separate the phases in the
    // rendered tree. Per-shard survivor counts accumulate into a
    // (block, shard) matrix so blocks never share a cache line or need
    // atomics -- allocated only for explained/traced queries.
    obs::ScopedSpan filter_span(trace, "filter+refine", trace_parent);
    const size_t stat_shards = static_cast<size_t>(data.num_shards());
    std::vector<int64_t> block_shard_checks;
    if (want_shard_stats) {
      block_shard_checks.assign(max_blocks * stat_shards, 0);
    }
    const bool has_pattern = query.pattern.mean_range.has_value() ||
                             query.pattern.std_range.has_value();
    pool.ParallelFor(
        0, static_cast<int64_t>(units.size()), /*min_grain=*/1,
        [&](int64_t block, int64_t unit_lo, int64_t unit_hi) {
          std::vector<Match>& local =
              block_matches[static_cast<size_t>(block)];
          int64_t checks = 0;
          int64_t scanned = 0;
          std::vector<int32_t> active;
          std::vector<double> scratch;
          for (int64_t u = unit_lo; u < unit_hi; ++u) {
            if (ShouldStop(exec)) {
              break;
            }
            const ScanUnit& unit = units[static_cast<size_t>(u)];
            const RelationShard& shard = data.shard(unit.shard);
            const FeatureStore& store = shard.store();
            const QuantizedCodes& codes =
                *filter.codes[static_cast<size_t>(unit.shard)];
            const QueryLuts& luts =
                filter.luts[static_cast<size_t>(unit.shard)];
            // The codes cover a row prefix frozen at their compile; rows
            // past it are the codes' delta and skip the screen entirely
            // (exact-checked below), so a mutation never invalidates the
            // compiled codes.
            const int64_t screen_hi = std::min(unit.hi, codes.size());
            // Pattern and tombstone predicates run before the code scan,
            // so excluded records are never bound-scanned (mirrors the
            // exact scan).
            active.clear();
            if (has_pattern) {
              for (int64_t i = unit.lo; i < screen_hi; ++i) {
                if (shard.alive(i) &&
                    StatsAdmit(store.mean(i), store.std_dev(i),
                               query.pattern)) {
                  active.push_back(static_cast<int32_t>(i - unit.lo));
                }
              }
            } else {
              for (int64_t i = unit.lo; i < screen_hi; ++i) {
                if (shard.alive(i)) {
                  active.push_back(static_cast<int32_t>(i - unit.lo));
                }
              }
            }
            scanned += static_cast<int64_t>(active.size());
            if (!active.empty()) {
              ColumnLowerBoundScan(codes, luts,
                                   SafeThreshold(eps_sq, luts.slack),
                                   unit.lo, screen_hi, &active, &scratch);
            }
            int64_t unit_checks = static_cast<int64_t>(active.size());
            for (const int32_t offset : active) {
              const int64_t id = shard.global_id(unit.lo + offset);
              const double distance = checker.Distance(id, query.epsilon);
              if (distance <= query.epsilon) {
                local.push_back(
                    Match{id, relation.record(id).name, distance});
              }
            }
            // Delta rows of this unit: always exact-checked, never
            // screened -- the unmodified kernels keep the answer
            // bit-identical to the unfiltered scan.
            for (int64_t i = std::max(unit.lo, screen_hi); i < unit.hi;
                 ++i) {
              if (!shard.alive(i) ||
                  !StatsAdmit(store.mean(i), store.std_dev(i),
                              query.pattern)) {
                continue;
              }
              ++unit_checks;
              const int64_t id = shard.global_id(i);
              const double distance = checker.Distance(id, query.epsilon);
              if (distance <= query.epsilon) {
                local.push_back(
                    Match{id, relation.record(id).name, distance});
              }
            }
            checks += unit_checks;
            if (want_shard_stats) {
              block_shard_checks[static_cast<size_t>(block) * stat_shards +
                                 static_cast<size_t>(unit.shard)] +=
                  unit_checks;
            }
          }
          block_checks[static_cast<size_t>(block)] = checks;
          block_scanned[static_cast<size_t>(block)] = scanned;
        });
    out.stats.used_filter = true;
    for (size_t block = 0; block < max_blocks; ++block) {
      out.stats.exact_checks += block_checks[block];
      out.stats.candidates += block_checks[block];
      out.stats.filter_scanned += block_scanned[block];
      out.matches.insert(out.matches.end(), block_matches[block].begin(),
                         block_matches[block].end());
    }
    if (want_shard_stats) {
      for (size_t block = 0; block < max_blocks; ++block) {
        for (size_t s = 0; s < stat_shards; ++s) {
          const int64_t survivors =
              block_shard_checks[block * stat_shards + s];
          out.stats.shard_stats[s].candidates += survivors;
          out.stats.shard_stats[s].exact_checks += survivors;
        }
      }
    }
    filter_span.Rows(out.stats.filter_scanned,
                     out.stats.filter_scanned - out.stats.candidates,
                     static_cast<int64_t>(out.matches.size()));
  } else {
    const bool abandon = strategy != ExecutionStrategy::kScanNoEarlyAbandon;
    const double threshold = abandon ? query.epsilon : kInf;
    // Sharded blocked scan: the unit list enumerates contiguous local-row
    // ranges shard by shard, and the fan-out parallelizes over units --
    // across shards and within them -- with per-block buffers merged in
    // block order, so results stay deterministic for any thread count and
    // shard count. Columnar early-abandoning scans first screen against
    // the shard's packed prefix column (32 sequential bytes per record)
    // and touch the full strided row only for survivors.
    const bool screen = columnar && abandon && threshold != kInf && n >= 2;
    const double limit_sq = AbandonLimitSq(threshold);
    double q0 = 0.0, q1 = 0.0, q2 = 0.0, q3 = 0.0;
    const double* mult_ri_ptr = nullptr;
    if (screen) {
      const std::vector<double>& query_ri = checker.query_ri();
      q0 = query_ri[0];
      q1 = query_ri[1];
      q2 = query_ri[2];
      q3 = query_ri[3];
      mult_ri_ptr = checker.mult_ri();
    }
    ThreadPool& pool = ThreadPool::Global();
    const std::vector<ScanUnit> units = MakeScanUnits(data, RecordGrain(n));
    const size_t max_blocks = static_cast<size_t>(pool.max_blocks());
    std::vector<std::vector<Match>> block_matches(max_blocks);
    std::vector<int64_t> block_checks(max_blocks, 0);
    obs::ScopedSpan scan_span(trace, "scan", trace_parent);
    const size_t stat_shards = static_cast<size_t>(data.num_shards());
    std::vector<int64_t> block_shard_checks;
    if (want_shard_stats) {
      block_shard_checks.assign(max_blocks * stat_shards, 0);
    }
    pool.ParallelFor(
        0, static_cast<int64_t>(units.size()), /*min_grain=*/1,
        [&](int64_t block, int64_t unit_lo, int64_t unit_hi) {
          std::vector<Match>& local =
              block_matches[static_cast<size_t>(block)];
          int64_t checks = 0;
          for (int64_t u = unit_lo; u < unit_hi; ++u) {
            if (ShouldStop(exec)) {
              break;
            }
            const ScanUnit& unit = units[static_cast<size_t>(u)];
            const RelationShard& shard = data.shard(unit.shard);
            const FeatureStore& store = shard.store();
            const int64_t unit_checks_before = checks;
            for (int64_t i = unit.lo; i < unit.hi; ++i) {
              if (!shard.alive(i) ||
                  !StatsAdmit(store.mean(i), store.std_dev(i),
                              query.pattern)) {
                continue;
              }
              ++checks;
              if (screen) {
                const double* p = store.PrefixRow(i);
                const bool dead =
                    mult_ri_ptr != nullptr
                        ? PrefixScreenMultDead(p, mult_ri_ptr, q0, q1, q2,
                                               q3, limit_sq)
                        : PrefixScreenDead(p, q0, q1, q2, q3, limit_sq);
                if (dead) {
                  continue;
                }
              }
              const int64_t id = shard.global_id(i);
              const double distance = checker.Distance(id, threshold);
              if (distance <= query.epsilon) {
                local.push_back(
                    Match{id, relation.record(id).name, distance});
              }
            }
            if (want_shard_stats) {
              block_shard_checks[static_cast<size_t>(block) * stat_shards +
                                 static_cast<size_t>(unit.shard)] +=
                  checks - unit_checks_before;
            }
          }
          block_checks[static_cast<size_t>(block)] = checks;
        });
    for (size_t block = 0; block < max_blocks; ++block) {
      out.stats.exact_checks += block_checks[block];
      out.matches.insert(out.matches.end(), block_matches[block].begin(),
                         block_matches[block].end());
    }
    if (want_shard_stats) {
      for (size_t block = 0; block < max_blocks; ++block) {
        for (size_t s = 0; s < stat_shards; ++s) {
          const int64_t c = block_shard_checks[block * stat_shards + s];
          out.stats.shard_stats[s].candidates += c;
          out.stats.shard_stats[s].exact_checks += c;
        }
      }
    }
    scan_span.Rows(out.stats.exact_checks, 0,
                   static_cast<int64_t>(out.matches.size()));
  }
  // Workers that observed a stop left partial buffers behind; the typed
  // error below discards them so callers never see a partial answer.
  SIMQ_RETURN_IF_ERROR(CheckExecution(query.exec));
  {
    obs::ScopedSpan merge(trace, "merge", trace_parent);
    SortMatches(&out.matches);
    merge.Rows(0, 0, static_cast<int64_t>(out.matches.size()));
  }
  return out;
}

Result<QueryResult> Database::ExecuteNearest(const Relation& relation,
                                             const Query& query) const {
  QueryResult out;
  if (query.k <= 0) {
    return Status::InvalidArgument("k must be positive");
  }
  SIMQ_RETURN_IF_ERROR(CheckExecution(query.exec));
  const ExecutionContext* exec = query.exec.get();
  obs::Trace* const trace = QueryTrace(query);
  if (relation.size() == 0) {
    return out;
  }
  Result<std::vector<double>> resolved =
      ResolveSeries(relation, query.query_series);
  if (!resolved.ok()) {
    return resolved.status();
  }
  const std::vector<double>& raw_query = resolved.value();

  const TransformationRule* rule = query.transform.get();
  if (query.mode == DistanceMode::kNormalForm && rule != nullptr &&
      rule->IsNormalFormInvariant()) {
    rule = nullptr;
  }
  const int n = relation.series_length();
  const int out_n = rule != nullptr ? rule->OutputLength(n) : n;
  if (static_cast<int>(raw_query.size()) != out_n) {
    return Status::InvalidArgument(
        "query series length does not match the transformed data length");
  }

  std::vector<double> query_values;
  if (query.mode == DistanceMode::kNormalForm && !query.query_prenormalized) {
    query_values = ToNormalForm(raw_query).values;
  } else {
    query_values = raw_query;
  }
  const Spectrum query_spectrum = Dft(query_values);

  const bool spectral = rule == nullptr || rule->IsSpectral(n);
  std::optional<LinearTransform> index_transform;
  if (rule != nullptr && spectral) {
    index_transform = rule->IndexTransform(n, config_.num_coefficients);
  }
  const std::optional<Spectrum> multiplier =
      spectral ? MaterializeMultiplier(rule, n) : std::nullopt;
  const Spectrum* mult = multiplier.has_value() ? &*multiplier : nullptr;
  const bool can_use_index =
      query.mode == DistanceMode::kNormalForm &&
      (rule == nullptr || (index_transform.has_value() &&
                           index_transform->IsSafeIn(config_.space)));

  ExecutionStrategy strategy = query.strategy;
  if (strategy == ExecutionStrategy::kAuto) {
    // An explicit MODE FILTERED biases planning toward the quantized
    // filter scan whenever that path is eligible (normal-form spectral
    // distance over same-length spectra); otherwise the usual
    // index-first rule.
    const bool filter_eligible = query.filter == FilterMode::kFiltered &&
                                 query.mode == DistanceMode::kNormalForm &&
                                 spectral && out_n == n;
    strategy = filter_eligible  ? ExecutionStrategy::kScan
               : can_use_index ? ExecutionStrategy::kIndex
                                : ExecutionStrategy::kScan;
  }
  if (strategy == ExecutionStrategy::kIndex && !can_use_index) {
    return Status::FailedPrecondition(
        "query is not index-accelerable (requires normal-form mode and a "
        "safe spectral transformation)");
  }

  // All nearest-neighbor exact checks are unbounded (kInf threshold); the
  // checker picks columnar kernels or fallbacks exactly as in ExecuteRange.
  const ExactChecker checker(relation, query, rule, spectral, out_n,
                             query_spectrum, mult, query_values);
  const ShardedRelation& data = relation.sharded();

  // Same degradation discipline as ExecuteRange: resolve the quantized
  // codes before the branch; a failed compile runs the batched exact scan.
  const int trace_parent = trace != nullptr ? trace->engine_parent() : 0;
  std::optional<ShardFilterState> filter_state;
  if (strategy == ExecutionStrategy::kScan && checker.columnar() && n >= 1 &&
      UseQuantizedFilter(query.filter)) {
    obs::ScopedSpan setup_span(trace, "filter.setup", trace_parent);
    filter_state = MakeShardFilterState(
        data, filter_options_.bits_per_dim, checker.query_ri().data(),
        checker.mult_ri(), n, /*with_upper=*/true);
    if (!filter_state.has_value()) {
      degradation_->filter_compile_failures.fetch_add(
          1, std::memory_order_relaxed);
      degradation_->degraded_queries.fetch_add(1, std::memory_order_relaxed);
      out.stats.degraded = true;
    }
  }

  // Shard estimates / actuals only for explained or traced queries (see
  // ExecuteRange); nearest estimates are min(rows, k) per shard.
  const bool want_shard_stats = query.explain || trace != nullptr;
  if (want_shard_stats) {
    FillShardEstimates(data, filter_options_.bits_per_dim, checker, n,
                       /*epsilon=*/0.0, query.k, &out.stats);
  }

  if (strategy == ExecutionStrategy::kIndex) {
    const std::vector<Complex> query_coeffs =
        ExtractCoefficients(query_spectrum, config_.num_coefficients);
    const NnLowerBound bound(query_coeffs, config_);
    std::vector<DimAffine> affines;
    const std::vector<DimAffine>* affines_ptr = nullptr;
    if (rule != nullptr) {
      affines = LowerToFeatureSpace(*index_transform, config_);
      affines_ptr = &affines;
    }
    const auto exact = [&](int64_t id) {
      if (!data.alive(id) ||
          !StatsAdmit(data.mean(id), data.std_dev(id), query.pattern)) {
        return kInf;  // excluded entries sort to the end and are dropped
      }
      ++out.stats.exact_checks;
      return checker.Distance(id, kInf);
    };
    // Scatter-gather kNN: the shared best-first driver runs per shard,
    // sequentially, and every shard after the first receives the merged
    // k-th distance so far as its pruning bound (answer-preserving: ties
    // at the bound are drained; see index/knn_best_first.h and DESIGN.md
    // "Sharded execution" for the argument). After each shard the merged
    // list is re-sorted by (distance, id) and cut to k -- any record a
    // cut drops is beaten by k results under the final tie-break order
    // and can never re-enter.
    std::vector<std::pair<int64_t, double>> merged;
    int64_t node_accesses = 0;
    const int num_shards = data.num_shards();
    const IndexEngine engine = ResolveQueryEngine(data, &out.stats.degraded);
    for (int s = 0; s < num_shards; ++s) {
      SIMQ_RETURN_IF_ERROR(CheckExecution(query.exec));
      double prune_bound = kInf;
      if (cross_shard_knn_pruning_ &&
          static_cast<int>(merged.size()) >= query.k) {
        prune_bound = merged[static_cast<size_t>(query.k - 1)].second;
      }
      const double span_start = trace != nullptr ? trace->NowMs() : 0.0;
      const int64_t checks_before = out.stats.exact_checks;
      int64_t shard_returned = 0;
      node_accesses += RunOnShardEngine(
          data.shard(s), engine, [&](const auto& tree) {
            const auto shard_results = tree.NearestNeighbors(
                bound, affines_ptr, query.k, exact, prune_bound);
            shard_returned = static_cast<int64_t>(shard_results.size());
            merged.insert(merged.end(), shard_results.begin(),
                          shard_results.end());
          });
      if (engine == IndexEngine::kPacked) {
        // Delta scan: rows appended after the shard's packed snapshot was
        // compiled are invisible to it -- exact-check each and let the
        // canonical (distance, id) re-sort + cut below rank them. The
        // pointer tree always holds every row, so kPointer has no delta.
        const RelationShard& shard = data.shard(s);
        for (int64_t r = shard.packed_covered(); r < shard.size(); ++r) {
          const int64_t id = shard.global_id(r);
          const double distance = exact(id);
          if (distance != kInf) {
            merged.emplace_back(id, distance);
          }
        }
      }
      if (trace != nullptr) {
        const int span =
            trace->AddCompleted("index shard", trace_parent, span_start,
                                trace->NowMs() - span_start);
        trace->SetShard(span, s);
        trace->SetRows(span, out.stats.exact_checks - checks_before, 0,
                       shard_returned);
      }
      if (want_shard_stats) {
        ExecutionStats::ShardStats& ss =
            out.stats.shard_stats[static_cast<size_t>(s)];
        ss.candidates = shard_returned;
        ss.exact_checks = out.stats.exact_checks - checks_before;
      }
      std::sort(merged.begin(), merged.end(),
                [](const std::pair<int64_t, double>& a,
                   const std::pair<int64_t, double>& b) {
                  if (a.second != b.second) {
                    return a.second < b.second;
                  }
                  return a.first < b.first;
                });
      if (static_cast<int>(merged.size()) > query.k) {
        merged.resize(static_cast<size_t>(query.k));
      }
    }
    out.stats.used_index = true;
    out.stats.node_accesses = node_accesses;
    for (const auto& [id, distance] : merged) {
      if (distance == kInf) {
        continue;
      }
      out.matches.push_back(Match{id, relation.record(id).name, distance});
    }
  } else if (filter_state.has_value()) {
    // Two-phase VA-file-style kNN. Phase 1 bound-scans the codes keeping
    // a running lower bound per record AND a per-block heap of the k
    // smallest upper bounds: once k upper bounds <= tau exist, any record
    // whose lower bound exceeds tau provably cannot enter the top k and
    // is abandoned mid-scan. Phase 2 refines the surviving candidates in
    // ascending lower-bound order through the exact kernels, shrinking
    // the bound to the running k-th exact distance; ties at the k-th
    // distance resolve by (distance, id), exactly like the unfiltered
    // ranking, so the answer is bit-identical.
    const ShardFilterState& filter = *filter_state;
    const int k = query.k;
    struct Candidate {
      int64_t id;
      double lb_sq;
    };
    ThreadPool& pool = ThreadPool::Global();
    const std::vector<ScanUnit> units = MakeScanUnits(data, RecordGrain(n));
    const size_t max_blocks = static_cast<size_t>(pool.max_blocks());
    std::vector<std::vector<Candidate>> block_cands(max_blocks);
    std::vector<std::vector<double>> block_ubs(max_blocks);
    std::vector<int64_t> block_scanned(max_blocks, 0);
    // Phase spans: the bound scan and the refine are distinct stages on
    // this path, so each gets its own span (opened/closed around the
    // phase, not RAII -- the boundary falls mid-block).
    const int filter_span =
        trace != nullptr ? trace->StartSpan("filter", trace_parent) : -1;
    const size_t stat_shards = static_cast<size_t>(data.num_shards());
    std::vector<int64_t> block_shard_cands;
    if (want_shard_stats) {
      block_shard_cands.assign(max_blocks * stat_shards, 0);
    }
    WithFilterBits(filter.bits, [&](auto bits_tag) {
      constexpr int kBits = decltype(bits_tag)::value;
      pool.ParallelFor(
          0, static_cast<int64_t>(units.size()), /*min_grain=*/1,
          [&](int64_t block, int64_t unit_lo, int64_t unit_hi) {
            std::vector<Candidate>& cands =
                block_cands[static_cast<size_t>(block)];
            // Max-heap of the k smallest upper bounds seen by this block.
            std::vector<double>& ubs = block_ubs[static_cast<size_t>(block)];
            int64_t scanned = 0;
            for (int64_t u = unit_lo; u < unit_hi; ++u) {
              if (ShouldStop(exec)) {
                break;
              }
              const ScanUnit& unit = units[static_cast<size_t>(u)];
              const RelationShard& shard = data.shard(unit.shard);
              const FeatureStore& store = shard.store();
              const QuantizedCodes& codes =
                  *filter.codes[static_cast<size_t>(unit.shard)];
              const QueryLuts& luts =
                  filter.luts[static_cast<size_t>(unit.shard)];
              // Rows past the codes' coverage are the codes' delta; they
              // are exact-checked up front in the refine phase below and
              // never bound-scanned.
              const int64_t screen_hi = std::min(unit.hi, codes.size());
              for (int64_t i = unit.lo; i < screen_hi; ++i) {
                if (!shard.alive(i) ||
                    !StatsAdmit(store.mean(i), store.std_dev(i),
                                query.pattern)) {
                  continue;
                }
                ++scanned;
                const double tau_sq = static_cast<int>(ubs.size()) >= k
                                          ? ubs.front()
                                          : kInf;
                double ub_sq = kInf;
                // max_slack, not this shard's: a block's heap spans scan
                // units of several shards, so tau may be an upper bound
                // computed against another shard's grid.
                const double lb_sq = LowerUpperBoundSq<kBits>(
                    codes.CodeRow(i), luts,
                    SafeThreshold(tau_sq, filter.max_slack), &ub_sq);
                if (lb_sq == kInf) {
                  continue;  // provably outside the top k
                }
                if (want_shard_stats) {
                  block_shard_cands[static_cast<size_t>(block) *
                                        stat_shards +
                                    static_cast<size_t>(unit.shard)] += 1;
                }
                cands.push_back(Candidate{shard.global_id(i), lb_sq});
                ubs.push_back(ub_sq);
                std::push_heap(ubs.begin(), ubs.end());
                if (static_cast<int>(ubs.size()) > k) {
                  std::pop_heap(ubs.begin(), ubs.end());
                  ubs.pop_back();
                }
              }
            }
            block_scanned[static_cast<size_t>(block)] = scanned;
          });
    });
    // Gather phase: the global tau is the k-th smallest upper bound over
    // every block (at most as large as any block-local tau, so the
    // phase-1 pruning above was conservative).
    std::vector<Candidate> cands;
    std::vector<double> ubs;
    for (size_t block = 0; block < max_blocks; ++block) {
      out.stats.filter_scanned += block_scanned[block];
      cands.insert(cands.end(), block_cands[block].begin(),
                   block_cands[block].end());
      ubs.insert(ubs.end(), block_ubs[block].begin(),
                 block_ubs[block].end());
    }
    out.stats.used_filter = true;
    double tau_sq = kInf;
    if (static_cast<int>(ubs.size()) >= k) {
      std::nth_element(ubs.begin(), ubs.begin() + (k - 1), ubs.end());
      tau_sq = ubs[static_cast<size_t>(k - 1)];
    }
    const double tau_safe = SafeThreshold(tau_sq, filter.max_slack);
    cands.erase(std::remove_if(cands.begin(), cands.end(),
                               [&](const Candidate& c) {
                                 return c.lb_sq > tau_safe;
                               }),
                cands.end());
    std::sort(cands.begin(), cands.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.lb_sq != b.lb_sq) {
                  return a.lb_sq < b.lb_sq;
                }
                return a.id < b.id;
              });
    out.stats.candidates = static_cast<int64_t>(cands.size());
    if (trace != nullptr) {
      trace->SetRows(filter_span, out.stats.filter_scanned,
                     out.stats.filter_scanned - out.stats.candidates,
                     out.stats.candidates);
      trace->EndSpan(filter_span);
    }
    if (want_shard_stats) {
      for (size_t block = 0; block < max_blocks; ++block) {
        for (size_t s = 0; s < stat_shards; ++s) {
          out.stats.shard_stats[s].candidates +=
              block_shard_cands[block * stat_shards + s];
        }
      }
    }
    const int refine_span =
        trace != nullptr ? trace->StartSpan("refine", trace_parent) : -1;
    // Refine in lower-bound order; `best` stays sorted by (distance, id).
    std::vector<std::pair<double, int64_t>> best;
    best.reserve(static_cast<size_t>(k) + 1);
    // Delta rows (past each shard's code coverage) first, exact-checked
    // unconditionally: they have no code lower bound, so giving them one
    // (e.g. zero) could not legally participate in the early break below.
    // Seeding them as finished exact distances keeps the break sound, and
    // the final top-k by (distance, id) is insertion-order independent,
    // so answers stay bit-identical.
    for (int s = 0; s < data.num_shards(); ++s) {
      const RelationShard& shard = data.shard(s);
      const FeatureStore& store = shard.store();
      const int64_t covered =
          filter.codes[static_cast<size_t>(s)]->size();
      for (int64_t i = covered; i < shard.size(); ++i) {
        if (!shard.alive(i) ||
            !StatsAdmit(store.mean(i), store.std_dev(i), query.pattern)) {
          continue;
        }
        const int64_t id = shard.global_id(i);
        ++out.stats.exact_checks;
        if (want_shard_stats) {
          ++out.stats.shard_stats[static_cast<size_t>(s)].exact_checks;
        }
        const std::pair<double, int64_t> entry(checker.Distance(id, kInf),
                                               id);
        if (static_cast<int>(best.size()) >= k) {
          if (!(entry < best.back())) {
            continue;
          }
          best.pop_back();
        }
        best.insert(std::upper_bound(best.begin(), best.end(), entry),
                    entry);
      }
    }
    for (size_t c = 0; c < cands.size(); ++c) {
      if (c % static_cast<size_t>(kPollStride) == 0) {
        SIMQ_RETURN_IF_ERROR(CheckExecution(query.exec));
      }
      const Candidate& cand = cands[c];
      if (static_cast<int>(best.size()) >= k) {
        const double kth = best.back().first;
        if (cand.lb_sq > SafeThreshold(kth * kth, filter.max_slack)) {
          break;  // lb ascending: nothing later can enter either
        }
      }
      ++out.stats.exact_checks;
      if (want_shard_stats) {
        ++out.stats
              .shard_stats[static_cast<size_t>(data.shard_of(cand.id))]
              .exact_checks;
      }
      // Unbounded exact distance: the unfiltered kNN scan computes every
      // distance with the no-abandon kernel, whose summation association
      // differs from the abandoning one -- refining with a finite limit
      // would change result doubles by ulps. The lower-bound pruning
      // above already did the work an abandon would.
      const double distance = checker.Distance(cand.id, kInf);
      const std::pair<double, int64_t> entry(distance, cand.id);
      if (static_cast<int>(best.size()) >= k) {
        if (!(entry < best.back())) {
          continue;
        }
        best.pop_back();
      }
      best.insert(std::upper_bound(best.begin(), best.end(), entry), entry);
    }
    if (trace != nullptr) {
      trace->SetRows(refine_span, out.stats.exact_checks, 0,
                     static_cast<int64_t>(best.size()));
      trace->EndSpan(refine_span);
    }
    for (const auto& [distance, id] : best) {
      out.matches.push_back(Match{id, relation.record(id).name, distance});
    }
  } else {
    const int64_t count = relation.size();
    // Batched scan: all exact distances are needed (no abandoning), so the
    // global distance column is filled in parallel -- across shards and
    // within them, via the shard-local unit list -- and ranked afterwards
    // in global id order, exactly like the unsharded engine.
    std::vector<double> distances(static_cast<size_t>(count), -1.0);
    ThreadPool& pool = ThreadPool::Global();
    const std::vector<ScanUnit> units = MakeScanUnits(data, RecordGrain(n));
    const size_t max_blocks = static_cast<size_t>(pool.max_blocks());
    std::vector<int64_t> block_checks(max_blocks, 0);
    obs::ScopedSpan scan_span(trace, "scan", trace_parent);
    const size_t stat_shards = static_cast<size_t>(data.num_shards());
    std::vector<int64_t> block_shard_checks;
    if (want_shard_stats) {
      block_shard_checks.assign(max_blocks * stat_shards, 0);
    }
    pool.ParallelFor(
        0, static_cast<int64_t>(units.size()), /*min_grain=*/1,
        [&](int64_t block, int64_t unit_lo, int64_t unit_hi) {
          int64_t checks = 0;
          for (int64_t u = unit_lo; u < unit_hi; ++u) {
            if (ShouldStop(exec)) {
              break;
            }
            const ScanUnit& unit = units[static_cast<size_t>(u)];
            const RelationShard& shard = data.shard(unit.shard);
            const FeatureStore& store = shard.store();
            const int64_t unit_checks_before = checks;
            for (int64_t i = unit.lo; i < unit.hi; ++i) {
              if (!shard.alive(i) ||
                  !StatsAdmit(store.mean(i), store.std_dev(i),
                              query.pattern)) {
                continue;  // sentinel -1 marks excluded records
              }
              ++checks;
              const int64_t id = shard.global_id(i);
              distances[static_cast<size_t>(id)] = checker.Distance(id, kInf);
            }
            if (want_shard_stats) {
              block_shard_checks[static_cast<size_t>(block) * stat_shards +
                                 static_cast<size_t>(unit.shard)] +=
                  checks - unit_checks_before;
            }
          }
          block_checks[static_cast<size_t>(block)] = checks;
        });
    for (size_t block = 0; block < max_blocks; ++block) {
      out.stats.exact_checks += block_checks[block];
    }
    if (want_shard_stats) {
      for (size_t block = 0; block < max_blocks; ++block) {
        for (size_t s = 0; s < stat_shards; ++s) {
          const int64_t c = block_shard_checks[block * stat_shards + s];
          out.stats.shard_stats[s].candidates += c;
          out.stats.shard_stats[s].exact_checks += c;
        }
      }
    }
    scan_span.Rows(out.stats.exact_checks, 0, std::min<int64_t>(
        static_cast<int64_t>(query.k), out.stats.exact_checks));
    std::vector<Match> all;
    all.reserve(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
      if (distances[static_cast<size_t>(i)] >= 0.0) {
        all.push_back(Match{i, relation.record(i).name,
                            distances[static_cast<size_t>(i)]});
      }
    }
    SortMatches(&all);
    if (static_cast<int>(all.size()) > query.k) {
      all.resize(static_cast<size_t>(query.k));
    }
    out.matches = std::move(all);
  }
  // Discard any partial answer a stopped worker left behind.
  SIMQ_RETURN_IF_ERROR(CheckExecution(query.exec));
  {
    obs::ScopedSpan merge(trace, "merge", trace_parent);
    SortMatches(&out.matches);
    merge.Rows(0, 0, static_cast<int64_t>(out.matches.size()));
  }
  return out;
}

Result<QueryResult> Database::SelfJoin(const std::string& relation_name,
                                       double epsilon,
                                       const TransformationRule* rule,
                                       JoinMethod method) const {
  return SelfJoin(relation_name, epsilon, rule, rule, method);
}

Result<QueryResult> Database::SelfJoin(
    const std::string& relation_name, double epsilon,
    const TransformationRule* left_rule,
    const TransformationRule* right_rule, JoinMethod method,
    FilterMode filter, std::shared_ptr<const ExecutionContext> exec) const {
  SIMQ_RETURN_IF_ERROR(CheckExecution(exec));
  const ExecutionContext* ctx = exec.get();
  const Relation* relation = GetRelation(relation_name);
  if (relation == nullptr) {
    return Status::NotFound("no relation named '" + relation_name + "'");
  }
  if (epsilon < 0.0) {
    return Status::InvalidArgument("epsilon must be nonnegative");
  }
  QueryResult out;
  const int64_t count = relation->size();
  if (count == 0) {
    return out;
  }
  const int n = relation->series_length();
  // Flat tombstone flags by global id: the O(N^2) pair loops below test
  // aliveness per pair, so pay the locator hop once per row up front.
  std::vector<uint8_t> alive(static_cast<size_t>(count), 1);
  for (int64_t g = 0; g < count; ++g) {
    alive[static_cast<size_t>(g)] =
        relation->sharded().alive(g) ? 1 : 0;
  }
  const bool symmetric = left_rule == right_rule;
  if (left_rule != nullptr && left_rule->IsNormalFormInvariant()) {
    left_rule = nullptr;
  }
  if (right_rule != nullptr && right_rule->IsNormalFormInvariant()) {
    right_rule = nullptr;
  }
  for (const TransformationRule* rule : {left_rule, right_rule}) {
    if (rule != nullptr && rule->OutputLength(n) != n) {
      return Status::InvalidArgument(
          "self-join transformations must preserve series length");
    }
  }
  const bool left_spectral = left_rule == nullptr || left_rule->IsSpectral(n);
  const bool right_spectral =
      right_rule == nullptr || right_rule->IsSpectral(n);
  const std::optional<Spectrum> left_multiplier =
      left_spectral ? MaterializeMultiplier(left_rule, n) : std::nullopt;
  const std::optional<Spectrum> right_multiplier =
      right_spectral ? MaterializeMultiplier(right_rule, n) : std::nullopt;
  const Spectrum* left_mult =
      left_multiplier.has_value() ? &*left_multiplier : nullptr;
  const Spectrum* right_mult =
      right_multiplier.has_value() ? &*right_multiplier : nullptr;

  if (method == JoinMethod::kFullScan ||
      method == JoinMethod::kScanEarlyAbandon) {
    const double threshold =
        method == JoinMethod::kFullScan ? kInf : epsilon;
    if (left_spectral && right_spectral) {
      // Batched nested-loop scan over the columnar stores. Row pointers
      // are gathered per global id once, so the O(N^2) loops below are
      // oblivious to sharding. Spectral multipliers are applied to every
      // row ONCE up front (O(N n)), so the inner loop runs the plain
      // subtract-square kernel -- the per-pair multiplier application of
      // the row-at-a-time implementation was the dominant cost of
      // early-abandoned pairs. Parallelized over outer-row blocks;
      // per-block pair buffers merged in block order keep the output
      // deterministic.
      const std::vector<const double*> base_rows =
          GatherSpectrumRows(relation->sharded());
      ThreadPool& pool = ThreadPool::Global();
      // Quantized filter-and-refine join (untransformed early-abandoning
      // method only). Per outer row i, a partial screen LUT over the
      // codes' most discriminating dimensions (static variance order) is
      // filled from i's exact spectrum row, and each shard's code
      // columns are swept column-major against it -- LUT rows and code
      // columns stay cache-hot across the whole inner side. A
      // partial-dimension lower bound is still a lower bound, so no true
      // pair is dropped; survivors are exact-checked in ascending global
      // j order, so the pair set, distances, and emission order match
      // the unfiltered join bit-for-bit.
      bool join_filter = method == JoinMethod::kScanEarlyAbandon && n >= 1 &&
                         left_mult == nullptr && right_mult == nullptr &&
                         UseQuantizedFilter(filter);
      std::vector<const QuantizedCodes*> shard_codes;
      double max_energy = 0.0;
      if (join_filter) {
        obs::Trace* const trace = ctx != nullptr ? ctx->trace() : nullptr;
        obs::ScopedSpan setup_span(
            trace, "filter.setup",
            trace != nullptr ? trace->engine_parent() : 0);
        const ShardedRelation& data = relation->sharded();
        const int bits = filter_options_.bits_per_dim;
        shard_codes.reserve(static_cast<size_t>(data.num_shards()));
        for (int s = 0; s < data.num_shards(); ++s) {
          const QuantizedCodes* codes =
              data.shard(s).quantized_codes_or_null(bits);
          if (codes == nullptr) {
            // Compile failed ("filter.compile"): degrade to the unfiltered
            // early-abandoning scan below -- identical pairs, no screen.
            degradation_->filter_compile_failures.fetch_add(
                1, std::memory_order_relaxed);
            degradation_->degraded_queries.fetch_add(
                1, std::memory_order_relaxed);
            out.stats.degraded = true;
            shard_codes.clear();
            join_filter = false;
            break;
          }
          shard_codes.push_back(codes);
          max_energy =
              std::max(max_energy, codes->quantizer().max_row_energy());
        }
      }
      if (join_filter) {
        const ShardedRelation& data = relation->sharded();
        const int num_shards = data.num_shards();
        const double eps_sq = epsilon * epsilon;
        const double abandon_sq =
            SafeThreshold(eps_sq, 1e-9 * 2.0 * max_energy);
        const int cells = shard_codes[0]->cells();
        const int ranks = std::min(16, 2 * n);
        const size_t max_blocks = static_cast<size_t>(pool.max_blocks());
        std::vector<std::vector<PairMatch>> block_pairs(max_blocks);
        std::vector<int64_t> block_checks(max_blocks, 0);
        std::vector<int64_t> block_scanned(max_blocks, 0);
        const int64_t grain = std::max<int64_t>(
            1, RecordGrain(n) / std::max<int64_t>(1, count));
        pool.ParallelFor(
            0, count, grain, [&](int64_t block, int64_t lo, int64_t hi) {
              std::vector<PairMatch>& local =
                  block_pairs[static_cast<size_t>(block)];
              int64_t checks = 0;
              int64_t scanned = 0;
              std::vector<double> lut(static_cast<size_t>(ranks) * cells);
              std::vector<int32_t> active;
              std::vector<double> scratch;
              std::vector<int64_t> survivors;
              for (int64_t i = lo; i < hi; ++i) {
                if (ShouldStop(ctx)) {
                  break;
                }
                if (alive[static_cast<size_t>(i)] == 0) {
                  continue;
                }
                const double* a = base_rows[static_cast<size_t>(i)];
                survivors.clear();
                for (int s = 0; s < num_shards; ++s) {
                  const QuantizedCodes& codes = *shard_codes[s];
                  const RelationShard& shard = data.shard(s);
                  // The screen covers the codes' frozen row prefix; the
                  // shard's delta rows below skip it and go straight to
                  // the exact check (the check decides membership, so the
                  // pair set is unchanged).
                  const int64_t screen_hi =
                      std::min(shard.size(), codes.size());
                  if (screen_hi > 0) {
                    FillPairScreenLut(codes.quantizer(), a,
                                      codes.scan_order().data(), ranks,
                                      lut.data());
                    active.clear();
                    for (int64_t r = 0; r < screen_hi; ++r) {
                      const int64_t g = shard.global_id(r);
                      if (shard.alive(r) && (symmetric ? g > i : g != i)) {
                        active.push_back(static_cast<int32_t>(r));
                      }
                    }
                    scanned += static_cast<int64_t>(active.size());
                    PairScreenScan(codes, lut.data(),
                                   codes.scan_order().data(), ranks,
                                   abandon_sq, 0, screen_hi, &active,
                                   &scratch);
                    for (const int32_t r : active) {
                      survivors.push_back(shard.global_id(r));
                    }
                  }
                  for (int64_t r = screen_hi; r < shard.size(); ++r) {
                    const int64_t g = shard.global_id(r);
                    if (shard.alive(r) && (symmetric ? g > i : g != i)) {
                      survivors.push_back(g);
                    }
                  }
                }
                std::sort(survivors.begin(), survivors.end());
                checks += static_cast<int64_t>(survivors.size());
                for (const int64_t j : survivors) {
                  const double dist_sq = RowDistanceSq(
                      a, base_rows[static_cast<size_t>(j)], n, eps_sq);
                  if (dist_sq <= eps_sq) {
                    local.push_back(PairMatch{i, j, std::sqrt(dist_sq)});
                  }
                }
              }
              block_checks[static_cast<size_t>(block)] = checks;
              block_scanned[static_cast<size_t>(block)] = scanned;
            });
        out.stats.used_filter = true;
        for (size_t block = 0; block < max_blocks; ++block) {
          out.stats.exact_checks += block_checks[block];
          out.stats.candidates += block_checks[block];
          out.stats.filter_scanned += block_scanned[block];
          out.pairs.insert(out.pairs.end(), block_pairs[block].begin(),
                           block_pairs[block].end());
        }
        SIMQ_RETURN_IF_ERROR(CheckExecution(exec));
        return out;
      }
      const int64_t row_stride = (2 * static_cast<int64_t>(n) + 7) &
                                 ~int64_t{7};  // cache-line aligned rows
      const auto materialize = [&](const Spectrum& mult) {
        const std::vector<double> mult_ri = InterleaveSpectrum(mult);
        std::vector<double> rows(static_cast<size_t>(count * row_stride),
                                 0.0);
        pool.ParallelFor(
            0, count, RecordGrain(n),
            [&](int64_t /*block*/, int64_t lo, int64_t hi) {
              for (int64_t i = lo; i < hi; ++i) {
                const double* src = base_rows[static_cast<size_t>(i)];
                double* dst = rows.data() + i * row_stride;
                for (int f = 0; f < 2 * n; f += 2) {
                  const double ar = src[f], ai = src[f + 1];
                  const double mr = mult_ri[static_cast<size_t>(f)];
                  const double mi = mult_ri[static_cast<size_t>(f + 1)];
                  dst[f] = ar * mr - ai * mi;
                  dst[f + 1] = ar * mi + ai * mr;
                }
              }
            });
        return rows;
      };
      // A symmetric join transforms both sides identically: share the
      // left side's premultiplied rows.
      const bool share_rows = symmetric && left_mult != nullptr;
      std::vector<double> left_rows;
      std::vector<double> right_rows;
      if (left_mult != nullptr) {
        left_rows = materialize(*left_mult);
      }
      if (right_mult != nullptr && !share_rows) {
        right_rows = materialize(*right_mult);
      }
      const auto left_row = [&](int64_t i) {
        return left_mult != nullptr ? left_rows.data() + i * row_stride
                                    : base_rows[static_cast<size_t>(i)];
      };
      const auto right_row = [&](int64_t j) -> const double* {
        if (right_mult == nullptr) {
          return base_rows[static_cast<size_t>(j)];
        }
        return (share_rows ? left_rows : right_rows).data() +
               j * row_stride;
      };
      const double limit_sq =
          threshold == kInf ? kInf : threshold * threshold;
      const double eps_sq = epsilon * epsilon;
      // Prefix screen for the early-abandoning method: the first two
      // coefficients of every (transformed) row packed contiguously, so a
      // pair that abandons immediately -- almost all of them at similarity
      // thresholds -- touches 32 sequential bytes instead of a cache line
      // of a 2 n-double strided row. The screen replays exactly the
      // kernels' prefix check, so it never changes the outcome.
      const bool screen = limit_sq != kInf && n >= 2;
      std::vector<double> right_prefix;
      if (screen) {
        right_prefix.resize(static_cast<size_t>(count) * 4);
        for (int64_t j = 0; j < count; ++j) {
          const double* row = right_row(j);
          double* p = right_prefix.data() + 4 * j;
          p[0] = row[0];
          p[1] = row[1];
          p[2] = row[2];
          p[3] = row[3];
        }
      }
      const size_t max_blocks = static_cast<size_t>(pool.max_blocks());
      std::vector<std::vector<PairMatch>> block_pairs(max_blocks);
      std::vector<int64_t> block_checks(max_blocks, 0);
      // Each outer row costs up to count * n work: one row of outer loop
      // is already a coarse unit for any nontrivial relation.
      const int64_t grain =
          std::max<int64_t>(1, RecordGrain(n) / std::max<int64_t>(1, count));
      pool.ParallelFor(
          0, count, grain, [&](int64_t block, int64_t lo, int64_t hi) {
            std::vector<PairMatch>& local =
                block_pairs[static_cast<size_t>(block)];
            int64_t checks = 0;
            for (int64_t i = lo; i < hi; ++i) {
              if (ShouldStop(ctx)) {
                break;
              }
              if (alive[static_cast<size_t>(i)] == 0) {
                continue;
              }
              const double* a = left_row(i);
              const double a0 = a[0], a1 = a[1];
              const double a2 = n >= 2 ? a[2] : 0.0;
              const double a3 = n >= 2 ? a[3] : 0.0;
              for (int64_t j = symmetric ? i + 1 : 0; j < count; ++j) {
                if (j == i || alive[static_cast<size_t>(j)] == 0) {
                  continue;
                }
                ++checks;
                if (screen &&
                    PrefixScreenDead(right_prefix.data() + 4 * j, a0, a1,
                                     a2, a3, limit_sq)) {
                  continue;
                }
                const double dist_sq =
                    RowDistanceSq(a, right_row(j), n, limit_sq);
                // Squared-domain compare: sqrt only for accepted pairs.
                if (dist_sq <= eps_sq) {
                  local.push_back(PairMatch{i, j, std::sqrt(dist_sq)});
                }
              }
            }
            block_checks[static_cast<size_t>(block)] = checks;
          });
      for (size_t block = 0; block < max_blocks; ++block) {
        out.stats.exact_checks += block_checks[block];
        out.pairs.insert(out.pairs.end(), block_pairs[block].begin(),
                         block_pairs[block].end());
      }
    } else {
      // Non-spectral rule(s): transform every series once per side, then
      // compare in the time domain.
      std::vector<std::vector<double>> left_values(
          static_cast<size_t>(count));
      std::vector<std::vector<double>> right_values(
          static_cast<size_t>(count));
      for (int64_t i = 0; i < count; ++i) {
        if (alive[static_cast<size_t>(i)] == 0) {
          continue;  // dead rows never join; skip their transforms too
        }
        const double* normal = relation->sharded().NormalRow(i);
        const std::vector<double> base(normal, normal + n);
        left_values[static_cast<size_t>(i)] =
            left_rule != nullptr ? left_rule->Apply(base) : base;
        right_values[static_cast<size_t>(i)] =
            right_rule != nullptr ? right_rule->Apply(base) : base;
      }
      for (int64_t i = 0; i < count; ++i) {
        if (alive[static_cast<size_t>(i)] == 0) {
          continue;
        }
        SIMQ_RETURN_IF_ERROR(CheckExecution(exec));
        for (int64_t j = symmetric ? i + 1 : 0; j < count; ++j) {
          if (j == i || alive[static_cast<size_t>(j)] == 0) {
            continue;
          }
          ++out.stats.exact_checks;
          const double distance =
              method == JoinMethod::kFullScan
                  ? EuclideanDistance(left_values[static_cast<size_t>(i)],
                                      right_values[static_cast<size_t>(j)])
                  : EuclideanDistanceEarlyAbandon(
                        left_values[static_cast<size_t>(i)],
                        right_values[static_cast<size_t>(j)], epsilon);
          if (distance <= epsilon) {
            out.pairs.push_back(PairMatch{i, j, distance});
          }
        }
      }
    }
    SIMQ_RETURN_IF_ERROR(CheckExecution(exec));
    return out;
  }

  // Index nested-loop methods (Table 1 c and d). Probe side: left rule
  // applied to the probe's coefficients; data side: right rule applied to
  // the index on the fly (Algorithm 1).
  std::optional<LinearTransform> left_transform;
  std::optional<LinearTransform> right_transform;
  std::vector<DimAffine> affines;
  const std::vector<DimAffine>* affines_ptr = nullptr;
  const Spectrum* post_left = nullptr;
  const Spectrum* post_right = nullptr;
  if (method == JoinMethod::kIndexTransform) {
    if (!left_spectral || !right_spectral) {
      return Status::FailedPrecondition(
          "index join requires spectral transformations");
    }
    if (left_rule != nullptr) {
      left_transform = left_rule->IndexTransform(n, config_.num_coefficients);
      if (!left_transform.has_value()) {
        return Status::FailedPrecondition(
            "left transformation has no index form");
      }
    }
    if (right_rule != nullptr) {
      right_transform =
          right_rule->IndexTransform(n, config_.num_coefficients);
      if (!right_transform.has_value() ||
          !right_transform->IsSafeIn(config_.space)) {
        return Status::FailedPrecondition(
            "right transformation is not safe in the configured feature "
            "space");
      }
      affines = LowerToFeatureSpace(*right_transform, config_);
      affines_ptr = &affines;
    }
    post_left = left_mult;
    post_right = right_mult;
  }

  // Index nested loop over the shard grid: every probe record is paired
  // with every shard's tree (probe side x shard trees), parallelized over
  // probe blocks -- concurrent index read traversals are safe on both
  // engines (the node-access counters are atomic, the packed snapshots
  // immutable), and per-block pair buffers merged in block order keep the
  // output deterministic. RunOnShardEngines resolves every shard's engine
  // before the fan-out, so workers never contend on a snapshot rebuild
  // lock. For each probe, candidates arrive shard by shard; the union
  // over shards is exactly the unsharded candidate superset, and the
  // exact checks (over gathered rows) decide membership identically.
  const std::vector<const double*> base_rows =
      GatherSpectrumRows(relation->sharded());
  std::vector<double> post_left_ri;
  std::vector<double> post_right_ri;
  const double* post_left_ptr = nullptr;
  const double* post_right_ptr = nullptr;
  if (post_left != nullptr) {
    post_left_ri = InterleaveSpectrum(*post_left);
    post_left_ptr = post_left_ri.data();
  }
  if (post_right != nullptr) {
    post_right_ri = InterleaveSpectrum(*post_right);
    post_right_ptr = post_right_ri.data();
  }
  const double eps_sq = epsilon * epsilon;
  out.stats.used_index = true;
  ThreadPool& pool = ThreadPool::Global();
  const size_t max_blocks = static_cast<size_t>(pool.max_blocks());
  std::vector<std::vector<PairMatch>> block_pairs(max_blocks);
  std::vector<int64_t> block_checks(max_blocks, 0);
  std::vector<int64_t> block_candidates(max_blocks, 0);
  const IndexEngine join_engine =
      ResolveQueryEngine(relation->sharded(), &out.stats.degraded);
  out.stats.node_accesses = RunOnShardEngines(
      relation->sharded(), join_engine, [&](const auto& trees) {
        pool.ParallelFor(
            0, count, /*min_grain=*/16,
            [&](int64_t block, int64_t lo, int64_t hi) {
              std::vector<PairMatch>& local =
                  block_pairs[static_cast<size_t>(block)];
              std::vector<int64_t> candidates;
              int64_t checks = 0;
              int64_t candidate_count = 0;
              for (int64_t i = lo; i < hi; ++i) {
                if (ShouldStop(ctx)) {
                  break;
                }
                if (alive[static_cast<size_t>(i)] == 0) {
                  continue;
                }
                const double* a = base_rows[static_cast<size_t>(i)];
                std::vector<Complex> query_coeffs =
                    RowCoefficients(a, n, config_.num_coefficients);
                if (left_transform.has_value()) {
                  query_coeffs = left_transform->Apply(query_coeffs);
                }
                const SearchRegion region =
                    SearchRegion::MakeRange(query_coeffs, epsilon, config_);
                for (const auto* tree : trees) {
                  candidates.clear();
                  tree->Search(region, affines_ptr, &candidates);
                  candidate_count += static_cast<int64_t>(candidates.size());
                  for (const int64_t j : candidates) {
                    if (j == i || alive[static_cast<size_t>(j)] == 0) {
                      continue;
                    }
                    ++checks;
                    const double dist_sq = RowDistanceSqTwoSided(
                        a, base_rows[static_cast<size_t>(j)], post_left_ptr,
                        post_right_ptr, n, eps_sq);
                    if (dist_sq <= eps_sq) {
                      local.push_back(PairMatch{i, j, std::sqrt(dist_sq)});
                    }
                  }
                }
                if (join_engine == IndexEngine::kPacked) {
                  // Delta scan per probe: inner rows past each shard's
                  // packed coverage are invisible to the snapshots --
                  // exact-check them directly (the check decides
                  // membership, so the pair set is unchanged).
                  const ShardedRelation& data = relation->sharded();
                  for (int s = 0; s < data.num_shards(); ++s) {
                    const RelationShard& shard = data.shard(s);
                    for (int64_t r = shard.packed_covered();
                         r < shard.size(); ++r) {
                      const int64_t j = shard.global_id(r);
                      if (j == i || !shard.alive(r)) {
                        continue;
                      }
                      ++checks;
                      const double dist_sq = RowDistanceSqTwoSided(
                          a, base_rows[static_cast<size_t>(j)],
                          post_left_ptr, post_right_ptr, n, eps_sq);
                      if (dist_sq <= eps_sq) {
                        local.push_back(PairMatch{i, j, std::sqrt(dist_sq)});
                      }
                    }
                  }
                }
              }
              block_checks[static_cast<size_t>(block)] = checks;
              block_candidates[static_cast<size_t>(block)] = candidate_count;
            });
      });
  for (size_t block = 0; block < max_blocks; ++block) {
    out.stats.exact_checks += block_checks[block];
    out.stats.candidates += block_candidates[block];
    out.pairs.insert(out.pairs.end(), block_pairs[block].begin(),
                     block_pairs[block].end());
  }
  SIMQ_RETURN_IF_ERROR(CheckExecution(exec));
  return out;
}

}  // namespace simq
