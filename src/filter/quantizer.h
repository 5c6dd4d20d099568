/// VA-file-style scalar quantization of the normal-form spectral feature
/// space (the filter half of the quantized filter-and-refine subsystem;
/// see DESIGN.md "Quantized filter").
///
/// A ScalarQuantizer partitions every dimension of a FeatureStore's
/// interleaved spectrum rows (2 * spectrum_length real dimensions, the
/// exact doubles the columnar kernels consume) into `1 << bits` cells.
/// Cell edges are per-dimension quantiles of the training column, so the
/// grid adapts to the data distribution: dense regions get narrow cells
/// (tight bounds), outliers get wide ones. The outermost edges are the
/// column's true min/max, which makes every cell a FINITE interval that
/// provably brackets the value it encodes -- the property the lower/upper
/// bound distance kernels (filter/bound_kernels.h) rely on:
///
///   bounds(d)[code] <= row[d] <= bounds(d)[code + 1]   (exactly, in
///   the stored double values -- Encode assigns codes by binary search
///   over the same doubles the exact kernels read).
///
/// Quantizers are trained per relation shard from that shard's
/// FeatureStore columns (core/sharded_relation.h owns the cache); they
/// are immutable after Train, so any number of query threads may share
/// one without locking.
///
/// Training walks the store in blocks of kDimBlock dimensions -- one
/// 64-byte line of every padded spectrum row -- gathering each block's
/// columns into per-task scratch (never a transpose of the whole store),
/// and fans the blocks out on ThreadPool::Global(). Each column's
/// quantiles are read off an LSD radix sort of order-preserving integer
/// keys, and Encode is a fixed-depth branchless search whose predicate is
/// std::upper_bound's own, so edges, codes and clamping (NaN included)
/// match a comparison sort plus upper_bound exactly.

#ifndef SIMQ_FILTER_QUANTIZER_H_
#define SIMQ_FILTER_QUANTIZER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/feature_store.h"

namespace simq {

/// Engine-level configuration of the quantized filter subsystem.
struct FilterOptions {
  /// Bits per quantized dimension; valid layouts are 4..8 bits
  /// (16..256 cells). 8 is the default: one byte per dimension, an 8x
  /// shrink over the double column it summarizes.
  int bits_per_dim = 8;
};

class ScalarQuantizer {
 public:
  /// Narrowest / widest supported code layouts.
  static constexpr int kMinBits = 4;
  static constexpr int kMaxBits = 8;
  /// Dimensions per training block: one 64-byte line of a spectrum row.
  static constexpr int kDimBlock = 8;

  /// Called once per trained block of `num_dims` (<= kDimBlock)
  /// dimensions starting at `first_dim`, after their edges are final,
  /// with the block's gathered columns: `num_dims` runs of store.size()
  /// doubles each, in row order. Distinct blocks run concurrently on the
  /// pool, so a visitor may write only state owned by its block's
  /// dimensions.
  using BlockVisitor =
      std::function<void(const ScalarQuantizer& quantizer, int first_dim,
                         int num_dims, const double* columns)>;

  /// Trains per-dimension quantile boundaries over every spectrum row of
  /// `store`. `bits` is clamped to [kMinBits, kMaxBits]. An empty store
  /// yields an empty quantizer (dims() == 0). `visit`, if set, sees every
  /// block's columns while they are still in scratch (QuantizedCodes
  /// encodes there, so the store is gathered once).
  static ScalarQuantizer Train(const FeatureStore& store, int bits,
                               const BlockVisitor& visit = nullptr);

  ScalarQuantizer() = default;

  int dims() const { return dims_; }
  int bits() const { return bits_; }
  int cells() const { return cells_; }

  /// Cell edges of dimension `d`: cells() + 1 non-decreasing doubles;
  /// [0] is the column minimum, [cells()] the column maximum.
  const double* bounds(int d) const {
    return bounds_.data() + static_cast<size_t>(d) * (cells_ + 1);
  }

  /// Code of `value` in dimension `d`: the largest cell whose low edge is
  /// <= value, clamped to [0, cells() - 1]. For any value in
  /// [bounds(d)[0], bounds(d)[cells()]] the returned cell brackets it.
  uint32_t Encode(int d, double value) const;

  /// Encode over a whole column: codes[i] = Encode(d, values[i]) for
  /// i < count.
  void EncodeColumn(int d, const double* values, int64_t count,
                    uint8_t* codes) const;

  /// Sum over all dimensions of the squared magnitude of the widest cell
  /// edge: an upper bound on the energy of any encoded row, used by the
  /// bound kernels to size their absolute floating-point safety slack.
  double max_row_energy() const { return max_row_energy_; }

 private:
  int dims_ = 0;
  int bits_ = 0;
  int cells_ = 0;
  double max_row_energy_ = 0.0;
  std::vector<double> bounds_;  // dims_ * (cells_ + 1), dimension-major
};

}  // namespace simq

#endif  // SIMQ_FILTER_QUANTIZER_H_
