#include "filter/quantizer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace simq {
namespace {

// LSD radix sort geometry: six 11-bit digits cover a 64-bit key, and one
// digit's histogram (2048 uint32 counters) stays L1-resident.
constexpr int kRadixBits = 11;
constexpr int kRadixPasses = 6;
constexpr uint32_t kRadixBuckets = 1u << kRadixBits;
constexpr uint64_t kSignBit = uint64_t{1} << 63;

// Smallest number of column values (rows x dimensions) worth a pool task;
// below it a build runs its blocks on the calling thread.
constexpr int64_t kMinValuesPerTask = 64 * 1024;

// Order-preserving map of a double onto uint64: negative values flip all
// bits, nonnegative ones flip the sign bit, so unsigned key order is
// numeric order (-0.0 sorts just below +0.0, NaNs at the ends). The map
// is a bijection, so FromSortKey returns the exact original double.
uint64_t SortKey(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

double FromSortKey(uint64_t key) {
  const uint64_t bits = (key & kSignBit) != 0 ? key & ~kSignBit : ~key;
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// Per-task training scratch, sized for one block of one store: the
// gathered columns plus the radix sort's key buffers and histograms.
struct TrainScratch {
  explicit TrainScratch(int64_t count)
      : columns(static_cast<size_t>(count) * ScalarQuantizer::kDimBlock),
        keys(static_cast<size_t>(count)),
        spare(static_cast<size_t>(count)),
        histogram(static_cast<size_t>(kRadixPasses) * kRadixBuckets) {}

  std::vector<double> columns;  // kDimBlock runs of `count` doubles
  std::vector<uint64_t> keys;
  std::vector<uint64_t> spare;
  std::vector<uint32_t> histogram;  // kRadixPasses x kRadixBuckets
};

// Sorts keys[0, count) ascending, ping-ponging through `spare`; returns
// whichever of the two buffers holds the result. All digit histograms are
// counted in one pass, and a digit every key shares is skipped.
const uint64_t* RadixSort(uint64_t* keys, uint64_t* spare, uint32_t* histogram,
                          int64_t count) {
  std::fill(histogram, histogram + kRadixPasses * kRadixBuckets, 0u);
  for (int64_t i = 0; i < count; ++i) {
    const uint64_t key = keys[i];
    for (int p = 0; p < kRadixPasses; ++p) {
      ++histogram[p * kRadixBuckets +
                  ((key >> (p * kRadixBits)) & (kRadixBuckets - 1))];
    }
  }
  uint64_t* src = keys;
  uint64_t* dst = spare;
  for (int p = 0; p < kRadixPasses; ++p) {
    uint32_t* offsets = histogram + p * kRadixBuckets;
    const int shift = p * kRadixBits;
    if (offsets[(src[0] >> shift) & (kRadixBuckets - 1)] ==
        static_cast<uint32_t>(count)) {
      continue;
    }
    uint32_t running = 0;
    for (uint32_t b = 0; b < kRadixBuckets; ++b) {
      const uint32_t n = offsets[b];
      offsets[b] = running;
      running += n;
    }
    for (int64_t i = 0; i < count; ++i) {
      const uint64_t key = src[i];
      dst[offsets[(key >> shift) & (kRadixBuckets - 1)]++] = key;
    }
    std::swap(src, dst);
  }
  return src;
}

// Code of `value` against edges[0..2^bits]: the number of interior edges
// edges[1..2^bits - 1] with !(value < edge). Over sorted edges that
// predicate holds on a prefix, so a `bits`-step search finds the prefix
// length; it is std::upper_bound's predicate, so this equals
// clamp(upper_bound - 1, 0, cells - 1), NaN (always past the end) included.
inline uint32_t FixedDepthCode(const double* edges, int bits, double value) {
  uint32_t pos = 0;
  for (int level = bits - 1; level >= 0; --level) {
    pos += static_cast<uint32_t>(!(value < edges[pos + (1u << level)]))
           << level;
  }
  return pos;
}

// FixedDepthCode over a column at a compile-time width, so the search
// unrolls into kBits compare-and-add steps.
template <int kBits>
void EncodeRun(const double* edges, const double* values, int64_t count,
               uint8_t* codes) {
  for (int64_t i = 0; i < count; ++i) {
    codes[i] = static_cast<uint8_t>(FixedDepthCode(edges, kBits, values[i]));
  }
}

}  // namespace

ScalarQuantizer ScalarQuantizer::Train(const FeatureStore& store, int bits,
                                       const BlockVisitor& visit) {
  ScalarQuantizer q;
  q.bits_ = std::clamp(bits, kMinBits, kMaxBits);
  q.cells_ = 1 << q.bits_;
  const int64_t count = store.size();
  if (count == 0) {
    return q;
  }
  // Radix histograms count in uint32.
  SIMQ_CHECK(count <= std::numeric_limits<uint32_t>::max());
  q.dims_ = 2 * store.spectrum_length();
  q.bounds_.resize(static_cast<size_t>(q.dims_) * (q.cells_ + 1));
  const int64_t blocks = (q.dims_ + kDimBlock - 1) / kDimBlock;
  const int64_t grain =
      std::max<int64_t>(1, kMinValuesPerTask / (count * kDimBlock));
  // Blocks write disjoint slices of bounds_ (sized above, never resized),
  // and each pool task owns its scratch, so at most one block's columns
  // per running thread are alive at a time.
  ThreadPool::Global().ParallelFor(
      0, blocks, grain, [&](int64_t, int64_t lo, int64_t hi) {
        TrainScratch scratch(count);
        double* columns = scratch.columns.data();
        for (int64_t block = lo; block < hi; ++block) {
          const int first = static_cast<int>(block) * kDimBlock;
          const int num_dims = std::min(kDimBlock, q.dims_ - first);
          // Spectrum rows are padded to a multiple of 8 doubles, so the
          // full line at `first` is readable even in the last block.
          for (int64_t i = 0; i < count; ++i) {
            const double* src = store.SpectrumRow(i) + first;
            for (int j = 0; j < kDimBlock; ++j) {
              columns[j * count + i] = src[j];
            }
          }
          for (int j = 0; j < num_dims; ++j) {
            const double* column = columns + j * count;
            for (int64_t i = 0; i < count; ++i) {
              scratch.keys[static_cast<size_t>(i)] = SortKey(column[i]);
            }
            const uint64_t* sorted =
                RadixSort(scratch.keys.data(), scratch.spare.data(),
                          scratch.histogram.data(), count);
            double* edges =
                q.bounds_.data() + static_cast<size_t>(first + j) *
                                       (q.cells_ + 1);
            // Quantile edges over the sorted column: edge c sits at rank
            // c*(count-1)/cells, so edge 0 is the minimum and edge
            // `cells` the maximum. Duplicate ranks (count < cells)
            // produce empty cells, which the bound kernels handle
            // naturally (zero-width intervals).
            for (int c = 0; c <= q.cells_; ++c) {
              const int64_t rank =
                  static_cast<int64_t>(c) * (count - 1) / q.cells_;
              edges[c] = FromSortKey(sorted[rank]);
            }
          }
          if (visit) {
            visit(q, first, num_dims, columns);
          }
        }
      });
  for (int d = 0; d < q.dims_; ++d) {
    const double* edges = q.bounds(d);
    const double widest =
        std::max(std::abs(edges[0]), std::abs(edges[q.cells_]));
    q.max_row_energy_ += widest * widest;
  }
  return q;
}

uint32_t ScalarQuantizer::Encode(int d, double value) const {
  return FixedDepthCode(bounds(d), bits_, value);
}

void ScalarQuantizer::EncodeColumn(int d, const double* values, int64_t count,
                                   uint8_t* codes) const {
  const double* edges = bounds(d);
  switch (bits_) {
    case 4:
      EncodeRun<4>(edges, values, count, codes);
      break;
    case 5:
      EncodeRun<5>(edges, values, count, codes);
      break;
    case 6:
      EncodeRun<6>(edges, values, count, codes);
      break;
    case 7:
      EncodeRun<7>(edges, values, count, codes);
      break;
    default:
      EncodeRun<8>(edges, values, count, codes);
      break;
  }
}

}  // namespace simq
