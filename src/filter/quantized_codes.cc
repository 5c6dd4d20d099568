#include "filter/quantized_codes.h"

#include <numeric>

#include "util/thread_pool.h"

namespace simq {

QuantizedCodes::QuantizedCodes(const FeatureStore& store, int bits)
    : count_(store.size()) {
  const int64_t count = count_;
  const int dims = count == 0 ? 0 : 2 * store.spectrum_length();
  columns_.resize(static_cast<size_t>(dims) * count);
  // Per-dimension sums for the discrimination order, each accumulated in
  // row order from the block's gathered column.
  std::vector<double> sum(static_cast<size_t>(dims), 0.0);
  std::vector<double> sum_sq(static_cast<size_t>(dims), 0.0);
  // Encoding rides on training: every block is encoded while its columns
  // are still in the trainer's scratch, one dimension plane at a time.
  quantizer_ = ScalarQuantizer::Train(
      store, bits,
      [&](const ScalarQuantizer& q, int first_dim, int num_dims,
          const double* columns) {
        for (int j = 0; j < num_dims; ++j) {
          const int d = first_dim + j;
          const double* values = columns + j * count;
          q.EncodeColumn(d, values, count,
                         columns_.data() + static_cast<size_t>(d) * count);
          double s = 0.0;
          double s2 = 0.0;
          for (int64_t i = 0; i < count; ++i) {
            s += values[i];
            s2 += values[i] * values[i];
          }
          sum[static_cast<size_t>(d)] = s;
          sum_sq[static_cast<size_t>(d)] = s2;
        }
      });
  if (count == 0 || dims == 0) {
    return;
  }
  const int code_bits = quantizer_.bits();
  const int64_t payload = (static_cast<int64_t>(dims) * code_bits + 7) / 8;
  // 8 guard bytes per row so CodeAt's unaligned 64-bit load never reads
  // past the allocation; round to 8 so rows start word-aligned.
  row_stride_ = (payload + 8 + 7) & ~int64_t{7};
  codes_.assign(static_cast<size_t>(count * row_stride_), 0);
  // Pack the rows from the planes. A group of 8 dimensions is exactly
  // `code_bits` bytes of a row, so each group's codes form one 64-bit
  // word stored at byte offset group * code_bits; its high bytes spill
  // zeros into the next group (stored right after, in ascending order)
  // or, for the last group, into the row's zero guard bytes.
  constexpr int kGroup = 8;
  const int groups = (dims + kGroup - 1) / kGroup;
  // Row ranges of at least ~64K codes per task, the threshold training
  // uses, so small stores pack on the calling thread.
  ThreadPool::Global().ParallelFor(
      0, count, std::max<int64_t>(1, 64 * 1024 / dims),
      [&](int64_t, int64_t lo, int64_t hi) {
        for (int group = 0; group < groups; ++group) {
          const int first = group * kGroup;
          const int num_dims = std::min(kGroup, dims - first);
          const uint8_t* planes =
              columns_.data() + static_cast<size_t>(first) * count;
          uint8_t* out = codes_.data() + group * code_bits;
          for (int64_t i = lo; i < hi; ++i) {
            uint64_t word = 0;
            for (int j = 0; j < num_dims; ++j) {
              word |= static_cast<uint64_t>(planes[j * count + i])
                      << (j * code_bits);
            }
            std::memcpy(out + i * row_stride_, &word, sizeof(word));
          }
        }
      });
  // Static discrimination order: descending column variance (ties to the
  // lower dimension).
  std::vector<double> variance(static_cast<size_t>(dims), 0.0);
  for (int d = 0; d < dims; ++d) {
    const double mean = sum[static_cast<size_t>(d)] /
                        static_cast<double>(count_);
    variance[static_cast<size_t>(d)] =
        sum_sq[static_cast<size_t>(d)] / static_cast<double>(count_) -
        mean * mean;
  }
  scan_order_.resize(static_cast<size_t>(dims));
  std::iota(scan_order_.begin(), scan_order_.end(), 0);
  std::sort(scan_order_.begin(), scan_order_.end(),
            [&](int32_t a, int32_t b) {
              if (variance[static_cast<size_t>(a)] !=
                  variance[static_cast<size_t>(b)]) {
                return variance[static_cast<size_t>(a)] >
                       variance[static_cast<size_t>(b)];
              }
              return a < b;
            });
}

}  // namespace simq
