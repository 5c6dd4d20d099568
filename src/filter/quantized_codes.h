/// Bit-packed scalar-quantized codes of one relation shard, plus the
/// stale-on-mutation cache that owns them (the same contract as the
/// packed R-tree snapshot; see DESIGN.md "Quantized filter").
///
/// A QuantizedCodes object is a compiled, immutable artifact: it trains a
/// ScalarQuantizer over the shard's FeatureStore and encodes every
/// spectrum row into one bit-packed code word of dims * bits bits,
/// stored row-major (structure-of-arrays across records, all codes of a
/// record contiguous). Rows are padded with 8 guard bytes so the decode
/// kernels can read an aligned 64-bit word at any code's byte offset and
/// shift/mask the code out -- no per-code branches, no byte loops.
///
///   code of (row i, dim d) = bits [d*bits, (d+1)*bits) of CodeRow(i)
///
/// With the default 8-bit layout a 128-length series shrinks from 2048
/// bytes of spectrum doubles to 256 bytes of codes; a full-relation code
/// scan therefore streams 8x less memory than the exact columnar scan,
/// and the lower-bound kernels (filter/bound_kernels.h) prune most
/// records after the first few dimensions of that.
///
/// Thread-safety: QuantizedCodes is immutable after construction -- any
/// number of query threads may scan one concurrently. QuantizedCodesCache
/// follows PackedSnapshotCache: mutators call Invalidate() under the
/// owner's exclusive lock, readers call Get() under the shared lock, and
/// the cache's internal mutex serializes only the post-mutation rebuild
/// (also triggered when a query asks for a different bit width).

#ifndef SIMQ_FILTER_QUANTIZED_CODES_H_
#define SIMQ_FILTER_QUANTIZED_CODES_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "core/feature_store.h"
#include "filter/quantizer.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace simq {

class QuantizedCodes {
 public:
  /// Trains the quantizer on `store` and encodes every row. `bits` is
  /// clamped to the supported layouts (ScalarQuantizer::kMinBits..kMaxBits).
  /// The build fans out on ThreadPool::Global() (inline when called from
  /// a pool worker or under a one-thread parallelism budget); the result
  /// does not depend on the thread count.
  QuantizedCodes(const FeatureStore& store, int bits);

  QuantizedCodes(const QuantizedCodes&) = delete;
  QuantizedCodes& operator=(const QuantizedCodes&) = delete;

  int64_t size() const { return count_; }
  int dims() const { return quantizer_.dims(); }
  int bits() const { return quantizer_.bits(); }
  int cells() const { return quantizer_.cells(); }
  const ScalarQuantizer& quantizer() const { return quantizer_; }

  /// Packed code word of row `i`; row_stride() bytes apart, 8 readable
  /// guard bytes past the last code.
  const uint8_t* CodeRow(int64_t i) const {
    return codes_.data() + i * row_stride_;
  }
  int64_t row_stride() const { return row_stride_; }

  /// Dimension-major mirror of the codes, one unpacked byte per code:
  /// Column(d)[i] == code of (row i, dim d). The range scan runs
  /// dim-at-a-time over these planes with a survivor selection vector
  /// (filter/bound_kernels.h ColumnLowerBoundScan), which keeps one
  /// 2^bits-entry LUT row L1-hot per pass -- the row-major layout above
  /// stays the format of the per-record paths (kNN bounds, join pairs).
  const uint8_t* Column(int d) const {
    return columns_.data() + static_cast<int64_t>(d) * count_;
  }

  /// Dimensions sorted by descending column variance: since the expected
  /// squared difference of two random rows in dimension d is twice the
  /// column variance, this is the static (query-independent) analog of
  /// QueryLuts::order -- the pairwise join screen consumes its leading
  /// entries so the few most discriminating dimensions run first.
  const std::vector<int32_t>& scan_order() const { return scan_order_; }

  /// Decodes one dimension of a packed row. The kernels inline this with
  /// a compile-time `bits`; this runtime form is for tests and encoding.
  static uint32_t CodeAt(const uint8_t* row, int d, int bits) {
    const int64_t bit = static_cast<int64_t>(d) * bits;
    uint64_t word = 0;
    std::memcpy(&word, row + (bit >> 3), sizeof(word));
    return static_cast<uint32_t>(word >> (bit & 7)) &
           ((1u << bits) - 1u);
  }

 private:
  ScalarQuantizer quantizer_;
  int64_t count_ = 0;
  int64_t row_stride_ = 0;  // bytes per packed row, incl. guard padding
  std::vector<uint8_t> codes_;
  std::vector<uint8_t> columns_;  // dims * count, dimension-major
  std::vector<int32_t> scan_order_;  // dims, descending column variance
};

/// Lazily (re)compiled QuantizedCodes of one shard, keyed by bit width.
/// Same discipline as PackedSnapshotCache: Invalidate() under the owner's
/// exclusive lock on every mutation, Get() under the shared lock.
///
/// One entry per bit width, not one entry total: concurrent queries may
/// run at different widths (Database::set_filter_options is a plain
/// setter), and a single-slot cache would destroy the codes one reader
/// is still scanning when another asks for a new width. Per-width
/// entries are only ever destroyed by Invalidate(), which mutators call
/// under exclusive access -- when no reader can exist. The width space
/// is tiny (kMinBits..kMaxBits), so the extra memory is bounded.
class QuantizedCodesCache {
 public:
  void Invalidate() {
    std::lock_guard<std::mutex> lock(mutex_);
    stale_ = true;
  }

  /// Returns the current codes of `store` at `bits` bits per dimension,
  /// rebuilding first if a mutation invalidated them or none were built
  /// yet at this width. The reference stays valid until the next Get()
  /// after an Invalidate() -- i.e. for as long as the caller may hold it
  /// under the owner's shared lock.
  const QuantizedCodes& Get(const FeatureStore& store, int bits) const {
    const QuantizedCodes* codes = TryGet(store, bits, /*can_fail=*/false);
    SIMQ_CHECK(codes != nullptr);
    return *codes;
  }

  /// Read-only peek: the codes at `bits` only if they are already
  /// compiled and fresh; never triggers a compile. The EXPLAIN
  /// cardinality estimator uses this so estimating a plan cannot charge
  /// a query the cost (or the failpoint) of a code build it may never
  /// run.
  const QuantizedCodes* Peek(int bits) const {
    bits = std::clamp(bits, ScalarQuantizer::kMinBits,
                      ScalarQuantizer::kMaxBits);
    std::lock_guard<std::mutex> lock(mutex_);
    if (stale_) {
      return nullptr;
    }
    return codes_[static_cast<size_t>(bits - ScalarQuantizer::kMinBits)]
        .get();
  }

  /// Degradation-aware Get: returns null when the compile fails (the
  /// "filter.compile" failpoint). The caller falls back to the exact scan
  /// path. Reusing already-compiled codes never fails -- only compiles
  /// evaluate the failpoint.
  const QuantizedCodes* TryGet(const FeatureStore& store, int bits,
                               bool can_fail = true) const {
    bits = std::clamp(bits, ScalarQuantizer::kMinBits,
                      ScalarQuantizer::kMaxBits);
    std::lock_guard<std::mutex> lock(mutex_);
    if (stale_) {
      for (std::unique_ptr<QuantizedCodes>& slot : codes_) {
        slot.reset();
      }
      stale_ = false;
    }
    std::unique_ptr<QuantizedCodes>& slot =
        codes_[static_cast<size_t>(bits - ScalarQuantizer::kMinBits)];
    if (slot == nullptr) {
      if (can_fail && SIMQ_FAILPOINT_FIRED("filter.compile")) {
        return nullptr;
      }
      slot = std::make_unique<QuantizedCodes>(store, bits);
    }
    return slot.get();
  }

  /// Installs externally compiled codes at `bits`, dropping every other
  /// width's entry, and marks the cache fresh. Recompaction publish uses
  /// this to swap in the new generation's codes; the caller must hold the
  /// owner's exclusive lock (same requirement as Invalidate), so no
  /// reader can still be scanning the entries being dropped. Passing null
  /// leaves the cache empty-but-fresh: the next Get at any width compiles
  /// from the store as usual.
  void Install(int bits, std::unique_ptr<QuantizedCodes> codes) {
    bits = std::clamp(bits, ScalarQuantizer::kMinBits,
                      ScalarQuantizer::kMaxBits);
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::unique_ptr<QuantizedCodes>& slot : codes_) {
      slot.reset();
    }
    codes_[static_cast<size_t>(bits - ScalarQuantizer::kMinBits)] =
        std::move(codes);
    stale_ = false;
  }

 private:
  static constexpr size_t kWidths =
      ScalarQuantizer::kMaxBits - ScalarQuantizer::kMinBits + 1;
  mutable std::mutex mutex_;
  mutable std::array<std::unique_ptr<QuantizedCodes>, kWidths> codes_;
  mutable bool stale_ = true;
};

}  // namespace simq

#endif  // SIMQ_FILTER_QUANTIZED_CODES_H_
