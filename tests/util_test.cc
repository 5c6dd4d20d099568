#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/crc32.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table_printer.h"

namespace simq {
namespace {

// The bytewise table CRC the on-disk formats were written with: the
// reference every faster Crc32 must reproduce exactly.
uint32_t BytewiseCrc32(const unsigned char* bytes, size_t size,
                       uint32_t seed) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    table[i] = crc;
  }
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ bytes[i]) & 0xFFu];
  }
  return ~crc;
}

std::vector<unsigned char> RandomBytes(size_t size, uint64_t seed) {
  Random rng(seed);
  std::vector<unsigned char> bytes(size);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.UniformInt(0, 255));
  }
  return bytes;
}

TEST(Crc32Test, CheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, MatchesBytewiseAtEveryLengthAndAlignment) {
  const std::vector<unsigned char> bytes = RandomBytes(96, 11);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 67; ++length) {
      const unsigned char* start = bytes.data() + offset;
      EXPECT_EQ(Crc32(start, length), BytewiseCrc32(start, length, 0))
          << "offset " << offset << " length " << length;
      EXPECT_EQ(Crc32(start, length, 0x9E3779B9u),
                BytewiseCrc32(start, length, 0x9E3779B9u))
          << "seeded, offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, ChainedSeedsEqualTheConcatenation) {
  const std::vector<unsigned char> bytes = RandomBytes(200, 12);
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  for (size_t split = 0; split <= bytes.size(); split += 7) {
    const uint32_t head = Crc32(bytes.data(), split);
    EXPECT_EQ(Crc32(bytes.data() + split, bytes.size() - split, head), whole)
        << "split " << split;
  }
}

TEST(Crc32Test, MatchesBytewiseOnAMultiMegabyteBuffer) {
  const std::vector<unsigned char> bytes = RandomBytes((3 << 20) + 5, 13);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()),
            BytewiseCrc32(bytes.data(), bytes.size(), 0));
}

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status status = Status::InvalidArgument("bad input");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad input");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCorruption), "Corruption");
  EXPECT_STREQ(StatusCodeName(StatusCode::kTimeout), "Timeout");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCancelled), "Cancelled");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOverloaded), "Overloaded");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IoError");
}

TEST(StatusTest, LifecycleFactoriesCarryTheirCode) {
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::Timeout("x").code(), StatusCode::kTimeout);
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::Overloaded("x").code(), StatusCode::kOverloaded);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(ResultTest, HoldsValue) {
  const Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
}

TEST(ResultTest, HoldsStatus) {
  const Result<int> result = Status::NotFound("missing");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> result = std::vector<int>{1, 2, 3};
  const std::vector<int> taken = std::move(result).value();
  EXPECT_EQ(taken.size(), 3u);
}

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(123);
  Random b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1);
  Random b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 2);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double value = rng.NextDouble();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(RandomTest, UniformDoubleRespectsBounds) {
  Random rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double value = rng.UniformDouble(-4.0, 4.0);
    EXPECT_GE(value, -4.0);
    EXPECT_LT(value, 4.0);
  }
}

TEST(RandomTest, UniformIntCoversRangeInclusively) {
  Random rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t value = rng.UniformInt(0, 9);
    EXPECT_GE(value, 0);
    EXPECT_LE(value, 9);
    saw_lo = saw_lo || value == 0;
    saw_hi = saw_hi || value == 9;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RandomTest, UniformIntSingleton) {
  Random rng(13);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.UniformInt(5, 5), 5);
  }
}

TEST(RandomTest, GaussianMomentsRoughlyStandard) {
  Random rng(17);
  const int samples = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < samples; ++i) {
    const double value = rng.NextGaussian();
    sum += value;
    sum_sq += value * value;
  }
  const double mean = sum / samples;
  const double variance = sum_sq / samples - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(variance, 1.0, 0.03);
}

TEST(RandomTest, BernoulliFrequency) {
  Random rng(19);
  int hits = 0;
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) {
    hits += rng.Bernoulli(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / samples, 0.25, 0.01);
}

TEST(StatsTest, MeanAndStd) {
  const std::vector<double> values = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(values), 5.0);
  EXPECT_DOUBLE_EQ(StdDev(values), 2.0);  // classic population-stddev example
}

TEST(StatsTest, EmptyInputs) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev({}), 0.0);
}

TEST(StatsTest, ConstantSeriesHasZeroStd) {
  EXPECT_DOUBLE_EQ(StdDev({3.0, 3.0, 3.0}), 0.0);
}

TEST(StatsTest, EuclideanDistanceReal) {
  const std::vector<double> origin = {0.0, 0.0};
  const std::vector<double> three_four = {3.0, 4.0};
  const std::vector<double> ones = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(EuclideanDistance(origin, three_four), 5.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance(ones, ones), 0.0);
}

TEST(StatsTest, EuclideanDistanceComplex) {
  const std::vector<std::complex<double>> a = {{0.0, 0.0}, {1.0, 1.0}};
  const std::vector<std::complex<double>> b = {{3.0, 4.0}, {1.0, 1.0}};
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, b), 5.0);
}

TEST(StatsTest, EarlyAbandonMatchesFullWhenWithinThreshold) {
  const std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b = {2.0, 3.0, 4.0, 5.0};
  const double full = EuclideanDistance(a, b);
  EXPECT_DOUBLE_EQ(EuclideanDistanceEarlyAbandon(a, b, full + 0.1), full);
}

TEST(StatsTest, EarlyAbandonReturnsInfinityWhenExceeded) {
  const std::vector<double> a = {0.0, 0.0, 0.0};
  const std::vector<double> b = {10.0, 10.0, 10.0};
  EXPECT_TRUE(std::isinf(EuclideanDistanceEarlyAbandon(a, b, 1.0)));
}

TEST(StatsTest, EarlyAbandonKeepsExactThreshold) {
  // Distance exactly equal to the threshold must not be abandoned.
  const std::vector<double> a = {0.0};
  const std::vector<double> b = {2.0};
  EXPECT_DOUBLE_EQ(EuclideanDistanceEarlyAbandon(a, b, 2.0), 2.0);
}

TEST(StatsTest, EnergyRealAndComplexAgree) {
  const std::vector<double> x = {1.0, -2.0, 3.0};
  std::vector<std::complex<double>> cx;
  for (double v : x) {
    cx.emplace_back(v, 0.0);
  }
  EXPECT_DOUBLE_EQ(Energy(x), 14.0);
  EXPECT_DOUBLE_EQ(Energy(cx), 14.0);
}

TEST(StatsTest, SummarizeOrderStatistics) {
  const Summary summary = Summarize({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(summary.min, 1.0);
  EXPECT_DOUBLE_EQ(summary.max, 5.0);
  EXPECT_DOUBLE_EQ(summary.mean, 3.0);
  EXPECT_DOUBLE_EQ(summary.median, 3.0);
}

TEST(StatsTest, SummarizeEvenCountMedian) {
  const Summary summary = Summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(summary.median, 2.5);
}

TEST(StatsTest, PercentileInterpolatesBetweenRanks) {
  const std::vector<double> sample = {10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(Percentile(sample, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(sample, 50.0), 30.0);
  EXPECT_DOUBLE_EQ(Percentile(sample, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(sample, 25.0), 20.0);
  EXPECT_DOUBLE_EQ(Percentile(sample, 90.0), 46.0);  // between ranks 3 and 4
}

TEST(StatsTest, PercentileDegenerateInputs) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 99.0), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({3.0, 1.0}, 200.0), 3.0);  // clamped
}

TEST(TablePrinterTest, FormatHelpers) {
  EXPECT_EQ(TablePrinter::FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::FormatInt(12345), "12345");
  EXPECT_EQ(TablePrinter::FormatInt(-7), "-7");
}

TEST(TablePrinterTest, PrintDoesNotCrash) {
  TablePrinter table({"a", "b"});
  table.AddRow({"1", "2"});
  table.AddRow({"long cell", "x"});
  table.Print();
}

}  // namespace
}  // namespace simq
