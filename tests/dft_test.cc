#include <atomic>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ts/dft.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace simq {
namespace {

std::vector<double> RandomSignal(Random* rng, int n) {
  std::vector<double> x(static_cast<size_t>(n));
  for (double& v : x) {
    v = rng->UniformDouble(-10.0, 10.0);
  }
  return x;
}

Spectrum ToComplex(const std::vector<double>& x) {
  Spectrum out(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    out[i] = Complex(x[i], 0.0);
  }
  return out;
}

double MaxAbsDiff(const Spectrum& a, const Spectrum& b) {
  EXPECT_EQ(a.size(), b.size());
  double max_diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  }
  return max_diff;
}

TEST(DftTest, IsPowerOfTwo) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_TRUE(IsPowerOfTwo(1024));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_FALSE(IsPowerOfTwo(1023));
}

TEST(DftTest, ImpulseHasFlatSpectrum) {
  // DFT of the unit impulse is 1/sqrt(n) everywhere.
  const int n = 8;
  std::vector<double> x(n, 0.0);
  x[0] = 1.0;
  const Spectrum spec = Dft(x);
  for (const Complex& c : spec) {
    EXPECT_NEAR(c.real(), 1.0 / std::sqrt(8.0), 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

TEST(DftTest, ConstantSignalConcentratesAtZero) {
  const std::vector<double> x(16, 2.0);
  const Spectrum spec = Dft(x);
  // X_0 = sqrt(n) * mean = 4 * 2.
  EXPECT_NEAR(spec[0].real(), 8.0, 1e-12);
  for (size_t f = 1; f < spec.size(); ++f) {
    EXPECT_NEAR(std::abs(spec[f]), 0.0, 1e-12);
  }
}

class DftLengthTest : public ::testing::TestWithParam<int> {};

TEST_P(DftLengthTest, MatchesNaiveReference) {
  const int n = GetParam();
  Random rng(1000 + static_cast<uint64_t>(n));
  const Spectrum x = ToComplex(RandomSignal(&rng, n));
  EXPECT_LT(MaxAbsDiff(Dft(x), NaiveDft(x)), 1e-8);
}

TEST_P(DftLengthTest, InverseRoundTrip) {
  const int n = GetParam();
  Random rng(2000 + static_cast<uint64_t>(n));
  const std::vector<double> x = RandomSignal(&rng, n);
  const std::vector<double> back = InverseDftReal(Dft(x));
  ASSERT_EQ(back.size(), x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-9);
  }
}

TEST_P(DftLengthTest, ParsevalEnergyPreserved) {
  const int n = GetParam();
  Random rng(3000 + static_cast<uint64_t>(n));
  const std::vector<double> x = RandomSignal(&rng, n);
  EXPECT_NEAR(Energy(x), Energy(Dft(x)), 1e-8 * (1.0 + Energy(x)));
}

TEST_P(DftLengthTest, DistancePreserved) {
  // Equation 8: Euclidean distance is identical in both domains.
  const int n = GetParam();
  Random rng(4000 + static_cast<uint64_t>(n));
  const std::vector<double> x = RandomSignal(&rng, n);
  const std::vector<double> y = RandomSignal(&rng, n);
  const double time_domain = EuclideanDistance(x, y);
  const double freq_domain = EuclideanDistance(Dft(x), Dft(y));
  EXPECT_NEAR(time_domain, freq_domain, 1e-9 * (1.0 + time_domain));
}

TEST_P(DftLengthTest, Linearity) {
  const int n = GetParam();
  Random rng(5000 + static_cast<uint64_t>(n));
  const std::vector<double> x = RandomSignal(&rng, n);
  const std::vector<double> y = RandomSignal(&rng, n);
  std::vector<double> combo(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    combo[static_cast<size_t>(i)] = 2.5 * x[static_cast<size_t>(i)] -
                                    1.5 * y[static_cast<size_t>(i)];
  }
  const Spectrum sx = Dft(x);
  const Spectrum sy = Dft(y);
  const Spectrum sc = Dft(combo);
  for (int f = 0; f < n; ++f) {
    const Complex expected = 2.5 * sx[static_cast<size_t>(f)] -
                             1.5 * sy[static_cast<size_t>(f)];
    EXPECT_LT(std::abs(sc[static_cast<size_t>(f)] - expected), 1e-9);
  }
}

TEST_P(DftLengthTest, ConvolutionMultiplicationProperty) {
  // With the unitary convention, DFT(conv(x,y)) = sqrt(n) * X * Y
  // element-wise (the sqrt(n) factor the paper's algebra drops).
  const int n = GetParam();
  Random rng(6000 + static_cast<uint64_t>(n));
  const std::vector<double> x = RandomSignal(&rng, n);
  const std::vector<double> y = RandomSignal(&rng, n);
  const Spectrum conv_spec = Dft(CircularConvolution(x, y));
  const Spectrum sx = Dft(x);
  const Spectrum sy = Dft(y);
  const double root_n = std::sqrt(static_cast<double>(n));
  for (int f = 0; f < n; ++f) {
    const Complex expected =
        root_n * sx[static_cast<size_t>(f)] * sy[static_cast<size_t>(f)];
    EXPECT_LT(std::abs(conv_spec[static_cast<size_t>(f)] - expected), 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, DftLengthTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 15, 16,
                                           31, 32, 60, 64, 100, 128, 375,
                                           512, 1000, 1024));

// Accuracy bound against the NaiveDft oracle for signals in [-10, 10):
// 2e-14 per doubling of the length. Measured against a long-double
// reference on these signals, the FFT with recurrence-stepped twiddles
// this replaced erred by up to 1.5e-14 at n = 128, 2.1e-13 at 1024 and
// 8.3e-13 at 4096 (3.0e-13 at Bluestein length 375), the last above this
// bound; the planned transforms err by at most 1.3e-14 at any length
// here, and most of the measured difference is the oracle's own rounding
// (7.5e-14 at 4096).
double OracleBound(size_t n) {
  return 2e-14 * (1.0 + std::log2(static_cast<double>(n)));
}

std::vector<int> OracleLengths() {
  std::vector<int> lengths;
  for (int n = 1; n <= 4096; n *= 2) {
    lengths.push_back(n);
  }
  for (const int n : {3, 5, 7, 12, 15, 31, 60, 100, 375, 1000}) {
    lengths.push_back(n);  // Bluestein
  }
  return lengths;
}

TEST(DftTest, PlannedComplexPathMatchesNaiveOracle) {
  for (const int n : OracleLengths()) {
    Random rng(7000 + static_cast<uint64_t>(n));
    Spectrum x(static_cast<size_t>(n));
    for (Complex& v : x) {
      v = Complex(rng.UniformDouble(-10.0, 10.0),
                  rng.UniformDouble(-10.0, 10.0));
    }
    const double bound = OracleBound(static_cast<size_t>(n));
    EXPECT_LT(MaxAbsDiff(Dft(x), NaiveDft(x)), bound) << "n=" << n;
    // The inverse transform runs the same plans with conjugate twiddles.
    EXPECT_LT(MaxAbsDiff(InverseDft(Dft(x)), x), bound) << "n=" << n;
  }
}

TEST(DftTest, RealInputPathMatchesNaiveOracle) {
  for (const int n : OracleLengths()) {
    Random rng(8000 + static_cast<uint64_t>(n));
    const std::vector<double> x = RandomSignal(&rng, n);
    const Spectrum spectrum = Dft(x);
    EXPECT_LT(MaxAbsDiff(spectrum, NaiveDft(ToComplex(x))),
              OracleBound(static_cast<size_t>(n)))
        << "n=" << n;

    // RealDft writes exactly the 2n doubles of Dft(x), bit for bit, and
    // nothing past them.
    const double guard = -1234.5;
    std::vector<double> row(2 * static_cast<size_t>(n) + 3, guard);
    RealDft(x.data(), x.size(), row.data());
    EXPECT_EQ(std::memcmp(row.data(), spectrum.data(),
                          2 * x.size() * sizeof(double)),
              0)
        << "n=" << n;
    for (size_t i = 2 * x.size(); i < row.size(); ++i) {
      EXPECT_EQ(row[i], guard) << "n=" << n;
    }
  }
}

TEST(DftTest, RealPathIsExactlyConjugateSymmetric) {
  // The split step writes the upper half as the conjugate of the lower,
  // and the DC and Nyquist terms of a real signal are real.
  for (int n = 2; n <= 4096; n *= 2) {
    Random rng(9000 + static_cast<uint64_t>(n));
    const Spectrum spec = Dft(RandomSignal(&rng, n));
    EXPECT_EQ(spec[0].imag(), 0.0) << "n=" << n;
    EXPECT_EQ(spec[static_cast<size_t>(n / 2)].imag(), 0.0) << "n=" << n;
    for (int f = 1; f < n; ++f) {
      const Complex mirror = spec[static_cast<size_t>(n - f)];
      EXPECT_EQ(spec[static_cast<size_t>(f)].real(), mirror.real());
      EXPECT_EQ(spec[static_cast<size_t>(f)].imag(), -mirror.imag());
    }
  }
}

TEST(DftTest, RealPathFallsBackWhereItCannotSplit) {
  // n = 1 has no half-length transform: the DFT is the identity.
  const std::vector<double> one = {-2.75};
  double out[2] = {7.0, 7.0};
  RealDft(one.data(), 1, out);
  EXPECT_EQ(out[0], -2.75);
  EXPECT_EQ(out[1], 0.0);
  // Lengths that are not powers of two, even ones included, take the
  // complex Bluestein path, within the oracle bound of the complex path.
  for (const int n : {3, 5, 6, 7, 12, 15, 45, 100}) {
    Random rng(9500 + static_cast<uint64_t>(n));
    const std::vector<double> x = RandomSignal(&rng, n);
    const Spectrum complex_path = Dft(ToComplex(x));
    EXPECT_LT(MaxAbsDiff(Dft(x), NaiveDft(ToComplex(x))),
              OracleBound(static_cast<size_t>(n)))
        << "n=" << n;
    EXPECT_LT(MaxAbsDiff(Dft(x), complex_path),
              OracleBound(static_cast<size_t>(n)))
        << "n=" << n;
  }
  // The shortest lengths that do split: n = 2 (a one-point half
  // transform, no pair loop) and n = 4 (the pair loop's k == m - k case).
  for (const int n : {2, 4}) {
    Random rng(9600 + static_cast<uint64_t>(n));
    const std::vector<double> x = RandomSignal(&rng, n);
    EXPECT_LT(MaxAbsDiff(Dft(x), NaiveDft(ToComplex(x))), 1e-14)
        << "n=" << n;
  }
}

TEST(DftTest, TwoPoolThreadsBuildAndUsePlansAtOnce) {
  // Lengths no other test here transforms, so both threads find their
  // plans missing and race to build them: RealDft(32768) needs the plans
  // of 16384 and 32768, Dft of 16384 complex values the plan of 16384,
  // and the Bluestein lengths 5000 and 9000 the plans of 16384 and 32768
  // for their inner transforms.
  const std::vector<int> lengths = {32768, 16384, 5000, 9000};
  std::vector<std::vector<double>> inputs;
  for (const int n : lengths) {
    Random rng(9700 + static_cast<uint64_t>(n));
    inputs.push_back(RandomSignal(&rng, n));
  }
  const auto transform_all = [&](std::vector<Spectrum>* out) {
    out->push_back(Dft(inputs[0]));
    out->push_back(Dft(ToComplex(inputs[1])));
    out->push_back(Dft(inputs[2]));
    out->push_back(Dft(ToComplex(inputs[3])));
  };

  ThreadPool pool(2);  // the calling thread and one worker
  std::vector<Spectrum> results[2];
  std::atomic<int> arrived{0};
  pool.ParallelFor(0, 2, 1, [&](int64_t block, int64_t, int64_t) {
    // Both blocks start together (bounded, so a slow worker wake-up
    // only weakens the overlap, never hangs the test).
    arrived.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    transform_all(&results[block]);
  });

  std::vector<Spectrum> serial;
  transform_all(&serial);
  for (size_t i = 0; i < lengths.size(); ++i) {
    const size_t bytes = serial[i].size() * sizeof(Complex);
    EXPECT_EQ(std::memcmp(results[0][i].data(), serial[i].data(), bytes), 0)
        << "n=" << lengths[i];
    EXPECT_EQ(std::memcmp(results[1][i].data(), serial[i].data(), bytes), 0)
        << "n=" << lengths[i];
    // And the plans the race built are right: the transform inverts.
    const Spectrum back = InverseDft(serial[i]);
    const Spectrum original = ToComplex(inputs[i]);
    EXPECT_LT(MaxAbsDiff(back, original), 1e-12) << "n=" << lengths[i];
  }
}

TEST(DftTest, ConjugateSymmetryForRealSignals) {
  Random rng(77);
  const std::vector<double> x = RandomSignal(&rng, 64);
  const Spectrum spec = Dft(x);
  for (size_t f = 1; f < spec.size(); ++f) {
    EXPECT_LT(std::abs(spec[f] - std::conj(spec[spec.size() - f])), 1e-9);
  }
}

TEST(DftTest, CircularConvolutionCommutes) {
  Random rng(88);
  const std::vector<double> x = RandomSignal(&rng, 17);
  const std::vector<double> y = RandomSignal(&rng, 17);
  const std::vector<double> xy = CircularConvolution(x, y);
  const std::vector<double> yx = CircularConvolution(y, x);
  for (size_t i = 0; i < xy.size(); ++i) {
    EXPECT_NEAR(xy[i], yx[i], 1e-10);
  }
}

TEST(DftTest, FftConvolutionMatchesNaiveOracle) {
  // The production CircularConvolution takes the FFT path above its
  // small-size cutoff; the O(n^2) loop is the oracle. Cover power-of-two
  // and Bluestein lengths on both sides of the cutoff.
  for (const int n : {8, 31, 32, 33, 64, 100, 128, 375}) {
    Random rng(4200 + static_cast<uint64_t>(n));
    const std::vector<double> x = RandomSignal(&rng, n);
    const std::vector<double> y = RandomSignal(&rng, n);
    const std::vector<double> fast = CircularConvolution(x, y);
    const std::vector<double> naive = CircularConvolutionNaive(x, y);
    ASSERT_EQ(fast.size(), naive.size());
    double scale = 1.0;
    for (const double v : naive) {
      scale = std::max(scale, std::abs(v));
    }
    for (size_t i = 0; i < naive.size(); ++i) {
      EXPECT_NEAR(fast[i], naive[i], 1e-10 * scale)
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(DftTest, ConvolutionWithDeltaIsIdentity) {
  Random rng(99);
  const std::vector<double> x = RandomSignal(&rng, 9);
  std::vector<double> delta(9, 0.0);
  delta[0] = 1.0;
  const std::vector<double> out = CircularConvolution(x, delta);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(out[i], x[i], 1e-12);
  }
}

TEST(DftTest, RandomWalkEnergyConcentratesInLowFrequencies) {
  // The energy-concentration property that justifies the k-index: a random
  // walk keeps most spectral energy in the first few coefficients.
  Random rng(123);
  std::vector<double> walk(256);
  walk[0] = rng.UniformDouble(20.0, 99.0);
  for (size_t i = 1; i < walk.size(); ++i) {
    walk[i] = walk[i - 1] + rng.UniformDouble(-4.0, 4.0);
  }
  // Remove the mean so coefficient 0 does not dominate trivially.
  double mean = 0.0;
  for (double v : walk) {
    mean += v;
  }
  mean /= static_cast<double>(walk.size());
  for (double& v : walk) {
    v -= mean;
  }
  const Spectrum spec = Dft(walk);
  EXPECT_GT(LowFrequencyEnergyFraction(spec, 3), 0.6);
  EXPECT_GT(LowFrequencyEnergyFraction(spec, 8), 0.8);
}

TEST(DftTest, EnergyFractionBounds) {
  Random rng(321);
  const std::vector<double> x = RandomSignal(&rng, 32);
  const Spectrum spec = Dft(x);
  double previous = 0.0;
  for (int k = 1; k <= 16; ++k) {
    const double fraction = LowFrequencyEnergyFraction(spec, k);
    EXPECT_GE(fraction, previous - 1e-12);  // monotone in k
    EXPECT_LE(fraction, 1.0 + 1e-12);
    previous = fraction;
  }
  EXPECT_NEAR(LowFrequencyEnergyFraction(spec, 16), 1.0, 1e-9);
}

}  // namespace
}  // namespace simq
