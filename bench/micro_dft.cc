// Microbenchmarks of the DFT substrate: the planned radix-2 FFT of a
// complex signal, the real-input path (a half-length complex FFT plus a
// split step, written into a caller's row as a bulk load does), Bluestein
// (arbitrary length), and the naive reference.

#include <benchmark/benchmark.h>

#include "ts/dft.h"
#include "util/random.h"

namespace simq {
namespace {

std::vector<double> MakeSignal(int n) {
  Random rng(static_cast<uint64_t>(n));
  std::vector<double> x(static_cast<size_t>(n));
  for (double& v : x) {
    v = rng.UniformDouble(-1.0, 1.0);
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

void BM_DftPowerOfTwo(benchmark::State& state) {
  const Spectrum x = ToComplex(MakeSignal(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dft(x));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DftPowerOfTwo)->RangeMultiplier(2)->Range(64, 4096)->Complexity();

// The bulk-load shape: a real series transformed straight into a
// preallocated interleaved row (128 points is perfbench's row length).
void BM_RealDft(benchmark::State& state) {
  const std::vector<double> x = MakeSignal(static_cast<int>(state.range(0)));
  std::vector<double> row(2 * x.size());
  for (auto _ : state) {
    RealDft(x.data(), x.size(), row.data());
    benchmark::DoNotOptimize(row.data());
    benchmark::ClobberMemory();
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RealDft)->RangeMultiplier(2)->Range(64, 4096)->Complexity();

void BM_DftBluestein(benchmark::State& state) {
  // Odd lengths force the chirp-z path.
  const std::vector<double> x =
      MakeSignal(static_cast<int>(state.range(0)) + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dft(x));
  }
}
BENCHMARK(BM_DftBluestein)->RangeMultiplier(2)->Range(64, 4096);

void BM_NaiveDft(benchmark::State& state) {
  const std::vector<double> x = MakeSignal(static_cast<int>(state.range(0)));
  const Spectrum input = ToComplex(x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(NaiveDft(input));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NaiveDft)->RangeMultiplier(4)->Range(64, 1024)->Complexity();

}  // namespace
}  // namespace simq

BENCHMARK_MAIN();
