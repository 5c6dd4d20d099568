#include "ts/dft.h"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>

#include "util/logging.h"

namespace simq {
namespace {

// A cached plan for one power-of-two length n: the bit-reversal
// permutation and the forward twiddles w_k = exp(-2 pi i k / n), k < n/2,
// each evaluated directly from its angle (no recurrence, so every twiddle
// is within a few ulps). Plans are immutable once built and live for the
// process, so any thread may use one without locking.
struct FftPlan {
  explicit FftPlan(size_t length) : n(length), bitrev(length) {
    int bits = 0;
    while ((size_t{1} << bits) < n) {
      ++bits;
    }
    for (size_t i = 0; i < n; ++i) {
      size_t r = 0;
      for (int b = 0; b < bits; ++b) {
        r |= ((i >> b) & 1) << (bits - 1 - b);
      }
      bitrev[i] = static_cast<uint32_t>(r);
    }
    twiddles.resize(n);  // n/2 interleaved (re, im) pairs
    for (size_t k = 0; k < n / 2; ++k) {
      const double angle =
          -2.0 * M_PI * static_cast<double>(k) / static_cast<double>(n);
      twiddles[2 * k] = std::cos(angle);
      twiddles[2 * k + 1] = std::sin(angle);
    }
  }

  size_t n;
  std::vector<uint32_t> bitrev;
  std::vector<double> twiddles;
};

// The plan for power-of-two n. Lookups are one acquire load; the first
// use of a length builds its plan under a mutex. At most one plan per
// power of two ever exists, and none is freed.
const FftPlan& PlanFor(size_t n) {
  SIMQ_DCHECK(IsPowerOfTwo(n));
  static std::atomic<const FftPlan*> plans[64];
  static std::mutex build_mutex;
  int log2n = 0;
  while ((size_t{1} << log2n) < n) {
    ++log2n;
  }
  std::atomic<const FftPlan*>& slot = plans[log2n];
  const FftPlan* plan = slot.load(std::memory_order_acquire);
  if (plan == nullptr) {
    std::lock_guard<std::mutex> lock(build_mutex);
    plan = slot.load(std::memory_order_relaxed);
    if (plan == nullptr) {
      plan = new FftPlan(n);
      slot.store(plan, std::memory_order_release);
    }
  }
  return *plan;
}

// Copies n complex values (interleaved doubles) from `in` to `out` in
// bit-reversed order; `in` and `out` must not overlap.
void PermuteInto(const FftPlan& plan, const double* in, double* out) {
  for (size_t i = 0; i < plan.n; ++i) {
    const size_t j = plan.bitrev[i];
    out[2 * j] = in[2 * i];
    out[2 * j + 1] = in[2 * i + 1];
  }
}

void PermuteInPlace(const FftPlan& plan, double* a) {
  for (size_t i = 0; i < plan.n; ++i) {
    const size_t j = plan.bitrev[i];
    if (i < j) {
      std::swap(a[2 * i], a[2 * j]);
      std::swap(a[2 * i + 1], a[2 * j + 1]);
    }
  }
}

// The butterfly stages of an in-place non-normalized radix-2 FFT over n
// complex values (interleaved doubles) already in bit-reversed order.
// kInverse selects the +i kernel (conjugated twiddles). A stage of span
// 2h reads every (n/2h)-th twiddle of the plan.
template <bool kInverse>
void Butterflies(const FftPlan& plan, double* a) {
  const size_t n = plan.n;
  const double* tw = plan.twiddles.data();
  if (n >= 2) {
    for (size_t i = 0; i < n; i += 2) {  // span 2: the twiddle is 1
      double* u = a + 2 * i;
      const double vr = u[2];
      const double vi = u[3];
      u[2] = u[0] - vr;
      u[3] = u[1] - vi;
      u[0] += vr;
      u[1] += vi;
    }
  }
  for (size_t half = 2, stride = n / 4; half < n; half <<= 1, stride >>= 1) {
    for (size_t i = 0; i < n; i += 2 * half) {
      double* u = a + 2 * i;
      double* v = u + 2 * half;
      for (size_t k = 0; k < half; ++k) {
        const double wr = tw[2 * k * stride];
        const double wi = kInverse ? -tw[2 * k * stride + 1]
                                   : tw[2 * k * stride + 1];
        const double vr = v[2 * k] * wr - v[2 * k + 1] * wi;
        const double vi = v[2 * k] * wi + v[2 * k + 1] * wr;
        v[2 * k] = u[2 * k] - vr;
        v[2 * k + 1] = u[2 * k + 1] - vi;
        u[2 * k] += vr;
        u[2 * k + 1] += vi;
      }
    }
  }
}

void Fft(const FftPlan& plan, int sign, double* a) {
  if (sign < 0) {
    Butterflies<false>(plan, a);
  } else {
    Butterflies<true>(plan, a);
  }
}

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

// Precomputed state for Bluestein's chirp-z transform of one (n, sign)
// pair: the chirp and the FFT of the (input-independent) convolution
// kernel. Cached per thread so repeated transforms of the same length --
// the normal case: every series in a relation has one length -- do two
// power-of-two FFTs instead of three, with no per-call allocation.
struct BluesteinPlan {
  size_t n = 0;
  int sign = 0;
  size_t m = 0;
  std::vector<Complex> chirp;  // c_j = exp(sign * i * pi * j^2 / n)
  Spectrum kernel_fft;         // forward FFT of the padded conj-chirp kernel
};

const BluesteinPlan& GetBluesteinPlan(size_t n, int sign) {
  static thread_local std::vector<std::unique_ptr<BluesteinPlan>> cache;
  for (const auto& plan : cache) {
    if (plan->n == n && plan->sign == sign) {
      return *plan;
    }
  }
  auto plan = std::make_unique<BluesteinPlan>();
  plan->n = n;
  plan->sign = sign;
  plan->m = NextPowerOfTwo(2 * n - 1);

  // Chirp c_j = exp(sign * i * pi * j^2 / n). j^2 is reduced mod 2n before
  // the float division to keep the phase accurate for long inputs.
  plan->chirp.resize(n);
  for (size_t j = 0; j < n; ++j) {
    const int64_t j2 = static_cast<int64_t>(j) * static_cast<int64_t>(j) %
                       static_cast<int64_t>(2 * n);
    const double phase =
        sign * M_PI * static_cast<double>(j2) / static_cast<double>(n);
    plan->chirp[j] = Complex(std::cos(phase), std::sin(phase));
  }

  Spectrum kernel(plan->m, Complex(0.0, 0.0));
  kernel[0] = std::conj(plan->chirp[0]);
  for (size_t j = 1; j < n; ++j) {
    kernel[j] = std::conj(plan->chirp[j]);
    kernel[plan->m - j] = std::conj(plan->chirp[j]);
  }
  const FftPlan& fft = PlanFor(plan->m);
  plan->kernel_fft.resize(plan->m);
  PermuteInto(fft, reinterpret_cast<const double*>(kernel.data()),
              reinterpret_cast<double*>(plan->kernel_fft.data()));
  Fft(fft, -1, reinterpret_cast<double*>(plan->kernel_fft.data()));

  if (cache.size() >= 8) {
    cache.erase(cache.begin());  // FIFO: keep the most recent lengths
  }
  cache.push_back(std::move(plan));
  return *cache.back();
}

// Bluestein's chirp-z transform: expresses an arbitrary-length DFT as a
// linear convolution, evaluated with zero-padded power-of-two FFTs.
// Writes the DFT (sign = -1) or inverse kernel (sign = +1) of the n
// values input(0..n-1), times `scale`, to out[0, n).
template <typename Input>
void BluesteinDft(size_t n, int sign, double scale, const Input& input,
                  Complex* out) {
  SIMQ_CHECK_GT(n, 0u);
  const BluesteinPlan& plan = GetBluesteinPlan(n, sign);
  const FftPlan& fft = PlanFor(plan.m);

  static thread_local Spectrum scratch;
  scratch.assign(plan.m, Complex(0.0, 0.0));
  for (size_t j = 0; j < n; ++j) {
    scratch[j] = input(j) * plan.chirp[j];
  }
  double* data = reinterpret_cast<double*>(scratch.data());
  PermuteInPlace(fft, data);
  Fft(fft, -1, data);
  for (size_t j = 0; j < plan.m; ++j) {
    scratch[j] *= plan.kernel_fft[j];
  }
  PermuteInPlace(fft, data);
  Fft(fft, +1, data);

  const double out_scale = scale / static_cast<double>(plan.m);
  for (size_t k = 0; k < n; ++k) {
    out[k] = scratch[k] * out_scale * plan.chirp[k];
  }
}

// Non-normalized (scale 1) or scaled DFT of a complex signal of any
// length; `out` must not alias `x`.
void ComplexDft(const Complex* x, size_t n, int sign, double scale,
                Complex* out) {
  if (!IsPowerOfTwo(n)) {
    BluesteinDft(n, sign, scale, [x](size_t j) { return x[j]; }, out);
    return;
  }
  const FftPlan& plan = PlanFor(n);
  double* data = reinterpret_cast<double*>(out);
  PermuteInto(plan, reinterpret_cast<const double*>(x), data);
  Fft(plan, sign, data);
  if (scale != 1.0) {
    for (size_t i = 0; i < 2 * n; ++i) {
      data[i] *= scale;
    }
  }
}

Spectrum RawDft(const Spectrum& x, int sign) {
  Spectrum out(x.size());
  ComplexDft(x.data(), x.size(), sign, 1.0, out.data());
  return out;
}

}  // namespace

bool IsPowerOfTwo(size_t n) { return n != 0 && (n & (n - 1)) == 0; }

void RealDft(const double* x, size_t n, double* out) {
  SIMQ_CHECK_GT(n, 0u);
  const double scale = 1.0 / std::sqrt(static_cast<double>(n));
  if (n == 1) {
    out[0] = x[0];
    out[1] = 0.0;
    return;
  }
  if (!IsPowerOfTwo(n)) {
    BluesteinDft(n, -1, scale, [x](size_t j) { return Complex(x[j], 0.0); },
                 reinterpret_cast<Complex*>(out));
    return;
  }
  // Read the n reals as m = n/2 complex values z_t = x_{2t} + i x_{2t+1}
  // and transform them into the low half of `out`: Z = FFT_m(z).
  const size_t m = n / 2;
  const FftPlan& half = PlanFor(m);
  PermuteInto(half, x, out);
  Fft(half, -1, out);

  // Split step: with E and O the spectra of the even and odd samples,
  // Z_k = E_k + i O_k, and X_k = E_k + w^k O_k for w = exp(-2 pi i / n),
  // where E_k = (Z_k + conj Z_{m-k}) / 2 and O_k = (Z_k - conj Z_{m-k}) / 2i.
  // The pair (k, m-k) is read once and both outputs written back in place:
  // X_{m-k} = conj(E_k - w^k O_k).
  const double* w = PlanFor(n).twiddles.data();
  const double half_scale = 0.5 * scale;
  const double z0r = out[0];
  const double z0i = out[1];
  out[0] = (z0r + z0i) * scale;
  out[1] = 0.0;
  out[2 * m] = (z0r - z0i) * scale;
  out[2 * m + 1] = 0.0;
  for (size_t k = 1; 2 * k <= m; ++k) {
    const size_t j = m - k;
    const double zkr = out[2 * k];
    const double zki = out[2 * k + 1];
    const double zjr = out[2 * j];
    const double zji = out[2 * j + 1];
    const double er = zkr + zjr;  // 2 E_k
    const double ei = zki - zji;
    const double or_ = zki + zji;  // 2 O_k
    const double oi = zjr - zkr;
    const double wr = w[2 * k];
    const double wi = w[2 * k + 1];
    const double tr = wr * or_ - wi * oi;  // 2 w^k O_k
    const double ti = wr * oi + wi * or_;
    out[2 * k] = (er + tr) * half_scale;
    out[2 * k + 1] = (ei + ti) * half_scale;
    if (j != k) {
      out[2 * j] = (er - tr) * half_scale;
      out[2 * j + 1] = (ti - ei) * half_scale;
    }
  }
  // A real signal's spectrum is conjugate-symmetric: X_{n-k} = conj X_k.
  for (size_t k = 1; k < m; ++k) {
    out[2 * (n - k)] = out[2 * k];
    out[2 * (n - k) + 1] = -out[2 * k + 1];
  }
}

Spectrum Dft(const std::vector<double>& x) {
  SIMQ_CHECK(!x.empty());
  Spectrum out(x.size());
  RealDft(x.data(), x.size(), reinterpret_cast<double*>(out.data()));
  return out;
}

Spectrum Dft(const Spectrum& x) {
  SIMQ_CHECK(!x.empty());
  Spectrum out(x.size());
  ComplexDft(x.data(), x.size(), -1,
             1.0 / std::sqrt(static_cast<double>(x.size())), out.data());
  return out;
}

Spectrum InverseDft(const Spectrum& spectrum) {
  SIMQ_CHECK(!spectrum.empty());
  Spectrum out(spectrum.size());
  ComplexDft(spectrum.data(), spectrum.size(), +1,
             1.0 / std::sqrt(static_cast<double>(spectrum.size())),
             out.data());
  return out;
}

std::vector<double> InverseDftReal(const Spectrum& spectrum) {
  const Spectrum complex_signal = InverseDft(spectrum);
  std::vector<double> out(complex_signal.size());
  for (size_t i = 0; i < complex_signal.size(); ++i) {
    SIMQ_DCHECK(std::abs(complex_signal[i].imag()) < 1e-6)
        << "spectrum is not that of a real signal";
    out[i] = complex_signal[i].real();
  }
  return out;
}

Spectrum NaiveDft(const Spectrum& x) {
  const size_t n = x.size();
  SIMQ_CHECK_GT(n, 0u);
  Spectrum out(n, Complex(0.0, 0.0));
  const double scale = 1.0 / std::sqrt(static_cast<double>(n));
  for (size_t f = 0; f < n; ++f) {
    Complex sum(0.0, 0.0);
    for (size_t t = 0; t < n; ++t) {
      // t*f is reduced mod n before the float division, so the phase stays
      // within one turn and the oracle keeps its accuracy at long lengths.
      const uint64_t tf = static_cast<uint64_t>(t) * f % n;
      const double phase = -2.0 * M_PI * static_cast<double>(tf) /
                           static_cast<double>(n);
      sum += x[t] * Complex(std::cos(phase), std::sin(phase));
    }
    out[f] = sum * scale;
  }
  return out;
}

std::vector<double> CircularConvolutionNaive(const std::vector<double>& a,
                                             const std::vector<double>& b) {
  SIMQ_CHECK_EQ(a.size(), b.size());
  const size_t n = a.size();
  std::vector<double> out(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (size_t k = 0; k < n; ++k) {
      const size_t idx = (i + n - k) % n;
      sum += a[k] * b[idx];
    }
    out[i] = sum;
  }
  return out;
}

std::vector<double> CircularConvolution(const std::vector<double>& a,
                                        const std::vector<double>& b) {
  SIMQ_CHECK_EQ(a.size(), b.size());
  const size_t n = a.size();
  // Below the cutoff the O(n^2) loop beats the transform overhead.
  if (n < 32) {
    return CircularConvolutionNaive(a, b);
  }
  // Pack both real signals into one complex transform: with
  // c_t = a_t + i b_t, the halves unpack as A_f = (C_f + conj(C_{-f}))/2
  // and B_f = (C_f - conj(C_{-f}))/(2i).
  Spectrum packed(n);
  for (size_t t = 0; t < n; ++t) {
    packed[t] = Complex(a[t], b[t]);
  }
  const Spectrum c = RawDft(packed, -1);
  Spectrum product(n);
  for (size_t f = 0; f < n; ++f) {
    const Complex cf = c[f];
    const Complex cm = std::conj(c[(n - f) % n]);
    const Complex af = 0.5 * (cf + cm);
    const Complex bf = Complex(0.0, -0.5) * (cf - cm);
    product[f] = af * bf;
  }
  // conv = IDFT_raw(A .* B) / n (the raw transforms are unnormalized).
  const Spectrum inverse = RawDft(product, +1);
  std::vector<double> out(n);
  const double inv_n = 1.0 / static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = inverse[i].real() * inv_n;
  }
  return out;
}

double LowFrequencyEnergyFraction(const Spectrum& spectrum,
                                  int num_coefficients) {
  SIMQ_CHECK_GE(num_coefficients, 0);
  double total = 0.0;
  for (size_t f = 1; f < spectrum.size(); ++f) {
    total += std::norm(spectrum[f]);
  }
  if (total == 0.0) {
    return 1.0;
  }
  // Real signals have conjugate-symmetric spectra: coefficient f and n-f
  // carry the same energy, so coefficient f "captures" both.
  double captured = 0.0;
  const size_t n = spectrum.size();
  for (int f = 1; f <= num_coefficients && f < static_cast<int>(n); ++f) {
    captured += std::norm(spectrum[f]);
    const size_t mirror = n - static_cast<size_t>(f);
    if (mirror != static_cast<size_t>(f) && mirror > 0) {
      captured += std::norm(spectrum[mirror]);
    }
  }
  return std::min(1.0, captured / total);
}

}  // namespace simq
