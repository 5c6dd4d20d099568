// Discrete Fourier transform with the unitary normalization of [RM97] §1.1:
//
//   X_f = (1/sqrt(n)) * sum_t x_t e^{-j 2 pi t f / n}
//   x_t = (1/sqrt(n)) * sum_f X_f e^{+j 2 pi t f / n}
//
// With this convention energy is preserved exactly (Parseval, Equation 7),
// so Euclidean distances are identical in the time and frequency domains
// (Equation 8) -- the foundation of the k-index filter (Lemma 1).
//
// Implementation: iterative radix-2 Cooley-Tukey for power-of-two lengths
// over a cached per-length plan (bit-reversal and twiddle tables, built once
// per process and shared by every thread), Bluestein's chirp-z algorithm for
// arbitrary lengths (so every experiment parameter is legal; its inner
// transforms use the same plans), a real-input path that runs a length-n/2
// complex FFT plus a split step, and a naive O(n^2) reference used by tests.

#ifndef SIMQ_TS_DFT_H_
#define SIMQ_TS_DFT_H_

#include <complex>
#include <cstddef>
#include <vector>

namespace simq {

using Complex = std::complex<double>;
using Spectrum = std::vector<Complex>;

bool IsPowerOfTwo(size_t n);

// Forward unitary DFT of the real signal x[0, n), written to out[0, 2n) as
// interleaved (re, im) pairs -- the layout of a FeatureStore spectrum row.
// For power-of-two n >= 2 this is a length-n/2 complex FFT of the even and
// odd samples plus a split step, with no allocation; the output is exactly
// conjugate-symmetric. Other lengths take the Bluestein path (n = 1 is the
// identity). `x` and `out` must not overlap.
void RealDft(const double* x, size_t n, double* out);

// Forward unitary DFT of a real or complex signal. The real overload is
// RealDft into the returned spectrum, so the two give identical bits.
Spectrum Dft(const std::vector<double>& x);
Spectrum Dft(const Spectrum& x);

// Inverse unitary DFT.
Spectrum InverseDft(const Spectrum& spectrum);

// Inverse unitary DFT of a spectrum known to come from a real signal;
// returns the real parts (imaginary parts are checked to be numerically 0
// in debug builds).
std::vector<double> InverseDftReal(const Spectrum& spectrum);

// O(n^2) direct evaluation of the unitary DFT; reference for tests.
Spectrum NaiveDft(const Spectrum& x);

// Circular convolution (Equation 4): out_i = sum_k a_k b_{(i-k) mod n}.
// Evaluated through the FFT (O(n log n), both real signals packed into one
// complex transform) above a small-size cutoff, directly below it.
std::vector<double> CircularConvolution(const std::vector<double>& a,
                                        const std::vector<double>& b);

// O(n^2) direct evaluation of the circular convolution; the reference
// oracle for the FFT path in tests.
std::vector<double> CircularConvolutionNaive(const std::vector<double>& a,
                                             const std::vector<double>& b);

// Fraction of total signal energy captured by spectrum coefficients
// 1..num_coefficients (coefficient 0 excluded, matching the normal-form
// index layout). Used by the energy-concentration ablation.
double LowFrequencyEnergyFraction(const Spectrum& spectrum,
                                  int num_coefficients);

}  // namespace simq

#endif  // SIMQ_TS_DFT_H_
