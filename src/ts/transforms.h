// Time-domain transformations of [RM97] §§1-3 and their frequency-domain
// (spectral multiplier) forms.
//
// Every transformation here can be written as T = (a, 0): element-wise
// multiplication of the DFT coefficients by a complex vector a
// (Convolution-Multiplication, Equation 6). The spectral constructors below
// return exactly the multiplier that makes the frequency-domain application
// equal to the time-domain definition under the unitary DFT convention --
// including the sqrt(n) and sqrt(m) factors that the paper's algebra drops
// (see DESIGN.md, "Normalization corrections"). Tests verify the
// equivalences numerically.

#ifndef SIMQ_TS_TRANSFORMS_H_
#define SIMQ_TS_TRANSFORMS_H_

#include <vector>

#include "ts/dft.h"

namespace simq {

// ---------------------------------------------------------------------------
// Normal form (Goldin-Kanellakis [GK95], Equation 9 of [RM97]).
// ---------------------------------------------------------------------------

struct NormalFormResult {
  std::vector<double> values;  // (s - mean) / std, or all zeros if std == 0
  double mean = 0.0;
  double std_dev = 0.0;  // population standard deviation
};

// Shifts the mean to zero and scales by the inverse standard deviation.
// A constant series (std == 0) normalizes to the all-zero series.
NormalFormResult ToNormalForm(const std::vector<double>& series);

// ToNormalForm of series[0, n) written to out[0, n) (which must not overlap
// the input), with the statistics returned through `mean` and `std_dev`:
// the same arithmetic, so the same bits, without allocating.
void NormalFormInto(const double* series, size_t n, double* out,
                    double* mean, double* std_dev);

// ---------------------------------------------------------------------------
// Time-domain transformations.
// ---------------------------------------------------------------------------

// l-day circular moving average: out_i = mean(s_{i-l+1 mod n} .. s_i).
// This is the paper's variant that circulates the window past the beginning
// of the sequence, producing an output of the same length n. Equal to
// CircularConvolution(s, m_l) with m_l = (1/l, ..., 1/l, 0, ..., 0).
std::vector<double> CircularMovingAverage(const std::vector<double>& series,
                                          int window);

// Generalized form with caller-supplied window weights (e.g. higher weights
// at the end for trend prediction, Equation 11's discussion).
// weights.size() <= series.size(); weights need not sum to 1.
std::vector<double> WeightedCircularMovingAverage(
    const std::vector<double>& series, const std::vector<double>& weights);

// Reversal of price movements (Example 2.2): every value multiplied by -1.
std::vector<double> ReverseSeries(const std::vector<double>& series);

// Time warping (Example 1.2, Appendix A): stretch the time dimension by m,
// replacing every value v by m consecutive copies of v. Output length m*n.
std::vector<double> TimeWarpSeries(const std::vector<double>& series,
                                   int warp_factor);

// ---------------------------------------------------------------------------
// Spectral multipliers: a such that DFT(T(x)) = a * DFT(x) element-wise.
// ---------------------------------------------------------------------------

// Identity: vector of 1s of length n.
Spectrum IdentitySpectrum(int n);

// Multiplier for the l-day circular moving average of length-n series:
//   a_f = sum_{t=0}^{l-1} (1/l) e^{-j 2 pi t f / n}
// (the *unnormalized* DFT of the window weights; with the unitary transform
// DFT(circconv(x,w)) = sqrt(n) X*W = X * a).
Spectrum MovingAverageSpectrum(int n, int window);

// Weighted generalization of the above.
Spectrum WeightedMovingAverageSpectrum(int n,
                                       const std::vector<double>& weights);

// Multiplier for series reversal: all entries -1 (Linearity, Equation 5).
Spectrum ReverseSpectrum(int n);

// Multiplier connecting the first num_coefficients unitary DFT coefficients
// of a length-n series to those of its m-fold time-warped, length m*n
// version (Appendix A, with the corrected 1/sqrt(m) normalization):
//   a_f = (1/sqrt(m)) sum_{t=0}^{m-1} e^{-j 2 pi t f / (m n)}
// so that DFT_{mn}(warp_m(x))_f = a_f * DFT_n(x)_f for f < num_coefficients.
Spectrum TimeWarpSpectrum(int n, int warp_factor, int num_coefficients);

}  // namespace simq

#endif  // SIMQ_TS_TRANSFORMS_H_
