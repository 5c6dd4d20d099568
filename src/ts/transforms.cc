#include "ts/transforms.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/stats.h"

namespace simq {

NormalFormResult ToNormalForm(const std::vector<double>& series) {
  NormalFormResult result;
  result.values.resize(series.size());
  NormalFormInto(series.data(), series.size(), result.values.data(),
                 &result.mean, &result.std_dev);
  return result;
}

void NormalFormInto(const double* series, size_t n, double* out,
                    double* mean, double* std_dev) {
  // Mean and StdDev of util/stats, inlined over the raw pointer: the same
  // sums in the same order.
  double m = 0.0;
  double s = 0.0;
  if (n > 0) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += series[i];
    }
    m = sum / static_cast<double>(n);
    double sum_sq = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double d = series[i] - m;
      sum_sq += d * d;
    }
    s = std::sqrt(sum_sq / static_cast<double>(n));
  }
  *mean = m;
  *std_dev = s;
  if (s == 0.0) {
    // Constant series: the normal form is defined as the zero series.
    std::fill(out, out + n, 0.0);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    out[i] = (series[i] - m) / s;
  }
}

std::vector<double> CircularMovingAverage(const std::vector<double>& series,
                                          int window) {
  SIMQ_CHECK_GT(window, 0);
  SIMQ_CHECK_LE(static_cast<size_t>(window), series.size());
  const std::vector<double> weights(static_cast<size_t>(window),
                                    1.0 / static_cast<double>(window));
  return WeightedCircularMovingAverage(series, weights);
}

std::vector<double> WeightedCircularMovingAverage(
    const std::vector<double>& series, const std::vector<double>& weights) {
  SIMQ_CHECK(!weights.empty());
  SIMQ_CHECK_LE(weights.size(), series.size());
  const size_t n = series.size();
  std::vector<double> out(n, 0.0);
  // out_i = sum_t w_t * s_{(i - t) mod n}: a circular convolution where the
  // window trails behind position i and wraps past the beginning.
  for (size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (size_t t = 0; t < weights.size(); ++t) {
      sum += weights[t] * series[(i + n - t) % n];
    }
    out[i] = sum;
  }
  return out;
}

std::vector<double> ReverseSeries(const std::vector<double>& series) {
  std::vector<double> out(series.size());
  for (size_t i = 0; i < series.size(); ++i) {
    out[i] = -series[i];
  }
  return out;
}

std::vector<double> TimeWarpSeries(const std::vector<double>& series,
                                   int warp_factor) {
  SIMQ_CHECK_GT(warp_factor, 0);
  std::vector<double> out;
  out.reserve(series.size() * static_cast<size_t>(warp_factor));
  for (double value : series) {
    for (int copy = 0; copy < warp_factor; ++copy) {
      out.push_back(value);
    }
  }
  return out;
}

Spectrum IdentitySpectrum(int n) {
  SIMQ_CHECK_GT(n, 0);
  return Spectrum(static_cast<size_t>(n), Complex(1.0, 0.0));
}

Spectrum MovingAverageSpectrum(int n, int window) {
  SIMQ_CHECK_GT(window, 0);
  SIMQ_CHECK_LE(window, n);
  const std::vector<double> weights(static_cast<size_t>(window),
                                    1.0 / static_cast<double>(window));
  return WeightedMovingAverageSpectrum(n, weights);
}

Spectrum WeightedMovingAverageSpectrum(int n,
                                       const std::vector<double>& weights) {
  SIMQ_CHECK_GT(n, 0);
  SIMQ_CHECK_LE(weights.size(), static_cast<size_t>(n));
  Spectrum out(static_cast<size_t>(n));
  for (int f = 0; f < n; ++f) {
    Complex sum(0.0, 0.0);
    for (size_t t = 0; t < weights.size(); ++t) {
      const double phase = -2.0 * M_PI * static_cast<double>(t) *
                           static_cast<double>(f) / static_cast<double>(n);
      sum += weights[t] * Complex(std::cos(phase), std::sin(phase));
    }
    out[static_cast<size_t>(f)] = sum;
  }
  return out;
}

Spectrum ReverseSpectrum(int n) {
  SIMQ_CHECK_GT(n, 0);
  return Spectrum(static_cast<size_t>(n), Complex(-1.0, 0.0));
}

Spectrum TimeWarpSpectrum(int n, int warp_factor, int num_coefficients) {
  SIMQ_CHECK_GT(n, 0);
  SIMQ_CHECK_GT(warp_factor, 0);
  SIMQ_CHECK_GT(num_coefficients, 0);
  SIMQ_CHECK_LE(num_coefficients, n);
  Spectrum out(static_cast<size_t>(num_coefficients));
  const double mn = static_cast<double>(warp_factor) * static_cast<double>(n);
  const double scale = 1.0 / std::sqrt(static_cast<double>(warp_factor));
  for (int f = 0; f < num_coefficients; ++f) {
    Complex sum(0.0, 0.0);
    for (int t = 0; t < warp_factor; ++t) {
      const double phase =
          -2.0 * M_PI * static_cast<double>(t) * static_cast<double>(f) / mn;
      sum += Complex(std::cos(phase), std::sin(phase));
    }
    out[static_cast<size_t>(f)] = sum * scale;
  }
  return out;
}

}  // namespace simq
