#include "ts/feature.h"

#include <cmath>

#include "ts/transforms.h"
#include "util/logging.h"

namespace simq {
namespace {

// The two coordinates of one coefficient in `space`.
void CoordsInto(const Complex& c, FeatureSpace space, double* out) {
  if (space == FeatureSpace::kRectangular) {
    out[0] = c.real();
    out[1] = c.imag();
  } else {
    out[0] = std::abs(c);
    out[1] = std::arg(c);  // in (-pi, pi]
  }
}

}  // namespace

int FeatureDimension(const FeatureConfig& config) {
  SIMQ_CHECK_GT(config.num_coefficients, 0);
  return 2 * config.num_coefficients + (config.include_mean_std ? 2 : 0);
}

std::vector<bool> AngleDimensions(const FeatureConfig& config) {
  std::vector<bool> angle(static_cast<size_t>(FeatureDimension(config)),
                          false);
  if (config.space == FeatureSpace::kPolar) {
    const int base = config.include_mean_std ? 2 : 0;
    for (int c = 0; c < config.num_coefficients; ++c) {
      angle[static_cast<size_t>(base + 2 * c + 1)] = true;
    }
  }
  return angle;
}

SeriesFeatures ComputeFeatures(const std::vector<double>& series) {
  SIMQ_CHECK(!series.empty());
  const NormalFormResult normal = ToNormalForm(series);
  SeriesFeatures features;
  features.mean = normal.mean;
  features.std_dev = normal.std_dev;
  features.normal_spectrum = Dft(normal.values);
  return features;
}

std::vector<Complex> ExtractCoefficients(const Spectrum& spectrum,
                                         int num_coefficients) {
  SIMQ_CHECK_GT(num_coefficients, 0);
  std::vector<Complex> coeffs(static_cast<size_t>(num_coefficients),
                              Complex(0.0, 0.0));
  for (int c = 0; c < num_coefficients; ++c) {
    const size_t f = static_cast<size_t>(c) + 1;  // skip coefficient 0
    if (f < spectrum.size()) {
      coeffs[static_cast<size_t>(c)] = spectrum[f];
    }
  }
  return coeffs;
}

std::vector<double> CoefficientsToCoords(const std::vector<Complex>& coeffs,
                                         FeatureSpace space) {
  std::vector<double> coords(2 * coeffs.size());
  for (size_t i = 0; i < coeffs.size(); ++i) {
    CoordsInto(coeffs[i], space, &coords[2 * i]);
  }
  return coords;
}

std::vector<double> MakeFeaturePoint(const SeriesFeatures& features,
                                     const FeatureConfig& config) {
  std::vector<double> point(static_cast<size_t>(FeatureDimension(config)));
  FeaturePointInto(features.mean, features.std_dev,
                   reinterpret_cast<const double*>(
                       features.normal_spectrum.data()),
                   features.length(), config, point.data());
  return point;
}

void FeaturePointInto(double mean, double std_dev, const double* spectrum,
                      int n, const FeatureConfig& config, double* out) {
  if (config.include_mean_std) {
    *out++ = mean;
    *out++ = std_dev;
  }
  // Coefficients X1..Xk (coefficient 0 skipped), zero past the spectrum.
  for (int c = 1; c <= config.num_coefficients; ++c) {
    const Complex x = c < n ? Complex(spectrum[2 * c], spectrum[2 * c + 1])
                            : Complex(0.0, 0.0);
    CoordsInto(x, config.space, out);
    out += 2;
  }
}

}  // namespace simq
