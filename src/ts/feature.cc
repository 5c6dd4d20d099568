#include "ts/feature.h"

#include <cmath>

#include "ts/transforms.h"
#include "util/logging.h"

namespace simq {

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
  return FeaturesOfNormalForm(ToNormalForm(series));
}

SeriesFeatures FeaturesOfNormalForm(const NormalFormResult& normal) {
  SIMQ_CHECK(!normal.values.empty());
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
  std::vector<double> coords;
  coords.reserve(2 * coeffs.size());
  for (const Complex& c : coeffs) {
    if (space == FeatureSpace::kRectangular) {
      coords.push_back(c.real());
      coords.push_back(c.imag());
    } else {
      coords.push_back(std::abs(c));
      coords.push_back(std::arg(c));  // in (-pi, pi]
    }
  }
  return coords;
}

std::vector<double> MakeFeaturePoint(const SeriesFeatures& features,
                                     const FeatureConfig& config) {
  std::vector<double> point;
  point.reserve(static_cast<size_t>(FeatureDimension(config)));
  if (config.include_mean_std) {
    point.push_back(features.mean);
    point.push_back(features.std_dev);
  }
  const std::vector<Complex> coeffs =
      ExtractCoefficients(features.normal_spectrum, config.num_coefficients);
  const std::vector<double> coords = CoefficientsToCoords(coeffs, config.space);
  point.insert(point.end(), coords.begin(), coords.end());
  return point;
}

}  // namespace simq
