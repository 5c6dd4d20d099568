// Mapping from time series to points in a low-dimensional feature space.
//
// Following [RM97] §3.1/§5, a series is represented by its Goldin-Kanellakis
// normal form: the mean and standard deviation are kept as two separate
// index dimensions, and the first few DFT coefficients of the normal form
// (coefficient 0 is identically zero for a normal form and is dropped) are
// mapped to pairs of real dimensions -- either (Re, Im) in the rectangular
// space S_rect or (magnitude, phase angle) in the polar space S_pol.
//
// With the paper's default of 2 coefficients and mean/std included this is
// the 6-dimensional index layout of §5:
//   (mean, std, |X1|, arg X1, |X2|, arg X2).

#ifndef SIMQ_TS_FEATURE_H_
#define SIMQ_TS_FEATURE_H_

#include <vector>

#include "ts/dft.h"
#include "ts/transforms.h"

namespace simq {

// Representation of complex feature coordinates (see Theorems 2 and 3 of
// [RM97] for which transformations are safe in which space).
enum class FeatureSpace {
  kRectangular,  // (Re, Im) pairs; safe for real stretches a, complex shifts b
  kPolar,        // (magnitude, angle) pairs; safe for complex stretches, b=0
};

struct FeatureConfig {
  // Number of DFT coefficients X1..Xk of the normal form kept in the index
  // (the "cut-off point" k of the k-index).
  int num_coefficients = 2;
  FeatureSpace space = FeatureSpace::kPolar;
  // Store the original series' mean and standard deviation as the first two
  // index dimensions, enabling [GK95]-style shift/scale predicates.
  bool include_mean_std = true;
};

// Total number of real index dimensions for a configuration.
int FeatureDimension(const FeatureConfig& config);

// dims()[d] is true iff dimension d holds a phase angle (polar space only);
// angle dimensions use circular-interval geometry.
std::vector<bool> AngleDimensions(const FeatureConfig& config);

// Everything the database stores per series to answer similarity queries:
// normal-form statistics plus the full normal-form spectrum (used for exact
// postprocessing distances; the index keeps only the first k coefficients).
struct SeriesFeatures {
  double mean = 0.0;
  double std_dev = 0.0;
  Spectrum normal_spectrum;  // unitary DFT of the normal form, full length

  int length() const { return static_cast<int>(normal_spectrum.size()); }
};

SeriesFeatures ComputeFeatures(const std::vector<double>& series);

// First num_coefficients coefficients X1..Xk (coefficient 0 skipped).
// If the spectrum is shorter, missing entries are zero.
std::vector<Complex> ExtractCoefficients(const Spectrum& spectrum,
                                         int num_coefficients);

// Lays out complex coefficients as 2k real coordinates per `space`.
std::vector<double> CoefficientsToCoords(const std::vector<Complex>& coeffs,
                                         FeatureSpace space);

// Full index point for a series under `config` (mean/std prefix if enabled).
std::vector<double> MakeFeaturePoint(const SeriesFeatures& features,
                                     const FeatureConfig& config);

// MakeFeaturePoint from a spectrum held as n interleaved (re, im) pairs --
// a FeatureStore row -- written to out[0, FeatureDimension(config)): the
// same values bit for bit, with no Spectrum or point vector built.
void FeaturePointInto(double mean, double std_dev, const double* spectrum,
                      int n, const FeatureConfig& config, double* out);

}  // namespace simq

#endif  // SIMQ_TS_FEATURE_H_
