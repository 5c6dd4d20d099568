#include "core/feature_store.h"

#include "util/logging.h"

namespace simq {
namespace {

// Pads a row length (in doubles) to a multiple of 8 (64 bytes) so rows
// start cache-line aligned.
int64_t PadStride(int64_t doubles) { return (doubles + 7) & ~int64_t{7}; }

}  // namespace

void FeatureStore::Append(const SeriesFeatures& features,
                          const std::vector<double>& normal_values) {
  SetRow(AddRows(1, features.length(),
                 static_cast<int>(normal_values.size())),
         features, normal_values);
}

int64_t FeatureStore::AddRows(int64_t rows, int spectrum_length,
                              int series_length) {
  if (count_ == 0) {
    spectrum_length_ = spectrum_length;
    series_length_ = series_length;
    spectrum_stride_ = PadStride(2 * static_cast<int64_t>(spectrum_length));
    normal_stride_ = PadStride(static_cast<int64_t>(series_length));
  } else {
    SIMQ_CHECK_EQ(spectrum_length, spectrum_length_);
    SIMQ_CHECK_EQ(series_length, series_length_);
  }
  const int64_t first = count_;
  count_ += rows;
  const size_t total = static_cast<size_t>(count_);
  spectra_.resize(total * static_cast<size_t>(spectrum_stride_), 0.0);
  normals_.resize(total * static_cast<size_t>(normal_stride_), 0.0);
  prefixes_.resize(4 * total, 0.0);
  means_.resize(total, 0.0);
  stds_.resize(total, 0.0);
  return first;
}

void FeatureStore::SetRow(int64_t row, const SeriesFeatures& features,
                          const std::vector<double>& normal_values) {
  const int n = features.length();
  SIMQ_CHECK_EQ(n, spectrum_length_);
  SIMQ_CHECK_EQ(static_cast<int>(normal_values.size()), series_length_);
  double* spectrum_row =
      spectra_.data() + static_cast<size_t>(row * spectrum_stride_);
  for (int f = 0; f < n; ++f) {
    const Complex& c = features.normal_spectrum[static_cast<size_t>(f)];
    spectrum_row[2 * f] = c.real();
    spectrum_row[2 * f + 1] = c.imag();
  }
  double* normal_row =
      normals_.data() + static_cast<size_t>(row * normal_stride_);
  for (int t = 0; t < series_length_; ++t) {
    normal_row[t] = normal_values[static_cast<size_t>(t)];
  }
  double* prefix = prefixes_.data() + static_cast<size_t>(4 * row);
  prefix[0] = spectrum_row[0];
  prefix[1] = n >= 1 ? spectrum_row[1] : 0.0;
  prefix[2] = n >= 2 ? spectrum_row[2] : 0.0;
  prefix[3] = n >= 2 ? spectrum_row[3] : 0.0;
  means_[static_cast<size_t>(row)] = features.mean;
  stds_[static_cast<size_t>(row)] = features.std_dev;
}

std::vector<double> InterleaveSpectrum(const Spectrum& spectrum) {
  std::vector<double> out(2 * spectrum.size());
  for (size_t f = 0; f < spectrum.size(); ++f) {
    out[2 * f] = spectrum[f].real();
    out[2 * f + 1] = spectrum[f].imag();
  }
  return out;
}

std::vector<Complex> RowCoefficients(const double* row, int n,
                                     int num_coefficients) {
  SIMQ_CHECK_GT(num_coefficients, 0);
  std::vector<Complex> coeffs(static_cast<size_t>(num_coefficients),
                              Complex(0.0, 0.0));
  for (int c = 0; c < num_coefficients && c + 1 < n; ++c) {
    coeffs[static_cast<size_t>(c)] = Complex(row[2 * (c + 1)],
                                             row[2 * (c + 1) + 1]);
  }
  return coeffs;
}

}  // namespace simq
