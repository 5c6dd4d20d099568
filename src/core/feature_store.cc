#include "core/feature_store.h"

#include <algorithm>

#include "ts/transforms.h"
#include "util/logging.h"

namespace simq {
namespace {

// Pads a row length (in doubles) to a multiple of 8 (64 bytes) so rows
// start cache-line aligned.
int64_t PadStride(int64_t doubles) { return (doubles + 7) & ~int64_t{7}; }

}  // namespace

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
  spectra_.resize(total * static_cast<size_t>(spectrum_stride_));
  normals_.resize(total * static_cast<size_t>(normal_stride_));
  prefixes_.resize(4 * total);
  means_.resize(total);
  stds_.resize(total);
  return first;
}

void FeatureStore::Append(const SeriesFeatures& features,
                          const std::vector<double>& normal_values) {
  const int n = features.length();
  const int64_t row =
      AddRows(1, n, static_cast<int>(normal_values.size()));
  double* spectrum_row =
      spectra_.data() + static_cast<size_t>(row * spectrum_stride_);
  for (int f = 0; f < n; ++f) {
    const Complex& c = features.normal_spectrum[static_cast<size_t>(f)];
    spectrum_row[2 * f] = c.real();
    spectrum_row[2 * f + 1] = c.imag();
  }
  std::fill(spectrum_row + 2 * n, spectrum_row + spectrum_stride_, 0.0);
  double* normal_row =
      normals_.data() + static_cast<size_t>(row * normal_stride_);
  std::copy(normal_values.begin(), normal_values.end(), normal_row);
  std::fill(normal_row + series_length_, normal_row + normal_stride_, 0.0);
  FinishRow(row, features.mean, features.std_dev);
}

void FeatureStore::DeriveRow(int64_t row, const double* raw) {
  SIMQ_CHECK_EQ(spectrum_length_, series_length_);
  const int n = series_length_;
  double* normal_row =
      normals_.data() + static_cast<size_t>(row * normal_stride_);
  double mean = 0.0;
  double std_dev = 0.0;
  NormalFormInto(raw, static_cast<size_t>(n), normal_row, &mean, &std_dev);
  std::fill(normal_row + n, normal_row + normal_stride_, 0.0);
  double* spectrum_row =
      spectra_.data() + static_cast<size_t>(row * spectrum_stride_);
  RealDft(normal_row, static_cast<size_t>(n), spectrum_row);
  std::fill(spectrum_row + 2 * n, spectrum_row + spectrum_stride_, 0.0);
  FinishRow(row, mean, std_dev);
}

void FeatureStore::FinishRow(int64_t row, double mean, double std_dev) {
  const int n = spectrum_length_;
  const double* spectrum_row =
      spectra_.data() + static_cast<size_t>(row * spectrum_stride_);
  double* prefix = prefixes_.data() + static_cast<size_t>(4 * row);
  prefix[0] = spectrum_row[0];
  prefix[1] = n >= 1 ? spectrum_row[1] : 0.0;
  prefix[2] = n >= 2 ? spectrum_row[2] : 0.0;
  prefix[3] = n >= 2 ? spectrum_row[3] : 0.0;
  means_[static_cast<size_t>(row)] = mean;
  stds_[static_cast<size_t>(row)] = std_dev;
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
