// The benchmark's own inputs and its independent correctness oracle.
//
// Nothing here includes or calls the simq library: the series generator,
// the transformations and the distances are plain loops over the raw
// values, written from the definitions in docs/QUERY_LANGUAGE.md and the
// paper (normal form, then the data-side transformation, then Euclidean
// distance to the normal form of the probe). The engine answers in the
// frequency domain through its index and filter; agreement between the
// two is the benchmark's correctness check.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// splitmix64: a tiny, fully specified generator, so the same seed gives
// the same inputs with any standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

using Series = std::vector<double>;

// Stock-like relation: sector-correlated random walks, the shape of the
// paper's stock data (20 sectors, a shared sector walk blended into each
// stock's own walk, whose steps are uniform in +-own_step; the smaller
// own_step, the closer stocks move with their sector). Deterministic in
// `seed`.
inline std::vector<Series> StockSeries(int count, int length, uint64_t seed,
                                       double own_step) {
  Rng rng(seed);
  const int sectors = 20;
  std::vector<Series> sector_walks(sectors, Series(length));
  for (Series& walk : sector_walks) {
    walk[0] = rng.Uniform(-2.0, 2.0);
    for (int t = 1; t < length; ++t) {
      walk[t] = walk[t - 1] + rng.Uniform(-1.0, 1.0);
    }
  }
  std::vector<Series> out(count, Series(length));
  for (int i = 0; i < count; ++i) {
    const Series& shared = sector_walks[i % sectors];
    Series& s = out[i];
    s[0] = rng.Uniform(10.0, 80.0);
    for (int t = 1; t < length; ++t) {
      s[t] = s[t - 1] + rng.Uniform(-own_step, own_step);
    }
    for (int t = 0; t < length; ++t) {
      s[t] += 0.55 * 4.0 * shared[t];
    }
  }
  return out;
}

// A noisy copy of `base`: each value moved by up to `amplitude` times the
// series' mean absolute step.
inline Series NoisyCopy(const Series& base, double amplitude, Rng* rng) {
  double step = 0.0;
  for (size_t t = 1; t < base.size(); ++t) {
    step += std::fabs(base[t] - base[t - 1]);
  }
  step /= static_cast<double>(base.size() - 1);
  Series out = base;
  for (double& v : out) {
    v += rng->Uniform(-amplitude, amplitude) * step;
  }
  return out;
}

// Goldin-Kanellakis normal form: zero mean, unit (population) deviation;
// a constant series maps to zeros.
inline Series NormalForm(const Series& x) {
  const double n = static_cast<double>(x.size());
  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= n;
  double var = 0.0;
  for (double v : x) var += (v - mean) * (v - mean);
  const double sd = std::sqrt(var / n);
  Series out(x.size(), 0.0);
  if (sd == 0.0) return out;
  for (size_t i = 0; i < x.size(); ++i) out[i] = (x[i] - mean) / sd;
  return out;
}

// One step of a transformation expression.
struct Step {
  enum Kind { kMavg, kReverse, kEwma, kWarp } kind;
  double arg = 0.0;
};

// A transformation expression `a|b|...`, applied left to right.
struct Transform {
  std::vector<Step> steps;

  std::string Text() const {
    std::string text;
    for (const Step& s : steps) {
      if (!text.empty()) text += "|";
      char buf[48];
      switch (s.kind) {
        case Step::kMavg:
          std::snprintf(buf, sizeof(buf), "mavg(%d)", static_cast<int>(s.arg));
          break;
        case Step::kReverse:
          std::snprintf(buf, sizeof(buf), "reverse");
          break;
        case Step::kEwma:
          std::snprintf(buf, sizeof(buf), "ewma(%g)", s.arg);
          break;
        case Step::kWarp:
          std::snprintf(buf, sizeof(buf), "warp(%d)", static_cast<int>(s.arg));
          break;
      }
      text += buf;
    }
    return text;
  }

  int OutputLength(int n) const {
    for (const Step& s : steps) {
      if (s.kind == Step::kWarp) n *= static_cast<int>(s.arg);
    }
    return n;
  }

  Series Apply(Series x) const {
    for (const Step& s : steps) x = ApplyStep(s, x);
    return x;
  }

 private:
  // Circular convolution with trailing weights: out_i = sum_t w_t x_{i-t}.
  static Series Circular(const Series& x, const std::vector<double>& w) {
    const size_t n = x.size();
    Series out(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      double sum = 0.0;
      for (size_t t = 0; t < w.size(); ++t) sum += w[t] * x[(i + n * (t / n + 1) - t) % n];
      out[i] = sum;
    }
    return out;
  }

  static Series ApplyStep(const Step& s, const Series& x) {
    switch (s.kind) {
      case Step::kMavg: {
        // w-day circular moving average.
        const int w = static_cast<int>(s.arg);
        return Circular(x, std::vector<double>(w, 1.0 / w));
      }
      case Step::kReverse: {
        // The opposite price movement of the paper's hedging example:
        // every value negated.
        Series out(x.size());
        for (size_t i = 0; i < x.size(); ++i) out[i] = -x[i];
        return out;
      }
      case Step::kEwma: {
        // Exponential smoothing: weights alpha (1-alpha)^t, the geometric
        // tail cut where it falls below 1e-12 alpha, normalised to sum 1.
        const double alpha = s.arg;
        std::vector<double> w;
        double total = 0.0;
        for (double v = alpha; v > 1e-12 * alpha && w.size() < 512; v *= 1.0 - alpha) {
          w.push_back(v);
          total += v;
        }
        for (double& v : w) v /= total;
        return Circular(x, w);
      }
      case Step::kWarp: {
        // m-fold time warp: every value repeated m times.
        const int m = static_cast<int>(s.arg);
        Series out;
        out.reserve(x.size() * m);
        for (double v : x) {
          for (int c = 0; c < m; ++c) out.push_back(v);
        }
        return out;
      }
    }
    return x;
  }
};

// Euclidean distance; returns +inf as soon as the partial sum passes
// `limit` (pass +inf for the full distance).
inline double Distance(const double* a, const double* b, size_t n, double limit) {
  const double limit_sq = limit * limit;
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
    if ((i & 15) == 15 && sum > limit_sq) return INFINITY;
  }
  return sum > limit_sq ? INFINITY : std::sqrt(sum);
}

// Relative tolerance at every distance comparison: the engine computes in
// the frequency domain, the oracle in the time domain.
constexpr double kTol = 1e-7;

inline bool SameDistance(double reported, double expected) {
  return std::fabs(reported - expected) <= kTol * std::max(1.0, expected);
}

struct Hit {
  int64_t id;
  double distance;
};

// Range/kNN answer check. `truth` holds the oracle distance of every row
// the answer may contain (the rows within the outer boundary, plus rows
// whose presence is undecided); `required` the rows that must be
// returned. `outer` is the largest distance an answer row may have.
// Returns an empty string when the answer agrees, else the first reason.
struct RowTruth {
  int64_t id;
  double distance;
  bool required;  // strictly inside the boundary and certainly present
};

inline std::string CheckRows(const std::vector<Hit>& answer,
                             std::vector<RowTruth> truth, double outer) {
  std::sort(truth.begin(), truth.end(),
            [](const RowTruth& a, const RowTruth& b) { return a.id < b.id; });
  std::vector<int64_t> seen;
  seen.reserve(answer.size());
  for (const Hit& h : answer) {
    const auto it = std::lower_bound(
        truth.begin(), truth.end(), h.id,
        [](const RowTruth& t, int64_t id) { return t.id < id; });
    if (it == truth.end() || it->id != h.id) {
      return "returned id " + std::to_string(h.id) + " is not a qualifying row";
    }
    if (!(it->distance <= outer * (1.0 + kTol))) {
      return "returned id " + std::to_string(h.id) + " lies outside the boundary";
    }
    if (!SameDistance(h.distance, it->distance)) {
      return "distance of id " + std::to_string(h.id) + " is " +
             std::to_string(h.distance) + ", oracle " + std::to_string(it->distance);
    }
    seen.push_back(h.id);
  }
  std::sort(seen.begin(), seen.end());
  if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
    return "answer repeats an id";
  }
  for (const RowTruth& t : truth) {
    if (t.required && !std::binary_search(seen.begin(), seen.end(), t.id)) {
      return "missing id " + std::to_string(t.id) + " at distance " +
             std::to_string(t.distance);
    }
  }
  return "";
}

// Range check over a fully known relation: `near` is every row the oracle
// found within eps (1 + tol).
inline std::string CheckRange(const std::vector<Hit>& answer,
                              const std::vector<Hit>& near, double eps) {
  std::vector<RowTruth> truth;
  for (const Hit& h : near) {
    truth.push_back({h.id, h.distance, h.distance < eps * (1.0 - kTol)});
  }
  return CheckRows(answer, std::move(truth), eps);
}

// kNN check: `nearest` is the oracle's rows sorted by distance, covering
// at least every row within the k-th distance (1 + tol).
inline std::string CheckNearest(const std::vector<Hit>& answer, int k,
                                const std::vector<Hit>& nearest) {
  const size_t want = std::min<size_t>(k, nearest.size());
  if (answer.size() != want) {
    return "answer has " + std::to_string(answer.size()) + " rows, want " +
           std::to_string(want);
  }
  if (want == 0) return "";
  const double kth = nearest[want - 1].distance;
  std::vector<RowTruth> truth;
  for (const Hit& h : nearest) {
    truth.push_back({h.id, h.distance, h.distance < kth * (1.0 - kTol)});
  }
  const std::string rows = CheckRows(answer, std::move(truth), kth);
  if (!rows.empty()) return rows;
  if (!SameDistance(answer.back().distance, kth)) {
    return "k-th distance " + std::to_string(answer.back().distance) +
           ", oracle " + std::to_string(kth);
  }
  return "";
}

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
