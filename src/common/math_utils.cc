#include "common/math_utils.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace ppn {

std::vector<double> ProjectToSimplex(const std::vector<double>& v) {
  PPN_CHECK(!v.empty());
  const size_t n = v.size();
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  double cumulative = 0.0;
  double theta = 0.0;
  int rho = 0;
  for (size_t i = 0; i < n; ++i) {
    cumulative += sorted[i];
    const double candidate = (cumulative - 1.0) / static_cast<double>(i + 1);
    if (sorted[i] - candidate > 0.0) {
      rho = static_cast<int>(i + 1);
      theta = candidate;
    }
  }
  PPN_CHECK_GT(rho, 0);
  std::vector<double> projection(n);
  for (size_t i = 0; i < n; ++i) {
    projection[i] = std::max(v[i] - theta, 0.0);
  }
  return projection;
}

bool IsOnSimplex(const std::vector<double>& v, double tolerance) {
  double total = 0.0;
  for (const double x : v) {
    if (x < -tolerance) return false;
    total += x;
  }
  return std::fabs(total - 1.0) <= tolerance;
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  PPN_CHECK_EQ(a.size(), b.size());
  double total = 0.0;
  for (size_t i = 0; i < a.size(); ++i) total += a[i] * b[i];
  return total;
}

double Mean(const std::vector<double>& v) {
  PPN_CHECK(!v.empty());
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double Variance(const std::vector<double>& v) {
  const double mean = Mean(v);
  double total = 0.0;
  for (const double x : v) total += (x - mean) * (x - mean);
  return total / static_cast<double>(v.size());
}

double StdDev(const std::vector<double>& v) { return std::sqrt(Variance(v)); }

double Clamp(double x, double lo, double hi) {
  PPN_CHECK_LE(lo, hi);
  return std::min(std::max(x, lo), hi);
}

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  PPN_CHECK_EQ(a.size(), b.size());
  PPN_CHECK(!a.empty());
  const double mean_a = Mean(a);
  const double mean_b = Mean(b);
  double cov = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - mean_a;
    const double db = b[i] - mean_b;
    cov += da * db;
    var_a += da * da;
    var_b += db * db;
  }
  if (var_a <= 0.0 || var_b <= 0.0) return 0.0;
  return cov / std::sqrt(var_a * var_b);
}

}  // namespace ppn
