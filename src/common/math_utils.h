#ifndef PPN_COMMON_MATH_UTILS_H_
#define PPN_COMMON_MATH_UTILS_H_

#include <cstddef>
#include <vector>

/// \file
/// Small numeric helpers shared across the library: simplex geometry, dot
/// products, and descriptive statistics on `std::vector<double>` series.

namespace ppn {

/// Euclidean projection of `v` onto the probability simplex
/// {x : x_i >= 0, sum x_i = 1} (Duchi et al. 2008, O(n log n)).
std::vector<double> ProjectToSimplex(const std::vector<double>& v);

/// Returns true iff `v` has no negative entry (within `tolerance`) and its
/// entries sum to 1 within `tolerance`.
bool IsOnSimplex(const std::vector<double>& v, double tolerance = 1e-6);

/// Dot product. Requires equal sizes.
double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// Arithmetic mean. Requires a non-empty input.
double Mean(const std::vector<double>& v);

/// Population variance (divides by N). Requires a non-empty input.
double Variance(const std::vector<double>& v);

/// Population standard deviation.
double StdDev(const std::vector<double>& v);

/// Clamps x into [lo, hi].
double Clamp(double x, double lo, double hi);

/// Pearson correlation of two equally sized series; returns 0 when either
/// side has zero variance.
double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b);

}  // namespace ppn

#endif  // PPN_COMMON_MATH_UTILS_H_
