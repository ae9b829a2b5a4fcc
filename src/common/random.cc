#include "common/random.h"

#include <cmath>

#include "common/check.h"

namespace ppn {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

double Rng::Uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  PPN_CHECK_LE(lo, hi);
  return lo + (hi - lo) * Uniform();
}

int64_t Rng::UniformInt(int64_t n) {
  PPN_CHECK_GT(n, 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t un = static_cast<uint64_t>(n);
  const uint64_t limit = UINT64_MAX - UINT64_MAX % un;
  uint64_t v = NextUint64();
  while (v >= limit) v = NextUint64();
  return static_cast<int64_t>(v % un);
}

double Rng::Normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u1 = Uniform();
  while (u1 <= 1e-300) u1 = Uniform();
  const double u2 = Uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  spare_normal_ = radius * std::sin(angle);
  has_spare_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::Normal(double mean, double stddev) {
  PPN_CHECK_GE(stddev, 0.0);
  return mean + stddev * Normal();
}

double Rng::Gamma(double shape) {
  PPN_CHECK_GT(shape, 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia–Tsang trick).
    const double u = Uniform();
    return Gamma(shape + 1.0) * std::pow(u > 0 ? u : 1e-300, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    double x = Normal();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    const double u = Uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 1e-300 &&
        std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

double Rng::Exponential(double rate) {
  PPN_CHECK_GT(rate, 0.0);
  double u = Uniform();
  while (u <= 1e-300) u = Uniform();
  return -std::log(u) / rate;
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

std::vector<double> Rng::Dirichlet(int dimension, double alpha) {
  PPN_CHECK_GT(dimension, 0);
  PPN_CHECK_GT(alpha, 0.0);
  std::vector<double> sample(dimension);
  double total = 0.0;
  for (double& v : sample) {
    v = Gamma(alpha);
    total += v;
  }
  if (total <= 0.0) {
    // Degenerate draw (possible for tiny alpha): fall back to uniform.
    for (double& v : sample) v = 1.0 / dimension;
    return sample;
  }
  for (double& v : sample) v /= total;
  return sample;
}

std::vector<int64_t> Rng::Permutation(int64_t n) {
  PPN_CHECK_GE(n, 0);
  std::vector<int64_t> perm(n);
  for (int64_t i = 0; i < n; ++i) perm[i] = i;
  for (int64_t i = n - 1; i > 0; --i) {
    const int64_t j = UniformInt(i + 1);
    std::swap(perm[i], perm[j]);
  }
  return perm;
}

Rng::State Rng::GetState() const {
  State state;
  for (int i = 0; i < 4; ++i) state.words[i] = state_[i];
  state.spare_normal = spare_normal_;
  state.has_spare_normal = has_spare_normal_;
  return state;
}

void Rng::SetState(const State& state) {
  for (int i = 0; i < 4; ++i) state_[i] = state.words[i];
  spare_normal_ = state.spare_normal;
  has_spare_normal_ = state.has_spare_normal;
}

Rng Rng::Split(uint64_t tag) {
  const uint64_t child_seed = NextUint64() ^ (tag * 0x9E3779B97F4A7C15ULL);
  return Rng(child_seed);
}

}  // namespace ppn
