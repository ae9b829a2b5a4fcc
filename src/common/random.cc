#include "common/random.h"

#include <bit>
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

// xoshiro256's state update uses only shifts, rotations and XORs, so it is
// linear over GF(2): with the state as a 256-bit vector (bit 64·w + b is
// bit b of word w), one step maps s to T·s. A bit matrix is kept by
// columns, column j being the image of unit vector j.
struct BitMatrix {
  uint64_t col[256][4];
};

// M·v: the XOR of the columns at v's set bits.
void Apply(const BitMatrix& m, uint64_t v[4]) {
  uint64_t r[4] = {0, 0, 0, 0};
  for (int w = 0; w < 4; ++w) {
    for (uint64_t bits = v[w]; bits != 0; bits &= bits - 1) {
      const uint64_t* c = m.col[64 * w + std::countr_zero(bits)];
      for (int k = 0; k < 4; ++k) r[k] ^= c[k];
    }
  }
  for (int k = 0; k < 4; ++k) v[k] = r[k];
}

// M·M. Every column is M applied to a column of M, through a table of M
// applied to each 4-bit group: 64 lookups per column instead of ~128 XORs.
void Square(const BitMatrix& m, BitMatrix* out) {
  std::vector<uint64_t> table(64 * 16 * 4);
  for (int q = 0; q < 64; ++q) {
    uint64_t* group = table.data() + q * 16 * 4;
    for (int x = 1; x < 16; ++x) {
      const uint64_t* rest = group + (x & (x - 1)) * 4;
      const uint64_t* c = m.col[4 * q + std::countr_zero(unsigned(x))];
      for (int k = 0; k < 4; ++k) group[x * 4 + k] = rest[k] ^ c[k];
    }
  }
  for (int j = 0; j < 256; ++j) {
    uint64_t r[4] = {0, 0, 0, 0};
    for (int q = 0; q < 64; ++q) {
      const uint64_t x = (m.col[j][q / 16] >> (4 * (q % 16))) & 15;
      const uint64_t* entry = table.data() + (q * 16 + x) * 4;
      for (int k = 0; k < 4; ++k) r[k] ^= entry[k];
    }
    for (int k = 0; k < 4; ++k) out->col[j][k] = r[k];
  }
}

// T^(2^i) for i = 0..63, built on first use (thread-safe static).
const std::vector<BitMatrix>& StepPowers() {
  static const std::vector<BitMatrix> powers = [] {
    std::vector<BitMatrix> p(64);
    for (int j = 0; j < 256; ++j) {
      Rng::State unit;
      unit.words[j / 64] = uint64_t{1} << (j % 64);
      Rng rng;
      rng.SetState(unit);
      rng.NextUint64();
      const Rng::State image = rng.GetState();
      for (int k = 0; k < 4; ++k) p[0].col[j][k] = image.words[k];
    }
    for (int i = 1; i < 64; ++i) Square(p[i - 1], &p[i]);
    return p;
  }();
  return powers;
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

void Rng::Discard(uint64_t n) {
  if (n == 0) return;
  const std::vector<BitMatrix>& powers = StepPowers();
  for (uint64_t bits = n; bits != 0; bits &= bits - 1) {
    Apply(powers[std::countr_zero(bits)], state_);
  }
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
