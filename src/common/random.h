#ifndef PPN_COMMON_RANDOM_H_
#define PPN_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

/// \file
/// Deterministic, seedable random number generation. Every stochastic
/// component in the library (market generator, weight init, dropout, batch
/// sampling, exploration noise) draws from an explicitly passed `Rng`, so a
/// fixed seed reproduces an entire experiment bit-for-bit.

namespace ppn {

/// xoshiro256** PRNG with a SplitMix64 seeding stage. Small, fast and of
/// good statistical quality; not cryptographic.
class Rng {
 public:
  /// Seeds the generator. Two `Rng`s with the same seed produce identical
  /// streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Returns the next raw 64-bit output. Inline, so a loop over draws
  /// (dropout masks) keeps the state in registers.
  uint64_t NextUint64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Jumps ahead: afterwards the state is where `n` calls of `NextUint64`
  /// would leave it, in time logarithmic in n (the step is linear over
  /// GF(2), so a jump applies powers of its 256×256 bit matrix; the 64
  /// powers, 512 KB, are built once on the first nonzero call). The
  /// Box–Muller spare is untouched. Lets each thread of a parallel loop
  /// start at its own offset of one stream.
  void Discard(uint64_t n);

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  int64_t UniformInt(int64_t n);

  /// Standard normal via Box–Muller (cached spare value).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Gamma(shape, 1) via Marsaglia–Tsang; supports shape < 1.
  double Gamma(double shape);

  /// Exponential with the given rate (rate > 0).
  double Exponential(double rate);

  /// Bernoulli with probability p of returning true.
  bool Bernoulli(double p);

  /// Sample from Dirichlet(alpha, ..., alpha) of the given dimension;
  /// the result sums to 1.
  std::vector<double> Dirichlet(int dimension, double alpha);

  /// Fisher–Yates shuffle of indices [0, n).
  std::vector<int64_t> Permutation(int64_t n);

  /// Splits off an independently seeded child generator. Children derived
  /// with distinct tags have decorrelated streams.
  Rng Split(uint64_t tag);

  /// Complete generator state, exposed for checkpointing: the four
  /// xoshiro256** words plus the cached Box–Muller spare. Restoring it
  /// with `SetState` resumes the stream exactly where it was captured.
  struct State {
    uint64_t words[4] = {0, 0, 0, 0};
    double spare_normal = 0.0;
    bool has_spare_normal = false;
  };

  State GetState() const;
  void SetState(const State& state);

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace ppn

#endif  // PPN_COMMON_RANDOM_H_
