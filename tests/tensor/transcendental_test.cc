#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "for_each_path.h"
#include "tensor/dispatch.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

// Accuracy and cross-path identity of the kernel table's transcendental
// forwards (vec::UnaryOp kExpFwd, kLogFwd, kTanhFwd, kSigmoidFwd): max
// error in ULP against a double reference over a dense sweep of float bit
// patterns and the special values, exact special cases, gradual underflow,
// and bit-for-bit agreement of the scalar and AVX2 tables.

namespace ppn {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

struct OpSpec {
  vec::UnaryOp op;
  const char* name;
  double (*reference)(double);
  double max_ulp;  // Bound on normal results.
};

double RefExp(double x) { return std::exp(x); }
double RefLog(double x) { return std::log(x); }
double RefTanh(double x) { return std::tanh(x); }
double RefSigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

const OpSpec kOps[] = {
    {vec::UnaryOp::kExpFwd, "exp", RefExp, 1.0},
    {vec::UnaryOp::kLogFwd, "log", RefLog, 1.0},
    {vec::UnaryOp::kTanhFwd, "tanh", RefTanh, 1.5},
    {vec::UnaryOp::kSigmoidFwd, "sigmoid", RefSigmoid, 2.5},
};

uint32_t Bits(float x) { return std::bit_cast<uint32_t>(x); }

// One ULP of the float binade `ref` lies in; 2^-149 below FLT_MIN.
double UlpOf(double ref) {
  const double magnitude = std::fabs(ref);
  if (magnitude < FLT_MIN) return std::ldexp(1.0, -149);
  int exponent = 0;
  std::frexp(magnitude, &exponent);  // magnitude in [2^(e-1), 2^e).
  return std::ldexp(1.0, exponent - 24);
}

struct Accuracy {
  double max_ulp = 0.0;
  float worst_input = 0.0f;
  int64_t violations = 0;
};

// Checks `got` = op(x) against the double reference and the special-value
// rules; returns a description of the violation, or nullptr.
const char* Violation(const OpSpec& spec, float x, float got,
                      Accuracy* accuracy) {
  const double ref = spec.reference(static_cast<double>(x));
  if (std::isnan(ref)) return std::isnan(got) ? nullptr : "want NaN";
  const float rounded = static_cast<float>(ref);
  if (std::isinf(rounded)) {
    return Bits(got) == Bits(rounded) ? nullptr : "want the infinity";
  }
  if (!std::isfinite(got)) return "non-finite result";
  const double error = std::fabs(static_cast<double>(got) - ref);
  if (std::fabs(rounded) < FLT_MIN) {
    // Denormal (or zero) result: gradual underflow within 1 ULP of
    // 2^-149, never a flush to zero.
    return error <= std::ldexp(1.0, -149) ? nullptr
                                          : "denormal result off by > 2^-149";
  }
  const double ulp = error / UlpOf(ref);
  if (ulp > accuracy->max_ulp) {
    accuracy->max_ulp = ulp;
    accuracy->worst_input = x;
  }
  return ulp <= spec.max_ulp ? nullptr : "ULP error above bound";
}

// Runs `op` over `inputs` under every path, expects the paths to agree
// bit for bit, and checks each path's results against the reference.
void CheckAllPaths(const OpSpec& spec, const std::vector<float>& inputs,
                   Accuracy* accuracy) {
  const int64_t n = static_cast<int64_t>(inputs.size());
  Tensor in = Tensor::Uninitialized({n});
  std::copy(inputs.begin(), inputs.end(), in.MutableData());
  std::vector<uint32_t> first_bits;
  ForEachPath([&](const char* path) {
    const Tensor out = EltwiseUnary(spec.op, in);
    std::vector<uint32_t> bits(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      const float x = inputs[i];
      const float got = out.Data()[i];
      bits[i] = Bits(got);
      const char* problem = Violation(spec, x, got, accuracy);
      if (problem != nullptr && ++accuracy->violations <= 10) {
        ADD_FAILURE() << spec.name << " (" << path << ") x=" << x << " [0x"
                      << std::hex << Bits(x) << std::dec << "] got " << got
                      << ": " << problem;
      }
    }
    if (first_bits.empty()) {
      first_bits = std::move(bits);
      return;
    }
    for (int64_t i = 0; i < n; ++i) {
      if (bits[i] != first_bits[i] && ++accuracy->violations <= 10) {
        ADD_FAILURE() << spec.name << ": " << path
                      << " differs from scalar at x=" << inputs[i] << " (0x"
                      << std::hex << bits[i] << " vs 0x" << first_bits[i]
                      << ")";
      }
    }
  });
}

// Zeros, infinities, NaN, denormals, the smallest denormal and normal,
// the exp overflow/underflow edges, and tanh's branch point.
std::vector<float> SpecialInputs() {
  std::vector<float> values = {
      0.0f,      -0.0f,       kInf,         -kInf,        kNaN,
      -kNaN,     1e-40f,      -1e-40f,      FLT_TRUE_MIN, -FLT_TRUE_MIN,
      FLT_MIN,   -FLT_MIN,    FLT_MAX,      -FLT_MAX,     1.0f,
      -1.0f,     0.5f,        2.0f,         88.72f,       88.73f,
      -87.34f,   -103.97f,    -103.98f,     -104.5f,      0.625f,
      -0.625f,   0.62499997f, -0.62499997f, 1e-3f,        -1e-3f,
      20.0f,     -20.0f,      -100.0f,      120.0f,       -120.0f};
  return values;
}

TEST(TranscendentalTest, DenseSweepWithinUlpBoundsAndIdenticalAcrossPaths) {
  // Every 97th float bit pattern with |x| <= 120 (about 23M inputs), in
  // chunks whose length leaves a vector tail.
  constexpr uint32_t kMaxMagnitude = 0x42F00000u;  // 120.0f
  constexpr uint64_t kStride = 97;
  constexpr size_t kChunk = (1 << 16) + 5;
  for (const OpSpec& spec : kOps) {
    Accuracy accuracy;
    std::vector<float> chunk;
    chunk.reserve(kChunk);
    int64_t total = 0;
    for (uint64_t bits = 0; bits <= 0xFFFFFFFFull; bits += kStride) {
      const uint32_t pattern = static_cast<uint32_t>(bits);
      if ((pattern & 0x7FFFFFFFu) > kMaxMagnitude) continue;
      chunk.push_back(std::bit_cast<float>(pattern));
      if (chunk.size() == kChunk) {
        CheckAllPaths(spec, chunk, &accuracy);
        total += static_cast<int64_t>(chunk.size());
        chunk.clear();
      }
    }
    CheckAllPaths(spec, chunk, &accuracy);
    total += static_cast<int64_t>(chunk.size());
    CheckAllPaths(spec, SpecialInputs(), &accuracy);
    EXPECT_GT(total, 20000000);
    EXPECT_EQ(accuracy.violations, 0) << spec.name;
    std::printf("[ ulp      ] %-7s max %.3f ULP at x=%.9g over %lld inputs\n",
                spec.name, accuracy.max_ulp, accuracy.worst_input,
                static_cast<long long>(total));
  }
}

TEST(TranscendentalTest, SpecialValuesAreExact) {
  struct Case {
    vec::UnaryOp op;
    float x;
    float want;  // Compared bit for bit unless NaN.
  };
  const Case cases[] = {
      {vec::UnaryOp::kExpFwd, kInf, kInf},
      {vec::UnaryOp::kExpFwd, -kInf, 0.0f},
      {vec::UnaryOp::kExpFwd, 0.0f, 1.0f},
      {vec::UnaryOp::kExpFwd, -0.0f, 1.0f},
      {vec::UnaryOp::kExpFwd, 88.73f, kInf},
      {vec::UnaryOp::kExpFwd, -104.0f, 0.0f},
      {vec::UnaryOp::kExpFwd, kNaN, kNaN},
      {vec::UnaryOp::kLogFwd, 0.0f, -kInf},
      {vec::UnaryOp::kLogFwd, -0.0f, -kInf},
      {vec::UnaryOp::kLogFwd, 1.0f, 0.0f},
      {vec::UnaryOp::kLogFwd, kInf, kInf},
      {vec::UnaryOp::kLogFwd, -1.0f, kNaN},
      {vec::UnaryOp::kLogFwd, -FLT_TRUE_MIN, kNaN},
      {vec::UnaryOp::kLogFwd, -kInf, kNaN},
      {vec::UnaryOp::kLogFwd, kNaN, kNaN},
      {vec::UnaryOp::kTanhFwd, 0.0f, 0.0f},
      {vec::UnaryOp::kTanhFwd, -0.0f, -0.0f},
      {vec::UnaryOp::kTanhFwd, 1e-40f, 1e-40f},
      {vec::UnaryOp::kTanhFwd, -1e-40f, -1e-40f},
      {vec::UnaryOp::kTanhFwd, kInf, 1.0f},
      {vec::UnaryOp::kTanhFwd, -kInf, -1.0f},
      {vec::UnaryOp::kTanhFwd, kNaN, kNaN},
      {vec::UnaryOp::kSigmoidFwd, 0.0f, 0.5f},
      {vec::UnaryOp::kSigmoidFwd, -0.0f, 0.5f},
      {vec::UnaryOp::kSigmoidFwd, kInf, 1.0f},
      {vec::UnaryOp::kSigmoidFwd, -kInf, 0.0f},
      {vec::UnaryOp::kSigmoidFwd, kNaN, kNaN},
  };
  ForEachPath([&](const char* path) {
    for (const Case& c : cases) {
      const Tensor out = EltwiseUnary(c.op, Tensor({1}, {c.x}));
      const float got = out.Data()[0];
      if (std::isnan(c.want)) {
        EXPECT_TRUE(std::isnan(got))
            << path << " op " << static_cast<int>(c.op) << " x=" << c.x;
      } else {
        EXPECT_EQ(Bits(got), Bits(c.want))
            << path << " op " << static_cast<int>(c.op) << " x=" << c.x
            << " got " << got << " want " << c.want;
      }
    }
  });
}

TEST(TranscendentalTest, TinyResultsUnderflowGradually) {
  // Between ln(FLT_MIN) and ln(2^-150), e^x is a denormal. A kernel that
  // flushes it to zero is off by up to 2^-126.
  ForEachPath([](const char* path) {
    for (const float x : {-87.5f, -90.0f, -95.0f, -100.0f, -103.0f}) {
      const float exp_x =
          EltwiseUnary(vec::UnaryOp::kExpFwd, Tensor({1}, {x})).Data()[0];
      const float sigmoid_x =
          EltwiseUnary(vec::UnaryOp::kSigmoidFwd, Tensor({1}, {x})).Data()[0];
      EXPECT_GT(exp_x, 0.0f) << path << " x=" << x;
      EXPECT_LT(exp_x, FLT_MIN) << path << " x=" << x;
      EXPECT_LE(std::fabs(exp_x - std::exp(static_cast<double>(x))),
                std::ldexp(1.0, -149))
          << path << " x=" << x;
      EXPECT_GT(sigmoid_x, 0.0f) << path << " x=" << x;
    }
    // e^-103.97 rounds up to the smallest denormal.
    EXPECT_EQ(EltwiseUnary(vec::UnaryOp::kExpFwd, Tensor({1}, {-103.97f}))
                  .Data()[0],
              FLT_TRUE_MIN)
        << path;
  });
}

TEST(TranscendentalTest, TailLengthsIdenticalAcrossPaths) {
  // Each tail length runs the masked partial step on its own (1, 7) or
  // after full vectors (9, 17), starting at every offset of the specials.
  const std::vector<float> specials = SpecialInputs();
  for (const OpSpec& spec : kOps) {
    Accuracy accuracy;
    for (const size_t length : {1u, 7u, 9u, 17u}) {
      for (size_t offset = 0; offset < specials.size(); ++offset) {
        std::vector<float> inputs(length);
        for (size_t i = 0; i < length; ++i) {
          inputs[i] = specials[(offset + i) % specials.size()];
        }
        CheckAllPaths(spec, inputs, &accuracy);
      }
    }
    EXPECT_EQ(accuracy.violations, 0) << spec.name;
  }
}

}  // namespace
}  // namespace ppn
