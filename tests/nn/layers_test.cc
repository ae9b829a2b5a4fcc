#include <bit>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <gtest/gtest.h>

#include "ckpt/binio.h"
#include "market/generator.h"
#include "nn/conv.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/module.h"
#include "obs/stats.h"
#include "ppn/policy_module.h"
#include "ppn/trainer.h"
#include "tensor/dispatch.h"

namespace ppn::nn {
namespace {

TEST(InitTest, XavierBounds) {
  Rng rng(1);
  Tensor w = XavierUniform({100, 50}, 100, 50, &rng);
  const float bound = std::sqrt(6.0f / 150.0f);
  for (int64_t i = 0; i < w.numel(); ++i) {
    EXPECT_LE(std::fabs(w[i]), bound);
  }
}

TEST(InitTest, KaimingBounds) {
  Rng rng(1);
  Tensor w = KaimingUniform({64, 32}, 32, &rng);
  const float bound = std::sqrt(6.0f / 32.0f);
  for (int64_t i = 0; i < w.numel(); ++i) {
    EXPECT_LE(std::fabs(w[i]), bound);
  }
}

TEST(LinearTest, KnownAffineMap) {
  Rng rng(1);
  Linear layer(2, 3, &rng);
  // Overwrite weights with known values.
  float* w = layer.weight()->mutable_value()->MutableData();
  const float weights[6] = {1, 2, 3, 4, 5, 6};  // [2,3] row-major.
  for (int i = 0; i < 6; ++i) w[i] = weights[i];
  float* b = layer.bias()->mutable_value()->MutableData();
  b[0] = 0.5f;
  b[1] = -0.5f;
  b[2] = 1.0f;
  ag::Var x = ag::Constant(Tensor({1, 2}, {1.0f, 2.0f}));
  ag::Var y = layer.Forward(x);
  // y = [1*1+2*4, 1*2+2*5, 1*3+2*6] + b = [9.5, 11.5, 16].
  EXPECT_TRUE(y->value().AllClose(Tensor({1, 3}, {9.5f, 11.5f, 16.0f})));
}

TEST(LinearTest, WrongInputWidthAborts) {
  Rng rng(1);
  Linear layer(4, 2, &rng);
  ag::Var x = ag::Constant(Tensor({1, 3}));
  EXPECT_DEATH(layer.Forward(x), "PPN_CHECK");
}

TEST(ModuleTest, ParameterCountsAndNames) {
  Rng rng(1);
  Linear layer(4, 3, &rng);
  EXPECT_EQ(layer.ParameterCount(), 4 * 3 + 3);
  const auto named = layer.NamedParameters();
  ASSERT_EQ(named.size(), 2u);
  EXPECT_EQ(named[0].first, "weight");
  EXPECT_EQ(named[1].first, "bias");
}

TEST(ModuleTest, SaveLoadRoundTrip) {
  Rng rng(7);
  Linear a(3, 2, &rng);
  Linear b(3, 2, &rng);  // Different init.
  std::ostringstream out;
  ckpt::BinWriter writer(&out);
  a.SaveState(&writer);
  const std::string bytes = out.str();
  ckpt::BinReader reader(bytes.data(), bytes.size());
  std::string error;
  ASSERT_TRUE(b.LoadState(&reader, &error)) << error;
  EXPECT_TRUE(b.weight()->value().AllClose(a.weight()->value()));
  EXPECT_TRUE(b.bias()->value().AllClose(a.bias()->value()));
}

TEST(ModuleTest, LoadRejectsWrongShape) {
  Rng rng(7);
  Linear a(3, 2, &rng);
  Linear b(2, 2, &rng);
  std::ostringstream out;
  ckpt::BinWriter writer(&out);
  a.SaveState(&writer);
  const std::string bytes = out.str();
  ckpt::BinReader reader(bytes.data(), bytes.size());
  std::string error;
  EXPECT_FALSE(b.LoadState(&reader, &error));
}

TEST(ModuleTest, CopyParametersFrom) {
  Rng rng(1);
  Linear a(3, 2, &rng);
  Linear b(3, 2, &rng);
  b.CopyParametersFrom(a);
  EXPECT_TRUE(b.weight()->value().AllClose(a.weight()->value()));
}

TEST(ModuleTest, PolyakUpdateMovesToward) {
  Rng rng(1);
  Linear a(2, 2, &rng);
  Linear b(2, 2, &rng);
  const float before = b.weight()->value()[0];
  const float target = a.weight()->value()[0];
  b.PolyakUpdateFrom(a, 0.25f);
  const float after = b.weight()->value()[0];
  EXPECT_NEAR(after, 0.75f * before + 0.25f * target, 1e-6f);
}

TEST(ModuleTest, ZeroGradClearsAll) {
  Rng rng(1);
  Linear layer(2, 2, &rng);
  ag::Var x = ag::Constant(Tensor::Full({1, 2}, 1.0f));
  ag::Var loss = ag::SumAll(layer.Forward(x));
  ag::Backward(loss);
  EXPECT_TRUE(layer.weight()->has_grad());
  layer.ZeroGrad();
  EXPECT_TRUE(layer.weight()->grad().AllClose(Tensor({2, 2})));
}

TEST(ModuleTest, TrainingFlagPropagates) {
  struct Parent : Module {
    explicit Parent(Rng* rng) : child(2, 2, rng) {
      RegisterSubmodule("child", &child);
    }
    Linear child;
  };
  Rng rng(1);
  Parent parent(&rng);
  parent.SetTraining(false);
  EXPECT_FALSE(parent.child.training());
  parent.SetTraining(true);
  EXPECT_TRUE(parent.child.training());
}

// ----------------------------------------------------------- conv ----

TEST(ConvGeometryTest, CausalPreservesLength) {
  for (const int64_t dilation : {1, 2, 4, 8}) {
    const Conv2dGeometry g = CausalTimeConvGeometry(3, dilation);
    EXPECT_EQ(g.OutW(30), 30) << "dilation=" << dilation;
    EXPECT_EQ(g.OutH(7), 7);
  }
}

TEST(ConvGeometryTest, CorrelationalPreservesAssets) {
  for (const int64_t m : {2, 5, 12, 44}) {
    const Conv2dGeometry g = CorrelationalConvGeometry(m);
    EXPECT_EQ(g.OutH(m), m) << "m=" << m;
  }
}

TEST(ConvGeometryTest, TimeCollapseGivesWidthOne) {
  const Conv2dGeometry g = ValidTimeConvGeometry(30);
  EXPECT_EQ(g.OutW(30), 1);
}

TEST(ConvLayerTest, CausalityNoFutureLeakage) {
  // Changing the input at time t must not change outputs at times < t.
  Rng rng(3);
  Conv2dLayer layer(1, 2, CausalTimeConvGeometry(3, 2), &rng);
  Tensor input({1, 1, 10, 1});
  Rng data_rng(5);
  for (int64_t i = 0; i < 10; ++i) {
    input.MutableData()[i] = static_cast<float>(data_rng.Normal());
  }
  ag::Var base_out = layer.Forward(ag::Constant(input.Clone()));
  Tensor perturbed = input.Clone();
  const int64_t t_changed = 6;
  perturbed.MutableData()[t_changed] += 10.0f;
  ag::Var new_out = layer.Forward(ag::Constant(perturbed));
  for (int64_t c = 0; c < 2; ++c) {
    for (int64_t t = 0; t < 10; ++t) {
      const float before = base_out->value().At({0, 0, t, c});
      const float after = new_out->value().At({0, 0, t, c});
      if (t < t_changed) {
        EXPECT_FLOAT_EQ(before, after) << "leak at t=" << t;
      }
    }
  }
  // The changed position itself must be affected (kernel tap at lag 0).
  EXPECT_NE(base_out->value().At({0, 0, t_changed, 0}),
            new_out->value().At({0, 0, t_changed, 0}));
}

TEST(ConvLayerTest, DilatedReceptiveFieldReachesBack) {
  // With kernel 3, dilation 4, output at t depends on t-8 but not t-9.
  Rng rng(3);
  Conv2dLayer layer(1, 1, CausalTimeConvGeometry(3, 4), &rng);
  Tensor input({1, 1, 16, 1});
  auto out_at = [&](const Tensor& in, int64_t t) {
    ag::Var out = layer.Forward(ag::Constant(in.Clone()));
    return out->value().At({0, 0, t, 0});
  };
  const int64_t t = 12;
  Tensor in_base = input.Clone();
  Tensor in_reach = input.Clone();
  in_reach.MutableData()[t - 8] += 1.0f;
  Tensor in_beyond = input.Clone();
  in_beyond.MutableData()[t - 9] += 1.0f;
  EXPECT_NE(out_at(in_base, t), out_at(in_reach, t));
  EXPECT_FLOAT_EQ(out_at(in_base, t), out_at(in_beyond, t));
}

TEST(ConvLayerTest, CorrelationalConvMixesAssets) {
  Rng rng(3);
  const int64_t m = 5;
  Conv2dLayer layer(1, 1, CorrelationalConvGeometry(m), &rng);
  Tensor input({1, m, 4, 1});
  ag::Var base = layer.Forward(ag::Constant(input.Clone()));
  Tensor perturbed = input.Clone();
  perturbed.Set({0, 0, 2, 0}, 5.0f);  // Change asset 0 only.
  ag::Var changed = layer.Forward(ag::Constant(perturbed));
  // Some OTHER asset's output at the same time step must change.
  bool other_asset_affected = false;
  for (int64_t a = 1; a < m; ++a) {
    if (base->value().At({0, a, 2, 0}) != changed->value().At({0, a, 2, 0})) {
      other_asset_affected = true;
    }
  }
  EXPECT_TRUE(other_asset_affected);
}

// ----------------------------------------------------------- lstm ----

TEST(LstmTest, HandComputedSingleStep) {
  Rng rng(1);
  Lstm lstm(1, 1, &rng);
  // Set all weights to known values: w_ih = [0.5 0.5 0.5 0.5],
  // w_hh = 0 (first step anyway), bias = 0.
  auto params = lstm.NamedParameters();
  for (auto& [name, var] : params) {
    float* data = var->mutable_value()->MutableData();
    for (int64_t i = 0; i < var->numel(); ++i) {
      data[i] = name == "w_ih" ? 0.5f : 0.0f;
    }
  }
  ag::Var x = ag::Constant(Tensor({1, 1, 1}, {1.0f}));
  ag::Var h = lstm.ForwardLastHidden(x);
  // z = 0.5 for all gates: i = f = o = sigmoid(0.5), g = tanh(0.5),
  // c = i * g, h = o * tanh(c).
  const double gate = 1.0 / (1.0 + std::exp(-0.5));
  const double c = gate * std::tanh(0.5);
  const double expected = gate * std::tanh(c);
  EXPECT_NEAR(h->value()[0], expected, 1e-6);
}

TEST(LstmTest, ForgetBiasInitializedToOne) {
  Rng rng(1);
  Lstm lstm(2, 3, &rng);
  for (const auto& [name, var] : lstm.NamedParameters()) {
    if (name != "bias") continue;
    for (int64_t j = 0; j < 12; ++j) {
      const float expected = (j >= 3 && j < 6) ? 1.0f : 0.0f;
      EXPECT_FLOAT_EQ(var->value()[j], expected) << "j=" << j;
    }
  }
}

TEST(LstmTest, OrderSensitivity) {
  // An LSTM must distinguish sequence order (unlike a mean pool).
  Rng rng(11);
  Lstm lstm(1, 4, &rng);
  Tensor forward_seq({1, 4, 1}, {1.0f, 2.0f, 3.0f, 4.0f});
  Tensor reversed_seq({1, 4, 1}, {4.0f, 3.0f, 2.0f, 1.0f});
  ag::Var h1 = lstm.ForwardLastHidden(ag::Constant(forward_seq));
  ag::Var h2 = lstm.ForwardLastHidden(ag::Constant(reversed_seq));
  EXPECT_FALSE(h1->value().AllClose(h2->value()));
}

TEST(LstmTest, GradientFlowsThroughTime) {
  Rng rng(13);
  Lstm lstm(1, 2, &rng);
  Tensor seq({1, 6, 1}, {0.1f, -0.2f, 0.3f, 0.2f, -0.1f, 0.4f});
  ag::Var input = ag::Parameter(seq);
  ag::Var h = lstm.ForwardLastHidden(input);
  ag::Backward(ag::SumAll(h));
  // Gradient w.r.t. the FIRST timestep must be nonzero (full BPTT).
  EXPECT_NE(input->grad()[0], 0.0f);
  for (const ag::Var& p : lstm.Parameters()) {
    EXPECT_TRUE(p->has_grad());
  }
}

// ------------------------------------------------ fused LSTM op ----

// The per-step composition that ag::LstmSequence replaces (the former
// Lstm::Step loop): a dozen tape nodes per timestep.
ag::Var ComposedLastHidden(const ag::Var& x, const ag::Var& w_ih,
                           const ag::Var& w_hh, const ag::Var& bias) {
  using namespace ag;  // NOLINT: local op vocabulary.
  const int64_t batch = x->value().dim(0);
  const int64_t time = x->value().dim(1);
  const int64_t input = x->value().dim(2);
  const int64_t hs = w_hh->value().dim(0);
  Var h = Constant(Tensor({batch, hs}));
  Var c = Constant(Tensor({batch, hs}));
  for (int64_t t = 0; t < time; ++t) {
    Var x_t = Reshape(NarrowVar(x, 1, t, 1), {batch, input});
    Var z = AddRowVector(Add(MatMul(x_t, w_ih), MatMul(h, w_hh)), bias);
    Var i_gate = Sigmoid(NarrowVar(z, 1, 0, hs));
    Var f_gate = Sigmoid(NarrowVar(z, 1, hs, hs));
    Var g_gate = Tanh(NarrowVar(z, 1, 2 * hs, hs));
    Var o_gate = Sigmoid(NarrowVar(z, 1, 3 * hs, hs));
    c = Add(Mul(f_gate, c), Mul(i_gate, g_gate));
    h = Mul(o_gate, Tanh(c));
  }
  return h;
}

struct LstmArgs {
  ag::Var x, w_ih, w_hh, bias;
  std::vector<ag::Var> All() const { return {x, w_ih, w_hh, bias}; }
};

// Trainable x [n, t, in] and weights for hidden size `hidden`.
LstmArgs MakeLstmArgs(int64_t n, int64_t t, int64_t in, int64_t hidden,
                      uint64_t seed) {
  Rng rng(seed);
  LstmArgs args;
  args.x = ag::Parameter(RandomNormal({n, t, in}, 0.0f, 1.0f, &rng));
  args.w_ih = ag::Parameter(RandomNormal({in, 4 * hidden}, 0.0f, 0.5f, &rng));
  args.w_hh =
      ag::Parameter(RandomNormal({hidden, 4 * hidden}, 0.0f, 0.5f, &rng));
  args.bias = ag::Parameter(RandomNormal({4 * hidden}, 0.0f, 0.5f, &rng));
  return args;
}

ag::Var FusedLastHidden(const LstmArgs& args) {
  return ag::LstmSequence(args.x, args.w_ih, args.w_hh, args.bias);
}

// Runs `forward` on fresh gradients, backpropagates a weighted sum of its
// output, and returns {output, dx, dw_ih, dw_hh, dbias}.
std::vector<Tensor> ForwardAndGradients(
    const LstmArgs& args, ag::Var (*forward)(const ag::Var&, const ag::Var&,
                                             const ag::Var&, const ag::Var&)) {
  for (const ag::Var& v : args.All()) v->ZeroGrad();
  const ag::Var h = forward(args.x, args.w_ih, args.w_hh, args.bias);
  Tensor weights = Tensor::Uninitialized(h->shape());
  for (int64_t i = 0; i < weights.numel(); ++i) {
    weights.MutableData()[i] = 0.5f + 0.01f * static_cast<float>(i % 37);
  }
  ag::Backward(ag::SumAll(ag::Mul(h, ag::Constant(weights))));
  std::vector<Tensor> out = {h->value().Clone()};
  for (const ag::Var& v : args.All()) out.push_back(v->grad().Clone());
  return out;
}

void ExpectBitEqual(const Tensor& got, const Tensor& want,
                    const std::string& label) {
  ASSERT_EQ(got.shape(), want.shape()) << label;
  int64_t mismatches = 0;
  for (int64_t i = 0; i < got.numel(); ++i) {
    if (std::bit_cast<uint32_t>(got[i]) != std::bit_cast<uint32_t>(want[i]) &&
        ++mismatches <= 5) {
      ADD_FAILURE() << label << ": element " << i << " got " << got[i]
                    << " want " << want[i];
    }
  }
}

TEST(LstmSequenceTest, ForwardMatchesPerStepCompositionBitForBit) {
  struct Shape {
    int64_t in, hidden;
  };
  // The paper's shape (4 price fields, hidden 16) and an odd one whose
  // hidden size leaves a vector tail in every gate block.
  for (const Shape shape : {Shape{4, 16}, Shape{3, 5}}) {
    for (const int64_t n : {1, 7, 64}) {
      for (const int64_t t : {1, 5, 30}) {
        const std::string label = "n=" + std::to_string(n) +
                                  " t=" + std::to_string(t) +
                                  " hidden=" + std::to_string(shape.hidden);
        const LstmArgs args = MakeLstmArgs(n, t, shape.in, shape.hidden,
                                           100 + n * 31 + t);
        const Tensor want =
            ComposedLastHidden(args.x, args.w_ih, args.w_hh, args.bias)
                ->value();
        ExpectBitEqual(FusedLastHidden(args)->value(), want, label);
        ag::InferenceMode guard;
        ExpectBitEqual(FusedLastHidden(args)->value(), want,
                       label + " InferenceMode");
        ExpectBitEqual(
            ComposedLastHidden(args.x, args.w_ih, args.w_hh, args.bias)
                ->value(),
            want, label + " composition under InferenceMode");
      }
    }
  }
}

TEST(LstmSequenceTest, BpttGradientsMatchPerStepComposition) {
  struct Case {
    int64_t n, t, in, hidden;
  };
  for (const Case c :
       {Case{7, 5, 4, 16}, Case{3, 30, 3, 5}, Case{1, 1, 4, 16}}) {
    const LstmArgs args = MakeLstmArgs(c.n, c.t, c.in, c.hidden, 7 + c.t);
    const std::vector<Tensor> fused =
        ForwardAndGradients(args, &ag::LstmSequence);
    const std::vector<Tensor> composed =
        ForwardAndGradients(args, &ComposedLastHidden);
    const char* names[] = {"h", "dx", "dw_ih", "dw_hh", "dbias"};
    for (size_t k = 0; k < fused.size(); ++k) {
      // Relative to the tensor's largest magnitude: the two backwards sum
      // the same terms in different orders. (At t = 1, h_0 = 0 makes
      // dw_hh exactly zero on both sides.)
      float scale = 0.0f;
      for (int64_t i = 0; i < composed[k].numel(); ++i) {
        scale = std::max(scale, std::fabs(composed[k][i]));
      }
      for (int64_t i = 0; i < composed[k].numel(); ++i) {
        EXPECT_LE(std::fabs(fused[k][i] - composed[k][i]), 1e-5f * scale)
            << names[k] << " element " << i << " t=" << c.t;
      }
    }
  }
}

TEST(LstmSequenceTest, ForwardAndGradientsIdenticalAcrossPathsAndThreads) {
  // Batch 32 x 11 assets: big enough that the gate kernels and the GEMMs
  // take their OpenMP branches; and a hidden size with vector tails.
  const LstmArgs cases[] = {MakeLstmArgs(352, 6, 4, 16, 99),
                            MakeLstmArgs(9, 7, 3, 5, 98)};
#ifdef _OPENMP
  const int saved_threads = omp_get_max_threads();
  const int thread_counts[] = {1, 4};
#else
  const int thread_counts[] = {1};
#endif
  const std::vector<dispatch::SimdPath> paths =
      dispatch::Avx2Available()
          ? std::vector<dispatch::SimdPath>{dispatch::SimdPath::kScalar,
                                            dispatch::SimdPath::kAvx2}
          : std::vector<dispatch::SimdPath>{dispatch::SimdPath::kScalar};
  for (const LstmArgs& args : cases) {
    std::vector<Tensor> want;
    {
      dispatch::ScopedForcePath force(dispatch::SimdPath::kScalar);
      want = ForwardAndGradients(args, &ag::LstmSequence);
    }
    for (const dispatch::SimdPath path : paths) {
      for (const int threads : thread_counts) {
#ifdef _OPENMP
        omp_set_num_threads(threads);
#endif
        dispatch::ScopedForcePath force(path);
        const std::vector<Tensor> got =
            ForwardAndGradients(args, &ag::LstmSequence);
        for (size_t k = 0; k < got.size(); ++k) {
          ExpectBitEqual(got[k], want[k],
                         std::string(dispatch::PathName(path)) + " threads=" +
                             std::to_string(threads) + " tensor " +
                             std::to_string(k));
        }
      }
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(saved_threads);
#endif
}

TEST(LstmSequenceTest, RecordsOneTapeNodeAndNoneUnderInferenceMode) {
#ifdef PPN_OBS_DISABLED
  GTEST_SKIP() << "obs compiled out (-DPPN_OBS_COMPILED=OFF)";
#endif
  obs::ScopedObsEnable obs_on;
  const LstmArgs args = MakeLstmArgs(5, 30, 4, 16, 3);
  const auto tape_nodes = [] {
    const obs::Snapshot snapshot = obs::TakeSnapshot();
    const auto it = snapshot.counters.find("autograd.tape.nodes");
    return it == snapshot.counters.end() ? 0.0 : it->second;
  };
  obs::ResetAll();
  const ag::Var h = FusedLastHidden(args);
  EXPECT_EQ(tape_nodes(), 1.0);
  EXPECT_TRUE(h->requires_grad());
  obs::ResetAll();
  {
    ag::InferenceMode guard;
    const ag::Var guarded = FusedLastHidden(args);
    EXPECT_FALSE(guarded->requires_grad());
  }
  EXPECT_EQ(tape_nodes(), 0.0);
}

TEST(LstmSequenceTest, CascadePolicyTakesOneTrainingStep) {
  // PPN-TCCB-LSTM feeds the conv stream's sequence into the LSTM, so the
  // op's dx flows on into the convolutions.
  market::SyntheticMarketConfig market;
  market.num_assets = 4;
  market.num_periods = 300;
  market.seed = 4;
  const market::MarketDataset dataset =
      market::SyntheticMarketGenerator(market).GenerateDataset("tiny", 0.8);
  core::PolicyConfig config;
  config.variant = core::PolicyVariant::kPpnTccbLstm;
  config.num_assets = 4;
  config.window = 10;
  config.lstm_hidden = 6;
  config.block1_channels = 3;
  config.block2_channels = 4;
  Rng init(1), dropout(2);
  auto policy = core::MakePolicy(config, &init, &dropout);
  std::vector<Tensor> before;
  for (const ag::Var& p : policy->Parameters()) {
    before.push_back(p->value().Clone());
  }
  core::TrainerConfig trainer_config;
  trainer_config.batch_size = 4;
  trainer_config.seed = 5;
  core::PolicyGradientTrainer trainer(policy.get(), dataset, trainer_config);
  EXPECT_TRUE(std::isfinite(trainer.TrainStep()));
  // Every parameter, the cascade LSTM's and the convolutions' below it,
  // received a gradient and moved.
  const auto named = policy->NamedParameters();
  for (size_t k = 0; k < named.size(); ++k) {
    const Tensor& after = named[k].second->value();
    bool moved = false;
    for (int64_t i = 0; i < after.numel(); ++i) {
      moved = moved || after[i] != before[k][i];
    }
    EXPECT_TRUE(moved) << named[k].first;
  }
}

}  // namespace
}  // namespace ppn::nn
