#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/math_utils.h"
#include "ppn/eiie.h"
#include "ppn/policy_inference.h"
#include "ppn/policy_network.h"

namespace ppn::core {
namespace {

PolicyConfig SmallConfig(PolicyVariant variant) {
  PolicyConfig config;
  config.variant = variant;
  config.num_assets = 4;
  config.window = 12;
  config.lstm_hidden = 6;
  config.block1_channels = 4;
  config.block2_channels = 6;
  config.seed = 5;
  return config;
}

Tensor RandomWindows(int64_t batch, const PolicyConfig& config,
                     uint64_t seed = 11) {
  Rng rng(seed);
  Tensor windows(
      {batch, config.num_assets, config.window, market::kNumPriceFields});
  for (int64_t i = 0; i < windows.numel(); ++i) {
    windows.MutableData()[i] = static_cast<float>(1.0 + 0.05 * rng.Normal());
  }
  return windows;
}

Tensor UniformPrev(int64_t batch, int64_t m) {
  return Tensor::Full({batch, m}, 1.0f / static_cast<float>(m));
}

std::vector<PolicyVariant> AllVariants() {
  auto variants = Table4Variants();
  variants.push_back(PolicyVariant::kEiie);
  return variants;
}

class PolicyVariantTest : public ::testing::TestWithParam<PolicyVariant> {};

TEST_P(PolicyVariantTest, OutputShapeAndSimplex) {
  const PolicyConfig config = SmallConfig(GetParam());
  Rng init(1);
  Rng dropout(2);
  auto policy = MakePolicy(config, &init, &dropout);
  policy->SetTraining(false);
  const int64_t batch = 3;
  ag::Var out = policy->Forward(
      ag::Constant(RandomWindows(batch, config)),
      ag::Constant(UniformPrev(batch, config.num_assets)));
  ASSERT_EQ(out->value().shape(),
            (std::vector<int64_t>{batch, config.num_assets + 1}));
  for (int64_t b = 0; b < batch; ++b) {
    double total = 0.0;
    for (int64_t i = 0; i <= config.num_assets; ++i) {
      const float v = out->value().At({b, i});
      EXPECT_GE(v, 0.0f);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
}

TEST_P(PolicyVariantTest, GradientReachesAllParameters) {
  const PolicyConfig config = SmallConfig(GetParam());
  Rng init(1);
  Rng dropout(2);
  auto policy = MakePolicy(config, &init, &dropout);
  policy->SetTraining(false);  // Deterministic; dropout masks off.
  policy->ZeroGrad();
  ag::Var out = policy->Forward(
      ag::Constant(RandomWindows(2, config)),
      ag::Constant(UniformPrev(2, config.num_assets)));
  // A weighted sum so each output contributes differently.
  Tensor weights_data({2, config.num_assets + 1});
  for (int64_t i = 0; i < weights_data.numel(); ++i) {
    weights_data.MutableData()[i] = static_cast<float>(i + 1);
  }
  ag::Backward(ag::SumAll(ag::Mul(out, ag::Constant(weights_data))));
  int64_t nonzero_params = 0;
  for (const ag::Var& p : policy->Parameters()) {
    ASSERT_TRUE(p->has_grad());
    for (int64_t i = 0; i < p->numel(); ++i) {
      if (p->grad()[i] != 0.0f) {
        ++nonzero_params;
        break;
      }
    }
  }
  // Every parameter tensor should receive some gradient.
  EXPECT_EQ(nonzero_params,
            static_cast<int64_t>(policy->Parameters().size()));
}

TEST_P(PolicyVariantTest, DeterministicInEvalMode) {
  const PolicyConfig config = SmallConfig(GetParam());
  Rng init(1);
  Rng dropout(2);
  auto policy = MakePolicy(config, &init, &dropout);
  policy->SetTraining(false);
  Tensor windows = RandomWindows(1, config);
  Tensor prev = UniformPrev(1, config.num_assets);
  ag::Var out1 = policy->Forward(ag::Constant(windows), ag::Constant(prev));
  ag::Var out2 = policy->Forward(ag::Constant(windows), ag::Constant(prev));
  EXPECT_TRUE(out1->value().AllClose(out2->value()));
}

TEST_P(PolicyVariantTest, PreviousActionInfluencesDecision) {
  const PolicyConfig config = SmallConfig(GetParam());
  Rng init(1);
  Rng dropout(2);
  auto policy = MakePolicy(config, &init, &dropout);
  policy->SetTraining(false);
  Tensor windows = RandomWindows(1, config);
  Tensor prev_a = UniformPrev(1, config.num_assets);
  Tensor prev_b({1, config.num_assets});
  prev_b.MutableData()[0] = 1.0f;  // All-in asset 0.
  ag::Var out_a = policy->Forward(ag::Constant(windows), ag::Constant(prev_a));
  ag::Var out_b = policy->Forward(ag::Constant(windows), ag::Constant(prev_b));
  EXPECT_FALSE(out_a->value().AllClose(out_b->value(), 1e-7f));
}

TEST_P(PolicyVariantTest, IndexedDecideMatchesExpandedBatchBitwise) {
  // Serving computes features once per distinct window and broadcasts them
  // to every row deciding on it; each row must come out exactly as if its
  // window had been fed on its own row.
  const PolicyConfig config = SmallConfig(GetParam());
  const int64_t m = config.num_assets;
  Rng init(1);
  Rng dropout(2);
  auto policy = MakePolicy(config, &init, &dropout);
  const PolicyInference inference(policy.get());
  const Tensor windows = RandomWindows(3, config);
  const std::vector<int64_t> window_of_row = {2, 0, 0, 1, 2, 2, 0};
  const int64_t batch = static_cast<int64_t>(window_of_row.size());
  const int64_t window_numel = windows.numel() / windows.dim(0);
  Tensor expanded({batch, m, config.window, market::kNumPriceFields});
  for (int64_t row = 0; row < batch; ++row) {
    std::memcpy(expanded.MutableData() + row * window_numel,
                windows.Data() + window_of_row[row] * window_numel,
                static_cast<size_t>(window_numel) * sizeof(float));
  }
  // A different previous portfolio on every row, rows sharing a window
  // included.
  Rng prev_rng(3);
  Tensor prev({batch, m});
  for (int64_t row = 0; row < batch; ++row) {
    std::vector<double> weights(m);
    double total = 0.0;
    for (double& w : weights) total += (w = prev_rng.Uniform());
    for (int64_t a = 0; a < m; ++a) {
      prev.MutableData()[row * m + a] =
          static_cast<float>(weights[a] / (total + 0.5));
    }
  }

  const Tensor indexed = inference.DecideBatch(windows, window_of_row, prev);
  const Tensor reference = inference.DecideBatch(expanded, prev);
  ASSERT_EQ(indexed.shape(), reference.shape());
  EXPECT_EQ(std::memcmp(indexed.Data(), reference.Data(),
                        static_cast<size_t>(indexed.numel()) * sizeof(float)),
            0);
  // Rows sharing a window but not a previous action must still differ.
  EXPECT_NE(std::memcmp(indexed.Data() + 1 * (m + 1),
                        indexed.Data() + 2 * (m + 1),
                        static_cast<size_t>(m + 1) * sizeof(float)),
            0);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, PolicyVariantTest,
                         ::testing::ValuesIn(AllVariants()),
                         [](const auto& info) {
                           std::string name = VariantName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(VariantMetadataTest, VariantFromNameRoundTrip) {
  auto variants = Table4Variants();
  variants.push_back(PolicyVariant::kEiie);
  for (const PolicyVariant variant : variants) {
    PolicyVariant parsed;
    ASSERT_TRUE(VariantFromName(VariantName(variant), &parsed));
    EXPECT_EQ(parsed, variant);
  }
  PolicyVariant unused = PolicyVariant::kPpn;
  EXPECT_FALSE(VariantFromName("ppn", &unused));  // Case-sensitive.
  EXPECT_FALSE(VariantFromName("Nope", &unused));
  EXPECT_EQ(unused, PolicyVariant::kPpn);  // Untouched on failure.
}

TEST(VariantMetadataTest, NamesAndCorrelationFlags) {
  EXPECT_EQ(VariantName(PolicyVariant::kPpn), "PPN");
  EXPECT_EQ(VariantName(PolicyVariant::kPpnTccbLstm), "PPN-TCCB-LSTM");
  EXPECT_TRUE(UsesAssetCorrelation(PolicyVariant::kPpn));
  EXPECT_TRUE(UsesAssetCorrelation(PolicyVariant::kPpnTccb));
  EXPECT_FALSE(UsesAssetCorrelation(PolicyVariant::kPpnI));
  EXPECT_FALSE(UsesAssetCorrelation(PolicyVariant::kEiie));
  EXPECT_EQ(Table4Variants().size(), 7u);
}

TEST(PolicyStructureTest, PpnSeesCrossAssetInformation) {
  // Changing asset 3's window must change the PPN's logit RATIO between
  // assets 1 and 2 (cross-asset mixing). For PPN-I the same perturbation
  // must leave that ratio unchanged (independent evaluation + softmax
  // renormalization only).
  for (const PolicyVariant variant :
       {PolicyVariant::kPpn, PolicyVariant::kPpnI}) {
    const PolicyConfig config = SmallConfig(variant);
    Rng init(1);
    Rng dropout(2);
    auto policy = MakePolicy(config, &init, &dropout);
    policy->SetTraining(false);
    Tensor base = RandomWindows(1, config);
    Tensor perturbed = base.Clone();
    // Shift all prices of asset 3 (row 3 of the window).
    for (int64_t j = 0; j < config.window; ++j) {
      for (int f = 0; f < market::kNumPriceFields; ++f) {
        const int64_t idx =
            (3 * config.window + j) * market::kNumPriceFields + f;
        perturbed.MutableData()[idx] *= 1.2f;
      }
    }
    Tensor prev = UniformPrev(1, config.num_assets);
    ag::Var out_base =
        policy->Forward(ag::Constant(base), ag::Constant(prev));
    ag::Var out_pert =
        policy->Forward(ag::Constant(perturbed), ag::Constant(prev));
    const double ratio_base =
        out_base->value().At({0, 1}) / out_base->value().At({0, 2});
    const double ratio_pert =
        out_pert->value().At({0, 1}) / out_pert->value().At({0, 2});
    if (variant == PolicyVariant::kPpn) {
      EXPECT_GT(std::fabs(ratio_base - ratio_pert), 1e-6)
          << "PPN failed to propagate cross-asset information";
    } else {
      EXPECT_NEAR(ratio_base, ratio_pert, 1e-4)
          << "PPN-I leaked information across assets";
    }
  }
}

TEST(PolicyStructureTest, CausalityAcrossTime) {
  // In eval mode, changing only the OLDEST slot of the window must change
  // the output (receptive field covers it)...
  const PolicyConfig config = SmallConfig(PolicyVariant::kPpn);
  Rng init(1);
  Rng dropout(2);
  auto policy = MakePolicy(config, &init, &dropout);
  policy->SetTraining(false);
  Tensor base = RandomWindows(1, config);
  Tensor perturbed = base.Clone();
  for (int64_t a = 0; a < config.num_assets; ++a) {
    for (int f = 0; f < market::kNumPriceFields; ++f) {
      perturbed.MutableData()[(a * config.window) * market::kNumPriceFields +
                              f] *= 1.5f;
    }
  }
  Tensor prev = UniformPrev(1, config.num_assets);
  ag::Var out_base = policy->Forward(ag::Constant(base), ag::Constant(prev));
  ag::Var out_pert =
      policy->Forward(ag::Constant(perturbed), ag::Constant(prev));
  EXPECT_FALSE(out_base->value().AllClose(out_pert->value(), 1e-8f));
}

TEST(PolicyStructureTest, ParameterCountsDifferAcrossVariants) {
  Rng dropout(2);
  Rng init1(1), init2(1), init3(1);
  auto ppn = MakePolicy(SmallConfig(PolicyVariant::kPpn), &init1, &dropout);
  auto ppn_i = MakePolicy(SmallConfig(PolicyVariant::kPpnI), &init2, &dropout);
  auto lstm_only =
      MakePolicy(SmallConfig(PolicyVariant::kPpnLstm), &init3, &dropout);
  // PPN has the CCONV parameters PPN-I lacks.
  EXPECT_GT(ppn->ParameterCount(), ppn_i->ParameterCount());
  EXPECT_GT(ppn_i->ParameterCount(), lstm_only->ParameterCount());
}

TEST(PolicyDeathTest, WrongAssetCountAborts) {
  const PolicyConfig config = SmallConfig(PolicyVariant::kPpn);
  Rng init(1);
  Rng dropout(2);
  auto policy = MakePolicy(config, &init, &dropout);
  Tensor windows({1, config.num_assets + 1, config.window, 4});
  EXPECT_DEATH(policy->Forward(ag::Constant(windows),
                               ag::Constant(UniformPrev(1, config.num_assets))),
               "PPN_CHECK");
}

TEST(EiieTest, TrainingModeHasNoDropoutNondeterminism) {
  const PolicyConfig config = SmallConfig(PolicyVariant::kEiie);
  Rng init(1);
  EiieNetwork eiie(config, &init);
  eiie.SetTraining(true);
  Tensor windows = RandomWindows(1, config);
  Tensor prev = UniformPrev(1, config.num_assets);
  ag::Var a = eiie.Forward(ag::Constant(windows), ag::Constant(prev));
  ag::Var b = eiie.Forward(ag::Constant(windows), ag::Constant(prev));
  EXPECT_TRUE(a->value().AllClose(b->value()));
}

}  // namespace
}  // namespace ppn::core
