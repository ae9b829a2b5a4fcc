#include "ppn/feature_nets.h"

#include <gtest/gtest.h>

namespace ppn::core {
namespace {

PolicyConfig SmallConfig() {
  PolicyConfig config;
  config.num_assets = 5;
  config.window = 16;
  config.lstm_hidden = 6;
  config.block1_channels = 4;
  config.block2_channels = 8;
  config.seed = 3;
  return config;
}

Tensor RandomWindows(const PolicyConfig& config, int64_t batch,
                     uint64_t seed = 9) {
  Rng rng(seed);
  return RandomNormal(
      {batch, config.num_assets, config.window, market::kNumPriceFields},
      0.0f, 0.1f, &rng);
}

TEST(SequentialInfoNetTest, OutputShape) {
  const PolicyConfig config = SmallConfig();
  Rng rng(1);
  SequentialInfoNet net(config, &rng);
  net.SetTraining(false);
  ag::Var out = net.Forward(ag::Constant(RandomWindows(config, 3)));
  EXPECT_EQ(out->value().shape(), (std::vector<int64_t>{3, 5, 6}));
  EXPECT_EQ(net.feature_size(), 6);
}

TEST(SequentialInfoNetTest, AssetsProcessedIndependently) {
  // Changing asset 2's window must not change asset 0's features.
  const PolicyConfig config = SmallConfig();
  Rng rng(1);
  SequentialInfoNet net(config, &rng);
  net.SetTraining(false);
  Tensor base = RandomWindows(config, 1);
  Tensor perturbed = base.Clone();
  for (int64_t j = 0; j < config.window; ++j) {
    for (int f = 0; f < market::kNumPriceFields; ++f) {
      perturbed.MutableData()[(2 * config.window + j) *
                                  market::kNumPriceFields +
                              f] += 0.5f;
    }
  }
  ag::Var out_base = net.Forward(ag::Constant(base));
  ag::Var out_pert = net.Forward(ag::Constant(perturbed));
  for (int64_t h = 0; h < 6; ++h) {
    EXPECT_FLOAT_EQ(out_base->value().At({0, 0, h}),
                    out_pert->value().At({0, 0, h}));
  }
  // Asset 2's own features must change.
  bool changed = false;
  for (int64_t h = 0; h < 6; ++h) {
    if (out_base->value().At({0, 2, h}) != out_pert->value().At({0, 2, h})) {
      changed = true;
    }
  }
  EXPECT_TRUE(changed);
}

TEST(TemporalConvBlockTest, ShapePreserving) {
  Rng init(1);
  Rng dropout(2);
  TemporalConvBlock block(4, 8, /*dilation=*/2, /*num_assets=*/5,
                          /*correlational=*/true, 0.2f, &init, &dropout);
  block.SetTraining(false);
  Rng data(3);
  Tensor input = RandomNormal({2, 5, 16, 4}, 0.0f, 1.0f, &data);
  ag::Var out = block.Forward(ag::Constant(input));
  EXPECT_EQ(out->value().shape(), (std::vector<int64_t>{2, 5, 16, 8}));
}

TEST(TemporalConvBlockTest, TcbHasNoCrossAssetFlow) {
  Rng init(1);
  Rng dropout(2);
  TemporalConvBlock tcb(1, 2, 1, /*num_assets=*/4, /*correlational=*/false,
                        0.0f, &init, &dropout);
  tcb.SetTraining(false);
  Tensor base({1, 4, 8, 1});
  Tensor perturbed = base.Clone();
  perturbed.Set({0, 1, 3, 0}, 2.0f);  // Touch asset 1 only.
  ag::Var out_base = tcb.Forward(ag::Constant(base));
  ag::Var out_pert = tcb.Forward(ag::Constant(perturbed));
  // Asset 0's row must be untouched in every channel/time.
  for (int64_t c = 0; c < 2; ++c) {
    for (int64_t t = 0; t < 8; ++t) {
      EXPECT_FLOAT_EQ(out_base->value().At({0, 0, t, c}),
                      out_pert->value().At({0, 0, t, c}));
    }
  }
}

TEST(TemporalConvBlockTest, TccbHasCrossAssetFlow) {
  Rng init(1);
  Rng dropout(2);
  TemporalConvBlock tccb(1, 2, 1, /*num_assets=*/4, /*correlational=*/true,
                         0.0f, &init, &dropout);
  tccb.SetTraining(false);
  Rng data(5);
  Tensor base = RandomNormal({1, 4, 8, 1}, 0.0f, 1.0f, &data);
  Tensor perturbed = base.Clone();
  perturbed.Set({0, 1, 3, 0}, perturbed.At({0, 1, 3, 0}) + 2.0f);
  ag::Var out_base = tccb.Forward(ag::Constant(base));
  ag::Var out_pert = tccb.Forward(ag::Constant(perturbed));
  bool other_asset_changed = false;
  for (int64_t c = 0; c < 2; ++c) {
    if (out_base->value().At({0, 0, 3, c}) !=
        out_pert->value().At({0, 0, 3, c})) {
      other_asset_changed = true;
    }
  }
  EXPECT_TRUE(other_asset_changed);
}

TEST(CorrelationInfoNetTest, ForwardShapeCollapsesTime) {
  const PolicyConfig config = SmallConfig();
  Rng init(1);
  Rng dropout(2);
  CorrelationInfoNet net(config, /*correlational=*/true, &init, &dropout);
  net.SetTraining(false);
  ag::Var out = net.Forward(ag::Constant(RandomWindows(config, 2)));
  EXPECT_EQ(out->value().shape(), (std::vector<int64_t>{2, 5, 8}));
}

TEST(CorrelationInfoNetTest, ForwardSequenceKeepsTime) {
  const PolicyConfig config = SmallConfig();
  Rng init(1);
  Rng dropout(2);
  CorrelationInfoNet net(config, /*correlational=*/false, &init, &dropout,
                         /*collapse_time=*/false);
  net.SetTraining(false);
  ag::Var out = net.ForwardSequence(ag::Constant(RandomWindows(config, 2)));
  EXPECT_EQ(out->value().shape(), (std::vector<int64_t>{2, 5, 16, 8}));
}

TEST(CorrelationInfoNetTest, NoCollapseOmitsConv4Parameters) {
  const PolicyConfig config = SmallConfig();
  Rng init1(1), init2(1);
  Rng dropout(2);
  CorrelationInfoNet with_conv4(config, true, &init1, &dropout, true);
  CorrelationInfoNet without_conv4(config, true, &init2, &dropout, false);
  EXPECT_GT(with_conv4.ParameterCount(), without_conv4.ParameterCount());
}

TEST(CorrelationInfoNetDeathTest, ForwardWithoutConv4Aborts) {
  const PolicyConfig config = SmallConfig();
  Rng init(1);
  Rng dropout(2);
  CorrelationInfoNet net(config, true, &init, &dropout,
                         /*collapse_time=*/false);
  EXPECT_DEATH(net.Forward(ag::Constant(RandomWindows(config, 1))),
               "collapse_time");
}

TEST(CorrelationInfoNetTest, CausalAcrossTimeEndToEnd) {
  // Perturbing the LAST time slot must not change ForwardSequence outputs
  // at earlier time slots (whole-stack causality).
  const PolicyConfig config = SmallConfig();
  Rng init(1);
  Rng dropout(2);
  CorrelationInfoNet net(config, true, &init, &dropout, false);
  net.SetTraining(false);
  Tensor base = RandomWindows(config, 1);
  Tensor perturbed = base.Clone();
  const int64_t last = config.window - 1;
  for (int64_t a = 0; a < config.num_assets; ++a) {
    for (int f = 0; f < market::kNumPriceFields; ++f) {
      perturbed.MutableData()[(a * config.window + last) *
                                  market::kNumPriceFields +
                              f] += 1.0f;
    }
  }
  ag::Var out_base = net.ForwardSequence(ag::Constant(base));
  ag::Var out_pert = net.ForwardSequence(ag::Constant(perturbed));
  for (int64_t a = 0; a < config.num_assets; ++a) {
    for (int64_t t = 0; t < last; ++t) {
      for (int64_t c = 0; c < 8; ++c) {
        ASSERT_FLOAT_EQ(out_base->value().At({0, a, t, c}),
                        out_pert->value().At({0, a, t, c}))
            << "future leaked to t=" << t;
      }
    }
  }
}

}  // namespace
}  // namespace ppn::core
