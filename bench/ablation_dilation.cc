// Ablation (ours, called out in DESIGN.md): dilated vs plain causal
// convolutions (paper Section 4.3.1 / Fig. 4). The dilated stack's
// receptive field covers the whole 30-period window; an undilated stack of
// the same depth sees only the most recent ~13 periods.
//
// We measure the receptive field directly (how far back an input
// perturbation can move the output) for both configurations.

#include <cstdio>

#include "bench_util.h"
#include "nn/conv.h"

namespace ppn {
namespace {

/// Builds a 3-block stack of causal convolutions with the given dilation
/// schedule and returns the empirical receptive field: the largest lag L
/// such that perturbing input at time t-L changes the output at time t.
int64_t EmpiricalReceptiveField(const std::vector<int64_t>& dilations,
                                int64_t window) {
  Rng rng(7);
  std::vector<std::unique_ptr<nn::Conv2dLayer>> layers;
  int64_t channels = 1;
  for (const int64_t dilation : dilations) {
    layers.push_back(std::make_unique<nn::Conv2dLayer>(
        channels, 4, nn::CausalTimeConvGeometry(3, dilation), &rng));
    channels = 4;
    layers.push_back(std::make_unique<nn::Conv2dLayer>(
        channels, 4, nn::CausalTimeConvGeometry(3, dilation), &rng));
  }
  auto forward = [&layers](const Tensor& input) {
    ag::Var h = ag::Constant(input);
    for (const auto& layer : layers) h = layer->Forward(h);
    return h->value();
  };
  Tensor base({1, 1, window, 1});  // [N, assets, time, C].
  const Tensor base_out = forward(base);
  const int64_t t = window - 1;
  int64_t receptive = 0;
  for (int64_t lag = 0; lag < window; ++lag) {
    Tensor perturbed = base.Clone();
    perturbed.MutableData()[t - lag] = 1.0f;
    const Tensor out = forward(perturbed);
    bool changed = false;
    for (int64_t c = 0; c < 4; ++c) {
      if (out.At({0, 0, t, c}) != base_out.At({0, 0, t, c})) changed = true;
    }
    if (changed) receptive = lag;
  }
  return receptive + 1;
}

}  // namespace
}  // namespace ppn

int main() {
  using namespace ppn;
  bench::BenchContext context(
      "Ablation: dilated vs plain causal convolutions");
  constexpr int64_t kWindow = 30;
  TablePrinter printer({"Stack", "dilations", "receptive field (of 30)"});
  printer.AddRow({"TCCB (paper)", "1,2,4",
                  std::to_string(EmpiricalReceptiveField({1, 2, 4}, kWindow))});
  printer.AddRow({"undilated", "1,1,1",
                  std::to_string(EmpiricalReceptiveField({1, 1, 1}, kWindow))});
  std::printf("%s\n", printer.ToString().c_str());
  std::printf(
      "Theory: each block adds 2*(kernel-1)*dilation = 4*dilation lags;\n"
      "dilated 1+4+8+16 = 29 -> covers the window; plain 1+4+4+4 = 13.\n");
  return 0;
}
