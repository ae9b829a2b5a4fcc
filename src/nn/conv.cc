#include "nn/conv.h"

#include "common/check.h"
#include "nn/init.h"

namespace ppn::nn {

Conv2dLayer::Conv2dLayer(int64_t in_channels, int64_t out_channels,
                         const Conv2dGeometry& geometry, Rng* rng)
    : geometry_(geometry) {
  PPN_CHECK_GT(in_channels, 0);
  PPN_CHECK_GT(out_channels, 0);
  const int64_t fan_in = in_channels * geometry.kernel_h * geometry.kernel_w;
  weight_ = RegisterParameter(
      "weight", KaimingUniform(
                    {out_channels, in_channels, geometry.kernel_h,
                     geometry.kernel_w},
                    fan_in, rng));
  bias_ = RegisterParameter("bias", ZeroInit({out_channels}));
}

ag::Var Conv2dLayer::Forward(const ag::Var& input,
                             const ConvOutputPass& pass) const {
  return ag::Conv2d(input, weight_, bias_, geometry_, pass);
}

Conv2dGeometry CausalTimeConvGeometry(int64_t kernel_w, int64_t dilation) {
  PPN_CHECK_GT(kernel_w, 0);
  PPN_CHECK_GT(dilation, 0);
  Conv2dGeometry g;
  g.kernel_h = 1;
  g.kernel_w = kernel_w;
  g.dilation_w = dilation;
  g.pad_left = dilation * (kernel_w - 1);
  g.pad_right = 0;  // Causality: no future taps.
  return g;
}

Conv2dGeometry CorrelationalConvGeometry(int64_t kernel_h) {
  PPN_CHECK_GT(kernel_h, 0);
  Conv2dGeometry g;
  g.kernel_h = kernel_h;
  g.kernel_w = 1;
  g.pad_top = (kernel_h - 1) / 2;
  g.pad_bottom = (kernel_h - 1) - g.pad_top;
  return g;
}

Conv2dGeometry ValidTimeConvGeometry(int64_t kernel_w) {
  PPN_CHECK_GT(kernel_w, 0);
  Conv2dGeometry g;
  g.kernel_h = 1;
  g.kernel_w = kernel_w;
  return g;
}

}  // namespace ppn::nn
