#ifndef PPN_NN_CONV_H_
#define PPN_NN_CONV_H_

#include "autograd/ops.h"
#include "nn/module.h"

/// \file
/// Convolution layers used by the correlation information net (paper
/// Table 2): dilated causal convolutions along the time axis (DCONV),
/// correlational convolutions across the asset axis (CCONV), and valid
/// convolutions along time (Conv4, EIIE and the DDPG critic).
///
/// Feature maps are channels-last, [batch, assets(H), time(W), channels],
/// the layout of the policy's [B, m, k, 4] price windows, so a stream runs
/// from its windows to its last conv without a transpose. Weights stay
/// [C_out, C_in, kh, kw].

namespace ppn::nn {

/// Generic stride-1 2-D convolution with explicit geometry.
class Conv2dLayer : public Module {
 public:
  /// Creates a layer with Kaiming-uniform weights, zero bias, and the given
  /// lowering geometry (kernel sizes in `geometry` define the weight shape).
  Conv2dLayer(int64_t in_channels, int64_t out_channels,
              const Conv2dGeometry& geometry, Rng* rng);

  /// Applies the convolution, then `pass` (dropout and ReLU folded into
  /// the output's store; the default is a plain conv), to a [N, H, W, C_in]
  /// input; returns [N, OutH, OutW, C_out]. One tape node.
  ag::Var Forward(const ag::Var& input,
                  const ConvOutputPass& pass = {}) const;

  const Conv2dGeometry& geometry() const { return geometry_; }
  const ag::Var& weight() const { return weight_; }
  const ag::Var& bias() const { return bias_; }

 private:
  Conv2dGeometry geometry_;
  ag::Var weight_;
  ag::Var bias_;
};

/// Geometry of a *causal* dilated convolution along time (kernel [1 x kw]):
/// all padding goes on the left so output at time t never sees inputs at
/// t' > t, and the time length is preserved.
Conv2dGeometry CausalTimeConvGeometry(int64_t kernel_w, int64_t dilation);

/// Geometry of the correlational convolution (kernel [kh x 1], SAME padding
/// along the asset axis so the asset count is preserved). `kh` is typically
/// the asset count m, letting every asset see every other asset.
Conv2dGeometry CorrelationalConvGeometry(int64_t kernel_h);

/// Geometry of a VALID convolution along time (kernel [1 x kw], no
/// padding): the time length shrinks by kw - 1, so kw = k collapses a
/// k-period window to width 1 (Conv4).
Conv2dGeometry ValidTimeConvGeometry(int64_t kernel_w);

}  // namespace ppn::nn

#endif  // PPN_NN_CONV_H_
