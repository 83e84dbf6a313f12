"""Deformable convolution and deformable-token generation.

Offsets are predicted by a plain convolution (zero-initialized, so training
starts at the normal-convolution solution), then every kernel tap samples
the input at its displaced location via bilinear interpolation.  A token map
is the sum of this deformable branch and an ordinary convolution branch.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ConfigError, Tensor
from .nn import Conv2d, Module

# OffsetField channel layout: for tap t in [0, K*K), channel 2t is the row
# displacement (dy) and channel 2t+1 the column displacement (dx).


def deformable_conv2d(x: Tensor, weight: Tensor, bias: Tensor | None,
                      offsets: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Convolution whose taps sample at (base location + learned offset)."""
    B, C, H, W = x.shape
    Cout, Cin, K, K2 = weight.shape
    if Cin != C or K != K2:
        raise ConfigError(f"weight {weight.shape} incompatible with input {x.shape}")
    Ho = ad.conv_out_size(H, K, stride, padding)
    Wo = ad.conv_out_size(W, K, stride, padding)
    T = K * K
    if offsets.shape != (B, 2 * T, Ho, Wo):
        raise ConfigError(
            f"offsets shape {offsets.shape} does not match output grid "
            f"{(B, 2 * T, Ho, Wo)}")
    # base sampling lattice per output site and tap
    oy = np.arange(Ho) * stride - padding
    ox = np.arange(Wo) * stride - padding
    ky, kx = np.divmod(np.arange(T), K)
    base_y = (ky[:, None, None] + oy[None, :, None]).astype(x.data.dtype)  # [T,Ho,1]
    base_x = (kx[:, None, None] + ox[None, None, :]).astype(x.data.dtype)  # [T,1,Wo]
    base_y = np.broadcast_to(base_y, (T, Ho, Wo))
    base_x = np.broadcast_to(base_x, (T, Ho, Wo))

    dy = offsets[:, 0::2]
    dx = offsets[:, 1::2]
    ys = ad.add(dy, Tensor(base_y[None]))
    xs = ad.add(dx, Tensor(base_x[None]))
    sampled = ad.grid_sample_taps(x, ys, xs)                    # [B,C*T,Ho,Wo]
    # the sampled columns are a [C*T]-channel map: contract them as a 1x1 conv
    return ad.conv2d(sampled, ad.reshape(weight, (Cout, C * T, 1, 1)), bias)


class DeformableToken(Module):
    """Token grid T = Conv(x) + DConv(x); both branches share Cout/K/stride."""

    def __init__(self, rng, cin: int, cout: int, kernel: int, stride: int, padding: int):
        super().__init__()
        self.kernel, self.stride, self.padding = kernel, stride, padding
        self.norm_conv = Conv2d(rng, cin, cout, kernel, stride=stride, padding=padding)
        self.def_conv = Conv2d(rng, cin, cout, kernel, stride=stride, padding=padding)
        self.offset_conv = Conv2d(rng, cin, 2 * kernel * kernel, kernel, stride=stride,
                                  padding=padding, zero_init=True)

    def offsets(self, x: Tensor) -> Tensor:
        return self.offset_conv(x)

    def __call__(self, x: Tensor) -> Tensor:
        normal = self.norm_conv(x)
        deform = deformable_conv2d(x, self.def_conv.weight, self.def_conv.bias,
                                   self.offsets(x), self.stride, self.padding)
        return ad.add(normal, deform)

