"""Parameter containers and small layer building blocks."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import ConfigError, Tensor


class Parameter(Tensor):
    """A trainable tensor; ``grad`` accumulates during backward.  It owns its
    ``data``, which an optimizer step changes in place, so an array that
    already has the right dtype is copied, not kept."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        if self.data is data:
            self.data = data.copy()


class Module:
    """Minimal parameter-tree container with hierarchical naming."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, key, value):
        if isinstance(value, Parameter):
            self._params[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        object.__setattr__(self, key, value)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for k, p in self._params.items():
            yield (f"{prefix}{k}", p)
        for k, m in self._modules.items():
            yield from m.named_parameters(prefix=f"{prefix}{k}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """This module and every descendant, depth first."""
        yield self
        for m in self._modules.values():
            yield from m.modules()

    def state_dict(self) -> dict[str, np.ndarray]:
        """Name -> the live ``data`` array of each parameter, not a copy:
        an optimizer step changes it in place."""
        return {name: p.data for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Copy each array of ``state`` into its parameter, so a later
        in-place step writes neither the caller's arrays nor, when two names
        were loaded from one array, the other parameter."""
        own = dict(self.named_parameters())
        for name, p in own.items():
            if name not in state:
                raise ConfigError(f"checkpoint missing tensor {name!r}")
            arr = state[name]
            if tuple(arr.shape) != tuple(p.shape):
                raise ConfigError(
                    f"checkpoint tensor {name!r} has shape {arr.shape}, expected {p.shape}")
            p.data = np.array(arr, dtype=p.data.dtype)
        extra = set(state) - set(own)
        if extra:
            raise ConfigError(f"checkpoint has unknown tensor {sorted(extra)[0]!r}")


class ModuleList(Module):
    def __init__(self, modules):
        super().__init__()
        self._list = list(modules)
        for i, m in enumerate(self._list):
            setattr(self, str(i), m)

    def __iter__(self):
        return iter(self._list)

    def __len__(self):
        return len(self._list)


def _kaiming(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(1.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


class Conv2d(Module):
    def __init__(self, rng, cin: int, cout: int, kernel: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 zero_init: bool = False):
        super().__init__()
        self.stride, self.padding = stride, padding
        fan = cin * kernel * kernel
        w = np.zeros((cout, cin, kernel, kernel)) if zero_init else \
            _kaiming(rng, (cout, cin, kernel, kernel), fan)
        self.weight = Parameter(w)
        self.bias = Parameter(np.zeros(cout)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv2d(x, self.weight, self.bias, self.stride, self.padding)


class Linear(Module):
    def __init__(self, rng, din: int, dout: int, bias: bool = True):
        super().__init__()
        self.weight = Parameter(_kaiming(rng, (dout, din), din))
        self.bias = Parameter(np.zeros(dout)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.weight, self.bias)


class ChannelLayerNorm(Module):
    """Layer normalization across the channel axis of a [B,C,H,W] map."""

    def __init__(self, channels: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm_channels(x, self.gamma, self.beta, self.eps)


class DepthwiseConv3x3(Module):
    """3x3 depthwise convolution with zero padding (one tape node per call)."""

    def __init__(self, rng, channels: int):
        super().__init__()
        self.channels = channels
        self.weight = Parameter(_kaiming(rng, (channels, 3, 3), 9))
        self.bias = Parameter(np.zeros(channels))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv2d(x, self.weight, self.bias, 1, 1)
