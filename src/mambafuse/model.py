"""Full detector: fusion front-end, multiscale stack, neck, and head."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .detect import DNM, DetectHead
from .network import FFAR, MDTMB
from .nn import Module


class Detector(Module):
    def __init__(self, rng, cfg: ModelConfig):
        super().__init__()
        self.cfg = cfg
        self.ffar = FFAR(rng, cfg)
        self.mdtmb = MDTMB(rng, cfg)
        self.dnm = DNM(rng, cfg)
        self.head = DetectHead(rng, cfg)

    def __call__(self, rgb: Tensor, ir: Tensor):
        p2, p3, p4 = self.mdtmb(self.ffar(rgb, ir))
        return self.head(self.dnm(p2, p3, p4))

    def predict_np(self, rgb: np.ndarray, ir: np.ndarray):
        """Inference forward; returns per-level (cls, box) numpy arrays."""
        with ad.no_grad():
            preds = self(Tensor(rgb), Tensor(ir))
        return [(c.data, b.data) for c, b in preds]


def build_detector(cfg: ModelConfig, seed: int = 0) -> Detector:
    rng = np.random.Generator(np.random.Philox(key=(np.uint64(seed), np.uint64(0xD7))))
    return Detector(rng, cfg)
