"""Full detector: fusion front-end, multiscale stack, neck, and head."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .detect import DNM, DetectHead
from .network import Backbone


class Detector(Backbone):
    """The backbone's three levels through the neck and the head."""

    def __init__(self, rng, cfg: ModelConfig):
        super().__init__(rng, cfg)
        self.dnm = DNM(rng, cfg)
        self.head = DetectHead(rng, cfg)

    def __call__(self, rgb: Tensor, ir: Tensor):
        return self.head(self.dnm(*super().__call__(rgb, ir)))

    def predict_np(self, rgb: np.ndarray, ir: np.ndarray):
        """Inference forward; returns per-level (cls, box) numpy arrays."""
        with ad.no_grad():
            preds = self(Tensor(rgb), Tensor(ir))
        return [(c.data, b.data) for c, b in preds]


def build_detector(cfg: ModelConfig, seed: int = 0) -> Detector:
    rng = np.random.Generator(np.random.Philox(key=(np.uint64(seed), np.uint64(0xD7))))
    return Detector(rng, cfg)
