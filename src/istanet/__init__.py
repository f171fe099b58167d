"""Interactive spatiotemporal token attention for skeleton-based
interactive action recognition, built on a minimal numpy autodiff engine."""

from .data import SkeletonSequence, compute_padding, parse_iskel, serialize_iskel
from .engine import Parameter, Tensor
from .model import ISTANet, ModelConfig, TrainConfig

__all__ = [
    "SkeletonSequence", "compute_padding", "parse_iskel", "serialize_iskel",
    "Parameter", "Tensor", "ISTANet", "ModelConfig", "TrainConfig",
]
