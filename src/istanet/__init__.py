"""Interactive spatiotemporal token attention for skeleton-based
interactive action recognition, built on a minimal numpy autodiff engine."""

import os

# BLAS gets one thread unless the user sets its thread count: attention
# already splits its per-sample heads over every CPU (attention.THREADS), and
# BLAS's default of one thread per CPU competes with those threads. BLAS
# reads these when numpy is first imported, which for the console script and
# `python -m istanet` is below, after this package starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .data import SkeletonSequence, compute_padding, parse_iskel, serialize_iskel  # noqa: E402
from .engine import Parameter, Tensor  # noqa: E402
from .model import ISTANet, ModelConfig, TrainConfig  # noqa: E402

__all__ = [
    "SkeletonSequence", "compute_padding", "parse_iskel", "serialize_iskel",
    "Parameter", "Tensor", "ISTANet", "ModelConfig", "TrainConfig",
]
