"""Per-layer value profiling.

The paper's central optimization: "we re-evaluated the maximum absolute
output value generated inside each individual layer of the model.  Using
this maximum, we calculated the required number of integer bits for each
layer" (Section IV-D).  :func:`profile_model` runs the *float* network
over a representative dataset and records, per layer, the maximum
absolute activation and maximum absolute weight — the two numbers the
precision optimizer needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.nn.model import Model

__all__ = ["LayerProfile", "profile_model"]


@dataclass(frozen=True)
class LayerProfile:
    """Observed value ranges for one layer.

    Attributes
    ----------
    max_abs_output:
        Largest |activation| the layer produced over the profiling set.
    max_abs_weight:
        Largest |parameter| (0.0 for parameter-free layers).
    """

    max_abs_output: float
    max_abs_weight: float

    def __post_init__(self):
        if self.max_abs_output < 0 or self.max_abs_weight < 0:
            raise ValueError("profile magnitudes must be non-negative")


def _abs_peak(out: np.ndarray) -> float:
    """``max |out|`` without building ``|out|``; non-finite when *out*
    holds a NaN or an infinity."""
    return max(float(out.max()), -float(out.min()))


def profile_model(model: Model, x: np.ndarray,
                  batch_size: int = 256) -> Dict[str, LayerProfile]:
    """Profile every layer of *model* on dataset *x*.

    Runs inference-mode forward passes in batches (the profiling set can
    be the full training split) and accumulates per-layer maxima.
    Returns ``{layer_name: LayerProfile}`` including the input layer
    (whose "activation" is the standardized input itself — the paper's
    input-buffer precision is derived from it).

    Raises ``ValueError`` naming the first layer, in execution order,
    whose activation holds a NaN or an infinity.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValueError("profiling dataset is empty")
    max_out: Dict[str, float] = {}
    for start in range(0, x.shape[0], batch_size):
        batch = x[start:start + batch_size]
        model.forward(batch, training=False)
        for layer in model.layers:
            peak = _abs_peak(model._last_outputs[layer])
            if not math.isfinite(peak):
                raise ValueError(
                    f"layer {layer.name!r} produced a non-finite activation "
                    f"on profiling rows {start}..{start + len(batch) - 1}")
            max_out[layer.name] = max(max_out.get(layer.name, 0.0), peak)
    profiles = {}
    for layer in model.layers:
        w_max = 0.0
        if layer.params:
            w_max = max(float(np.abs(p).max()) for p in layer.params.values())
        profiles[layer.name] = LayerProfile(
            max_abs_output=max_out[layer.name],
            max_abs_weight=w_max,
        )
    return profiles
