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
from typing import Dict, Tuple

import numpy as np

from repro.nn.model import Model

__all__ = ["LayerProfile", "profile_model"]

#: Elements between two samples of the threshold estimate in
#: :func:`_abs_peak_p99`.  Prime, so on a channels-last activation the
#: sample visits every channel unless their count is a multiple of it.
_SAMPLE_STRIDE = 61

#: Share of the sample at or above the threshold.  Four times the 1 %
#: the 99th percentile needs, so sampling error almost never makes the
#: tail too small (which costs a full partition, never a wrong result).
_TAIL_FRACTION = 0.04


@dataclass(frozen=True)
class LayerProfile:
    """Observed value ranges for one layer.

    Attributes
    ----------
    max_abs_output:
        Largest |activation| the layer produced over the profiling set.
    max_abs_weight:
        Largest |parameter| (0.0 for parameter-free layers).
    output_percentile_99:
        Largest per-batch 99th percentile of |activation| — kept for
        diagnostics; the optimizer uses the max, as the paper does.
    """

    max_abs_output: float
    max_abs_weight: float
    output_percentile_99: float

    def __post_init__(self):
        if self.max_abs_output < 0 or self.max_abs_weight < 0:
            raise ValueError("profile magnitudes must be non-negative")


def _abs_peak_p99(out: np.ndarray) -> Tuple[float, float]:
    """``max |out|`` and ``np.percentile(np.abs(out), 99)``, bit for bit
    on a float64 *out*.

    The two order statistics the percentile interpolates between lie in
    the top 1 % of |out|.  A threshold read off a strided sample keeps a
    few percent of the elements; when that tail holds both ranks, only
    the tail is partitioned, and no full-size ``|out|`` is built.
    Otherwise the whole of ``|out|`` is partitioned.  A non-finite *out*
    returns a non-finite peak and a NaN percentile.
    """
    flat = out.reshape(-1)
    lo, hi = float(flat.min()), float(flat.max())
    peak = max(hi, -lo)
    if not math.isfinite(peak):
        return peak, math.nan
    n = flat.size
    index = (n - 1) * 0.99
    lower = math.floor(index)
    gamma = index - lower
    upper = min(lower + 1, n - 1)
    pool, below = flat, 0
    sample = np.abs(flat[::_SAMPLE_STRIDE])
    cut = int(sample.size * (1 - _TAIL_FRACTION))
    if cut > 0:
        threshold = np.partition(sample, cut)[cut]
        keep = flat >= threshold
        if lo < 0:
            keep |= flat <= -threshold
        tail = flat[keep]
        if n - tail.size <= lower:
            pool, below = tail, n - tail.size
    ranks = np.partition(np.abs(pool), [lower - below, upper - below])
    a, b = float(ranks[lower - below]), float(ranks[upper - below])
    # numpy's linear interpolation, which works back from the upper
    # order statistic when gamma >= 0.5.
    if gamma >= 0.5:
        return peak, b - (b - a) * (1 - gamma)
    return peak, a + (b - a) * gamma


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
    max_p99: Dict[str, float] = {}
    for start in range(0, x.shape[0], batch_size):
        batch = x[start:start + batch_size]
        model.forward(batch, training=False)
        for layer in model.layers:
            peak, p99 = _abs_peak_p99(model._last_outputs[layer])
            if not math.isfinite(peak):
                raise ValueError(
                    f"layer {layer.name!r} produced a non-finite activation "
                    f"on profiling rows {start}..{start + len(batch) - 1}")
            max_out[layer.name] = max(max_out.get(layer.name, 0.0), peak)
            max_p99[layer.name] = max(max_p99.get(layer.name, 0.0), p99)
    profiles = {}
    for layer in model.layers:
        w_max = 0.0
        if layer.params:
            w_max = max(float(np.abs(p).max()) for p in layer.params.values())
        profiles[layer.name] = LayerProfile(
            max_abs_output=max_out[layer.name],
            max_abs_weight=w_max,
            output_percentile_99=max_p99[layer.name],
        )
    return profiles
