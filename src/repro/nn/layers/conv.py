"""1-D convolution.

Implements the ``Conv1D`` layer used by the paper's U-Net encoder/decoder.
Stride is fixed at 1 (the U-Net downsamples via pooling layers, not via
strided convs) and padding may be ``"same"`` or ``"valid"``.

The forward pass is ``kernel_size`` float64 BLAS GEMMs, one per kernel
tap, each over the flattened zero-padded input shifted by that tap.  The
backward pass windows the padded input with
:func:`numpy.lib.stride_tricks.sliding_window_view` and correlates the
zero-padded output gradient with the flipped kernel (a full correlation).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn import initializers
from repro.nn.layer import Layer, Shape
from repro.utils.rng import SeedLike, default_rng

__all__ = ["Conv1D"]

#: Padded input rows per block of the forward GEMMs (about 2k rows keeps
#: each block's tap buffers in a core's L2 cache).
_BLOCK_ROWS = 2048


class Conv1D(Layer):
    """Cross-correlation over the length axis of ``(batch, length, channels)``.

    Parameters
    ----------
    filters:
        Number of output channels.
    kernel_size:
        Receptive field length (odd sizes recommended with ``"same"``).
    padding:
        ``"same"`` keeps the length; ``"valid"`` shrinks it by
        ``kernel_size - 1``.
    use_bias, seed:
        As for :class:`~repro.nn.layers.dense.Dense`.
    """

    def __init__(self, filters: int, kernel_size: int, padding: str = "same",
                 use_bias: bool = True, seed: SeedLike = 0,
                 name: Optional[str] = None):
        super().__init__(name)
        if filters <= 0:
            raise ValueError(f"filters must be positive, got {filters}")
        if kernel_size <= 0:
            raise ValueError(f"kernel_size must be positive, got {kernel_size}")
        if padding not in ("same", "valid"):
            raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.padding = padding
        self.use_bias = bool(use_bias)
        self._rng = default_rng(seed)
        self._windows: Optional[np.ndarray] = None
        self._input_length = 0
        #: optional fixed-point weight quantizer (set by repro.nn.qat)
        self.weight_quantizer = None
        self._kernel_q: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _pad_amounts(self) -> Tuple[int, int]:
        if self.padding == "valid":
            return 0, 0
        total = self.kernel_size - 1
        left = total // 2
        return left, total - left

    def build(self, input_shapes: Sequence[Shape]) -> None:
        (shape,) = input_shapes
        if len(shape) != 2:
            raise ValueError(
                f"Conv1D expects (length, channels) inputs, got shape {shape}"
            )
        channels = int(shape[-1])
        k = self.kernel_size
        fan_in = k * channels
        fan_out = k * self.filters
        self.params["kernel"] = initializers.glorot_uniform(
            (k, channels, self.filters), fan_in, fan_out, self._rng
        )
        if self.use_bias:
            self.params["bias"] = initializers.zeros((self.filters,))

    def compute_output_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        (shape,) = input_shapes
        length = int(shape[0])
        if self.padding == "valid":
            length = length - self.kernel_size + 1
            if length <= 0:
                raise ValueError(
                    f"kernel {self.kernel_size} too large for length {shape[0]}"
                )
        return (length, self.filters)

    # ------------------------------------------------------------------
    def forward(self, inputs: List[np.ndarray], training: bool = False) -> np.ndarray:
        (x,) = inputs
        left, right = self._pad_amounts()
        self._input_length = x.shape[1]
        x = np.asarray(x, dtype=np.float64)
        if left or right:
            x = np.pad(x, ((0, 0), (left, right), (0, 0)))
        k = self.kernel_size
        # (batch, out_len, channels, kernel), read by backward
        self._windows = sliding_window_view(x, k, axis=1)
        if self.weight_quantizer is None:
            self._kernel_q = self.params["kernel"]
        else:
            from repro.fixed import quantize

            self._kernel_q = quantize(self.params["kernel"],
                                      self.weight_quantizer)
        # Sample b's output row t reads padded rows t..t+k-1, so over the
        # flattened padded input, tap j is one GEMM on the rows shifted by
        # j.  Blocks of samples keep the tap buffers in cache; the k - 1
        # rows per sample that straddle two samples are dropped.
        n, padded_len, channels = x.shape
        out_len = padded_len - k + 1
        flat = x.reshape(n * padded_len, channels)
        block = max(1, _BLOCK_ROWS // padded_len)
        acc = np.empty((block * padded_len, self.filters))
        tap = np.empty_like(acc)
        bias = self.params["bias"] if self.use_bias else 0.0
        y = np.empty((n, out_len, self.filters))
        for first in range(0, n, block):
            m = min(block, n - first)
            base = first * padded_len
            rows = m * padded_len - k + 1
            np.matmul(flat[base:base + rows], self._kernel_q[0],
                      out=acc[:rows])
            for j in range(1, k):
                np.matmul(flat[base + j:base + j + rows], self._kernel_q[j],
                          out=tap[:rows])
                acc[:rows] += tap[:rows]
            np.add(acc[:m * padded_len].reshape(m, padded_len, -1)[:, :out_len],
                   bias, out=y[first:first + m])
        return y

    def backward(self, grad: np.ndarray) -> List[np.ndarray]:
        if self._windows is None:
            raise RuntimeError("backward called before forward")
        k = self.kernel_size
        self.grads["kernel"] = np.einsum(
            "ntck,ntf->kcf", self._windows, grad, optimize=True
        )
        if self.use_bias:
            self.grads["bias"] = grad.sum(axis=(0, 1))
        # Full correlation of grad with the flipped kernel gives the
        # gradient w.r.t. the *padded* input; slice the padding back off.
        grad_pad = np.pad(grad, ((0, 0), (k - 1, k - 1), (0, 0)))
        gwin = sliding_window_view(grad_pad, k, axis=1)  # (n, Lp, f, k)
        kernel = (self._kernel_q if self._kernel_q is not None
                  else self.params["kernel"])
        flipped = kernel[::-1]  # (k, c, f)
        dx_pad = np.einsum("ntfk,kcf->ntc", gwin, flipped, optimize=True)
        left, _right = self._pad_amounts()
        dx = dx_pad[:, left:left + self._input_length, :]
        return [dx]

    def get_config(self):
        cfg = super().get_config()
        cfg.update(filters=self.filters, kernel_size=self.kernel_size,
                   padding=self.padding, use_bias=self.use_bias)
        return cfg
