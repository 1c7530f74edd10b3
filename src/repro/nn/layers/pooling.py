"""1-D pooling layers (max and average).

Both follow Keras ``padding="valid"`` semantics with
``stride == pool_size``: a trailing remainder that does not fill a whole
window is dropped (260 → 130 → 65 in the reference U-Net).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.nn.layer import Layer, Shape

__all__ = ["MaxPooling1D", "AveragePooling1D"]


class _Pooling1D(Layer):
    """Shared machinery: window reshape plus remainder trimming."""

    def __init__(self, pool_size: int = 2, name: Optional[str] = None):
        super().__init__(name)
        if pool_size <= 1:
            raise ValueError(f"pool_size must be >= 2, got {pool_size}")
        self.pool_size = int(pool_size)
        self._input_shape = None

    def compute_output_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        (shape,) = input_shapes
        if len(shape) != 2:
            raise ValueError(f"pooling expects (length, channels), got {shape}")
        out_len = int(shape[0]) // self.pool_size
        if out_len == 0:
            raise ValueError(
                f"pool_size {self.pool_size} larger than length {shape[0]}"
            )
        return (out_len, shape[1])

    def _window(self, x: np.ndarray) -> np.ndarray:
        n, length, c = x.shape
        out_len = length // self.pool_size
        self._input_shape = x.shape
        trimmed = x[:, : out_len * self.pool_size, :]
        return trimmed.reshape(n, out_len, self.pool_size, c)

    def _expand(self, grad_windows: np.ndarray) -> np.ndarray:
        n, length, c = self._input_shape
        out_len = grad_windows.shape[1]
        dx = np.zeros((n, length, c), dtype=grad_windows.dtype)
        dx[:, : out_len * self.pool_size, :] = grad_windows.reshape(
            n, out_len * self.pool_size, c
        )
        return dx

    def get_config(self):
        cfg = super().get_config()
        cfg["pool_size"] = self.pool_size
        return cfg


class MaxPooling1D(_Pooling1D):
    """Maximum over non-overlapping windows; backward routes the gradient
    to the argmax position of each window (ties go to the first maximum,
    matching the hardware comparator tree)."""

    def __init__(self, pool_size: int = 2, name: Optional[str] = None):
        super().__init__(pool_size, name)
        self._x = None

    def forward(self, inputs: List[np.ndarray], training: bool = False) -> np.ndarray:
        (x,) = inputs
        p = self.pool_size
        end = (x.shape[1] // p) * p
        self._x = x
        # Elementwise max of the p strided slices (one per window offset).
        y = np.maximum(x[:, 0:end:p], x[:, 1:end:p])
        for j in range(2, p):
            np.maximum(y, x[:, j:end:p], out=y)
        return y

    def backward(self, grad: np.ndarray) -> List[np.ndarray]:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        argmax = self._window(self._x).argmax(axis=2)
        n, out_len, c = grad.shape
        gw = np.zeros((n, out_len, self.pool_size, c), dtype=grad.dtype)
        np.put_along_axis(gw, argmax[:, :, None, :], grad[:, :, None, :], axis=2)
        return [self._expand(gw)]


class AveragePooling1D(_Pooling1D):
    """Mean over non-overlapping windows; backward spreads the gradient
    uniformly across each window."""

    def forward(self, inputs: List[np.ndarray], training: bool = False) -> np.ndarray:
        (x,) = inputs
        return self._window(x).mean(axis=2)

    def backward(self, grad: np.ndarray) -> List[np.ndarray]:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        gw = np.repeat(grad[:, :, None, :], self.pool_size, axis=2) / self.pool_size
        return [self._expand(gw)]
