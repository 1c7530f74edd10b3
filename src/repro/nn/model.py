"""Functional-graph model: topological execution and reverse-mode autodiff.

A :class:`Model` is defined by input and output :class:`TensorRef` symbols;
the constructor walks the inbound references to recover the full DAG
(including U-Net skip connections), validates it, and caches a topological
order.  ``forward`` executes layers in that order; ``backward`` walks it in
reverse, accumulating gradients where a tensor fans out to several
consumers (e.g. an encoder activation feeding both the pooling path and a
skip connection).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.layer import Layer, TensorRef
from repro.nn.layers.input import InputLayer

__all__ = ["Model"]

ArrayOrList = Union[np.ndarray, Sequence[np.ndarray]]


class Model:
    """A DAG of layers executable forward and backward.

    Parameters
    ----------
    inputs:
        One symbol (or list of symbols) produced by :func:`repro.nn.Input`.
    outputs:
        One symbol (or list) whose producing layers form the model outputs.
    name:
        Optional model name used in summaries and reports.
    """

    def __init__(self, inputs: Union[TensorRef, Sequence[TensorRef]],
                 outputs: Union[TensorRef, Sequence[TensorRef]],
                 name: str = "model"):
        self.name = name
        self._single_input = isinstance(inputs, TensorRef)
        self._single_output = isinstance(outputs, TensorRef)
        self.inputs: List[TensorRef] = [inputs] if self._single_input else list(inputs)
        self.outputs: List[TensorRef] = [outputs] if self._single_output else list(outputs)
        if not self.inputs or not self.outputs:
            raise ValueError("model needs at least one input and one output")
        for t in self.inputs:
            if not isinstance(t.layer, InputLayer):
                raise TypeError(
                    f"model inputs must come from Input(), got {type(t.layer).__name__}"
                )
        self.layers: List[Layer] = self._toposort()
        self._layer_by_name = {l.name: l for l in self.layers}
        if len(self._layer_by_name) != len(self.layers):
            raise ValueError("duplicate layer names in model")
        # consumers[layer] = number of downstream layers reading its output
        self._consumers: Dict[Layer, int] = {l: 0 for l in self.layers}
        for layer in self.layers:
            for ref in layer.inbound:
                self._consumers[ref.layer] += 1
        self._last_outputs: Optional[Dict[Layer, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Graph machinery
    # ------------------------------------------------------------------
    def _toposort(self) -> List[Layer]:
        """Depth-first post-order from the outputs = topological order."""
        order: List[Layer] = []
        state: Dict[Layer, int] = {}  # 1 = on stack, 2 = done

        def visit(layer: Layer) -> None:
            mark = state.get(layer, 0)
            if mark == 2:
                return
            if mark == 1:
                raise ValueError(f"cycle detected at layer {layer.name!r}")
            state[layer] = 1
            for ref in layer.inbound:
                visit(ref.layer)
            state[layer] = 2
            order.append(layer)

        for ref in self.outputs:
            visit(ref.layer)
        # Reachability check: every declared input must be in the graph.
        reached = set(order)
        for ref in self.inputs:
            if ref.layer not in reached:
                raise ValueError(
                    f"input {ref.layer.name!r} is not connected to any output"
                )
        return order

    def get_layer(self, name: str) -> Layer:
        """Look a layer up by name."""
        try:
            return self._layer_by_name[name]
        except KeyError:
            raise KeyError(f"no layer named {name!r} in model {self.name!r}") from None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _coerce_inputs(self, x: ArrayOrList) -> List[np.ndarray]:
        if isinstance(x, np.ndarray):
            arrays = [x]
        else:
            arrays = [np.asarray(a) for a in x]
        if len(arrays) != len(self.inputs):
            raise ValueError(
                f"model {self.name!r} takes {len(self.inputs)} inputs, got {len(arrays)}"
            )
        return arrays

    def forward(self, x: ArrayOrList, training: bool = False) -> ArrayOrList:
        """Run the graph; returns array(s) matching the outputs spec."""
        arrays = self._coerce_inputs(x)
        # The previous pass's activations are stale now; dropping them
        # first keeps one pass's worth alive instead of two.
        self._last_outputs = None
        feed = {ref.layer: arr for ref, arr in zip(self.inputs, arrays)}
        values: Dict[Layer, np.ndarray] = {}
        for layer in self.layers:
            if isinstance(layer, InputLayer):
                values[layer] = layer.forward([feed[layer]], training)
            else:
                ins = [values[ref.layer] for ref in layer.inbound]
                values[layer] = layer.forward(ins, training)
        self._last_outputs = values
        outs = [values[ref.layer] for ref in self.outputs]
        return outs[0] if self._single_output else outs

    def __call__(self, x: ArrayOrList, training: bool = False) -> ArrayOrList:
        return self.forward(x, training=training)

    def predict(self, x: ArrayOrList, batch_size: Optional[int] = None) -> ArrayOrList:
        """Inference-mode forward pass, optionally in mini-batches."""
        if batch_size is None:
            return self.forward(x, training=False)
        arrays = self._coerce_inputs(x)
        n = arrays[0].shape[0]
        chunks = []
        for start in range(0, n, batch_size):
            sl = slice(start, start + batch_size)
            out = self.forward([a[sl] for a in arrays], training=False)
            chunks.append(out if self._single_output else out)
        if self._single_output:
            return np.concatenate(chunks, axis=0)
        return [np.concatenate([c[i] for c in chunks], axis=0)
                for i in range(len(self.outputs))]

    def backward(self, grad: ArrayOrList) -> List[np.ndarray]:
        """Back-propagate dL/d(outputs); returns dL/d(inputs).

        Must follow a ``forward`` call (layers cache their activations).
        Parameter gradients are left in each layer's ``grads`` dict for the
        optimizer to consume.
        """
        if self._last_outputs is None:
            raise RuntimeError("backward called before forward")
        grads_out = [grad] if self._single_output else list(grad)
        if len(grads_out) != len(self.outputs):
            raise ValueError(
                f"expected {len(self.outputs)} output gradients, got {len(grads_out)}"
            )
        pending: Dict[Layer, np.ndarray] = {}
        for ref, g in zip(self.outputs, grads_out):
            g = np.asarray(g, dtype=np.float64)
            if ref.layer in pending:
                pending[ref.layer] = pending[ref.layer] + g
            else:
                pending[ref.layer] = g
        for layer in reversed(self.layers):
            if isinstance(layer, InputLayer):
                continue  # input gradients are collected after the loop
            g = pending.pop(layer, None)
            if g is None:
                continue  # layer not on any path to the loss
            input_grads = layer.backward(g)
            if len(input_grads) != len(layer.inbound):
                raise RuntimeError(
                    f"layer {layer.name!r} returned {len(input_grads)} input "
                    f"grads for {len(layer.inbound)} inputs"
                )
            for ref, ig in zip(layer.inbound, input_grads):
                if ref.layer in pending:
                    pending[ref.layer] = pending[ref.layer] + ig
                else:
                    pending[ref.layer] = ig
        return [
            pending.get(ref.layer, np.zeros((0,)))
            for ref in self.inputs
        ]

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    def trainable_layers(self) -> List[Layer]:
        """Layers owning at least one parameter."""
        return [l for l in self.layers if l.params]

    def count_params(self) -> int:
        """Total trainable parameter count (paper: 134,434 / 100,102)."""
        return sum(l.count_params() for l in self.layers)

    def get_weights(self) -> Dict[str, np.ndarray]:
        """Flat ``{layer/param: array}`` mapping (copies)."""
        out = {}
        for layer in self.layers:
            for key, val in layer.params.items():
                out[f"{layer.name}/{key}"] = val.copy()
            state = getattr(layer, "state", None)
            if state:
                for key, val in state.items():
                    out[f"{layer.name}/state/{key}"] = val.copy()
        return out

    def set_weights(self, weights: Dict[str, np.ndarray]) -> None:
        """Load weights produced by :meth:`get_weights` (strict matching)."""
        expected = set(self.get_weights())
        given = set(weights)
        if expected != given:
            missing = sorted(expected - given)[:5]
            extra = sorted(given - expected)[:5]
            raise ValueError(
                f"weight key mismatch; missing={missing} extra={extra}"
            )
        for layer in self.layers:
            for key in layer.params:
                arr = np.asarray(weights[f"{layer.name}/{key}"], dtype=np.float64)
                if arr.shape != layer.params[key].shape:
                    raise ValueError(
                        f"shape mismatch for {layer.name}/{key}: "
                        f"{arr.shape} vs {layer.params[key].shape}"
                    )
                layer.params[key] = arr.copy()
            state = getattr(layer, "state", None)
            if state:
                for key in state:
                    state[key] = np.asarray(
                        weights[f"{layer.name}/state/{key}"], dtype=np.float64
                    ).copy()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Keras-style text summary with parameter counts."""
        lines = [f"Model: {self.name}"]
        header = f"{'Layer':<28}{'Type':<20}{'Output shape':<18}{'Params':>10}"
        lines.append(header)
        lines.append("-" * len(header))
        for layer in self.layers:
            lines.append(
                f"{layer.name:<28}{type(layer).__name__:<20}"
                f"{str(layer.output_shape):<18}{layer.count_params():>10}"
            )
        lines.append("-" * len(header))
        lines.append(f"Total params: {self.count_params():,}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Model {self.name!r}: {len(self.layers)} layers, {self.count_params():,} params>"
