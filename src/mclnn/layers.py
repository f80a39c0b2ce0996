"""Conditional layers over temporal frame windows, and their gradients.

A conditional layer of order ``n`` owns ``2n + 1`` weight matrices, one per
frame of a sliding window.  The output vector for a window is

    f(bias + sum_u  x[u] @ Z[u]),   u = -n .. n

where ``x[u]`` is the frame at window offset ``u`` and ``Z[u]`` is the
weight matrix for that offset, zero wherever the layer's binary mask is
0.  Applied across a block of ``t`` frames the layer emits ``t - 2n``
frames: output frame ``i`` summarizes input frames ``[i, i + 2n]`` and
sits at the window's middle position ``i + n``.  That makes the layer a
1-D temporal convolution with kernel ``2n + 1``.

Every forward function takes an optional leading batch axis: a
conditional layer maps ``(B, t, l)`` to ``(B, t - 2n, e)``, the pool
``(B, k, e)`` to ``(B, e)``, dense and softmax ``(B, d)`` to ``(B, d')``.
An input without the batch axis is a batch of one and comes back without
it.  A batched conditional layer runs ``2n + 1`` GEMMs of shape
``(B * (t - 2n), l) @ (l, e)``, one per window offset, so a whole
mini-batch costs as many matrix products as one segment.

Gradients come from walking an :class:`ActivationTape` backwards.  The
tape records each layer itself, conditional or dense, with its inputs,
pre-activations and outputs, so ``backward`` has one branch for layers
with parameters; only the weight GEMM and the input gradient depend on
the layer's kind.  Weight gradients sum over the batch, so ``backward``
returns the gradient of whatever the loss gradient it starts from
describes (a batch mean when it starts from ``(p - onehot) / B``).  A
masked connection does not exist, so its weight is exactly zero:
:func:`check_masked_weights` guards every way weights come in,
``backward`` gates masked gradients to keep them zero, and the forward
uses the stored weights as they are.

All accumulations run in a fixed order (window offset ``-n .. n``, tape
order reversed), so repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import ContractError, InsufficientFramesError, ShapeError
from .mask import BinaryMask

__all__ = [
    "PRelu",
    "Sigmoid",
    "LinearActivation",
    "ClnnLayer",
    "ActivationTape",
    "effective_weights",
    "check_masked_weights",
    "window_forward",
    "block_forward",
    "global_mean_pool",
    "dense_forward",
    "softmax",
    "backward",
]


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


@dataclass
class PRelu:
    """Learnable rectifier: ``z`` where ``z > 0``, ``slopes * z`` elsewhere.

    ``slopes`` has one entry per neuron; the owning layer checks its length.
    """

    slopes: np.ndarray

    def apply(self, z: np.ndarray) -> np.ndarray:
        return np.where(z > 0, z, self.slopes * z)

    def derivative(self, z: np.ndarray) -> np.ndarray:
        return np.where(z > 0, 1.0, self.slopes)

    def slope_gradient(self, z: np.ndarray, upstream: np.ndarray) -> np.ndarray:
        # d(prelu)/d(slope) is z on the non-positive branch, 0 elsewhere.
        contrib = upstream * np.where(z > 0, 0.0, z)
        return contrib.reshape(-1, z.shape[-1]).sum(axis=0)


@dataclass
class Sigmoid:
    def apply(self, z: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-z))

    def derivative(self, z: np.ndarray) -> np.ndarray:
        s = self.apply(z)
        return s * (1.0 - s)


@dataclass
class LinearActivation:
    def apply(self, z: np.ndarray) -> np.ndarray:
        return z

    def derivative(self, z: np.ndarray) -> np.ndarray:
        return np.ones_like(z)


Activation = PRelu | Sigmoid | LinearActivation


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


@dataclass
class ClnnLayer:
    """One conditional layer; its weights are exactly zero wherever its mask is 0.

    Attributes:
        order: frames considered on each side of the window's middle frame.
        weights: tensor of shape ``(2*order + 1, l, e)``; index ``d`` holds
            the matrix for window offset ``u = d - order``, so earlier
            frames pair with lower indices.
        bias: vector of length ``e``.
        mask: optional ``l x e`` binary mask shared by every weight matrix;
            construction rejects weights that are non-zero where it is 0.
        activation: :class:`PRelu`, :class:`Sigmoid` or
            :class:`LinearActivation`.
    """

    order: int
    weights: np.ndarray
    bias: np.ndarray
    mask: BinaryMask | None = None
    activation: Activation = field(default_factory=LinearActivation)

    def __post_init__(self):
        if self.order < 0:
            raise ContractError(f"layer order must be >= 0, got {self.order}")
        w = self.weights
        if w.ndim != 3 or w.shape[0] != 2 * self.order + 1:
            raise ShapeError(
                f"weights must have shape (2*order+1, l, e) = "
                f"({2 * self.order + 1}, l, e), got {w.shape}"
            )
        _check_neuron_vectors(self, w.shape[2])
        if self.mask is not None and self.mask.entries.shape != w.shape[1:]:
            raise ShapeError.mismatch("layer mask", w.shape[1:], self.mask.entries.shape)
        check_masked_weights(w, self.mask)

    @property
    def input_width(self) -> int:
        return self.weights.shape[1]


@dataclass
class DenseLayer:
    """Per-vector fully connected layer ``y = f(x @ weights + bias)``."""

    weights: np.ndarray
    bias: np.ndarray
    activation: Activation = field(default_factory=LinearActivation)
    mask: ClassVar[None] = None  # every connection exists

    def __post_init__(self):
        if self.weights.ndim != 2:
            raise ShapeError(f"dense weights must be 2-D, got shape {self.weights.shape}")
        _check_neuron_vectors(self, self.weights.shape[1])


Layer = ClnnLayer | DenseLayer


def _check_neuron_vectors(layer: Layer, width: int) -> None:
    """The bias and any PReLU slopes hold one entry per output neuron."""
    if layer.bias.shape != (width,):
        raise ShapeError.mismatch("bias", (width,), layer.bias.shape)
    if isinstance(layer.activation, PRelu) and layer.activation.slopes.shape != (width,):
        raise ShapeError.mismatch("prelu slopes", (width,), layer.activation.slopes.shape)


def check_masked_weights(weights: np.ndarray, mask: BinaryMask | None, what: str = "weights") -> None:
    """Reject a ``(2n+1, l, e)`` tensor that is non-zero anywhere ``mask`` is 0."""
    if mask is None:
        return
    dead = mask.entries == 0.0
    # one matrix at a time: a whole-tensor gather would copy most of the weights
    stray = sum(np.count_nonzero(matrix[dead]) for matrix in weights)
    if stray:
        raise ContractError(f"{what}: {stray} non-zero weight(s) where the mask is 0")


def effective_weights(layer: ClnnLayer) -> np.ndarray:
    """``layer.weights`` as stored: masked weights are zero already, so no mask
    is applied.  Kept for callers that read a layer's weights by this name."""
    return layer.weights


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------


@dataclass
class LayerRecord:
    name: str
    layer: Layer
    inputs: np.ndarray      # ([B,] t, l) conditional, ([B,] in) dense
    pre: np.ndarray         # ([B,] t - 2n, e) conditional, ([B,] out) dense
    outputs: np.ndarray     # shaped like pre


@dataclass
class PoolRecord:
    name: str
    inputs: np.ndarray      # ([B,] k, e)
    outputs: np.ndarray     # ([B,] e)


TapeRecord = LayerRecord | PoolRecord


class ActivationTape:
    """Ordered cache of one forward pass, sufficient for exact gradients."""

    def __init__(self):
        self.records: list[TapeRecord] = []

    def append(self, record: TapeRecord) -> None:
        self.records.append(record)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def _window_rows(block: np.ndarray, d: int, t_out: int) -> np.ndarray:
    """Frames ``d .. d + t_out - 1`` of every segment in a ``(B, t, l)`` block,
    as one ``(B * t_out, l)`` matrix (a copy unless ``B == 1``)."""
    return block[:, d : d + t_out].reshape(-1, block.shape[2])


def block_forward(
    layer: ClnnLayer,
    block: np.ndarray,
    tape: ActivationTape | None = None,
    name: str = "clnn",
) -> np.ndarray:
    """Slide the layer's window over ``block``.

    Args:
        layer: the conditional layer.
        block: ``(t, l)`` array of consecutive frames, or a ``(B, t, l)``
            batch of such blocks; ``t >= 2*order + 1``.
        tape: optional tape to record the pass on.
        name: record name used to key this layer's gradients.

    Returns:
        ``([B,] t - 2*order, e)`` array; output frame ``i`` is the window
        response for input frames ``[i, i + 2*order]``.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim not in (2, 3) or block.shape[-1] != layer.input_width:
        raise ShapeError.mismatch(
            "block frames", ("[B,] t", layer.input_width), block.shape
        )
    if block.shape[-2] < 2 * layer.order + 1:
        raise InsufficientFramesError(layer.order, block.shape[-2])
    x = block.reshape(-1, *block.shape[-2:])
    t_out = x.shape[1] - 2 * layer.order
    pre = np.tile(layer.bias, (x.shape[0] * t_out, 1))
    for d in range(2 * layer.order + 1):
        pre += _window_rows(x, d, t_out) @ layer.weights[d]
    pre = pre.reshape(*block.shape[:-2], t_out, -1)
    out = layer.activation.apply(pre)
    if tape is not None:
        tape.append(LayerRecord(name, layer, block, pre, out))
    return out


def window_forward(layer: ClnnLayer, window: np.ndarray) -> np.ndarray:
    """Response vector for one full window of exactly ``2*order + 1`` frames."""
    window = np.asarray(window, dtype=np.float64)
    expected = 2 * layer.order + 1
    if window.ndim != 2 or window.shape[0] != expected:
        actual = window.shape[0] if window.ndim == 2 else window.shape
        raise ContractError(f"window_forward expects exactly {expected} frame(s), got {actual}")
    return block_forward(layer, window)[0]


def global_mean_pool(
    block: np.ndarray,
    tape: ActivationTape | None = None,
    name: str = "pool",
) -> np.ndarray:
    """Per-dimension mean across the temporal axis of a ``([B,] k, e)`` block."""
    block = np.asarray(block, dtype=np.float64)
    if block.ndim not in (2, 3) or block.shape[-2] < 1:
        raise ContractError(
            f"global_mean_pool needs a non-empty ([B,] k, e) block, got shape {block.shape}"
        )
    out = block.mean(axis=-2)
    if tape is not None:
        tape.append(PoolRecord(name, block, out))
    return out


def dense_forward(
    layer: DenseLayer,
    x: np.ndarray,
    tape: ActivationTape | None = None,
    name: str = "dense",
) -> np.ndarray:
    """``f(x @ weights + bias)`` for a vector ``x`` or a ``(B, in)`` batch of them."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != layer.weights.shape[0]:
        raise ShapeError.mismatch("dense input", ("[B,]", layer.weights.shape[0]), x.shape)
    pre = x @ layer.weights + layer.bias
    out = layer.activation.apply(pre)
    if tape is not None:
        tape.append(LayerRecord(name, layer, x, pre, out))
    return out


def softmax(x: np.ndarray) -> np.ndarray:
    """Probabilities along the last axis via max-subtracted exponentials."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ContractError("softmax input must be non-empty")
    shifted = np.exp(x - x.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def backward(tape: ActivationTape, loss_gradient: np.ndarray) -> dict[str, np.ndarray]:
    """Reverse-mode gradients for every parameter recorded on the tape.

    Args:
        tape: a completed forward pass, batched or not.
        loss_gradient: gradient of the loss with respect to the output of
            the tape's final record, shaped like that output.

    Returns:
        dict mapping ``"<record name>.<weights|bias|slopes>"`` to gradient
        arrays shaped like the parameters, summed over the batch.  Masked
        weight gradients are gated by the mask, so masked-out entries are
        exactly zero.  The gradient with respect to the first record's
        input is never needed, so it is not computed.
    """
    if not tape.records:
        raise ContractError("backward needs a tape with at least one record")
    grads: dict[str, np.ndarray] = {}
    g = np.asarray(loss_gradient, dtype=np.float64)
    for index in range(len(tape.records) - 1, -1, -1):
        rec = tape.records[index]
        if g.shape != rec.outputs.shape:
            raise ShapeError.mismatch(
                f"gradient flowing into record {rec.name!r}", rec.outputs.shape, g.shape
            )
        if isinstance(rec, PoolRecord):
            k = rec.inputs.shape[-2]
            g = np.repeat(np.expand_dims(g / k, -2), k, axis=-2)
        elif isinstance(rec, LayerRecord):
            layer = rec.layer
            dpre = (g * layer.activation.derivative(rec.pre)).reshape(-1, rec.pre.shape[-1])
            if isinstance(layer, ClnnLayer):
                x = rec.inputs.reshape(-1, *rec.inputs.shape[-2:])
                t_out = rec.pre.shape[-2]
                dw = np.empty_like(layer.weights)
                for d in range(2 * layer.order + 1):
                    dw[d] = _window_rows(x, d, t_out).T @ dpre
            else:
                dw = rec.inputs.reshape(-1, rec.inputs.shape[-1]).T @ dpre
            if layer.mask is not None:
                dw *= layer.mask.entries  # keeps masked weights exactly zero
            grads[f"{rec.name}.weights"] = dw
            grads[f"{rec.name}.bias"] = dpre.sum(axis=0)
            if isinstance(layer.activation, PRelu):
                grads[f"{rec.name}.slopes"] = layer.activation.slope_gradient(rec.pre, g)
            if index and isinstance(layer, ClnnLayer):
                dx = np.zeros_like(x)
                for d in range(2 * layer.order + 1):
                    dx[:, d : d + t_out] += (dpre @ layer.weights[d].T).reshape(x.shape[0], t_out, -1)
                g = dx.reshape(rec.inputs.shape)
            elif index:
                g = (dpre @ layer.weights.T).reshape(rec.inputs.shape)
        else:
            raise ContractError(f"unknown tape record type {type(rec).__name__}")
    return grads
