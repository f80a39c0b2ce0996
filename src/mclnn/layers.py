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

Conditional layers compute on time-major ``(t, B, l)`` memory: frame
``i`` of every segment sits in one contiguous ``(B, l)`` slab, so the
window rows for offset ``d`` are the contiguous view ``x[d : d + t - 2n]``
in the forward, the weight gradient and the input gradient alike.  What
callers see is the ``(B, t, l)`` transpose of that memory.
:func:`stack_blocks` is the one place that lays a batch out this way:
training, validation and prediction build their batches with it.  An
input already laid out that way, such as the previous layer's output, is
used as it is; any other input is copied once, by the same builder.

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

:func:`block_forward` and ``backward`` keep their arrays in the
:class:`Workspace` they are given, in buffers keyed by record name, and
take fresh memory when given none; the forwards of the pool and the
dense layers make a few vectors per segment and allocate them.  The
training loop passes its thread's one workspace to every mini-batch of
every run: each batch writes into the memory the one before it used, a
smaller batch into a prefix of it.  A first batch is
just an empty workspace, so there is no second path for reuse.

All accumulations run in a fixed order (window offset ``-n .. n``, tape
order reversed, rows frame-major), so repeated runs are bit-identical at
a fixed BLAS thread count.

A conditional layer splits its work between two Python threads where the
split leaves every number as it was.  The forward cuts its output rows
into two fixed slabs; each slab runs the same per-offset GEMMs, bias add
and activation into its own rows.  The edge depends only on the row
count: rows before it are a multiple of 48 and each slab has at least 48
rows (a smaller layer is one slab), because OpenBLAS computes a row the
same way in either GEMM only then.  ``backward`` runs the weight-gradient
GEMMs and the input-gradient sum as two tasks, since neither reads the
other; the first record has no input gradient, so its offsets form the
two tasks.  No GEMM's operands change.  The second thread is used when
the process has two CPUs and BLAS is pinned to one thread (the first of
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS``
that is set is ``1``), decided once at import; otherwise the tasks run
in order on the calling thread, since a threaded BLAS already uses the
cores.  The result never depends on which of the two happens.  Every
:class:`Workspace` buffer is taken on the calling thread before the
tasks start, and the tasks call only NumPy and activation methods.

The same runner, :func:`_run_tasks`, has one other user:
:func:`mclnn.features.stft_power` runs its two groups of spectrum blocks
through it, under the same worker rule.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable, Mapping
from concurrent.futures import ThreadPoolExecutor, wait
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
    "Workspace",
    "stack_blocks",
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


# the bits of float64 1.0, for the select in PRelu.derivative
_ONE_BITS = np.float64(1.0).view(np.int64)


@dataclass(eq=False)
class PRelu:
    """Learnable rectifier: ``z`` where ``z > 0``, ``slopes * z`` elsewhere.

    ``slopes`` has one entry per neuron; the owning layer checks its length.
    Each method writes into ``out`` when one is given.
    """

    slopes: np.ndarray

    def apply(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # z * derivative(z) is exactly z (times 1.0) or slopes * z
        out = self.derivative(z, out)
        out *= z
        return out

    def derivative(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """1.0 where ``z > 0``, the slope elsewhere.

        Selected on the bit patterns: all-ones bits where ``z > 0`` swap the
        slope's bits for 1.0's.  That copies values exactly, as ``np.where``
        does, and runs several times faster on rows whose signs alternate.
        """
        out = np.empty(np.shape(z)) if out is None else out
        bits = out.view(np.int64)
        np.negative(np.greater(z, 0).view(np.int8), out=bits)
        slope_bits = np.asarray(self.slopes, dtype=np.float64).view(np.int64)
        bits &= slope_bits ^ _ONE_BITS
        bits ^= slope_bits
        return out

    def slope_gradient(
        self, z: np.ndarray, upstream: np.ndarray, terms: np.ndarray | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        # d(prelu)/d(slope) is z where z <= 0 and 0 elsewhere, i.e. (z <= 0) * z;
        # ``terms`` is scratch shaped like ``z``
        terms = np.less_equal(z, 0, out=np.empty(np.shape(z)) if terms is None else terms)
        terms *= z
        terms *= upstream
        return np.sum(terms.reshape(-1, z.shape[-1]), axis=0, out=out)


@dataclass
class Sigmoid:
    def apply(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.negative(z, out=np.empty(np.shape(z)) if out is None else out)
        np.exp(out, out=out)
        np.add(1.0, out, out=out)
        return np.divide(1.0, out, out=out)

    def derivative(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        s = self.apply(z, out)
        s *= 1.0 - s
        return s


@dataclass
class LinearActivation:
    def apply(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            return z
        np.copyto(out, z)
        return out

    def derivative(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            return np.ones_like(z)
        out[...] = 1.0
        return out


Activation = PRelu | Sigmoid | LinearActivation


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


@dataclass(eq=False)
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


@dataclass(eq=False)
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


class Workspace:
    """Float64 buffers by key, kept for whoever asks for the same key again.

    :meth:`take` hands out a C-contiguous array over the front of the key's
    flat buffer and grows the buffer when the request does not fit, so a
    smaller request reuses a prefix of the memory a larger one left.  A
    buffer holds whatever its last user wrote: every caller writes all of
    what it takes before reading it.  Only the thread that calls a layer
    function takes from it; the layers' second thread never does.
    """

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def take(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(key)
        if flat is None or flat.size < size:
            flat = self._flat[key] = np.empty(size)
        return flat[:size].reshape(shape)


@dataclass(eq=False)
class LayerRecord:
    name: str
    layer: Layer
    inputs: np.ndarray      # ([B,] t, l) conditional, ([B,] in) dense
    pre: np.ndarray         # ([B,] t - 2n, e) conditional, ([B,] out) dense
    outputs: np.ndarray     # shaped like pre


@dataclass(eq=False)
class PoolRecord:
    name: str
    inputs: np.ndarray      # ([B,] k, e)
    outputs: np.ndarray     # ([B,] e)


TapeRecord = LayerRecord | PoolRecord


class ActivationTape:
    """Ordered cache of one forward pass, sufficient for exact gradients.

    A record's name keys its gradients and its workspace buffers, so names
    are unique on a tape.
    """

    def __init__(self):
        self.records: list[TapeRecord] = []

    def append(self, record: TapeRecord) -> None:
        if any(r.name == record.name for r in self.records):
            raise ContractError(f"record name {record.name!r} is already on the tape")
        self.records.append(record)


def _buffers(workspace: Workspace | None) -> Workspace:
    """``workspace``, or fresh memory for a call given none."""
    return Workspace() if workspace is None else workspace


def stack_blocks(blocks, workspace: Workspace | None = None, key: str = "blocks") -> np.ndarray:
    """The ``(B, t, w)`` batch of ``B`` equally shaped ``(t, w)`` blocks.

    The blocks are copied once into time-major ``(t, B, w)`` memory, taken
    from ``workspace`` under ``key`` (fresh memory if None), and the batch
    is the transposed view of it, which :func:`block_forward` reads in
    place.  Blocks of different shapes raise :class:`ShapeError`.
    """
    shapes = {np.shape(b) for b in blocks}
    if len(shapes) != 1 or len(next(iter(shapes))) != 2:
        raise ShapeError(f"a batch needs equally shaped (t, w) blocks, got shapes {sorted(shapes)}")
    t, w = shapes.pop()
    out = _buffers(workspace).take(key, (t, len(blocks), w))
    return np.stack(blocks, axis=1, out=out).transpose(1, 0, 2)


# ---------------------------------------------------------------------------
# two threads
# ---------------------------------------------------------------------------


# the variables OpenBLAS reads its thread count from, first match wins
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# slab edges fall on multiples of this many rows, and a slab has at least this many
_SLAB_ROWS = 48


def _worker_count(environ: Mapping[str, str], cpus: int) -> int:
    """2 when there are two CPUs and BLAS is pinned to one thread, else 1."""
    setting = next((environ[name] for name in _BLAS_THREAD_VARIABLES if name in environ), None)
    return 2 if cpus >= 2 and setting == "1" else 1


_WORKERS = _worker_count(
    os.environ,
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
)
_second: ThreadPoolExecutor | None = None
_second_lock = threading.Lock()


def _forget_second_worker() -> None:
    # a forked child has no thread behind the parent's executor
    global _second
    _second = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_second_worker)


def _run_tasks(tasks: list[Callable[[], None]]) -> None:
    """Run every task: the first on the calling thread, the rest on a second one.

    With one worker the tasks run in order on the calling thread.  Tasks
    write disjoint memory, so the result is the same either way.
    """
    if _WORKERS == 1 or len(tasks) == 1:
        for task in tasks:
            task()
        return
    global _second
    with _second_lock:
        if _second is None:
            _second = ThreadPoolExecutor(max_workers=1, thread_name_prefix="mclnn-layers")
        futures = [_second.submit(task) for task in tasks[1:]]
    try:
        tasks[0]()
    finally:
        wait(futures)  # the other tasks' memory is the caller's again only after this
    for future in futures:
        future.result()


def _slab_edge(rows: int) -> int | None:
    """The first row of the second forward slab, or None for one slab.

    The edge is the multiple of ``_SLAB_ROWS`` nearest the middle; under
    ``2 * _SLAB_ROWS`` rows there is none.
    """
    if rows < 2 * _SLAB_ROWS:
        return None
    return (rows + _SLAB_ROWS) // (2 * _SLAB_ROWS) * _SLAB_ROWS


def _time_major(block: np.ndarray) -> np.ndarray:
    """The ``(t, B, w)`` transpose of a ``([B,] t, w)`` block, as a view."""
    return block.reshape(-1, *block.shape[-2:]).transpose(1, 0, 2)


def _batch_major(x: np.ndarray, batch: tuple[int, ...]) -> np.ndarray:
    """The ``(*batch, t, w)`` view of a ``(t, B, w)`` array; ``batch`` is ``(B,)`` or ``()``."""
    return x.transpose(1, 0, 2).reshape(*batch, *x.shape[::2])


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def block_forward(
    layer: ClnnLayer,
    block: np.ndarray,
    tape: ActivationTape | None = None,
    name: str = "clnn",
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Slide the layer's window over ``block``.

    Args:
        layer: the conditional layer.
        block: ``(t, l)`` array of consecutive frames, or a ``(B, t, l)``
            batch of such blocks; ``t >= 2*order + 1``.  A batch whose
            memory is time-major is read in place; any other is copied
            once, through :func:`stack_blocks`.
        tape: optional tape to record the pass on.
        name: record name used to key this layer's gradients and buffers.
        workspace: where the pass keeps its arrays; fresh memory if None.

    Returns:
        ``([B,] t - 2*order, e)`` array; output frame ``i`` is the window
        response for input frames ``[i, i + 2*order]``.  A batch is the
        transpose of time-major memory.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim not in (2, 3) or block.shape[-1] != layer.input_width:
        raise ShapeError.mismatch(
            "block frames", ("[B,] t", layer.input_width), block.shape
        )
    if block.shape[-2] < 2 * layer.order + 1:
        raise InsufficientFramesError(layer.order, block.shape[-2])
    space = _buffers(workspace)
    x = _time_major(block)
    if not x.flags.c_contiguous:  # one copy, so that every window below is a view
        x = _time_major(stack_blocks(block.reshape(-1, *block.shape[-2:]), space, f"{name}.inputs"))
    t_out, segments = x.shape[0] - 2 * layer.order, x.shape[1]
    rows = t_out * segments
    pre = space.take(f"{name}.pre", (t_out, segments, layer.weights.shape[2]))
    product = space.take(f"{name}.scratch", (rows, pre.shape[2]))
    out = space.take(f"{name}.outputs", pre.shape)
    flat_x, flat_pre, flat_out = (a.reshape(-1, a.shape[2]) for a in (x, pre, out))

    def slab(r0: int, r1: int) -> Callable[[], None]:
        def run() -> None:
            # bias + x_0 @ W_0 + x_1 @ W_1 + ..., added in that order
            total = np.matmul(flat_x[r0:r1], layer.weights[0], out=flat_pre[r0:r1])
            total += layer.bias
            for d in range(1, 2 * layer.order + 1):
                shifted = d * segments  # offset d's rows start d frames later
                np.matmul(flat_x[shifted + r0 : shifted + r1], layer.weights[d], out=product[r0:r1])
                total += product[r0:r1]
            layer.activation.apply(total, flat_out[r0:r1])
        return run

    edge = _slab_edge(rows)
    _run_tasks([slab(0, rows)] if edge is None else [slab(0, edge), slab(edge, rows)])
    batch = block.shape[:-2]
    out = _batch_major(out, batch)
    if tape is not None:
        tape.append(LayerRecord(name, layer, _batch_major(x, batch), _batch_major(pre, batch), out))
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


def backward(
    tape: ActivationTape, loss_gradient: np.ndarray, workspace: Workspace | None = None
) -> dict[str, np.ndarray]:
    """Reverse-mode gradients for every parameter recorded on the tape.

    Args:
        tape: a completed forward pass, batched or not.
        loss_gradient: gradient of the loss with respect to the output of
            the tape's final record, shaped like that output.
        workspace: where the gradients and their scratch live; fresh
            memory if None.  It may be the forward's own workspace.

    Returns:
        dict mapping ``"<record name>.<weights|bias|slopes>"`` to gradient
        arrays shaped like the parameters, summed over the batch.  Masked
        weight gradients are gated by the mask, so masked-out entries are
        exactly zero.  The gradient with respect to the first record's
        input is never needed, so it is not computed.  Conditional layers
        sum rows frame by frame, each frame over the batch.
    """
    if not tape.records:
        raise ContractError("backward needs a tape with at least one record")
    space = _buffers(workspace)
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
            g = np.broadcast_to(np.expand_dims(g / k, -2), rec.inputs.shape)
            continue
        if not isinstance(rec, LayerRecord):
            raise ContractError(f"unknown tape record type {type(rec).__name__}")
        layer, name = rec.layer, rec.name
        conditional = isinstance(layer, ClnnLayer)
        # conditional layers work on their time-major memory, dense ones as recorded
        x, pre, g = (_time_major(a) if conditional else a for a in (rec.inputs, rec.pre, g))
        dpre = layer.activation.derivative(pre, space.take(f"{name}.dpre", pre.shape))
        np.multiply(g, dpre, out=dpre)
        flat_dpre = dpre.reshape(-1, dpre.shape[-1])
        dw = grads[f"{name}.weights"] = space.take(f"{name}.weights.grad", layer.weights.shape)
        grads[f"{name}.bias"] = np.sum(
            flat_dpre, axis=0, out=space.take(f"{name}.bias.grad", layer.bias.shape)
        )
        if isinstance(layer.activation, PRelu):
            grads[f"{name}.slopes"] = layer.activation.slope_gradient(
                pre, g, space.take(f"{name}.scratch", pre.shape),
                space.take(f"{name}.slopes.grad", layer.bias.shape),
            )
        if conditional:
            dx = product = None
            if index > 0:
                dx = space.take(f"{name}.inputs.grad", x.shape)
                product = space.take(f"{name}.scratch", (flat_dpre.shape[0], x.shape[2]))
            _run_tasks(_gradient_tasks(layer, x, flat_dpre, dw, dx, product))
            if dx is None:
                break
            g = _batch_major(dx, rec.inputs.shape[:-2])
            continue
        np.matmul(x.reshape(-1, x.shape[-1]).T, flat_dpre, out=dw)
        if index == 0:
            break
        g = np.matmul(
            dpre, layer.weights.T, out=space.take(f"{name}.inputs.grad", rec.inputs.shape)
        )
    return grads


def _gradient_tasks(
    layer: ClnnLayer, x: np.ndarray, flat_dpre: np.ndarray, dw: np.ndarray,
    dx: np.ndarray | None, product: np.ndarray | None,
) -> list[Callable[[], None]]:
    """A conditional layer's gradient GEMMs as independent tasks.

    One task writes ``dw``, one GEMM per window offset; the other sums the
    input gradient into ``dx``, offsets in order, through ``product``.
    Without ``dx`` (the first record) the weight GEMMs' offsets are split
    into two tasks instead.
    """
    t_out, rows = x.shape[0] - 2 * layer.order, flat_dpre.shape[0]
    offsets = range(2 * layer.order + 1)

    def weights(group: range) -> Callable[[], None]:
        def run() -> None:
            for d in group:
                np.matmul(x[d : d + t_out].reshape(rows, -1).T, flat_dpre, out=dw[d])
                if layer.mask is not None:
                    dw[d] *= layer.mask.entries  # keeps masked weights exactly zero
        return run

    def inputs() -> None:
        dx[...] = 0.0
        for d in offsets:
            np.matmul(flat_dpre, layer.weights[d].T, out=product)
            dx[d : d + t_out] += product.reshape(t_out, x.shape[1], -1)

    if dx is not None:
        return [inputs, weights(offsets)]
    half = (len(offsets) + 1) // 2
    return [weights(group) for group in (offsets[:half], offsets[half:]) if group]
