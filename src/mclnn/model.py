"""Model assembly: architecture specs, initialization, forward pass, io.

A model is a stack of conditional layers (each trading 2n frames for
temporal context), a global mean pool over the k surviving frames, one
dense hidden layer, and a softmax output.  :meth:`TrainedModel.layers`
names every layer with parameters in forward order (``clnn0`` ...,
``dense``, ``output``); the forward pass, the parameter dict and the
parameter checks all walk that one list.  The forward pass runs a whole
``(B, q, l)`` batch of segments through every layer at once; one segment
is a batch of one.  :func:`model_forward_run` takes overlapping segments
as one run of frames and their offsets in it: a leading conditional
layer runs once over the run when that makes fewer rows than the batch
would.  Every entry point shares the walk from the first batched layer
on, and only :func:`model_forward_tape` records a tape.  The conditional
layers keep their arrays in the workspace a caller passes, or in fresh
memory: ``train`` passes its thread's kept one for all of its
mini-batches and its validation.  Masks are derived from the spec, never
stored: a model file round-trips parameters bit-exactly and regenerates
masks on load.  The spec is stored as its dataclass fields and read back
with every field required at its declared type.  The labels, init seed
and init scheme, and the normalization block's source split and id, are
listed in tables that both the writer and the typed reader walk, so a
file holds exactly the fields the reader checks.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import container
from .errors import ContractError, HeaderMismatchError, ValidationError
from .features import NormStats
from .layers import (
    Activation,
    ActivationTape,
    ClnnLayer,
    DenseLayer,
    Layer,
    LinearActivation,
    PRelu,
    Sigmoid,
    Workspace,
    block_forward,
    check_masked_weights,
    dense_forward,
    global_mean_pool,
    softmax,
    stack_blocks,
)
from .mask import MaskSpec, generate_mask

MODEL_MAGIC = b"MCLN"
MODEL_VERSION = 1

INIT_SLOPE = 0.25

__all__ = [
    "LayerSpec",
    "ModelSpec",
    "TrainedModel",
    "segment_size",
    "frame_plan",
    "build_model",
    "model_forward",
    "model_forward_tape",
    "model_forward_run",
    "save_model",
    "load_model",
    "PRESETS",
]


@dataclass(frozen=True)
class LayerSpec:
    """One conditional layer: width, temporal order, optional banding."""

    width: int
    order: int
    bandwidth: int | None = None
    overlap: int | None = None

    def __post_init__(self):
        if self.width < 1:
            raise ValidationError(f"layer width must be >= 1, got {self.width}")
        if (self.bandwidth is None) != (self.overlap is None):
            raise ValidationError("bandwidth and overlap must be given together or not at all")

    @property
    def masked(self) -> bool:
        return self.bandwidth is not None


@dataclass(frozen=True)
class ModelSpec:
    feature_length: int
    layers: tuple[LayerSpec, ...]
    extra_frames: int
    dense_width: int
    class_count: int
    activation: str = "prelu"

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.feature_length < 1:
            raise ValidationError(f"feature_length must be >= 1, got {self.feature_length}")
        if not self.layers:
            raise ValidationError("a model needs at least one conditional layer")
        if self.extra_frames < 1:
            raise ValidationError(f"extra_frames must be >= 1, got {self.extra_frames}")
        if self.dense_width < 1:
            raise ValidationError(f"dense_width must be >= 1, got {self.dense_width}")
        if self.class_count < 1:
            raise ValidationError(f"class_count must be >= 1, got {self.class_count}")
        if self.activation not in _ACTIVATIONS:
            raise ValidationError(
                f"unknown activation {self.activation!r}; choose from {sorted(_ACTIVATIONS)}"
            )
        for i, (layer, l_in) in enumerate(zip(self.layers, self.input_widths())):
            if layer.order < 1:
                raise ValidationError(f"layer {i} has order {layer.order}; orders must be >= 1")
            if layer.masked:
                # the spec of the mask build_model derives: a band that cannot fit
                # its input fails here, where the spec is read, not at build time
                try:
                    MaskSpec(l_in, layer.width, layer.bandwidth, layer.overlap)
                except ValidationError as exc:
                    raise ValidationError(f"layer {i}: {exc}") from exc

    def input_widths(self) -> list[int]:
        """Feature length seen by each conditional layer."""
        return [self.feature_length] + [layer.width for layer in self.layers[:-1]]


def segment_size(spec: ModelSpec) -> int:
    """Frames per segment: q = sum over layers of 2n, plus k."""
    return sum(2 * layer.order for layer in spec.layers) + spec.extra_frames


def frame_plan(spec: ModelSpec) -> list[int]:
    """Frame counts entering each layer and leaving the last.

    Starts at ``segment_size`` and drops 2n per layer, ending at
    ``extra_frames``; every count is at least ``extra_frames`` >= 1.
    """
    plan = [segment_size(spec)]
    for layer in spec.layers:
        plan.append(plan[-1] - 2 * layer.order)
    return plan


# activation name -> a fresh activation for a layer of the given width
_ACTIVATIONS: dict[str, Callable[[int], Activation]] = {
    "prelu": lambda width: PRelu(slopes=np.full(width, INIT_SLOPE)),
    "sigmoid": lambda width: Sigmoid(),
    "linear": lambda width: LinearActivation(),
}


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


@dataclass(eq=False)
class TrainedModel:
    """Architecture plus every parameter tensor and data-side statistics.

    Immutable during inference; training updates the arrays in place and
    needs exclusive access.
    """

    spec: ModelSpec
    clnn_layers: list[ClnnLayer]
    dense: DenseLayer
    output: DenseLayer
    labels: tuple[str, ...]
    norm_stats: NormStats | None = None
    init_seed: int = 0
    init_scheme: str = "glorot-uniform"

    def __post_init__(self):
        self.labels = tuple(self.labels)
        if len(self.labels) != self.spec.class_count:
            raise ValidationError(
                f"{len(self.labels)} labels for {self.spec.class_count} classes"
            )
        repeated = sorted({label for label in self.labels if self.labels.count(label) > 1})
        if repeated:
            raise ValidationError(f"class labels {repeated} name more than one class")

    def __setattr__(self, name, value):
        # Every assignment is checked, ``model.norm_stats = stats`` included.
        if name == "norm_stats" and value is not None:
            if value.mean.shape[0] != self.spec.feature_length:
                raise ValidationError(
                    f"normalization length {value.mean.shape[0]} "
                    f"!= feature length {self.spec.feature_length}"
                )
        super().__setattr__(name, value)

    def layers(self) -> list[tuple[str, Layer]]:
        """``(name, layer)`` in forward order; the name keys parameters and tape records."""
        conditional = [(f"clnn{i}", layer) for i, layer in enumerate(self.clnn_layers)]
        return conditional + [("dense", self.dense), ("output", self.output)]

    def parameters(self) -> dict[str, np.ndarray]:
        """Live views of every trainable tensor, in a fixed key order."""
        params: dict[str, np.ndarray] = {}
        for name, layer in self.layers():
            params[f"{name}.weights"] = layer.weights
            params[f"{name}.bias"] = layer.bias
            if isinstance(layer.activation, PRelu):
                params[f"{name}.slopes"] = layer.activation.slopes
        return params

    def copy_parameters(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.parameters().items()}

    def set_parameters(self, values: dict[str, np.ndarray]) -> None:
        """Copy ``values`` into the live tensors; a rejected call changes nothing."""
        params = self.parameters()
        if set(values) != set(params):
            raise ContractError(
                f"parameter keys differ: {sorted(set(values) ^ set(params))}"
            )
        for key, target in params.items():
            if values[key].shape != target.shape:
                raise ContractError(f"{key}: shape {values[key].shape} != {target.shape}")
            # one tensor at a time, so the check's scratch stays one tensor's size
            if not np.isfinite(values[key]).all():
                raise ContractError(f"{key}: non-finite value(s)")
        for name, layer in self.layers():
            check_masked_weights(values[f"{name}.weights"], layer.mask, f"{name}.weights")
        for key, target in params.items():
            target[...] = values[key]


def build_model(spec: ModelSpec, seed: int, labels: tuple[str, ...] | None = None) -> TrainedModel:
    """Deterministic initialization; the one mask multiply zeroes masked weights."""
    if labels is None:
        labels = tuple(str(i) for i in range(spec.class_count))
    rng = np.random.default_rng(seed)
    widths = spec.input_widths()
    clnn_layers = []
    for layer_spec, l_in in zip(spec.layers, widths):
        e = layer_spec.width
        matrices = 2 * layer_spec.order + 1
        weights = _glorot(rng, l_in, e, (matrices, l_in, e))
        mask = None
        if layer_spec.masked:
            mask = generate_mask(
                MaskSpec(
                    feature_length=l_in,
                    hidden_width=e,
                    bandwidth=layer_spec.bandwidth,
                    overlap=layer_spec.overlap,
                )
            )
            weights = weights * mask.entries
        clnn_layers.append(
            ClnnLayer(
                order=layer_spec.order,
                weights=weights,
                bias=np.zeros(e),
                mask=mask,
                activation=_ACTIVATIONS[spec.activation](e),
            )
        )
    last_width = spec.layers[-1].width
    dense = DenseLayer(
        weights=_glorot(rng, last_width, spec.dense_width, (last_width, spec.dense_width)),
        bias=np.zeros(spec.dense_width),
        activation=_ACTIVATIONS[spec.activation](spec.dense_width),
    )
    output = DenseLayer(
        weights=_glorot(rng, spec.dense_width, spec.class_count, (spec.dense_width, spec.class_count)),
        bias=np.zeros(spec.class_count),
        activation=LinearActivation(),
    )
    return TrainedModel(
        spec=spec,
        clnn_layers=clnn_layers,
        dense=dense,
        output=output,
        labels=labels,
        init_seed=seed,
    )


def _walk(
    model: TrainedModel,
    x: np.ndarray,
    first: int,
    tape: ActivationTape | None = None,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Class probabilities from conditional layer ``first`` on: its input
    ``x`` is a ``(B, frame_plan[first], width)`` batch."""
    named = model.layers()
    conditional = len(model.clnn_layers)
    for name, layer in named[first:conditional]:
        x = block_forward(layer, x, tape=tape, name=name, workspace=workspace)
    x = global_mean_pool(x, tape=tape, name="pool")
    for name, layer in named[conditional:]:
        x = dense_forward(layer, x, tape=tape, name=name)
    return softmax(x)


def _checked_segments(model: TrainedModel, segments: np.ndarray) -> np.ndarray:
    """``segments`` as a float64 ``(B, q, l)`` batch the model takes."""
    segments = np.asarray(segments, dtype=np.float64)
    expected = (segment_size(model.spec), model.spec.feature_length)
    if segments.ndim != 3 or segments.shape[0] < 1 or segments.shape[1:] != expected:
        raise ContractError(
            f"segment batch shape {segments.shape}, model expects (B, {expected[0]}, {expected[1]})"
        )
    return segments


def model_forward_tape(
    model: TrainedModel, segments: np.ndarray, workspace: Workspace | None = None
) -> tuple[np.ndarray, ActivationTape]:
    """Forward pass over a ``(B, q, l)`` batch of segments, recorded for ``backward``.

    Returns the ``(B, c)`` class probabilities and the tape.  The tape ends
    at the output layer's logits, so ``backward`` starts from the loss
    gradient with respect to the logits; softmax is not on it.  The
    conditional layers' activations live in ``workspace`` (fresh memory if
    None), and a batch built by :func:`~mclnn.layers.stack_blocks` reaches
    the first layer without a copy.
    """
    tape = ActivationTape()
    return _walk(model, _checked_segments(model, segments), 0, tape, workspace), tape


def model_forward_run(model: TrainedModel, frames: np.ndarray, starts) -> np.ndarray:
    """Class probabilities for the segments ``frames[s : s + q]``, ``s`` in ``starts``.

    ``frames`` is one ``(T, l)`` run of frames and row ``b`` of the
    ``(B, c)`` result is the segment at ``starts[b]``.  A conditional layer
    is a temporal convolution, so where segments overlap they share its
    output rows: while running leading layer ``i`` over the whole run
    makes fewer rows than the batch would (``T_i - 2n_i < B *
    frame_plan[i + 1]``), it runs over the run.  The segments' windows are
    then cut from that layer's output, or from ``frames`` when no layer
    ran over the run, into one batch by :func:`~mclnn.layers.stack_blocks`,
    and the rest runs batched, as in :func:`model_forward_tape`.  Untaped:
    nothing here feeds ``backward``, and every layer takes fresh memory.
    """
    frames = np.asarray(frames, dtype=np.float64)
    starts = np.asarray(starts)
    plan = frame_plan(model.spec)
    if frames.ndim != 2 or frames.shape[1] != model.spec.feature_length:
        raise ContractError(
            f"run shape {frames.shape}, model expects (T, {model.spec.feature_length})"
        )
    if (
        starts.ndim != 1
        or starts.size < 1
        or not np.issubdtype(starts.dtype, np.integer)
        or starts.min() < 0
        or starts.max() > frames.shape[0] - plan[0]
    ):
        raise ContractError(
            f"segment starts must be a non-empty list of offsets in [0, {frames.shape[0] - plan[0]}]"
        )
    x = frames
    first = 0
    for name, layer in model.layers()[: len(model.clnn_layers)]:
        if x.shape[0] - 2 * layer.order >= starts.size * plan[first + 1]:
            break
        x = block_forward(layer, x, name=name)
        first += 1
    return _walk(model, stack_blocks([x[s : s + plan[first]] for s in starts]), first)


def model_forward(
    model: TrainedModel, segments: np.ndarray, workspace: Workspace | None = None
) -> np.ndarray:
    """Class probabilities for one ``(q, l)`` segment or a ``(B, q, l)`` batch.

    Untaped, like :func:`model_forward_run`: nothing here feeds
    ``backward``.  The conditional layers work in ``workspace``, or in
    fresh memory if None.
    """
    segments = np.asarray(segments)
    if segments.ndim == 2:
        return _walk(model, _checked_segments(model, segments[None]), 0, None, workspace)[0]
    return _walk(model, _checked_segments(model, segments), 0, None, workspace)


# ---------------------------------------------------------------------------
# io
# ---------------------------------------------------------------------------


def _from_header(cls, header: dict):
    """``cls`` from the ``asdict`` of one, every field present at its declared type."""
    declared = {f.name: f.type for f in fields(cls) if f.name != "layers"}
    values = container.typed_fields(header, declared, cls.__name__)
    if cls is ModelSpec:
        values["layers"] = tuple(_from_header(LayerSpec, s) for s in header["layers"])
    return cls(**values)


# the model header's own fields and its norm block's, written by name and
# read at the types TrainedModel and NormStats declare
_MODEL_HEADER = {
    f.name: f.type for f in fields(TrainedModel) if f.name in ("labels", "init_seed", "init_scheme")
}
_NORM_HEADER = {f.name: f.type for f in fields(NormStats) if f.name in ("source_split", "stats_id")}


def save_model(model: TrainedModel, path) -> None:
    """Binary model file; masks are regenerated from the architecture on load."""
    params = model.parameters()
    arrays = list(params.values())
    manifest = [{"name": k, "shape": list(v.shape)} for k, v in params.items()]
    header = {name: getattr(model, name) for name in _MODEL_HEADER}
    header.update(spec=asdict(model.spec), params=manifest, norm=None)
    stats = model.norm_stats
    if stats is not None:
        header["norm"] = {name: getattr(stats, name) for name in _NORM_HEADER}
        header["norm"]["length"] = int(stats.mean.shape[0])
        arrays += [stats.mean, stats.std]
    container.write(path, MODEL_MAGIC, MODEL_VERSION, header, arrays)


def load_model(path) -> TrainedModel:
    def shapes(header):
        declared = [tuple(entry["shape"]) for entry in header["params"]]
        if header["norm"] is not None:
            n = header["norm"]["length"]
            declared += [(n,), (n,)]
        return declared

    header, arrays = container.read(path, MODEL_MAGIC, MODEL_VERSION, shapes)
    try:
        spec = _from_header(ModelSpec, header["spec"])
        own = container.typed_fields(header, _MODEL_HEADER, "model")
        skeleton = build_model(spec, seed=own["init_seed"], labels=tuple(own["labels"]))
        skeleton.init_scheme = own["init_scheme"]
        values = dict(zip((str(entry["name"]) for entry in header["params"]), arrays))
        if header["norm"] is not None:
            norm = container.typed_fields(header["norm"], _NORM_HEADER, "model.norm")
            skeleton.norm_stats = NormStats(mean=arrays[-2], std=arrays[-1], **norm)
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise HeaderMismatchError(f"{path}: header field missing or malformed: {exc!r}") from exc
    try:
        skeleton.set_parameters(values)
    except ContractError as exc:
        raise HeaderMismatchError(f"{path}: parameters do not fit the architecture: {exc}") from exc
    return skeleton


# Reference 10-class configuration: 256 mel bins in, two masked layers
# (220 then 200 nodes, order 4), mean pool over 10 frames, 50-node dense.
PRESETS: dict[str, ModelSpec] = {
    "table3": ModelSpec(
        feature_length=256,
        layers=(
            LayerSpec(width=220, order=4, bandwidth=40, overlap=-10),
            LayerSpec(width=200, order=4, bandwidth=10, overlap=3),
        ),
        extra_frames=10,
        dense_width=50,
        class_count=10,
    ),
}
