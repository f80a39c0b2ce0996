"""Model assembly: architecture specs, initialization, forward pass, io.

A model is a stack of conditional layers (each trading 2n frames for
temporal context), a global mean pool over the k surviving frames, one
dense hidden layer, and a softmax output.  The dense and output layers are
order-0 :class:`~mclnn.layers.ClnnLayer` objects holding one ``(d, e)``
matrix, the shape their parameters and model-file entries keep.
:meth:`TrainedModel.layers` names every layer with parameters in forward
order (``clnn0`` ..., ``dense``, ``output``).  One table derived from the
spec lists each such layer's name, order, weight shape, mask and
activation, so masks are never stored.  :func:`build_model` draws values
over that table and :func:`load_model` reads them from a file, and both
hand them to one assembler; one function checks parameter values, for the
assembler and :meth:`TrainedModel.set_parameters` alike.  The forward pass
runs a whole ``(B, q, l)`` batch of segments through every layer at once;
one segment is a batch of one.  :func:`model_forward_run` takes
overlapping segments as one run of frames and their offsets in it: a
leading conditional layer runs once over the run when that makes fewer
rows than the batch would.  Every entry point shares the walk from the
first batched layer on, and only :func:`model_forward_tape` records a
tape.  The conditional layers keep their arrays in the workspace a caller
passes, or in fresh memory: ``train`` passes its thread's kept one for all
of its mini-batches and its validation.  A model file round-trips
parameters bit-exactly; its spec, labels, init seed and scheme, and
normalization block are read back with every field required at its
declared type, from tables that the writer walks too.  One function turns
a parsed file into a model; :func:`load_model` hands it to the container
reader, which maps what it refuses, and :func:`save_model` runs it on what
it is about to write, over the model's own masks in place of the ones a
load generates.
Each mask must have the :class:`MaskSpec` its spec layer names, and
:func:`generate_mask` makes one mask per ``MaskSpec``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import container
from .errors import ContractError, ValidationError
from .features import NormStats
from .layers import (
    ActivationTape,
    ClnnLayer,
    LinearActivation,
    PRelu,
    Sigmoid,
    Workspace,
    _Fixed,
    block_forward,
    dense_forward,
    global_mean_pool,
    softmax,
    stack_blocks,
)
from .mask import BinaryMask, MaskSpec, generate_mask

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
                # the spec of the mask the layer table derives: a band that cannot fit
                # its input fails here, where the spec is read, not at build or load
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


# activation name -> a layer's activation class; PReLU slopes are parameters
_ACTIVATIONS = {"prelu": PRelu, "sigmoid": Sigmoid, "linear": LinearActivation}


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _layer_table(spec: ModelSpec, masks: list[BinaryMask | None] | None = None) -> list[tuple]:
    """``(name, order, weights shape, mask, activation class)`` of every layer
    with parameters, in forward order: ``clnn0`` ..., ``dense``, ``output``.
    A weights shape is ``(2n+1, fan_in, width)``, or ``(fan_in, width)`` at
    order 0.  ``masks`` are the conditional layers'; None generates them,
    and given ones must be the masks the spec's layers name.
    """
    widths = spec.input_widths()
    named = [MaskSpec(l_in, layer.width, layer.bandwidth, layer.overlap) if layer.masked else None
             for layer, l_in in zip(spec.layers, widths)]
    if masks is None:
        masks = [None if mask_spec is None else generate_mask(mask_spec) for mask_spec in named]
    elif len(masks) != len(spec.layers):
        raise ContractError(f"{len(masks)} conditional layers for a spec of {len(spec.layers)}")
    for i, (mask, mask_spec) in enumerate(zip(masks, named)):
        if (None if mask is None else mask.spec) != mask_spec:
            held = "no mask" if mask is None else f"a mask of {mask.spec}"
            raise ContractError(f"clnn{i} holds {held} where the spec names {mask_spec}")
    kind = _ACTIVATIONS[spec.activation]
    table = [
        (f"clnn{i}", layer.order, (2 * layer.order + 1, l_in, layer.width), mask, kind)
        for i, (layer, l_in, mask) in enumerate(zip(spec.layers, widths, masks))
    ]
    table.append(("dense", 0, (spec.layers[-1].width, spec.dense_width), None, kind))
    table.append(("output", 0, (spec.dense_width, spec.class_count), None, LinearActivation))
    return table


def _parameter_shapes(table: list[tuple]) -> dict[str, tuple]:
    """The key and shape of every tensor :meth:`TrainedModel.parameters` gives
    ``table``'s layers, in its key order."""
    shapes = {}
    for name, _, shape, _, kind in table:
        shapes |= {f"{name}.weights": shape, f"{name}.bias": shape[-1:]}
        if kind is PRelu:
            shapes[f"{name}.slopes"] = shape[-1:]
    return shapes


def _checked_layers(table: list[tuple], values: dict[str, np.ndarray]) -> list[ClnnLayer]:
    """The layers of ``table`` over ``values``' own arrays, once every value check passes.

    The one place parameter values are checked: ``values`` holds exactly
    the keys :meth:`TrainedModel.parameters` gives the table's layers, each
    at its shape there and finite, and each layer's construction rejects a
    non-zero weight where its mask is 0.  A ``ContractError`` names the
    first tensor that fails.
    """
    shapes = _parameter_shapes(table)
    if set(values) != set(shapes):
        raise ContractError(f"parameter keys differ: {sorted(set(values) ^ set(shapes))}")
    for key, shape in shapes.items():
        if values[key].shape != shape:
            raise ContractError(f"{key}: shape {values[key].shape} != {shape}")
        # one tensor at a time, so the check's scratch stays one tensor's size
        if not np.isfinite(values[key]).all():
            raise ContractError(f"{key}: non-finite value(s)")
    layers = []
    for name, order, _, mask, kind in table:
        activation = kind(values[f"{name}.slopes"]) if kind is PRelu else kind()
        weights, bias = values[f"{name}.weights"], values[f"{name}.bias"]
        try:
            layers.append(ClnnLayer(order, weights, bias, mask, activation))
        except ContractError as exc:  # every shape fits, so only the masked-weight check
            raise ContractError(f"{name}.{exc}") from exc
    return layers


@dataclass(eq=False)
class TrainedModel(_Fixed):
    """Architecture plus every parameter tensor and data-side statistics.

    Immutable during inference; training updates the arrays in place and
    needs exclusive access.  Every field is checked at construction and is
    then fixed (see :class:`~mclnn.layers._Fixed`), except ``norm_stats``,
    which may be set again through its length check.
    """

    spec: ModelSpec
    clnn_layers: tuple[ClnnLayer, ...]
    dense: ClnnLayer
    output: ClnnLayer
    labels: tuple[str, ...]
    norm_stats: NormStats | None = None
    init_seed: int = 0
    init_scheme: str = "glorot-uniform"

    def __post_init__(self):
        object.__setattr__(self, "clnn_layers", tuple(self.clnn_layers))
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != self.spec.class_count:
            raise ValidationError(
                f"{len(self.labels)} labels for {self.spec.class_count} classes"
            )
        repeated = sorted({label for label in self.labels if self.labels.count(label) > 1})
        if repeated:
            raise ValidationError(f"class labels {repeated} name more than one class")
        if self.init_seed < 0:
            raise ValidationError(f"init_seed must be >= 0, got {self.init_seed}")

    def __setattr__(self, name, value):
        if name != "norm_stats":
            return super().__setattr__(name, value)
        if value is not None and value.mean.shape[0] != self.spec.feature_length:
            raise ValidationError(
                f"normalization length {value.mean.shape[0]} "
                f"!= feature length {self.spec.feature_length}"
            )
        object.__setattr__(self, name, value)

    def layers(self) -> list[tuple[str, ClnnLayer]]:
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
        """Copy ``values`` into the live tensors once they pass a loaded model's
        checks, against this model's own masks; a rejected call changes nothing."""
        masks = [layer.mask for layer in self.clnn_layers]
        _checked_layers(_layer_table(self.spec, masks), values)
        for key, target in self.parameters().items():
            target[...] = values[key]


def _assemble(spec: ModelSpec, table: list[tuple], values: dict, **fields) -> TrainedModel:
    """The model whose layers hold ``values``' own arrays; build and load both end here."""
    *clnn_layers, dense, output = _checked_layers(table, values)
    return TrainedModel(spec, clnn_layers, dense, output, **fields)


def build_model(spec: ModelSpec, seed: int, labels: tuple[str, ...] | None = None) -> TrainedModel:
    """Deterministic initialization: each layer's Glorot-uniform weights drawn
    from one generator in table order, its mask multiplied in once, biases at
    zero and PReLU slopes at ``INIT_SLOPE``, all checked as a loaded model's are."""
    if labels is None:
        labels = tuple(str(i) for i in range(spec.class_count))
    rng = np.random.default_rng(seed)
    table = _layer_table(spec)
    values = {}
    for name, _, shape, mask, kind in table:
        weights = values[f"{name}.weights"] = _glorot(rng, *shape[-2:], shape)
        if mask is not None:
            weights *= mask.entries
        values[f"{name}.bias"] = np.zeros(shape[-1])
        if kind is PRelu:
            values[f"{name}.slopes"] = np.full(shape[-1], INIT_SLOPE)
    return _assemble(spec, table, values, labels=labels, init_seed=seed)


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
    """Binary model file; masks are regenerated from the architecture on load.

    Before the file is opened, what :func:`load_model` does with a file
    after reading it runs on the header as it will be read back and the
    arrays as written, over the model's own masks, each of which must have
    the :class:`MaskSpec` its spec layer names.  A model that this check
    rejects raises ``ContractError`` for a parameter value and
    ``ValidationError`` for anything else, and no file is written.
    """
    masks = [layer.mask for layer in model.clnn_layers]
    container.write(path, MODEL_MAGIC, MODEL_VERSION, *_file_contents(model),
                    lambda header, arrays: _from_file(header, arrays, masks))


def _file_contents(model: TrainedModel) -> tuple[dict, list[np.ndarray]]:
    """The header and arrays of ``model``'s file, as :func:`save_model` writes them."""
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
    return header, arrays


def _from_file(header: dict, arrays: list[np.ndarray], masks=None) -> TrainedModel:
    """The model a parsed file's header and arrays make; the one definition of a
    loadable model file, run by :func:`load_model` and, before it writes, by
    :func:`save_model`.  ``masks`` are the conditional layers'; None generates them.

    Raises ``ContractError`` for a parameter that does not fit, ``KeyError``,
    ``TypeError`` or ``ValueError`` for a missing, mistyped or repeated
    field, and ``ValidationError`` for a value out of bounds.
    """
    spec = _from_header(ModelSpec, header["spec"])
    own = container.typed_fields(header, _MODEL_HEADER, "model")
    if header["norm"] is not None:
        norm = container.typed_fields(header["norm"], _NORM_HEADER, "model.norm")
        own["norm_stats"] = NormStats(mean=arrays[-2], std=arrays[-1], **norm)
    names = [str(entry["name"]) for entry in header["params"]]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"parameters {repeated} are listed more than once")
    return _assemble(spec, _layer_table(spec, masks), dict(zip(names, arrays)), **own)


def load_model(path) -> TrainedModel:
    """The model a file holds, assembled over its arrays as read; nothing is drawn.

    A file that :func:`_from_file` refuses is a ``HeaderMismatchError``
    naming it, raised by :func:`mclnn.container.read`.
    """
    def shapes(header):
        declared = [tuple(entry["shape"]) for entry in header["params"]]
        if header["norm"] is not None:
            n = header["norm"]["length"]
            declared += [(n,), (n,)]
        return declared

    return container.read(path, MODEL_MAGIC, MODEL_VERSION, shapes, _from_file)


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
