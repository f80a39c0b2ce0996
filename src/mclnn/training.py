"""Training loop, clip-level evaluation, the experiment runner, and gradient checking.

:func:`run_experiment` is one training run of the paper's protocol on
loaded clips: give each plan bucket its role (a fold plan's from the
test and validation fold numbers), check and split the clips, segment
them, build the model, fit the z-score statistics on the training split,
check every clip against them, train, and vote per clip on the test
split.  It writes nothing onto the clips, so one loaded list serves any
number of runs.  ``mclnn train`` reads its inputs, calls it and writes
what it returns.

The optimizer is deliberately plain: mini-batch gradient descent with
optional classical momentum, a fixed shuffle per epoch from one seeded
generator, and validation-loss early stopping that snapshots the best
parameters.  Each mini-batch is one batched forward and one ``backward``
from the mean cross-entropy's logit gradient.  Every batch, in training,
validation and prediction alike, is laid out by
:func:`~mclnn.layers.stack_blocks`.  Each thread keeps one
:class:`~mclnn.layers.Workspace` for every mini-batch's frames,
activations and gradients, and every ``train`` call on that thread uses
it, so after a thread's first batch a step allocates nothing large and a
later run does not fault its memory in again; the update scales each
gradient in place.  The workspace holds, under each buffer name, the
largest batch's buffer the thread has trained (about 25 MB at ``table3``
with batch 64) until the thread ends.  A smaller batch writes a prefix of
it, and every buffer is written before it is read, so a run gives the
same bits on kept memory as on fresh.  Validation runs untaped in chunks
of ``batch_size`` segments, in the same workspace.  Prediction takes
fresh memory, and a clip's segments run in chunks of
:data:`PREDICT_CHUNK`.  Each chunk goes to the model as one run of frames
in which overlapping segments whose frames agree share their common
frames, so a conditional layer can run once over the run instead of once
per segment.  Every reduction runs in a fixed order, so a (seed, config,
data) triple maps to bit-identical parameters and reports at a fixed
BLAS thread count.  The conditional layers may split their work over two
threads (see :mod:`mclnn.layers`); they split only where every number
stays the same, so neither a training run nor a prediction depends on
whether they do.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .dataset import TEST, TRAIN, VALIDATION, Segment, SplitPlan, fold_buckets, segment_clip
from .errors import ConfigError, ContractError, TrainingDivergedError, ValidationError
from .features import FeatureMatrix, NormStats, _check_zscore, _fit_zscore, _zscore
from .layers import PoolRecord, Workspace, backward, stack_blocks
from .model import (
    ModelSpec,
    TrainedModel,
    build_model,
    model_forward,
    model_forward_run,
    model_forward_tape,
    segment_size,
)

logger = logging.getLogger(__name__)

LOSS_EPS = 1e-12
OPTIMIZERS = ("sgd", "momentum")
# Most segments one inference forward takes at a time; bounds the memory a
# long clip's forward holds.
PREDICT_CHUNK = 64

# each thread's training workspace, kept from one ``train`` call to the next
_kept = threading.local()

__all__ = [
    "TrainConfig",
    "EpochStats",
    "RunReport",
    "confusion_lines",
    "cross_entropy",
    "cross_entropy_grad",
    "train",
    "predict_clip",
    "evaluate",
    "EvalResult",
    "run_experiment",
    "bucket_roles",
    "grad_check",
    "GradCheckReport",
]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 64
    epochs: int = 200
    seed: int = 0
    patience: int = 10
    hop: int | None = None  # None: segment hop defaults to q (non-overlapping)
    optimizer: str = "momentum"  # one of OPTIMIZERS
    momentum: float = 0.9

    def __post_init__(self):
        if not 0 <= self.learning_rate < math.inf:
            raise ValidationError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1 or self.epochs < 1 or self.patience < 1:
            raise ValidationError("batch_size, epochs, and patience must all be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.hop is not None and self.hop < 1:
            raise ValidationError(f"hop must be >= 1, got {self.hop}")
        if self.optimizer not in OPTIMIZERS:
            names = " or ".join(map(repr, OPTIMIZERS))
            raise ValidationError(f"optimizer must be {names}, got {self.optimizer!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError(f"momentum must be in [0, 1), got {self.momentum}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    train_accuracy: float
    validation_loss: float | None
    validation_accuracy: float | None


@dataclass(eq=False)
class RunReport:
    config: dict
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int | None = None
    stopped_early: bool = False
    test_accuracy: float | None = None
    confusion: np.ndarray | None = None
    class_names: tuple[str, ...] = ()
    wall_clock_seconds: float = 0.0

    def to_text(self) -> str:
        """Structured text: key-value lines plus a confusion grid.

        wall_clock is reported but sits on its own clearly-marked line so
        deterministic comparisons can strip it.
        """
        lines = ["[config]"]
        for key, value in sorted(self.config.items()):
            lines.append(f"{key} = {value!r}")
        lines.append("")
        lines.append("[epochs]")
        lines.append("epoch\ttrain_loss\ttrain_acc\tval_loss\tval_acc")
        for s in self.epochs:
            val_loss = "-" if s.validation_loss is None else repr(s.validation_loss)
            val_acc = "-" if s.validation_accuracy is None else repr(s.validation_accuracy)
            lines.append(
                f"{s.epoch}\t{s.train_loss!r}\t{s.train_accuracy!r}\t{val_loss}\t{val_acc}"
            )
        lines.append("")
        lines.append("[result]")
        lines.append(f"best_epoch = {self.best_epoch}")
        lines.append(f"stopped_early = {self.stopped_early}")
        lines.append(f"test_accuracy = {self.test_accuracy!r}")
        if self.confusion is not None:
            lines.append("")
            lines.append("[confusion]")
            names = self.class_names or [str(i) for i in range(self.confusion.shape[0])]
            lines += confusion_lines(self.confusion, names)
        lines.append("")
        lines.append(f"wall_clock_seconds = {self.wall_clock_seconds!r}")
        return "\n".join(lines) + "\n"

    def deterministic_text(self) -> str:
        """Report text without the wall-clock line (the only timing field)."""
        return "\n".join(
            line for line in self.to_text().splitlines()
            if not line.startswith("wall_clock_seconds")
        ) + "\n"


def confusion_lines(confusion: np.ndarray, names) -> list[str]:
    """The ``true\\pred`` table: a row per true class, a column per class plus "none"."""
    rows = [["true\\pred", *names, "none"]]
    rows += [[names[i], *(str(int(v)) for v in row)] for i, row in enumerate(confusion)]
    return ["\t".join(row) for row in rows]


def _targets(pred: np.ndarray, target) -> np.ndarray:
    """``target`` as an integer array with one class id per row of ``pred``."""
    target = np.asarray(target)
    c = pred.shape[-1]
    if (
        target.shape != pred.shape[:-1]
        or not np.issubdtype(target.dtype, np.integer)
        or np.any((target < 0) | (target >= c))
    ):
        raise ValidationError(
            f"target {target.tolist()!r} is not one class id in [0, {c}) per row of "
            f"predictions shaped {pred.shape}"
        )
    return target


def cross_entropy(pred: np.ndarray, target) -> float | np.ndarray:
    """-log p[target], with p floored at 1e-12.

    ``pred`` is one probability vector and ``target`` an int, giving a
    float; or ``pred`` is a ``(B, c)`` batch and ``target`` holds B class
    ids, giving the B per-segment losses.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = _targets(pred, target)
    picked = np.take_along_axis(pred, target[..., None], axis=-1)[..., 0]
    losses = -np.log(np.maximum(picked, LOSS_EPS))
    return float(losses) if pred.ndim == 1 else losses


def cross_entropy_grad(pred: np.ndarray, target) -> np.ndarray:
    """Gradient of the mean cross-entropy with respect to the logits.

    With ``pred = softmax(logits)`` over a ``(B, c)`` batch (or one
    vector, B = 1), the gradient of ``mean(-log pred[b, target[b]])`` is
    ``(pred - onehot(target)) / B``.  Softmax and the logarithm cancel, so
    it stays finite and non-zero even when ``pred[target]`` underflows;
    the 1e-12 floor of :func:`cross_entropy` only bounds the reported loss.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = _targets(pred, target)
    grad = pred.copy()
    rows = grad.reshape(-1, grad.shape[-1])
    rows[np.arange(rows.shape[0]), target.reshape(-1)] -= 1.0
    return grad / rows.shape[0]


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def _stack(
    segments: list[Segment], workspace: Workspace | None = None, stats: NormStats | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Frames as one ``(B, q, l)`` batch, built by :func:`~mclnn.layers.stack_blocks`
    in ``workspace``, and labels as a length-B array.  With ``stats``, the
    rows of raw segments are normalized in the batch, never in the clips."""
    frames = stack_blocks([s.frames for s in segments], workspace, "segments")
    if stats is not None:
        _zscore(frames, stats, np.array([not s.normalized for s in segments])[:, None, None])
    return frames, np.array([s.label for s in segments])


def _dataset_loss(
    model: TrainedModel, segments: list[Segment], batch_size: int, workspace: Workspace | None = None
) -> tuple[float, float]:
    """Mean segment loss and segment-level accuracy, from untaped forwards."""
    total, correct = 0.0, 0
    for start in range(0, len(segments), batch_size):
        frames, targets = _stack(segments[start : start + batch_size], workspace, model.norm_stats)
        probs = model_forward(model, frames, workspace)
        total += float(cross_entropy(probs, targets).sum())
        correct += int(np.count_nonzero(np.argmax(probs, axis=1) == targets))
    n = len(segments)
    return total / n, correct / n


def train(
    model: TrainedModel,
    train_segments: list[Segment],
    config: TrainConfig,
    validation_segments: list[Segment] | None = None,
) -> tuple[TrainedModel, RunReport]:
    """Mini-batch gradient descent with early stopping on validation loss.

    The model is updated in place and also returned.  With a validation
    set, the parameters restored at the end are the best-validation-loss
    snapshot, never anything worse.  The first mini-batch whose loss is
    not finite raises :class:`TrainingDivergedError` naming its epoch and
    batch (both counted from 1), before any update from it.  A training or
    validation segment without a class id of the model raises
    ``ValidationError`` naming its clip before the first update.  Segments
    not marked ``normalized`` are z-scored under ``model.norm_stats`` batch
    by batch; whether marked ones used those statistics is not checked here.

    Every batch's frames, activations and gradients, validation's too, live
    in the calling thread's workspace, kept across calls: the thread holds
    the buffers of the largest batch it has trained until it ends.
    """
    if not train_segments:
        raise ValidationError("training split is empty")
    for segment in (*train_segments, *(validation_segments or ())):
        _check_label(segment.clip_id, segment.label, model.spec.class_count)
    started = time.monotonic()
    rng = np.random.default_rng(config.seed)
    params = model.parameters()
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    workspace = getattr(_kept, "workspace", None)
    if workspace is None:
        workspace = _kept.workspace = Workspace()
    report = RunReport(config=asdict(config), class_names=model.labels)

    best_loss = np.inf
    best_params: dict[str, np.ndarray] | None = None
    best_epoch: int | None = None
    epochs_since_best = 0

    order = np.arange(len(train_segments))
    for epoch in range(1, config.epochs + 1):
        rng.shuffle(order)
        epoch_loss, epoch_correct = 0.0, 0
        for batch_index, batch_start in enumerate(range(0, len(order), config.batch_size), 1):
            batch = order[batch_start : batch_start + config.batch_size]
            frames, targets = _stack([train_segments[i] for i in batch], workspace, model.norm_stats)
            probs, tape = model_forward_tape(model, frames, workspace)
            batch_loss = float(cross_entropy(probs, targets).sum())
            if not np.isfinite(batch_loss):
                raise TrainingDivergedError(
                    epoch=epoch, loss=batch_loss / len(batch), batch=batch_index
                )
            epoch_loss += batch_loss
            epoch_correct += int(np.count_nonzero(np.argmax(probs, axis=1) == targets))
            grads = backward(tape, cross_entropy_grad(probs, targets), workspace)
            for key in params:
                step = grads[key]
                step *= config.learning_rate  # the gradient is not needed again
                if config.optimizer == "momentum":
                    velocity[key] *= config.momentum
                    velocity[key] -= step
                    params[key] += velocity[key]
                else:
                    params[key] -= step
        train_loss = epoch_loss / len(train_segments)
        train_acc = epoch_correct / len(train_segments)

        val_loss = val_acc = None
        if validation_segments:
            val_loss, val_acc = _dataset_loss(model, validation_segments, config.batch_size, workspace)
            if not np.isfinite(val_loss):
                raise TrainingDivergedError(epoch=epoch, loss=val_loss)
        report.epochs.append(EpochStats(epoch, train_loss, train_acc, val_loss, val_acc))

        monitored = val_loss if validation_segments else train_loss
        if monitored < best_loss:
            best_loss = monitored
            best_params = model.copy_parameters()
            best_epoch = epoch
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                report.stopped_early = True
                logger.info("early stop at epoch %d (best epoch %d)", epoch, best_epoch)
                break

    if best_params is not None:
        model.set_parameters(best_params)
    report.best_epoch = best_epoch
    report.wall_clock_seconds = time.monotonic() - started
    return model, report


# ---------------------------------------------------------------------------
# evaluation and the experiment runner
# ---------------------------------------------------------------------------


def _run(segments: list[Segment], stats: NormStats | None) -> tuple[np.ndarray, np.ndarray]:
    """Start-sorted segments as one run of frames, z-scored if ``stats``, and their offsets.

    A segment whose first ``q - g`` frames equal the last ones of its
    predecessor, ``g`` frames earlier (``0 < g < q``), adds only its last
    ``g`` frames; any other segment adds all ``q``.  Sharing follows from
    the frame values, not from how the frames are stored.
    """
    q = segments[0].frames.shape[0]
    pieces, offsets = [segments[0].frames], [0]
    for prev, seg in zip(segments, segments[1:]):
        g = seg.start - prev.start
        if 0 < g < q and np.array_equal(prev.frames[g:], seg.frames[: q - g]):
            pieces.append(seg.frames[q - g :])
        else:
            pieces.append(seg.frames)
            g = q
        offsets.append(offsets[-1] + g)
    run = np.concatenate(pieces)  # a fresh array
    if stats is not None:
        _zscore(run, stats)
    return run, np.array(offsets)


def predict_clip(model: TrainedModel, segments: list[Segment]) -> tuple[int, np.ndarray]:
    """Majority vote over segment predictions.

    Ties go to the higher mean probability across the clip's segments,
    then to the lower class id.  Segments are processed in a canonical
    order, in forwards of at most :data:`PREDICT_CHUNK` segments, so the
    result is invariant to how the list is arranged.  Each forward is one
    :func:`model_forward_run` over the chunk's run (see :func:`_run`),
    z-scored as in :func:`train`; every segment must be ``(q, l)`` for the model.
    """
    if not segments:
        raise ContractError("predict_clip needs at least one segment")
    clip_ids = {s.clip_id for s in segments}
    if len(clip_ids) != 1:
        raise ContractError(f"segments from multiple clips passed together: {sorted(clip_ids)}")
    if len({s.normalized for s in segments}) != 1:
        raise ContractError(f"clip {segments[0].clip_id!r} mixes raw and normalized segments")
    expected = (segment_size(model.spec), model.spec.feature_length)
    shapes = {np.shape(s.frames) for s in segments} - {expected}
    if shapes:
        raise ContractError(f"segment frames shaped {sorted(shapes)}, model expects {expected}")
    ordered = sorted(segments, key=lambda s: s.start)
    stats = None if segments[0].normalized else model.norm_stats
    probs = np.concatenate([
        model_forward_run(model, *_run(ordered[start : start + PREDICT_CHUNK], stats))
        for start in range(0, len(ordered), PREDICT_CHUNK)
    ])
    votes = np.bincount(np.argmax(probs, axis=1), minlength=model.spec.class_count)
    mean_probs = probs.sum(axis=0) / len(ordered)
    tied = np.flatnonzero(votes == votes.max())
    # argmax prefers the first (lowest id) among equal means
    return int(tied[np.argmax(mean_probs[tied])]), mean_probs


@dataclass(eq=False)
class EvalResult:
    clip_accuracy: float
    confusion: np.ndarray  # c x (c+1); last column: clips with no segments
    per_clip: dict[str, int]  # clip id -> predicted class (-1: no segments)

    def __post_init__(self):
        if not 0.0 <= self.clip_accuracy <= 1.0:
            raise ValidationError(f"accuracy {self.clip_accuracy} outside [0, 1]")


def _check_label(clip_id: str, label, class_count: int) -> None:
    if not isinstance(label, (int, np.integer)) or not 0 <= label < class_count:
        raise ValidationError(
            f"clip {clip_id!r} label {label!r} is not a class id in [0, {class_count})"
        )


def evaluate(
    model: TrainedModel,
    segments_by_clip: dict[str, list[Segment]],
    labels_by_clip: dict[str, int],
) -> EvalResult:
    """Per-clip accuracy and confusion over a set of clips.

    A clip whose segment list is empty cannot be predicted; it counts as
    wrong and lands in the confusion matrix's trailing "none" column so
    row sums still equal per-class clip counts.  Segments are z-scored
    as in :func:`train`.
    """
    if set(segments_by_clip) != set(labels_by_clip):
        raise ContractError("segments_by_clip and labels_by_clip list different clips")
    if not labels_by_clip:
        raise ContractError("evaluate needs at least one clip")
    c = model.spec.class_count
    confusion = np.zeros((c, c + 1), dtype=np.int64)
    per_clip: dict[str, int] = {}
    correct = 0
    for clip_id in sorted(labels_by_clip):
        truth = labels_by_clip[clip_id]
        _check_label(clip_id, truth, c)
        segments = segments_by_clip[clip_id]
        if not segments:
            logger.warning("clip %r has no segments; counted as an error", clip_id)
            per_clip[clip_id] = -1
            confusion[truth, c] += 1
            continue
        predicted, _ = predict_clip(model, segments)
        per_clip[clip_id] = predicted
        confusion[truth, predicted] += 1
        correct += predicted == truth
    return EvalResult(
        clip_accuracy=correct / len(labels_by_clip),
        confusion=confusion,
        per_clip=per_clip,
    )


def bucket_roles(
    plan: SplitPlan, test_fold: int | None, validation_fold: int | None
) -> dict[str, str]:
    """Map each plan bucket to train/validation/test; only a fold plan takes the fold numbers."""
    buckets = plan.buckets()
    if all(b.startswith("fold") for b in buckets):
        if test_fold is None:
            raise ConfigError("plan uses folds; pass --test-fold")
        folds = len(buckets)
        if set(buckets) != {f"fold{i}" for i in range(1, folds + 1)}:
            raise ValidationError(f"fold plan buckets {buckets} are not fold1..fold{folds}")
        return fold_buckets(folds, test_fold, validation_fold)
    known = {TRAIN, VALIDATION, TEST}
    stray = set(buckets) - known
    if stray:
        raise ValidationError(f"plan buckets {sorted(stray)} are neither folds nor {sorted(known)}")
    if test_fold is not None or validation_fold is not None:
        raise ConfigError(
            f"--test-fold and --validation-fold apply only to fold plans; this plan's "
            f"buckets are {', '.join(buckets)}"
        )
    return {b: b for b in buckets}


def run_experiment(
    features: list[FeatureMatrix],
    plan: SplitPlan,
    spec: ModelSpec,
    config: TrainConfig,
    labels: tuple[str, ...],
    test_fold: int | None = None,
    validation_fold: int | None = None,
) -> tuple[TrainedModel, RunReport]:
    """One training run: split, segment, normalize, train, and vote on the test split.

    A fold plan (buckets ``fold1..foldN``) needs ``test_fold`` and takes
    an optional ``validation_fold`` (default: the fold after the test
    fold); a plan of train/validation/test buckets takes neither.  The
    plan gives each clip its role; a clip's ``split`` tag is not read.
    Every clip is segmented (hop ``config.hop`` or q), and the model's
    ``norm_stats`` are fitted on the training clips, which must be raw.
    A clip normalized under other statistics raises ``ValidationError``
    before training.  Batches are normalized as they are built, so the
    clips are left as given and a second run on them gives the same
    bytes.  A test split is voted on into the report's test accuracy and
    confusion.
    """
    roles = bucket_roles(plan, test_fold, validation_fold)
    missing = [fm.clip_id for fm in features if fm.clip_id not in plan.assignment]
    if missing:
        raise ValidationError(
            f"{len(missing)} feature clips are not in the plan, e.g. {missing[:3]}"
        )
    repeated = sorted(c for c, n in Counter(fm.clip_id for fm in features).items() if n > 1)
    if repeated:
        raise ValidationError(f"feature clips {repeated[:3]} are given more than once")
    widths = {fm.feature_length for fm in features}
    if widths != {spec.feature_length}:
        raise ValidationError(
            f"feature widths {sorted(widths)} do not match model feature_length "
            f"{spec.feature_length}"
        )
    for fm in features:
        _check_label(fm.clip_id, fm.label, spec.class_count)
    groups: dict[str, list[FeatureMatrix]] = {TRAIN: [], VALIDATION: [], TEST: []}
    for fm in features:
        groups[roles[plan.bucket(fm.clip_id)]].append(fm)
    if not groups[TRAIN]:
        raise ValidationError("plan leaves the training split empty")

    q = segment_size(spec)
    hop = config.hop or q
    segments = {fm.clip_id: segment_clip(fm, q, hop) for fm in features}
    train_segments, val_segments = (
        [s for fm in groups[role] for s in segments[fm.clip_id]] for role in (TRAIN, VALIDATION)
    )
    if not train_segments:
        raise ValidationError(f"training clips yielded no segments at q={q}, hop={hop}")
    model = build_model(spec, config.seed, labels)
    model.norm_stats = _fit_zscore(groups[TRAIN])
    for fm in features:
        _check_zscore(fm, model.norm_stats)
    model, report = train(model, train_segments, config, val_segments or None)
    if groups[TEST]:
        by_clip = {fm.clip_id: segments[fm.clip_id] for fm in groups[TEST]}
        result = evaluate(model, by_clip, {fm.clip_id: fm.label for fm in groups[TEST]})
        report.test_accuracy = result.clip_accuracy
        report.confusion = result.confusion
    return model, report


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradCheckReport:
    max_relative_error: float
    per_tensor: dict[str, float]
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_relative_error < self.tolerance

    def to_text(self) -> str:
        lines = [f"{'PASS' if self.passed else 'FAIL'} tolerance={self.tolerance:g}"]
        for key in sorted(self.per_tensor):
            lines.append(f"{key}\t{self.per_tensor[key]:.3e}")
        lines.append(f"max\t{self.max_relative_error:.3e}")
        return "\n".join(lines) + "\n"


_FD_STEP = 1e-5
_KINK_MARGIN = 1e-3


def _nudge_kinks(model: TrainedModel, segment: np.ndarray) -> np.ndarray:
    """Move the comparison point away from activation kinks.

    Central differences step each parameter by 1e-5; any pre-activation
    within that reach of 0 can cross the kink and poison the numeric
    gradient.  Exact-zero inputs get the documented 1e-7 nudge, and each
    layer's biases are shifted (on this working copy only) until every
    pre-activation clears the kink by a safe margin.
    """
    segment = segment.copy()
    segment[segment == 0.0] += 1e-7
    offsets = _KINK_MARGIN * np.array([3.0, -3.0, 7.0, -7.0, 13.0, -13.0])
    for _ in range(8):
        _, tape = model_forward_tape(model, segment[None])
        moved = False
        for record in tape.records:
            if isinstance(record, PoolRecord):
                continue
            bias = record.layer.bias
            pre2d = record.pre.reshape(-1, record.pre.shape[-1])
            for j in range(pre2d.shape[1]):
                column = pre2d[:, j]
                if np.min(np.abs(column)) >= _KINK_MARGIN:
                    continue
                for off in offsets:
                    if np.min(np.abs(column + off)) >= _KINK_MARGIN:
                        bias[j] += off
                        moved = True
                        break
                else:
                    bias[j] += offsets[0]
                    moved = True
            if moved:
                break  # shifting one layer moves everything downstream; recompute
        if not moved:
            break
    return segment


def grad_check(
    model: TrainedModel,
    segment: np.ndarray,
    target: int,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Central-difference check of every parameter tensor.

    The analytic side is the path training runs: one batched forward and
    ``backward`` from :func:`cross_entropy_grad` at the logits.  Masked
    weights are not parameters, so only unmasked ones are differenced.

    Works on a deep copy of the parameters, so the passed model is left
    untouched.  Relative error per entry is |a - n| / max(|a|, |n|, 1e-3);
    the floor keeps finite-difference noise on near-zero gradients from
    drowning the signal without hiding real disagreements.  ``tolerance``
    must be positive and finite.
    """
    if not 0 < tolerance < math.inf:
        raise ValidationError(f"tolerance must be positive and finite, got {tolerance}")
    snapshot = model.copy_parameters()
    try:
        segment = _nudge_kinks(model, np.asarray(segment, dtype=np.float64))
        probs, tape = model_forward_tape(model, segment[None])
        analytic = backward(tape, cross_entropy_grad(probs, [target]))

        params = model.parameters()
        masks = {f"{name}.weights": layer.mask for name, layer in model.layers()}
        per_tensor: dict[str, float] = {}
        for key in sorted(params):
            tensor = params[key]
            worst = 0.0
            flat = tensor.reshape(-1)
            grad_flat = analytic[key].reshape(-1)
            mask = masks.get(key)
            live = np.ones(tensor.shape) if mask is None else np.broadcast_to(mask.entries, tensor.shape)
            for i in np.flatnonzero(live):
                original = flat[i]
                flat[i] = original + _FD_STEP
                up = cross_entropy(model_forward(model, segment), target)
                flat[i] = original - _FD_STEP
                down = cross_entropy(model_forward(model, segment), target)
                flat[i] = original
                numeric = (up - down) / (2.0 * _FD_STEP)
                a = grad_flat[i]
                rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-3)
                worst = max(worst, rel)
            per_tensor[key] = worst
        return GradCheckReport(
            max_relative_error=max(per_tensor.values()),
            per_tensor=per_tensor,
            tolerance=tolerance,
        )
    finally:
        model.set_parameters(snapshot)
