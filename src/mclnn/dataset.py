"""Segmentation, labels, folds, and train/validation/test planning.

Everything here is pure bookkeeping: slicing feature matrices into
fixed-length segments and assigning clip ids to buckets.  Segmentation
never crosses clip boundaries, so a split plan over clips is automatically
leak-free over segments.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FileFormatError, MclnnError, ValidationError
from .features import FeatureMatrix

logger = logging.getLogger(__name__)

TRAIN, VALIDATION, TEST = "train", "validation", "test"

__all__ = [
    "Segment",
    "SplitPlan",
    "segment_clip",
    "segment_count",
    "make_folds",
    "fixed_split",
    "fold_buckets",
    "load_manifest",
    "class_mapping",
    "read_text",
    "check_name",
]


@dataclass(frozen=True, eq=False)
class Segment:
    """q consecutive frames of a clip, its label or None, and whether they are z-scored already."""

    frames: np.ndarray
    label: int | None
    clip_id: str
    start: int
    normalized: bool = False


@dataclass(frozen=True)
class SplitPlan:
    """Clip id -> bucket, where buckets are train/validation/test or fold1..foldN."""

    assignment: dict[str, str]
    seed: int | None = None

    def __post_init__(self):
        for clip_id, bucket in self.assignment.items():
            check_name(clip_id, "clip id")
            check_name(bucket, f"bucket of clip {clip_id!r}")

    def bucket(self, clip_id: str) -> str:
        if clip_id not in self.assignment:
            raise ValidationError(f"clip {clip_id!r} is not in the split plan")
        return self.assignment[clip_id]

    def clips_in(self, bucket: str) -> list[str]:
        return sorted(c for c, b in self.assignment.items() if b == bucket)

    def buckets(self) -> list[str]:
        return sorted(set(self.assignment.values()))

    def save(self, path) -> None:
        lines = [f"# seed={self.seed}"]
        lines += [f"{clip_id}\t{bucket}" for clip_id, bucket in sorted(self.assignment.items())]
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "SplitPlan":
        seed = None
        assignment: dict[str, str] = {}
        for line_no, line in enumerate(read_text(path).splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "seed=" in line:
                    raw = line.split("seed=", 1)[1].strip()
                    try:
                        seed = None if raw == "None" else int(raw)
                    except ValueError as exc:
                        raise ValidationError(f"{path}:{line_no}: bad seed {raw!r}") from exc
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValidationError(f"{path}:{line_no}: expected 'clip<TAB>bucket', got {line!r}")
            clip_id, bucket = parts
            if clip_id in assignment:
                raise ValidationError(f"{path}:{line_no}: clip {clip_id!r} assigned twice")
            assignment[clip_id] = bucket
        return cls(assignment=assignment, seed=seed)


def segment_count(t: int, q: int, hop: int) -> int:
    """Number of q-frame segments a t-frame clip yields at the given hop."""
    if t < q:
        return 0
    return (t - q) // hop + 1


def segment_clip(features: FeatureMatrix, q: int, hop: int) -> list[Segment]:
    """Slice one clip into segments starting at 0, hop, 2*hop, ...

    A clip shorter than q yields no segments; that is logged rather than
    raised, since a dataset may legitimately contain a few short clips.
    An unlabeled clip gives unlabeled segments; training rejects them.
    """
    if q < 1 or hop < 1:
        raise ValidationError(f"need q >= 1 and hop >= 1, got q={q}, hop={hop}")
    t = features.frame_count
    if t < q:
        logger.warning(
            "clip %r has %d frames, fewer than the segment size %d; skipping it",
            features.clip_id, t, q,
        )
        return []
    return [
        Segment(
            frames=features.frames[start : start + q],
            label=features.label,
            clip_id=features.clip_id,
            start=start,
            normalized=features.normalized,
        )
        for start in range(0, t - q + 1, hop)
    ]


def make_folds(clips: list[tuple[str, int]], folds: int, seed: int) -> SplitPlan:
    """Stratified fold assignment, deterministic per seed.

    Within each class the clips are shuffled once and dealt round-robin,
    so per-class fold sizes differ by at most one.
    """
    if folds < 2:
        raise ValidationError(f"need at least 2 folds, got {folds}")
    _check_seed(seed)
    by_class: dict[int, list[str]] = {}
    for clip_id, label in clips:
        by_class.setdefault(label, []).append(clip_id)
    for label, members in sorted(by_class.items()):
        if len(members) < folds:
            raise ValidationError(
                f"class {label} has only {len(members)} clips; cannot stratify into {folds} folds"
            )
    rng = np.random.default_rng(seed)
    assignment: dict[str, str] = {}
    for label in sorted(by_class):
        members = sorted(by_class[label])
        rng.shuffle(members)
        for i, clip_id in enumerate(members):
            if clip_id in assignment:
                raise ValidationError(f"clip {clip_id!r} appears twice in the clip list")
            assignment[clip_id] = f"fold{i % folds + 1}"
    return SplitPlan(assignment=assignment, seed=seed)


def fixed_split(
    train_ids: list[str],
    test_ids: list[str],
    validation_fraction: float = 0.0,
    seed: int = 0,
    labels: dict[str, int] | None = None,
) -> SplitPlan:
    """Honor a published train/test assignment, optionally carving validation.

    The carve-out comes from the training list only.  With ``labels``
    given it is stratified per class; otherwise it is a plain seeded
    sample of the requested fraction.
    """
    _check_seed(seed)
    overlap = set(train_ids) & set(test_ids)
    if overlap:
        raise ValidationError(f"train/test lists share {len(overlap)} clips, e.g. {sorted(overlap)[:3]}")
    if not 0.0 <= validation_fraction < 1.0:
        raise ValidationError(f"validation_fraction must be in [0, 1), got {validation_fraction}")
    if len(set(train_ids)) != len(train_ids) or len(set(test_ids)) != len(test_ids):
        raise ValidationError("split lists contain duplicate clip ids")
    assignment = {clip_id: TRAIN for clip_id in train_ids}
    assignment.update({clip_id: TEST for clip_id in test_ids})
    if validation_fraction > 0.0:
        rng = np.random.default_rng(seed)
        groups: dict[int | None, list[str]]
        if labels is None:
            groups = {None: sorted(train_ids)}
        else:
            groups = {}
            for clip_id in sorted(train_ids):
                groups.setdefault(labels.get(clip_id), []).append(clip_id)
        for _, members in sorted(groups.items(), key=lambda kv: (kv[0] is None, kv[0])):
            take = int(round(validation_fraction * len(members)))
            picked = rng.choice(len(members), size=take, replace=False) if take else []
            for idx in sorted(int(i) for i in np.atleast_1d(picked)):
                assignment[members[idx]] = VALIDATION
    return SplitPlan(assignment=assignment, seed=seed)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")


def fold_buckets(folds: int, test_fold: int, validation_fold: int | None = None) -> dict[str, str]:
    """Map fold names to train/validation/test roles for one CV rotation."""
    if not 1 <= test_fold <= folds:
        raise ValidationError(f"test fold {test_fold} out of range 1..{folds}")
    if validation_fold is None:
        validation_fold = test_fold % folds + 1
    if validation_fold == test_fold or not 1 <= validation_fold <= folds:
        raise ValidationError(
            f"validation fold {validation_fold} must differ from test fold {test_fold} "
            f"and lie in 1..{folds}"
        )
    roles = {f"fold{i}": TRAIN for i in range(1, folds + 1)}
    roles[f"fold{test_fold}"] = TEST
    roles[f"fold{validation_fold}"] = VALIDATION
    return roles


def load_manifest(path) -> list[tuple[str, str]]:
    """Read (clip path, class name) rows from a tab/whitespace-separated file."""
    rows: list[tuple[str, str]] = []
    for line_no, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t") if "\t" in line else line.rsplit(None, 1)
        if len(parts) != 2:
            raise ValidationError(f"{path}:{line_no}: expected 'clip-path<TAB>class', got {line!r}")
        rows.append((parts[0], parts[1]))
    if not rows:
        raise ValidationError(f"{path}: manifest is empty")
    return rows


def class_mapping(class_names) -> dict[str, int]:
    """Stable label ids: alphabetical order of class names."""
    return {name: i for i, name in enumerate(sorted(set(class_names)))}


def check_name(name: str, what: str) -> None:
    """Refuse a name that a text artifact would not give back as written.

    ``manifest.tsv``, ``plan.txt`` and ``classes.txt`` hold one name per
    field; their readers split lines as ``str.splitlines`` does and strip
    each line, and the manifest and plan readers skip a line starting with
    ``#`` and split on tabs.  So a name is a non-empty ``str``, holds no
    tab and no line break, has no leading or trailing whitespace, and does
    not start with ``#``.  ``what`` says what the name names, for the
    error message.
    """
    if (
        not isinstance(name, str)
        or name.splitlines() != [name]
        or "\t" in name
        or name != name.strip()
        or name.startswith("#")
    ):
        raise ValidationError(
            f"{what} {name!r} cannot be written to a text file and read back: a name is "
            "non-empty, without tabs, line breaks, leading or trailing whitespace or a leading '#'"
        )


def read_text(path, error: type[MclnnError] = FileFormatError) -> str:
    """A text input (plan, manifest, list, config) decoded as UTF-8, else ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from exc
