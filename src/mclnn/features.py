"""Log mel-scaled spectrogram features and z-score normalization.

The pipeline is: resample to a target rate, short-time power spectrum
(Hann window, pad-end framing so every sample is covered), triangular
mel filterbank, natural log with a small floor, then per-dimension
z-scoring with statistics fitted on the training split only.

Resampling is polyphase filtering with SciPy's ``resample_poly`` filter
and alignment, computed in NumPy as a banded product: the filter is a
Toeplitz matrix, built once per reduced ratio ``up/down`` in a process
and shared read-only, whose rows are windows of the samples.  Each group
of output columns is multiplied only by the rows where its taps land, a
block of rows at a time; windows inside the signal are views of it, and
only the first and last blocks are copied and zero-padded.  The values
match SciPy's up to summation order; the package never imports SciPy.

Extraction works in cache-sized passes.  The power spectrum is windowed,
transformed and squared a block of frames at a time into one output
array, with the same arithmetic as a single whole-clip pass, so it is
bit-identical to it.  The blocks go in two contiguous groups, which the
layers' task runner (see :mod:`mclnn.layers`) runs on two threads when
it has two workers; NumPy's ``rfft`` releases the GIL, and each block's
operands are the same on either thread, so the worker count never
changes a bit.  The frames are a view of the samples; only a last frame
that runs past the end is copied and zero-padded.  The filterbank is
built once per ``(bins, fft_size, rate)`` in a process and shared
read-only, with one warning when it has all-zero filters.  Each
frequency bin feeds at most two triangular filters, so the mel projection
multiplies each small group of filters only by the rows where the group
is non-zero; the groups of a bank are found once, when it is built.  The
skipped entries are exact zeros, and only the order of summation differs
from the dense product.  A feature file is written straight from its
frames (see :mod:`mclnn.container`), with no copy of them.

Per-clip extraction is pure; its only parallel work is the power
spectrum's two block groups, and clips are extracted one after another.
Statistic fitting is a deterministic reduction over the inputs in the
order given.  The fit is streamed: it holds one clip's worth of work
beside the frames, and its values equal ``mean``/``std`` over the
stacked frames bit for bit.

The z-score rule lives here and nowhere else.  Statistics are fitted on
raw training frames only: ``fit_zscore`` rejects held-out and normalized
clips.  A clip is normalized once, and a normalized clip is accepted only
under the statistics it was normalized with: both appliers return it
untouched under those and raise ``ValidationError`` under any others.
``apply_zscore_in_place`` normalizes a matrix the caller no longer needs
raw; ``apply_zscore`` does the same on a copy.  A feature file's
header is the matrix shape and every other ``FeatureMatrix`` field,
written and read from one table; ``read_feature_header`` reads it without
the frames.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import logging
import math
import struct
import wave
import weakref
import zipfile
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import container, layers
from .errors import (
    ContractError,
    FileFormatError,
    HeaderMismatchError,
    InsufficientAudioError,
    ShapeError,
    TruncatedFileError,
    ValidationError,
)

logger = logging.getLogger(__name__)

LOG_FLOOR = 1e-10
STD_FLOOR = 1e-8
WINDOW_NAME = "hann"

FEATURE_MAGIC = b"MCLF"
FEATURE_VERSION = 1

# Frames per STFT pass: a 32 x 2048 windowed block and its spectrum take
# about 1 MiB together, so each pass stays in a per-core L2 cache.
_STFT_BLOCK = 32
# Mel filters per banded product: small enough that a group's non-zero
# rows are few, large enough that one matmul call per group stays cheap.
_MEL_GROUP = 8
# Resampling: outputs per row of the windowed product, rounded up to whole
# periods of the ratio; output columns per banded product (as _MEL_GROUP);
# rows per pass, about 256 KiB of input at the common audio ratios.
_RESAMPLE_ROW = 256
_RESAMPLE_GROUP = 32
_RESAMPLE_BLOCK = 64

__all__ = [
    "AudioClip",
    "FeatureMatrix",
    "NormStats",
    "FeatureParams",
    "resample",
    "extract_chunk",
    "stft_power",
    "stft_frame_count",
    "mel_filterbank",
    "log_mel",
    "extract_features",
    "fit_zscore",
    "apply_zscore",
    "apply_zscore_in_place",
    "save_features",
    "load_features",
    "read_feature_header",
    "load_audio",
]


@dataclass(frozen=True, eq=False)
class AudioClip:
    """Uncompressed mono samples plus their rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size == 0:
            raise ValidationError("audio clip must be a non-empty 1-D sample array")
        if self.sample_rate <= 0:
            raise ValidationError(f"sample rate must be positive, got {self.sample_rate}")

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass(eq=False)
class FeatureMatrix:
    """Per-clip time x frequency feature frames with provenance."""

    frames: np.ndarray
    clip_id: str = ""
    label: int | None = None
    split: str | None = None
    normalized: bool = False
    norm_id: str | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        self.frames = frames
        if frames.ndim != 2 or frames.shape[0] < 1:
            raise ShapeError(f"feature frames must be (t >= 1, l), got shape {frames.shape}")
        if not np.all(np.isfinite(frames)):
            raise ValidationError(f"feature matrix for clip {self.clip_id!r} has non-finite values")
        if self.normalized and not self.norm_id:
            raise ValidationError("normalized features must record their statistics id")

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    @property
    def feature_length(self) -> int:
        return self.frames.shape[1]


# a feature file's header: the frame matrix's shape, then every other
# FeatureMatrix field, each written by name and read at the type the
# dataclass declares
_FEATURE_FIELDS = {f.name: f.type for f in fields(FeatureMatrix) if f.name != "frames"}
_FEATURE_HEADER = {"t": "int", "l": "int", **_FEATURE_FIELDS}


@dataclass(frozen=True, eq=False)
class NormStats:
    """Per-dimension mean/std fitted on one source split."""

    mean: np.ndarray
    std: np.ndarray
    source_split: str
    stats_id: str

    def __post_init__(self):
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ShapeError.mismatch("normalization vectors", self.mean.shape, self.std.shape)
        if np.any(self.std <= 0):
            raise ValidationError("normalization std entries must be positive")


@dataclass(frozen=True)
class FeatureParams:
    """Feature-pipeline knobs; defaults match the reference configuration."""

    sample_rate: int = 22050
    fft_size: int = 2048
    hop: int = 1024
    mel_bins: int = 256
    chunk_seconds: float = 30.0

    def __post_init__(self):
        if self.sample_rate < 1 or self.hop < 1 or self.mel_bins < 1:
            raise ValidationError("sample_rate, hop, and mel_bins must all be >= 1")
        if self.fft_size < 2:
            raise ValidationError(f"fft_size must be >= 2, got {self.fft_size}")
        if not 0 < self.chunk_seconds < math.inf:
            raise ValidationError(f"chunk_seconds must be finite and > 0, got {self.chunk_seconds}")


# ---------------------------------------------------------------------------
# signal processing
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _ResamplePlan:
    """The banded product that resamples by one reduced ratio ``up/down``.

    Row ``r`` of the product is the window ``samples[r * stride - offset :
    ... + width]`` and yields ``per_row`` consecutive outputs.  For each
    group of ``_RESAMPLE_GROUP`` output columns, ``band`` holds the rows
    of the Toeplitz matrix from ``lows[group]`` on; the rows outside
    ``band`` are zero for every column in the group.
    """

    band: np.ndarray  # (span, per_row), read-only
    lows: tuple[int, ...]
    stride: int
    offset: int
    width: int

    @property
    def per_row(self) -> int:
        return self.band.shape[1]


@functools.lru_cache(maxsize=8)
def _resample_plan(up: int, down: int) -> _ResamplePlan:
    """Built once per reduced ``(up, down)`` in a process and shared read-only.

    The filter is SciPy's ``resample_poly`` default: a Kaiser (beta = 5)
    windowed sinc with cutoff ``1 / max(up, down)`` of Nyquist and half
    length ``10 * max(up, down)``, scaled to DC gain 1, then by ``up``.
    Output ``i`` is ``sum_j taps[i * down + half - j * up] * samples[j]``,
    SciPy's alignment.
    """
    most = max(up, down)
    half = 10 * most
    cutoff = 1.0 / most
    taps = cutoff * np.sinc(cutoff * np.arange(-half, half + 1)) * np.kaiser(2 * half + 1, 5.0)
    taps /= taps.sum()
    taps *= up
    # whole periods of ``up`` outputs per row, and enough of them that a
    # row advances at least one group's span: a group's slice of the
    # windows is then a BLAS operand without a copy
    periods = max(
        -(-_RESAMPLE_ROW // up),
        -(-((_RESAMPLE_GROUP - 1) * down + 2 * half + up) // (up * down)),
    )
    per_row = periods * up
    offset = -(-half // up)
    # output column c reads window samples ceil((c * down - half) / up) + offset
    # through floor((c * down + half) / up) + offset
    first = np.arange(0, per_row, _RESAMPLE_GROUP)
    last = np.minimum(first + _RESAMPLE_GROUP, per_row) - 1
    lows = -(-(first * down - half) // up) + offset
    span = int(((last * down + half) // up + offset + 1 - lows).max())
    cols = np.arange(per_row)
    rows = lows[cols // _RESAMPLE_GROUP] + np.arange(span)[:, None]
    index = cols * down + half + offset * up - rows * up
    band = np.where((index >= 0) & (index <= 2 * half), taps[np.clip(index, 0, 2 * half)], 0.0)
    band.flags.writeable = False
    return _ResamplePlan(
        band=band,
        lows=tuple(int(low) for low in lows),
        stride=periods * down,
        offset=offset,
        width=int(lows.max()) + span,
    )


def _polyphase(samples: np.ndarray, plan: _ResamplePlan, n_out: int) -> np.ndarray:
    """The first ``n_out`` outputs of the plan's product over zero-extended samples.

    Rows go ``_RESAMPLE_BLOCK`` at a time.  A block whose windows lie
    inside the signal is a view of it; only a block that starts before
    sample 0 or runs past the end is copied and zero-padded.
    """
    span = plan.band.shape[0]
    rows = -(-n_out // plan.per_row)
    out = np.empty((rows, plan.per_row), dtype=np.float64)
    for r0 in range(0, rows, _RESAMPLE_BLOCK):
        r1 = min(r0 + _RESAMPLE_BLOCK, rows)
        a0 = r0 * plan.stride - plan.offset
        a1 = (r1 - 1) * plan.stride - plan.offset + plan.width
        if a0 >= 0 and a1 <= samples.size:
            source = samples[a0:a1]
        else:
            source = np.zeros(a1 - a0, dtype=np.float64)
            lo, hi = max(a0, 0), min(a1, samples.size)
            source[lo - a0 : hi - a0] = samples[lo:hi]
        windows = np.lib.stride_tricks.sliding_window_view(source, plan.width)[:: plan.stride]
        for c0, low in zip(range(0, plan.per_row, _RESAMPLE_GROUP), plan.lows):
            c1 = c0 + _RESAMPLE_GROUP
            np.matmul(windows[:, low : low + span], plan.band[:, c0:c1], out=out[r0:r1, c0:c1])
    return out.reshape(-1)[:n_out]


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Polyphase resampling to ``target_rate`` Hz, as SciPy's ``resample_poly``.

    The output has ``ceil(len * up / down)`` samples for the reduced ratio
    ``up/down`` of the two rates, each aligned as SciPy aligns it, with the
    signal zero outside the clip; the values agree with SciPy's to within
    rounding (see :func:`_resample_plan`).  A clip already at the target
    rate is returned unchanged.
    """
    if target_rate <= 0:
        raise ValidationError(f"target rate must be positive, got {target_rate}")
    if clip.sample_rate == target_rate:
        return clip
    ratio = Fraction(int(target_rate), int(clip.sample_rate))
    up, down = ratio.numerator, ratio.denominator
    n_out = -(-clip.samples.size * up // down)
    out = _polyphase(clip.samples, _resample_plan(up, down), n_out)
    return AudioClip(samples=out, sample_rate=target_rate)


def extract_chunk(clip: AudioClip, seconds: float = 30.0) -> AudioClip:
    """Center crop of ``seconds``; shorter clips pass through with a warning.

    The crop is a view of the clip's samples, not a copy.
    """
    want = int(round(seconds * clip.sample_rate))
    have = clip.samples.size
    if have <= want:
        if have < want:
            logger.warning(
                "clip is %.2fs, shorter than the %.2fs chunk; using it whole",
                clip.duration, seconds,
            )
        return clip
    start = (have - want) // 2
    return AudioClip(samples=clip.samples[start : start + want], sample_rate=clip.sample_rate)


def stft_frame_count(num_samples: int, window_size: int, hop: int) -> int:
    """Frames produced by pad-end framing: every sample is covered."""
    return 1 + math.ceil((num_samples - window_size) / hop)


def _hann(window_size: int) -> np.ndarray:
    # periodic Hann, the usual analysis-window convention
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window_size) / window_size)


def stft_power(clip: AudioClip, window_size: int = 2048, hop: int = 1024) -> np.ndarray:
    """Windowed short-time power spectrum.

    Frames start at ``0, hop, 2*hop, ...``; the final frame is zero-padded
    when the signal does not fill it, so the frame count is
    ``1 + ceil((len - window) / hop)``.

    Returns:
        ``(t, window_size // 2 + 1)`` array of squared rfft magnitudes.
    """
    if window_size < 2 or hop < 1:
        raise ValidationError(f"need window_size >= 2 and hop >= 1, got {window_size}, {hop}")
    samples = clip.samples
    if samples.size < window_size:
        raise InsufficientAudioError(
            f"clip has {samples.size} samples but one analysis window needs {window_size}"
        )
    t = stft_frame_count(samples.size, window_size, hop)
    # frames inside the signal are a view of it; at most the last one runs
    # past the end, and only that one is copied and zero-padded (``last``
    # has no row when the last frame is full)
    frames = np.lib.stride_tricks.sliding_window_view(samples, window_size)[::hop]
    last = np.zeros((t - frames.shape[0], window_size), dtype=np.float64)
    rest = samples[frames.shape[0] * hop :]
    last[:, : rest.size] = rest
    window = _hann(window_size)
    power = np.empty((t, window_size // 2 + 1), dtype=np.float64)

    def blocks(first: int, stop: int) -> Callable[[], None]:
        def run() -> None:
            for start in range(first, stop, _STFT_BLOCK):
                block = power[start : start + _STFT_BLOCK]
                chunk = frames[start : start + _STFT_BLOCK]
                if start + _STFT_BLOCK >= t:
                    chunk = np.concatenate((chunk, last))
                spectrum = np.fft.rfft(chunk * window, axis=1)
                np.abs(spectrum, out=block)
                np.square(block, out=block)
        return run

    # two contiguous groups of whole blocks, split at the block edge nearest
    # the middle; a clip of one block is one task
    edge = (t + _STFT_BLOCK) // (2 * _STFT_BLOCK) * _STFT_BLOCK
    # looked up on each call, so a replaced runner is the one used
    layers._run_tasks([blocks(0, t)] if t <= _STFT_BLOCK else [blocks(0, edge), blocks(edge, t)])
    return power


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


# The band groups (see ``_mel_groups``) of every live bank built by
# ``mel_filterbank``, by bank id.  An entry goes when its bank is freed, so
# it lives exactly as long as the bank, whichever cache held it.
_BANK_GROUPS: dict[int, list[tuple[int, int, int, int]]] = {}


@functools.lru_cache(maxsize=8)
def mel_filterbank(bins: int, fft_size: int, rate: int, /) -> np.ndarray:
    """Triangular filters with centers equally spaced on the mel scale.

    Built once per ``(bins, fft_size, rate)`` in a process; every caller
    shares the one read-only array.  The three values are positional and
    required, so each setting has one cache entry whatever the call looks
    like.  A filter whose band falls between two FFT bins is all zero;
    building such a bank logs one warning.

    Returns:
        ``(fft_size // 2 + 1, bins)`` matrix mapping power spectra to mel
        bands; every filter is non-negative with contiguous support.
    """
    n_freqs = fft_size // 2 + 1
    freqs = np.arange(n_freqs) * (rate / fft_size)
    points = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(rate / 2.0), bins + 2))
    fb = np.zeros((n_freqs, bins), dtype=np.float64)
    for b in range(bins):
        lo, center, hi = points[b], points[b + 1], points[b + 2]
        rising = (freqs - lo) / (center - lo)
        falling = (hi - freqs) / (hi - center)
        fb[:, b] = np.maximum(0.0, np.minimum(rising, falling))
    empty = int(np.count_nonzero(~fb.any(axis=0)))
    if empty:
        logger.warning(
            "%d of %d mel filters are empty at fft size %d and %d Hz (their bands fall "
            "between FFT bins) and yield constant log-floor features; use a larger "
            "--fft or fewer --mel-bins",
            empty, bins, fft_size, rate,
        )
    fb.flags.writeable = False
    _BANK_GROUPS[id(fb)] = _mel_groups(fb)
    weakref.finalize(fb, _BANK_GROUPS.pop, id(fb), None)
    return fb


def _mel_groups(filterbank: np.ndarray) -> list[tuple[int, int, int, int]]:
    """``(c0, c1, lo, hi)`` for each group of filters with a non-zero entry.

    Filters ``c0:c1`` are zero outside rows ``lo:hi``; a group of all-zero
    filters is left out.
    """
    nonzero = filterbank != 0
    used = nonzero.any(axis=0)
    n_rows, n_filters = filterbank.shape
    first = np.where(used, nonzero.argmax(axis=0), n_rows)
    stop = np.where(used, n_rows - nonzero[::-1].argmax(axis=0), 0)
    groups = []
    for c0 in range(0, n_filters, _MEL_GROUP):
        c1 = min(c0 + _MEL_GROUP, n_filters)
        lo, hi = int(first[c0:c1].min()), int(stop[c0:c1].max())
        if lo < hi:
            groups.append((c0, c1, lo, hi))
    return groups


def _mel_energies(power: np.ndarray, filterbank: np.ndarray) -> np.ndarray:
    """``power @ filterbank``, each group of filters over its non-zero rows only.

    Rows outside a group's range are zero for every filter in the group,
    so skipping them drops only exact zeros; the result differs from the
    dense product in summation order alone.  A bank from
    :func:`mel_filterbank` uses the groups found when it was built; any
    other matrix is scanned on each call.
    """
    groups = _BANK_GROUPS.get(id(filterbank))
    if groups is None:
        groups = _mel_groups(filterbank)
    energies = np.zeros((power.shape[0], filterbank.shape[1]), dtype=np.float64)
    for c0, c1, lo, hi in groups:
        np.matmul(power[:, lo:hi], filterbank[lo:hi, c0:c1], out=energies[:, c0:c1])
    return energies


def log_mel(
    power: np.ndarray,
    filterbank: np.ndarray,
    clip_id: str = "",
    label: int | None = None,
    split: str | None = None,
    meta: dict | None = None,
) -> FeatureMatrix:
    """Natural log of the mel-band energies, floored at ``LOG_FLOOR``."""
    power = np.asarray(power, dtype=np.float64)
    if power.ndim != 2 or power.shape[1] != filterbank.shape[0]:
        raise ShapeError.mismatch(
            "power vs filterbank", ("t", filterbank.shape[0]), power.shape
        )
    frames = _mel_energies(power, filterbank)
    frames += LOG_FLOOR
    np.log(frames, out=frames)
    full_meta = {"log_eps": LOG_FLOOR}
    if meta:
        full_meta.update(meta)
    return FeatureMatrix(frames=frames, clip_id=clip_id, label=label, split=split, meta=full_meta)


def extract_features(
    clip: AudioClip,
    params: FeatureParams = FeatureParams(),
    clip_id: str = "",
    label: int | None = None,
    split: str | None = None,
) -> FeatureMatrix:
    """Full pipeline: chunk, resample, power spectrum, log-mel."""
    chunk = extract_chunk(clip, params.chunk_seconds)
    chunk = resample(chunk, params.sample_rate)
    power = stft_power(chunk, params.fft_size, params.hop)
    fb = mel_filterbank(params.mel_bins, params.fft_size, params.sample_rate)
    meta = {
        "window": WINDOW_NAME,
        "sample_rate": params.sample_rate,
        "fft_size": params.fft_size,
        "hop": params.hop,
        "mel_bins": params.mel_bins,
    }
    return log_mel(power, fb, clip_id=clip_id, label=label, split=split, meta=meta)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

_HELD_OUT_SPLITS = frozenset({"validation", "test"})


def fit_zscore(training_features: list[FeatureMatrix]) -> NormStats:
    """Per-dimension mean/std over all frames of the training split.

    Inputs tagged as validation or test are rejected outright; statistics
    must never leak from held-out data.  Normalized inputs are rejected
    too.  Standard deviations below ``STD_FLOOR`` are replaced by 1 so
    degenerate dimensions come out zero-centered and unscaled.

    The sums are streamed a clip at a time (see :func:`_stacked_row_sum`),
    and the values are those of ``mean``/``std`` over the stacked frames,
    bit for bit.
    """
    if not training_features:
        raise ContractError("fit_zscore needs at least one feature matrix")
    tags = {m.split for m in training_features if m.split is not None}
    held_out = tags & _HELD_OUT_SPLITS
    if held_out:
        raise ValidationError(
            f"fit_zscore received features tagged {sorted(held_out)}; "
            f"statistics may only be fitted on training data"
        )
    _check_raw(training_features)
    widths = {m.feature_length for m in training_features}
    if len(widths) != 1:
        raise ShapeError(f"feature matrices disagree on width: {sorted(widths)}")
    clips = [m.frames for m in training_features]
    count = sum(frames.shape[0] for frames in clips)
    mean = _stacked_row_sum(clips, np.copyto) / count

    def squared_deviation(out, frames):
        np.subtract(frames, mean, out=out)
        np.square(out, out=out)

    std = np.sqrt(_stacked_row_sum(clips, squared_deviation) / count)
    std = np.where(std < STD_FLOOR, 1.0, std)
    stats_id = hashlib.sha256(mean.tobytes() + std.tobytes()).hexdigest()[:12]
    source = "+".join(sorted(tags)) if tags else "train"
    return NormStats(mean=mean, std=std, source_split=source, stats_id=stats_id)


def _check_raw(training_features: list[FeatureMatrix]) -> None:
    """Raise ``ValidationError`` naming the first normalized clip, if any."""
    normalized = next((m for m in training_features if m.normalized), None)
    if normalized is not None:
        raise ValidationError(
            f"fit_zscore received clip {normalized.clip_id!r}, already normalized with "
            f"statistics {normalized.norm_id!r}; statistics may only be fitted on raw frames"
        )


def _stacked_row_sum(clips: list[np.ndarray], fill) -> np.ndarray:
    """``np.add.reduce(np.concatenate(parts), axis=0)``, one clip's part held at a time.

    ``fill(out, frames)`` writes a clip's part into ``out``.  NumPy reduces
    a C-order matrix along axis 0 row after row, so reducing each part
    under the running sum as its row 0 makes the same additions in the
    same order.  A single column is reduced as one contiguous vector,
    pairwise, so a width-1 sum holds every part at once: 8 bytes a frame.
    """
    width = clips[0].shape[1]
    if width == 1:
        stacked = np.empty((sum(frames.shape[0] for frames in clips), 1))
        start = 0
        for frames in clips:
            fill(stacked[start : start + frames.shape[0]], frames)
            start += frames.shape[0]
        return np.add.reduce(stacked, axis=0)
    buffer = np.empty((1 + max(frames.shape[0] for frames in clips), width))
    above = 0  # the running sum's row, once there is one
    for frames in clips:
        end = above + frames.shape[0]
        fill(buffer[above:end], frames)
        buffer[0] = np.add.reduce(buffer[:end], axis=0)
        above = 1
    return buffer[0].copy()


def apply_zscore(features: FeatureMatrix, stats: NormStats | None) -> FeatureMatrix:
    """:func:`apply_zscore_in_place` on a copy; ``features`` is left as it was."""
    out = copy.copy(features)
    out.frames = features.frames.copy()
    return apply_zscore_in_place(out, stats)


def apply_zscore_in_place(features: FeatureMatrix, stats: NormStats | None) -> FeatureMatrix:
    """Transform ``(x - mean) / std`` over ``features``, marked normalized, and return it.

    ``frames -= mean; frames /= std`` are the IEEE operations of
    ``(frames - mean) / std``.  The raw frames are lost.  A matrix already
    normalized under these statistics is returned untouched.
    """
    if _check_zscore(features, stats):
        features.frames -= stats.mean
        features.frames /= stats.std
        features.norm_id = stats.stats_id
        features.normalized = True
    return features


def _check_zscore(features: FeatureMatrix, stats: NormStats | None) -> bool:
    """True if ``features`` is raw; normalized under other statistics raises."""
    if stats is None:
        raise ContractError("apply_zscore called with unfitted statistics")
    if features.feature_length != stats.mean.shape[0]:
        raise ShapeError.mismatch(
            "features vs normalization stats", stats.mean.shape, (features.feature_length,)
        )
    if features.normalized and features.norm_id != stats.stats_id:
        raise ValidationError(
            f"clip {features.clip_id!r} was normalized with statistics {features.norm_id!r}, "
            f"not {stats.stats_id!r}"
        )
    return not features.normalized


# ---------------------------------------------------------------------------
# io
# ---------------------------------------------------------------------------


def save_features(features: FeatureMatrix, path) -> None:
    """Write one clip's features as a binary container."""
    t, l = features.frames.shape
    header = {"t": t, "l": l, **{name: getattr(features, name) for name in _FEATURE_FIELDS}}
    container.write(path, FEATURE_MAGIC, FEATURE_VERSION, header, [features.frames])


def read_feature_header(path) -> dict:
    """A feature file's typed header fields; its size is checked, its frames not read."""
    header = container.read_header(path, FEATURE_MAGIC, FEATURE_VERSION, _feature_shape)
    return _typed_feature_header(path, header)


def load_features(path) -> FeatureMatrix:
    header, arrays = container.read(path, FEATURE_MAGIC, FEATURE_VERSION, _feature_shape)
    values = _typed_feature_header(path, header)
    del values["t"], values["l"]
    return FeatureMatrix(frames=arrays[0], **values)


def _feature_shape(header: dict) -> list[tuple]:
    return [(header["t"], header["l"])]


def _typed_feature_header(path, header: dict) -> dict:
    try:
        values = container.typed_fields(header, _FEATURE_HEADER, "feature header")
    except (KeyError, TypeError) as exc:
        raise HeaderMismatchError(f"{path}: header field missing or malformed: {exc!r}") from exc
    if values["t"] < 1 or values["l"] < 1:
        raise HeaderMismatchError(f"feature file {path} declares an empty matrix")
    return values


# Sun/NeXT .au: magic, data offset, data size, encoding, rate, channels, big-endian
_AU_HEADER = struct.Struct(">4s5I")
_AU_UNKNOWN_SIZE = 0xFFFFFFFF  # the data runs to the end of the file
# linear PCM encodings, signed big-endian 8, 16 and 32 bit
_AU_PCM = {2: ">i1", 3: ">i2", 5: ">i4"}


def load_audio(path) -> AudioClip:
    """Read a raw sample stream: ``.npz`` (samples + rate), PCM ``.wav`` or PCM ``.au``."""
    path = Path(path)
    if path.suffix == ".npz":
        try:
            with np.lib.npyio.NpzFile(path) as data:
                if "samples" not in data or "rate" not in data:
                    raise ValidationError(f"{path} must contain 'samples' and 'rate' arrays")
                samples, rate = data["samples"], data["rate"]
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise FileFormatError(f"{path} is not a readable .npz archive: {exc!r}") from exc
        if not (isinstance(samples, np.ndarray) and isinstance(rate, np.ndarray)):
            raise FileFormatError(f"{path}: 'samples' and 'rate' must be .npy members")
        if rate.shape or rate.dtype.kind not in "iuf" or not float(rate).is_integer() or rate < 1:
            raise ValidationError(f"{path}: 'rate' must be one positive integer, got {rate!r}")
        if samples.dtype.kind not in "iuf":
            raise ValidationError(f"{path}: 'samples' must be real numbers, got {samples.dtype}")
        return AudioClip(samples=samples.astype(np.float64), sample_rate=int(rate))
    if path.suffix == ".wav":
        try:
            with wave.open(str(path), "rb") as wav:
                rate = wav.getframerate()
                width = wav.getsampwidth()
                channels = wav.getnchannels()
                raw = wav.readframes(wav.getnframes())
        except (wave.Error, EOFError) as exc:
            raise FileFormatError(f"{path} is not a readable .wav file: {exc!r}") from exc
        dtype = {1: "u1", 2: "<i2", 4: "<i4"}.get(width)
        if dtype is None:
            raise ValidationError(f"{path}: unsupported PCM sample width {width}")
        return AudioClip(samples=_pcm_samples(path, raw, dtype, channels), sample_rate=rate)
    if path.suffix == ".au":
        return _load_au(path)
    raise ValidationError(f"unsupported audio container {path.suffix!r} for {path}")


def _load_au(path: Path) -> AudioClip:
    data = path.read_bytes()
    if len(data) < _AU_HEADER.size or not data.startswith(b".snd"):
        raise FileFormatError(f"{path} is not a readable .au file: no 24-byte '.snd' header")
    _, offset, size, encoding, rate, channels = _AU_HEADER.unpack_from(data)
    if offset < _AU_HEADER.size or rate < 1 or channels < 1:
        raise FileFormatError(
            f"{path} is not a readable .au file: data offset {offset}, rate {rate}, "
            f"{channels} channel(s)"
        )
    dtype = _AU_PCM.get(encoding)
    if dtype is None:
        raise ValidationError(
            f"{path}: unsupported .au encoding {encoding} (linear PCM is 2, 3 or 5)"
        )
    raw = memoryview(data)[offset:]
    if size != _AU_UNKNOWN_SIZE:
        if len(raw) < size:
            raise TruncatedFileError(
                f"{path}: the header declares {size} data bytes, the file holds {len(raw)}"
            )
        raw = raw[:size]
    return AudioClip(samples=_pcm_samples(path, raw, dtype, channels), sample_rate=rate)


def _pcm_samples(path: Path, raw, dtype: str, channels: int) -> np.ndarray:
    """Linear PCM bytes as float64 in [-1, 1), channels averaged to mono."""
    dtype = np.dtype(dtype)
    width = dtype.itemsize
    if len(raw) % (width * channels):
        raise TruncatedFileError(f"{path}: the sample data ends inside a frame")
    # one pass from the PCM integers to float64; the scale is a power of
    # two, so this equals converting first and dividing after, bit for bit
    samples = np.multiply(np.frombuffer(raw, dtype=dtype), 2.0 ** (1 - 8 * width), dtype=np.float64)
    if dtype.kind == "u":
        samples -= 1.0  # unsigned 8-bit PCM is centred on 128
    if channels > 1:
        samples = samples.reshape(-1, channels).mean(axis=1)
    return samples
