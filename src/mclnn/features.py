"""Log mel-scaled spectrogram features and z-score normalization.

The pipeline is: resample to a target rate, short-time power spectrum
(Hann window, pad-end framing so every sample is covered), triangular
mel filterbank, natural log with a small floor, then per-dimension
z-scoring with statistics fitted on the training split only.

Per-clip extraction is pure and parallelizable; statistic fitting is a
deterministic reduction over the inputs in the order given.
"""

from __future__ import annotations

import hashlib
import logging
import math
import wave
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.signal import resample_poly

from . import container
from .errors import (
    ContractError,
    HeaderMismatchError,
    InsufficientAudioError,
    ShapeError,
    ValidationError,
)

logger = logging.getLogger(__name__)

LOG_FLOOR = 1e-10
STD_FLOOR = 1e-8
WINDOW_NAME = "hann"

FEATURE_MAGIC = b"MCLF"
FEATURE_VERSION = 1

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
    "save_features",
    "load_features",
    "load_audio",
]


@dataclass(frozen=True)
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


@dataclass
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


@dataclass(frozen=True)
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


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Polyphase resampling to ``target_rate`` Hz.

    A clip already at the target rate is returned unchanged.
    """
    if target_rate <= 0:
        raise ValidationError(f"target rate must be positive, got {target_rate}")
    if clip.sample_rate == target_rate:
        return clip
    ratio = Fraction(int(target_rate), int(clip.sample_rate))
    out = resample_poly(clip.samples, ratio.numerator, ratio.denominator)
    return AudioClip(samples=out, sample_rate=target_rate)


def extract_chunk(clip: AudioClip, seconds: float = 30.0) -> AudioClip:
    """Center crop of ``seconds``; shorter clips pass through with a warning."""
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
    return AudioClip(samples=clip.samples[start : start + want].copy(), sample_rate=clip.sample_rate)


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
    padded_len = (t - 1) * hop + window_size
    padded = np.zeros(padded_len, dtype=np.float64)
    padded[: samples.size] = samples
    frames = np.lib.stride_tricks.sliding_window_view(padded, window_size)[::hop]
    spectrum = np.fft.rfft(frames * _hann(window_size), axis=1)
    return np.abs(spectrum) ** 2


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(bins: int = 256, fft_size: int = 2048, rate: int = 22050) -> np.ndarray:
    """Triangular filters with centers equally spaced on the mel scale.

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
    return fb


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
    frames = np.log(power @ filterbank + LOG_FLOOR)
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
    must never leak from held-out data.  Standard deviations below
    ``STD_FLOOR`` are replaced by 1 so degenerate dimensions come out
    zero-centered and unscaled.
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
    widths = {m.feature_length for m in training_features}
    if len(widths) != 1:
        raise ShapeError(f"feature matrices disagree on width: {sorted(widths)}")
    stacked = np.concatenate([m.frames for m in training_features], axis=0)
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)
    std = np.where(std < STD_FLOOR, 1.0, std)
    stats_id = hashlib.sha256(mean.tobytes() + std.tobytes()).hexdigest()[:12]
    source = "+".join(sorted(tags)) if tags else "train"
    return NormStats(mean=mean, std=std, source_split=source, stats_id=stats_id)


def apply_zscore(features: FeatureMatrix, stats: NormStats | None) -> FeatureMatrix:
    """Transform ``(x - mean) / std``; returns a new matrix."""
    if stats is None:
        raise ContractError("apply_zscore called with unfitted statistics")
    if features.feature_length != stats.mean.shape[0]:
        raise ShapeError.mismatch(
            "features vs normalization stats", stats.mean.shape, (features.feature_length,)
        )
    frames = (features.frames - stats.mean) / stats.std
    return replace(features, frames=frames, normalized=True, norm_id=stats.stats_id)


# ---------------------------------------------------------------------------
# io
# ---------------------------------------------------------------------------


def save_features(features: FeatureMatrix, path) -> None:
    """Write one clip's features as a binary container."""
    header = {
        "t": features.frame_count,
        "l": features.feature_length,
        "clip_id": features.clip_id,
        "label": features.label,
        "split": features.split,
        "normalized": features.normalized,
        "norm_id": features.norm_id,
        "meta": features.meta,
    }
    container.write(path, FEATURE_MAGIC, FEATURE_VERSION, header, [features.frames])


def load_features(path) -> FeatureMatrix:
    header, arrays = container.read(
        path, FEATURE_MAGIC, FEATURE_VERSION, lambda h: [(h["t"], h["l"])]
    )
    if header["t"] < 1 or header["l"] < 1:
        raise HeaderMismatchError(f"feature file {path} declares an empty matrix")
    return FeatureMatrix(
        frames=arrays[0],
        clip_id=header["clip_id"],
        label=header["label"],
        split=header["split"],
        normalized=header["normalized"],
        norm_id=header["norm_id"],
        meta=header["meta"],
    )


def load_audio(path) -> AudioClip:
    """Read a raw sample stream: ``.npz`` (samples + rate) or PCM ``.wav``."""
    path = Path(path)
    if path.suffix == ".npz":
        with np.load(path) as data:
            if "samples" not in data or "rate" not in data:
                raise ValidationError(f"{path} must contain 'samples' and 'rate' arrays")
            return AudioClip(samples=data["samples"].astype(np.float64), sample_rate=int(data["rate"]))
    if path.suffix == ".wav":
        with wave.open(str(path), "rb") as wav:
            rate = wav.getframerate()
            width = wav.getsampwidth()
            channels = wav.getnchannels()
            raw = wav.readframes(wav.getnframes())
        dtype = {1: np.uint8, 2: np.int16, 4: np.int32}.get(width)
        if dtype is None:
            raise ValidationError(f"{path}: unsupported PCM sample width {width}")
        samples = np.frombuffer(raw, dtype=dtype).astype(np.float64)
        if width == 1:
            samples = (samples - 128.0) / 128.0
        else:
            samples = samples / float(2 ** (8 * width - 1))
        if channels > 1:
            samples = samples.reshape(-1, channels).mean(axis=1)
        return AudioClip(samples=samples, sample_rate=rate)
    raise ValidationError(f"unsupported audio container {path.suffix!r} for {path}")
