"""Generated stand-ins for GTZAN-sized inputs, made only from the workload seed.

Feature clips have the shape a 30 s clip at 22.05 kHz gives with the
reference pipeline (645 frames x 256 mel bins) and carry a class-dependent
band of raised energy, so a table3 model has something to learn.  Audio
clips are 16-bit PCM with a sine probe centred on one mel bin, so the
extracted features can be checked against a known answer.
"""

from __future__ import annotations

import wave
from pathlib import Path

import numpy as np

FRAMES = 645
BINS = 256
CLASSES = 10
RATE = 22050
CHUNK_SECONDS = 30.0
BAND_LIFT = 1.5
PROBE_BINS = (40, 240)


def band_energy_frames(rng: np.random.Generator, label: int) -> np.ndarray:
    """Unit-variance frames plus a raised band of bins chosen by ``label``."""
    frames = rng.standard_normal((FRAMES, BINS))
    width = BINS // CLASSES
    frames[:, label * width : (label + 1) * width] += BAND_LIFT
    return frames


def write_feature_clips(feat, directory: Path, rng, clips_per_class: int) -> dict[str, tuple]:
    """Save ``clips_per_class`` clips per class with the package.

    Returns ``{clip_id: (label, frames)}``.
    """
    directory.mkdir(parents=True, exist_ok=True)
    clips = {}
    for label in range(CLASSES):
        for k in range(clips_per_class):
            clip_id = f"class{label:02d}__clip{k}"
            frames = band_energy_frames(rng, label)
            feat.save_features(
                feat.FeatureMatrix(frames=frames, clip_id=clip_id, label=label),
                directory / f"{clip_id}.mclf",
            )
            clips[clip_id] = (label, frames)
    return clips


def mel_center_hz(mel_bin: int, bins: int = BINS, rate: int = RATE) -> float:
    """Centre frequency of triangular filter ``mel_bin`` on the HTK mel scale."""
    top = 2595.0 * np.log10(1.0 + rate / 2.0 / 700.0)
    mel = np.linspace(0.0, top, bins + 2)[mel_bin + 1]
    return float(700.0 * (10.0 ** (mel / 2595.0) - 1.0))


def write_probe_wav(path: Path, rng, rate: int, seconds: float, probe_bin: int) -> None:
    """Mono 16-bit PCM: a sine at the centre of ``probe_bin`` over weak noise."""
    n = int(round(rate * seconds))
    t = np.arange(n) / rate
    signal = 0.5 * np.sin(2.0 * np.pi * mel_center_hz(probe_bin) * t + rng.uniform(0, 2 * np.pi))
    signal += 0.05 * rng.standard_normal(n)
    pcm = np.clip(np.round(signal * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(rate)
        handle.writeframes(pcm.tobytes())
