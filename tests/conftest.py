"""Shared builders for the test suite."""

from __future__ import annotations

import json
import struct
import threading

import numpy as np
import pytest

import mclnn.layers
import mclnn.model
from mclnn import container
from mclnn.features import FEATURE_MAGIC, FEATURE_VERSION, FeatureMatrix
from mclnn.layers import ClnnLayer, LinearActivation, PRelu
from mclnn.model import MODEL_MAGIC, MODEL_VERSION, LayerSpec, ModelSpec, build_model


def random_clnn_layer(rng, l, e, n, mask=None, activation=None):
    """Random layer; with a mask, its masked weights are zeroed as the layer requires."""
    weights = rng.standard_normal((2 * n + 1, l, e))
    return ClnnLayer(
        order=n,
        weights=weights if mask is None else weights * mask.entries,
        bias=rng.standard_normal(e),
        mask=mask,
        activation=activation if activation is not None else LinearActivation(),
    )


def small_spec(**overrides) -> ModelSpec:
    """Two masked layers over 8 feature bins; tiny enough for FD checks."""
    kwargs = dict(
        feature_length=8,
        layers=(
            LayerSpec(width=6, order=2, bandwidth=3, overlap=1),
            LayerSpec(width=6, order=2, bandwidth=3, overlap=1),
        ),
        extra_frames=3,
        dense_width=5,
        class_count=4,
    )
    kwargs.update(overrides)
    return ModelSpec(**kwargs)


@pytest.fixture
def small_model():
    return build_model(small_spec(), seed=20240811)


def record_task_threads(monkeypatch, workers: int) -> list[bool]:
    """Run the layers and the STFT with ``workers`` workers; the returned list
    gains, for every task they run, in dispatch order, whether it ran off
    the thread that dispatched it."""
    monkeypatch.setattr(mclnn.layers, "_WORKERS", workers)
    off_thread = []
    dispatch = mclnn.layers._run_tasks

    def recording(tasks):
        caller = threading.get_ident()
        # one slot per task: the two threads may start their tasks in either order
        flags = [None] * len(tasks)

        def traced(i, task):
            def run():
                flags[i] = threading.get_ident() != caller
                task()
            return run

        dispatch([traced(i, task) for i, task in enumerate(tasks)])
        off_thread.extend(flags)

    monkeypatch.setattr(mclnn.layers, "_run_tasks", recording)
    return off_thread


def au_bytes(data: bytes, encoding=3, rate=2000, channels=1, offset=24, size=None) -> bytes:
    """A Sun .au file: the 24-byte big-endian header, zero padding up to
    ``offset``, then ``data``; ``size`` is the declared data size
    (``len(data)`` if None, 0xFFFFFFFF for "to the end")."""
    declared = len(data) if size is None else size
    header = struct.pack(">4s5I", b".snd", offset, declared, encoding, rate, channels)
    return header + bytes(offset - len(header)) + data


def dirty_masked_weight(model):
    """Set one masked clnn0 weight to 1.0, bypassing every check."""
    dead = np.argwhere(model.clnn_layers[0].mask.entries == 0.0)[0]
    model.clnn_layers[0].weights[2, dead[0], dead[1]] = 1.0


def accept_any(header, arrays=None):
    """A container parser that accepts every file: the header, with the
    arrays when it is given them, as read."""
    return header if arrays is None else (header, arrays)


def write_model_unchecked(model, path):
    """The bytes ``save_model`` would write for ``model``, written without its checks."""
    container.write(path, MODEL_MAGIC, MODEL_VERSION, *mclnn.model._file_contents(model),
                    accept_any)


def _rewrite_header(path, magic, version, shapes, edit, payload):
    header, arrays = container.read(path, magic, version, shapes, accept_any)
    edit(header)
    container.write(path, magic, version, header, arrays if payload else [], accept_any)


def rewrite_model_header(path, edit, payload=True):
    """Re-write a model file after ``edit(header)`` changed its JSON header;
    ``payload=False`` drops every array."""
    def shapes(header):
        norm = [(header["norm"]["length"],)] * 2 if header["norm"] else []
        return [tuple(entry["shape"]) for entry in header["params"]] + norm

    _rewrite_header(path, MODEL_MAGIC, MODEL_VERSION, shapes, edit, payload)


def rewrite_feature_header(path, edit, payload=True):
    """Re-write a feature file after ``edit(header)`` changed its JSON header;
    ``payload=False`` drops the frames."""
    _rewrite_header(path, FEATURE_MAGIC, FEATURE_VERSION, lambda h: [(h["t"], h["l"])],
                    edit, payload)


def rewrite_header_by_hand(path, edit):
    """Re-write a container file after ``edit(header)`` changed its JSON header,
    by hand: none of the writer's checks runs, its bound on nesting included."""
    blob = path.read_bytes()
    magic, version, size = struct.unpack_from("<4sIQ", blob)
    start = struct.calcsize("<4sIQ")
    header = json.loads(blob[start : start + size])
    edit(header)
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(struct.pack("<4sIQ", magic, version, len(encoded)) + encoded
                     + blob[start + size :])


def nested_lists(depth):
    """A list nested ``depth`` lists deep."""
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


# ---------------------------------------------------------------------------
# synthetic sweep dataset: class 0 ramps an energy band upward across the
# feature bins over time, class 1 ramps it downward
# ---------------------------------------------------------------------------

SWEEP_BINS = 16
SWEEP_FRAMES = 40


def sweep_clip(rng, upward: bool, noise: float = 0.1) -> np.ndarray:
    t = np.arange(SWEEP_FRAMES) / (SWEEP_FRAMES - 1)
    centers = 1.0 + t * (SWEEP_BINS - 3.0)
    if not upward:
        centers = centers[::-1]
    bins = np.arange(SWEEP_BINS)
    bump = np.exp(-0.5 * ((bins[None, :] - centers[:, None]) / 1.5) ** 2)
    return bump + noise * rng.standard_normal((SWEEP_FRAMES, SWEEP_BINS))


def make_sweep_dataset(clips_per_class=200, noise=0.1, seed=99):
    """List of labelled FeatureMatrix clips, half upward and half downward."""
    rng = np.random.default_rng(seed)
    clips = []
    for label, upward in ((0, True), (1, False)):
        for i in range(clips_per_class):
            clips.append(
                FeatureMatrix(
                    frames=sweep_clip(rng, upward, noise),
                    clip_id=f"{'up' if upward else 'down'}{i:03d}",
                    label=label,
                )
            )
    return clips
