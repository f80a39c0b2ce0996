"""The three workloads: set-up, a timed closed loop, and correctness checks.

Each workload calls the package's public functions in the order the
matching CLI command calls them, always through the module attribute
(``feat.load_features``, not an imported name), so a traced run sees
every call.  One client runs each loop: a request starts only when the
previous one has finished.

Every workload reports the same end-to-end metrics, from wall-clock
times:

* ``segments_per_s`` -- train_table3: epochs x training segments over the
  time of one whole ``mclnn train`` run, median over runs;
  predict_overlap: segments classified per second of request time;
  extract_audio: table3 segments (hop q) the extracted frames yield per
  second of request time.
* ``clips_per_s`` -- requests completed per second of request time,
  median over windows of consecutive requests.  train_table3 counts the
  test-fold clips ``evaluate`` classifies at the end of each run.
* ``clip_ms.p50`` / ``clip_ms.p90`` -- latency of those requests: from
  file read to result (predict), to written file (extract), or one
  ``predict_clip`` call inside ``evaluate`` (train).
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

import inputs
import reference

TABLE3 = "table3"
PROBABILITY_TOLERANCE = 1e-9


@dataclass
class Measured:
    """What one timed phase produced."""

    attempted: int = 0
    failed: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    segments_per_s: list[float] = field(default_factory=list)
    segments_per_clip: int = 0
    segments: int = 0
    resampled: int = 0
    hop: int | None = None
    notes: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def completed(self, latency_s: float) -> None:
        self.latencies_ms.append(latency_s * 1e3)


def _fresh(directory: Path) -> Path:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


class _Workload:
    def __init__(self, pkg: dict, seed: int, work: Path):
        self.pkg = pkg
        self.seed = seed
        self.work = work
        self.spec = pkg["model"].PRESETS[TABLE3]
        self.q = pkg["model"].segment_size(self.spec)

    def segment_count(self, hop: int) -> int:
        return self.pkg["dataset"].segment_count(inputs.FRAMES, self.q, hop)


class TrainTable3(_Workload):
    """``mclnn train --preset table3`` on a three-fold plan, hop = q."""

    CLIPS_PER_CLASS = 3
    FOLDS = 3
    TEST_FOLD = 1
    EPOCHS = 1
    BATCH_SIZE = 64
    MIN_RUNS = 2

    def setup(self) -> None:
        feat, ds, mdl, trn = (self.pkg[k] for k in ("features", "dataset", "model", "training"))
        self.root = _fresh(self.work / "train")
        rng = np.random.default_rng(self.seed)
        clips = inputs.write_feature_clips(feat, self.root / "features", rng, self.CLIPS_PER_CLASS)
        plan = ds.make_folds(
            [(clip_id, label) for clip_id, (label, _) in clips.items()], self.FOLDS, self.seed
        )
        plan.save(self.root / "plan.txt")
        self.labels = tuple(f"class{c:02d}" for c in range(inputs.CLASSES))
        self.config = trn.TrainConfig(
            batch_size=self.BATCH_SIZE, epochs=self.EPOCHS, patience=self.EPOCHS,
            seed=self.seed, optimizer="momentum",
        )
        # warm-up: one tiny training step through every layer
        label, frames = next(iter(clips.values()))
        first = feat.FeatureMatrix(frames=frames, clip_id="warm-up", label=label)
        model = mdl.build_model(self.spec, seed=self.seed)
        trn.train(model, ds.segment_clip(first, self.q, self.q)[:2],
                  replace(self.config, epochs=1, batch_size=2))
        roles = ds.fold_buckets(self.FOLDS, self.TEST_FOLD)
        per_role = {role: 0 for role in (ds.TRAIN, ds.VALIDATION, ds.TEST)}
        for bucket in plan.buckets():
            per_role[roles[bucket]] += len(plan.clips_in(bucket))
        self.clips_per_role = per_role

    def epoch_forwards(self) -> int:
        """Forward passes per epoch: every training and validation segment."""
        ds = self.pkg["dataset"]
        return (self.clips_per_role[ds.TRAIN] + self.clips_per_role[ds.VALIDATION]) * (
            self.segment_count(self.q)
        )

    def _train_once(self, out: Path) -> dict:
        """What ``cmd_train`` does, minus argument parsing and printing."""
        feat, ds, mdl, trn = (self.pkg[k] for k in ("features", "dataset", "model", "training"))
        started = time.perf_counter()
        paths = sorted((self.root / "features").glob("*.mclf"))
        all_features = [feat.load_features(p) for p in paths]
        plan = ds.SplitPlan.load(self.root / "plan.txt")
        roles = ds.fold_buckets(len(plan.buckets()), self.TEST_FOLD)
        groups = {ds.TRAIN: [], ds.VALIDATION: [], ds.TEST: []}
        for fm in all_features:
            role = roles[plan.bucket(fm.clip_id)]
            groups[role].append(replace(fm, split=role))
        stats = feat.fit_zscore(groups[ds.TRAIN])
        normalized = {
            role: [feat.apply_zscore(fm, stats) for fm in fms] for role, fms in groups.items()
        }
        train_segments = [s for fm in normalized[ds.TRAIN] for s in ds.segment_clip(fm, self.q, self.q)]
        val_segments = [s for fm in normalized[ds.VALIDATION] for s in ds.segment_clip(fm, self.q, self.q)]
        model = mdl.build_model(self.spec, seed=self.config.seed, labels=self.labels)
        model.norm_stats = stats
        model, report = trn.train(model, train_segments, self.config, val_segments or None)
        by_clip = {fm.clip_id: ds.segment_clip(fm, self.q, self.q) for fm in normalized[ds.TEST]}
        labels_by_clip = {fm.clip_id: fm.label for fm in normalized[ds.TEST]}
        result = trn.evaluate(model, by_clip, labels_by_clip)
        report.test_accuracy = result.clip_accuracy
        report.confusion = result.confusion
        out.mkdir(parents=True, exist_ok=True)
        mdl.save_model(model, out / "model.mcln")
        (out / "report.txt").write_text(report.to_text())
        plan.save(out / "plan.txt")
        elapsed = time.perf_counter() - started
        segments = len(train_segments) + len(val_segments) + sum(map(len, by_clip.values()))
        return {
            "elapsed": elapsed,
            "segments": segments,
            "segments_trained": len(report.epochs) * len(train_segments),
            # a digest, not the bytes, so peak memory does not grow with the run count
            "model_digest": hashlib.sha256((out / "model.mcln").read_bytes()).digest(),
            "text": report.deterministic_text(),
            "losses": [s.train_loss for s in report.epochs]
            + [s.validation_loss for s in report.epochs if s.validation_loss is not None],
            "test_accuracy": result.clip_accuracy,
        }

    def run(self, seconds: float, tracer) -> Measured:
        out = Measured(segments_per_clip=self.segment_count(self.q), hop=self.q)
        tracer.epoch_forwards = self.epoch_forwards()
        tracer.train_forwards = self.EPOCHS * tracer.epoch_forwards
        first = None
        accuracies = []
        started = time.perf_counter()
        while out.attempted < self.MIN_RUNS or time.perf_counter() - started < seconds:
            request = f"run{out.attempted}"
            out.attempted += 1
            tracer.request = request
            try:
                run = self._train_once(self.root / "out")
            except Exception as exc:  # a failed run counts; the loop goes on
                out.fail(f"{request}: {type(exc).__name__}: {exc}")
                continue
            first = first or run
            out.segments += run["segments"]
            accuracies.append(run["test_accuracy"])
            if not np.all(np.isfinite(run["losses"])):
                out.fail(f"{request}: non-finite loss {run['losses']}")
            elif run["model_digest"] != first["model_digest"] or run["text"] != first["text"]:
                out.fail(f"{request}: model or report differs from the first run with this seed")
            else:
                out.segments_per_s.append(run["segments_trained"] / run["elapsed"])
                for ms in tracer.durations_ms("training.predict_clip", "timed", request):
                    out.completed(ms / 1e3)
        out.notes["test_accuracy"] = accuracies
        return out


class PredictOverlap(_Workload):
    """``mclnn predict --hop 13`` on one clip per request, model loaded once."""

    CLIPS_PER_CLASS = 2

    def setup(self) -> None:
        feat, mdl = self.pkg["features"], self.pkg["model"]
        self.hop = self.q // 2
        self.root = _fresh(self.work / "predict")
        rng = np.random.default_rng(self.seed)
        clips = inputs.write_feature_clips(feat, self.root / "features", rng, self.CLIPS_PER_CLASS)
        self.frames = {clip_id: frames for clip_id, (_, frames) in clips.items()}
        stats = feat.fit_zscore(
            [feat.FeatureMatrix(frames=f, clip_id=c) for c, f in self.frames.items()]
        )
        built = mdl.build_model(self.spec, seed=self.seed)
        built.norm_stats = stats
        # build_model leaves biases at 0 and slopes at one constant; seeded
        # values make the reference check cover every parameter
        params = built.copy_parameters()
        for key, value in params.items():
            if key.endswith(".bias"):
                value[...] = rng.normal(0.0, 0.1, value.shape)
            elif key.endswith(".slopes"):
                value[...] = rng.uniform(0.05, 0.5, value.shape)
        built.set_parameters(params)
        mdl.save_model(built, self.root / "model.mcln")
        self.params = built.copy_parameters()
        self.stats = stats
        self.model = mdl.load_model(self.root / "model.mcln")
        self.paths = sorted((self.root / "features").glob("*.mclf"))
        self.order = np.random.default_rng(self.seed + 1).permutation(len(self.paths))
        self._request(self.paths[0])  # warm-up

    def _request(self, path: Path):
        """What ``cmd_predict`` does for one file."""
        feat, ds, trn = self.pkg["features"], self.pkg["dataset"], self.pkg["training"]
        fm = feat.load_features(path)
        if self.model.norm_stats is not None and not fm.normalized:
            fm = feat.apply_zscore(fm, self.model.norm_stats)
        if fm.label is None:
            fm = replace(fm, label=0)
        segments = ds.segment_clip(fm, self.q, self.hop)
        _, mean_probs = trn.predict_clip(self.model, segments)
        return fm.clip_id, len(segments), mean_probs

    def run(self, seconds: float, tracer) -> Measured:
        out = Measured(segments_per_clip=self.segment_count(self.hop), hop=self.hop)
        results = []
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            path = self.paths[self.order[out.attempted % len(self.paths)]]
            tracer.request = f"clip{out.attempted}"
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                clip_id, segments, probs = self._request(path)
            except Exception as exc:
                out.fail(f"{path.name}: {type(exc).__name__}: {exc}")
                continue
            out.completed(time.perf_counter() - t0)
            out.segments += segments
            results.append((clip_id, probs))
        expected = {}
        for clip_id, probs in results:
            if clip_id not in expected:
                expected[clip_id] = reference.clip_probabilities(
                    self.spec, self.params, self.frames[clip_id],
                    self.stats.mean, self.stats.std, self.q, self.hop,
                )
            gap = float(np.max(np.abs(probs - expected[clip_id])))
            out.notes["max_probability_gap"] = max(out.notes.get("max_probability_gap", 0.0), gap)
            if not gap <= PROBABILITY_TOLERANCE:
                out.fail(f"{clip_id}: mean probabilities differ from the reference by {gap:.3e}")
        out.notes["clips_checked"] = len(results)
        return out


class AudioInput(NamedTuple):
    class_name: str
    path: Path
    probe_bin: int
    rate: int


class ExtractAudio(_Workload):
    """``mclnn features extract`` on 16-bit PCM wavs, one clip per request.

    Five of every eight clips are exactly 30 s at 22.05 kHz and skip
    cropping and resampling; three are 37.5 s at 44.1 kHz and are cropped
    and polyphase-resampled.  An unequal mix keeps the median inside one
    mode of the two-mode latency distribution and the p90 inside the
    other, so neither percentile jumps between modes from run to run.
    """

    NATIVE_CLIPS = 5
    RESAMPLED_CLIPS = 3
    LONG_SECONDS = 37.5
    LONG_RATE = 44100

    def setup(self) -> None:
        feat, ds = self.pkg["features"], self.pkg["dataset"]
        self.root = _fresh(self.work / "extract")
        rng = np.random.default_rng(self.seed)
        self.clips = []
        for k in range(self.NATIVE_CLIPS + self.RESAMPLED_CLIPS):
            native = k < self.NATIVE_CLIPS
            clip = AudioInput(
                class_name=f"class{k % 4}",
                path=self.root / "audio" / f"class{k % 4}" / f"clip{k}.wav",
                probe_bin=int(rng.integers(*inputs.PROBE_BINS)),
                rate=inputs.RATE if native else self.LONG_RATE,
            )
            clip.path.parent.mkdir(parents=True, exist_ok=True)
            seconds = inputs.CHUNK_SECONDS if native else self.LONG_SECONDS
            inputs.write_probe_wav(clip.path, rng, clip.rate, seconds, clip.probe_bin)
            self.clips.append(clip)
        self.mapping = ds.class_mapping([clip.class_name for clip in self.clips])
        self.params = feat.FeatureParams()
        self.out_dir = _fresh(self.root / "features")
        self.order = np.random.default_rng(self.seed + 1).permutation(len(self.clips))
        self._request(self.clips[0])  # warm-up, native rate
        self._request(self.clips[-1])  # warm-up, resampled

    def _request(self, clip: AudioInput):
        """What ``cmd_features_extract`` does for one file."""
        feat = self.pkg["features"]
        audio = feat.load_audio(clip.path)
        clip_id = f"{clip.class_name}__{clip.path.stem}"
        fm = feat.extract_features(
            audio, self.params, clip_id=clip_id, label=self.mapping[clip.class_name]
        )
        feat.save_features(fm, self.out_dir / f"{clip_id}.mclf")
        return fm

    def run(self, seconds: float, tracer) -> Measured:
        out = Measured(segments_per_clip=self.segment_count(self.q))
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            clip = self.clips[self.order[out.attempted % len(self.clips)]]
            tracer.request = f"clip{out.attempted}"
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                fm = self._request(clip)
            except Exception as exc:
                out.fail(f"{clip.path.name}: {type(exc).__name__}: {exc}")
                continue
            out.completed(time.perf_counter() - t0)
            out.resampled += clip.rate != self.params.sample_rate
            frames = fm.frames
            if frames.shape != (inputs.FRAMES, inputs.BINS) or not np.all(np.isfinite(frames)):
                out.fail(f"{clip.path.name}: frames {frames.shape}, expected finite "
                         f"({inputs.FRAMES}, {inputs.BINS})")
                continue
            landed = int(np.argmax(frames.mean(axis=0)))
            if landed != clip.probe_bin:
                out.fail(f"{clip.path.name}: sine probe landed on mel bin {landed}, "
                         f"not {clip.probe_bin}")
        return out


WORKLOADS = {
    "train_table3": TrainTable3,
    "predict_overlap": PredictOverlap,
    "extract_audio": ExtractAudio,
}
