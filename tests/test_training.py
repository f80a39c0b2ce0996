"""Training loop, voting, evaluation, and the gradient checker."""

import hashlib
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import mclnn.model
import mclnn.training as trn
from mclnn.dataset import Segment, segment_clip
from mclnn.errors import (
    ContractError,
    ShapeError,
    TrainingDivergedError,
    ValidationError,
)
from mclnn.features import FeatureMatrix, NormStats, apply_zscore
import mclnn.layers
from mclnn.layers import Workspace, backward, softmax
from mclnn.model import (
    LayerSpec,
    ModelSpec,
    build_model,
    model_forward,
    model_forward_tape,
    segment_size,
)
from mclnn.training import (
    OPTIMIZERS,
    RunReport,
    TrainConfig,
    confusion_lines,
    cross_entropy,
    cross_entropy_grad,
    evaluate,
    grad_check,
    predict_clip,
    train,
)

from conftest import small_spec
from test_layers import record_task_threads


def tiny_spec():
    return ModelSpec(
        feature_length=4,
        layers=(LayerSpec(width=3, order=1, bandwidth=2, overlap=0),),
        extra_frames=2,
        dense_width=3,
        class_count=2,
    )


def tiny_segments(count, seed=1, label_fn=lambda i: i % 2, clip_id_fn=lambda i: f"c{i}"):
    spec = tiny_spec()
    q = segment_size(spec)
    rng = np.random.default_rng(seed)
    return [
        Segment(
            frames=rng.standard_normal((q, spec.feature_length)),
            label=label_fn(i),
            clip_id=clip_id_fn(i),
            start=0,
        )
        for i in range(count)
    ]


class TestCrossEntropy:
    def test_one_hot_correct_is_zero(self):
        assert cross_entropy(np.array([0.0, 1.0, 0.0]), 1) == 0.0

    def test_uniform_is_log_c(self):
        for c in (2, 5, 10):
            assert_allclose(cross_entropy(np.full(c, 1.0 / c), 0), math.log(c), rtol=0, atol=1e-12)

    def test_frozen_value(self):
        assert_allclose(
            cross_entropy(np.array([0.7, 0.3]), 1), 1.2039728043259361, rtol=0, atol=1e-15
        )

    def test_clamp_floor(self):
        assert_allclose(cross_entropy(np.array([1.0, 0.0]), 1), -math.log(1e-12), rtol=0, atol=1e-9)

    def test_target_out_of_range(self):
        with pytest.raises(ValidationError):
            cross_entropy(np.array([0.5, 0.5]), 2)
        with pytest.raises(ValidationError):
            cross_entropy(np.array([0.5, 0.5]), -1)

    def test_nonnegative_with_equality_iff_certain(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            logits = rng.standard_normal(4)
            p = np.exp(logits) / np.exp(logits).sum()
            loss = cross_entropy(p, 2)
            assert loss > 0.0  # p[2] < 1 strictly for finite logits
        assert cross_entropy(np.array([0.0, 0.0, 1.0, 0.0]), 2) == 0.0

    def test_gradient_matches_finite_differences(self):
        # the gradient is taken with respect to the logits, through softmax
        logits = np.array([0.3, -1.2, 0.8])
        g = cross_entropy_grad(softmax(logits), 1)
        eps = 1e-7
        for j in range(3):
            up, down = logits.copy(), logits.copy()
            up[j] += eps
            down[j] -= eps
            numeric = (cross_entropy(softmax(up), 1) - cross_entropy(softmax(down), 1)) / (2 * eps)
            assert_allclose(g[j], numeric, rtol=1e-6, atol=1e-6)

    def test_batch_gradient_rows_are_scaled_by_batch_size(self):
        # the batch loss is the mean over rows, so row b's gradient is 1/B of its own
        probs = softmax(np.random.default_rng(1).standard_normal((5, 3)))
        targets = np.array([0, 2, 1, 1, 0])
        rows = [cross_entropy_grad(p, t) for p, t in zip(probs, targets)]
        assert_allclose(cross_entropy_grad(probs, targets), np.array(rows) / 5, rtol=0, atol=1e-15)
        assert_array_equal(cross_entropy(probs, targets), [cross_entropy(p, t) for p, t in zip(probs, targets)])

    def test_confidently_wrong_segment_still_gets_a_gradient(self):
        p = softmax(np.array([0.0, 40.0, 0.0]))
        assert p[0] < 1e-12
        g = cross_entropy_grad(p, 0)
        assert np.all(np.isfinite(g))
        assert g[0] < -0.99 and g[1] > 0.99


class TestTrain:
    def test_zero_learning_rate_changes_nothing(self):
        model = build_model(tiny_spec(), seed=0)
        before = model.copy_parameters()
        segments = tiny_segments(6)
        model, report = train(
            model, segments, TrainConfig(learning_rate=0.0, epochs=4, batch_size=2, seed=1, patience=2)
        )
        for key, tensor in model.parameters().items():
            assert_array_equal(tensor, before[key], err_msg=key)

    def test_single_segment_memorization(self):
        model = build_model(tiny_spec(), seed=5)
        segment = tiny_segments(1, seed=7)[0]
        model, report = train(
            model,
            [segment],
            TrainConfig(learning_rate=0.1, epochs=300, batch_size=1, seed=3, patience=300),
        )
        assert report.epochs[-1].train_loss <= 1e-3

    def test_same_seed_bit_identical_reports_and_parameters(self):
        segments = tiny_segments(10)
        runs = []
        for _ in range(2):
            model = build_model(tiny_spec(), seed=9)
            model, report = train(
                model, segments, TrainConfig(epochs=5, batch_size=4, seed=11, patience=5),
                validation_segments=tiny_segments(4, seed=2),
            )
            runs.append((model.copy_parameters(), report))
        params_a, report_a = runs[0]
        params_b, report_b = runs[1]
        for key in params_a:
            assert params_a[key].tobytes() == params_b[key].tobytes(), key
        assert report_a.deterministic_text() == report_b.deterministic_text()
        assert report_a.epochs == report_b.epochs

    def test_trained_weights_equal_remasked_weights_bit_for_bit(self):
        # the forward used to run on ``weights * mask``; training must keep
        # that product byte-identical to the stored weights, so dropping the
        # multiply changes no forward, gradient or saved model
        model = build_model(small_spec(), seed=12)
        rng = np.random.default_rng(13)
        segments = [
            Segment(frames=rng.standard_normal((11, 8)), label=i % 4, clip_id=f"c{i}", start=0)
            for i in range(12)
        ]
        model, _ = train(model, segments, TrainConfig(epochs=3, batch_size=5, seed=14, patience=3))
        for layer in model.clnn_layers:
            assert (layer.weights * layer.mask.entries).tobytes() == layer.weights.tobytes()

    def test_empty_training_split_rejected(self):
        model = build_model(tiny_spec(), seed=0)
        with pytest.raises(ValidationError, match="empty"):
            train(model, [], TrainConfig())

    def test_non_finite_loss_aborts_with_diagnostic(self):
        model = build_model(tiny_spec(), seed=0)
        segment = tiny_segments(1)[0]
        poisoned = Segment(
            frames=np.where(np.eye(segment.frames.shape[0], 4) > 0, np.inf, segment.frames),
            label=0, clip_id="bad", start=0,
        )
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as excinfo:
                train(model, [poisoned], TrainConfig(epochs=3, batch_size=1, seed=1))
        assert excinfo.value.epoch == 1

    def test_early_stopping_restores_best_validation_snapshot(self):
        segments = tiny_segments(12, seed=4)
        validation = tiny_segments(6, seed=5)
        model = build_model(tiny_spec(), seed=13)
        model, report = train(
            model, segments,
            TrainConfig(learning_rate=0.3, epochs=40, batch_size=4, seed=6, patience=3),
            validation_segments=validation,
        )
        recorded = [s.validation_loss for s in report.epochs]
        best = min(recorded)
        assert report.best_epoch == recorded.index(best) + 1
        # the returned parameters reproduce the best recorded validation loss
        total = sum(cross_entropy(model_forward(model, s.frames), s.label) for s in validation)
        assert_allclose(total / len(validation), best, rtol=0, atol=1e-12)

    def test_patience_triggers_early_stop(self):
        model = build_model(tiny_spec(), seed=0)
        segments = tiny_segments(1)  # one segment: epoch loss is bit-identical every epoch
        model, report = train(
            model, segments, TrainConfig(learning_rate=0.0, epochs=50, batch_size=2, seed=1, patience=4)
        )
        assert report.stopped_early
        assert len(report.epochs) == 1 + 4  # first epoch sets best, then patience runs out
        assert report.best_epoch == 1

    def test_first_non_finite_batch_aborts_with_epoch_and_batch(self):
        model = build_model(tiny_spec(), seed=0)
        segments = tiny_segments(12)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError) as excinfo:
                train(model, segments, TrainConfig(learning_rate=1e200, epochs=3, batch_size=2,
                                                   seed=1, optimizer="sgd"))
        error = excinfo.value
        assert error.epoch == 1
        assert 2 <= error.batch <= 6  # the first batch is finite; its update blows up a later one
        assert f"epoch 1, batch {error.batch}" in str(error)
        assert not np.isfinite(error.loss)

    @pytest.mark.parametrize("where, label", [("train", None), ("train", 2), ("validation", -1)])
    def test_a_bad_label_is_rejected_naming_its_clip_before_any_update(self, where, label):
        # 50 labeled segments at batch_size 1, then the bad one: every
        # training batch before it would have updated the parameters
        segments = tiny_segments(51)
        validation = tiny_segments(3, seed=2, clip_id_fn=lambda i: f"v{i}")
        bad = {"train": segments, "validation": validation}[where]
        bad[-1] = replace(bad[-1], label=label)
        model = build_model(tiny_spec(), seed=0)
        before = {key: value.tobytes() for key, value in model.parameters().items()}
        with pytest.raises(ValidationError, match=(
            rf"clip '{bad[-1].clip_id}' label {label} is not a class id in \[0, 2\)"
        )):
            train(model, segments, TrainConfig(epochs=1, batch_size=1, seed=1), validation)
        assert {key: value.tobytes() for key, value in model.parameters().items()} == before

    def test_batch_gradient_is_mean_of_per_segment_gradients(self, small_model):
        rng = np.random.default_rng(40)
        frames = rng.standard_normal((7, 11, 8))
        targets = rng.integers(0, 4, size=7)
        probs, tape = model_forward_tape(small_model, frames)
        batched = backward(tape, cross_entropy_grad(probs, targets))
        singles = []
        for segment, target in zip(frames, targets):
            p, t = model_forward_tape(small_model, segment[None])
            singles.append(backward(t, cross_entropy_grad(p, [target])))
        assert set(batched) == set(small_model.parameters())
        for key, grad in batched.items():
            mean = np.mean([g[key] for g in singles], axis=0)
            assert_allclose(grad, mean, rtol=0, atol=1e-12, err_msg=key)
        for i, layer in enumerate(small_model.clnn_layers):
            dead = layer.mask.entries == 0.0
            assert np.all(batched[f"clnn{i}.weights"][:, dead] == 0.0)

    def test_validation_loss_in_chunks_matches_per_segment_loss(self, small_model):
        rng = np.random.default_rng(41)
        segments = [
            Segment(frames=rng.standard_normal((11, 8)), label=i % 4, clip_id=f"c{i}", start=0)
            for i in range(10)
        ]
        loss, accuracy = trn._dataset_loss(small_model, segments, batch_size=4)
        probs = [model_forward(small_model, s.frames) for s in segments]
        expected_loss = np.mean([cross_entropy(p, s.label) for p, s in zip(probs, segments)])
        expected_accuracy = np.mean([np.argmax(p) == s.label for p, s in zip(probs, segments)])
        assert_allclose(loss, expected_loss, rtol=0, atol=1e-12)
        assert accuracy == expected_accuracy

    def test_masked_weights_stay_zero_through_training(self):
        model = build_model(tiny_spec(), seed=21)
        dead = model.clnn_layers[0].mask.entries == 0.0
        segments = tiny_segments(16, seed=22)
        model, _ = train(
            model, segments, TrainConfig(learning_rate=0.05, epochs=8, batch_size=4, seed=23, patience=8)
        )
        assert np.all(model.clnn_layers[0].weights[:, dead] == 0.0)

    def test_momentum_and_sgd_both_learn(self):
        segments = tiny_segments(20, seed=30)
        for optimizer in ("sgd", "momentum"):
            model = build_model(tiny_spec(), seed=31)
            model, report = train(
                model, segments,
                TrainConfig(learning_rate=0.05, epochs=15, batch_size=5, seed=32,
                            patience=15, optimizer=optimizer),
            )
            assert report.epochs[-1].train_loss < report.epochs[0].train_loss

    def test_optimizer_names_are_one_tuple(self):
        assert OPTIMIZERS == ("sgd", "momentum")
        assert [TrainConfig(optimizer=name).optimizer for name in OPTIMIZERS] == list(OPTIMIZERS)
        with pytest.raises(ValidationError, match="optimizer must be 'sgd' or 'momentum'"):
            TrainConfig(optimizer="adam")

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValidationError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValidationError):
            TrainConfig(optimizer="adam")
        with pytest.raises(ValidationError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValidationError):
            TrainConfig(hop=0)
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)



def small_segments(count, seed):
    """``count`` random ``small_spec`` segments, labels cycling through the 4 classes."""
    rng = np.random.default_rng(seed)
    return [
        Segment(frames=rng.standard_normal((11, 8)), label=i % 4, clip_id=f"c{i}", start=0)
        for i in range(count)
    ]


class TestStepBuffers:
    """One ``train`` call reuses one workspace for every mini-batch."""

    _segments = staticmethod(small_segments)

    def _train(self, optimizer):
        model = build_model(small_spec(), seed=50)
        config = TrainConfig(learning_rate=0.05, epochs=3, batch_size=2, seed=51,
                             patience=3, optimizer=optimizer)
        # 5 segments at batch_size 2: the last batch takes a prefix of the buffers
        model, report = train(model, self._segments(5, 52), config, self._segments(3, 53))
        return model.copy_parameters(), report.deterministic_text()

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_reused_buffers_leak_no_stale_values(self, monkeypatch, optimizer):
        reused = self._train(optimizer)
        # every buffer fresh and poisoned: a read before a write shows up
        monkeypatch.setattr(
            mclnn.layers.Workspace, "take", lambda self, key, shape: np.full(shape, np.nan)
        )
        fresh = self._train(optimizer)
        assert reused[1] == fresh[1]
        for key in reused[0]:
            assert reused[0][key].tobytes() == fresh[0][key].tobytes(), key

    def test_backward_on_a_larger_batch_s_buffers_equals_a_fresh_backward(self, small_model):
        rng = np.random.default_rng(54)
        space = Workspace()
        probs, tape = model_forward_tape(small_model, rng.standard_normal((5, 11, 8)), space)
        backward(tape, cross_entropy_grad(probs, [0, 1, 2, 3, 0]), space)
        frames, targets = rng.standard_normal((3, 11, 8)), [3, 2, 1]
        probs, tape = model_forward_tape(small_model, frames, space)
        reused = backward(tape, cross_entropy_grad(probs, targets), space)
        probs, tape = model_forward_tape(small_model, frames)
        fresh = backward(tape, cross_entropy_grad(probs, targets))
        assert set(reused) == set(fresh)
        for key in fresh:
            assert reused[key].tobytes() == fresh[key].tobytes(), key

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_update_in_place_is_the_textbook_step_bytewise(self, small_model, optimizer):
        # the update scales the gradient in place instead of allocating
        # lr * g; the IEEE operations, and so the bytes, are the same
        segment = self._segments(1, 55)[0]
        before = small_model.copy_parameters()
        probs, tape = model_forward_tape(small_model, segment.frames[None])
        grads = backward(tape, cross_entropy_grad(probs, [segment.label]))
        if optimizer == "sgd":
            want = {k: before[k] - 0.05 * g for k, g in grads.items()}
        else:
            want = {k: before[k] + (np.zeros_like(g) * 0.9 - 0.05 * g) for k, g in grads.items()}
        config = TrainConfig(learning_rate=0.05, epochs=1, batch_size=1, seed=0, optimizer=optimizer)
        train(small_model, [segment], config)
        for key, value in small_model.parameters().items():
            assert value.tobytes() == want[key].tobytes(), key

    def test_validation_runs_untaped(self, monkeypatch):
        taped = []
        original = trn.model_forward_tape
        monkeypatch.setattr(trn, "model_forward_tape", lambda *a: taped.append(1) or original(*a))
        model = build_model(small_spec(), seed=56)
        config = TrainConfig(epochs=2, batch_size=2, seed=57, patience=2)
        train(model, self._segments(5, 58), config, self._segments(4, 59))
        assert len(taped) == 2 * 3  # one per training batch; validation adds none

    def test_batch_is_stacked_time_major(self):
        segments = self._segments(3, 60)
        frames, labels = trn._stack(segments, Workspace())
        assert frames.shape == (3, 11, 8) and frames.transpose(1, 0, 2).flags.c_contiguous
        assert_array_equal(frames, np.stack([s.frames for s in segments]))
        assert_array_equal(labels, [0, 1, 2])

    @pytest.mark.parametrize("flags", [(False,) * 5, (False, True, False, False, True), (True,) * 5],
                             ids=["all-raw", "mixed", "all-normalized"])
    def test_batch_normalizes_the_raw_segments_only(self, flags):
        rng = np.random.default_rng(63)
        stats = NormStats(mean=rng.standard_normal(8), std=rng.uniform(0.5, 2.0, 8),
                          source_split="train", stats_id="s63")
        segments = [replace(s, normalized=f) for f, s in zip(flags, self._segments(5, 64))]
        before = [s.frames.tobytes() for s in segments]
        frames, _ = trn._stack(segments, Workspace(), stats)
        for row, s in zip(frames, segments):
            want = s.frames if s.normalized else (s.frames - stats.mean) / stats.std
            assert row.tobytes() == want.tobytes()
        assert [s.frames.tobytes() for s in segments] == before

    def test_raw_clips_train_as_their_normalized_copies(self):
        rng = np.random.default_rng(65)
        clips = [FeatureMatrix(frames=rng.standard_normal((30, 8)) * 3.0 + 1.0, clip_id=f"c{i}",
                               label=i % 4) for i in range(6)]
        stats = NormStats(mean=np.full(8, 1.0), std=np.full(8, 3.0), source_split="train",
                          stats_id="s65")
        runs = []
        for prepared in (clips, [apply_zscore(fm, stats) for fm in clips]):
            segments = [s for fm in prepared for s in segment_clip(fm, 11, 5)]
            model = build_model(small_spec(), seed=66)
            model.norm_stats = stats
            config = TrainConfig(learning_rate=0.05, epochs=2, batch_size=4, seed=67, patience=2)
            model, report = train(model, segments[:-6], config, segments[-6:])
            runs.append(({k: v.tobytes() for k, v in model.copy_parameters().items()},
                         report.deterministic_text()))
        assert runs[0] == runs[1]

    def test_segments_of_two_shapes_are_a_shape_error(self):
        segments = self._segments(3, 61)
        segments[1] = replace(segments[1], frames=segments[1].frames[:-1])
        with pytest.raises(ShapeError):
            train(build_model(small_spec(), seed=62), segments, TrainConfig(epochs=1, batch_size=4))


def on_fresh_thread(work):
    """``work()`` run on a new thread, which has no training workspace yet."""
    results = []

    def run():
        assert getattr(trn._kept, "workspace", None) is None
        results.append(work())

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and len(results) == 1
    return results[0]


class TestKeptWorkspace:
    """Each thread keeps one training workspace across ``train`` calls, with unchanged bits."""

    @staticmethod
    def _run(batch_size, seed=70):
        """md5 of the trained parameters and the report's deterministic text."""
        model = build_model(small_spec(), seed=seed)
        config = TrainConfig(learning_rate=0.05, epochs=2, batch_size=batch_size, seed=seed + 1,
                             patience=2)
        # 70 segments: a partial last batch at batch sizes 8 and 64
        model, report = train(model, small_segments(70, seed + 2), config,
                              small_segments(20, seed + 3))
        params = model.parameters()
        digest = hashlib.md5(b"".join(params[key].tobytes() for key in sorted(params)))
        return digest.hexdigest(), report.deterministic_text()

    def test_back_to_back_runs_equal_a_run_on_a_fresh_thread(self):
        first, second = self._run(8), self._run(8)
        space = trn._kept.workspace
        assert first == second == on_fresh_thread(lambda: self._run(8))
        assert trn._kept.workspace is space

    def test_a_smaller_batch_after_a_larger_one_equals_it_on_a_fresh_thread(self):
        self._run(64)
        assert self._run(8) == on_fresh_thread(lambda: self._run(8))

    def test_threads_training_at_once_keep_their_own_workspaces(self):
        jobs = [(8, 71), (64, 72), (5, 73), (64, 74)]  # more threads than cores
        sequential = [self._run(batch_size, seed) for batch_size, seed in jobs]
        start = threading.Barrier(len(jobs))
        results, spaces = [None] * len(jobs), [None] * len(jobs)

        def work(i, batch_size, seed):
            start.wait(timeout=60)
            results[i] = [self._run(batch_size, seed) for _ in range(2)]
            spaces[i] = trn._kept.workspace

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i, *job)) for i, job in enumerate(jobs)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len({id(space) for space in spaces}) == len(jobs)
        assert results == [[want, want] for want in sequential]

    # the layers' second thread overflows too, outside the caller's np.errstate
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_diverged_run_leaves_the_next_run_s_bits_unchanged(self):
        model = build_model(small_spec(), seed=75)
        config = TrainConfig(learning_rate=1e200, epochs=3, batch_size=64, seed=76,
                             optimizer="sgd")
        with pytest.raises(TrainingDivergedError):
            train(model, small_segments(200, 77), config)
        assert self._run(8) == on_fresh_thread(lambda: self._run(8))


class TestWorkerCountKeepsTheBits:
    """table3 training and prediction give the same bytes at one and two workers."""

    def test_one_table3_epoch(self, monkeypatch):
        spec = mclnn.model.PRESETS["table3"]
        q = segment_size(spec)
        rng = np.random.default_rng(80)

        def segments(count):
            return [
                Segment(frames=rng.standard_normal((q, spec.feature_length)), label=i % 10,
                        clip_id=f"c{i}", start=0)
                for i in range(count)
            ]

        # 100 segments at batch_size 64: a full batch, then a short one of 36
        train_segments, validation = segments(100), segments(20)
        config = TrainConfig(epochs=1, batch_size=64, seed=81, patience=1)
        runs = {}
        for workers in (1, 2):
            off_thread = record_task_threads(monkeypatch, workers)
            model, report = train(build_model(spec, seed=82), train_segments, config, validation)
            assert any(off_thread) == (workers == 2)
            runs[workers] = (model.copy_parameters(), report.deterministic_text())
        assert runs[1][1] == runs[2][1]
        for key, value in runs[1][0].items():
            assert value.tobytes() == runs[2][0][key].tobytes(), key

    def test_predict_clip(self, monkeypatch):
        spec = mclnn.model.PRESETS["table3"]
        model = build_model(spec, seed=83)
        clip = FeatureMatrix(
            frames=np.random.default_rng(84).standard_normal((645, spec.feature_length)),
            clip_id="c", label=0,
        )
        # at hop 1 a chunk of 64 segments is one run of 89 frames, which both
        # conditional layers cover whole: under 96 rows, one slab each
        for hop, splits in ((1, False), (13, True), (26, True)):
            segments = segment_clip(clip, segment_size(spec), hop)
            probs = {}
            for workers in (1, 2):
                off_thread = record_task_threads(monkeypatch, workers)
                probs[workers] = predict_clip(model, segments)[1]
                assert any(off_thread) == (splits and workers == 2), hop
            assert probs[1].tobytes() == probs[2].tobytes(), hop


def constant_prediction(probs_by_clip):
    """Patchable stand-in for model_forward_run.

    Returns one probability row per segment of the run, keyed on the
    segment's first value.
    """

    def fake_forward_run(model, frames, starts):
        return np.array([probs_by_clip[frames[s, 0]] for s in starts], dtype=float)

    return fake_forward_run


class TestPredictClip:
    def _segments(self, clip_id, markers, q=11, l=8, label=0):
        segments = []
        for pos, marker in enumerate(markers):
            frames = np.zeros((q, l))
            frames[0, 0] = marker
            segments.append(Segment(frames=frames, label=label, clip_id=clip_id, start=pos))
        return segments

    def test_unanimous_vote(self, small_model, monkeypatch):
        monkeypatch.setattr(
            trn, "model_forward_run",
            constant_prediction({1.0: [0.1, 0.2, 0.6, 0.1], 2.0: [0.0, 0.3, 0.5, 0.2]}),
        )
        segments = self._segments("c", [1.0, 2.0, 1.0])
        predicted, mean_probs = predict_clip(small_model, segments)
        assert predicted == 2
        assert_allclose(mean_probs.sum(), 1.0, rtol=0, atol=1e-12)

    def test_single_segment_argmax(self, small_model, monkeypatch):
        monkeypatch.setattr(trn, "model_forward_run", constant_prediction({5.0: [0.05, 0.9, 0.03, 0.02]}))
        predicted, _ = predict_clip(small_model, self._segments("c", [5.0]))
        assert predicted == 1

    def test_tie_broken_by_mean_probability(self, small_model, monkeypatch):
        # two votes each for class 0 and class 1; class 0 has the higher mean
        monkeypatch.setattr(
            trn, "model_forward_run",
            constant_prediction({
                1.0: [0.8, 0.1, 0.05, 0.05],
                2.0: [0.7, 0.2, 0.05, 0.05],
                3.0: [0.1, 0.6, 0.2, 0.1],
                4.0: [0.2, 0.5, 0.2, 0.1],
            }),
        )
        predicted, mean_probs = predict_clip(small_model, self._segments("c", [1.0, 2.0, 3.0, 4.0]))
        assert predicted == 0
        assert mean_probs[0] > mean_probs[1]

    def test_full_tie_goes_to_lowest_class_id(self, small_model, monkeypatch):
        monkeypatch.setattr(
            trn, "model_forward_run",
            constant_prediction({
                1.0: [0.6, 0.2, 0.1, 0.1],
                2.0: [0.2, 0.6, 0.1, 0.1],
            }),
        )
        predicted, _ = predict_clip(small_model, self._segments("c", [1.0, 2.0]))
        assert predicted == 0

    def test_permutation_invariance(self, small_model):
        rng = np.random.default_rng(50)
        segments = [
            Segment(frames=rng.standard_normal((11, 8)), label=0, clip_id="c", start=i)
            for i in range(6)
        ]
        baseline = predict_clip(small_model, segments)
        for seed in range(5):
            shuffled = list(segments)
            np.random.default_rng(seed).shuffle(shuffled)
            predicted, mean_probs = predict_clip(small_model, shuffled)
            assert predicted == baseline[0]
            assert mean_probs.tobytes() == baseline[1].tobytes()

    def test_chunked_clip_matches_per_segment_forward(self, small_model):
        # more segments than one chunk holds, and not a multiple of it
        rng = np.random.default_rng(51)
        count = trn.PREDICT_CHUNK + 6
        segments = [
            Segment(frames=rng.standard_normal((11, 8)), label=0, clip_id="c", start=i)
            for i in range(count)
        ]
        probs = np.array([model_forward(small_model, s.frames) for s in segments])
        predicted, mean_probs = predict_clip(small_model, segments)
        assert_allclose(mean_probs, probs.mean(axis=0), rtol=0, atol=1e-12)
        votes = np.bincount(probs.argmax(axis=1), minlength=4)
        tied = np.flatnonzero(votes == votes.max())
        assert predicted == tied[np.argmax(probs.mean(axis=0)[tied])]

    def test_empty_and_mixed_clips_rejected(self, small_model):
        with pytest.raises(ContractError):
            predict_clip(small_model, [])
        segments = [
            Segment(frames=np.zeros((11, 8)), label=0, clip_id="a", start=0),
            Segment(frames=np.zeros((11, 8)), label=0, clip_id="b", start=1),
        ]
        with pytest.raises(ContractError, match="multiple clips"):
            predict_clip(small_model, segments)

    def test_a_clip_mixing_raw_and_normalized_segments_is_rejected(self, small_model):
        segments = self._segments("c", [1.0, 2.0])
        segments[1] = replace(segments[1], normalized=True)
        with pytest.raises(ContractError, match="mixes raw and normalized"):
            predict_clip(small_model, segments)

    @pytest.mark.parametrize("hop", [1, 11])
    def test_raw_clip_predicts_as_its_normalized_copy(self, small_model, hop):
        rng = np.random.default_rng(68)
        clip = FeatureMatrix(frames=rng.standard_normal((90, 8)) * 2.0 - 1.0, clip_id="c", label=0)
        small_model.norm_stats = NormStats(mean=np.full(8, -1.0), std=np.full(8, 2.0),
                                           source_split="train", stats_id="s68")
        before = clip.frames.tobytes()
        raw = predict_clip(small_model, segment_clip(clip, 11, hop))
        normalized = predict_clip(
            small_model, segment_clip(apply_zscore(clip, small_model.norm_stats), 11, hop)
        )
        assert raw[0] == normalized[0] and raw[1].tobytes() == normalized[1].tobytes()
        assert clip.frames.tobytes() == before


class TestPredictClipSharing:
    """Overlapping segments share conditional-layer rows; the answer does not change."""

    Q, SHARED = 11, 7  # small_spec: q = 11, and q - 2 n_0 = 7

    def _segments(self, hop, frames=1000, seed=52):
        clip = np.random.default_rng(seed).standard_normal((frames, 8))
        return segment_clip(FeatureMatrix(frames=clip, clip_id="c", label=0), self.Q, hop)

    def _batched(self, model, segments):
        """The path without sharing: every chunk stacked and run batched."""
        probs = np.concatenate([
            model_forward_tape(model, trn._stack(segments[i : i + trn.PREDICT_CHUNK])[0])[0]
            for i in range(0, len(segments), trn.PREDICT_CHUNK)
        ])
        return probs.sum(axis=0) / len(segments)

    def _run_lengths(self, monkeypatch):
        lengths = []
        original = trn.model_forward_run

        def recording(model, frames, starts):
            lengths.append(frames.shape[0])
            return original(model, frames, starts)

        monkeypatch.setattr(trn, "model_forward_run", recording)
        return lengths

    @pytest.mark.parametrize("hop", [1, 5, Q // 2, SHARED - 1, SHARED, Q - 1, Q, Q + 3])
    def test_mean_probabilities_equal_per_segment_forwards(self, small_model, hop):
        segments = self._segments(hop)
        assert len(segments) > trn.PREDICT_CHUNK
        probs = np.array([model_forward(small_model, s.frames) for s in segments])
        predicted, mean_probs = predict_clip(small_model, segments)
        assert_allclose(mean_probs, probs.mean(axis=0), rtol=0, atol=1e-12)
        votes = np.bincount(probs.argmax(axis=1), minlength=4)
        tied = np.flatnonzero(votes == votes.max())
        assert predicted == tied[np.argmax(probs.mean(axis=0)[tied])]

    @pytest.mark.parametrize("hop", [SHARED, SHARED + 1, Q, Q + 3])
    def test_without_a_shared_layer_equals_the_batched_path_bytewise(self, small_model, hop):
        segments = self._segments(hop)
        _, mean_probs = predict_clip(small_model, segments)
        assert mean_probs.tobytes() == self._batched(small_model, segments).tobytes()

    def test_copied_segments_still_share(self, small_model, monkeypatch):
        views = self._segments(hop=2, frames=60)
        copies = [replace(s, frames=s.frames.copy()) for s in views]
        lengths = self._run_lengths(monkeypatch)
        from_views = predict_clip(small_model, views)[1]
        from_copies = predict_clip(small_model, copies)[1]
        # one run of q + 2 (B - 1) frames each time, not B * q
        assert lengths == [self.Q + 2 * (len(views) - 1)] * 2
        assert from_copies.tobytes() == from_views.tobytes()

    def test_disagreeing_frames_are_computed_one_by_one(self, small_model, monkeypatch):
        # overlapping starts, independent frames: nothing may be shared
        rng = np.random.default_rng(53)
        segments = [
            Segment(frames=rng.standard_normal((self.Q, 8)), label=0, clip_id="c", start=2 * i)
            for i in range(10)
        ]
        lengths = self._run_lengths(monkeypatch)
        _, mean_probs = predict_clip(small_model, segments)
        assert lengths == [10 * self.Q]
        assert mean_probs.tobytes() == self._batched(small_model, segments).tobytes()

    def test_one_disagreeing_segment_breaks_sharing_only_around_it(self, small_model, monkeypatch):
        segments = self._segments(hop=1, frames=40)
        changed = segments[12].frames.copy()
        changed[5] += 1.0  # a middle frame, which both neighbours overlap
        segments[12] = replace(segments[12], frames=changed)
        lengths = self._run_lengths(monkeypatch)
        _, mean_probs = predict_clip(small_model, segments)
        # segments 12 and 13 each start a new piece of q frames
        assert lengths == [self.Q + (len(segments) - 3) + 2 * self.Q]
        probs = np.array([model_forward(small_model, s.frames) for s in segments])
        assert_allclose(mean_probs, probs.mean(axis=0), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("hop", [Q, Q // 2])
    def test_every_batch_reaching_the_walk_is_time_major(self, small_model, monkeypatch, hop):
        walked = []  # (taped, batch) per call
        original = mclnn.model._walk

        def recording(model, x, first, tape=None, workspace=None):
            walked.append((tape is not None, x))
            return original(model, x, first, tape, workspace)

        monkeypatch.setattr(mclnn.model, "_walk", recording)
        segments = self._segments(hop, frames=400)
        predict_clip(small_model, segments)
        predicted = len(walked)
        config = TrainConfig(epochs=1, batch_size=8, seed=63)
        # 20 training segments and 10 validation segments: 3 taped batches, 2 untaped
        train(build_model(small_spec(), seed=64), segments[:20], config, segments[20:30])
        assert predicted >= 1
        assert [taped for taped, _ in walked[predicted:]] == [True] * 3 + [False] * 2
        for _, x in walked:
            assert x.ndim == 3 and x.transpose(1, 0, 2).flags.c_contiguous

    def test_wrong_segment_shape_is_contract_error(self, small_model):
        segments = self._segments(hop=3, frames=30)
        segments[1] = replace(segments[1], frames=segments[1].frames[:-1])
        with pytest.raises(ContractError, match="model expects"):
            predict_clip(small_model, segments)


class TestEvaluate:
    def _fixture(self, small_model, monkeypatch, table):
        """table: clip -> (truth, marker, probs). Returns eval inputs."""
        probs_by_marker = {}
        segments_by_clip = {}
        labels = {}
        for clip_id, (truth, marker, probs) in table.items():
            probs_by_marker[marker] = probs
            frames = np.zeros((11, 8))
            frames[0, 0] = marker
            segments_by_clip[clip_id] = [
                Segment(frames=frames, label=truth, clip_id=clip_id, start=0)
            ]
            labels[clip_id] = truth
        monkeypatch.setattr(trn, "model_forward_run", constant_prediction(probs_by_marker))
        return segments_by_clip, labels

    def test_perfect_predictor(self, small_model, monkeypatch):
        table = {
            f"clip{i}": (i % 4, float(i + 1), np.eye(4)[i % 4].tolist()) for i in range(8)
        }
        segments, labels = self._fixture(small_model, monkeypatch, table)
        result = evaluate(small_model, segments, labels)
        assert result.clip_accuracy == 1.0
        assert_array_equal(result.confusion[:, :4], np.diag([2, 2, 2, 2]))
        assert_array_equal(result.confusion[:, 4], np.zeros(4))

    def test_constant_predictor_on_balanced_data(self, small_model, monkeypatch):
        table = {
            f"clip{i}": (i % 4, float(i + 1), [0.7, 0.1, 0.1, 0.1]) for i in range(8)
        }
        segments, labels = self._fixture(small_model, monkeypatch, table)
        result = evaluate(small_model, segments, labels)
        assert result.clip_accuracy == 1.0 / 4

    def test_hand_tally_on_five_clips(self, small_model, monkeypatch):
        table = {
            "a": (0, 1.0, [0.9, 0.05, 0.03, 0.02]),   # right
            "b": (0, 2.0, [0.2, 0.6, 0.1, 0.1]),      # wrong, predicted 1
            "c": (1, 3.0, [0.1, 0.8, 0.05, 0.05]),    # right
            "d": (2, 4.0, [0.3, 0.3, 0.35, 0.05]),    # right
            "e": (3, 5.0, [0.4, 0.3, 0.2, 0.1]),      # wrong, predicted 0
        }
        segments, labels = self._fixture(small_model, monkeypatch, table)
        result = evaluate(small_model, segments, labels)
        assert result.clip_accuracy == 3 / 5
        expected = np.zeros((4, 5), dtype=np.int64)
        expected[0, 0] += 1
        expected[0, 1] += 1
        expected[1, 1] += 1
        expected[2, 2] += 1
        expected[3, 0] += 1
        assert_array_equal(result.confusion, expected)
        assert result.per_clip == {"a": 0, "b": 1, "c": 1, "d": 2, "e": 0}

    def test_zero_segment_clip_counts_as_error(self, small_model, caplog):
        import logging

        rng = np.random.default_rng(60)
        segments = {
            "good": [Segment(frames=rng.standard_normal((11, 8)), label=0, clip_id="good", start=0)],
            "short": [],
        }
        labels = {"good": 0, "short": 2}
        with caplog.at_level(logging.WARNING, logger="mclnn.training"):
            result = evaluate(small_model, segments, labels)
        assert any("no segments" in r.message for r in caplog.records)
        assert result.per_clip["short"] == -1
        assert result.confusion[2, 4] == 1  # the trailing none column
        assert result.confusion.sum() == 2

    def test_row_sums_equal_per_class_clip_counts(self, small_model):
        rng = np.random.default_rng(61)
        segments = {}
        labels = {}
        for i in range(12):
            clip_id = f"clip{i}"
            labels[clip_id] = i % 4
            segments[clip_id] = [
                Segment(frames=rng.standard_normal((11, 8)), label=i % 4, clip_id=clip_id, start=0)
            ]
        result = evaluate(small_model, segments, labels)
        assert_array_equal(result.confusion.sum(axis=1), np.full(4, 3))

    def test_missing_label_is_validation_error(self, small_model):
        with pytest.raises(ValidationError, match="not a class id"):
            evaluate(small_model, {"short": []}, {"short": None})

    def test_mismatched_inputs_rejected(self, small_model):
        with pytest.raises(ContractError):
            evaluate(small_model, {"a": []}, {"b": 0})


class TestGradCheck:
    def test_fresh_random_model_passes(self, small_model):
        rng = np.random.default_rng(70)
        segment = rng.standard_normal((11, 8))
        report = grad_check(small_model, segment, target=2, tolerance=1e-4)
        assert report.passed, report.to_text()
        assert set(report.per_tensor) == set(small_model.parameters())

    def test_sign_flip_fails(self, small_model, monkeypatch):
        import mclnn.layers

        true_backward = mclnn.layers.backward

        def flipped(tape, loss_gradient):
            return {k: -v for k, v in true_backward(tape, loss_gradient).items()}

        monkeypatch.setattr(trn, "backward", flipped)
        rng = np.random.default_rng(71)
        report = grad_check(small_model, rng.standard_normal((11, 8)), target=0, tolerance=1e-4)
        assert not report.passed

    def test_only_unmasked_weights_are_differenced(self, small_model, monkeypatch):
        calls = []
        true_forward = trn.model_forward
        monkeypatch.setattr(trn, "model_forward", lambda *a: calls.append(1) or true_forward(*a))
        rng = np.random.default_rng(74)
        grad_check(small_model, rng.standard_normal((11, 8)), target=1)
        size = sum(v.size for v in small_model.parameters().values())
        dead = sum(
            int(np.count_nonzero(layer.mask.entries == 0.0)) * layer.weights.shape[0]
            for layer in small_model.clnn_layers
        )
        assert len(calls) == 2 * (size - dead)

    def test_zero_input_segment_passes(self, small_model):
        report = grad_check(small_model, np.zeros((11, 8)), target=1, tolerance=1e-4)
        assert report.passed, report.to_text()

    def test_model_left_untouched(self, small_model):
        before = {k: v.tobytes() for k, v in small_model.parameters().items()}
        rng = np.random.default_rng(72)
        grad_check(small_model, rng.standard_normal((11, 8)), target=3)
        after = {k: v.tobytes() for k, v in small_model.parameters().items()}
        assert before == after

    @pytest.mark.parametrize("tolerance", [math.inf, math.nan, 0.0, -1.0])
    def test_tolerance_must_be_positive_and_finite(self, small_model, monkeypatch, tolerance):
        calls = []
        true_forward = trn.model_forward
        monkeypatch.setattr(trn, "model_forward", lambda *a: calls.append(1) or true_forward(*a))
        with pytest.raises(ValidationError, match="tolerance must be positive and finite"):
            grad_check(small_model, np.zeros((11, 8)), target=1, tolerance=tolerance)
        assert calls == []

    def test_report_text_lists_every_tensor(self, small_model):
        rng = np.random.default_rng(73)
        report = grad_check(small_model, rng.standard_normal((11, 8)), target=0)
        text = report.to_text()
        assert text.startswith("PASS")
        for key in small_model.parameters():
            assert key in text


class TestConfusionLines:
    CONFUSION = np.array([[2, 0, 1], [0, 3, 0]], dtype=np.int64)

    def test_table(self):
        assert confusion_lines(self.CONFUSION, ("drums", "flute")) == [
            "true\\pred\tdrums\tflute\tnone",
            "drums\t2\t0\t1",
            "flute\t0\t3\t0",
        ]

    @pytest.mark.parametrize("names, expected", [(("drums", "flute"), ("drums", "flute")),
                                                 ((), ("0", "1"))])
    def test_report_section_is_the_table(self, names, expected):
        report = RunReport(config={}, confusion=self.CONFUSION, class_names=names)
        text = report.to_text()
        section = text[text.index("[confusion]\n") + len("[confusion]\n"):].split("\n\n")[0]
        assert section.splitlines() == confusion_lines(self.CONFUSION, expected)
