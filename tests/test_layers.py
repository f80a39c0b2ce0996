"""Conditional layer math against scalar-loop and finite-difference oracles."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import mclnn.layers
from mclnn.errors import ContractError, InsufficientFramesError, ShapeError
from mclnn.layers import (
    ActivationTape,
    ClnnLayer,
    LinearActivation,
    PRelu,
    Sigmoid,
    Workspace,
    backward,
    block_forward,
    dense_forward,
    effective_weights,
    global_mean_pool,
    softmax,
    stack_blocks,
    window_forward,
)
from mclnn.layers import _run_tasks, _slab_edge, _worker_count
from mclnn.mask import BinaryMask, MaskSpec, generate_mask

from conftest import random_clnn_layer, record_task_threads


def scalar_window_oracle(weights, bias, window):
    """Sum b_j + x[u+n, i] * W[u+n, i, j] one scalar at a time."""
    n = (weights.shape[0] - 1) // 2
    l, e = weights.shape[1:]
    out = np.empty(e)
    for j in range(e):
        acc = bias[j]
        for u in range(-n, n + 1):
            for i in range(l):
                acc += window[u + n, i] * weights[u + n, i, j]
        out[j] = acc
    return out


def synthetic_mask(entries: np.ndarray) -> BinaryMask:
    """Test-only mask with arbitrary entries (bypasses the canonical spec)."""
    spec = MaskSpec(
        feature_length=entries.shape[0], hidden_width=entries.shape[1], bandwidth=1, overlap=0
    )
    frozen = entries.astype(np.float64).copy()
    frozen.setflags(write=False)
    return BinaryMask(entries=frozen, spec=spec)


class TestPrelu:
    def test_definition(self):
        assert_array_equal(
            PRelu(np.array([0.25, 0.25])).apply(np.array([2.0, -2.0])), np.array([2.0, -0.5])
        )

    def test_nonnegative_passthrough(self):
        x = np.array([0.0, 1.0, 5.0])
        assert_array_equal(PRelu(np.array([0.7, 0.7, 0.7])).apply(x), x)

    def test_unit_slope_is_identity(self):
        x = np.array([-3.0, -0.5, 0.0, 2.0])
        assert_array_equal(PRelu(np.ones(4)).apply(x), x)

    def test_length_mismatch(self):
        # one slope per neuron, checked when the layer is built
        with pytest.raises(ShapeError, match="prelu slopes"):
            ClnnLayer(order=0, weights=np.zeros((3, 2)), bias=np.zeros(2),
                      activation=PRelu(np.array([0.25])))
        with pytest.raises(ShapeError, match="prelu slopes"):
            ClnnLayer(order=1, weights=np.zeros((3, 3, 2)), bias=np.zeros(2),
                      activation=PRelu(np.array([0.25])))


class TestEffectiveWeights:
    """Masked weights are zero by construction, so a layer computes with its
    stored weights; a layer is never built with a non-zero masked weight."""

    def test_no_mask_returns_weights_unchanged(self):
        layer = random_clnn_layer(np.random.default_rng(0), l=3, e=4, n=1)
        assert effective_weights(layer) is layer.weights

    def test_zero_mask_kills_everything(self):
        rng = np.random.default_rng(1)
        layer = random_clnn_layer(rng, l=3, e=4, n=1, mask=synthetic_mask(np.zeros((3, 4))))
        assert_array_equal(effective_weights(layer), np.zeros((3, 3, 4)))

    def test_checkerboard_entry_by_entry(self):
        rng = np.random.default_rng(2)
        board = np.indices((4, 5)).sum(axis=0) % 2
        layer = random_clnn_layer(rng, l=4, e=5, n=1, mask=synthetic_mask(board.astype(float)))
        z = effective_weights(layer)
        for d in range(3):
            for i in range(4):
                for j in range(5):
                    assert z[d, i, j] == layer.weights[d, i, j] * board[i, j]

    def test_non_zero_masked_weight_is_rejected_at_construction(self):
        mask = generate_mask(MaskSpec(feature_length=6, hidden_width=5, bandwidth=3, overlap=1))
        weights = np.random.default_rng(3).standard_normal((3, 6, 5)) * mask.entries
        dead = np.argwhere(mask.entries == 0.0)
        weights[0, dead[0][0], dead[0][1]] = 0.5
        weights[2, dead[-1][0], dead[-1][1]] = -1e-300
        with pytest.raises(ContractError, match=r"2 non-zero weight\(s\) where the mask is 0"):
            ClnnLayer(order=1, weights=weights, bias=np.zeros(5), mask=mask)

    def test_returns_the_stored_weights(self):
        mask = generate_mask(MaskSpec(feature_length=6, hidden_width=5, bandwidth=3, overlap=1))
        layer = random_clnn_layer(np.random.default_rng(4), l=6, e=5, n=2, mask=mask)
        assert effective_weights(layer) is layer.weights

    def test_forward_equals_the_remasking_forward_bit_for_bit(self):
        # Before masked weights were zero by construction, every forward ran
        # on ``weights * mask``, one batch-major window copy per offset; after
        # training steps that product must still be the stored weights byte
        # for byte, and the chained forward must equal that old forward.
        rng = np.random.default_rng(5)
        mask = generate_mask(MaskSpec(feature_length=6, hidden_width=5, bandwidth=3, overlap=-1))
        mask2 = generate_mask(MaskSpec(feature_length=5, hidden_width=4, bandwidth=2, overlap=0))
        layer = random_clnn_layer(rng, l=6, e=5, n=2, mask=mask, activation=PRelu(np.full(5, 0.2)))
        layer2 = random_clnn_layer(rng, l=5, e=4, n=1, mask=mask2, activation=PRelu(np.full(4, 0.3)))
        for _ in range(5):
            tape = ActivationTape()
            hidden = block_forward(layer, rng.standard_normal((4, 9, 6)), tape=tape, name="L")
            out = block_forward(layer2, hidden, tape=tape, name="L2")
            grads = backward(tape, rng.standard_normal(out.shape))
            layer.weights -= 0.1 * grads["L.weights"]
            layer2.weights -= 0.1 * grads["L2.weights"]
        remasked = layer.weights * mask.entries
        remasked2 = layer2.weights * mask2.entries
        assert remasked.tobytes() == layer.weights.tobytes()
        assert remasked2.tobytes() == layer2.weights.tobytes()

        def remasking_forward(layer, weights, blocks):
            n, (b, t, l) = layer.order, blocks.shape
            pre = np.tile(layer.bias, (b * (t - 2 * n), 1))
            for d in range(2 * n + 1):
                pre += blocks[:, d : d + t - 2 * n].reshape(-1, l) @ weights[d]
            return layer.activation.apply(pre.reshape(b, t - 2 * n, -1))

        blocks = rng.standard_normal((3, 9, 6))
        want = remasking_forward(layer, remasked, blocks)
        assert block_forward(layer, blocks).tobytes() == want.tobytes()
        want2 = remasking_forward(layer2, remasked2, want)
        assert block_forward(layer2, block_forward(layer, blocks)).tobytes() == want2.tobytes()


class TestTimeMajorLayout:
    """Conditional layers keep ``(t, B, l)`` memory; callers see ``(B, t, l)``."""

    def _layers(self, rng):
        mask = generate_mask(MaskSpec(feature_length=6, hidden_width=5, bandwidth=3, overlap=1))
        first = random_clnn_layer(rng, l=6, e=5, n=2, mask=mask, activation=PRelu(np.full(5, 0.2)))
        second = random_clnn_layer(rng, l=5, e=3, n=1, activation=Sigmoid())
        return first, second

    def test_time_major_memory_gives_the_bytes_of_its_contiguous_copy(self):
        rng = np.random.default_rng(60)
        layer, _ = self._layers(rng)
        blocks = rng.standard_normal((4, 9, 6))
        time_major = np.ascontiguousarray(blocks.transpose(1, 0, 2)).transpose(1, 0, 2)
        assert time_major.shape == blocks.shape and not time_major.flags.c_contiguous
        assert block_forward(layer, time_major).tobytes() == block_forward(layer, blocks).tobytes()

    def test_time_major_input_and_the_previous_output_are_read_in_place(self):
        rng = np.random.default_rng(61)
        first, second = self._layers(rng)
        time_major = rng.standard_normal((9, 4, 6)).transpose(1, 0, 2)
        tape = ActivationTape()
        hidden = block_forward(first, time_major, tape=tape, name="a")
        out = block_forward(second, hidden, tape=tape, name="b")
        assert hidden.transpose(1, 0, 2).flags.c_contiguous
        assert out.shape == (4, 3, 3) and out.transpose(1, 0, 2).flags.c_contiguous
        assert tape.records[0].inputs.base is time_major.base
        assert tape.records[1].inputs.base is hidden.base

    def test_a_batch_major_input_is_copied_once_and_left_alone(self):
        rng = np.random.default_rng(62)
        layer, _ = self._layers(rng)
        blocks = rng.standard_normal((4, 9, 6))
        kept = blocks.copy()
        tape, space = ActivationTape(), Workspace()
        block_forward(layer, blocks, tape=tape, name="a", workspace=space)
        assert not np.shares_memory(tape.records[0].inputs, blocks)
        assert_array_equal(tape.records[0].inputs, blocks)
        assert blocks.tobytes() == kept.tobytes()
        # the copy is stack_blocks' batch, kept under the record's name
        assert np.shares_memory(tape.records[0].inputs, space.take("a.inputs", (9, 4, 6)))

    def test_tape_names_are_unique(self):
        rng = np.random.default_rng(63)
        layer, _ = self._layers(rng)
        tape = ActivationTape()
        block_forward(layer, rng.standard_normal((9, 6)), tape=tape, name="a")
        with pytest.raises(ContractError, match="already on the tape"):
            block_forward(layer, rng.standard_normal((9, 6)), tape=tape, name="a")


class TestStackBlocks:
    """The one builder of a batch: ``B`` blocks copied once, time-major."""

    def test_values_equal_np_stack(self):
        rng = np.random.default_rng(64)
        source = rng.standard_normal((30, 6))
        blocks = [source[s : s + 9] for s in (0, 4, 21, 4)]  # views, one repeated
        batch = stack_blocks(blocks)
        assert batch.shape == (4, 9, 6)
        assert batch.tobytes() == np.stack(blocks).tobytes()
        assert not np.shares_memory(batch, source)

    def test_memory_is_time_major_and_read_without_a_copy(self):
        rng = np.random.default_rng(65)
        layer = random_clnn_layer(rng, l=6, e=5, n=2)
        blocks = [rng.standard_normal((9, 6)) for _ in range(3)]
        batch = stack_blocks(blocks)
        assert batch.transpose(1, 0, 2).flags.c_contiguous
        tape = ActivationTape()
        out = block_forward(layer, batch, tape=tape, name="a")
        assert tape.records[0].inputs.base is batch.base
        assert out.tobytes() == block_forward(layer, np.stack(blocks)).tobytes()

    def test_a_smaller_batch_reuses_a_prefix_of_the_workspace_buffer(self):
        rng = np.random.default_rng(66)
        blocks = [rng.standard_normal((5, 3)) for _ in range(4)]
        space = Workspace()
        big = stack_blocks(blocks, space, "k")
        small = stack_blocks(blocks[:2], space, "k")
        assert small.transpose(1, 0, 2).flags.c_contiguous
        assert small.__array_interface__["data"][0] == big.__array_interface__["data"][0]
        assert_array_equal(small, np.stack(blocks[:2]))
        # another key is other memory
        assert not np.shares_memory(stack_blocks(blocks, space, "other"), big)

    @pytest.mark.parametrize("shapes", [[(5, 3), (4, 3)], [(5, 3), (5, 2)], [(5,), (5,)], []])
    def test_blocks_of_other_shapes_are_a_shape_error(self, shapes):
        with pytest.raises(ShapeError):
            stack_blocks([np.zeros(shape) for shape in shapes])


class TestWorkspace:
    def test_a_smaller_request_is_a_prefix_of_the_same_buffer(self):
        space = Workspace()
        big = space.take("k", (4, 5))
        small = space.take("k", (2, 5))
        assert small.flags.c_contiguous and small.shape == (2, 5)
        assert np.shares_memory(big, small)
        assert small.__array_interface__["data"][0] == big.__array_interface__["data"][0]

    def test_a_larger_request_grows_the_buffer(self):
        space = Workspace()
        small = space.take("k", (2, 5))
        big = space.take("k", (3, 5))
        assert big.shape == (3, 5) and not np.shares_memory(big, small)
        assert np.shares_memory(space.take("k", (3, 5)), big)

    def test_keys_do_not_share_memory(self):
        space = Workspace()
        assert not np.shares_memory(space.take("a", (3,)), space.take("b", (3,)))

    def test_a_second_step_reuses_the_first_step_s_memory(self):
        rng = np.random.default_rng(64)
        layer = random_clnn_layer(rng, l=3, e=2, n=1, activation=PRelu(np.full(2, 0.2)))
        space = Workspace()

        def step():
            tape = ActivationTape()
            out = block_forward(layer, rng.standard_normal((2, 5, 3)), tape, "L", space)
            return out, backward(tape, rng.standard_normal(out.shape), space)

        out, grads = step()
        again, regrads = step()
        assert np.shares_memory(out, again)
        assert all(np.shares_memory(grads[key], value) for key, value in regrads.items())


class TestTwoThreads:
    @pytest.mark.parametrize("rows, edge", [
        (18 * 64, 9 * 64), (10 * 48, 5 * 48), (96, 48), (143, 48), (144, 96), (637, 336),
    ])
    def test_slab_edge(self, rows, edge):
        assert _slab_edge(rows) == edge

    @pytest.mark.parametrize("rows", [0, 1, 18, 48, 95])
    def test_fewer_than_96_rows_are_one_slab(self, rows):
        assert _slab_edge(rows) is None

    def test_slab_edge_rule_at_every_row_count(self):
        for rows in range(96, 5000):
            edge = _slab_edge(rows)
            assert edge % 48 == 0 and edge >= 48 and rows - edge >= 48, rows
            assert abs(2 * edge - rows) <= 48, rows

    @pytest.mark.parametrize("environ, cpus, workers", [
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
        ({}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": ""}, 2, 1),
        ({"GOTO_NUM_THREADS": "1"}, 2, 2),
        ({"OMP_NUM_THREADS": "1"}, 2, 2),
        ({"MKL_NUM_THREADS": "1"}, 2, 1),
        # the first variable that is set decides
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 2, 2),
        ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 1),
    ])
    def test_worker_count(self, environ, cpus, workers):
        assert _worker_count(environ, cpus) == workers

    @pytest.mark.parametrize("workers", [1, 2])
    def test_tasks_run_once_and_the_second_off_thread_at_two_workers(self, monkeypatch, workers):
        monkeypatch.setattr(mclnn.layers, "_WORKERS", workers)
        ran = []
        _run_tasks([lambda i=i: ran.append((i, threading.get_ident())) for i in range(2)])
        assert sorted(i for i, _ in ran) == [0, 1]
        threads = dict(ran)
        assert threads[0] == threading.get_ident()
        assert (threads[1] != threading.get_ident()) == (workers == 2)

    def test_a_failing_task_raises_after_every_task_finished(self, monkeypatch):
        monkeypatch.setattr(mclnn.layers, "_WORKERS", 2)
        finished = threading.Event()

        def fail():
            raise ValueError("first")

        def slow():
            finished.wait(0.05)
            finished.set()

        with pytest.raises(ValueError, match="first"):
            _run_tasks([fail, slow])
        assert finished.is_set()

        def fail_off_thread():
            raise ValueError("second")

        with pytest.raises(ValueError, match="second"):
            _run_tasks([lambda: None, fail_off_thread])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_task_runs_under_the_caller_s_error_state(self, monkeypatch, workers):
        monkeypatch.setattr(mclnn.layers, "_WORKERS", workers)
        default = np.geterr()
        seen = []
        with np.errstate(all="raise", under="ignore"):
            _run_tasks([lambda: seen.append(np.geterr()) for _ in range(2)])
        assert seen == [dict(divide="raise", over="raise", under="ignore", invalid="raise")] * 2

        def overflow():
            np.multiply(np.full(2, 1e308), 10.0)

        for tasks in ([overflow, lambda: None], [lambda: None, overflow]):
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                _run_tasks(tasks)
        calls = []
        with np.errstate(call=lambda kind, flag: calls.append(kind), over="call"):
            _run_tasks([overflow, overflow])
        assert calls == ["overflow"] * 2
        # the second thread's own state is as it was
        _run_tasks([lambda: None, lambda: seen.append(np.geterr())])
        assert seen[-1] == default

    def _step(self, layers, frames, upstream):
        tape = ActivationTape()
        x = frames
        for i, layer in enumerate(layers):
            x = block_forward(layer, x, tape, f"clnn{i}")
        return x, backward(tape, upstream)

    def test_forward_and_gradients_do_not_depend_on_the_worker_count(self, monkeypatch):
        rng = np.random.default_rng(70)
        masks = [generate_mask(MaskSpec(24, 16, 6, 2)), generate_mask(MaskSpec(16, 12, 4, 1))]
        layers = [
            random_clnn_layer(rng, l=24, e=16, n=2, mask=masks[0],
                              activation=PRelu(rng.uniform(0, 0.3, 16))),
            random_clnn_layer(rng, l=16, e=12, n=1, mask=masks[1], activation=Sigmoid()),
        ]
        # 8 segments of 30 frames: 208 and 192 output rows, two slabs each
        frames = rng.standard_normal((8, 30, 24))
        upstream = rng.standard_normal((8, 24, 12))
        results = {}
        for workers in (1, 2):
            off_thread = record_task_threads(monkeypatch, workers)
            results[workers] = self._step(layers, frames, upstream)
            assert any(off_thread) == (workers == 2) and len(off_thread) == 8
        (out1, grads1), (out2, grads2) = results[1], results[2]
        assert out1.tobytes() == out2.tobytes()
        assert set(grads1) == set(grads2)
        for key in grads1:
            assert grads1[key].tobytes() == grads2[key].tobytes(), key
        assert not grads2["clnn0.weights"][:, masks[0].entries == 0].any()

    def test_callers_on_several_threads_get_their_own_results(self, monkeypatch):
        # four callers share the one second thread; a task that ran twice,
        # or wrote into another caller's buffers, changes some caller's bytes
        monkeypatch.setattr(mclnn.layers, "_WORKERS", 2)
        rng = np.random.default_rng(72)
        layer = random_clnn_layer(rng, l=12, e=10, n=2, activation=PRelu(np.full(10, 0.1)))
        inputs = [rng.standard_normal((6, 24, 12)) for _ in range(4)]

        def step(frames):
            tape = ActivationTape()
            out = block_forward(layer, frames, tape, "L", Workspace())
            grads = backward(tape, out.copy(), Workspace())
            return out.tobytes(), {key: value.tobytes() for key, value in grads.items()}

        serial = [step(frames) for frames in inputs]
        results = [[] for _ in inputs]

        def caller(i):
            for _ in range(20):
                results[i].append(step(inputs[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(inputs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i, runs in enumerate(results):
            assert len(runs) == 20 and all(run == serial[i] for run in runs), i

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_gets_its_own_second_thread(self):
        # the parent's executor has no thread in the child; reusing it would hang
        code = (
            "import os, numpy as np; from mclnn import layers; layers._WORKERS = 2; "
            "layer = layers.ClnnLayer(order=1, weights=np.ones((3, 8, 6)), bias=np.zeros(6)); "
            "block = np.ones((8, 30, 8)); layers.block_forward(layer, block); pid = os.fork(); "
            "os._exit(0 if layers.block_forward(layer, block).shape == (8, 28, 6) else 3) "
            "if pid == 0 else print(os.waitpid(pid, 0)[1])"
        )
        env = dict(os.environ)
        source = str(Path(mclnn.layers.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "0"

    def test_a_small_layer_is_one_task(self, monkeypatch):
        off_thread = record_task_threads(monkeypatch, 2)
        layer = random_clnn_layer(np.random.default_rng(71), l=4, e=3, n=1)
        block_forward(layer, np.ones((2, 10, 4)))  # 16 output rows
        assert off_thread == [False]

class TestWindowForward:
    def test_zero_parameters_give_zero(self):
        layer = ClnnLayer(order=1, weights=np.zeros((3, 4, 2)), bias=np.zeros(2))
        assert_array_equal(window_forward(layer, np.ones((3, 4))), np.zeros(2))

    def test_order_zero_identity_map(self):
        layer = ClnnLayer(order=0, weights=np.eye(3)[None], bias=np.zeros(3))
        frame = np.array([[1.5, -2.0, 0.25]])
        assert_array_equal(window_forward(layer, frame), frame[0])

    def test_small_integer_case_matches_scalar_oracle(self):
        weights = np.array(
            [
                [[1.0, 2.0], [0.0, 1.0]],
                [[0.0, 1.0], [1.0, 0.0]],
                [[2.0, 0.0], [0.0, 3.0]],
            ]
        )
        bias = np.array([1.0, -1.0])
        window = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        layer = ClnnLayer(order=1, weights=weights, bias=bias)
        assert_allclose(
            window_forward(layer, window),
            scalar_window_oracle(weights, bias, window),
            rtol=0, atol=1e-12,
        )

    def test_scalar_oracle_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(0, 3))
            l = int(rng.integers(1, 5))
            e = int(rng.integers(1, 5))
            layer = random_clnn_layer(rng, l=l, e=e, n=n)
            window = rng.standard_normal((2 * n + 1, l))
            assert_allclose(
                window_forward(layer, window),
                scalar_window_oracle(layer.weights, layer.bias, window),
                rtol=0, atol=1e-12,
            )

    def test_wrong_frame_count_is_contract_error(self):
        layer = random_clnn_layer(np.random.default_rng(0), l=3, e=2, n=1)
        with pytest.raises(ContractError, match="3"):
            window_forward(layer, np.zeros((4, 3)))


class TestBlockForward:
    def test_order_four_consumes_eight_frames(self):
        layer = random_clnn_layer(np.random.default_rng(5), l=6, e=7, n=4)
        out = block_forward(layer, np.random.default_rng(6).standard_normal((29, 6)))
        assert out.shape == (21, 7)

    def test_order_zero_preserves_frame_count(self):
        layer = random_clnn_layer(np.random.default_rng(7), l=3, e=2, n=0)
        assert block_forward(layer, np.ones((9, 3))).shape == (9, 2)

    def test_single_window_equals_window_forward(self):
        rng = np.random.default_rng(8)
        layer = random_clnn_layer(rng, l=4, e=3, n=1)
        block = rng.standard_normal((3, 4))
        assert_array_equal(block_forward(layer, block)[0], window_forward(layer, block))

    def test_insufficient_frames_error_carries_counts(self):
        layer = random_clnn_layer(np.random.default_rng(9), l=3, e=2, n=2)
        with pytest.raises(InsufficientFramesError) as excinfo:
            block_forward(layer, np.zeros((4, 3)))
        assert excinfo.value.order == 2
        assert excinfo.value.frames == 4

    def test_window_orientation_first_matrix_sees_earliest_frame(self):
        # only the u = -n matrix is nonzero (identity), so output frame i
        # must reproduce the earliest frame of its window, i.e. input i
        weights = np.zeros((3, 4, 4))
        weights[0] = np.eye(4)
        layer = ClnnLayer(order=1, weights=weights, bias=np.zeros(4))
        block = np.arange(24, dtype=float).reshape(6, 4)
        assert_array_equal(block_forward(layer, block), block[:4])

        weights_last = np.zeros((3, 4, 4))
        weights_last[2] = np.eye(4)  # u = +n sees the latest frame
        layer_last = ClnnLayer(order=1, weights=weights_last, bias=np.zeros(4))
        assert_array_equal(block_forward(layer_last, block), block[2:])

    def test_width_mismatch(self):
        layer = random_clnn_layer(np.random.default_rng(10), l=3, e=2, n=1)
        with pytest.raises(ShapeError):
            block_forward(layer, np.zeros((5, 4)))


class TestBatchAxis:
    """A leading batch axis gives the rows the unbatched calls give."""

    def test_block_forward_rows(self):
        rng = np.random.default_rng(25)
        mask = generate_mask(MaskSpec(feature_length=6, hidden_width=5, bandwidth=3, overlap=1))
        layer = random_clnn_layer(rng, l=6, e=5, n=2, mask=mask, activation=PRelu(np.full(5, 0.2)))
        blocks = rng.standard_normal((3, 9, 6))
        out = block_forward(layer, blocks)
        assert out.shape == (3, 5, 5)
        for row, block in zip(out, blocks):
            assert_allclose(row, block_forward(layer, block), rtol=0, atol=1e-12)

    def test_pool_dense_softmax_rows(self):
        rng = np.random.default_rng(26)
        blocks = rng.standard_normal((4, 3, 5))
        dense = ClnnLayer(order=0, weights=rng.standard_normal((5, 2)), bias=rng.standard_normal(2))
        pooled = global_mean_pool(blocks)
        logits = dense_forward(dense, pooled)
        probs = softmax(logits)
        for i, block in enumerate(blocks):
            assert_array_equal(pooled[i], global_mean_pool(block))
            assert_allclose(logits[i], dense_forward(dense, pooled[i]), rtol=0, atol=1e-12)
            assert_allclose(probs[i], softmax(logits[i]), rtol=0, atol=1e-15)

    def test_backward_sums_per_item_gradients(self):
        rng = np.random.default_rng(27)
        mask = generate_mask(MaskSpec(feature_length=5, hidden_width=4, bandwidth=2, overlap=0))
        layer1 = random_clnn_layer(rng, l=5, e=4, n=1, mask=mask, activation=PRelu(np.full(4, 0.25)))
        layer2 = random_clnn_layer(rng, l=4, e=3, n=1, activation=Sigmoid())
        dense = ClnnLayer(order=0, weights=rng.standard_normal((3, 2)), bias=rng.standard_normal(2))

        def gradients(blocks, upstream):
            tape = ActivationTape()
            h = block_forward(layer1, blocks, tape=tape, name="clnn0")
            h = block_forward(layer2, h, tape=tape, name="clnn1")
            h = global_mean_pool(h, tape=tape)
            dense_forward(dense, h, tape=tape, name="out")
            return backward(tape, upstream)

        blocks, upstream = rng.standard_normal((3, 7, 5)), rng.standard_normal((3, 2))
        batched = gradients(blocks, upstream)
        singles = [gradients(blocks[i], upstream[i]) for i in range(3)]
        for key, grad in batched.items():
            assert_allclose(grad, sum(s[key] for s in singles), rtol=0, atol=1e-12, err_msg=key)
        assert_array_equal(batched["clnn0.weights"][:, mask.entries == 0.0], 0.0)


@settings(derandomize=True, max_examples=60)
@given(n=st.integers(0, 5), extra=st.integers(0, 29), l=st.integers(1, 6), e=st.integers(1, 6))
def test_shrinkage_law(n, extra, l, e):
    t = 2 * n + 1 + extra
    if t > 40:
        t = 40
        if t < 2 * n + 1:
            return
    layer = random_clnn_layer(np.random.default_rng(11), l=l, e=e, n=n)
    out = block_forward(layer, np.zeros((t, l)))
    assert out.shape == (t - 2 * n, e)


class TestGlobalMeanPool:
    def test_identical_frames(self):
        v = np.array([2.0, -1.0, 0.5])
        assert_array_equal(global_mean_pool(np.tile(v, (5, 1))), v)

    def test_single_frame_identity(self):
        v = np.array([[3.0, 4.0]])
        assert_array_equal(global_mean_pool(v), v[0])

    def test_hand_mean(self):
        assert_array_equal(
            global_mean_pool(np.array([[1.0, 3.0], [5.0, 7.0]])), np.array([3.0, 5.0])
        )

    def test_linearity(self):
        rng = np.random.default_rng(12)
        a, b = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        assert_allclose(
            global_mean_pool(2.5 * a + -1.25 * b),
            2.5 * global_mean_pool(a) - 1.25 * global_mean_pool(b),
            rtol=0, atol=1e-12,
        )

    def test_empty_block_rejected(self):
        with pytest.raises(ContractError):
            global_mean_pool(np.zeros((0, 3)))


class TestDenseForward:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("batch", [1, 64, 95, 96, 128, 200])
    def test_every_batch_is_the_dense_formula_bit_for_bit(self, monkeypatch, workers, batch):
        # table3's dense shape; an order-0 layer is one slab at any batch
        # size, since a split at 96 rows or more changes the GEMM's bits
        rng = np.random.default_rng(15)
        w, b = rng.standard_normal((200, 50)), rng.standard_normal(50)
        activation = PRelu(rng.uniform(0.05, 0.5, 50))
        x = rng.standard_normal((batch, 200))
        monkeypatch.setattr(mclnn.layers, "_WORKERS", workers)
        got = dense_forward(ClnnLayer(order=0, weights=w, bias=b, activation=activation), x)
        assert np.array_equal(got, activation.apply(x @ w + b))

    def test_zero_parameters(self):
        layer = ClnnLayer(order=0, weights=np.zeros((3, 2)), bias=np.zeros(2))
        assert_array_equal(dense_forward(layer, np.ones(3)), np.zeros(2))

    def test_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        assert_array_equal(dense_forward(ClnnLayer(order=0, weights=np.eye(3), bias=np.zeros(3)), x), x)

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(13)
        x, w, b = rng.standard_normal(4), rng.standard_normal((4, 3)), rng.standard_normal(3)
        expected = np.array(
            [b[j] + sum(x[i] * w[i, j] for i in range(4)) for j in range(3)]
        )
        assert_allclose(dense_forward(ClnnLayer(order=0, weights=w, bias=b), x), expected, rtol=0, atol=1e-12)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            dense_forward(ClnnLayer(order=0, weights=np.zeros((3, 2)), bias=np.zeros(2)), np.ones(2))
        # the bias length is the layer's to check, at construction
        with pytest.raises(ShapeError):
            ClnnLayer(order=0, weights=np.zeros((3, 2)), bias=np.zeros(3))


class TestSoftmax:
    def test_uniform_logits(self):
        assert_allclose(softmax(np.zeros(5)), np.full(5, 0.2), rtol=0, atol=1e-15)

    def test_large_gap_saturates(self):
        out = softmax(np.array([0.0, 800.0]))
        assert out[1] > 1.0 - 1e-12
        assert np.all(np.isfinite(out))

    def test_direct_formula(self):
        x = np.array([1.0, 2.0, 3.0])
        direct = np.exp(x) / np.exp(x).sum()
        assert_allclose(softmax(x), direct, rtol=0, atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            out = softmax(rng.standard_normal(6) * 10)
            assert abs(out.sum() - 1.0) < 1e-12
            assert np.all(out > 0)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            softmax(np.array([]))


class TestBackward:
    def test_zero_loss_gradient_zeroes_everything(self):
        rng = np.random.default_rng(17)
        tape = ActivationTape()
        layer = random_clnn_layer(rng, l=3, e=2, n=1)
        out = block_forward(layer, rng.standard_normal((5, 3)), tape=tape, name="clnn0")
        grads = backward(tape, np.zeros_like(out))
        for g in grads.values():
            assert_array_equal(g, np.zeros_like(g))

    def test_single_linear_layer_outer_product(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal(4)
        layer = ClnnLayer(order=0, weights=rng.standard_normal((1, 4, 3)), bias=np.zeros(3))
        tape = ActivationTape()
        block_forward(layer, x[None, :], tape=tape, name="clnn0")
        g = rng.standard_normal(3)
        grads = backward(tape, g[None, :])
        assert_allclose(grads["clnn0.weights"][0], np.outer(x, g), rtol=0, atol=1e-15)
        assert_allclose(grads["clnn0.bias"], g, rtol=0, atol=1e-15)

    def test_masked_gradients_are_zero_at_dead_entries(self):
        rng = np.random.default_rng(19)
        mask = generate_mask(MaskSpec(feature_length=6, hidden_width=5, bandwidth=3, overlap=-1))
        layer = random_clnn_layer(rng, l=6, e=5, n=2, mask=mask)
        tape = ActivationTape()
        out = block_forward(layer, rng.standard_normal((9, 6)), tape=tape, name="clnn0")
        grads = backward(tape, rng.standard_normal(out.shape))
        dead = mask.entries == 0.0
        assert_array_equal(grads["clnn0.weights"][:, dead], 0.0)

    def test_finite_differences_through_full_stack(self):
        rng = np.random.default_rng(20)
        mask = generate_mask(MaskSpec(feature_length=4, hidden_width=4, bandwidth=2, overlap=1))
        layer1 = random_clnn_layer(
            rng, l=4, e=4, n=1, mask=mask, activation=PRelu(slopes=np.full(4, 0.25))
        )
        layer2 = random_clnn_layer(rng, l=4, e=3, n=1, activation=Sigmoid())
        dense = ClnnLayer(order=0, weights=rng.standard_normal((3, 2)), bias=rng.standard_normal(2))
        block = rng.standard_normal((7, 4))
        target = 1

        def logits(tape=None):
            h = block_forward(layer1, block, tape=tape, name="clnn0")
            h = block_forward(layer2, h, tape=tape, name="clnn1")
            pooled = global_mean_pool(h, tape=tape)
            return dense_forward(dense, pooled, tape=tape, name="out")

        def run():
            return -np.log(softmax(logits())[target])

        # the tape ends at the logits; d(-log softmax)/d logits = p - onehot
        tape = ActivationTape()
        grads = backward(tape, softmax(logits(tape)) - np.eye(2)[target])

        step = 1e-6
        tensors = {
            "clnn0.weights": layer1.weights,
            "clnn0.bias": layer1.bias,
            "clnn0.slopes": layer1.activation.slopes,
            "clnn1.weights": layer2.weights,
            "clnn1.bias": layer2.bias,
            "out.weights": dense.weights,
            "out.bias": dense.bias,
        }
        for key, tensor in tensors.items():
            flat = tensor.reshape(-1)
            grad = grads[key].reshape(-1)
            # masked weights are not parameters; grad_check skips them too
            if key == "clnn0.weights":
                entries = np.flatnonzero(np.broadcast_to(mask.entries, tensor.shape))
            else:
                entries = range(flat.size)
            for i in entries:
                keep = flat[i]
                flat[i] = keep + step
                up = run()
                flat[i] = keep - step
                down = run()
                flat[i] = keep
                numeric = (up - down) / (2 * step)
                assert abs(numeric - grad[i]) <= 1e-4 * max(1.0, abs(numeric)), (
                    f"{key}[{i}]: analytic {grad[i]}, numeric {numeric}"
                )

    def test_backward_requires_records(self):
        with pytest.raises(ContractError):
            backward(ActivationTape(), np.zeros(3))


class TestDenseBackward:
    """``backward`` runs a dense layer as an order-0 conditional layer over one frame."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("batch", [(), (64,)], ids=["unbatched", "batched"])
    @pytest.mark.parametrize("depth", [1, 2], ids=["dense-only", "dense-then-output"])
    def test_gradients_are_the_dense_formulas_bit_for_bit(self, monkeypatch, workers, batch, depth):
        rng = np.random.default_rng(90)
        layers = [
            ClnnLayer(order=0, weights=rng.standard_normal((12, 9)), bias=rng.standard_normal(9),
                      activation=PRelu(rng.uniform(0, 0.3, 9))),
            ClnnLayer(order=0, weights=rng.standard_normal((9, 5)), bias=rng.standard_normal(5)),
        ][:depth]
        x = rng.standard_normal((*batch, 12))
        tape = ActivationTape()
        h = x
        for i, layer in enumerate(layers):
            h = dense_forward(layer, h, tape, f"dense{i}")
        upstream = rng.standard_normal(h.shape)
        off_thread = record_task_threads(monkeypatch, workers)
        grads = backward(tape, upstream)
        # the output layer splits into its input and weight tasks; the first
        # record has no input gradient, and its one weight GEMM is one task
        assert off_thread == [False, workers == 2, False][: 2 * depth - 1]

        # the dense formulas: dW = x.T @ dpre, the input gradient dpre @ W.T
        g = upstream
        for rec in reversed(tape.records):
            pre = rec.pre.reshape(g.shape)  # a dense record's pre has a one-frame axis
            dpre = g * rec.layer.activation.derivative(pre)
            flat = dpre.reshape(-1, dpre.shape[-1])
            want = rec.inputs.reshape(-1, rec.inputs.shape[-1]).T @ flat
            name = rec.name
            assert grads[f"{name}.weights"].shape == rec.layer.weights.shape
            assert np.array_equal(grads[f"{name}.weights"], want), name
            assert np.array_equal(grads[f"{name}.bias"], flat.sum(axis=0)), name
            if isinstance(rec.layer.activation, PRelu):
                slopes = rec.layer.activation.slope_gradient(pre, g)
                assert np.array_equal(grads[f"{name}.slopes"], slopes), name
            g = dpre @ rec.layer.weights.T


class TestMaskedDenseEquivalence:
    """A masked layer must behave exactly like a pre-masked plain layer."""

    def _pair(self, rng, l=6, e=5, n=2):
        mask = generate_mask(MaskSpec(feature_length=l, hidden_width=e, bandwidth=3, overlap=1))
        raw = rng.standard_normal((2 * n + 1, l, e))
        bias = rng.standard_normal(e)
        masked_layer = ClnnLayer(
            order=n, weights=raw * mask.entries, bias=bias.copy(), mask=mask,
            activation=PRelu(slopes=np.full(e, 0.25)),
        )
        plain_layer = ClnnLayer(
            order=n, weights=raw * mask.entries, bias=bias.copy(), mask=None,
            activation=PRelu(slopes=np.full(e, 0.25)),
        )
        return mask, masked_layer, plain_layer

    def test_forward_bit_identical(self):
        rng = np.random.default_rng(21)
        mask, masked_layer, plain_layer = self._pair(rng)
        block = rng.standard_normal((9, 6))
        a = block_forward(masked_layer, block)
        b = block_forward(plain_layer, block)
        assert a.tobytes() == b.tobytes()

    def test_ten_training_steps_stay_bit_identical(self):
        rng = np.random.default_rng(22)
        mask, masked_layer, plain_layer = self._pair(rng)
        lr = 0.05
        for step in range(10):
            block = np.random.default_rng(100 + step).standard_normal((9, 6))
            upstream = np.random.default_rng(200 + step).standard_normal((5, 5))

            tape_a, tape_b = ActivationTape(), ActivationTape()
            out_a = block_forward(masked_layer, block, tape=tape_a, name="L")
            out_b = block_forward(plain_layer, block, tape=tape_b, name="L")
            assert out_a.tobytes() == out_b.tobytes()

            grads_a = backward(tape_a, upstream)
            grads_b = backward(tape_b, upstream)
            # the plain layer needs its dead-entry gradients zeroed by hand
            grads_b["L.weights"] = grads_b["L.weights"] * mask.entries

            masked_layer.weights -= lr * grads_a["L.weights"]
            masked_layer.bias -= lr * grads_a["L.bias"]
            masked_layer.activation.slopes -= lr * grads_a["L.slopes"]
            plain_layer.weights -= lr * grads_b["L.weights"]
            plain_layer.bias -= lr * grads_b["L.bias"]
            plain_layer.activation.slopes -= lr * grads_b["L.slopes"]

        assert effective_weights(masked_layer).tobytes() == plain_layer.weights.tobytes()
        assert masked_layer.bias.tobytes() == plain_layer.bias.tobytes()
        assert masked_layer.activation.slopes.tobytes() == plain_layer.activation.slopes.tobytes()

    def test_masked_entries_stay_exactly_zero_under_sgd(self):
        rng = np.random.default_rng(23)
        mask, masked_layer, _ = self._pair(rng)
        dead = mask.entries == 0.0
        assert np.all(masked_layer.weights[:, dead] == 0.0)
        for step in range(25):
            block = rng.standard_normal((9, 6))
            tape = ActivationTape()
            block_forward(masked_layer, block, tape=tape, name="L")
            grads = backward(tape, rng.standard_normal((5, 5)))
            masked_layer.weights -= 0.1 * grads["L.weights"]
            assert np.all(masked_layer.weights[:, dead] == 0.0)


class TestOrderZeroReduction:
    def test_n0_layer_equals_per_frame_dense(self):
        rng = np.random.default_rng(24)
        w, b = rng.standard_normal((4, 3)), rng.standard_normal(3)
        layer = ClnnLayer(
            order=0, weights=w[None], bias=b, activation=PRelu(slopes=np.full(3, 0.25))
        )
        block = rng.standard_normal((6, 4))
        out = block_forward(layer, block)
        dense = ClnnLayer(order=0, weights=w, bias=b, activation=PRelu(slopes=np.full(3, 0.25)))
        per_frame = np.stack([dense_forward(dense, frame) for frame in block])
        assert_allclose(out, per_frame, rtol=0, atol=1e-12)

    def test_flat_and_stacked_weights_are_one_layer(self):
        # an order-0 layer holding its matrix as (l, e) or as (1, l, e) is one layer,
        # forward and backward
        rng = np.random.default_rng(28)
        w, b, slopes = rng.standard_normal((4, 3)), rng.standard_normal(3), np.full(3, 0.25)
        blocks, upstream = rng.standard_normal((5, 6, 4)), rng.standard_normal((5, 6, 3))
        results = []
        for weights in (w, w[None]):
            layer = ClnnLayer(order=0, weights=weights, bias=b, activation=PRelu(slopes))
            assert layer.matrices.shape == (1, 4, 3) and layer.input_width == 4
            tape = ActivationTape()
            out = block_forward(layer, blocks, tape=tape, name="L")
            results.append((out, backward(tape, upstream)))
        (flat_out, flat_grads), (stacked_out, stacked_grads) = results
        assert np.array_equal(flat_out, stacked_out)
        assert flat_grads["L.weights"].shape == (4, 3)
        for key, grad in flat_grads.items():
            assert np.array_equal(grad.reshape(stacked_grads[key].shape), stacked_grads[key]), key

    def test_flat_weights_need_order_zero(self):
        with pytest.raises(ShapeError, match=r"\(l, e\) at order 0"):
            ClnnLayer(order=1, weights=np.zeros((3, 2)), bias=np.zeros(2))
        with pytest.raises(ShapeError):
            ClnnLayer(order=0, weights=np.zeros((1, 1, 3, 2)), bias=np.zeros(2))
