"""Conditional layer math against scalar-loop and finite-difference oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from mclnn.errors import ContractError, InsufficientFramesError, ShapeError
from mclnn.layers import (
    ActivationTape,
    ClnnLayer,
    DenseLayer,
    LinearActivation,
    PRelu,
    Sigmoid,
    backward,
    block_forward,
    dense_forward,
    effective_weights,
    global_mean_pool,
    softmax,
    window_forward,
)
from mclnn.mask import BinaryMask, MaskSpec, generate_mask

from conftest import random_clnn_layer


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
            DenseLayer(np.zeros((3, 2)), np.zeros(2), activation=PRelu(np.array([0.25])))
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
        # on ``weights * mask``; after training steps that product must still
        # be the stored weights byte for byte, and so must the forward.
        rng = np.random.default_rng(5)
        mask = generate_mask(MaskSpec(feature_length=6, hidden_width=5, bandwidth=3, overlap=-1))
        layer = random_clnn_layer(rng, l=6, e=5, n=2, mask=mask, activation=PRelu(np.full(5, 0.2)))
        for _ in range(5):
            tape = ActivationTape()
            out = block_forward(layer, rng.standard_normal((4, 9, 6)), tape=tape, name="L")
            layer.weights -= 0.1 * backward(tape, rng.standard_normal(out.shape))["L.weights"]
        remasked = layer.weights * mask.entries
        assert remasked.tobytes() == layer.weights.tobytes()

        blocks = rng.standard_normal((3, 9, 6))
        pre = np.tile(layer.bias, (3 * 5, 1))
        for d in range(5):
            pre += blocks[:, d : d + 5].reshape(-1, 6) @ remasked[d]
        want = layer.activation.apply(pre.reshape(3, 5, 5))
        assert block_forward(layer, blocks).tobytes() == want.tobytes()


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
        dense = DenseLayer(rng.standard_normal((5, 2)), rng.standard_normal(2))
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
        dense = DenseLayer(rng.standard_normal((3, 2)), rng.standard_normal(2))

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
    def test_zero_parameters(self):
        layer = DenseLayer(np.zeros((3, 2)), np.zeros(2))
        assert_array_equal(dense_forward(layer, np.ones(3)), np.zeros(2))

    def test_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        assert_array_equal(dense_forward(DenseLayer(np.eye(3), np.zeros(3)), x), x)

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(13)
        x, w, b = rng.standard_normal(4), rng.standard_normal((4, 3)), rng.standard_normal(3)
        expected = np.array(
            [b[j] + sum(x[i] * w[i, j] for i in range(4)) for j in range(3)]
        )
        assert_allclose(dense_forward(DenseLayer(w, b), x), expected, rtol=0, atol=1e-12)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            dense_forward(DenseLayer(np.zeros((3, 2)), np.zeros(2)), np.ones(2))
        # the bias length is the layer's to check, at construction
        with pytest.raises(ShapeError):
            DenseLayer(np.zeros((3, 2)), np.zeros(3))


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
        dense = DenseLayer(rng.standard_normal((3, 2)), rng.standard_normal(2))
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
        dense = DenseLayer(w, b, activation=PRelu(slopes=np.full(3, 0.25)))
        per_frame = np.stack([dense_forward(dense, frame) for frame in block])
        assert_allclose(out, per_frame, rtol=0, atol=1e-12)
