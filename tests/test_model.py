"""Architecture assembly, frame arithmetic, initialization, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from mclnn.errors import (
    ContractError,
    FileFormatError,
    HeaderMismatchError,
    TruncatedFileError,
    ValidationError,
    VersionMismatchError,
)
from mclnn.features import NormStats
from mclnn.layers import block_forward, dense_forward, global_mean_pool, softmax
from mclnn.model import (
    PRESETS,
    LayerSpec,
    ModelSpec,
    build_model,
    frame_plan,
    load_model,
    model_forward,
    model_forward_tape,
    save_model,
    segment_size,
)

from conftest import dirty_masked_weight, rewrite_model_header, small_spec


def uniform_order_spec(n, m, k, width=4, feature_length=4):
    return ModelSpec(
        feature_length=feature_length,
        layers=tuple(LayerSpec(width=width, order=n) for _ in range(m)),
        extra_frames=k,
        dense_width=3,
        class_count=2,
    )


class TestSegmentSize:
    def test_reference_configuration(self):
        assert segment_size(uniform_order_spec(n=4, m=2, k=10)) == 26

    def test_three_layer_worked_example(self):
        assert segment_size(uniform_order_spec(n=4, m=3, k=5)) == 29

    def test_minimal(self):
        assert segment_size(uniform_order_spec(n=1, m=1, k=1)) == 3

    def test_mixed_orders(self):
        spec = ModelSpec(
            feature_length=4,
            layers=(LayerSpec(4, 1), LayerSpec(4, 3), LayerSpec(4, 2)),
            extra_frames=2,
            dense_width=3,
            class_count=2,
        )
        assert segment_size(spec) == 2 * 1 + 2 * 3 + 2 * 2 + 2


class TestFramePlan:
    def test_three_layer_worked_example(self):
        assert frame_plan(uniform_order_spec(n=4, m=3, k=5)) == [29, 21, 13, 5]

    def test_reference_configuration(self):
        assert frame_plan(PRESETS["table3"]) == [26, 18, 10]

    def test_minimal(self):
        assert frame_plan(uniform_order_spec(n=1, m=1, k=1)) == [3, 1]


@settings(derandomize=True, max_examples=80)
@given(
    orders=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    k=st.integers(1, 12),
)
def test_frame_plan_consistency(orders, k):
    spec = ModelSpec(
        feature_length=3,
        layers=tuple(LayerSpec(width=3, order=n) for n in orders),
        extra_frames=k,
        dense_width=2,
        class_count=2,
    )
    plan = frame_plan(spec)
    assert plan[0] == segment_size(spec)
    assert plan[-1] == k
    for drop, n in zip(np.diff(plan), orders):
        assert drop == -2 * n


class TestModelSpecValidation:
    def test_order_zero_needs_explicit_permission(self):
        with pytest.raises(ValidationError, match="order"):
            uniform_order_spec(n=0, m=1, k=2)
        spec = ModelSpec(
            feature_length=4,
            layers=(LayerSpec(4, 0),),
            extra_frames=2,
            dense_width=3,
            class_count=2,
            allow_order_zero=True,
        )
        assert frame_plan(spec) == [2, 2]

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(feature_length=0),
            dict(layers=()),
            dict(extra_frames=0),
            dict(dense_width=0),
            dict(class_count=0),
            dict(activation="tanh"),
        ],
    )
    def test_bad_fields_rejected(self, overrides):
        with pytest.raises(ValidationError):
            small_spec(**overrides)

    def test_bandwidth_without_overlap_rejected(self):
        with pytest.raises(ValidationError):
            LayerSpec(width=4, order=1, bandwidth=2)


class TestBuildModel:
    def test_reference_preset_builds_with_expected_mask_shapes(self):
        model = build_model(PRESETS["table3"], seed=0)
        assert [layer.mask.shape for layer in model.clnn_layers] == [(256, 220), (220, 200)]
        assert model.clnn_layers[0].weights.shape == (9, 256, 220)
        assert model.dense.weights.shape == (200, 50)
        assert model.output.weights.shape == (50, 10)

    def test_same_seed_bit_identical(self):
        a = build_model(small_spec(), seed=77)
        b = build_model(small_spec(), seed=77)
        for key, tensor in a.parameters().items():
            assert tensor.tobytes() == b.parameters()[key].tobytes(), key

    def test_different_seed_differs(self):
        a = build_model(small_spec(), seed=1)
        b = build_model(small_spec(), seed=2)
        assert not np.array_equal(a.clnn_layers[0].weights, b.clnn_layers[0].weights)

    def test_bandwidth_exceeding_input_width_propagates(self):
        spec = ModelSpec(
            feature_length=4,
            layers=(LayerSpec(width=3, order=1, bandwidth=5, overlap=0),),
            extra_frames=2,
            dense_width=3,
            class_count=2,
        )
        with pytest.raises(ValidationError, match="bandwidth"):
            build_model(spec, seed=0)

    def test_masked_entries_start_at_zero(self):
        model = build_model(small_spec(), seed=3)
        for layer in model.clnn_layers:
            dead = layer.mask.entries == 0.0
            assert np.all(layer.weights[:, dead] == 0.0)

    def test_initialization_bounds(self):
        model = build_model(small_spec(), seed=4)
        layer = model.clnn_layers[0]
        limit = np.sqrt(6.0 / (8 + 6))
        assert np.all(np.abs(layer.weights) <= limit)
        assert_array_equal(layer.bias, np.zeros(6))
        assert_array_equal(layer.activation.slopes, np.full(6, 0.25))

    def test_default_labels(self):
        model = build_model(small_spec(), seed=5)
        assert model.labels == ("0", "1", "2", "3")
        with pytest.raises(ValidationError):
            build_model(small_spec(), seed=5, labels=("a", "b"))


class TestModelForward:
    def test_zero_parameters_give_uniform(self, small_model):
        for tensor in small_model.parameters().values():
            tensor[...] = 0.0
        probs = model_forward(small_model, np.ones((11, 8)))
        assert_allclose(probs, np.full(4, 0.25), rtol=0, atol=1e-15)

    def test_single_class_model(self):
        spec = small_spec(class_count=1)
        model = build_model(spec, seed=6)
        probs = model_forward(model, np.zeros((11, 8)))
        assert_array_equal(probs, np.array([1.0]))

    def test_probabilities_sum_to_one(self, small_model):
        rng = np.random.default_rng(30)
        for _ in range(10):
            probs = model_forward(small_model, rng.standard_normal((11, 8)))
            assert abs(probs.sum() - 1.0) < 1e-9
            assert np.all(probs >= 0)

    def test_matches_composed_per_operation_calls(self, small_model):
        rng = np.random.default_rng(31)
        segment = rng.standard_normal((11, 8))
        h = segment
        for layer in small_model.clnn_layers:
            h = block_forward(layer, h)
        pooled = global_mean_pool(h)
        hidden = dense_forward(small_model.dense, pooled)
        logits = dense_forward(small_model.output, hidden)
        expected = softmax(logits)
        assert_allclose(model_forward(small_model, segment), expected, rtol=0, atol=1e-12)

    def test_batch_rows_equal_single_segment_forwards(self, small_model):
        # small_spec has two masked layers; 7 is not a multiple of any chunk size
        segments = np.random.default_rng(33).standard_normal((7, 11, 8))
        batched, tape = model_forward_tape(small_model, segments)
        assert batched.shape == (7, 4)
        assert tape.records[-1].outputs.shape == (7, 4)  # the tape ends at the logits
        for row, segment in zip(batched, segments):
            assert_allclose(row, model_forward(small_model, segment), rtol=0, atol=1e-12)

    def test_wrong_segment_shape_is_contract_error(self, small_model):
        with pytest.raises(ContractError, match="segment"):
            model_forward(small_model, np.zeros((10, 8)))
        with pytest.raises(ContractError):
            model_forward(small_model, np.zeros((11, 9)))
        with pytest.raises(ContractError, match="segment batch"):
            model_forward_tape(small_model, np.zeros((11, 8)))
        with pytest.raises(ContractError, match="segment batch"):
            model_forward_tape(small_model, np.zeros((0, 11, 8)))

    def test_deterministic(self, small_model):
        segment = np.random.default_rng(32).standard_normal((11, 8))
        first = model_forward(small_model, segment)
        second = model_forward(small_model, segment)
        assert first.tobytes() == second.tobytes()


class TestSerialization:
    def _model_with_stats(self, seed=40):
        model = build_model(small_spec(), seed=seed, labels=("w", "x", "y", "z"))
        rng = np.random.default_rng(seed + 1)
        mean = rng.standard_normal(8)
        std = np.abs(rng.standard_normal(8)) + 0.5
        model.norm_stats = NormStats(mean=mean, std=std, source_split="train", stats_id="abc123")
        return model

    def test_round_trip_bit_exact(self, tmp_path):
        model = self._model_with_stats()
        path = tmp_path / "model.mcln"
        save_model(model, path)
        loaded = load_model(path)
        for key, tensor in model.parameters().items():
            assert tensor.tobytes() == loaded.parameters()[key].tobytes(), key
        assert loaded.labels == model.labels
        assert loaded.spec == model.spec
        assert loaded.norm_stats.mean.tobytes() == model.norm_stats.mean.tobytes()
        assert loaded.norm_stats.std.tobytes() == model.norm_stats.std.tobytes()
        assert loaded.norm_stats.stats_id == "abc123"

    def test_round_trip_preserves_forward_bit_exactly(self, tmp_path):
        model = self._model_with_stats()
        path = tmp_path / "model.mcln"
        save_model(model, path)
        loaded = load_model(path)
        segment = np.random.default_rng(41).standard_normal((11, 8))
        assert model_forward(model, segment).tobytes() == model_forward(loaded, segment).tobytes()

    def test_masks_regenerated_not_stored(self, tmp_path):
        model = self._model_with_stats()
        path = tmp_path / "model.mcln"
        save_model(model, path)
        loaded = load_model(path)
        for original, fresh in zip(model.clnn_layers, loaded.clnn_layers):
            assert_array_equal(original.mask.entries, fresh.mask.entries)
            assert original.mask.spec == fresh.mask.spec

    def test_without_norm_stats(self, tmp_path):
        model = build_model(small_spec(), seed=42)
        path = tmp_path / "bare.mcln"
        save_model(model, path)
        assert load_model(path).norm_stats is None

    def test_truncated_file(self, tmp_path):
        model = self._model_with_stats()
        path = tmp_path / "model.mcln"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 17])
        with pytest.raises(TruncatedFileError):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        model = self._model_with_stats()
        path = tmp_path / "model.mcln"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FileFormatError):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        model = self._model_with_stats()
        path = tmp_path / "model.mcln"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError):
            load_model(path)

    def test_non_zero_masked_weight_is_header_mismatch(self, tmp_path):
        model = self._model_with_stats()
        dirty_masked_weight(model)
        path = tmp_path / "dirty.mcln"
        save_model(model, path)
        with pytest.raises(HeaderMismatchError, match=r"clnn0.weights: 1 non-zero weight"):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("spec"),
        lambda h: h.update(spec=[8, 6]),
        lambda h: h["spec"].update(feature_length="wide"),
        lambda h: h["spec"]["layers"][0].pop("order"),
        lambda h: h["spec"].update(dense_width=0),
        lambda h: h.pop("labels"),
        lambda h: h.update(labels=4),
        lambda h: h.update(labels=["only-one"]),
        lambda h: h.pop("init_seed"),
        lambda h: h.update(init_seed="seven"),
        lambda h: h.update(init_seed=-1),
        lambda h: h["params"][0].pop("name"),
        lambda h: h["norm"].pop("stats_id"),
        # values of the wrong JSON type are rejected, never coerced
        lambda h: h["spec"]["layers"][0].update(width=6.9),
        lambda h: h["spec"]["layers"][0].update(bandwidth=3.0),
        lambda h: h["spec"]["layers"][0].update(overlap=True),
        lambda h: h["spec"].update(allow_order_zero="false"),
        lambda h: h["spec"].update(allow_order_zero=0),
        lambda h: h["spec"].update(class_count="4"),
        lambda h: h.update(init_seed=2.5),
        lambda h: h.update(init_seed=True),
    ], ids=[
        "no-spec", "spec-list", "spec-width-text", "layer-no-order", "dense-width-0",
        "no-labels", "labels-int", "labels-count", "no-seed", "seed-text", "seed-negative",
        "param-no-name", "norm-no-id",
        "layer-width-float", "layer-bandwidth-float", "layer-overlap-bool", "order-zero-text",
        "order-zero-int", "class-count-text", "seed-float", "seed-bool",
    ])
    def test_missing_or_malformed_header_field_is_header_mismatch(self, tmp_path, edit):
        path = tmp_path / "model.mcln"
        save_model(self._model_with_stats(), path)
        rewrite_model_header(path, edit)
        with pytest.raises(HeaderMismatchError):
            load_model(path)

    def test_nan_weight_is_header_mismatch(self, tmp_path):
        model = self._model_with_stats()
        model.dense.weights[1, 2] = np.nan
        path = tmp_path / "nan.mcln"
        save_model(model, path)
        with pytest.raises(HeaderMismatchError, match=r"dense.weights: non-finite value"):
            load_model(path)

    def test_tampered_shape_header(self, tmp_path):
        model = self._model_with_stats()
        path = tmp_path / "model.mcln"
        save_model(model, path)
        blob = path.read_bytes()
        # the first declared parameter is clnn0.weights with shape [5, 8, 6]
        tampered = blob.replace(b'"shape": [5, 8, 6]', b'"shape": [5, 6, 8]', 1)
        assert tampered != blob
        path.write_bytes(tampered)
        with pytest.raises(HeaderMismatchError):
            load_model(path)

    def test_non_integer_dimension_is_header_mismatch(self, tmp_path):
        path = tmp_path / "model.mcln"
        save_model(self._model_with_stats(), path)
        rewrite_model_header(path, lambda h: h["params"][0].update(shape=[5, 8.9, 6.2]))
        with pytest.raises(HeaderMismatchError, match="non-integer dimension"):
            load_model(path)

    def test_norm_length_other_than_feature_length_is_header_mismatch(self, tmp_path):
        model = build_model(small_spec(), seed=43)
        short = NormStats(mean=np.zeros(3), std=np.ones(3), source_split="train", stats_id="s")
        object.__setattr__(model, "norm_stats", short)  # bypasses the check
        path = tmp_path / "model.mcln"
        save_model(model, path)
        with pytest.raises(HeaderMismatchError, match="normalization length 3"):
            load_model(path)

    def test_assigned_norm_stats_are_length_checked(self):
        model = build_model(small_spec(), seed=44)
        short = NormStats(mean=np.zeros(3), std=np.ones(3), source_split="train", stats_id="s")
        with pytest.raises(ValidationError, match="normalization length 3"):
            model.norm_stats = short
        assert model.norm_stats is None


class TestParameters:
    def test_key_set_and_liveness(self, small_model):
        params = small_model.parameters()
        assert sorted(params) == [
            "clnn0.bias", "clnn0.slopes", "clnn0.weights",
            "clnn1.bias", "clnn1.slopes", "clnn1.weights",
            "dense.bias", "dense.slopes", "dense.weights",
            "output.bias", "output.weights",
        ]
        params["dense.bias"][0] = 123.0
        assert small_model.dense.bias[0] == 123.0

    def test_set_parameters_validates_keys_and_shapes(self, small_model):
        good = small_model.copy_parameters()
        small_model.set_parameters(good)
        bad = dict(good)
        del bad["dense.bias"]
        with pytest.raises(ContractError):
            small_model.set_parameters(bad)
        bad = dict(good)
        bad["dense.bias"] = np.zeros(6)
        with pytest.raises(ContractError):
            small_model.set_parameters(bad)

    def test_non_zero_masked_weight_is_rejected_before_any_write(self, small_model):
        before = {k: v.tobytes() for k, v in small_model.parameters().items()}
        values = {k: v + 1.0 for k, v in small_model.parameters().items()}
        for layer, key in zip(small_model.clnn_layers, ("clnn0.weights", "clnn1.weights")):
            values[key] *= layer.mask.entries
        dead = np.argwhere(small_model.clnn_layers[1].mask.entries == 0.0)[0]
        values["clnn1.weights"][0, dead[0], dead[1]] = 0.5
        with pytest.raises(ContractError, match=r"clnn1.weights: 1 non-zero weight"):
            small_model.set_parameters(values)
        after = {k: v.tobytes() for k, v in small_model.parameters().items()}
        assert after == before
