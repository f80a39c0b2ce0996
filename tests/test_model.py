"""Architecture assembly, frame arithmetic, initialization, serialization."""

import tempfile
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

import mclnn.model
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from mclnn.dataset import Segment
from mclnn.errors import (
    ContractError,
    FileFormatError,
    HeaderMismatchError,
    TruncatedFileError,
    ValidationError,
    VersionMismatchError,
)
from mclnn.features import AudioClip, FeatureMatrix, NormStats
from mclnn.layers import (
    ClnnLayer,
    LinearActivation,
    PoolRecord,
    PRelu,
    block_forward,
    dense_forward,
    global_mean_pool,
    softmax,
)
from mclnn.mask import MaskSpec, generate_mask
from mclnn.model import (
    PRESETS,
    LayerSpec,
    ModelSpec,
    TrainedModel,
    build_model,
    frame_plan,
    load_model,
    model_forward,
    model_forward_run,
    model_forward_tape,
    save_model,
    segment_size,
)
from mclnn.training import EvalResult, RunReport

from conftest import dirty_masked_weight, rewrite_model_header, small_spec, write_model_unchecked


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
    assert min(plan) == k  # every layer has a frame to run on
    for drop, n in zip(np.diff(plan), orders):
        assert drop == -2 * n


class TestModelSpecValidation:
    def test_order_zero_rejected(self):
        with pytest.raises(ValidationError, match="layer 0 has order 0; orders must be >= 1"):
            uniform_order_spec(n=0, m=1, k=2)
        with pytest.raises(ValidationError, match="layer 1 has order 0; orders must be >= 1"):
            small_spec(layers=(LayerSpec(6, 2), LayerSpec(6, 0)))

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
        with pytest.raises(ValidationError, match="bandwidth"):
            ModelSpec(
                feature_length=4,
                layers=(LayerSpec(width=3, order=1, bandwidth=5, overlap=0),),
                extra_frames=2,
                dense_width=3,
                class_count=2,
            )

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

    def test_repeated_labels_rejected(self):
        with pytest.raises(ValidationError, match=r"\['a'\] name more than one class"):
            build_model(PRESETS["table3"], 0, labels=("a",) * 10)
        with pytest.raises(ValidationError, match=r"\['x', 'y'\] name more than one class"):
            build_model(small_spec(), seed=5, labels=("y", "x", "x", "y"))


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

    def test_untaped_batch_equals_the_taped_forward_bytewise(self, small_model):
        segments = np.random.default_rng(34).standard_normal((5, 11, 8))
        taped, _ = model_forward_tape(small_model, segments)
        assert model_forward(small_model, segments).tobytes() == taped.tobytes()

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


class TestForwardRun:
    """``model_forward_run``: segments cut from one run of frames."""

    def _run(self, hop, count, q=11, l=8, seed=40):
        frames = np.random.default_rng(seed).standard_normal((q + (count - 1) * hop, l))
        starts = np.arange(count) * hop
        return frames, starts

    def _shared_layers(self, monkeypatch, model, frames, starts):
        """Names of the layers run over the whole run (a 2-D input)."""
        shared = []
        original = mclnn.model.block_forward

        def recording(layer, block, **kwargs):
            if np.ndim(block) == 2:
                shared.append(kwargs["name"])
            return original(layer, block, **kwargs)

        monkeypatch.setattr(mclnn.model, "block_forward", recording)
        probs = model_forward_run(model, frames, starts)
        return shared, probs

    @pytest.mark.parametrize("hop, count, shared", [
        (1, 4, ["clnn0", "clnn1"]),  # 10 < 4 * 7 rows, then 6 < 4 * 3
        (6, 4, ["clnn0"]),           # 25 < 28, then 21 >= 12
        (7, 4, []),                  # 28 rows equal the batch's 4 * 7
        (1, 1, []),                  # one segment shares nothing
    ])
    def test_shares_a_layer_exactly_when_the_run_has_fewer_rows(
        self, monkeypatch, small_model, hop, count, shared
    ):
        frames, starts = self._run(hop, count)
        ran, probs = self._shared_layers(monkeypatch, small_model, frames, starts)
        assert ran == shared
        expected = np.array([model_forward(small_model, frames[s : s + 11]) for s in starts])
        assert_allclose(probs, expected, rtol=0, atol=1e-12)

    def test_without_sharing_equals_the_batched_forward_bytewise(self, small_model):
        frames, starts = self._run(hop=7, count=9)
        batch = np.stack([frames[s : s + 11] for s in starts])
        expected, _ = model_forward_tape(small_model, batch)
        assert model_forward_run(small_model, frames, starts).tobytes() == expected.tobytes()

    def test_rows_follow_the_order_of_starts(self, small_model):
        frames, starts = self._run(hop=2, count=6)
        forward = model_forward_run(small_model, frames, starts)
        backward = model_forward_run(small_model, frames, starts[::-1])
        assert_allclose(backward, forward[::-1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("frames, starts", [
        (np.zeros((20, 9)), [0]),       # wrong feature length
        (np.zeros((2, 20, 8)), [0]),    # not one run
        (np.zeros((20, 8)), []),        # no segment
        (np.zeros((20, 8)), [10]),      # runs past the end
        (np.zeros((20, 8)), [-1]),
        (np.zeros((20, 8)), [0.0]),     # not an offset
        (np.zeros((20, 8)), [[0]]),
    ])
    def test_bad_run_or_starts_is_contract_error(self, small_model, frames, starts):
        with pytest.raises(ContractError):
            model_forward_run(small_model, frames, starts)


def _repeat_output_bias(header):
    """Declare the norm block's 16 values as four more ``output.bias`` entries,
    each at its spec shape, so the file's payload still fits its header."""
    header["norm"] = None
    header["params"] += [{"name": "output.bias", "shape": [4]}] * 4


SHORT_NORM = NormStats(mean=np.zeros(3), std=np.ones(3), source_split="train", stats_id="s")
FIT = r"its reader refuses the file: ContractError\('"
# edits of a small_spec(dense_width=50) model that its file fails to load
# with, and what the error names; each edit bypasses the fields' set-once rule
SPEC_FAULTS = [
    # a layer's own constructor accepts these three tensors; only the spec's shapes reject them
    pytest.param(lambda m: object.__setattr__(
                     m, "dense", ClnnLayer(0, np.zeros((6, 51)), np.zeros(51),
                                           activation=PRelu(np.full(51, 0.25)))),
                 FIT + r"dense.weights: shape \(6, 51\) != \(6, 50\)", id="dense-one-wider"),
    pytest.param(lambda m: object.__setattr__(
                     m, "output", ClnnLayer(0, np.zeros((49, 4)), np.zeros(4))),
                 r"output.weights: shape \(49, 4\) != \(50, 4\)", id="output-rows"),
    pytest.param(lambda m: object.__setattr__(m.clnn_layers[1].activation, "slopes", np.ones(7)),
                 r"clnn1.slopes: shape \(7,\) != \(6,\)", id="clnn1-slopes"),
    pytest.param(lambda m: object.__setattr__(m.output, "activation", PRelu(np.ones(4))),
                 r"parameter keys differ: \['output.slopes'\]", id="output-extra-slopes"),
    pytest.param(lambda m: object.__setattr__(m.dense, "activation", LinearActivation()),
                 r"parameter keys differ: \['dense.slopes'\]", id="dense-no-slopes"),
    pytest.param(lambda m: object.__setattr__(m, "init_seed", -1),
                 r"init_seed must be >= 0, got -1", id="seed-negative"),
    pytest.param(dirty_masked_weight, r"clnn0.weights: 1 non-zero weight", id="masked-weight"),
]


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

    def test_loading_draws_nothing(self, tmp_path, monkeypatch):
        model = self._model_with_stats()
        path = tmp_path / "model.mcln"
        save_model(model, path)

        def draw(*args):
            raise AssertionError("load_model drew initial weights")

        monkeypatch.setattr(mclnn.model, "_glorot", draw)
        loaded = load_model(path)
        for key, tensor in model.parameters().items():
            assert tensor.tobytes() == loaded.parameters()[key].tobytes(), key
        segment = np.random.default_rng(46).standard_normal((11, 8))
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
        write_model_unchecked(model, path)
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
        lambda h: h.update(labels=["w", "x", "w", "z"]),
        lambda h: h.pop("init_seed"),
        lambda h: h.update(init_seed="seven"),
        lambda h: h.update(init_seed=-1),
        lambda h: h["params"][0].pop("name"),
        _repeat_output_bias,
        lambda h: h["norm"].pop("stats_id"),
        lambda h: h["norm"].update(stats_id=7),
        lambda h: h["norm"].update(stats_id=None),
        lambda h: h["norm"].update(source_split=["x"]),
        # values of the wrong JSON type are rejected, never coerced
        lambda h: h["spec"]["layers"][0].update(width=6.9),
        lambda h: h["spec"]["layers"][0].update(bandwidth=3.0),
        lambda h: h["spec"]["layers"][0].update(overlap=True),
        lambda h: h["spec"].update(class_count="4"),
        lambda h: h.update(init_seed=2.5),
        lambda h: h.update(init_seed=True),
        lambda h: h.update(labels="abcd"),
        lambda h: h.update(labels=[1, 2.5, None, True]),
        lambda h: h.update(init_scheme=[1, 2]),
        lambda h: h.pop("init_scheme"),
    ], ids=[
        "no-spec", "spec-list", "spec-width-text", "layer-no-order", "dense-width-0",
        "no-labels", "labels-int", "labels-count", "labels-repeated",
        "no-seed", "seed-text", "seed-negative",
        "param-no-name", "param-repeated", "norm-no-id", "norm-id-int", "norm-id-null", "norm-split-list",
        "layer-width-float", "layer-bandwidth-float", "layer-overlap-bool",
        "class-count-text", "seed-float", "seed-bool",
        "labels-text", "labels-not-strings", "init-scheme-list", "no-init-scheme",
    ])
    def test_missing_or_malformed_header_field_is_header_mismatch(self, tmp_path, edit):
        path = tmp_path / "model.mcln"
        save_model(self._model_with_stats(), path)
        rewrite_model_header(path, edit)
        with pytest.raises(HeaderMismatchError):
            load_model(path)

    def test_a_parameter_listed_twice_is_header_mismatch_naming_it(self, tmp_path):
        path = tmp_path / "model.mcln"
        save_model(self._model_with_stats(), path)
        rewrite_model_header(path, _repeat_output_bias)
        with pytest.raises(HeaderMismatchError, match=r"\['output.bias'\] are listed more than once"):
            load_model(path)

    @pytest.mark.parametrize("edit, named", SPEC_FAULTS)
    def test_file_other_than_the_spec_is_header_mismatch_naming_it(self, tmp_path, edit, named):
        model = build_model(small_spec(dense_width=50), seed=45)
        edit(model)
        path = tmp_path / "model.mcln"
        write_model_unchecked(model, path)
        with pytest.raises(HeaderMismatchError, match=named):
            load_model(path)

    @pytest.mark.parametrize("edit, named", SPEC_FAULTS + [
        pytest.param(lambda m: object.__setattr__(m, "clnn_layers", m.clnn_layers[:1]),
                     r"1 conditional layers for a spec of 2", id="clnn1-dropped"),
        pytest.param(lambda m: m.dense.weights.__setitem__((1, 2), np.nan),
                     r"dense.weights: non-finite value", id="nan-weight"),
        pytest.param(lambda m: object.__setattr__(m, "labels", ("only-one",)),
                     r"1 labels for 4 classes", id="labels-count"),
        pytest.param(lambda m: object.__setattr__(m, "norm_stats", SHORT_NORM),  # bypasses the check
                     r"normalization length 3", id="norm-short"),
    ])
    def test_a_model_that_would_not_load_raises_on_save_and_writes_nothing(
        self, tmp_path, edit, named
    ):
        model = build_model(small_spec(dense_width=50), seed=45)
        edit(model)
        path = tmp_path / "model.mcln"
        with pytest.raises((ContractError, ValidationError), match=named.removeprefix(FIT)):
            save_model(model, path)
        assert not path.exists()

    @pytest.mark.parametrize("mask, named", [
        (None, r"clnn0 holds no mask where the spec names MaskSpec"),
        (generate_mask(MaskSpec(8, 6, 4, 1)), r"clnn0 holds a mask of MaskSpec\(.*bandwidth=4"),
    ], ids=["no-mask", "other-band"])
    def test_a_layer_whose_mask_the_spec_does_not_name_raises_on_save(self, tmp_path, mask, named):
        # built through the public constructors: a load regenerates the spec's
        # own mask, under which these weights are non-zero outside the band
        model = build_model(small_spec(), seed=46)
        first = model.clnn_layers[0]
        weights = np.full_like(first.weights, 0.5) * (1.0 if mask is None else mask.entries)
        layer = ClnnLayer(first.order, weights, first.bias.copy(), mask, first.activation)
        built = TrainedModel(model.spec, [layer, *model.clnn_layers[1:]], model.dense, model.output,
                             labels=model.labels, init_seed=model.init_seed)
        path = tmp_path / "model.mcln"
        with pytest.raises(ContractError, match=named):
            save_model(built, path)
        assert not path.exists()
        write_model_unchecked(built, path)
        with pytest.raises(HeaderMismatchError, match=r"clnn0.weights"):
            load_model(path)

    def test_nan_weight_is_header_mismatch(self, tmp_path):
        model = self._model_with_stats()
        model.dense.weights[1, 2] = np.nan
        path = tmp_path / "nan.mcln"
        write_model_unchecked(model, path)
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
        object.__setattr__(model, "norm_stats", SHORT_NORM)  # bypasses the check
        path = tmp_path / "model.mcln"
        write_model_unchecked(model, path)
        with pytest.raises(HeaderMismatchError, match="normalization length 3"):
            load_model(path)

    def test_assigned_norm_stats_are_length_checked(self):
        model = build_model(small_spec(), seed=44)
        with pytest.raises(ValidationError, match="normalization length 3"):
            model.norm_stats = SHORT_NORM
        assert model.norm_stats is None


def _with_stats(model, **fields):
    """``model`` with z-score statistics over its 8 bins, ``fields`` over the defaults."""
    model.norm_stats = NormStats(mean=np.zeros(8), std=np.ones(8),
                                 **{"source_split": "train", "stats_id": "s", **fields})
    return model


def _nan_mean_in_place():
    model = _with_stats(build_model(small_spec(), seed=46))
    model.norm_stats.mean[0] = np.nan
    return model


# models that build, and whose files the parent's save_model wrote and its
# load_model refused; what the save's error names
UNLOADABLE_FILES = [
    pytest.param(lambda: build_model(small_spec(), 46, labels=(0, 1, 2, 3)),
                 r"model.labels = \[0, 1, 2, 3\] is not of type tuple\[str, ...\]", id="labels-int"),
    pytest.param(lambda: _with_stats(build_model(small_spec(), 46), stats_id=7),
                 r"model.norm.stats_id = 7 is not of type str", id="stats-id-int"),
    pytest.param(_nan_mean_in_place, r"normalization mean and std entries must be finite",
                 id="norm-mean-nan-in-place"),
    pytest.param(lambda: build_model(small_spec(), np.int64(3)),
                 r"header field 'init_seed' cannot be written as JSON", id="seed-int64"),
]


class TestSaveRunsTheReader:
    @pytest.mark.parametrize("make, named", UNLOADABLE_FILES)
    def test_a_model_whose_file_would_not_load_raises_validation_error_on_save(
        self, tmp_path, make, named
    ):
        path = tmp_path / "model.mcln"
        with pytest.raises(ValidationError, match=named):
            save_model(make(), path)
        assert not path.exists()

    def test_numpy_string_labels_round_trip_as_text(self, tmp_path):
        labels = tuple(np.str_(name) for name in "wxyz")
        model = _with_stats(build_model(small_spec(), 47, labels=labels), stats_id=np.str_("s"))
        path = tmp_path / "model.mcln"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.labels == ("w", "x", "y", "z")
        assert all(type(label) is str for label in loaded.labels)
        assert type(loaded.norm_stats.stats_id) is str

    def test_save_checks_against_the_model_own_masks_without_generating_any(
        self, tmp_path, monkeypatch
    ):
        model = build_model(small_spec(), seed=48)

        def generate(spec):
            raise AssertionError("save_model generated a mask")

        monkeypatch.setattr(mclnn.model, "generate_mask", generate)
        save_model(model, tmp_path / "model.mcln")


_TEXT = st.text(max_size=6)
_TEXT_INT_OR_NONE = st.one_of(_TEXT, st.integers(-5, 5), st.none())
_POISON = st.one_of(st.none(), st.tuples(st.sampled_from(["mean", "std"]), st.integers(0, 7),
                                         st.sampled_from([np.nan, np.inf, -np.inf])))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    labels=st.lists(st.one_of(_TEXT, st.integers(-5, 5), st.booleans(), _TEXT.map(np.str_)),
                    min_size=4, max_size=4, unique=True),
    seed=st.one_of(st.integers(0, 2**40), st.integers(0, 2**40).map(np.int64)),
    norm=st.one_of(st.none(), st.tuples(_TEXT_INT_OR_NONE, _TEXT_INT_OR_NONE, _POISON)),
)
def test_a_saved_model_loads_as_it_was_or_is_refused_leaving_no_file(labels, seed, norm):
    model = build_model(small_spec(), seed, labels=tuple(labels))
    loadable = all(isinstance(label, str) for label in labels) and type(seed) is int
    if norm is not None:
        source_split, stats_id, poison = norm
        rng = np.random.default_rng(seed % 1000)
        model.norm_stats = NormStats(mean=rng.standard_normal(8), std=rng.uniform(0.5, 2.0, 8),
                                     source_split=source_split, stats_id=stats_id)
        loadable &= isinstance(source_split, str) and isinstance(stats_id, str) and poison is None
        if poison is not None:
            vector, index, value = poison
            getattr(model.norm_stats, vector)[index] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.mcln"
        try:
            save_model(model, path)
        except (ContractError, ValidationError):
            assert not loadable and not path.exists()
            return
        loaded = load_model(path)
    assert loadable
    assert (loaded.spec, loaded.labels, loaded.init_seed, loaded.init_scheme) == (
        model.spec, model.labels, model.init_seed, model.init_scheme
    )
    for key, tensor in model.parameters().items():
        assert loaded.parameters()[key].tobytes() == tensor.tobytes(), key
    if norm is None:
        assert loaded.norm_stats is None
    else:
        ours, theirs = model.norm_stats, loaded.norm_stats
        assert (theirs.source_split, theirs.stats_id) == (ours.source_split, ours.stats_id)
        assert theirs.mean.tobytes() == ours.mean.tobytes()
        assert theirs.std.tobytes() == ours.std.tobytes()


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


def test_types_holding_arrays_compare_by_identity():
    """``in`` and ``index`` find the object itself; array fields are never compared."""
    def pair(make):
        return make(), make()

    def tape_records():
        model = build_model(small_spec(), seed=0)
        _, tape = model_forward_tape(model, np.ones((1, segment_size(model.spec), 8)))
        return tape.records

    records = pair(tape_records)
    models = pair(lambda: build_model(small_spec(), seed=0))
    pairs = {
        "AudioClip": pair(lambda: AudioClip(np.zeros(4), 8000)),
        "FeatureMatrix": pair(lambda: FeatureMatrix(np.zeros((3, 2)), clip_id="c")),
        "NormStats": pair(lambda: NormStats(np.zeros(2), np.ones(2), "train", "s")),
        "Segment": pair(lambda: Segment(np.zeros((2, 2)), 0, "c", 0)),
        "BinaryMask": pair(lambda: generate_mask(MaskSpec(4, 3, 2, 1))),
        "PRelu": (models[0].dense.activation, models[1].dense.activation),
        "ClnnLayer": (models[0].clnn_layers[0], models[1].clnn_layers[0]),
        "LayerRecord": (records[0][0], records[1][0]),
        "PoolRecord": next((a, b) for a, b in zip(*records) if isinstance(a, PoolRecord)),
        "TrainedModel": models,
        "RunReport": pair(lambda: RunReport(config={}, confusion=np.zeros((2, 3)))),
        "EvalResult": pair(lambda: EvalResult(1.0, np.zeros((2, 3)), {})),
    }
    for name, (first, second) in pairs.items():
        assert type(first).__name__ == name
        both = [first, second]
        assert both.index(second) == 1 and second in both, name
        assert first not in [second] and first != second, name


# every field that is checked when its object is made, by type; none is set again
FIXED_FIELDS = {
    TrainedModel: ("spec", "clnn_layers", "dense", "output", "labels", "init_seed", "init_scheme"),
    ClnnLayer: ("order", "weights", "bias", "mask", "activation"),
    PRelu: ("slopes",),
    FeatureMatrix: ("frames", "clip_id", "label", "split", "normalized", "norm_id", "meta"),
    EvalResult: ("clip_accuracy", "confusion", "per_clip"),
}


def _holder(kind):
    model = build_model(small_spec(), seed=0)
    return {
        TrainedModel: model,
        ClnnLayer: model.clnn_layers[0],
        PRelu: model.clnn_layers[0].activation,
        FeatureMatrix: FeatureMatrix(np.zeros((3, 2)), clip_id="c", label=1, meta={"k": 1}),
        EvalResult: EvalResult(1.0, np.zeros((2, 3)), {"c": 0}),
    }[kind]


@pytest.mark.parametrize("kind, name", [
    pytest.param(kind, name, id=f"{kind.__name__}.{name}")
    for kind, names in FIXED_FIELDS.items() for name in names
])
def test_a_checked_field_is_not_set_again(kind, name):
    holder = _holder(kind)
    held = getattr(holder, name)
    with pytest.raises(FrozenInstanceError):
        setattr(holder, name, object())
    with pytest.raises(FrozenInstanceError):
        delattr(holder, name)
    assert getattr(holder, name) is held


def test_arrays_change_in_place_and_norm_stats_is_set_through_its_check():
    model = build_model(small_spec(), seed=0)
    layer = model.clnn_layers[0]
    weights, slopes = layer.weights, layer.activation.slopes
    expected_weights, expected_slopes = weights - 0.5 * layer.mask.entries, slopes - 0.125
    layer.weights -= 0.5 * layer.mask.entries
    layer.activation.slopes -= 0.125
    assert layer.weights is weights and layer.activation.slopes is slopes
    assert layer.weights.tobytes() == expected_weights.tobytes()
    assert layer.activation.slopes.tobytes() == expected_slopes.tobytes()
    stats = NormStats(np.zeros(8), np.ones(8), "train", "s")
    model.norm_stats = stats
    assert model.norm_stats is stats
    with pytest.raises(ValidationError, match="normalization length 3 != feature length 8"):
        model.norm_stats = SHORT_NORM
    assert model.norm_stats is stats
    model.norm_stats = None
    assert model.norm_stats is None
