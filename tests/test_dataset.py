"""Segmentation, fold assignment, and split planning."""

import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclnn.cli import main
from mclnn.dataset import (
    SplitPlan,
    class_mapping,
    fixed_split,
    fold_buckets,
    load_manifest,
    make_folds,
    read_text,
    segment_clip,
    segment_count,
)
from mclnn.errors import ConfigError, FileFormatError, ValidationError
from mclnn.features import FeatureMatrix, save_features
from mclnn.model import LayerSpec, ModelSpec, build_model, save_model, segment_size
from mclnn.training import TrainConfig, train


def clip_features(t, l=4, clip_id="clip", label=1):
    frames = np.arange(t * l, dtype=float).reshape(t, l)
    return FeatureMatrix(frames=frames, clip_id=clip_id, label=label)


class TestSegmentClip:
    def test_hundred_frames_hop_equals_q(self):
        segments = segment_clip(clip_features(100), q=26, hop=26)
        assert [s.start for s in segments] == [0, 26, 52]
        assert all(s.frames.shape == (26, 4) for s in segments)
        assert all(s.label == 1 and s.clip_id == "clip" for s in segments)

    def test_exact_fit_yields_one_segment(self):
        segments = segment_clip(clip_features(26), q=26, hop=26)
        assert len(segments) == 1
        assert segments[0].start == 0

    def test_dense_hop_on_long_clip(self):
        segments = segment_clip(clip_features(645), q=26, hop=1)
        assert len(segments) == 620

    def test_short_clip_gives_empty_list_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="mclnn.dataset"):
            segments = segment_clip(clip_features(10), q=26, hop=26)
        assert segments == []
        assert any("fewer than" in r.message for r in caplog.records)

    def test_segments_are_frame_slices(self):
        fm = clip_features(30)
        segments = segment_clip(fm, q=10, hop=5)
        for seg in segments:
            np.testing.assert_array_equal(seg.frames, fm.frames[seg.start : seg.start + 10])

    def test_segments_carry_whether_their_clip_is_normalized(self):
        raw = clip_features(30)
        normalized = FeatureMatrix(frames=raw.frames, clip_id="clip", label=1, normalized=True,
                                   norm_id="s")
        assert not any(s.normalized for s in segment_clip(raw, q=10, hop=5))
        assert all(s.normalized for s in segment_clip(normalized, q=10, hop=5))

    def test_unlabelled_clip_is_segmented_trains_nothing_and_predicts(self, tmp_path, capsys):
        spec = ModelSpec(feature_length=4, layers=(LayerSpec(width=3, order=1),),
                         extra_frames=1, dense_width=3, class_count=2)
        q = segment_size(spec)
        fm = FeatureMatrix(frames=np.random.default_rng(0).standard_normal((30, 4)), clip_id="c")
        segments = segment_clip(fm, q=q, hop=q)
        assert segments and all(s.label is None for s in segments)
        model = build_model(spec, seed=1)
        before = {key: value.tobytes() for key, value in model.parameters().items()}
        with pytest.raises(ValidationError, match=r"clip 'c' label None is not a class id"):
            train(model, segments, TrainConfig(epochs=1, batch_size=2))
        assert {key: value.tobytes() for key, value in model.parameters().items()} == before
        # predict prints for the unlabeled file what it prints for a labeled copy
        save_model(model, tmp_path / "model.mcln")
        for name, clip in (("unlabeled", fm), ("labeled", replace(fm, label=0))):
            (tmp_path / name).mkdir()
            save_features(clip, tmp_path / name / "c.mclf")
            assert main(["predict", "--model", str(tmp_path / "model.mcln"),
                         str(tmp_path / name / "c.mclf")]) == 0
        unlabeled, labeled = capsys.readouterr().out.splitlines()
        assert unlabeled == labeled

    def test_bad_parameters(self):
        with pytest.raises(ValidationError):
            segment_clip(clip_features(30), q=0, hop=1)
        with pytest.raises(ValidationError):
            segment_clip(clip_features(30), q=5, hop=0)


@settings(derandomize=True, max_examples=120)
@given(t=st.integers(1, 80), q=st.integers(1, 40), hop=st.integers(1, 15))
def test_segment_count_formula(t, q, hop):
    expected = (t - q) // hop + 1 if t >= q else 0
    assert segment_count(t, q, hop) == expected
    segments = segment_clip(clip_features(t), q=q, hop=hop)
    assert len(segments) == expected


class TestMakeFolds:
    def _clips(self, per_class, classes):
        return [(f"{c}-{i}", c) for c in range(classes) for i in range(per_class)]

    def test_balanced_thousand_clips(self):
        plan = make_folds(self._clips(100, 10), folds=10, seed=1337)
        for fold in range(1, 11):
            members = plan.clips_in(f"fold{fold}")
            assert len(members) == 100
            per_class = {}
            for clip_id in members:
                label = int(clip_id.split("-")[0])
                per_class[label] = per_class.get(label, 0) + 1
            assert all(count == 10 for count in per_class.values())

    def test_same_seed_identical(self):
        a = make_folds(self._clips(30, 4), folds=10, seed=7)
        b = make_folds(self._clips(30, 4), folds=10, seed=7)
        assert a == b

    def test_different_seed_differs(self):
        a = make_folds(self._clips(30, 4), folds=10, seed=7)
        b = make_folds(self._clips(30, 4), folds=10, seed=8)
        assert a.assignment != b.assignment

    def test_unbalanced_classes_stay_within_one(self):
        # six classes with jagged sizes
        sizes = [23, 17, 40, 11, 52, 36]
        clips = [(f"{c}-{i}", c) for c, size in enumerate(sizes) for i in range(size)]
        plan = make_folds(clips, folds=10, seed=3)
        for c, size in enumerate(sizes):
            counts = []
            for fold in range(1, 11):
                counts.append(
                    sum(1 for cid in plan.clips_in(f"fold{fold}") if cid.startswith(f"{c}-"))
                )
            assert sum(counts) == size
            assert max(counts) - min(counts) <= 1

    def test_too_few_clips_per_class(self):
        with pytest.raises(ValidationError, match="stratify"):
            make_folds(self._clips(5, 3), folds=10, seed=0)

    def test_duplicate_clip_rejected(self):
        clips = [("same", 0), ("same", 1), ("other", 0), ("third", 1)]
        with pytest.raises(ValidationError):
            make_folds(clips, folds=2, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            make_folds(self._clips(4, 2), folds=2, seed=-1)


class TestFixedSplit:
    def test_assignment_honored(self):
        plan = fixed_split([f"tr{i}" for i in range(5)], [f"te{i}" for i in range(3)])
        assert plan.clips_in("train") == [f"tr{i}" for i in range(5)]
        assert plan.clips_in("test") == [f"te{i}" for i in range(3)]
        assert plan.clips_in("validation") == []

    def test_overlap_rejected(self):
        with pytest.raises(ValidationError, match="share"):
            fixed_split(["a", "b"], ["b", "c"])

    def test_ten_percent_carve_out(self):
        train = [f"tr{i:03d}" for i in range(100)]
        plan = fixed_split(train, ["te0"], validation_fraction=0.1, seed=5)
        assert len(plan.clips_in("validation")) == 10
        assert len(plan.clips_in("train")) == 90
        assert set(plan.clips_in("validation")) <= set(train)

    def test_stratified_carve_out(self):
        train = [f"a{i}" for i in range(20)] + [f"b{i}" for i in range(20)]
        labels = {cid: 0 if cid.startswith("a") else 1 for cid in train}
        plan = fixed_split(train, ["t0"], validation_fraction=0.25, seed=6, labels=labels)
        val = plan.clips_in("validation")
        assert len(val) == 10
        assert sum(1 for v in val if v.startswith("a")) == 5

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            fixed_split(["a", "a"], ["b"])

    @pytest.mark.parametrize("fraction", [0.0, 0.5])
    def test_negative_seed_rejected(self, fraction):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            fixed_split(["a", "b"], ["c"], validation_fraction=fraction, seed=-1)

    def test_deterministic(self):
        train = [f"c{i}" for i in range(30)]
        a = fixed_split(train, ["x"], validation_fraction=0.2, seed=9)
        b = fixed_split(train, ["x"], validation_fraction=0.2, seed=9)
        assert a == b


class TestSplitPlan:
    def test_save_load_round_trip(self, tmp_path):
        plan = make_folds([(f"c{i}", i % 3) for i in range(30)], folds=5, seed=11)
        path = tmp_path / "plan.txt"
        plan.save(path)
        assert SplitPlan.load(path) == plan

    def test_duplicate_line_rejected(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("c1\ttrain\nc1\ttest\n")
        with pytest.raises(ValidationError, match="twice"):
            SplitPlan.load(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("c1 train no tabs\n")
        with pytest.raises(ValidationError):
            SplitPlan.load(path)

    @pytest.mark.parametrize("raw", ["abc", "1.5", ""])
    def test_bad_seed_line_rejected(self, tmp_path, raw):
        path = tmp_path / "plan.txt"
        path.write_text(f"# seed={raw}\nc1\ttrain\n")
        with pytest.raises(ValidationError, match=f"plan.txt:1: bad seed {raw!r}"):
            SplitPlan.load(path)

    def test_seed_none_and_integer_read_back(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("# seed=None\nc1\ttrain\n")
        assert SplitPlan.load(path).seed is None
        path.write_text("# seed=-3\nc1\ttrain\n")
        assert SplitPlan.load(path).seed == -3

    def test_undecodable_plan_rejected(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_bytes(b"c1\ttr\xe4in\n")
        with pytest.raises(FileFormatError, match="not UTF-8 text"):
            SplitPlan.load(path)

    def test_a_clip_id_with_leading_space_is_refused(self):
        # saved, it would read back as "a"
        with pytest.raises(ValidationError, match=r"clip id ' a' cannot be written"):
            SplitPlan({" a": "train"})

    @pytest.mark.parametrize("name", [
        "", " a", "a ", "#a", "a\tb", "a\nb", "a\rb", "a\x0bb", "a\u2028b", "\u3000a",
    ])
    def test_names_a_plan_file_would_not_give_back_are_refused(self, name):
        with pytest.raises(ValidationError, match="cannot be written to a text file"):
            SplitPlan({name: "train"})
        with pytest.raises(ValidationError, match="cannot be written to a text file"):
            SplitPlan({"a": name})

    @pytest.mark.parametrize("name", ["a b", "hip hop", "a#b", "caf\u00e9", "x__y.z"])
    def test_names_a_plan_file_gives_back_round_trip(self, tmp_path, name):
        plan = SplitPlan({name: name, "other": "train"}, seed=3)
        path = tmp_path / "plan.txt"
        plan.save(path)
        assert SplitPlan.load(path) == plan

    def test_unknown_clip_lookup(self):
        plan = SplitPlan(assignment={"a": "train"})
        with pytest.raises(ValidationError):
            plan.bucket("b")

    def test_no_leakage_across_buckets(self):
        plan = make_folds([(f"c{i}", i % 2) for i in range(40)], folds=4, seed=12)
        buckets = [set(plan.clips_in(f"fold{i}")) for i in range(1, 5)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not buckets[i] & buckets[j]
        assert set().union(*buckets) == set(plan.assignment)


class TestFoldBuckets:
    def test_roles(self):
        roles = fold_buckets(5, test_fold=2, validation_fold=4)
        assert roles == {
            "fold1": "train", "fold2": "test", "fold3": "train",
            "fold4": "validation", "fold5": "train",
        }

    def test_default_validation_is_next_fold(self):
        assert fold_buckets(5, test_fold=2)["fold3"] == "validation"
        assert fold_buckets(5, test_fold=5)["fold1"] == "validation"

    def test_invalid_folds(self):
        with pytest.raises(ValidationError):
            fold_buckets(5, test_fold=6)
        with pytest.raises(ValidationError):
            fold_buckets(5, test_fold=2, validation_fold=2)


class TestManifest:
    def test_load_and_mapping(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("# comment\nclips/a1\trock\nclips/b1\tjazz\nclips/a2\trock\n")
        rows = load_manifest(path)
        assert rows == [("clips/a1", "rock"), ("clips/b1", "jazz"), ("clips/a2", "rock")]
        mapping = class_mapping([c for _, c in rows])
        assert mapping == {"jazz": 0, "rock": 1}

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("# nothing\n")
        with pytest.raises(ValidationError):
            load_manifest(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("just-one-field\n")
        with pytest.raises(ValidationError):
            load_manifest(path)

    def test_undecodable_manifest_rejected(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_bytes(b"clips/a1\tcaf\xe9\n")
        with pytest.raises(FileFormatError, match="manifest.tsv is not UTF-8 text"):
            load_manifest(path)


class TestReadText:
    def test_utf8(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_bytes("café\r\nrock\n".encode())
        assert read_text(path) == "café\nrock\n"

    @pytest.mark.parametrize("error", [FileFormatError, ConfigError])
    def test_undecodable_raises_the_given_error(self, tmp_path, error):
        path = tmp_path / "list.txt"
        path.write_bytes(b"\xff")
        with pytest.raises(error, match="list.txt is not UTF-8 text"):
            read_text(path, error) if error is ConfigError else read_text(path)
