"""CLI surface: subcommands, exit codes, config handling, end-to-end runs."""

import argparse
import configparser
import contextlib
import io
import re
import tempfile
import tracemalloc
import wave
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mclnn.cli
import mclnn.dataset
import mclnn.features
import mclnn.model
import mclnn.training
from mclnn import container
from mclnn.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_GRADCHECK_FAILED,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    ExperimentConfig,
    build_parser,
    load_experiment_config,
    main,
    parse_layers,
)
from mclnn.dataset import SplitPlan, segment_clip
from mclnn.errors import ConfigError, ValidationError
from mclnn.features import (
    FeatureMatrix,
    FeatureParams,
    NormStats,
    apply_zscore,
    load_features,
    save_features,
)
from mclnn.model import PRESETS, LayerSpec, build_model, load_model, save_model, segment_size
from mclnn.training import (
    TrainConfig,
    confusion_lines,
    evaluate,
    predict_clip,
    run_experiment,
)

from conftest import (
    au_bytes,
    dirty_masked_weight,
    rewrite_feature_header,
    rewrite_model_header,
)


def synth_audio_tree(root, rng, clips_per_class=6, samples=1200, rate=2000):
    """Two classes of noisy pure tones, written as <class>/<clip>.npz."""
    for cls, freq in (("drums", 100.0), ("flute", 800.0)):
        class_dir = root / cls
        class_dir.mkdir(parents=True)
        for i in range(clips_per_class):
            t = np.arange(samples) / rate
            x = np.sin(2 * np.pi * freq * t + rng.uniform(0, 6.28)) * rng.uniform(0.5, 1.0)
            x += rng.normal(0, 0.05, samples)
            np.savez(class_dir / f"clip{i}.npz", samples=x, rate=rate)


EXTRACT_FLAGS = [
    "--rate", "2000", "--fft", "64", "--hop", "32",
    "--mel-bins", "8", "--chunk-seconds", "0.5",
]

SMALL_INI = """\
[model]
feature_length = 8
layers = 6:2:3:1, 6:2:3:1
extra_frames = 3
dense_width = 5
class_count = 2

[training]
learning_rate = 0.05
batch_size = 4
epochs = 25
seed = 7
patience = 25
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Full extract -> plan -> train chain on synthetic tones, shared read-only."""
    root = tmp_path_factory.mktemp("cliflow")
    audio = root / "audio"
    synth_audio_tree(audio, np.random.default_rng(4))

    featdir = root / "features"
    assert main(["features", "extract", "--in", str(audio), "--out", str(featdir)]
                + EXTRACT_FLAGS) == EXIT_OK

    (root / "train.txt").write_text(
        "".join(f"{c}__clip{i}\n" for c in ("drums", "flute") for i in range(4))
    )
    (root / "test.txt").write_text(
        "".join(f"{c}__clip{i}\n" for c in ("drums", "flute") for i in (4, 5))
    )
    plan = root / "plan.txt"
    assert main([
        "dataset", "plan",
        "--train-list", str(root / "train.txt"), "--test-list", str(root / "test.txt"),
        "--validation-fraction", "0.25", "--seed", "1",
        "--manifest", str(featdir / "manifest.tsv"), "--out", str(plan),
    ]) == EXIT_OK

    config = root / "config.ini"
    config.write_text(SMALL_INI)
    rundir = root / "run"
    assert main([
        "train", "--config", str(config), "--features", str(featdir),
        "--plan", str(plan), "--out", str(rundir),
        "--classes", str(featdir / "classes.txt"),
    ]) == EXIT_OK
    return root


class TestFeaturesExtract:
    def test_artifacts_and_manifest(self, workspace):
        featdir = workspace / "features"
        feature_files = sorted(p.name for p in featdir.glob("*.mclf"))
        assert len(feature_files) == 12
        assert "drums__clip0.mclf" in feature_files
        manifest = (featdir / "manifest.tsv").read_text().splitlines()
        assert len(manifest) == 12
        assert manifest[0] == "drums__clip0\tdrums"
        assert (featdir / "classes.txt").read_text() == "drums\nflute\n"
        resolved = (featdir / "resolved.ini").read_text()
        assert "rate = 2000" in resolved
        assert "mel_bins = 8" in resolved

    def test_feature_files_load_with_expected_shape(self, workspace):
        from mclnn.features import load_features

        fm = load_features(workspace / "features" / "flute__clip3.mclf")
        assert fm.feature_length == 8
        # 0.5 s at 2000 Hz, fft 64, hop 32 -> 1 + ceil((1000 - 64) / 32)
        assert fm.frame_count == 31
        assert fm.clip_id == "flute__clip3"
        assert fm.label == 1
        assert not fm.normalized

    def test_missing_input_dir_is_config_error(self, tmp_path, capsys):
        rc = main(["features", "extract", "--in", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "error: ConfigError" in capsys.readouterr().err

    def test_no_class_subdirs_is_data_error(self, tmp_path, capsys):
        (tmp_path / "flat").mkdir()
        rc = main(["features", "extract", "--in", str(tmp_path / "flat"),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_DATA
        assert "error: ValidationError" in capsys.readouterr().err

    def test_au_clips_are_listed_and_read_as_their_wav_twins(self, tmp_path):
        rng = np.random.default_rng(12)
        values = np.round(rng.normal(0, 4000, 1200)).astype(np.int16)
        audio = tmp_path / "audio"
        for cls in ("drums", "flute"):
            (audio / cls).mkdir(parents=True)
        with wave.open(str(audio / "drums" / "clip.wav"), "wb") as handle:
            handle.setnchannels(1)
            handle.setsampwidth(2)
            handle.setframerate(2000)
            handle.writeframes(values.astype("<i2").tobytes())
        (audio / "flute" / "clip.au").write_bytes(au_bytes(values.astype(">i2").tobytes()))
        out = tmp_path / "f"
        assert main(["features", "extract", "--in", str(audio), "--out", str(out)]
                    + EXTRACT_FLAGS) == EXIT_OK
        assert (out / "manifest.tsv").read_text() == "drums__clip\tdrums\nflute__clip\tflute\n"
        wav, au = (load_features(out / f"{c}__clip.mclf") for c in ("drums", "flute"))
        assert au.frames.tobytes() == wav.frames.tobytes()

    @pytest.mark.parametrize("first, second", [
        ("a/x.au", "a/x.wav"),  # one class directory, one stem
        ("a/b__x.wav", "a__b/x.wav"),  # two classes whose <class>__<stem> agree
    ])
    def test_inputs_sharing_a_clip_id_are_data_error(self, tmp_path, capsys, first, second):
        audio = tmp_path / "audio"
        for name in (first, second, "b/y.wav"):
            path = audio / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(au_bytes(bytes(2400)) if path.suffix == ".au" else wav_bytes(1200))
        out = tmp_path / "f"
        rc = main(["features", "extract", "--in", str(audio), "--out", str(out)] + EXTRACT_FLAGS)
        assert rc == EXIT_DATA
        line = single_error(capsys.readouterr(), "ValidationError")
        assert str(audio / first) in line and str(audio / second) in line
        assert not out.exists()

    def test_no_audio_clips_names_every_container(self, tmp_path, capsys):
        (tmp_path / "audio" / "drums").mkdir(parents=True)
        (tmp_path / "audio" / "drums" / "notes.txt").write_text("no audio here")
        rc = main(["features", "extract", "--in", str(tmp_path / "audio"),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_DATA
        assert "no .npz, .wav or .au clips found" in single_error(capsys.readouterr(), "ValidationError")

    def test_out_root_env_fallback(self, tmp_path, monkeypatch):
        audio = tmp_path / "audio"
        synth_audio_tree(audio, np.random.default_rng(8), clips_per_class=1)
        monkeypatch.setenv("MCLNN_OUT_ROOT", str(tmp_path / "artifacts"))
        assert main(["features", "extract", "--in", str(audio)] + EXTRACT_FLAGS) == EXIT_OK
        assert (tmp_path / "artifacts" / "features" / "drums__clip0.mclf").exists()

    def test_no_out_and_no_env_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MCLNN_OUT_ROOT", raising=False)
        audio = tmp_path / "audio"
        synth_audio_tree(audio, np.random.default_rng(9), clips_per_class=1)
        assert main(["features", "extract", "--in", str(audio)] + EXTRACT_FLAGS) == EXIT_CONFIG

    def test_percent_in_out_path_is_recorded_as_itself(self, tmp_path):
        audio = tmp_path / "audio"
        synth_audio_tree(audio, np.random.default_rng(11), clips_per_class=1)
        out = tmp_path / "run%1"
        assert main(["features", "extract", "--in", str(audio), "--out", str(out)]
                    + EXTRACT_FLAGS) == EXIT_OK
        resolved = out / "resolved.ini"
        assert f"out = {out}\n" in resolved.read_text()
        config = load_experiment_config(argparse.Namespace(config=str(resolved)))
        assert config.features.mel_bins == 8

    @pytest.mark.parametrize("flag, value", [
        ("--mel-bins", "0"), ("--chunk-seconds", "-1"), ("--chunk-seconds", "inf"),
    ])
    def test_feature_value_out_of_bounds_is_config_error(self, tmp_path, capsys, flag, value):
        audio = tmp_path / "audio"
        synth_audio_tree(audio, np.random.default_rng(10), clips_per_class=1)
        flags = EXTRACT_FLAGS + [flag, value]
        rc = main(["features", "extract", "--in", str(audio), "--out", str(tmp_path / "o")] + flags)
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ConfigError: [features] ")
        assert not list(tmp_path.glob("o/*.mclf"))


class TestDatasetPlan:
    def test_fixed_lists_bucket_counts(self, workspace):
        text = (workspace / "plan.txt").read_text().splitlines()
        assert text[0].startswith("# seed=")
        rows = dict(line.split("\t") for line in text[1:])
        assert len(rows) == 12
        counts = {b: sum(1 for v in rows.values() if v == b) for b in set(rows.values())}
        assert counts == {"train": 6, "validation": 2, "test": 4}

    def test_fold_mode(self, workspace, tmp_path, capsys):
        out = tmp_path / "folds.txt"
        rc = main(["dataset", "plan", "--manifest",
                   str(workspace / "features" / "manifest.tsv"),
                   "--folds", "3", "--seed", "5", "--out", str(out)])
        assert rc == EXIT_OK
        assert "fold1=4, fold2=4, fold3=4" in capsys.readouterr().out
        assert out.exists()

    def test_train_list_without_test_list(self, workspace, tmp_path):
        rc = main(["dataset", "plan", "--train-list", str(workspace / "train.txt"),
                   "--out", str(tmp_path / "p.txt")])
        assert rc == EXIT_CONFIG

    def test_neither_mode_given(self, tmp_path):
        assert main(["dataset", "plan", "--out", str(tmp_path / "p.txt")]) == EXIT_CONFIG


class TestMaskDump:
    def test_exact_grid(self, capsys):
        rc = main(["mask", "dump", "--feature-length", "4", "--hidden-width", "3",
                   "--bandwidth", "2", "--overlap", "0"])
        assert rc == EXIT_OK
        assert capsys.readouterr().out == (
            "100\n100\n010\n010\n\nones (row,col): 0,0 1,0 2,1 3,1\n"
        )

    def test_writes_file(self, tmp_path, capsys):
        out = tmp_path / "mask.txt"
        rc = main(["mask", "dump", "--feature-length", "6", "--hidden-width", "5",
                   "--bandwidth", "3", "--overlap", "-1", "--out", str(out)])
        assert rc == EXIT_OK
        grid = out.read_text().split("\n\n")[0].splitlines()
        assert len(grid) == 6 and all(len(row) == 5 for row in grid)
        assert grid[0] == "10100"  # the second band wraps into row 0 of column 2
        assert all(row[4] == "0" for row in grid)  # no band reaches the last column

    def test_overlap_must_be_below_bandwidth(self, capsys):
        rc = main(["mask", "dump", "--feature-length", "4", "--hidden-width", "3",
                   "--bandwidth", "2", "--overlap", "2"])
        assert rc == EXIT_DATA
        assert "error: ValidationError" in capsys.readouterr().err


class TestModelDescribe:
    def test_preset_table3(self, capsys):
        assert main(["model", "describe", "--preset", "table3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "feature_length: 256" in out
        assert "layers: 220:4:40:-10, 200:4:10:3" in out
        assert "segment_size: 26" in out
        assert "frame_plan: [26, 18, 10]" in out
        assert "layer 0: mask 256x220" in out
        assert "weights (9, 256, 220)" in out
        assert "layer 1: mask 220x200" in out

    def test_without_architecture_is_config_error(self, capsys):
        assert main(["model", "describe"]) == EXIT_CONFIG

    def test_unknown_preset(self, capsys):
        assert main(["model", "describe", "--preset", "bogus"]) == EXIT_CONFIG
        assert "bogus" in capsys.readouterr().err


class TestTrainEvalPredict:
    def test_train_artifacts(self, workspace):
        rundir = workspace / "run"
        assert sorted(p.name for p in rundir.iterdir()) == [
            "model.mcln", "plan.txt", "report.txt", "resolved.ini",
        ]
        report = (rundir / "report.txt").read_text()
        assert "test_accuracy" in report
        assert "wall_clock_seconds" in report
        resolved = (rundir / "resolved.ini").read_text()
        assert "[model]" in resolved and "[training]" in resolved and "[paths]" in resolved

    def test_trained_model_reloads(self, workspace):
        from mclnn.model import load_model

        model = load_model(workspace / "run" / "model.mcln")
        assert model.labels == ("drums", "flute")
        assert model.norm_stats is not None

    def test_learned_the_tones(self, workspace, capsys):
        rc = main(["eval", "--model", str(workspace / "run" / "model.mcln"),
                   "--plan", str(workspace / "plan.txt"),
                   "--features", str(workspace / "features")])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "clips: 4" in out
        accuracy = float(out.splitlines()[0].split("accuracy:")[1])
        assert accuracy >= 0.75
        assert "true\\pred\tdrums\tflute\tnone" in out

    def test_eval_writes_per_clip_file(self, workspace, tmp_path):
        out = tmp_path / "eval.txt"
        rc = main(["eval", "--model", str(workspace / "run" / "model.mcln"),
                   "--plan", str(workspace / "plan.txt"),
                   "--features", str(workspace / "features"), "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# accuracy = ")
        assert len(lines) == 1 + 4
        assert all("\t" in line for line in lines[1:])

    def test_eval_unknown_bucket(self, workspace, capsys):
        rc = main(["eval", "--model", str(workspace / "run" / "model.mcln"),
                   "--plan", str(workspace / "plan.txt"),
                   "--features", str(workspace / "features"), "--bucket", "holdout"])
        assert rc == EXIT_DATA

    def test_eval_missing_model_file(self, workspace, capsys):
        rc = main(["eval", "--model", str(workspace / "nope.mcln"),
                   "--plan", str(workspace / "plan.txt"),
                   "--features", str(workspace / "features")])
        assert rc == EXIT_IO

    def test_eval_corrupt_model_file(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.mcln"
        bad.write_bytes(b"not a model at all")
        rc = main(["eval", "--model", str(bad), "--plan", str(workspace / "plan.txt"),
                   "--features", str(workspace / "features")])
        assert rc == EXIT_IO
        assert "error:" in capsys.readouterr().err

    def test_eval_unlabeled_short_clip_is_data_error(self, workspace, tmp_path, capsys):
        from mclnn.features import FeatureMatrix, save_features

        featdir = tmp_path / "features"
        featdir.mkdir()
        # fewer frames than the segment size (11), and no label
        save_features(FeatureMatrix(frames=np.ones((5, 8)), clip_id="mystery__clip0"),
                      featdir / "mystery__clip0.mclf")
        plan = tmp_path / "plan.txt"
        plan.write_text("mystery__clip0\ttest\n")
        rc = main(["eval", "--model", str(workspace / "run" / "model.mcln"),
                   "--plan", str(plan), "--features", str(featdir)])
        assert rc == EXIT_DATA
        assert "mystery__clip0" in capsys.readouterr().err

    def test_predict_labels_clips(self, workspace, capsys):
        rc = main(["predict", "--model", str(workspace / "run" / "model.mcln"),
                   str(workspace / "features" / "drums__clip5.mclf"),
                   str(workspace / "features" / "flute__clip4.mclf")])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        for line in lines:
            clip_id, label, probs = line.split("\t")
            assert label in ("drums", "flute")
            values = [float(p) for p in probs.split()]
            assert len(values) == 2
            assert abs(sum(values) - 1.0) < 1e-3

    @pytest.mark.parametrize("hop", ["0", "-3"])
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_hop_below_one_is_config_error(self, workspace, capsys, command, hop):
        model = str(workspace / "run" / "model.mcln")
        if command == "eval":
            argv = ["eval", "--model", model, "--plan", str(workspace / "plan.txt"),
                    "--features", str(workspace / "features")]
        else:
            argv = ["predict", "--model", model, str(workspace / "features" / "drums__clip5.mclf")]
        rc = main(argv + ["--hop", hop])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: ConfigError: --hop must be >= 1, got {hop}"]

    def test_predict_model_with_non_zero_masked_weight_is_io_error(self, workspace, tmp_path, capsys):
        model = load_model(workspace / "run" / "model.mcln")
        dirty_masked_weight(model)
        dirty = tmp_path / "dirty.mcln"
        save_model(model, dirty)
        rc = main(["predict", "--model", str(dirty),
                   str(workspace / "features" / "drums__clip5.mclf")])
        assert rc == EXIT_IO
        err = capsys.readouterr().err
        assert "1 non-zero weight(s) where the mask is 0" in err
        assert "Traceback" not in err

    def test_predict_model_with_short_norm_vector_is_io_error(self, workspace, tmp_path, capsys):
        model = load_model(workspace / "run" / "model.mcln")
        short = NormStats(mean=np.zeros(3), std=np.ones(3), source_split="train", stats_id="s")
        object.__setattr__(model, "norm_stats", short)  # bypasses the check
        path = tmp_path / "short_norm.mcln"
        save_model(model, path)
        rc = main(["predict", "--model", str(path),
                   str(workspace / "features" / "drums__clip5.mclf")])
        assert rc == EXIT_IO
        assert "normalization length 3 != feature length 8" in capsys.readouterr().err

    def test_predict_model_with_nan_weight_is_io_error(self, workspace, tmp_path, capsys):
        model = load_model(workspace / "run" / "model.mcln")
        model.output.weights[0, 0] = np.nan
        path = tmp_path / "nan.mcln"
        save_model(model, path)
        rc = main(["predict", "--model", str(path),
                   str(workspace / "features" / "drums__clip5.mclf")])
        assert rc == EXIT_IO
        captured = capsys.readouterr()
        assert "output.weights: non-finite value(s)" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_model_header_without_spec_is_io_error(self, workspace, tmp_path, capsys, command):
        model = tmp_path / "nospec.mcln"
        model.write_bytes((workspace / "run" / "model.mcln").read_bytes())
        rewrite_model_header(model, lambda header: header.pop("spec"))
        features = workspace / "features"
        if command == "predict":
            argv = ["predict", "--model", str(model), str(features / "drums__clip5.mclf")]
        else:
            argv = ["eval", "--model", str(model), "--plan", str(workspace / "plan.txt"),
                    "--features", str(features)]
        assert main(argv) == EXIT_IO
        err = capsys.readouterr().err
        assert "header field missing or malformed: KeyError('spec')" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda h: h["norm"].update(stats_id=7),
        lambda h: h["norm"].update(stats_id=None),
        lambda h: h["norm"].update(source_split=["x"]),
    ], ids=["stats-id-int", "stats-id-null", "source-split-list"])
    def test_predict_model_with_mistyped_norm_field_is_io_error(
        self, workspace, tmp_path, capsys, edit
    ):
        model = tmp_path / "model.mcln"
        model.write_bytes((workspace / "run" / "model.mcln").read_bytes())
        rewrite_model_header(model, edit)
        rc = main(["predict", "--model", str(model),
                   str(workspace / "features" / "drums__clip5.mclf")])
        assert rc == EXIT_IO
        line = single_error(capsys.readouterr(), "HeaderMismatchError")
        assert "header field missing or malformed" in line and "model.norm." in line

    def test_model_header_with_legacy_allow_order_zero_predicts_unchanged(
        self, workspace, tmp_path, capsys
    ):
        # model files written before the key was dropped carry it in their spec
        original = workspace / "run" / "model.mcln"
        features = str(workspace / "features" / "drums__clip5.mclf")
        assert main(["predict", "--model", str(original), features]) == EXIT_OK
        expected = capsys.readouterr()
        legacy = tmp_path / "legacy.mcln"
        legacy.write_bytes(original.read_bytes())
        rewrite_model_header(legacy, lambda h: h["spec"].update(allow_order_zero=False))
        assert main(["predict", "--model", str(legacy), features]) == EXIT_OK
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("meta"),
        lambda h: h.update(label="1"),
        lambda h: h.update(label=1.5),
        lambda h: h.update(clip_id=7),
        lambda h: h.update(normalized="yes"),
        lambda h: h.update(meta=["hann"]),
    ], ids=["no-meta", "label-text", "label-float", "clip-id-int", "normalized-text", "meta-list"])
    def test_predict_feature_header_field_missing_or_mistyped_is_io_error(
        self, workspace, tmp_path, capsys, edit
    ):
        features = tmp_path / "drums__clip5.mclf"
        features.write_bytes((workspace / "features" / "drums__clip5.mclf").read_bytes())
        rewrite_feature_header(features, edit)
        rc = main(["predict", "--model", str(workspace / "run" / "model.mcln"), str(features)])
        assert rc == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: HeaderMismatchError: ") and err.count("\n") == 1
        assert "header field missing or malformed" in err
        assert "Traceback" not in err

    def _prenormalized(self, workspace, tmp_path, stats):
        """drums__clip5 normalized with ``stats`` (the model's when None), alone in a dir."""
        if stats is None:
            stats = load_model(workspace / "run" / "model.mcln").norm_stats
        featdir = tmp_path / "prenormalized"
        featdir.mkdir()
        fm = load_features(workspace / "features" / "drums__clip5.mclf")
        save_features(apply_zscore(fm, stats), featdir / "drums__clip5.mclf")
        return featdir

    OTHER_STATS = NormStats(mean=np.zeros(8), std=np.full(8, 2.0), source_split="train",
                            stats_id="other0000000")

    def test_predict_features_normalized_with_other_statistics_is_data_error(
        self, workspace, tmp_path, capsys
    ):
        featdir = self._prenormalized(workspace, tmp_path, self.OTHER_STATS)
        rc = main(["predict", "--model", str(workspace / "run" / "model.mcln"),
                   str(featdir / "drums__clip5.mclf")])
        assert rc == EXIT_DATA
        assert "'other0000000'" in capsys.readouterr().err

    def test_eval_features_normalized_with_other_statistics_is_data_error(
        self, workspace, tmp_path, capsys
    ):
        featdir = self._prenormalized(workspace, tmp_path, self.OTHER_STATS)
        plan = tmp_path / "plan.txt"
        plan.write_text("drums__clip5\ttest\n")
        rc = main(["eval", "--model", str(workspace / "run" / "model.mcln"),
                   "--plan", str(plan), "--features", str(featdir)])
        assert rc == EXIT_DATA
        assert "'other0000000'" in capsys.readouterr().err

    def test_predict_accepts_features_normalized_with_the_model_statistics(
        self, workspace, tmp_path, capsys
    ):
        featdir = self._prenormalized(workspace, tmp_path, None)
        model = str(workspace / "run" / "model.mcln")
        assert main(["predict", "--model", model, str(featdir / "drums__clip5.mclf")]) == EXIT_OK
        assert main(["predict", "--model", model,
                     str(workspace / "features" / "drums__clip5.mclf")]) == EXIT_OK
        prenormalized, raw = capsys.readouterr().out.splitlines()
        assert prenormalized == raw

    def test_model_without_statistics_takes_raw_files_only(self, workspace, tmp_path, capsys):
        model = load_model(workspace / "run" / "model.mcln")
        featdir = self._prenormalized(workspace, tmp_path, model.norm_stats)
        norm_id = model.norm_stats.stats_id
        model.norm_stats = None
        save_model(model, tmp_path / "model.mcln")
        plan = tmp_path / "plan.txt"
        plan.write_text("drums__clip5\ttest\n")
        for command in (["predict", str(featdir / "drums__clip5.mclf")],
                        ["eval", "--plan", str(plan), "--features", str(featdir)]):
            assert main([command[0], "--model", str(tmp_path / "model.mcln"), *command[1:]]) == EXIT_DATA
            line = single_error(capsys.readouterr(), "ValidationError")
            assert f"'drums__clip5' was normalized with statistics {norm_id!r}, not None" in line
        raw = load_features(workspace / "features" / "drums__clip5.mclf")
        q = segment_size(model.spec)
        predicted, probs = predict_clip(model, segment_clip(raw, q, q))
        assert main(["predict", "--model", str(tmp_path / "model.mcln"),
                     str(workspace / "features" / "drums__clip5.mclf")]) == EXIT_OK
        assert capsys.readouterr().out == (
            f"drums__clip5\t{model.labels[predicted]}\t" + " ".join(f"{p:.4f}" for p in probs) + "\n"
        )

    def test_train_on_normalized_features_is_data_error(self, workspace, tmp_path, capsys):
        stats = load_model(workspace / "run" / "model.mcln").norm_stats
        featdir = tmp_path / "normalized"
        featdir.mkdir()
        for path in sorted((workspace / "features").glob("*.mclf")):
            save_features(apply_zscore(load_features(path), stats), featdir / path.name)
        config = tmp_path / "config.ini"
        config.write_text(SMALL_INI)
        rc = main(["train", "--config", str(config), "--features", str(featdir),
                   "--plan", str(workspace / "plan.txt"), "--out", str(tmp_path / "run")])
        assert rc == EXIT_DATA
        line = single_error(capsys.readouterr(), "ValidationError")
        assert f"already normalized with statistics {stats.stats_id!r}" in line
        assert not (tmp_path / "run" / "model.mcln").exists()

    def test_train_fold_plan_requires_test_fold(self, workspace, tmp_path, capsys):
        fold_plan = tmp_path / "folds.txt"
        assert main(["dataset", "plan", "--manifest",
                     str(workspace / "features" / "manifest.tsv"),
                     "--folds", "3", "--seed", "5", "--out", str(fold_plan)]) == EXIT_OK
        config = tmp_path / "config.ini"
        config.write_text(SMALL_INI)
        rc = main(["train", "--config", str(config),
                   "--features", str(workspace / "features"),
                   "--plan", str(fold_plan), "--out", str(tmp_path / "run")])
        assert rc == EXIT_CONFIG
        assert "--test-fold" in capsys.readouterr().err

    @staticmethod
    def _features_with(workspace, tmp_path, extra: dict[str, bytes] | None = None):
        """A copy of the workspace features plus the files ``extra`` names."""
        featdir = tmp_path / "features"
        featdir.mkdir()
        for path in (workspace / "features").glob("*.mclf"):
            (featdir / path.name).write_bytes(path.read_bytes())
        for name, blob in (extra or {}).items():
            (featdir / name).write_bytes(blob)
        return featdir

    @classmethod
    def _features_with_a_truncated_file(cls, workspace, tmp_path):
        """A copy of the workspace features beside a truncated unrelated ``.mclf``."""
        truncated = (workspace / "features" / "drums__clip0.mclf").read_bytes()[:100]
        return cls._features_with(workspace, tmp_path, {"zz__unrelated.mclf": truncated})

    def test_train_checks_the_plan_before_any_feature_file(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        # a truncated unrelated file beside the clips: the plan's error wins
        fold_plan = self._fold_plan(workspace, tmp_path, capsys)
        featdir = self._features_with_a_truncated_file(workspace, tmp_path)
        reads = []
        monkeypatch.setattr(mclnn.features, "read_feature_header", reads.append)
        monkeypatch.setattr(mclnn.features, "load_features", reads.append)
        config = tmp_path / "config.ini"
        config.write_text(SMALL_INI)
        rc = main(["train", "--config", str(config), "--features", str(featdir),
                   "--plan", str(fold_plan), "--out", str(tmp_path / "run")])
        assert rc == EXIT_CONFIG
        assert "--test-fold" in single_error(capsys.readouterr(), "ConfigError")
        assert reads == []

    def test_train_reads_every_header_before_any_payload(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        featdir = self._features_with_a_truncated_file(workspace, tmp_path)
        loads = []
        monkeypatch.setattr(mclnn.features, "load_features", loads.append)
        config = tmp_path / "config.ini"
        config.write_text(SMALL_INI)
        rc = main(["train", "--config", str(config), "--features", str(featdir),
                   "--plan", str(workspace / "plan.txt"), "--out", str(tmp_path / "run")])
        assert rc == EXIT_IO
        assert "zz__unrelated.mclf" in single_error(capsys.readouterr(), "TruncatedFileError")
        assert loads == []

    @staticmethod
    def _spy_loads(monkeypatch) -> list[str]:
        """The names of the files ``load_features`` reads from here on."""
        loaded, original = [], mclnn.features.load_features
        monkeypatch.setattr(mclnn.features, "load_features",
                            lambda path: loaded.append(Path(path).name) or original(path))
        return loaded

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_two_files_holding_one_clip_is_data_error_before_any_payload(
        self, workspace, tmp_path, capsys, monkeypatch, command
    ):
        # a test clip's file again under a name that sorts last
        copy = (workspace / "features" / "drums__clip5.mclf").read_bytes()
        featdir = self._features_with(workspace, tmp_path, {"zz__copy.mclf": copy})
        loaded = self._spy_loads(monkeypatch)
        config = tmp_path / "config.ini"
        config.write_text(SMALL_INI)
        argv = {
            "eval": ["eval", "--model", str(workspace / "run" / "model.mcln")],
            "train": ["train", "--config", str(config), "--out", str(tmp_path / "run")],
        }[command]
        rc = main(argv + ["--plan", str(workspace / "plan.txt"), "--features", str(featdir)])
        assert rc == EXIT_DATA
        line = single_error(capsys.readouterr(), "ValidationError")
        assert line.endswith(f"{featdir / 'drums__clip5.mclf'} and {featdir / 'zz__copy.mclf'} "
                             f"both hold clip 'drums__clip5'")
        assert loaded == []

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_a_plan_clip_without_a_feature_file_is_data_error_before_any_payload(
        self, workspace, tmp_path, capsys, monkeypatch, command
    ):
        # the four test clips' files are gone; the training clips' remain
        featdir = self._features_with(workspace, tmp_path)
        for clip_id in ("drums__clip4", "drums__clip5", "flute__clip4", "flute__clip5"):
            (featdir / f"{clip_id}.mclf").unlink()
        loaded = self._spy_loads(monkeypatch)
        config = tmp_path / "config.ini"
        config.write_text(SMALL_INI)
        argv = {
            "eval": ["eval", "--model", str(workspace / "run" / "model.mcln")],
            "train": ["train", "--config", str(config), "--out", str(tmp_path / "run")],
        }[command]
        rc = main(argv + ["--plan", str(workspace / "plan.txt"), "--features", str(featdir)])
        assert rc == EXIT_DATA
        line = single_error(capsys.readouterr(), "ValidationError")
        assert line.endswith(f"4 plan clips have no feature file under {featdir}, e.g. "
                             f"['drums__clip4', 'drums__clip5', 'flute__clip4']")
        assert loaded == []
        assert not (tmp_path / "run" / "model.mcln").exists()

    def test_train_checks_but_does_not_load_a_clip_outside_the_plan(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        fold_plan = self._fold_plan(workspace, tmp_path, capsys)
        featdir = self._features_with(workspace, tmp_path)
        save_features(FeatureMatrix(frames=np.ones((20, 8)), clip_id="stray__clip0", label=0),
                      featdir / "stray__clip0.mclf")
        loaded = self._spy_loads(monkeypatch)
        runs = {}
        for name, features in (("without", workspace / "features"), ("with", featdir)):
            (tmp_path / name).mkdir()
            loaded.clear()
            assert self._train_on_folds(tmp_path / name, features, fold_plan) == EXIT_OK
            assert sorted(loaded) == sorted(p.name for p in (workspace / "features").glob("*.mclf"))
            runs[name] = (tmp_path / name / "run" / "model.mcln").read_bytes()
        assert runs["with"] == runs["without"]

    @pytest.mark.parametrize("flag", ["--test-fold", "--validation-fold"])
    def test_train_fixed_plan_rejects_fold_flags(self, workspace, tmp_path, capsys, flag):
        config = tmp_path / "config.ini"
        config.write_text(SMALL_INI)
        rc = main(["train", "--config", str(config), flag, "1",
                   "--features", str(workspace / "features"),
                   "--plan", str(workspace / "plan.txt"), "--out", str(tmp_path / "run")])
        assert rc == EXIT_CONFIG
        assert "apply only to fold plans" in single_error(capsys.readouterr(), "ConfigError")
        assert not (tmp_path / "run" / "model.mcln").exists()

    def test_train_repeated_class_name_is_data_error_before_training(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        def no_training(*args):
            raise AssertionError("train was called")

        monkeypatch.setattr(mclnn.training, "train", no_training)
        classes = tmp_path / "classes.txt"
        classes.write_text("drums\ndrums\n")
        config = tmp_path / "config.ini"
        config.write_text(SMALL_INI)
        rc = main(["train", "--config", str(config), "--classes", str(classes),
                   "--features", str(workspace / "features"),
                   "--plan", str(workspace / "plan.txt"), "--out", str(tmp_path / "run")])
        assert rc == EXIT_DATA
        assert "'drums'" in single_error(capsys.readouterr(), "ValidationError")
        assert not (tmp_path / "run" / "model.mcln").exists()

    def test_model_file_with_repeated_labels_is_io_error(self, workspace, tmp_path, capsys):
        model = tmp_path / "model.mcln"
        model.write_bytes((workspace / "run" / "model.mcln").read_bytes())
        rewrite_model_header(model, lambda header: header.update(labels=["flute", "flute"]))
        rc = main(["predict", "--model", str(model),
                   str(workspace / "features" / "drums__clip5.mclf")])
        assert rc == EXIT_IO
        assert "'flute'" in single_error(capsys.readouterr(), "HeaderMismatchError")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_train_non_finite_learning_rate_is_config_error(self, workspace, tmp_path, capsys, value):
        config = tmp_path / "config.ini"
        config.write_text(SMALL_INI)
        rc = main(["train", "--config", str(config), "--learning-rate", value,
                   "--features", str(workspace / "features"),
                   "--plan", str(workspace / "plan.txt"), "--out", str(tmp_path / "run")])
        assert rc == EXIT_CONFIG
        assert "learning_rate must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "run" / "model.mcln").exists()

    def test_train_fold_plan_with_test_fold(self, workspace, tmp_path):
        fold_plan = tmp_path / "folds.txt"
        assert main(["dataset", "plan", "--manifest",
                     str(workspace / "features" / "manifest.tsv"),
                     "--folds", "3", "--seed", "5", "--out", str(fold_plan)]) == EXIT_OK
        config = tmp_path / "config.ini"
        config.write_text(SMALL_INI)
        rc = main(["train", "--config", str(config),
                   "--features", str(workspace / "features"),
                   "--plan", str(fold_plan), "--out", str(tmp_path / "run"),
                   "--test-fold", "2", "--epochs", "2"])
        assert rc == EXIT_OK
        assert (tmp_path / "run" / "model.mcln").exists()

    @staticmethod
    def _fold_plan(workspace, tmp_path, capsys):
        """A 3-fold plan over the workspace clips; its summary line is dropped."""
        fold_plan = tmp_path / "folds.txt"
        assert main(["dataset", "plan", "--manifest",
                     str(workspace / "features" / "manifest.tsv"),
                     "--folds", "3", "--seed", "5", "--out", str(fold_plan)]) == EXIT_OK
        capsys.readouterr()
        return fold_plan

    @staticmethod
    def _train_on_folds(tmp_path, featdir, fold_plan):
        config = tmp_path / "config.ini"
        config.write_text(SMALL_INI)
        return main(["train", "--config", str(config), "--features", str(featdir),
                     "--plan", str(fold_plan), "--out", str(tmp_path / "run"),
                     "--test-fold", "1", "--epochs", "2"])

    def test_train_unlabeled_clip_in_the_test_fold_is_data_error_before_training(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        fold_plan = self._fold_plan(workspace, tmp_path, capsys)
        featdir = self._features_with(workspace, tmp_path)
        [unlabeled, *_] = SplitPlan.load(fold_plan).clips_in("fold1")
        rewrite_feature_header(featdir / f"{unlabeled}.mclf", lambda h: h.update(label=None))
        calls = []
        monkeypatch.setattr(mclnn.training, "train", lambda *args: calls.append(args))
        assert self._train_on_folds(tmp_path, featdir, fold_plan) == EXIT_DATA
        line = single_error(capsys.readouterr(), "ValidationError")
        assert f"clip {unlabeled!r} label None is not a class id" in line
        assert calls == []
        assert not (tmp_path / "run" / "model.mcln").exists()

    @pytest.mark.parametrize("bucket", ["fold7", "foldx"])
    def test_train_fold_plan_without_fold3_is_data_error(
        self, workspace, tmp_path, capsys, bucket
    ):
        fold_plan = self._fold_plan(workspace, tmp_path, capsys)
        fold_plan.write_text(fold_plan.read_text().replace("\tfold3\n", f"\t{bucket}\n"))
        assert self._train_on_folds(tmp_path, workspace / "features", fold_plan) == EXIT_DATA
        line = single_error(capsys.readouterr(), "ValidationError")
        assert f"['fold1', 'fold2', '{bucket}'] are not fold1..fold3" in line
        assert not (tmp_path / "run" / "model.mcln").exists()

    @pytest.mark.parametrize("command", [["model", "describe"], ["train"]])
    @pytest.mark.parametrize("layers", ["6:2:9:1", "6:2:3:3"], ids=["wide-band", "overlap"])
    def test_mask_band_that_cannot_fit_is_config_error(
        self, workspace, tmp_path, capsys, monkeypatch, command, layers
    ):
        config = tmp_path / "config.ini"
        config.write_text(SMALL_INI.replace("layers = 6:2:3:1, 6:2:3:1", f"layers = {layers}"))
        loaded = []
        monkeypatch.setattr(mclnn.features, "load_features", lambda path: loaded.append(path))
        argv = [*command, "--config", str(config)]
        if command == ["train"]:
            argv += ["--features", str(workspace / "features"),
                     "--plan", str(workspace / "plan.txt"), "--out", str(tmp_path / "run")]
        assert main(argv) == EXIT_CONFIG
        line = single_error(capsys.readouterr(), "ConfigError")
        assert line.startswith("error: ConfigError: [model] layer 0: ")
        assert loaded == []

    def test_model_file_with_a_mask_band_that_cannot_fit_is_io_error(
        self, workspace, tmp_path, capsys
    ):
        model = tmp_path / "model.mcln"
        model.write_bytes((workspace / "run" / "model.mcln").read_bytes())
        rewrite_model_header(model, lambda h: h["spec"]["layers"][1].update(bandwidth=9))
        rc = main(["predict", "--model", str(model),
                   str(workspace / "features" / "drums__clip5.mclf")])
        assert rc == EXIT_IO
        line = single_error(capsys.readouterr(), "HeaderMismatchError")
        assert "layer 1: bandwidth must satisfy" in line

    def test_eval_on_fold_plan_names_the_plan_buckets(self, workspace, tmp_path, capsys):
        fold_plan = tmp_path / "folds.txt"
        assert main(["dataset", "plan", "--manifest",
                     str(workspace / "features" / "manifest.tsv"),
                     "--folds", "3", "--seed", "5", "--out", str(fold_plan)]) == EXIT_OK
        capsys.readouterr()
        argv = ["eval", "--model", str(workspace / "run" / "model.mcln"),
                "--plan", str(fold_plan), "--features", str(workspace / "features")]
        assert main(argv) == EXIT_DATA
        line = single_error(capsys.readouterr(), "ValidationError")
        assert line.endswith("plan has no clips in bucket 'test'; "
                             "the plan's buckets are fold1, fold2, fold3 (pass --bucket)")
        assert main(argv + ["--bucket", "fold1"]) == EXIT_OK

    def _eval_with_one_other_file(self, workspace, tmp_path, change):
        """eval on a copy of the features where ``change`` rewrote a train clip's bytes."""
        featdir = self._features_with(workspace, tmp_path)
        other = featdir / "drums__clip0.mclf"
        assert SplitPlan.load(workspace / "plan.txt").bucket("drums__clip0") != "test"
        other.write_bytes(change(other.read_bytes()))
        return main(["eval", "--model", str(workspace / "run" / "model.mcln"),
                     "--plan", str(workspace / "plan.txt"), "--features", str(featdir)])

    def test_eval_loads_only_its_bucket_payloads(self, workspace, tmp_path, capsys):
        nan = np.array([np.nan]).tobytes()
        assert self._eval_with_one_other_file(workspace, tmp_path,
                                              lambda blob: blob[:-8] + nan) == EXIT_OK
        assert main(["eval", "--model", str(workspace / "run" / "model.mcln"),
                     "--plan", str(workspace / "plan.txt"),
                     "--features", str(workspace / "features")]) == EXIT_OK
        with_nan, clean = capsys.readouterr().out.split("clips:")[1:]
        assert with_nan == clean

    @pytest.mark.parametrize("change, error", [
        (lambda blob: blob[:-1], "TruncatedFileError"),
        (lambda blob: blob + bytes(8), "HeaderMismatchError"),
    ])
    def test_eval_checks_every_file_size(self, workspace, tmp_path, capsys, change, error):
        assert self._eval_with_one_other_file(workspace, tmp_path, change) == EXIT_IO
        assert "drums__clip0.mclf" in single_error(capsys.readouterr(), error)


class TestConfigHandling:
    def test_unknown_section_rejected(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[mystery]\nx = 1\n")
        assert main(["model", "describe", "--config", str(config)]) == EXIT_CONFIG

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[training]\nlearning_rat = 0.1\n")
        assert main(["model", "describe", "--config", str(config)]) == EXIT_CONFIG
        assert "learning_rat" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["model", "describe", "--config", str(tmp_path / "no.ini")]) == EXIT_CONFIG

    def test_config_that_is_a_directory(self, tmp_path, capsys):
        assert main(["model", "describe", "--config", str(tmp_path)]) == EXIT_CONFIG
        assert "is not a file" in single_error(capsys.readouterr(), "ConfigError")

    def test_incomplete_model_section(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[model]\nfeature_length = 8\n")
        assert main(["model", "describe", "--config", str(config)]) == EXIT_CONFIG

    def test_flag_overrides_config(self, tmp_path, capsys):
        config = tmp_path / "config.ini"
        config.write_text(SMALL_INI)
        assert main(["model", "describe", "--config", str(config)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "segment_size: 11" in out
        assert "frame_plan: [11, 7, 3]" in out

    @pytest.mark.parametrize("artifact", ["features", "run"])
    def test_resolved_ini_is_a_valid_config(self, workspace, artifact):
        path = workspace / artifact / "resolved.ini"
        text = path.read_text()
        recorded = configparser.ConfigParser(interpolation=None)
        recorded.read_string(text)
        config = load_experiment_config(argparse.Namespace(config=str(path)))
        assert config.to_ini(dict(recorded["paths"])) == text

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme[readme.index("### Configuration files"):]
        example = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
        config = tmp_path / "readme.ini"
        config.write_text(example)
        loaded = load_experiment_config(argparse.Namespace(config=str(config)))
        assert loaded.features == FeatureParams()
        assert loaded.model_spec == PRESETS["table3"]
        assert loaded.training == TrainConfig()
        assert main(["model", "describe", "--config", str(config)]) == EXIT_OK

    @pytest.mark.parametrize("text", [
        "[features]\nrate =\n",
        "[training]\nepochs =\n",
        SMALL_INI.replace("dense_width = 5", "dense_width ="),
    ], ids=["features-rate", "training-epochs", "model-dense-width"])
    def test_empty_value_is_config_error(self, tmp_path, capsys, text):
        config = tmp_path / "empty.ini"
        config.write_text(text)
        assert main(["model", "describe", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
        assert "is empty" in err

    def test_percent_in_value_is_read_as_itself(self, tmp_path, capsys):
        config = tmp_path / "percent.ini"
        config.write_text("[training]\noptimizer = mom%entum\n")
        assert main(["model", "describe", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "got 'mom%entum'" in err

    def test_empty_training_hop_means_segment_size(self, tmp_path):
        config = tmp_path / "hop.ini"
        config.write_text("[training]\nhop =\n")
        assert load_experiment_config(argparse.Namespace(config=str(config))).training.hop is None

    def test_paths_key_no_command_writes_is_rejected(self, tmp_path, capsys):
        config = tmp_path / "paths.ini"
        config.write_text("[paths]\nmodel = m.mcln\n")
        assert main(["model", "describe", "--config", str(config)]) == EXIT_CONFIG
        assert "unknown keys in [paths]: ['model']" in capsys.readouterr().err

    def test_parse_layers(self):
        assert parse_layers("6:2") == (LayerSpec(width=6, order=2),)
        assert parse_layers("6:2:3:1, 4:1:2:0") == (
            LayerSpec(width=6, order=2, bandwidth=3, overlap=1),
            LayerSpec(width=4, order=1, bandwidth=2, overlap=0),
        )
        with pytest.raises(ConfigError):
            parse_layers("6:2:3")
        with pytest.raises(ConfigError):
            parse_layers("six:two")
        with pytest.raises(ConfigError):
            parse_layers("")


class TestUsageAndGradcheck:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "subcommand" in capsys.readouterr().out or True

    def test_gradcheck_default_model_passes(self, capsys):
        assert main(["gradcheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("PASS tolerance=")
        assert "\nmax\t" in out
        assert "clnn0.weights" in out

    def test_gradcheck_reports_failure_with_exit_one(self, capsys, monkeypatch):
        true_backward = mclnn.training.backward

        def flipped(tape, loss_gradient):
            return {k: -v for k, v in true_backward(tape, loss_gradient).items()}

        monkeypatch.setattr(mclnn.training, "backward", flipped)
        assert main(["gradcheck"]) == EXIT_GRADCHECK_FAILED
        assert capsys.readouterr().out.startswith("FAIL")

    @pytest.mark.parametrize("tolerance", ["inf", "nan", "0", "-1"])
    def test_gradcheck_tolerance_outside_zero_to_inf_is_data_error(self, capsys, tolerance):
        assert main(["gradcheck", "--tolerance", tolerance]) == EXIT_DATA
        line = single_error(capsys.readouterr(), "ValidationError")
        assert "tolerance must be positive and finite" in line

    @pytest.mark.parametrize("command", [["model", "describe", "--preset", "table3"],
                                         ["gradcheck"]])
    def test_negative_seed_is_config_error(self, capsys, command):
        assert main(command + ["--seed", "-1"]) == EXIT_CONFIG
        line = single_error(capsys.readouterr(), "ConfigError")
        assert line.endswith("[training] seed must be >= 0, got -1")


# fields whose INI key (and so flag) is not the field name
RENAMED_KEYS = {"sample_rate": "rate", "fft_size": "fft"}


def flag(name: str) -> str:
    return "--" + RENAMED_KEYS.get(name, name).replace("_", "-")


def flags(values: dict) -> list[str]:
    return [arg for name, value in values.items() for arg in (flag(name), str(value))]


class TestConfigFlags:
    """Each [features] and [training] field has a flag named after its INI key."""

    # a non-default value for every field
    FEATURES = {"sample_rate": 2000, "fft_size": 64, "hop": 32, "mel_bins": 8,
                "chunk_seconds": 0.5}
    TRAINING = {"learning_rate": 0.03, "batch_size": 3, "epochs": 2, "seed": 5,
                "patience": 4, "hop": 4, "optimizer": "sgd", "momentum": 0.5}

    @pytest.mark.parametrize("cls, values", [(FeatureParams, FEATURES), (TrainConfig, TRAINING)])
    def test_values_cover_every_field_and_differ_from_the_defaults(self, cls, values):
        assert list(values) == [f.name for f in fields(cls)]
        assert all(values[f.name] != f.default for f in fields(cls))

    def _assert_resolved(self, path, section, values):
        resolved = configparser.ConfigParser(interpolation=None)
        resolved.read(path)
        for name, value in values.items():
            assert resolved[section][RENAMED_KEYS.get(name, name)] == str(value)

    def test_every_feature_field_through_its_extract_flag(self, tmp_path):
        audio = tmp_path / "audio"
        synth_audio_tree(audio, np.random.default_rng(12), clips_per_class=1)
        argv = ["features", "extract", "--in", str(audio), "--out", str(tmp_path / "f")]
        argv += flags(self.FEATURES)
        config = load_experiment_config(build_parser().parse_args(argv))
        assert config.features == FeatureParams(**self.FEATURES)
        assert config.training == TrainConfig()
        assert main(argv) == EXIT_OK
        self._assert_resolved(tmp_path / "f" / "resolved.ini", "features", self.FEATURES)
        assert load_features(tmp_path / "f" / "drums__clip0.mclf").feature_length == 8

    def test_every_training_field_through_its_train_flag(self, workspace, tmp_path):
        config_path = tmp_path / "config.ini"
        config_path.write_text(SMALL_INI)
        out = tmp_path / "run"
        argv = ["train", "--config", str(config_path), "--features", str(workspace / "features"),
                "--plan", str(workspace / "plan.txt"), "--out", str(out)]
        argv += flags(self.TRAINING)
        config = load_experiment_config(build_parser().parse_args(argv))
        assert config.training == TrainConfig(**self.TRAINING)
        assert config.features == FeatureParams()
        assert main(argv) == EXIT_OK
        self._assert_resolved(out / "resolved.ini", "training", self.TRAINING)
        report = (out / "report.txt").read_text()
        assert all(f"\n{name} = {value!r}\n" in report for name, value in self.TRAINING.items())

    @pytest.mark.parametrize("command", [["model", "describe"], ["gradcheck"]])
    def test_describe_and_gradcheck_take_seed_and_no_other_training_flag(self, command, capsys):
        config = load_experiment_config(build_parser().parse_args(command + ["--seed", "3"]))
        assert config.training == TrainConfig(seed=3)
        for name, value in self.TRAINING.items():
            if name != "seed":
                assert main(command + ["--preset", "table3", flag(name), str(value)]) == EXIT_USAGE
                assert f"unrecognized arguments: {flag(name)}" in capsys.readouterr().err

    def test_extract_takes_no_training_flag_and_train_no_feature_flag(self, capsys):
        assert main(["features", "extract", "--in", "x", "--epochs", "2"]) == EXIT_USAGE
        assert main(["train", "--features", "f", "--plan", "p", "--mel-bins", "8"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("extra, code", [
        (["--optimizer", "adam"], EXIT_USAGE),
        (["--epochs", "x"], EXIT_USAGE),
        (["--learning-rate", "fast"], EXIT_USAGE),
        (["--batch-size", "0"], EXIT_CONFIG),
    ])
    def test_train_flag_exit_codes(self, workspace, tmp_path, capsys, extra, code):
        rc = main(["train", "--preset", "table3", "--features", str(workspace / "features"),
                   "--plan", str(workspace / "plan.txt"), "--out", str(tmp_path / "run")] + extra)
        assert rc == code
        err = capsys.readouterr().err
        if code == EXIT_CONFIG:
            assert err.splitlines() == [
                "error: ConfigError: [training] batch_size, epochs, and patience must all be >= 1"
            ]
        assert not (tmp_path / "run" / "model.mcln").exists()

    @pytest.mark.parametrize("source", ["flag", "ini"])
    def test_train_negative_seed_is_config_error(self, workspace, tmp_path, capsys, source):
        config = tmp_path / "config.ini"
        config.write_text(SMALL_INI.replace("seed = 7", "seed = -1"))
        extra = ["--seed", "-1"] if source == "flag" else []
        rc = main(["train", "--config", str(config), "--features", str(workspace / "features"),
                   "--plan", str(workspace / "plan.txt"), "--out", str(tmp_path / "run")] + extra)
        assert rc == EXIT_CONFIG
        line = single_error(capsys.readouterr(), "ConfigError")
        assert line.endswith("[training] seed must be >= 0, got -1")
        assert not (tmp_path / "run" / "model.mcln").exists()

    @pytest.mark.parametrize("mode", ["folds", "fixed"])
    def test_dataset_plan_negative_seed_is_data_error(self, workspace, tmp_path, capsys, mode):
        manifest = ["--manifest", str(workspace / "features" / "manifest.tsv")]
        if mode == "folds":
            extra = ["--folds", "2"]
        else:
            extra = ["--train-list", str(workspace / "train.txt"),
                     "--test-list", str(workspace / "test.txt"), "--validation-fraction", "0.25"]
        out = tmp_path / "plan.txt"
        rc = main(["dataset", "plan", *manifest, *extra, "--seed", "-1", "--out", str(out)])
        assert rc == EXIT_DATA
        line = single_error(capsys.readouterr(), "ValidationError")
        assert line.endswith("seed must be >= 0, got -1")
        assert not out.exists()


def npz_bytes(**arrays) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def wav_bytes(frames=50) -> bytes:
    buf = io.BytesIO()
    with wave.open(buf, "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(2000)
        handle.writeframes(np.zeros(frames, dtype=np.int16).tobytes())
    return buf.getvalue()


def single_error(captured, name: str) -> str:
    """The one stderr line, which must name ``name``; stdout must be empty."""
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {name}: "), captured.err
    return lines[0]


class TestUndecodableInputs:
    """A file that cannot be decoded exits 4 (3 for --config), with one error line."""

    @pytest.mark.parametrize("name, content, code, error", [
        ("clip.wav", lambda: b"RIFF\x08\x00\x00\x00WAVEjunk", EXIT_IO, "FileFormatError"),
        ("clip.wav", lambda: b"", EXIT_IO, "FileFormatError"),
        ("clip.wav", lambda: wav_bytes()[:-1], EXIT_IO, "TruncatedFileError"),
        ("clip.npz", lambda: b"not a zip archive", EXIT_IO, "FileFormatError"),
        ("clip.npz", lambda: npz_bytes(samples=np.zeros(50), rate=2000)[:200], EXIT_IO,
         "FileFormatError"),
        ("clip.npz", lambda: npz_bytes(samples=np.zeros(50), rate=np.array([2000, 2000])),
         EXIT_DATA, "ValidationError"),
        ("clip.npz", lambda: npz_bytes(samples=np.zeros(50), rate=2000.5), EXIT_DATA,
         "ValidationError"),
        ("clip.npz", lambda: npz_bytes(samples=np.zeros(50), rate="fast"), EXIT_DATA,
         "ValidationError"),
    ], ids=["wav-no-chunks", "wav-empty", "wav-partial-frame", "npz-not-zip", "npz-truncated",
            "npz-rate-vector", "npz-rate-fraction", "npz-rate-text"])
    def test_audio(self, tmp_path, capsys, name, content, code, error):
        class_dir = tmp_path / "audio" / "drums"
        class_dir.mkdir(parents=True)
        (class_dir / name).write_bytes(content())
        rc = main(["features", "extract", "--in", str(tmp_path / "audio"),
                   "--out", str(tmp_path / "f")])
        assert rc == code
        line = single_error(capsys.readouterr(), error)
        assert name in line
        if error == "ValidationError":
            assert "'rate' must be one positive integer" in line

    @pytest.mark.parametrize("content, code, error, words", [
        (lambda: b".snd", EXIT_IO, "FileFormatError", "is not a readable .au file"),
        (lambda: au_bytes(bytes(100), size=200), EXIT_IO, "TruncatedFileError", "declares 200"),
        (lambda: au_bytes(bytes(101)), EXIT_IO, "TruncatedFileError", "ends inside a frame"),
        (lambda: au_bytes(bytes(100), encoding=1), EXIT_DATA, "ValidationError",
         "unsupported .au encoding 1"),
    ], ids=["au-no-header", "au-short-data", "au-partial-frame", "au-mu-law"])
    def test_au(self, tmp_path, capsys, content, code, error, words):
        class_dir = tmp_path / "audio" / "drums"
        class_dir.mkdir(parents=True)
        (class_dir / "clip.au").write_bytes(content())
        rc = main(["features", "extract", "--in", str(tmp_path / "audio"),
                   "--out", str(tmp_path / "f")])
        assert rc == code
        line = single_error(capsys.readouterr(), error)
        assert "clip.au" in line and words in line

    def test_failed_extract_leaves_no_feature_files(self, tmp_path, capsys):
        class_dir = tmp_path / "audio" / "drums"
        class_dir.mkdir(parents=True)
        (class_dir / "clip0.npz").write_bytes(npz_bytes(samples=np.zeros(1200), rate=2000))
        (class_dir / "clip1.npz").write_bytes(b"not a zip archive")
        out = tmp_path / "f"
        rc = main(["features", "extract", "--in", str(tmp_path / "audio"), "--out", str(out)]
                  + EXTRACT_FLAGS)
        assert rc == EXIT_IO
        assert "clip1.npz" in single_error(capsys.readouterr(), "FileFormatError")
        assert sorted(out.iterdir()) == []

    def _train(self, workspace, tmp_path, plan=None, classes=None):
        config = tmp_path / "config.ini"
        config.write_text(SMALL_INI)
        argv = ["train", "--config", str(config), "--features", str(workspace / "features"),
                "--plan", str(plan or workspace / "plan.txt"), "--out", str(tmp_path / "run")]
        return main(argv + (["--classes", str(classes)] if classes else []))

    def test_plan_via_train_and_eval(self, workspace, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_bytes((workspace / "plan.txt").read_bytes() + b"caf\xe9\ttest\n")
        assert self._train(workspace, tmp_path, plan=plan) == EXIT_IO
        assert "is not UTF-8 text" in single_error(capsys.readouterr(), "FileFormatError")
        rc = main(["eval", "--model", str(workspace / "run" / "model.mcln"), "--plan", str(plan),
                   "--features", str(workspace / "features")])
        assert rc == EXIT_IO
        single_error(capsys.readouterr(), "FileFormatError")

    def test_plan_with_bad_seed_line_is_data_error(self, workspace, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        rows = (workspace / "plan.txt").read_text().splitlines()[1:]
        plan.write_text("\n".join(["# seed=abc"] + rows) + "\n")
        assert self._train(workspace, tmp_path, plan=plan) == EXIT_DATA
        line = single_error(capsys.readouterr(), "ValidationError")
        assert line.endswith(f"{plan}:1: bad seed 'abc'")

    def test_classes_via_train(self, workspace, tmp_path, capsys):
        classes = tmp_path / "classes.txt"
        classes.write_bytes(b"drums\nfl\xfbte\n")
        assert self._train(workspace, tmp_path, classes=classes) == EXIT_IO
        single_error(capsys.readouterr(), "FileFormatError")
        assert not (tmp_path / "run" / "model.mcln").exists()

    def test_manifest_via_dataset_plan(self, workspace, tmp_path, capsys):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_bytes((workspace / "features" / "manifest.tsv").read_bytes() + b"\xff\n")
        rc = main(["dataset", "plan", "--manifest", str(manifest), "--out", str(tmp_path / "p")])
        assert rc == EXIT_IO
        single_error(capsys.readouterr(), "FileFormatError")

    @pytest.mark.parametrize("bad", ["train", "test"])
    def test_id_lists_via_dataset_plan(self, workspace, tmp_path, capsys, bad):
        lists = {}
        for role in ("train", "test"):
            lists[role] = tmp_path / f"{role}.txt"
            data = (workspace / f"{role}.txt").read_bytes()
            lists[role].write_bytes(data + (b"\x80\n" if role == bad else b""))
        rc = main(["dataset", "plan", "--train-list", str(lists["train"]),
                   "--test-list", str(lists["test"]), "--out", str(tmp_path / "p.txt")])
        assert rc == EXIT_IO
        assert f"{bad}.txt is not UTF-8 text" in single_error(capsys.readouterr(), "FileFormatError")
        assert not (tmp_path / "p.txt").exists()

    def test_config_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "config.ini"
        config.write_bytes(SMALL_INI.encode() + b"; na\xefve comment\n")
        assert main(["model", "describe", "--config", str(config)]) == EXIT_CONFIG
        assert "is not UTF-8 text" in single_error(capsys.readouterr(), "ConfigError")


class TestEvalPredictAgainstLibrary:
    """eval and predict print what evaluate and predict_clip return."""

    HOP = 4  # below q = 11, so segments overlap

    # with-stats: the library gets copies normalized under the model's
    # statistics; raw-with-stats: the raw clips, which the model normalizes
    @pytest.fixture(params=["with-stats", "without-stats", "raw-with-stats"])
    def model_path(self, request, workspace, tmp_path):
        """An untrained model: its probabilities are far from 0 and 1, so they show the hop."""
        trained = load_model(workspace / "run" / "model.mcln")
        model = build_model(trained.spec, seed=2, labels=trained.labels)
        if request.param != "without-stats":
            model.norm_stats = trained.norm_stats
        self.raw_clips = request.param != "with-stats"
        path = tmp_path / "model.mcln"
        save_model(model, path)
        return path

    def _prepared(self, model, fm):
        return fm if self.raw_clips else apply_zscore(fm, model.norm_stats)

    @pytest.mark.parametrize("hop", [None, HOP])
    def test_eval(self, workspace, model_path, capsys, hop):
        model = load_model(model_path)
        q = segment_size(model.spec)
        clips = SplitPlan.load(workspace / "plan.txt").clips_in("test")
        fms = [self._prepared(model, load_features(workspace / "features" / f"{c}.mclf"))
               for c in clips]
        before = [fm.frames.tobytes() for fm in fms]
        result = evaluate(model, {fm.clip_id: segment_clip(fm, q, hop or q) for fm in fms},
                          {fm.clip_id: fm.label for fm in fms})
        assert [fm.frames.tobytes() for fm in fms] == before
        argv = ["eval", "--model", str(model_path), "--plan", str(workspace / "plan.txt"),
                "--features", str(workspace / "features")]
        assert main(argv + (["--hop", str(hop)] if hop else [])) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            f"clips: {len(clips)}  accuracy: {result.clip_accuracy:.4f}",
            *confusion_lines(result.confusion, model.labels),
        ]

    @pytest.mark.parametrize("hop", [None, HOP])
    def test_predict(self, workspace, model_path, capsys, hop):
        model = load_model(model_path)
        q = segment_size(model.spec)
        paths = [workspace / "features" / name for name in ("drums__clip5.mclf", "flute__clip4.mclf")]
        expected = []
        for path in paths:
            fm = self._prepared(model, load_features(path))
            before = fm.frames.tobytes()
            predicted, probs = predict_clip(model, segment_clip(fm, q, hop or q))
            assert fm.frames.tobytes() == before
            text = " ".join(f"{p:.4f}" for p in probs)
            expected.append(f"{fm.clip_id}\t{model.labels[predicted]}\t{text}")
        argv = ["predict", "--model", str(model_path)] + (["--hop", str(hop)] if hop else [])
        assert main(argv + [str(p) for p in paths]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == expected

    def test_predict_unlabeled_and_short_clips(self, workspace, model_path, tmp_path, capsys):
        model = load_model(model_path)
        q = segment_size(model.spec)
        labeled = load_features(workspace / "features" / "drums__clip5.mclf")
        unlabeled = tmp_path / "mystery.mclf"
        save_features(FeatureMatrix(frames=labeled.frames, clip_id="mystery"), unlabeled)
        short = tmp_path / "short.mclf"  # no clip id: the file name stands in
        save_features(FeatureMatrix(frames=labeled.frames[: q - 1]), short)
        predicted, probs = predict_clip(
            model, segment_clip(self._prepared(model, labeled), q, self.HOP)
        )
        rc = main(["predict", "--model", str(model_path), "--hop", str(self.HOP),
                   str(unlabeled), str(short)])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            f"mystery\t{model.labels[predicted]}\t" + " ".join(f"{p:.4f}" for p in probs),
            "short.mclf\t<too short>\t-",
        ]


class TestReadmeConfiguration:
    def _example(self) -> str:
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme[readme.index("### Configuration files"):]
        return re.search(r"```ini\n(.*?)```", section, re.S).group(1)

    def test_example_is_the_defaults_and_table3(self, tmp_path):
        config = tmp_path / "readme.ini"
        config.write_text(self._example())
        expected = ExperimentConfig(FeatureParams(), PRESETS["table3"], TrainConfig())
        assert load_experiment_config(argparse.Namespace(config=str(config))) == expected
        # every key is spelled out, as resolved.ini spells it
        documented = configparser.ConfigParser(interpolation=None)
        documented.read_string(self._example())
        resolved = configparser.ConfigParser(interpolation=None)
        resolved.read_string(expected.to_ini())
        assert {s: dict(documented[s]) for s in documented.sections()} == {
            s: dict(resolved[s]) for s in resolved.sections()
        }


# ---------------------------------------------------------------------------
# header contract: every field the writers write is checked on read
# ---------------------------------------------------------------------------

# a JSON value of each type a header field could be given
_JSON_VALUES = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(),
    float: st.floats(),
    str: st.text(max_size=4),
    list: st.lists(st.integers() | st.text(max_size=2), max_size=3),
    dict: st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
}
# the JSON types the reader accepts per declared type; the layers are a list
_ACCEPTED = {**container._HEADER_TYPES, "tuple[LayerSpec, ...]": (list,)}


def _typed_header_fields() -> list[tuple[str, tuple, str]]:
    """(file, path to the field in its header, declared type), from the writers' tables."""
    model = (
        [(("spec", f.name), f.type) for f in fields(mclnn.model.ModelSpec)]
        + [(("spec", "layers", i, f.name), f.type) for i in (0, 1) for f in fields(LayerSpec)]
        + [((name,), kind) for name, kind in mclnn.model._MODEL_HEADER.items()]
        + [(("norm", name), kind) for name, kind in mclnn.model._NORM_HEADER.items()]
    )
    feature = [((name,), kind) for name, kind in mclnn.features._FEATURE_HEADER.items()]
    return [("model", *f) for f in model] + [("features", *f) for f in feature]


def _mutations(kind: str):
    """``()`` drops the field; ``(value,)`` sets a JSON value of a type ``kind`` does not accept."""
    other = [t for t in _JSON_VALUES if t not in _ACCEPTED[kind]]
    return st.just(()) | st.sampled_from(other).flatmap(_JSON_VALUES.get).map(lambda v: (v,))


# every field of every table, each dropped once (the first example) and set
# to one value of another type
@pytest.mark.parametrize("which, path, kind", _typed_header_fields(),
                         ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None)
@settings(derandomize=True, max_examples=2, deadline=None)
@given(data=st.data())
def test_missing_or_mistyped_header_field_exits_4_with_one_error_line(
    workspace, which, path, kind, data
):
    mutation = data.draw(_mutations(kind), label="mutation")

    def edit(header):
        *parents, name = path
        for key in parents:
            header = header[key]
        if mutation:
            header[name] = mutation[0]
        else:
            del header[name]

    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.mcln"
        features = Path(tmp) / "drums__clip5.mclf"
        model.write_bytes((workspace / "run" / "model.mcln").read_bytes())
        features.write_bytes((workspace / "features" / "drums__clip5.mclf").read_bytes())
        if which == "model":
            rewrite_model_header(model, edit)
        else:
            rewrite_feature_header(features, edit)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["predict", "--model", str(model), str(features)])
    assert rc == EXIT_IO, err.getvalue()
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize("plan_kind", ["folds", "fixed"])
def test_run_experiment_gives_the_train_command_bytes(workspace, tmp_path, plan_kind):
    """The library runner on loaded clips writes what ``mclnn train`` writes."""
    config = tmp_path / "config.ini"
    config.write_text(SMALL_INI)
    featdir = workspace / "features"
    if plan_kind == "folds":
        plan_path = tmp_path / "folds.txt"
        assert main(["dataset", "plan", "--manifest", str(featdir / "manifest.tsv"),
                     "--folds", "3", "--seed", "5", "--out", str(plan_path)]) == EXIT_OK
        fold_flags, folds = ["--test-fold", "2"], {"test_fold": 2}
    else:
        # four train clips per class, one of them carved out for validation
        plan_path = workspace / "plan.txt"
        fold_flags, folds = [], {}
    rundir = tmp_path / "run"
    assert main(["train", "--config", str(config), "--epochs", "3", "--features", str(featdir),
                 "--plan", str(plan_path), "--out", str(rundir),
                 "--classes", str(featdir / "classes.txt"), *fold_flags]) == EXIT_OK

    spec = mclnn.model.ModelSpec(
        feature_length=8, layers=parse_layers("6:2:3:1, 6:2:3:1"),
        extra_frames=3, dense_width=5, class_count=2,
    )
    training = TrainConfig(learning_rate=0.05, batch_size=4, epochs=3, seed=7, patience=25)
    features = [load_features(path) for path in sorted(featdir.glob("*.mclf"))]
    model, report = run_experiment(
        features, SplitPlan.load(plan_path), spec, training, ("drums", "flute"), **folds
    )
    assert report.epochs[0].validation_loss is not None and report.confusion.sum() == 4
    save_model(model, tmp_path / "library.mcln")
    assert (tmp_path / "library.mcln").read_bytes() == (rundir / "model.mcln").read_bytes()
    written = (rundir / "report.txt").read_text().splitlines()
    assert report.deterministic_text().splitlines() == [
        line for line in written if not line.startswith("wall_clock_seconds")
    ]


def _clip_state(features):
    """What a run must leave as it was: every clip's frames and fields."""
    return [(fm.frames.tobytes(), fm.clip_id, fm.label, fm.split, fm.normalized, fm.norm_id,
             fm.meta) for fm in features]


def test_runs_on_one_loaded_list_match_train_and_leave_the_clips_alone(workspace, tmp_path):
    """Fold 1, fold 2 and fold 1 again on one list: each model file is
    ``mclnn train``'s, and no run changes a clip."""
    featdir = workspace / "features"
    plan_path = tmp_path / "folds.txt"
    assert main(["dataset", "plan", "--manifest", str(featdir / "manifest.tsv"), "--folds", "3",
                 "--out", str(plan_path)]) == EXIT_OK
    config = load_experiment_config(argparse.Namespace(config=str(workspace / "config.ini")))
    training = replace(config.training, epochs=3)
    expected = {}
    for fold in (1, 2):
        out = tmp_path / f"cli{fold}"
        assert main(["train", "--config", str(workspace / "config.ini"), "--epochs", "3",
                     "--features", str(featdir), "--plan", str(plan_path), "--out", str(out),
                     "--classes", str(featdir / "classes.txt"),
                     "--test-fold", str(fold)]) == EXIT_OK
        expected[fold] = ((out / "model.mcln").read_bytes(),
                          (out / "report.txt").read_text().split("wall_clock_seconds")[0])
    features = [load_features(path) for path in sorted(featdir.glob("*.mclf"))]
    before = _clip_state(features)
    plan = SplitPlan.load(plan_path)
    for fold in (1, 2, 1):
        model, report = run_experiment(features, plan, config.model_spec, training,
                                       ("drums", "flute"), test_fold=fold)
        save_model(model, tmp_path / "model.mcln")
        assert (tmp_path / "model.mcln").read_bytes() == expected[fold][0]
        assert report.to_text().split("wall_clock_seconds")[0] == expected[fold][1]
        assert _clip_state(features) == before


def test_held_out_clips_normalized_under_the_run_statistics_give_the_raw_run(workspace, tmp_path):
    """A validation batch of raw and normalized segments, and a normalized
    test clip, give the bytes of the run on raw clips."""
    features = [load_features(path) for path in sorted((workspace / "features").glob("*.mclf"))]
    plan = SplitPlan.load(workspace / "plan.txt")
    config = load_experiment_config(argparse.Namespace(config=str(workspace / "config.ini")))
    training = replace(config.training, epochs=3)
    raw_model, raw_report = run_experiment(features, plan, config.model_spec, training,
                                           ("drums", "flute"))
    save_model(raw_model, tmp_path / "raw.mcln")
    stats = raw_model.norm_stats
    held_out = {bucket: [i for i, fm in enumerate(features) if plan.bucket(fm.clip_id) == bucket]
                for bucket in ("validation", "test")}
    # two segments a clip at q = 11 and batches of 4: the first validation
    # batch holds the first two validation clips, one of them normalized
    assert len(held_out["validation"]) >= 2 and training.batch_size == 4
    for i in (held_out["validation"][0], held_out["test"][0]):
        features[i] = apply_zscore(features[i], stats)
    model, report = run_experiment(features, plan, config.model_spec, training,
                                   ("drums", "flute"))
    save_model(model, tmp_path / "mixed.mcln")
    assert (tmp_path / "mixed.mcln").read_bytes() == (tmp_path / "raw.mcln").read_bytes()
    assert report.deterministic_text() == raw_report.deterministic_text()


def test_stale_split_tags_in_the_files_do_not_change_the_run(workspace, tmp_path):
    """The plan gives the roles: files tagged with other roles train the model untagged files do."""
    featdir = tmp_path / "tagged"
    featdir.mkdir()
    plan = SplitPlan.load(workspace / "plan.txt")
    stale = {"train": "test", "validation": "train", "test": "validation"}
    for path in sorted((workspace / "features").glob("*.mclf")):
        fm = load_features(path)
        assert fm.split is None
        fm.split = stale[plan.bucket(fm.clip_id)]
        save_features(fm, featdir / path.name)
    out = tmp_path / "run"
    assert main(["train", "--config", str(workspace / "config.ini"), "--features", str(featdir),
                 "--plan", str(workspace / "plan.txt"), "--out", str(out),
                 "--classes", str(workspace / "features" / "classes.txt")]) == EXIT_OK
    assert (out / "model.mcln").read_bytes() == (workspace / "run" / "model.mcln").read_bytes()
    assert load_model(out / "model.mcln").norm_stats.source_split == "train"


def test_run_experiment_rejecting_a_held_out_clip_changes_no_frame(workspace):
    spec = mclnn.model.ModelSpec(
        feature_length=8, layers=parse_layers("6:2:3:1, 6:2:3:1"),
        extra_frames=3, dense_width=5, class_count=2,
    )
    features = [load_features(path) for path in sorted((workspace / "features").glob("*.mclf"))]
    plan = SplitPlan.load(workspace / "plan.txt")
    # the last clip loaded is a test clip, normalized under statistics of its own
    assert plan.bucket(features[-1].clip_id) == "test"
    other = NormStats(mean=np.zeros(8), std=np.full(8, 2.0), source_split="train",
                      stats_id="other0000000")
    features[-1] = apply_zscore(features[-1], other)
    before = _clip_state(features)
    with pytest.raises(ValidationError, match="'other0000000', not "):
        run_experiment(features, plan, spec, TrainConfig(batch_size=4, epochs=1),
                       ("drums", "flute"))
    assert _clip_state(features) == before


@pytest.mark.parametrize("case", ["repeated-labels", "label-out-of-range", "clip-twice"])
def test_run_experiment_rejected_before_training_changes_no_frame(workspace, monkeypatch, case):
    spec = mclnn.model.ModelSpec(
        feature_length=8, layers=parse_layers("6:2:3:1, 6:2:3:1"),
        extra_frames=3, dense_width=5, class_count=2,
    )
    features = [load_features(path) for path in sorted((workspace / "features").glob("*.mclf"))]
    labels, match = ("drums", "flute"), None
    if case == "repeated-labels":
        labels, match = ("drums", "drums"), "class labels \\['drums'\\] name more than one class"
    elif case == "label-out-of-range":
        features[0].label, match = 2, "label 2 is not a class id in \\[0, 2\\)"
    else:
        features.append(load_features(workspace / "features" / "drums__clip0.mclf"))
        match = "feature clips \\['drums__clip0'\\] are given more than once"
    before = [fm.frames.tobytes() for fm in features]
    monkeypatch.setattr(mclnn.training, "train", lambda *args: pytest.fail("train was called"))
    with pytest.raises(ValidationError, match=match):
        run_experiment(features, SplitPlan.load(workspace / "plan.txt"), spec,
                       TrainConfig(batch_size=4, epochs=1), labels)
    assert [fm.frames.tobytes() for fm in features] == before
    assert not any(fm.normalized for fm in features)


@pytest.mark.parametrize("case", ["repeated-labels", "normalized-training-clip"])
def test_run_experiment_rejected_before_tagging_leaves_every_split(workspace, monkeypatch, case):
    features = [load_features(path) for path in sorted((workspace / "features").glob("*.mclf"))]
    plan = SplitPlan.load(workspace / "plan.txt")
    spec = mclnn.model.ModelSpec(
        feature_length=8, layers=parse_layers("6:2:3:1, 6:2:3:1"),
        extra_frames=3, dense_width=5, class_count=10,
    )
    labels, match = ("a",) * 10, "class labels \\['a'\\] name more than one class"
    if case == "normalized-training-clip":
        labels, match = tuple("abcdefghij"), "may only be fitted on raw frames"
        [trained] = [i for i, fm in enumerate(features) if plan.bucket(fm.clip_id) == "train"][:1]
        other = NormStats(mean=np.zeros(8), std=np.full(8, 2.0), source_split="train",
                          stats_id="other0000000")
        features[trained] = apply_zscore(features[trained], other)
    splits = [fm.split for fm in features]
    frames = [fm.frames.tobytes() for fm in features]
    monkeypatch.setattr(mclnn.training, "train", lambda *args: pytest.fail("train was called"))
    with pytest.raises(ValidationError, match=match):
        run_experiment(features, plan, spec, TrainConfig(batch_size=4, epochs=1), labels)
    assert [fm.split for fm in features] == splits
    assert [fm.frames.tobytes() for fm in features] == frames


def test_training_set_up_holds_the_frames_once(tmp_path, monkeypatch):
    """Load, fit, normalize and segment peak at <= 1.3x the feature bytes, up to ``train``."""
    spec = mclnn.model.ModelSpec(
        feature_length=64, layers=(LayerSpec(width=20, order=2, bandwidth=8, overlap=2),),
        extra_frames=4, dense_width=8, class_count=2,
    )
    rng = np.random.default_rng(13)
    featdir = tmp_path / "features"
    featdir.mkdir()
    feature_bytes, clips = 0, []
    for i in range(40):
        frames = rng.standard_normal((int(rng.integers(250, 350)), 64))
        save_features(FeatureMatrix(frames=frames, clip_id=f"c{i:02d}", label=i % 2),
                      featdir / f"c{i:02d}.mclf")
        feature_bytes += frames.nbytes
        clips.append((f"c{i:02d}", i % 2))
    del frames
    plan = mclnn.dataset.make_folds(clips, folds=10, seed=0)
    train = mclnn.training.train
    at_train = []

    def train_after_set_up(model, train_segments, *args):
        at_train.append((tracemalloc.get_traced_memory()[1], len(train_segments)))
        return train(model, train_segments, *args)

    monkeypatch.setattr(mclnn.training, "train", train_after_set_up)
    build_model(spec, 0)  # a process's first build imports parts of NumPy; not set-up memory
    tracemalloc.start()
    try:
        features = [load_features(path) for path in sorted(featdir.glob("*.mclf"))]
        _, report = run_experiment(features, plan, spec, TrainConfig(epochs=1), ("a", "b"),
                                   test_fold=1)
    finally:
        tracemalloc.stop()
    [(peak, train_segments)] = at_train
    assert train_segments and report.confusion.sum() == 4
    assert peak <= 1.3 * feature_bytes, peak / feature_bytes
