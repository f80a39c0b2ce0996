"""CLI surface: subcommands, exit codes, config handling, end-to-end runs."""

import argparse
import configparser
import re
from pathlib import Path

import numpy as np
import pytest

import mclnn.training
from mclnn.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_GRADCHECK_FAILED,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    load_experiment_config,
    main,
    parse_layers,
)
from mclnn.errors import ConfigError
from mclnn.features import FeatureParams, NormStats, apply_zscore, load_features, save_features
from mclnn.model import PRESETS, LayerSpec, load_model, save_model
from mclnn.training import TrainConfig

from conftest import dirty_masked_weight, rewrite_feature_header, rewrite_model_header


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
