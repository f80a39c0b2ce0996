"""The inputs and the comparison of ``tools/same_bits.py``; CI runs the whole sequence."""

import argparse
import dataclasses
import importlib.util
from pathlib import Path

import pytest

from mclnn.cli import load_experiment_config
from mclnn.model import PRESETS

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "same_bits.py"


def _load():
    spec = importlib.util.spec_from_file_location("same_bits", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_only_the_wall_clock_line_of_a_report_is_ignored(tmp_path):
    same_bits = _load()
    report = "epochs = 2\nwall_clock_seconds = {}\ntest = 0.5\n"
    a = _run(tmp_path / "a", {"run/report.txt": report.format(1.5), "stdout/train.txt": "x\n"})
    b = _run(tmp_path / "b", {"run/report.txt": report.format(9.0), "stdout/train.txt": "x\n"})
    assert same_bits.differences(same_bits.digests(a), same_bits.digests(b)) == []
    (b / "run" / "report.txt").write_text(report.format(9.0).replace("0.5", "0.6"))
    assert same_bits.differences(same_bits.digests(a), same_bits.digests(b)) == ["run/report.txt"]


def test_differing_missing_and_extra_files_are_named(tmp_path):
    same_bits = _load()
    a = _run(tmp_path / "a", {"same.txt": "1", "changed.mcln": "1", "gone.txt": "1"})
    b = _run(tmp_path / "b", {"same.txt": "1", "changed.mcln": "2", "new/extra.txt": "1"})
    names = same_bits.differences(same_bits.digests(a), same_bits.digests(b))
    assert names == ["changed.mcln", "gone.txt", "new/extra.txt"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("same-bits")
    _load().write_inputs(root)
    return root


def _ids(path: Path) -> list[str]:
    return path.read_text().splitlines()


def test_the_fixed_lists_split_the_tones_by_class(inputs):
    made = {f"{wav.parent.name}__{wav.stem}" for wav in (inputs / "audio").glob("*/*.wav")}
    train, test = _ids(inputs / "train.txt"), _ids(inputs / "test.txt")
    assert set(train) <= made and set(test) <= made
    assert not set(train) & set(test)
    for ids in (train, test):
        assert len(set(ids)) == len(ids)
        assert {clip.split("__")[0] for clip in ids} == set(_load().CLASSES)


def test_the_ini_is_table3_at_two_classes(inputs):
    config = load_experiment_config(argparse.Namespace(config=str(inputs / "two_class.ini")))
    assert config.model_spec == dataclasses.replace(PRESETS["table3"], class_count=2)
