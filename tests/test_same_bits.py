"""The comparison of ``tools/same_bits.py``; CI runs the whole sequence."""

import importlib.util
from pathlib import Path

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
