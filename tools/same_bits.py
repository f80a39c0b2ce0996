"""Check that the working tree writes the same bits as a base revision.

    python tools/same_bits.py BASE

Runs one fixed ``mclnn`` command sequence with the package of git revision
``BASE`` (exported with ``git archive``) and with the working tree's, each
once as it is and once pinned to one CPU.  The sequence is:

- seeded tones, six 30 s clips at 22.05 kHz in each of two classes and one
  37.5 s clip at 44.1 kHz in the first, go through ``features extract``,
  which center-crops that clip to 30 s and resamples it, and ``dataset plan
  --folds 3``;
- ``train --preset table3 --epochs 2 --hop 13 --test-fold 1`` runs three
  times: with momentum at batch 64, with ``--optimizer sgd --batch-size 8``,
  and at ``--batch-size 128``, where a batch has more than 96 rows;
- ``eval --bucket fold1 --hop 13 --out`` and ``predict`` at hop 13 and at the
  default hop run on the batch-64 model;
- ``model describe --preset table3`` and ``gradcheck``, which print what the
  layer table and the gradient check give; they read no file of the run.

Every command runs through ``python -m mclnn.cli`` with ``PYTHONPATH`` at the
tree's ``src`` and ``OPENBLAS_NUM_THREADS=1``, in its run's directory, with
relative paths, so no path differs between runs.  Its stdout is kept as a
file of the run.  Every file of every run is then compared by md5 with the
base run as it is; ``report.txt`` is compared without its wall-clock line.

Exit status: 0 when every file is identical, 1 when some differ (they are
named on stdout), 2 when a command fails.  The wall time of each run is
printed as it ends: about 6-8 s per run on a 2-core machine.

CI runs it on every push and pull request.  A pull request's ``BASE`` is
its target's commit.  A push's is the pushed commit itself, so its four
runs are independent executions of one tree: they check that a rerun and a
single CPU give the same bits.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
import wave
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
RATE = 22050
CLIP_SECONDS = 30
CLIPS_PER_CLASS = 6
# the first class's one extra clip, longer and at another rate, so that
# ``features extract`` crops and resamples it
RESAMPLED_RATE = 44100
RESAMPLED_SECONDS = 37.5
# class -> the range its clips' tone frequencies are drawn from, in Hz
CLASSES = {"low": (150.0, 400.0), "high": (1200.0, 3000.0)}
TRAIN = ["train", "--preset", "table3", "--epochs", "2", "--hop", "13", "--test-fold", "1",
         "--features", "features", "--plan", "folds.txt"]
MODEL = "momentum-b64/model.mcln"
# (step name, arguments after ``python -m mclnn.cli``); "FEATURES" expands to
# the run's feature files in sorted order
STEPS = [
    ("extract", ["features", "extract", "--in", "../audio", "--out", "features"]),
    ("plan", ["dataset", "plan", "--manifest", "features/manifest.tsv", "--folds", "3",
              "--out", "folds.txt"]),
    ("train-momentum-b64", TRAIN + ["--out", "momentum-b64"]),
    ("train-sgd-b8", TRAIN + ["--optimizer", "sgd", "--batch-size", "8", "--out", "sgd-b8"]),
    ("train-momentum-b128", TRAIN + ["--batch-size", "128", "--out", "momentum-b128"]),
    ("eval-hop13", ["eval", "--model", MODEL, "--plan", "folds.txt", "--features", "features",
                    "--bucket", "fold1", "--hop", "13", "--out", "eval-hop13.txt"]),
    ("predict-hop13", ["predict", "--model", MODEL, "--hop", "13", "FEATURES"]),
    ("predict", ["predict", "--model", MODEL, "FEATURES"]),
    ("describe", ["model", "describe", "--preset", "table3"]),
    ("gradcheck", ["gradcheck"]),
]
WALL_CLOCK = b"wall_clock_seconds"


def write_tones(audio: Path, seed: int = 0) -> None:
    """Seeded clips per class directory, and the first class's resampled one."""
    rng = np.random.default_rng(seed)
    for name, band in CLASSES.items():
        (audio / name).mkdir(parents=True)
        for i in range(CLIPS_PER_CLASS):
            write_tone(audio / name / f"clip{i}.wav", rng, band, RATE, CLIP_SECONDS)
    first = next(iter(CLASSES))
    write_tone(audio / first / f"clip{CLIPS_PER_CLASS}.wav", rng, CLASSES[first],
               RESAMPLED_RATE, RESAMPLED_SECONDS)


def write_tone(path: Path, rng: np.random.Generator, band, rate: int, seconds: float) -> None:
    """A 16-bit mono gliding tone with noise, its start and end drawn in ``band`` Hz."""
    t = np.arange(round(seconds * rate)) / rate
    start, end = rng.uniform(*band, 2)
    phase = 2 * np.pi * (start * t + (end - start) * t**2 / (2 * seconds))
    signal = 8000 * np.sin(phase) + 1000 * rng.standard_normal(t.size)
    with wave.open(str(path), "wb") as out:
        out.setnchannels(1)
        out.setsampwidth(2)
        out.setframerate(rate)
        out.writeframes(np.round(signal).astype("<i2").tobytes())


def export_src(revision: str, dest: Path) -> Path:
    """The ``src`` directory of ``revision``, exported under ``dest``."""
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", revision, "src"],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_sequence(src: Path, run: Path, one_cpu: bool) -> None:
    """Every step of :data:`STEPS` in ``run``; each step's stdout becomes ``stdout/<step>.txt``."""
    env = dict(
        os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1"
    )
    (run / "stdout").mkdir(parents=True)
    for step, args in STEPS:
        if "FEATURES" in args:
            files = sorted(str(p.relative_to(run)) for p in (run / "features").glob("*.mclf"))
            args = [a for arg in args for a in (files if arg == "FEATURES" else [arg])]
        done = subprocess.run(
            [sys.executable, "-m", "mclnn.cli", *args], cwd=run, env=env, capture_output=True,
            preexec_fn=pin_to_one_cpu if one_cpu else None,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr.decode(errors="replace"))
            print(f"{run.name}: step {step!r} exited {done.returncode}", file=sys.stderr)
            raise SystemExit(2)
        (run / "stdout" / f"{step}.txt").write_bytes(done.stdout)


def digests(run: Path) -> dict[str, str]:
    """md5 of every file under ``run`` by relative path; ``report.txt`` without its wall clock."""
    out = {}
    for path in sorted(p for p in run.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "report.txt":
            data = b"".join(
                line for line in data.splitlines(keepends=True) if not line.startswith(WALL_CLOCK)
            )
        out[path.relative_to(run).as_posix()] = hashlib.md5(data).hexdigest()
    return out


def differences(reference: dict[str, str], other: dict[str, str]) -> list[str]:
    """Relative paths that differ, or exist in only one of the two runs."""
    names = reference.keys() | other.keys()
    return sorted(name for name in names if reference.get(name) != other.get(name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-bits-") as scratch:
        root = Path(scratch)
        write_tones(root / "audio")
        trees = {"base": export_src(args.base, root / "base"), "work": REPO / "src"}
        runs = {}
        for one_cpu in (False, True):
            for tree, src in trees.items():
                name = f"{tree}-{'one-cpu' if one_cpu else 'as-is'}"
                started = time.perf_counter()
                run_sequence(src, root / name, one_cpu)
                print(f"{name}: {time.perf_counter() - started:.1f} s", flush=True)
                runs[name] = digests(root / name)
        reference_name = "base-as-is"
        reference = runs.pop(reference_name)
        failed = False
        for name, run in runs.items():
            for path in differences(reference, run):
                print(f"differs: {name}/{path} (against {reference_name})")
                failed = True
        print(f"{len(reference)} files per run; " + ("some differ" if failed else "all identical"))
        return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
