"""Benchmark of the mclnn package: one workload per process.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload train_table3 --seed 1 --seconds 20 --trace 0

The workload seed makes every input; the package only ever sees the
generated files.  Set-up (input generation, file writes, model build or
load, warm-up) runs several times and ``setup_s`` is its median; then one
client runs the workload in a closed loop for ``--seconds``.  Times are
wall-clock times.

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics named in BENCHMARK.json; with ``--trace 1``
every call into a module's public functions is recorded as a span
(spans.py) and the JSON holds the per-layer metrics instead, and the spans
are written to ``.perfbench/``.  The lines before it give the run
conditions, sample counts and any failed checks.  The process exits with
1 when an operation failed or a check did not hold, and with 2 when the
package source or BENCHMARK.json is missing.

BLAS is pinned to one thread before NumPy is imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTPUT = ROOT / ".perfbench"
SETUPS = 5
# Throughput is the median over windows of this many consecutive requests,
# so one burst of contention moves one window, not the run's figure.
WINDOW = 10
E2E_NAMES = ("segments_per_s", "clips_per_s", "clip_ms.p50", "clip_ms.p90", "setup_s", "peak_rss_mb")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_conditions(np, scipy, seed: int) -> dict:
    """Machine, library versions and BLAS threads, recorded with every result."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "seed": seed,
    }


def _blas_threads(np) -> int | None:
    """Thread count reported by the OpenBLAS that NumPy loaded, if it is found."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for library in sorted(libs.glob("libscipy_openblas*.so*")) + sorted(libs.glob("libopenblas*.so*")):
        handle = ctypes.CDLL(str(library))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def end_to_end(latencies: list[float], segments_per_s: list[float], segments_per_clip: int,
               setup_times: list[float]) -> dict:
    """End-to-end metric values from per-operation times."""
    import numpy as np

    if not latencies:
        return dict.fromkeys(E2E_NAMES, math.nan)
    windows = [latencies[i : i + WINDOW] for i in range(0, len(latencies), WINDOW)]
    clips_per_s = statistics.median(len(w) / (sum(w) / 1e3) for w in windows)
    return {
        "segments_per_s": (
            statistics.median(segments_per_s) if segments_per_s else segments_per_clip * clips_per_s
        ),
        "clips_per_s": clips_per_s,
        "clip_ms.p50": float(np.percentile(latencies, 50)),
        "clip_ms.p90": float(np.percentile(latencies, 90)),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def sample_counts(measured, setups: int) -> dict:
    """How many values each end-to-end metric is taken from."""
    latencies = len(measured.latencies_ms)
    return {
        "segments_per_s": len(measured.segments_per_s) or latencies,
        "clips_per_s": latencies,
        "clip_ms.p50": latencies,
        "clip_ms.p90": latencies,
        "setup_s": setups,
        "peak_rss_mb": 1,
    }


def per_layer(workload, measured, tracer, e2e: dict) -> dict:
    """Span aggregates of the timed phase, per-set-up aggregates, computed counts."""
    import reference

    values: dict[str, float] = {}
    # timed-phase totals, and set-up figures per set-up
    for phase, prefix, setups in (("timed", "", 1), ("setup", "setup.", SETUPS)):
        for name, entry in tracer.aggregate(phase).items():
            for key, value in entry.items():
                values[f"{prefix}{name}.{key}"] = value / setups if setups > 1 else value
        for name, count in tracer.bytes[phase].items():
            values[f"{prefix}{name}.mb"] = count / 2**20 / setups
    # computed from shapes and mask entries, identical on every run
    spec, plan = workload.spec, workload.pkg["model"].frame_plan(workload.spec)
    widths = [spec.feature_length] + [layer.width for layer in spec.layers]
    for i, layer in enumerate(spec.layers):
        mask = reference.band_mask(widths[i], widths[i + 1], layer.bandwidth, layer.overlap)
        macs_per_entry = plan[i + 1] * (2 * layer.order + 1)
        values[f"mask.clnn{i}.density"] = float(mask.mean())
        values[f"layers.clnn{i}.mflop_dense"] = 2 * macs_per_entry * mask.size / 1e6
        values[f"layers.clnn{i}.mflop_active"] = 2 * macs_per_entry * mask.sum() / 1e6
    params = workload.pkg["features"].FeatureParams()
    samples = int(round(params.chunk_seconds * params.sample_rate))
    values["features.stft_frames_per_clip"] = workload.pkg["features"].stft_frame_count(
        samples, params.fft_size, params.hop
    )
    values["features.resampled_clips"] = measured.resampled
    values["dataset.segments"] = measured.segments
    values["dataset.shared_frame_ratio"] = 1.0 - measured.hop / workload.q if measured.hop else 0.0
    values["traced.ops"] = measured.attempted - measured.failed
    values["traced.segments_per_s"] = e2e["segments_per_s"]
    values["traced.clips_per_s"] = e2e["clips_per_s"]
    return values


def select(values: dict, declared: list[dict]) -> dict:
    """The declared metrics, in declared order.  A span that never ran reads 0."""
    chosen = {}
    for entry in declared:
        name = entry["name"]
        if name in values:
            value = values[name]
        elif name.rsplit(".", 1)[-1] in ("calls", "ms", "self_ms", "mb"):
            value = 0 if name.endswith(".calls") else 0.0
        else:
            raise KeyError(f"no value for declared metric {name!r}")
        chosen[name] = {"value": value, "unit": entry["unit"]}
    return chosen


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mclnn" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    declared_path = ROOT / "BENCHMARK.json"
    if not declared_path.is_file():
        print(f"error: {declared_path} not found", file=sys.stderr)
        return 2
    declared = json.loads(declared_path.read_text())
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))

    import numpy as np
    import scipy

    from mclnn import container, dataset, features, layers, model, training
    from spans import Tracer
    from workloads import WORKLOADS

    pkg = {"container": container, "dataset": dataset, "features": features,
           "layers": layers, "model": model, "training": training}
    conditions = run_conditions(np, scipy, args.seed)
    OUTPUT.mkdir(exist_ok=True)
    work = OUTPUT / f"work-{os.getpid()}"
    tracer = Tracer(clock=time.perf_counter_ns)
    if args.trace:
        tracer.install(pkg)
    elif args.workload == "train_table3":
        # clip latency inside `evaluate` is visible only at this one call
        tracer.install(pkg, only={"training.predict_clip"})
    workload = WORKLOADS[args.workload](pkg, args.seed, work)
    try:
        setup_times = []
        for _ in range(SETUPS):
            started = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - started)
        tracer.phase = "timed"
        measured = workload.run(args.seconds, tracer)
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    e2e = end_to_end(
        measured.latencies_ms, measured.segments_per_s, measured.segments_per_clip, setup_times
    )
    samples = sample_counts(measured, SETUPS)
    info = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "conditions": conditions,
        "samples": samples,
        "setup_times_s": setup_times,
        "epochs_unknown": tracer.epochs_unknown,
        "notes": measured.notes,
        "errors": measured.errors,
    }
    if args.trace:
        values = per_layer(workload, measured, tracer, e2e)
        metrics = select(values, declared["per_layer"])
        trace_path = OUTPUT / f"trace-{args.workload}-seed{args.seed}-{os.getpid()}.tsv"
        tracer.write(trace_path)
        info["spans"] = len(tracer.names)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = select(e2e, declared["end_to_end"])
    for name, metric in metrics.items():
        count = f"  n={samples[name]}" if name in samples else ""
        print(f"{name:40s} {metric['value']:>14.6g} {metric['unit']}{count}")
    print(f"{'failed_fraction':40s} {measured.failed}/{measured.attempted}")
    for error in measured.errors:
        print(f"failed: {error}")
    print("info " + json.dumps(info, sort_keys=True))
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    correct = measured.failed == 0 and measured.attempted > 0 and finite
    print(json.dumps({
        "correct": correct,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
