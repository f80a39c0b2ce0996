"""Run every workload untraced and traced, and print one report.

Usage, from the root of the repository:

    python3 perfbench/report.py --seconds 20 --seed 1

Each run is its own process (``run.py``), so peak memory is per workload.
For each workload the report gives every end-to-end metric with its unit
and sample count; ``failed_fraction``; the tracing overhead (the gap in
throughput between the traced and the untraced run); the per-layer metrics of the
traced run; and a comparison with the hand-taken baseline in ROADMAP.md.
It exits with 1 if any run failed or found a wrong output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# throughput compared between the traced and the untraced run
THROUGHPUT = {
    "train_table3": "segments_per_s",
    "predict_overlap": "clips_per_s",
    "extract_audio": "clips_per_s",
}


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, dict, dict]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(completed.stderr)
        return completed.returncode, {}, {}
    info = next((json.loads(l[5:]) for l in lines if l.startswith("info ")), {})
    return completed.returncode, info, json.loads(lines[-1])


def totals_under(trace_path: Path, root: str) -> dict[str, float]:
    """Inclusive ms per span name, over spans inside a span named ``root``."""
    with open(trace_path) as handle:
        rows = [line.rstrip("\n").split("\t") for line in handle][1:]
    names = [row[4] for row in rows]
    under = [False] * len(rows)
    totals: dict[str, float] = {}
    for i, row in enumerate(rows):
        parent = int(row[1])
        under[i] = parent >= 0 and (names[parent] == root or under[parent])
        if under[i] and row[3] == "timed":
            totals[names[i]] = totals.get(names[i], 0.0) + (int(row[6]) - int(row[5])) / 1e6
    return totals


def baseline_lines(workload: str, e2e: dict, layer: dict, trace_path: Path) -> list[str]:
    """The traced run set against the ROADMAP baseline (cProfile on a 2-core machine)."""
    value = {name: metric["value"] for name, metric in layer.items()}
    if workload == "train_table3":
        train_ms = value["training.train.ms"]
        inside = totals_under(trace_path, "training.train")
        forward = inside["layers.block_forward.clnn0"] + inside["layers.block_forward.clnn1"]
        shares = {
            "backward": (inside["layers.backward"], 47),
            "mask multiply (effective_weights)": (inside["layers.effective_weights"], 18),
            "forward (block_forward minus mask)": (forward - inside["layers.effective_weights"], 13),
            "train self time": (value["training.train.self_ms"], 13),
        }
        lines = [f"  ms per trained segment, whole run: "
                 f"{1e3 / e2e['segments_per_s']['value']:.2f}; train() incl. validation, "
                 f"traced: {train_ms / value['layers.backward.calls']:.2f} (baseline ~10.1)"]
        lines += [f"  {name:38s} {100 * ms / train_ms:5.1f} % of train()  (baseline {base} %)"
                  for name, (ms, base) in shares.items()]
        return lines
    if workload == "extract_audio":
        clips = value["traced.ops"]
        return [
            f"  clip_ms.p50 (a native 22.05 kHz clip, with read and write): "
            f"{e2e['clip_ms.p50']['value']:.1f} ms (baseline ~50, extract_features alone)",
            f"  stft_power per clip: {value['features.stft_power.ms'] / clips:.1f} ms (baseline ~33)",
            f"  mel_filterbank per clip: {value['features.mel_filterbank.ms'] / clips:.1f} ms "
            f"(baseline ~8)",
        ]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--workloads", nargs="*", default=list(THROUGHPUT))
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workloads:
        code, info, result = run(workload, args.seed, args.seconds, trace=0)
        traced_code, traced_info, traced = run(workload, args.seed, args.seconds, trace=1)
        print(f"== {workload}  seed {args.seed}  {args.seconds:g} s  "
              f"exit codes {code}/{traced_code}")
        if not result or not traced:
            print("  no result; see the errors above")
            status = 1
            continue
        samples = info["samples"]
        for name, metric in result["metrics"].items():
            print(f"  {name:16s} {metric['value']:12.4f} {metric['unit']:11s} n={samples[name]}")
        failed, attempted = result["failed"], result["attempted"]
        print(f"  {'failed_fraction':16s} {failed / attempted:12.4f} ratio       "
              f"n={attempted} ({failed} failed)")
        key = THROUGHPUT[workload]
        plain, under_trace = result["metrics"][key]["value"], traced["metrics"][f"traced.{key}"]["value"]
        print(f"  tracing overhead on {key}: {plain:.3f} untraced, {under_trace:.3f} traced, "
              f"{100 * (plain - under_trace) / plain:+.1f} %  ({traced_info.get('spans')} spans)")
        print("  per-layer (traced run; calls and ms are totals over the timed phase):")
        for name, metric in traced["metrics"].items():
            print(f"    {name:38s} {metric['value']:12.4f} {metric['unit']}")
        trace_path = ROOT / traced_info["trace_file"]
        for line in baseline_lines(workload, result["metrics"], traced["metrics"], trace_path):
            print(line)
        print(f"  conditions: {json.dumps(info['conditions'], sort_keys=True)}")
        for error in info.get("errors", []) + traced_info.get("errors", []):
            print(f"  failed: {error}")
        if code or traced_code or not (result["correct"] and traced["correct"]):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
