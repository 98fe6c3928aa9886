"""Record the layer benchmarks of two qslab checkouts in alternating runs.

    python benchmarks/record.py PARENT_DIR CHANGE_DIR --out BENCH.json

Each run is one ``pytest benchmarks/bench_layers.py`` process with
``PYTHONPATH`` set to one checkout's ``src``.  The benchmark file is always
this checkout's, so both sides run the same benchmark code, and the side
that goes first alternates from run to run, for RUNS runs per side.  Per benchmark and side the
output keeps every run's median and, over the runs, their median and
quartiles, together with the interpreter, library and machine versions.

The record also holds one end-to-end run per side of each workload in
E2E_WORKLOADS: ``perfbench/run.py --trace 0`` in that side's checkout, for
the ``run_seconds`` of this checkout's BENCHMARK.json, on seed E2E_SEED, with
the side that goes first alternating from workload to workload.  One run per
side shows where the end-to-end metrics sit next to the layer medians; a
gain needs the repeated pairs of the benchmark itself.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH_FILE = HERE / "bench_layers.py"
RUNS = 10
E2E_WORKLOADS = ("pulse", "verify")
E2E_SEED = 1


def run_once(checkout: Path, out_json: Path) -> dict[str, float]:
    """Median seconds per benchmark for one pytest-benchmark run against ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(BENCH_FILE), "-q", "-p", "no:cacheprovider",
         "--benchmark-only", f"--benchmark-json={out_json}"],
        env=env, cwd=HERE.parent, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark run against {checkout} failed:\n{proc.stdout[-4000:]}")
    report = json.loads(out_json.read_text(encoding="utf-8"))
    return {b["name"]: b["stats"]["median"] for b in report["benchmarks"]}


def run_end_to_end(checkout: Path, workload: str, seconds: float) -> dict:
    """Outcome and end-to-end metrics of one ``perfbench/run.py --trace 0`` run in ``checkout``."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(E2E_SEED), "--seconds", str(seconds), "--trace", "0"],
        env=env, cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} run in {checkout} failed:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    return {key: result[key] for key in ("correct", "attempted", "failed")} | metrics


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "iqr_s": q3 - q1, "runs_s": values}


def versions() -> dict[str, str]:
    libs = ("numpy", "scipy", "pytest", "pytest-benchmark")
    return {
        "python": platform.python_version(),
        **{lib: importlib.metadata.version(lib) for lib in libs},
        "machine": platform.machine(),
        "system": platform.platform(),
        "cpus": str(os.cpu_count()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout measured as the parent")
    parser.add_argument("change", type=Path, help="checkout measured as the change")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(RUNS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                for name, median in run_once(sides[side], Path(tmp) / f"{side}.json").items():
                    runs[side].setdefault(name, []).append(median)
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    end_to_end = {}
    for i, workload in enumerate(E2E_WORKLOADS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        end_to_end[workload] = {"first": order[0]}
        for side in order:
            end_to_end[workload][side] = run_end_to_end(sides[side], workload, seconds)
    record = {
        "layer": "L1, L2",
        "runs_per_side": RUNS,
        "versions": versions(),
        "benchmarks": {
            name: {side: summary(runs[side][name]) for side in sides} for name in runs["parent"]
        },
        "end_to_end": {"seed": E2E_SEED, "seconds": seconds, "workloads": end_to_end},
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
