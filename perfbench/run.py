"""qslab benchmark: one closed-loop client running one seeded workload.

    python3 perfbench/run.py --workload pulse --seed 1 --seconds 50 --trace 0

Run from the root of a qslab checkout.  One process, one client: each job
starts when the previous one has ended.  Inputs come from ``inputs.py``,
seeded by ``--seed``; every job's output is checked after the timed loop.

``--trace 0`` times the jobs untraced for ``--seconds`` and reports the
end-to-end metrics.  Set-up is timed in fresh interpreters started half
before and half after the loop, so that its median spans the run.  The
median job time, the throughput and the CPU time per job are printed but
kept out of the result: a 2-vCPU guest on a shared Xeon host was seen to
run the same code at two speeds about 1.75x apart, each holding for
seconds up to minutes, so a median or a mean over one run moves with the
share of the run each speed held.  The tail reads the slow speed, which
nearly every run reaches.

``--trace 1`` spends half the time untraced and half with every public
qslab function wrapped (``spans.py``) and reports the per-layer metrics,
all per traced job, plus the tracing overhead.  Both print one metric per
line and, last, a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import spans

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 6  # half before the timed loop, half after
IMPORT_PROBES = 3

# name -> (unit, better); BENCHMARK.json lists the same metrics
END_TO_END = {
    "setup_s": ("s", "lower"),
    "job_tail_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "success_ratio": ("ratio", "higher"),
}

# traced function -> the totals reported for it, per traced job
FUNCTION_METRICS = {
    "config.load_medium_config": ("s",),
    "config.load_pulse_file": ("s",),
    "medium.refractive_index": ("calls", "s"),
    "medium.band_edges": ("calls", "s"),
    "medium.band_structure": ("s",),
    "medium.dispersion_omega_of_k": ("calls", "failed", "s"),
    "slab.scatter_coefficients": ("calls", "s", "self_s"),
    "slab.greens_function": ("calls", "s"),
    "quantum_io.detection_rate": ("s", "self_s", "terms"),
    "quantum_io.coefficients_on_grid": ("calls", "points", "s"),
    "quantum_io.energy_budget": ("s",),
    "quantum_io.s_matrix": ("calls", "s"),
    "oracle.ode_scatter": ("calls", "s"),
    "oracle.right_incident_solution": ("s",),
    "oracle.source_integral_check": ("s", "self_s"),
    "oracle.solve_ivp": ("calls", "nfev", "s"),
    "oracle.transfer_matrix_rt": ("calls", "s"),
}
_FIELD_UNITS = {"calls": "count", "failed": "count", "terms": "count", "points": "count", "nfev": "count"}

PER_LAYER = {
    "setup.import.qslab_s": ("s", "lower"),
    "setup.import.numpy_s": ("s", "lower"),
    "setup.import.scipy_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.job_s": ("s", "lower"),
    "trace.uninstrumented_s": ("s", "lower"),
    "trace.offthread_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in spans.LAYERS},
    "cli.rows": ("count", "higher"),
    "cli.bytes_out": ("bytes", "lower"),
    "cli.kept_ratio": ("ratio", "higher"),
    "medium.refractive_index.calls_per_row": ("ratio", "lower"),
    "quantum_io.coefficients_on_grid.points_per_k": ("ratio", "lower"),
    **{
        f"{name}.{f}": (_FIELD_UNITS.get(f, "s"), "lower")
        for name, fields in FUNCTION_METRICS.items()
        for f in fields
    },
}


class BenchmarkError(Exception):
    """The benchmark itself cannot produce a valid result."""


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, jobs beyond): the highest percentile with ten jobs beyond it."""
    ordered = sorted(values)
    i = max(len(ordered) - 11, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def _env() -> dict[str, str]:
    path = os.pathsep.join(p for p in ("src", os.environ.get("PYTHONPATH", "")) if p)
    return dict(os.environ, PYTHONPATH=path)


def probe(inp: dict, importtime: bool = False) -> tuple[float, str]:
    """Time a fresh interpreter from spawn to 'config loaded'; returns (seconds, stderr)."""
    files = [inp["config"]] + ([inp["pulse"]] if "pulse" in inp else [])
    flags = ["-X", "importtime"] if importtime else []
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, *flags, str(HERE / "probe.py"), *files],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1]) - start, proc.stderr


def import_seconds(importtime_log: str) -> dict[str, float]:
    """Self import time summed over each package's modules, from ``-X importtime``."""
    totals = dict.fromkeys(("qslab", "numpy", "scipy"), 0.0)
    for line in importtime_log.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            package = fields[2].strip().split(".")[0]
            if package in totals:
                totals[package] += int(fields[0]) / 1e6
    return totals


def run_loop(workload, pool: list[dict], seconds: float, outdir: Path, recorder=None,
             min_jobs: int = 0) -> tuple[list[dict], float]:
    """Closed loop: run jobs back to back until ``seconds`` have passed and ``min_jobs`` have run."""
    outdir.mkdir(parents=True, exist_ok=True)
    records = []
    start = time.perf_counter()
    while True:
        j = len(records)
        inp = pool[j % len(pool)]
        call = lambda: workload.run(inp, outdir / f"job{j}")  # noqa: E731
        c0, t0 = time.process_time(), time.perf_counter()
        rec = recorder.job(call) if recorder else call()
        t1, c1 = time.perf_counter(), time.process_time()
        rec.update(index=j, wall=t1 - t0, cpu=c1 - c0)
        records.append(rec)
        if t1 - start >= seconds and len(records) >= min_jobs:
            return records, t1 - start


def git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root: Path, args, pool: list[dict]) -> dict:
    from qslab.config import load_medium_config

    src = hashlib.sha256()
    for path in sorted((root / "src" / "qslab").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "qslab_git_sha": git_sha(root),
        "qslab_src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "config_sha256": [load_medium_config(inp["config"])[1] for inp in pool],
        "pulse_sha256": [hashlib.sha256(Path(inp["pulse"]).read_bytes()).hexdigest() for inp in pool if "pulse" in inp],
    }


def end_to_end(records, loop_s, outcomes, counted, setup_times, peak_rss_mb) -> tuple[dict, str]:
    walls = [r["wall"] for r in records]
    tail_s, pct, beyond = tail(walls)
    attempted = sum(o.attempted for o in counted)
    failed = sum(o.failed for o in counted)
    values = {
        "setup_s": median(setup_times),
        "job_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mb,
        "success_ratio": 1.0 - failed / attempted,
    }
    note = (
        f"job_tail_s is p{pct:.1f} of {len(walls)} jobs ({beyond} beyond); "
        f"setup_s is the median of {len(setup_times)} fresh interpreters\n"
        f"{'job_p50_s':48s} {median(walls):16.9g} s      (lower is better; not in the result)\n"
        f"{'items_per_s':48s} {sum(o.items for o in outcomes) / loop_s:16.9g} 1/s    (higher is better; not in the result)\n"
        f"{'cpu_per_job_s':48s} {sum(r['cpu'] for r in records) / len(records):16.9g} s      "
        f"(lower is better; mean process CPU per job; not in the result)\n"
        f"{'failed_ratio':48s} {failed / attempted:16.9g} ratio  (lower is better; "
        f"{failed} of {attempted} operations of {len(counted)} inputs; success_ratio is 1 - failed_ratio)"
    )
    return values, note


def per_layer(workload, recorder, pool, traced, outcomes, untraced_p50, import_times) -> dict:
    totals, jobs, offthread_ns = spans.summarize(recorder.spans)
    if jobs != len(traced):
        raise BenchmarkError(f"{jobs} job spans for {len(traced)} traced jobs")
    layer_calls = collections.Counter()
    for name, t in totals.items():
        layer_calls[spans.layer_of(name)] += t.calls
    idle = [layer for layer in workload.layers if not layer_calls[layer]]
    if idle:
        raise BenchmarkError(f"workload {workload.name} recorded no calls into {idle}")
    values = {f"setup.import.{pkg}_s": median([t[pkg] for t in import_times]) for pkg in ("qslab", "numpy", "scipy")}
    job = totals[spans.JOB]
    values["trace.job_s"] = job.ns / 1e9 / jobs
    values["trace.uninstrumented_s"] = job.self_ns / 1e9 / jobs
    values["trace.offthread_s"] = offthread_ns / 1e9 / jobs
    values["trace.overhead_ratio"] = median([r["wall"] for r in traced]) / untraced_p50
    for layer in spans.LAYERS:
        self_ns = sum(t.self_ns for name, t in totals.items() if spans.layer_of(name) == layer)
        values[f"{layer}.self_s"] = self_ns / 1e9 / jobs
    for name, fields in FUNCTION_METRICS.items():
        t = totals.get(name, spans.Totals())
        raw = {"calls": t.calls, "failed": t.failed, "s": t.ns / 1e9, "self_s": t.self_ns / 1e9}
        for f in fields:
            values[f"{name}.{f}"] = raw.get(f, t.count) / jobs
    rows = sum(o.rows for o in outcomes)
    requested = sum(o.requested for o in outcomes)
    k_points = sum(pool[r["index"] % len(pool)].get("k_points", 0) for r in traced)
    values["cli.rows"] = rows / jobs
    values["cli.bytes_out"] = sum(o.bytes_out for o in outcomes) / jobs
    values["cli.kept_ratio"] = rows / requested if requested else 0.0
    values["medium.refractive_index.calls_per_row"] = totals.get("medium.refractive_index", spans.Totals()).calls / rows if rows else 0.0
    points = totals.get("quantum_io.coefficients_on_grid", spans.Totals()).count
    values["quantum_io.coefficients_on_grid.points_per_k"] = points / k_points if k_points else 0.0
    return values


def check_all(workload, pool, records) -> tuple[list, list, collections.Counter]:
    """Check every job; returns (every job's outcome, each input's first outcome, exceptions by type).

    Operations are counted once per pool input, on its first job: every run
    goes through the whole pool, so ``attempted`` and ``failed`` depend on
    the seed alone, not on how many jobs the run fitted in.  qslab is
    deterministic, so a job that repeats an input must repeat its outcome;
    one that does not is wrong.
    """
    outcomes, first = [], {}
    for r in records:
        i = r["index"] % len(pool)
        o = workload.check(pool[i], r)
        if i in first and (o.failed, o.items) != (first[i].failed, first[i].items):
            o.wrong.append(f"job {r['index']} did not repeat the outcome of input {i}'s first job")
        first.setdefault(i, o)
        outcomes.append(o)
    errors = collections.Counter(r["error"].split(":")[0] for r in records if "error" in r)
    errors.update(x for r in records for x in r.get("roots", ()) if isinstance(x, str))
    return outcomes, list(first.values()), errors


def measure(args, root: Path, work: Path) -> tuple[dict, dict, str, list, list, collections.Counter, dict]:
    """Run one workload; returns (metrics, their catalogue, a note, outcomes, counted outcomes,
    error counts, provenance)."""
    pool = inputs.make_inputs(args.workload, args.seed, work / "inputs")
    if args.trace:
        import_times = [import_seconds(probe(pool[0], importtime=True)[1]) for _ in range(IMPORT_PROBES)]
    else:
        setup_times = [probe(pool[j % len(pool)])[0] for j in range(SETUP_PROBES // 2)]

    sys.path.insert(0, str(root / "src"))
    import jobs

    workload = jobs.WORKLOADS[args.workload]
    if not args.trace:
        records, loop_s = run_loop(workload, pool, args.seconds, work / "jobs", min_jobs=len(pool))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the checks
        setup_times += [probe(pool[j % len(pool)])[0] for j in range(SETUP_PROBES // 2, SETUP_PROBES)]
        outcomes, counted, errors = check_all(workload, pool, records)
        metrics, note = end_to_end(records, loop_s, outcomes, counted, setup_times, peak_rss_mb)
        return metrics, END_TO_END, note, outcomes, counted, errors, provenance(root, args, pool)

    untraced, _ = run_loop(workload, pool, args.seconds / 2, work / "untraced", min_jobs=len(pool))
    recorder = spans.Recorder()
    recorder.install()
    try:
        traced, _ = run_loop(workload, pool, args.seconds / 2, work / "traced", recorder)
    finally:
        recorder.uninstall()
    spans.write_spans(work.parent / f"spans-{args.workload}.csv", recorder.spans)
    outcomes, counted, errors = check_all(workload, pool, untraced + traced)
    untraced_p50 = median([r["wall"] for r in untraced])
    metrics = per_layer(workload, recorder, pool, traced, outcomes[len(untraced):], untraced_p50, import_times)
    layers = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    note = (
        f"{len(traced)} traced jobs after {len(untraced)} untraced; per-layer values are per traced job\n"
        f"accounting: layer self times {layers:.6g} s + uninstrumented {metrics['trace.uninstrumented_s']:.6g} s"
        f" - off-thread {metrics['trace.offthread_s']:.6g} s = traced job {metrics['trace.job_s']:.6g} s"
    )
    return metrics, PER_LAYER, note, outcomes, counted, errors, provenance(root, args, pool)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*inputs.WORKLOADS, "all"),
                        help="'all' runs every workload in turn, each in a fresh process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qslab" / "cli.py").is_file():
        print(f"error: {root} is not a qslab checkout (src/qslab/cli.py is missing)", file=sys.stderr)
        return 2
    if args.workload == "all":
        rcs = [
            subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for w in inputs.WORKLOADS
        ]
        return max(rcs)
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        metrics, catalogue, note, outcomes, counted, errors, stamp = measure(args, root, work)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wrong = [w for o in outcomes for w in o.wrong]
    for line in wrong[:20]:
        print(f"wrong output: {line}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {len(outcomes)} jobs")
    print(note)
    print(f"exceptions by type: {dict(errors)}")
    for name, value in metrics.items():
        unit, better = catalogue[name]
        print(f"{name:48s} {value:16.9g} {unit:6s} ({better} is better)")
    print("provenance " + json.dumps(stamp))
    result = {
        "correct": not wrong,
        "attempted": sum(o.attempted for o in counted),
        "failed": sum(o.failed for o in counted),
        "metrics": {name: {"value": value, "unit": catalogue[name][0]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
