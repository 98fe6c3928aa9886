"""Self-tests of the benchmark harness: generators, span arithmetic, wrapper
discovery, and checks that reject corrupted outputs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import inspect
import json
import sys
import threading
from pathlib import Path

import pytest

import inputs
import jobs
import run
import spans

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def small(monkeypatch):
    """Shrink every grid so a job takes milliseconds."""
    monkeypatch.setattr(inputs, "SWEEP_POINTS", 401)
    monkeypatch.setattr(inputs, "PULSE_K_POINTS", 301)
    monkeypatch.setattr(inputs, "PULSE_T_POINTS", 101)
    monkeypatch.setattr(inputs, "MANYRES_GRID", 6)


def _without_paths(pool: list[dict]) -> list[dict]:
    return [{k: v for k, v in inp.items() if k not in ("config", "pulse")} for inp in pool]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload, tmp_path, small):
    a = inputs.make_inputs(workload, 7, tmp_path / "a")
    b = inputs.make_inputs(workload, 7, tmp_path / "b")
    c = inputs.make_inputs(workload, 8, tmp_path / "c")
    assert _without_paths(a) == _without_paths(b) != _without_paths(c)
    for x, y in zip(a, b):
        for key in ("config", "pulse"):
            if key in x:
                assert Path(x[key]).read_bytes() == Path(y[key]).read_bytes()


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generated_media_lie_in_the_physical_domain(workload, tmp_path, small):
    for inp in inputs.make_inputs(workload, 3, tmp_path):
        omegas = [w for w, _ in inp["species"]]
        assert omegas == sorted(set(omegas))
        assert all(0.0 < g < w * w for w, g in inp["species"])
        assert sum(g / (w * w) for w, g in inp["species"]) < 1.0


def test_self_time_subtracts_direct_children_only():
    main, worker = 1, 2
    synthetic = [
        (3, 2, main, "medium.b", 20, 30, False, 0),
        (2, 1, main, "slab.a", 10, 60, False, 0),
        (4, 1, main, "cli.c", 70, 90, True, 0),
        (6, 5, worker, "medium.b", 20, 25, False, 0),
        (5, 0, worker, "slab.a", 15, 45, False, 0),
        (1, 0, main, spans.JOB, 0, 100, False, 0),
    ]
    totals, jobs_seen, offthread_ns = spans.summarize(synthetic)
    assert jobs_seen == 1 and offthread_ns == 30
    assert totals[spans.JOB].self_ns == 100 - 50 - 20
    assert (totals["slab.a"].ns, totals["slab.a"].self_ns) == (80, 40 + 25)
    assert (totals["medium.b"].calls, totals["medium.b"].self_ns) == (2, 15)
    assert totals["cli.c"].failed == 1
    # every instant of the job is in exactly one main-thread self time
    assert sum(t.self_ns for t in totals.values()) - offthread_ns == 100


def test_recorder_nests_spans_per_thread():
    rec = spans.Recorder()
    inner = rec.wrap("medium.inner", lambda: None)
    outer = rec.wrap("slab.outer", lambda: inner())
    worker = threading.Thread(target=outer)

    def job():
        outer()
        worker.start()
        worker.join(timeout=10)

    rec.job(job)
    assert not worker.is_alive()
    by_id = {s[0]: s for s in rec.spans}
    job_span = next(s for s in rec.spans if s[3] == spans.JOB)
    for sid, parent, thread, name, *_ in rec.spans:
        if name == "medium.inner":
            assert by_id[parent][3] == "slab.outer" and by_id[parent][2] == thread
        elif name == "slab.outer" and thread == job_span[2]:
            assert parent == job_span[0]
        elif name == "slab.outer":
            assert parent == 0
    assert spans.summarize(rec.spans)[2] > 0


def _binding_sites() -> list[tuple[object, str, object]]:
    """Every (module, attribute, function) where a qslab module binds a traced function."""
    import qslab.cli  # noqa: F401  (loads every layer)

    originals = set()
    for layer in spans.LAYERS:
        module = sys.modules[f"qslab.{layer}"]
        originals |= {
            id(f) for name, f in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(f) and f.__module__ == module.__name__
        }
    for home, attr in spans.FOREIGN.values():
        originals.add(id(getattr(sys.modules[home], attr)))
    return [
        (module, attr, value)
        for name, module in list(sys.modules.items())
        if name == "qslab" or name.startswith("qslab.")
        for attr, value in vars(module).items()
        if id(value) in originals
    ]


def test_wrappers_reach_every_binding_site_and_come_off_again():
    import qslab
    import qslab.cli
    import scipy.integrate

    sites = _binding_sites()
    names = {(m.__name__, a) for m, a, _ in sites}
    assert {("qslab.cli", "scatter_coefficients"), ("qslab", "scatter_coefficients"),
            ("qslab.slab", "scatter_coefficients"), ("qslab.oracle", "solve_ivp")} <= names
    rec = spans.Recorder()
    try:
        assert rec.install() >= len(sites)
        for module, attr, original in sites:
            assert getattr(module, attr).__wrapped__ is original
        assert scipy.integrate.solve_ivp.__wrapped__ is qslab.oracle.solve_ivp.__wrapped__
    finally:
        rec.uninstall()
    for module, attr, original in sites:
        assert getattr(module, attr) is original
    assert not hasattr(qslab.cli.scatter_coefficients, "__wrapped__")


def test_traced_cli_call_records_each_layer(tmp_path):
    from qslab import cli

    cfg = inputs.write_config(tmp_path / "m.json", [(1.0, 0.19)])
    rec = spans.Recorder()
    rec.install()
    try:
        rc = rec.job(lambda: cli.main([
            "scatter", "--config", cfg, "--omega-min", "0.1", "--omega-max", "2",
            "--points", "50", "--threads", "2", "--out", str(tmp_path / "o.csv"),
        ]))
    finally:
        rec.uninstall()
    assert rc == 0
    totals, n_jobs, _ = spans.summarize(rec.spans)
    assert n_jobs == 1
    assert totals["slab.scatter_coefficients"].calls == 50
    assert totals["medium.refractive_index"].calls == 100
    assert {"cli.main", "cli.cmd_scatter", "config.load_medium_config"} <= set(totals)


def test_operations_are_counted_once_per_input_and_repeats_must_agree(tmp_path, small):
    pool = inputs.make_inputs("sweep", 5, tmp_path / "in")[:2]
    w = jobs.WORKLOADS["sweep"]
    records = [dict(w.run(pool[j % 2], tmp_path / f"job{j}"), index=j) for j in range(5)]
    outcomes, counted, _ = run.check_all(w, pool, records)
    assert len(outcomes) == 5 and not any(o.wrong for o in outcomes)
    assert sum(o.attempted for o in counted) == 2 * inputs.SWEEP_POINTS
    records.append({"error": "RuntimeError: injected", "index": 5})  # repeats input 1
    outcomes, counted, errors = run.check_all(w, pool, records)
    assert outcomes[-1].wrong and errors == {"RuntimeError": 1}
    assert sum(o.failed for o in counted) == 0


def test_tail_is_the_highest_percentile_with_ten_jobs_beyond():
    assert run.tail([float(x) for x in range(40, 0, -1)]) == (30.0, 75.0, 10)


def _corrupt_csv(path: str, edit) -> None:
    lines = Path(path).read_text().splitlines()
    Path(path).write_text("\n".join(edit(lines)) + "\n")


def _flip_reflection_sign(lines):
    out = []
    for line in lines:
        parts = line.split(",")
        if len(parts) == 9 and not line.startswith("omega"):
            parts[4] = repr(-float(parts[4]))
            parts[5] = repr(-float(parts[5]))
        out.append(",".join(parts))
    return out


def _drop_row(lines):
    return lines[:-3] + lines[-2:]


def _scale_rates(lines):
    def scaled(line):
        t, rate = line.split(",")
        return f"{t},{float(rate) * 1.01!r}"

    return [line if line.startswith("#") or line == "t,rate" else scaled(line) for line in lines]


def _run(workload: str, tmp_path: Path, seed: int = 5):
    inp = inputs.make_inputs(workload, seed, tmp_path / "in")[0]
    w = jobs.WORKLOADS[workload]
    rec = w.run(inp, tmp_path / "job")
    clean = w.check(inp, rec)
    assert not clean.wrong
    return w, inp, rec, clean


@pytest.mark.parametrize("edit", [_flip_reflection_sign, _drop_row])
def test_sweep_check_rejects_corrupted_output(edit, tmp_path, small):
    w, inp, rec, clean = _run("sweep", tmp_path)
    assert clean.failed == 0 and clean.items == clean.attempted
    _corrupt_csv(rec["out"], edit)
    bad = w.check(inp, rec)
    assert bad.wrong and bad.failed > 0


@pytest.mark.parametrize("edit", [_scale_rates, _drop_row])
def test_pulse_check_rejects_corrupted_output(edit, tmp_path, small):
    w, inp, rec, clean = _run("pulse", tmp_path)
    assert clean.failed == 0
    _corrupt_csv(rec["out"], edit)
    bad = w.check(inp, rec)
    assert bad.wrong and bad.failed == bad.attempted


def test_verify_check_counts_every_fail_and_rejects_a_hidden_one(tmp_path):
    w, inp, rec, clean = _run("verify", tmp_path)
    lines = rec["stdout"].splitlines()
    assert clean.failed == sum(line.endswith("FAIL") for line in lines) >= 1  # source_decay_ratio
    hidden = [line.replace("FAIL", "PASS") if line.startswith("source_decay_ratio") else line for line in lines]
    assert w.check(inp, dict(rec, stdout="\n".join(hidden) + "\n")).wrong
    dropped = [line for line in lines if not line.startswith("source_decay_ratio")]
    assert w.check(inp, dict(rec, stdout="\n".join(dropped) + "\n")).wrong
    assert w.check(inp, dict(rec, rc=0)).wrong


def test_manyres_check_rejects_corrupted_output(tmp_path, small):
    w, inp, rec, clean = _run("manyres", tmp_path)
    solved = [i for i, r in enumerate(rec["roots"]) if not isinstance(r, str)]
    assert clean.failed == len(rec["roots"]) - len(solved)

    roots = list(rec["roots"])
    roots[solved[0]] = [w * (1 + 1e-6) for w in roots[solved[0]]]
    assert w.check(inp, dict(rec, roots=roots)).wrong

    def asymmetric(lines):
        x, s, re, im = lines[-2].split(",")
        return lines[:-2] + [f"{x},{s},{float(re) + 1.0!r},{im}", lines[-1]]

    _corrupt_csv(rec["greens"], asymmetric)
    assert w.check(inp, rec).wrong
    _corrupt_csv(rec["bands"], _drop_row)
    assert len(w.check(inp, rec).wrong) >= 2


def test_benchmark_json_lists_exactly_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in spec["workloads"]]
    assert set(listed) <= set(inputs.WORKLOADS)
    # the listed workloads between them reach every layer
    assert {layer for w in listed for layer in jobs.WORKLOADS[w].layers} == set(spans.LAYERS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
