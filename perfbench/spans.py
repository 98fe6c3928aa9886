"""Traced-run recorder: spans around every public function of the qslab layers.

``Recorder.install`` wraps each public function defined in one of the six
layer modules, plus the foreign functions a layer is known to call, and
puts the wrapper at every place a loaded ``qslab`` module binds the
original, found by object identity (so ``cli``'s ``from .slab import ...``
is covered).  Spans stay in memory as tuples; ``summarize`` turns them into
per-function totals and self times after the run.

A span's self time is its duration minus the durations of its direct
children.  Children are spans opened on the same thread while it was the
innermost open span, so they are disjoint and lie inside it.  Spans opened
on worker threads with nothing open on that thread are roots of their own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass

LAYERS = ("config", "medium", "slab", "quantum_io", "oracle", "cli")

# functions a layer imports from outside qslab: span name -> (home module, attribute)
FOREIGN = {"oracle.solve_ivp": ("scipy.integrate", "solve_ivp")}

JOB = "harness.job"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# span name -> (counter name, count taken from a successful call)
COUNTERS = {
    "quantum_io.coefficients_on_grid": ("points", lambda a, kw, r: len(_arg(a, kw, 1, "k_grid"))),
    "quantum_io.detection_rate": ("terms", lambda a, kw, r: len(_arg(a, kw, 1, "pulse").k_grid) * len(r.t_grid)),
    "oracle.solve_ivp": ("nfev", lambda a, kw, r: r.nfev),
}

# (id, parent id or 0, thread id, name, start ns, end ns, raised, count)
Span = tuple


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, call, count=None):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            result = call()
        except BaseException:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, threading.get_ident(), name, t0, t1, True, 0))
            raise
        t1 = time.perf_counter_ns()
        stack.pop()
        n = count(result) if count else 0
        self.spans.append((sid, parent, threading.get_ident(), name, t0, t1, False, n))
        return result

    def job(self, call):
        """Run ``call`` as one benchmark job: the root span of everything it calls."""
        return self._record(JOB, call)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count = (lambda r: counter[1](args, kwargs, r)) if counter else None
            return self._record(name, lambda: fn(*args, **kwargs), count)

        return traced

    def targets(self) -> dict[int, tuple[object, object]]:
        """id(original) -> (original, wrapper) for every traced function."""
        found: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qslab.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == module.__name__:
                    found[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for name, (home, attr) in FOREIGN.items():
            obj = getattr(importlib.import_module(home), attr)
            found[id(obj)] = (obj, self.wrap(name, obj))
        return found

    def install(self) -> int:
        """Bind the wrappers everywhere; returns the number of binding sites patched."""
        found = self.targets()
        homes = {home for home, _ in FOREIGN.values()}
        for modname, module in list(sys.modules.items()):
            if not (modname == "qslab" or modname.startswith("qslab.") or modname in homes):
                continue
            for attr, obj in list(vars(module).items()):
                hit = found.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, obj))
        return len(self._patches)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()


@dataclass
class Totals:
    calls: int = 0
    failed: int = 0
    count: int = 0
    ns: int = 0
    self_ns: int = 0


def summarize(spans: list[Span]) -> tuple[dict[str, Totals], int, int]:
    """Per-name totals, the number of jobs, and the ns spent in off-thread root spans.

    Off-thread roots are spans with no parent that are not jobs: work a job
    handed to worker threads.  Their time overlaps the job's own wall time.
    """
    child_ns: dict[int, int] = {}
    for sid, parent, _, _, t0, t1, _, _ in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
    totals: dict[str, Totals] = {}
    jobs = offthread_ns = 0
    for sid, parent, _, name, t0, t1, raised, n in spans:
        t = totals.setdefault(name, Totals())
        t.calls += 1
        t.failed += raised
        t.count += n
        t.ns += t1 - t0
        t.self_ns += (t1 - t0) - child_ns.get(sid, 0)
        if name == JOB:
            jobs += 1
        elif not parent:
            offthread_ns += t1 - t0
    return totals, jobs, offthread_ns


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def write_spans(path, spans: list[Span]) -> None:
    """Dump the raw spans as CSV, one per line, for offline inspection."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id,parent,thread,name,start_ns,end_ns,raised,count\n")
        for span in spans:
            handle.write(",".join(str(int(v)) if isinstance(v, bool) else str(v) for v in span) + "\n")
