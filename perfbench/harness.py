"""Shared pieces of the benchmark: loading the library, timing operations
at a fixed machine pace, recording spans and counters, and summarising a run.

The benchmark measures curveglue from outside only.  It calls the public
functions of each module, reads the ``lru_cache`` statistics of the two
condition caches, and (in traced runs) wraps ``rref`` at the module
boundary so that elimination shows as a child span of condition generation.
"""

from __future__ import annotations

import gc
import importlib
import json
import math
import random
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_DEGREE_CAP = 32
MODULES = ("poly", "glued", "operators", "symbols", "spectra", "sampling", "dsl", "cli")


def load_library() -> SimpleNamespace:
    """Import curveglue afresh and return its modules as one namespace.

    Dropping the modules from ``sys.modules`` first makes every call pay the
    full import (module code runs again and the condition caches start
    empty), so work moved to import time shows in the set-up time."""
    for name in [n for n in sys.modules if n == "curveglue" or n.startswith("curveglue.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"curveglue.{m}") for m in MODULES})


def _lru(lib, which: str):
    """The cached condition generator: 'generate' or 'symbols'."""
    if which == "generate":
        return getattr(lib.operators, "_generate", None)
    return getattr(lib.symbols, "symbol_conditions", None)


def clear_condition_caches(lib) -> None:
    for which in ("generate", "symbols"):
        clear = getattr(_lru(lib, which), "cache_clear", None)
        if clear is not None:
            clear()


def cache_counts(lib) -> dict[str, tuple[int, int]]:
    """(hits, misses) of both condition caches; (0, 0) if a cache is gone."""
    out = {}
    for which in ("generate", "symbols"):
        info = getattr(_lru(lib, which), "cache_info", None)
        out[which] = (info().hits, info().misses) if info is not None else (0, 0)
    return out


def restore_degree_cap(lib) -> bool:
    """Put the global degree cap back to its default; True if it had leaked."""
    if lib.poly.get_degree_cap() == DEFAULT_DEGREE_CAP:
        return False
    lib.poly.set_degree_cap(DEFAULT_DEGREE_CAP)
    return True


def perturb(lib, d1, d2, space, k: int, rng):
    """Make an admissible pair inadmissible by changing one jet unknown.

    Raises the pivot unknown of a random reduced condition row by r!; the
    pivot column is zero in every other row, so exactly that row breaks."""
    conditions = lib.operators.generate_conditions(space, k)
    row = rng.choice(conditions.rows)
    var = conditions.variables[next(i for i, c in enumerate(row) if c)]
    ops = {"a": d1, "b": d2}
    coeffs = [ops[var.branch].coeff(s) for s in range(k + 1)]
    coeffs[var.s] = coeffs[var.s] + lib.poly.Poly.monomial(var.r)
    ops[var.branch] = lib.operators.BranchOp.of(*coeffs)
    return ops["a"], ops["b"]


def random_character(lib, rng):
    """A point of the glued space; base point 0 lands on the singular point."""
    branch = rng.choice([1, 2, "sing"])
    at = 0 if branch == "sing" else rng.choice(["0", "1", "-1", "1/2", "2"])
    return lib.spectra.make_character(branch, at)


# ---------------------------------------------------------------------------
# Tracing


class Tracer:
    """In-memory spans: [name, start, end, parent index or -1, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.values: dict[str, list[float]] = defaultdict(list)
        self.op_id = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def durations_ms(self, name: str) -> list[float]:
        return [(s[2] - s[1]) * 1000 for s in self.spans if s[0] == name]

    def self_ms(self) -> dict[str, list[float]]:
        """Each span's duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name].append((end - start - covered[i]) * 1000)
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "op")
        path.write_text(json.dumps([dict(zip(fields, s)) for s in self.spans]))


def instrument(lib, tracer: Tracer | None) -> None:
    """Wrap rref where the condition generators look it up, so elimination
    is a child span of generation; the rest of a generator's span is row
    building."""
    if tracer is None:
        return
    for module in ("operators", "symbols"):
        mod = getattr(lib, module)
        if hasattr(mod, "rref"):
            mod.rref = tracer.wrap(mod.rref, f"{module}.rref")


# ---------------------------------------------------------------------------
# Machine pace


REFERENCE_MS = 12.0  # the reference's time at the pace every time is reported at
PACE_WINDOW = 2  # reference samples on each side of an operation


def reference_work() -> None:
    """The benchmark's own fixed computation: Gauss-Jordan elimination of a
    seeded 14 x 15 ``Fraction`` matrix, the kind of work ``rref`` does.  It
    never calls curveglue, so no change to the library can move it."""
    rng = random.Random("reference")
    n = 14
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n + 1)]
            for _ in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inverse = 1 / rows[col][col]
        rows[col] = [x * inverse for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]


class Pace:
    """How fast the machine runs at each moment of a run.

    Other tenants of a shared machine can halve the speed of CPU work, for
    stretches of seconds to minutes.  So the benchmark times
    ``reference_work`` before every operation and set-up and once at the
    end, and reports each measured time scaled by REFERENCE_MS over the
    median of the reference samples around it: every time then reads as if
    the machine ran at one fixed pace.  Garbage collection is off while the
    reference runs, so the library's live objects cannot slow it either."""

    def __init__(self):
        self.samples: list[float] = []  # seconds

    def sample(self) -> int:
        """Time the reference once; return the index of the sample."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_work()
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        return len(self.samples) - 1

    def scale(self, index: int | None = None) -> float:
        """Factor from measured time to reference-pace time around sample
        ``index`` (taken just before the measured interval), or over the
        whole run if ``index`` is None."""
        window = (self.samples if index is None else
                  self.samples[max(0, index - PACE_WINDOW + 1):index + PACE_WINDOW + 1])
        return REFERENCE_MS / 1000 / statistics.median(window)


class Op:
    """One closed-loop operation; its latency is the sum of its timed steps,
    so the benchmark's own correctness checks between steps are excluded."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.seconds = 0.0
        self.step = "setup"
        self.pace_index = None

    def call(self, name: str, fn, *args):
        self.step = name
        with self.tracer.span(name) if self.tracer else nullcontext():
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.seconds += time.perf_counter() - start


class WrongAnswer(Exception):
    """An operation returned a value the benchmark's oracle rejects."""


class Outcome:
    """Latencies by operation kind, failures and layer counters of one run.

    Every block runs each kind once, so the kinds are equally weighted."""

    def __init__(self, pace: Pace):
        self.pace = pace
        # kind -> [(measured seconds, index of the pace sample before it)]
        self.latencies: dict[str, list[tuple[float, int]]] = defaultdict(list)
        self.failures: Counter = Counter()  # (step, error class) -> count
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}

    def start(self, tracer: Tracer | None) -> Op:
        """Collect garbage and sample the machine's pace, then begin an
        operation.  A full collection first means that every operation
        starts from the same collector state, so a collection of objects
        left by earlier operations never lands in this one's time."""
        gc.collect()
        op = Op(tracer)
        op.pace_index = self.pace.sample()
        return op

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.latencies.values())

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def add(self, kind: str, op: Op, failure: str | None = None) -> None:
        self.latencies[kind].append((op.seconds, op.pace_index))
        if failure is not None:
            self.failures[(op.step, failure)] += 1

    def latencies_ms(self) -> list[float]:
        """Every operation's latency, at the reference pace."""
        return [s * self.pace.scale(i) * 1000 for v in self.latencies.values() for s, i in v]

    def peak(self, name: str, value) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0), int(value))


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile (Biometrika 69, 1982): a mean
    of all order statistics, weighted by the Beta((n+1)p, (n+1)(1-p))
    probability of each one's share of [0, 1].

    A run's latencies cluster by operation kind, with gaps between the
    clusters.  A plain sample quantile then sits on the edge of one cluster
    and jumps with single samples; this estimate moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 32  # integration points in each order statistic's share
    logs = []
    for i in range(n):
        ts = [(i + (j + 0.5) / steps) / n for j in range(steps)]
        logs.append([(a - 1) * math.log(t) + (b - 1) * math.log1p(-t) for t in ts])
    top = max(max(row) for row in logs)
    weights = [sum(math.exp(v - top) for v in row) for row in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)
