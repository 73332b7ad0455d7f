"""condition_grid: cold condition generation over an (m, k) grid.

Each operation clears both condition caches, then times
``generate_conditions(SpaceSpec(m), k)`` followed by
``symbol_conditions(m, k)``.  A block is one pass over every grid point in
seeded order, so every run measures the same multiset of problem sizes.
Dense ``Fraction`` row building and ``rref`` dominate; the probe, ``compose``
and large ``Poly`` products never run inside an operation.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from harness import (
    HERE,
    Outcome,
    WrongAnswer,
    cache_counts,
    clear_condition_caches,
    instrument,
    load_library,
    perturb,
    restore_degree_cap,
)

M_MAX, K_MAX = 7, 9
SMOKE_M_MAX, SMOKE_K_MAX = 2, 3
DIGESTS = HERE / "expected_digests.json"


def table_digest(conditions, strata) -> str:
    """Digest of the rendered condition table and its symbol stratum."""
    text = "\n".join(conditions.rendered) + "\n--\n" + "\n".join(strata.rendered)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def raw_rows(lib, m: int, k: int) -> int:
    """Rows built before elimination, computed: one row per jet order 0..m
    for each member of the spanning family, with the degree bounds that
    condition generation uses for order k."""
    family = lib.operators.spanning_family(lib.glued.SpaceSpec(m), k + m, k + m + 1)
    return sum(1 for _ in family) * (m + 1)


@dataclass
class State:
    lib: object
    rng: random.Random
    points: list
    expected: dict


def setup(seed: int, smoke: bool, tracer) -> State:
    lib = load_library()
    instrument(lib, tracer)
    m_max, k_max = (SMOKE_M_MAX, SMOKE_K_MAX) if smoke else (M_MAX, K_MAX)
    points = [(m, k) for m in range(m_max + 1) for k in range(k_max + 1)]
    expected = json.loads(DIGESTS.read_text())
    return State(lib, random.Random(f"condition_grid:{seed}"), points, expected)


def _probe_gate(lib, m: int, k: int, rng) -> None:
    """A sampled solution-space pair passes both oracles; breaking one jet
    unknown makes both fail."""
    ops, space = lib.operators, lib.glued.SpaceSpec(m)
    depth = ops.default_probe_degree(space, k)
    pair = lib.sampling.random_admissible_pair(space, k, rng)
    bad = perturb(lib, pair.d1, pair.d2, space, k, rng)
    for (d1, d2), want in (((pair.d1, pair.d2), True), (bad, False)):
        if ops.check_admissible(d1, d2, space, k).ok != want:
            raise WrongAnswer(f"check at ({m}, {k})")
        if ops.probe_admissible(d1, d2, space, depth) != want:
            raise WrongAnswer(f"probe at ({m}, {k})")


def run_block(state: State, block: int, outcome: Outcome, tracer) -> None:
    lib = state.lib
    order = list(state.points)
    state.rng.shuffle(order)
    for m, k in order:
        clear_condition_caches(lib)
        before = cache_counts(lib)
        op = outcome.start(tracer)
        if tracer:
            tracer.op_id = f"{block}:{m},{k}"
        failure = None
        try:
            conditions = op.call(
                "operators.generate", lib.operators.generate_conditions, lib.glued.SpaceSpec(m), k
            )
            strata = op.call("symbols.conditions", lib.symbols.symbol_conditions, m, k)
            after = cache_counts(lib)
            if restore_degree_cap(lib):
                outcome.counts["cap_leaks"] += 1
                raise WrongAnswer("degree cap leaked")
            op.step = "digest"
            if table_digest(conditions, strata) != state.expected.get(f"{m},{k}"):
                raise WrongAnswer(f"rendered tables changed at ({m}, {k})")
            if block == 0:
                op.step = "probe_gate"
                _probe_gate(lib, m, k, state.rng)
            for which in ("generate", "symbols"):
                outcome.counts[f"{which}_hits"] += after[which][0] - before[which][0]
                outcome.counts[f"{which}_misses"] += after[which][1] - before[which][1]
            outcome.peak("unknowns", len(conditions.variables))
            outcome.peak("rank", len(conditions.rows))
            outcome.peak("raw_rows", raw_rows(lib, m, k))
        except Exception as exc:  # every failure is counted, never fatal
            failure = type(exc).__name__
            restore_degree_cap(lib)
        outcome.add(f"{m},{k}", op, failure)
