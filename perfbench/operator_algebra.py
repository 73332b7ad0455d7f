"""operator_algebra: warm-cache operator, symbol and spectrum algebra.

Set-up imports the library, warms both condition caches for every
(m, order) the operations reach, and samples seeded pairs with
``random_admissible_pair`` for m in 0..3 and k in 1..4.  Every coefficient
then gets a random tail of degree exactly 4.  A kind is a fixed
(m, k, probe degree, admissible) for every seed: each (k, probe degree) of
k in 1..4 and probe degree in 4..8 gets its m and, for a quarter of them, a
perturbation to an inadmissible pair once, from a constant layout.  So
every sample of a kind has the same sizes and code path, and a seed changes
only values and order.  ``Poly`` multiply and derive inside ``apply``,
``compose`` and ``verify_order`` dominate; ``rref`` hardly runs once the
caches are warm."""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass

from harness import (
    Op,
    Outcome,
    WrongAnswer,
    cache_counts,
    instrument,
    load_library,
    perturb,
    random_character,
    restore_degree_cap,
)

M_VALUES = (0, 1, 2, 3)
ORDERS = (1, 2, 3, 4)
PROBE_DEGREES = (4, 5, 6, 7, 8)
POOL_BLOCKS = 12  # distinct inputs for this many blocks, then reused
DEGREE = 4  # the degree of every sampled coefficient and glued branch
SMOKE = dict(ms=(0, 1), orders=(1, 2), degrees=(4, 5), blocks=1)


@dataclass
class Case:
    kind: str
    pair: object  # PairedOp; built unchecked when perturbed
    admissible: bool
    other: object  # admissible pair on the same space and order
    glued: object
    chars: tuple
    probe_degree: int


@dataclass
class State:
    lib: object
    blocks: list


def setup(seed: int, smoke: bool, tracer) -> State:
    lib = load_library()
    instrument(lib, tracer)
    size = SMOKE if smoke else dict(
        ms=M_VALUES, orders=ORDERS, degrees=PROBE_DEGREES, blocks=POOL_BLOCKS
    )
    space = {m: lib.glued.SpaceSpec(m) for m in size["ms"]}
    # Composition reaches order 2k and its symbol degree 2k - 1.
    for m in size["ms"]:
        for order in range(2 * max(size["orders"]) + 1):
            with tracer.span("operators.generate") if tracer else nullcontext():
                lib.operators.generate_conditions(space[m], order)
            with tracer.span("symbols.conditions") if tracer else nullcontext():
                lib.symbols.symbol_conditions(m, order)
    rng = random.Random(f"operator_algebra:{seed}")
    blocks = []
    for _ in range(size["blocks"]):
        cases = []
        for m, k, degree, admissible in _kinds(size):
            pair = _sample(lib, space[m], k, rng)
            if not admissible:
                d1, d2 = perturb(lib, pair.d1, pair.d2, space[m], k, rng)
                pair = lib.operators.PairedOp(d1, d2, space[m], k)
            cases.append(
                Case(
                    f"m{m}.k{k}.d{degree}.{'ok' if admissible else 'bad'}",
                    pair,
                    admissible,
                    _sample(lib, space[m], k, rng),
                    _glued(lib, space[m], rng),
                    (random_character(lib, rng), random_character(lib, rng)),
                    degree,
                )
            )
        rng.shuffle(cases)
        blocks.append(cases)
    return State(lib, blocks)


def _kinds(size) -> list[tuple[int, int, int, bool]]:
    """(m, k, probe degree, admissible) of every kind, the same for every
    seed: m spread evenly and a quarter of the kinds inadmissible."""
    combos = [(k, d) for k in size["orders"] for d in size["degrees"]]
    layout = random.Random("operator_algebra:kinds")
    ms = list(size["ms"]) * (len(combos) // len(size["ms"]))
    layout.shuffle(ms)
    broken = set(layout.sample(range(len(combos)), len(combos) // 4))
    return [(m, k, d, i not in broken) for i, ((k, d), m) in enumerate(zip(combos, ms))]


def _rational(rng, nonzero=False):
    top = rng.randint(1, 4) * rng.choice((-1, 1)) if nonzero else rng.randint(-4, 4)
    return f"{top}/{rng.randint(1, 3)}"


def _retail(lib, p, m: int, rng):
    """p with its m-jet kept and a fresh random tail of degree exactly DEGREE.

    Terms above the contact order never change admissibility or the glued
    condition, and one degree for every coefficient gives each (k, probe
    degree) stratum one problem size, so seeds change values, not sizes."""
    tail = [0] * (m + 1) + [_rational(rng) for _ in range(m + 1, DEGREE)]
    return lib.poly.Poly.of(*p.coeffs[: m + 1]) + lib.poly.Poly.of(*tail, _rational(rng, True))


def _sample(lib, space, k: int, rng):
    pair = lib.sampling.random_admissible_pair(space, k, rng)
    d1, d2 = (
        lib.operators.BranchOp.of(*(_retail(lib, op.coeff(s), space.m, rng) for s in range(k + 1)))
        for op in (pair.d1, pair.d2)
    )
    return lib.operators.PairedOp(d1, d2, space, k)


def _glued(lib, space, rng):
    u = lib.glued.random_glued(space, rng)
    f, g = (_retail(lib, branch, space.m, rng) for branch in (u.f, u.g))
    return lib.glued.make_glued(f, g, space)


def _mul_derive(a_coeffs, b_coeffs):
    """The benchmark's own Poly work: products of matching coefficients and
    the derivatives of each factor and of the product."""
    return [(a, b, a * b, a.derive(), b.derive(), (a * b).derive())
            for a, b in zip(a_coeffs, b_coeffs)]


def _run_case(lib, case: Case, op: Op, outcome: Outcome) -> None:
    dsl, ops, sym = lib.dsl, lib.operators, lib.symbols
    p, q, u = case.pair, case.other, case.glued
    space, k = p.space, p.order

    text = op.call("dsl.render", dsl.render_paired, p)
    parsed = op.call("dsl.parse", dsl.parse_paired, text)
    if (parsed.d1, parsed.d2, parsed.declared_order) != (p.d1, p.d2, k):
        raise WrongAnswer("DSL round trip")

    report = op.call("operators.check", ops.check_admissible, p.d1, p.d2, space, k)
    depth = ops.default_probe_degree(space, k)
    probed = op.call("operators.probe", ops.probe_admissible, p.d1, p.d2, space, depth)
    if not report.ok == probed == case.admissible:
        raise WrongAnswer("check and probe disagree")

    products = op.call("poly.mul_derive", _mul_derive, p.d1.coeffs, p.d2.coeffs)
    for a, b, ab, da, db, dab in products:
        if dab != da * b + a * db:
            raise WrongAnswer("product rule")
    degrees = [ab.degree for _, _, ab, *_ in products]

    if case.admissible:
        comp = op.call("operators.compose", ops.pair_compose, p, q)
        comm = op.call("operators.commutator", ops.pair_commutator, p, q)
        image = op.call("glued.pair_apply", ops.pair_apply, p, u)
        qu = ops.pair_apply(q, u)
        pqu, qpu = ops.pair_apply(p, qu), ops.pair_apply(q, image)
        if ops.pair_apply(comp, u) != pqu:
            raise WrongAnswer("compose against sequential apply")
        if ops.pair_apply(comm, u) != pqu - qpu:
            raise WrongAnswer("commutator against sequential apply")
        sp = op.call("symbols.make_symbol", sym.pair_symbol, p)
        sq = op.call("symbols.make_symbol", sym.pair_symbol, q)
        bracket = op.call("symbols.bracket", sym.poisson_bracket, sp, sq)
        via = op.call("symbols.bracket_via_commutator", sym.bracket_via_commutator, p, q)
        if bracket != via:
            raise WrongAnswer("bracket formula against commutator")
        results = comp.d1.coeffs + comp.d2.coeffs + comm.d1.coeffs + comm.d2.coeffs
        degrees += [c.degree for c in results]
        degrees += [image.f.degree, image.g.degree, bracket.a.degree, bracket.b.degree]

    c1, c2 = case.chars
    witness = op.call(
        "spectra.witness", lib.spectra.separating_witness, c1, c2, space, space.m + 3
    )
    if witness is None:
        if c1 != c2:
            raise WrongAnswer("no witness for distinct points")
    elif lib.spectra.char_eval(c1, witness) == lib.spectra.char_eval(c2, witness):
        raise WrongAnswer("witness does not separate")

    outcome.peak("peak_degree", max([d for d in degrees if d >= 0], default=0))
    if not op.call("operators.verify_order", ops.verify_order, p.d1, k, case.probe_degree):
        raise WrongAnswer("verify_order rejected an order-k operator")


def run_block(state: State, block: int, outcome: Outcome, tracer) -> None:
    lib = state.lib
    cases = state.blocks[block % len(state.blocks)]
    before = cache_counts(lib)
    for i, case in enumerate(cases):
        op = outcome.start(tracer)
        if tracer:
            tracer.op_id = f"{block}:{i}"
        failure = None
        try:
            _run_case(lib, case, op, outcome)
        except Exception as exc:  # every failure is counted, never fatal
            failure = type(exc).__name__
            if failure == "DegreeCapExceeded":
                outcome.counts["cap_exceeded"] += 1
        if restore_degree_cap(lib):
            outcome.counts["cap_leaks"] += 1
            failure = failure or "DegreeCapLeak"
        outcome.add(case.kind, op, failure)
    after = cache_counts(lib)
    for which in ("generate", "symbols"):
        outcome.counts[f"{which}_hits"] += after[which][0] - before[which][0]
        outcome.counts[f"{which}_misses"] += after[which][1] - before[which][1]
