"""cli_session: one ``python -m curveglue.cli`` process per operation.

A CLI user pays interpreter start-up, import, DSL parsing and rendering on
every call while the algebra is tiny, so start-up and I/O changes show here
and ``rref`` or probe changes should not.  Each block of 31 operations holds
the 18 golden-backed invocations, 10 generated ones (one per verb,
alternating text and ``--json``) and 3 malformed inputs, in seeded order.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

from harness import (
    ROOT,
    SRC,
    Outcome,
    WrongAnswer,
    load_library,
    perturb,
    random_character,
    restore_degree_cap,
)

DATA = ROOT / "tests" / "data"
GOLDEN = ROOT / "tests" / "golden"
TIMEOUT_S = 60
POOL_BLOCKS = 12  # distinct generated inputs for this many blocks, then reused

# The golden-backed invocations of tests/test_cli.py: (golden file, exit
# status, argv with data files relative to tests/data, input kind).
CORPUS = [
    ("check_euler_K1.txt", 0, ["check", "@pair_euler_K1.txt", "--space", "K1"], "pairs"),
    ("check_dd_K0.txt", 1, ["check", "@pair_dd_K0.txt", "--space", "K0"], "pairs"),
    ("check_normal_form.txt", 1,
     ["check", "@pair_normal_form.txt", "--space", "K1", "--probe-depth"], "pairs"),
    ("compose_euler_squared.txt", 0,
     ["compose", "@pair_euler_K1.txt", "@pair_euler_K1.txt", "--space", "K1"], "pairs"),
    ("commutator_two_eulers.txt", 0,
     ["commutator", "@pair_two_eulers_K1.txt", "--space", "K1"], "pairs"),
    ("symbol_second_order.txt", 0,
     ["symbol", "@pair_second_order_K1.txt", "--space", "K1"], "pairs"),
    ("bracket_symbols_K1.txt", 0, ["bracket", "@symbols_K1.txt"], "symbols"),
    ("extend_linear.txt", 0, ["extend", "@glued_linear_K1.txt"], "glued"),
    ("restrict_xy.txt", 0, ["restrict", "@surface_xy.txt", "--space", "K1"], "surface"),
    ("witness_branch_points.txt", 0,
     ["witness", "@chars_branch_points.txt", "--space", "K0"], "chars"),
    ("witness_same_point.txt", 0, ["witness", "@chars_same_point.txt", "--space", "K1"], "chars"),
    ("nullity_K0.txt", 0, ["nullity", "--space", "K0"], None),
    ("nullity_K1.txt", 0, ["nullity", "--space", "K1"], None),
    ("conditions_K0_order3.txt", 0, ["conditions", "--space", "K0", "--order", "3"], None),
    ("conditions_K1_order0.txt", 0, ["conditions", "--space", "K1", "--order", "0"], None),
    ("conditions_K1_order1.txt", 0, ["conditions", "--space", "K1", "--order", "1"], None),
    ("conditions_K1_order2.txt", 0, ["conditions", "--space", "K1", "--order", "2"], None),
    ("conditions_K1_order3.txt", 0, ["conditions", "--space", "K1", "--order", "3"], None),
]

# Malformed inputs must exit 2 with an "error:" line and no traceback.  Every
# block runs all of them, so a run's failed share does not depend on its length.
MALFORMED = [
    (["extend", "-"], "pair m=1: 1/0 | 1\n", "glued"),
    (["witness", "-", "--space", "K0"], "char branch=3 at=1\nchar branch=1 at=1\n", "chars"),
    (["check", "-", "--space", "K0"],
     "branch x\nop order=1\ncoeff 9: x\nbranch y\nop order=1\ncoeff 1: 1\n", "pairs"),
]

VERBS = ("check", "compose", "commutator", "symbol", "bracket",
         "extend", "restrict", "witness", "conditions", "nullity")


@dataclass
class Invocation:
    source: str  # golden, generated or malformed
    verb: str
    argv: list
    stdin: str | None
    status: int
    check: object  # stdout text -> None, raises WrongAnswer; None for malformed input
    dsl_kind: str | None = None  # DSL value kind of the input, for traced parsing
    text: str = field(default="", repr=False)  # the input DSL, for traced parsing
    name: str = ""  # the operation kind: a golden file, a generated verb, or malformed

    def __post_init__(self):
        self.name = self.name or f"{self.source}.{self.verb}"


@dataclass
class State:
    lib: object
    env: dict
    golden: list
    generated: list
    malformed: list
    rng: random.Random


def _argv(args):
    return [str(DATA / a[1:]) if a.startswith("@") else a for a in args]


def _golden(name, status, args, kind):
    expected = (GOLDEN / name).read_bytes().decode()

    def check(out):
        if out != expected:
            raise WrongAnswer(f"output differs from golden {name}")

    text = "\n".join((DATA / a[1:]).read_text() for a in args if a.startswith("@"))
    return Invocation("golden", args[0], _argv(args), None, status, check, kind, text,
                      f"golden.{name.removesuffix('.txt')}")


def _malformed(args, stdin, kind):
    return Invocation("malformed", args[0], list(args), stdin, 2, None, kind, stdin, "malformed")


def _result_dsl(out, as_json):
    return json.loads(out)["result"]["dsl"] if as_json else out.strip()


def _generated(lib, verb: str, as_json: bool, rng) -> Invocation:
    """A small seeded input for one verb (m <= 2, k <= 3) and the check of
    its answer against the library called in-process."""
    d, ops, sym, glued = lib.dsl, lib.operators, lib.symbols, lib.glued
    m, k = rng.randint(0, 2), rng.randint(1, 3)
    space = glued.SpaceSpec(m)
    flags = ["--json"] if as_json else []
    pair = lambda: lib.sampling.random_admissible_pair(space, k, rng)  # noqa: E731

    def equal_to(parse, expected):
        def check(out):
            if parse(_result_dsl(out, as_json)) != expected:
                raise WrongAnswer(f"{verb} result differs from the library")
        return check

    if verb == "check":
        p, status = pair(), 0
        d1, d2 = p.d1, p.d2
        if rng.random() < 1 / 3:
            (d1, d2), status = perturb(lib, d1, d2, space, k, rng), 1
        text = d.render_paired(ops.PairedOp(d1, d2, space, k))
        want = ("admissible", "inadmissible" if as_json else "NOT admissible")[status]

        def check(out):
            got = json.loads(out)["verdict"] if as_json else out.splitlines()[0].split(": ")[-1]
            if got != want:
                raise WrongAnswer("check verdict")

        return Invocation("generated", verb, ["check", "-", "--space", str(space), *flags],
                          text, status, check, "pairs", text)
    if verb in ("compose", "commutator"):
        p, q = pair(), pair()
        combine = ops.pair_compose if verb == "compose" else ops.pair_commutator
        r = combine(p, q)
        text = d.render_paired(p) + "\n\n" + d.render_paired(q)
        parse = lambda s: tuple(d.parse_paired(s))  # noqa: E731
        # --max-degree leaks the global cap in-process; traced runs count it.
        argv = [verb, "-", "--space", str(space), "--max-degree", "40", *flags]
        return Invocation("generated", verb, argv, text, 0,
                          equal_to(parse, (r.d1, r.d2, r.order)), "pairs", text)
    if verb == "symbol":
        p = pair()
        text = d.render_paired(p)
        return Invocation("generated", verb, ["symbol", "-", "--space", str(space), *flags],
                          text, 0, equal_to(d.parse_symbol, sym.pair_symbol(p)), "pairs", text)
    if verb == "bracket":
        s, t = (lib.sampling.random_symbol(space, rng.randint(0, 3), rng) for _ in range(2))
        text = d.render_symbol(s) + "\n" + d.render_symbol(t) + "\n"
        return Invocation("generated", verb, ["bracket", "-", *flags], text, 0,
                          equal_to(d.parse_symbol, sym.poisson_bracket(s, t)), "symbols", text)
    if verb == "extend":
        u = glued.random_glued(space, rng)
        text = d.render_glued(u) + "\n"
        return Invocation("generated", verb, ["extend", "-", *flags], text, 0,
                          equal_to(d.parse_poly2, glued.extend_to_plane(u)), "glued", text)
    if verb == "restrict":
        surface = lib.poly.Poly2.of(glued.random_poly(rng, 3), glued.random_poly(rng, 2))
        text = lib.poly.poly2_str(surface) + "\n"
        expected = glued.restrict_to_branches(surface, None, space)
        return Invocation("generated", verb, ["restrict", "-", "--space", str(space), *flags],
                          text, 0, equal_to(d.parse_glued, expected), "surface", text)
    if verb == "witness":
        c1, c2 = random_character(lib, rng), random_character(lib, rng)
        text = d.render_char(c1) + "\n" + d.render_char(c2) + "\n"

        def check(out):
            found = json.loads(out)["result"]["witness"] if as_json else out.strip()
            if c1 == c2:
                if found is not None and not found.startswith("none"):
                    raise WrongAnswer("witness for one point")
                return
            u = d.parse_glued(found)
            if lib.spectra.char_eval(c1, u) == lib.spectra.char_eval(c2, u):
                raise WrongAnswer("witness does not separate")

        return Invocation("generated", verb, ["witness", "-", "--space", str(space), *flags],
                          text, 0, check, "chars", text)
    if verb == "conditions":
        rendered = list(ops.generate_conditions(space, k).rendered)

        def check(out):
            got = json.loads(out)["result"]["constraints"] if as_json else out.splitlines()
            if got != rendered:
                raise WrongAnswer("condition table differs from the library")

        argv = ["conditions", "--space", str(space), "--order", str(k), *flags]
        return Invocation("generated", verb, argv, None, 0, check)
    m = rng.randint(0, 1)

    def check(out):
        passed = ([c["passed"] for c in json.loads(out)["result"]["checks"]] if as_json
                  else [line.startswith("PASS") for line in out.splitlines()])
        if not passed or not all(passed):
            raise WrongAnswer("nullity identity failed")

    argv = ["nullity", "--space", f"K{m}", *flags]
    return Invocation("generated", "nullity", argv, None, 0, check)


def _spawn(env, argv, stdin):
    return subprocess.run(
        [sys.executable, *argv], input=(stdin or "").encode(), capture_output=True,
        cwd=ROOT, env=env, timeout=TIMEOUT_S,
    )


def setup(seed: int, smoke: bool, tracer) -> State:
    lib = load_library()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    rng = random.Random(f"cli_session:{seed}")
    golden = [_golden(*entry) for entry in CORPUS]
    malformed = [_malformed(*entry) for entry in MALFORMED]
    generated = []
    for block in range(1 if smoke else POOL_BLOCKS):
        verbs = list(VERBS)
        rng.shuffle(verbs)
        generated += [_generated(lib, v, (block + i) % 2 == 1, rng) for i, v in enumerate(verbs)]
    restore_degree_cap(lib)
    # The first CLI start in a fresh checkout also compiles the bytecode.
    _spawn(env, ["-m", "curveglue.cli", "nullity", "--space", "K0"], None)
    return State(lib, env, golden, generated, malformed, rng)


def _block_invocations(state: State, block: int) -> list:
    n_gen = len(VERBS)
    generated = state.generated[(block * n_gen) % len(state.generated):][:n_gen]
    chosen = state.golden + generated + state.malformed
    state.rng.shuffle(chosen)
    return chosen


def _judge(inv: Invocation, proc) -> None:
    """Raise if the CLI's exit status or output is wrong."""
    err = proc.stderr.decode(errors="replace")
    if "Traceback" in err:
        raise _Crash(err.strip().splitlines()[-1].split(":")[0])
    if proc.returncode != inv.status:
        raise WrongAnswer(f"exit status {proc.returncode}, expected {inv.status}")
    if inv.source == "malformed":
        if not err.startswith("error:"):
            raise WrongAnswer("malformed input without an error message")
        return
    inv.check(proc.stdout.decode())


class _Crash(Exception):
    """The CLI died with an uncaught exception; the name is its class."""


# Traced runs also time the layers under a CLI call: bare interpreter
# start-up, the package import inside a child, main() in-process, and the
# DSL parse and render of the call's input.
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import curveglue.cli; "
    "print((time.perf_counter() - t) * 1000)"
)


def _dsl_probe(lib, inv: Invocation, tracer) -> None:
    d = lib.dsl
    lines = [line for line in inv.text.splitlines() if line.split("#", 1)[0].strip()]
    parse, render = {
        "pairs": (d.parse_many_paired, lambda vs: "\n".join(map(d.render_paired, vs))),
        "symbols": (lambda t: [d.parse_symbol(line) for line in lines],
                    lambda vs: "\n".join(map(d.render_symbol, vs))),
        "glued": (d.parse_glued, d.render_glued),
        "surface": (lambda t: d.parse_poly2(" ".join(line.split("#", 1)[0] for line in lines)),
                    lib.poly.poly2_str),
        "chars": (lambda t: [d.parse_char(line) for line in lines],
                  lambda vs: "\n".join(map(d.render_char, vs))),
    }[inv.dsl_kind]
    try:
        with tracer.span("dsl.parse"):
            value = parse(inv.text)
    except Exception:  # malformed inputs are meant to fail here
        return
    with tracer.span("dsl.render"):
        render(value)


def _layer_probes(state: State, inv: Invocation, tracer, outcome: Outcome) -> None:
    lib = state.lib
    with tracer.span("cli.interpreter"):
        _spawn(state.env, ["-c", "pass"], None)
    proc = _spawn(state.env, ["-c", _IMPORT_PROBE], None)
    tracer.values["cli.import"].append(float(proc.stdout.decode()))
    saved = sys.stdin
    sys.stdin = io.StringIO(inv.stdin or "")
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            with tracer.span(f"cli.main.{inv.verb}"):
                try:
                    lib.cli.main(inv.argv)
                except (Exception, SystemExit):  # malformed inputs may escape main
                    pass
    finally:
        sys.stdin = saved
    if restore_degree_cap(lib):
        outcome.counts["cap_leaks"] += 1
    if inv.dsl_kind:
        _dsl_probe(lib, inv, tracer)


def run_block(state: State, block: int, outcome: Outcome, tracer) -> None:
    for i, inv in enumerate(_block_invocations(state, block)):
        op = outcome.start(tracer)
        if tracer:
            tracer.op_id = f"{block}:{i}"
        failure = None
        try:
            argv = ["-m", "curveglue.cli", *inv.argv]
            proc = op.call("cli.subprocess", _spawn, state.env, argv, inv.stdin)
            op.step = f"{inv.source}.{inv.verb}"
            _judge(inv, proc)
        except Exception as exc:  # every failure is counted, never fatal
            failure = exc.args[0] if isinstance(exc, _Crash) else type(exc).__name__
        outcome.add(inv.name, op, failure)
        if tracer:
            _layer_probes(state, inv, tracer, outcome)
