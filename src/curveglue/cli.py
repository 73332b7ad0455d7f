"""Command-line front end.

Subcommand per operation; reads DSL blocks from file arguments or stdin
('-'), writes human-readable text or machine-readable JSON (--json).

Each verb's handler returns its output, ``(lines, space, verdict, fields)``,
and :func:`main` prints it and maps the verdict to the exit status: 1 for
``inadmissible`` or ``fail`` (well-formed input failing a check), else 0;
2 for malformed or invalid input.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import TYPE_CHECKING

from . import dsl
from .errors import AdmissibilityError, CurveGlueError
from .glued import SpaceSpec, extend_to_plane, restrict_to_branches
from .poly import Poly, degree_cap, get_degree_cap, rational_str

if TYPE_CHECKING:
    from .operators import BranchOp

_SPACE = re.compile(r"^K(\d+)$")


def _space_arg(value: str) -> SpaceSpec:
    match = _SPACE.match(value)
    if not match:
        raise argparse.ArgumentTypeError(f"space must look like K0, K1, ..., got {value!r}")
    return SpaceSpec(int(match.group(1)))


def _cap_arg(value: str) -> int:
    cap = int(value) if value.isdecimal() else 0
    if cap < 1:
        raise argparse.ArgumentTypeError(f"degree cap must be a positive integer, got {value!r}")
    return cap


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        name = "stdin" if path == "-" else path
        raise CurveGlueError(f"{name}: not valid UTF-8 at byte {exc.start}") from None


def _poly_coeffs(p: Poly) -> list[str]:
    nums, den = p  # a Poly, or any (nums, den) pair
    return [rational_str(c, den) for c in nums]


def _op_coeffs(op: BranchOp) -> list[list[str]]:
    return [_poly_coeffs((row, op.den)) for row in op.rows]


def _emit(args, lines, space, verdict, *, result=None, order=None, violations=(), probe=None):
    """Print the text lines, or with --json the payload every verb shares:
    verb, space, [order,] verdict, violations, then [probe] and [result]."""
    if not args.json:
        for line in lines:
            print(line)
        return
    payload = {"verb": args.verb, "space": str(space)}
    if order is not None:
        payload["order"] = order
    payload["verdict"] = verdict
    payload["violations"] = list(violations)
    if probe is not None:
        payload["probe"] = probe
    if result is not None:
        payload["result"] = result
    import json  # only --json output needs it
    print(json.dumps(payload, indent=2))


def _output(value, space, verdict, **result):
    """A value verb's output: the value's DSL text is the one text line, and
    the last field of its --json result."""
    text = str(value)
    return [text], space, verdict, {"result": {**result, "dsl": text}}


def _too_large(option: str, value: int, cap: int) -> CurveGlueError:
    return CurveGlueError(f"{option} {value} exceeds the degree cap {cap} (raise it with --max-degree)")


def _lines(parse_line):
    """A reader of one block per line, for the one-line block kinds."""
    return lambda text: [parse_line(line, number) for number, line in dsl._numbered_lines(text)]


def _load(paths: list[str], parse, count: int) -> list:
    """``count`` blocks: all in one file, or one in each of ``count`` files.
    Each file is parsed whole before its blocks are counted."""
    if len(paths) not in (1, count):  # only the two-block verbs take several files
        raise CurveGlueError("expected one or two input files")
    want = count // len(paths)
    blocks = []
    for path in paths:
        found = parse(_read(path))
        if len(found) != want:
            raise CurveGlueError(f"expected {want} block(s) in {path}, found {len(found)}")
        blocks += found
    return blocks


def _cmd_check(args):
    from .operators import check_admissible, default_probe_degree, probe_admissible
    [pair] = _load([args.file], dsl.parse_many_paired, 1)
    order = args.order if args.order is not None else pair.declared_order
    depth = None
    if args.probe_depth is not None:
        default = default_probe_degree(args.space, order)
        depth = args.probe_depth or default
        # (D f)^(i)(0), i <= m, reads f up to x^(k+m); a shallower probe misses it.
        if depth < order + args.space.m:
            raise CurveGlueError(
                f"--probe-depth {depth} is below the minimum {order + args.space.m} "
                f"(order {order} plus contact order {args.space.m})"
            )
        cap = get_degree_cap()  # one bound, given or default; the default may pass the cap
        if depth > max(cap, default):
            raise _too_large("--probe-depth", depth, cap)
    report = check_admissible(pair.d1, pair.d2, args.space, order)
    verdict = "admissible" if report.ok else "inadmissible"
    lines = [f"space {args.space}, order {order}: "
             + ("admissible" if report.ok else "NOT admissible")]
    violations = [{"constraint": v.constraint, "lhs": rational_str(*v.lhs.as_integer_ratio()),
                   "rhs": "0"} for v in report.violations]
    lines += [f"  violated: {v['constraint']}   (lhs = {v['lhs']}, rhs = {v['rhs']})"
              for v in violations]
    probe = None
    if depth is not None:
        probed = probe_admissible(pair.d1, pair.d2, args.space, depth)
        probe = {"depth": depth, "verdict": "admissible" if probed else "inadmissible"}
        lines.append(f"probe (depth {depth}): " + ("admissible" if probed else "NOT admissible"))
    return lines, args.space, verdict, {"order": order, "violations": violations, "probe": probe}


def _cmd_combine(args):
    from .operators import make_pair, pair_commutator, pair_compose
    parsed = _load(args.files, dsl.parse_many_paired, 2)
    a, b = (make_pair(p.d1, p.d2, args.space, p.declared_order) for p in parsed)
    pair = (pair_compose if args.verb == "compose" else pair_commutator)(a, b)
    return _output(pair, pair.space, "admissible", order=pair.order,
                   branch_x=_op_coeffs(pair.d1), branch_y=_op_coeffs(pair.d2))


def _symbol_output(sym):
    return _output(sym, sym.space, "pass", degree=sym.degree,
                   a=_poly_coeffs(sym.a), b=_poly_coeffs(sym.b))


def _cmd_symbol(args):
    from .operators import make_pair
    from .symbols import pair_symbol
    [parsed] = _load([args.file], dsl.parse_many_paired, 1)
    order = args.degree if args.degree is not None else parsed.declared_order
    return _symbol_output(pair_symbol(make_pair(parsed.d1, parsed.d2, args.space, order)))


def _cmd_bracket(args):
    from .symbols import poisson_bracket
    return _symbol_output(poisson_bracket(*_load(args.files, _lines(dsl.parse_symbol), 2)))


def _cmd_conditions(args):
    from .operators import generate_conditions
    rendered = list(generate_conditions(args.space, args.order).rendered)
    return rendered, args.space, "pass", {"result": {"constraints": rendered}, "order": args.order}


def _embed_poly(args) -> Poly | None:
    return dsl.parse_poly(args.embed) if args.embed is not None else None


def _cmd_extend(args):
    [glued] = _load([args.file], _lines(dsl.parse_glued), 1)
    surface = extend_to_plane(glued, _embed_poly(args))
    return _output(surface, glued.space, "pass", slices=[_poly_coeffs(s) for s in surface.slices])


def _cmd_restrict(args):
    surface = dsl.parse_poly2(_read(args.file))
    glued = restrict_to_branches(surface, _embed_poly(args), args.space)
    return _output(glued, args.space, "pass", f=_poly_coeffs(glued.f), g=_poly_coeffs(glued.g))


def _cmd_witness(args):
    from .spectra import char_eval, separating_witness
    c1, c2 = _load([args.file], _lines(dsl.parse_char), 2)
    # Any bound >= m + 1 finds a witness whenever the points differ.
    witness = separating_witness(c1, c2, args.space, args.space.m + 3)
    if witness is None:
        text = "none (both characters denote the same point)"
        result = {"witness": None}
    else:
        text = str(witness)
        result = {
            "witness": text,
            "values": [rational_str(*char_eval(c, witness).as_integer_ratio()) for c in (c1, c2)],
        }
    return [text], args.space, "pass", {"result": result}


def _cmd_nullity(args):
    from .spectra import nullity_identity_check
    checks = nullity_identity_check(args.space)
    all_ok = all(c.passed for c in checks)
    lines = [f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}" for c in checks]
    return lines, args.space, "pass" if all_ok else "fail", {"result": {
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks]
    }}


# Each verb: its handler, help, whether it takes --space, and its own arguments.
_VERBS = {
    "check": (_cmd_check, "check admissibility of a paired operator", True, [
        (["file"], {"help": "paired-operator file or '-' for stdin"}),
        (["--order"], {"type": int, "default": None}),
        (["--probe-depth"], {
            "type": int, "nargs": "?", "const": 0, "default": None, "metavar": "D",
            "help": "also run the brute-force probe, D >= order + m (0 or no value = default depth)",
        }),
    ]),
    **{verb: (_cmd_combine, f"{verb} of two admissible pairs", True, [
        (["files"], {"nargs": "+", "help": "one file with two pairs, or two files"}),
    ]) for verb in ("compose", "commutator")},
    "symbol": (_cmd_symbol, "symbol of an admissible pair", True, [
        (["file"], {}), (["--degree"], {"type": int, "default": None}),
    ]),
    "bracket": (_cmd_bracket, "Poisson bracket of two symbols", False, [
        (["files"], {"nargs": "+", "help": "one file with two symbols, or two files"}),
    ]),
    "conditions": (_cmd_conditions, "print the admissibility conditions", True, [
        (["--order"], {"type": int, "required": True}),
    ]),
    "extend": (_cmd_extend, "extend a glued pair to the plane", False, [
        (["file"], {}),
        (["--embed"], {"default": None, "metavar": "POLY",
                       "help": "embedding profile h (default x^(m+1))"}),
    ]),
    "restrict": (_cmd_restrict, "restrict a plane polynomial to the branches", True, [
        (["file"], {}), (["--embed"], {"default": None, "metavar": "POLY"}),
    ]),
    "witness": (_cmd_witness, "separating witness for two characters", True, [
        (["file"], {"help": "file with two 'char' lines"}),
    ]),
    "nullity": (_cmd_nullity, "verify the symbol-character nullity identities", True, []),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb, or with ``only`` of that verb alone: a call
    that names its verb builds one subparser.  The usage line lists every
    verb either way; the full build keeps argparse's own wording for a
    missing or unknown verb."""
    parser = argparse.ArgumentParser(
        prog="curveglue",
        description="Exact calculus on two curves glued with contact of order m",
    )
    metavar = None if only is None else "{" + ",".join(_VERBS) + "}"
    sub = parser.add_subparsers(dest="verb", required=True, metavar=metavar)
    for name, (func, summary, space, arguments) in _VERBS.items():
        if only not in (None, name):
            continue
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit structured JSON")
        p.add_argument(
            "--max-degree",
            type=_cap_arg,
            default=None,
            metavar="CAP",
            help="polynomial degree cap for this call",
        )
        if space:
            p.add_argument("--space", type=_space_arg, required=True)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


def _check_sizes(args) -> None:
    """The contact order and every order option stay within the degree cap,
    so no input asks for a system larger than the cap allows."""
    cap = get_degree_cap()
    sizes = {
        "--order": getattr(args, "order", None),
        "--degree": getattr(args, "degree", None),
    }
    space = getattr(args, "space", None)
    if space is not None:
        sizes[f"--space {space}: contact order"] = space.m
    for option, value in sizes.items():
        if value is not None and value > cap:
            raise _too_large(option, value, cap)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in _VERBS else None).parse_args(argv)
    try:
        with degree_cap(args.max_degree or get_degree_cap()):
            _check_sizes(args)
            lines, space, verdict, fields = args.func(args)
            _emit(args, lines, space, verdict, **fields)
        return 1 if verdict in ("inadmissible", "fail") else 0
    except AdmissibilityError as exc:
        # A well-formed pair that fails the conditions (compose, commutator, symbol).
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CurveGlueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
