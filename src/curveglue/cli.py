"""Command-line front end.

Subcommand per operation; reads DSL blocks from file arguments or stdin
('-'), writes human-readable text or machine-readable JSON (--json).

Exit status: 0 success/admissible, 1 well-formed input failing a check,
2 malformed or invalid input.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import TYPE_CHECKING

from . import dsl
from .errors import AdmissibilityError, CurveGlueError
from .glued import SpaceSpec, extend_to_plane, restrict_to_branches
from .poly import Poly, degree_cap, get_degree_cap, poly2_str, rational_str

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
    return [rational_str(c, p.den) for c in p.nums]


def _op_coeffs(op: BranchOp) -> list[list[str]]:
    return [_poly_coeffs(c) for c in op.coeffs]


def _emit(args, lines, space, verdict="pass", *, result=None, order=None, report=None, probe=None):
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
    payload["violations"] = [
        {"constraint": v.constraint, "lhs": rational_str(*v.lhs.as_integer_ratio()),
         "rhs": "0"}
        for v in (report.violations if report else ())
    ]
    if probe is not None:
        payload["probe"] = probe
    if result is not None:
        payload["result"] = result
    import json  # only --json output needs it
    print(json.dumps(payload, indent=2))


def _load_two(paths: list[str], parse_many):
    """Two blocks: both in one file, or one in each of two files."""
    if len(paths) not in (1, 2):
        raise CurveGlueError("expected one or two input files")
    items = []
    for path in paths:
        found = parse_many(_read(path))
        if len(found) != 3 - len(paths):
            raise CurveGlueError(f"expected {3 - len(paths)} block(s) in {path}, found {len(found)}")
        items += found
    return items


def _cmd_check(args) -> int:
    from .operators import check_admissible, default_probe_degree, probe_admissible
    pair = dsl.parse_paired(_read(args.file))
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
            raise CurveGlueError(
                f"--probe-depth {depth} exceeds the degree cap {cap} (raise it with --max-degree)"
            )
    report = check_admissible(pair.d1, pair.d2, args.space, order)
    verdict = "admissible" if report.ok else "inadmissible"
    lines = [f"space {args.space}, order {order}: "
             + ("admissible" if report.ok else "NOT admissible")]
    for v in report.violations:
        lhs = rational_str(*v.lhs.as_integer_ratio())
        lines.append(f"  violated: {v.constraint}   (lhs = {lhs}, rhs = 0)")
    probe = None
    if depth is not None:
        probed = probe_admissible(pair.d1, pair.d2, args.space, depth)
        probe = {"depth": depth, "verdict": "admissible" if probed else "inadmissible"}
        lines.append(f"probe (depth {depth}): " + ("admissible" if probed else "NOT admissible"))
    _emit(args, lines, args.space, verdict, order=order, report=report, probe=probe)
    return 0 if report.ok else 1


def _cmd_combine(args) -> int:
    from .operators import make_pair, pair_commutator, pair_compose
    parsed = _load_two(args.files, dsl.parse_many_paired)
    a, b = (make_pair(p.d1, p.d2, args.space, p.declared_order) for p in parsed)
    pair = (pair_compose if args.verb == "compose" else pair_commutator)(a, b)
    text = dsl.render_paired(pair)
    _emit(args, [text], pair.space, "admissible", result={
        "order": pair.order,
        "branch_x": _op_coeffs(pair.d1),
        "branch_y": _op_coeffs(pair.d2),
        "dsl": text,
    })
    return 0


def _emit_symbol(args, sym) -> int:
    text = dsl.render_symbol(sym)
    _emit(args, [text], sym.space, result={
        "degree": sym.degree,
        "a": _poly_coeffs(sym.a),
        "b": _poly_coeffs(sym.b),
        "dsl": text,
    })
    return 0


def _cmd_symbol(args) -> int:
    from .operators import make_pair
    from .symbols import pair_symbol
    parsed = dsl.parse_paired(_read(args.file))
    order = args.degree if args.degree is not None else parsed.declared_order
    return _emit_symbol(args, pair_symbol(make_pair(parsed.d1, parsed.d2, args.space, order)))


def _parse_symbols_text(text: str):
    return [dsl.parse_symbol(line, number) for number, line in dsl._numbered_lines(text)]


def _cmd_bracket(args) -> int:
    from .symbols import poisson_bracket
    symbols = _load_two(args.files, _parse_symbols_text)
    return _emit_symbol(args, poisson_bracket(symbols[0], symbols[1]))


def _cmd_conditions(args) -> int:
    from .operators import generate_conditions
    rendered = list(generate_conditions(args.space, args.order).rendered)
    _emit(args, rendered, args.space, result={"constraints": rendered}, order=args.order)
    return 0


def _embed_poly(args) -> Poly | None:
    return dsl.parse_poly(args.embed) if args.embed is not None else None


def _cmd_extend(args) -> int:
    lines = dsl._numbered_lines(_read(args.file))
    if len(lines) != 1:
        raise CurveGlueError(f"expected one pair line, found {len(lines)}")
    number, line = lines[0]
    glued = dsl.parse_glued(line, number)
    surface = extend_to_plane(glued, _embed_poly(args))
    text = poly2_str(surface)
    _emit(args, [text], glued.space, result={
        "slices": [_poly_coeffs(s) for s in surface.slices],
        "dsl": text,
    })
    return 0


def _cmd_restrict(args) -> int:
    surface = dsl.parse_poly2(_read(args.file))
    glued = restrict_to_branches(surface, _embed_poly(args), args.space)
    text = dsl.render_glued(glued)
    _emit(args, [text], args.space, result={
        "f": _poly_coeffs(glued.f),
        "g": _poly_coeffs(glued.g),
        "dsl": text,
    })
    return 0


def _cmd_witness(args) -> int:
    from .spectra import char_eval, separating_witness
    lines = dsl._numbered_lines(_read(args.file))
    if len(lines) != 2:
        raise CurveGlueError(f"expected two character lines, found {len(lines)}")
    c1, c2 = (dsl.parse_char(line, number) for number, line in lines)
    # Any bound >= m + 1 finds a witness whenever the points differ.
    witness = separating_witness(c1, c2, args.space, args.space.m + 3)
    if witness is None:
        text = "none (both characters denote the same point)"
        result = {"witness": None}
    else:
        text = dsl.render_glued(witness)
        result = {
            "witness": text,
            "values": [rational_str(*char_eval(c, witness).as_integer_ratio()) for c in (c1, c2)],
        }
    _emit(args, [text], args.space, result=result)
    return 0


def _cmd_nullity(args) -> int:
    from .spectra import nullity_identity_check
    checks = nullity_identity_check(args.space)
    all_ok = all(c.passed for c in checks)
    lines = [f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}" for c in checks]
    _emit(args, lines, args.space, "pass" if all_ok else "fail", result={
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks]
    })
    return 0 if all_ok else 1


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
            raise CurveGlueError(
                f"{option} {value} exceeds the degree cap {cap} (raise it with --max-degree)"
            )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in _VERBS else None).parse_args(argv)
    try:
        with degree_cap(args.max_degree or get_degree_cap()):
            _check_sizes(args)
            return args.func(args)
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
