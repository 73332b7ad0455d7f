"""Text syntax for polynomials, glued pairs, operators, symbols and
characters, shared between files and the CLI.

Expression grammar::

    rational := INT ('/' INT)?
    factor   := var ('^' INT)?
    mono     := rational ('*'? factor)* | factor ('*'? factor)*
    poly     := ('+'|'-')? mono (('+'|'-') mono)*

with var one of x, y.  Juxtaposition multiplies (``2 x^2 y``), each
variable appears at most once per mono, and an exponent is at most the
degree cap.  A plane polynomial (``parse_poly2``) may span several lines,
a line break counting as whitespace.  Line comments start with '#'.
Block forms:

    pair m=<INT>: <poly> | <poly>
    symbol deg=<INT> m=<INT>: <poly> | <poly>
    char branch=<1|2|sing> at=<rational>
    branch x            (label opening a paired-operator block)
    op order=<INT>
    coeff <i>: <poly>   (omitted indices are zero)
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

from .errors import DSLSyntaxError, JetMismatch
from .glued import GluedFunction, SpaceSpec, make_glued
from .poly import ZERO, Poly, Poly2, _poly, get_degree_cap, poly_str, rational_str

if TYPE_CHECKING:  # the parsers import these on use, so a call loads only what it reads
    from .operators import BranchOp
    from .spectra import Character
    from .symbols import SymbolElem

_TOKEN = re.compile(r"\d+(?:/\d+)?|[xy]|[*^+\-]|\S")


def _rational(text: str, error) -> tuple[int, int]:
    """The integers (numerator, denominator) of an ``INT`` or ``INT/INT``
    literal, not reduced; a numerator may carry a sign.  ``error(message)``
    builds the :class:`DSLSyntaxError` raised, so it is positioned only then."""
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # more digits than int() converts
        raise error(f"number too long ({len(text)} characters)") from None
    if not den:
        raise error(f"zero denominator in {text!r}")
    return num, den


def _capped(text: str, what: str, error, cap: int) -> int:
    """An integer that sizes the problem (exponent, contact order, degree,
    operator order), at most the degree cap ``cap``, read once by the caller."""
    value = _rational(text, error)[0]
    if value > cap:
        raise error(f"{what} {value} exceeds the degree cap {cap}")
    return value


def _terms(lines, offset: int = 0) -> tuple[dict[tuple[int, int], int], int]:
    """The sum of an expression spread over a list of ``(number, text)``
    lines, in integers: ``{(x power, y power): numerator}`` and the lcm of
    the literal denominators they share.  A line break is whitespace.  The
    grammar walks the token strings of one ``findall`` per line; only an
    error finds lines and columns, from the lines again.  Error columns
    count from ``offset`` + 1, and errors at the end of input have none."""
    toks, number, cap = [], 1, get_degree_cap()
    for number, text in lines:
        toks += _TOKEN.findall(text)
    if not toks:
        raise DSLSyntaxError("empty expression", number)
    toks.append("")  # the end of input

    def error(message: str) -> DSLSyntaxError:
        """The error at token i, or at the first unexpected character."""
        found = [(match.group(), line, offset + match.start() + 1)
                 for line, text in lines for match in _TOKEN.finditer(text)]
        for tok, line, column in found:
            if tok[0] not in "xy*^+-" and not tok[0].isdecimal():
                return DSLSyntaxError(f"unexpected character {tok!r}", line, column)
        return DSLSyntaxError(message, *(found[i][1:] if i < len(found) else (number,)))

    parts = []  # (key, signed numerator, denominator), one per term
    sign = -1 if toks[0] == "-" else 1
    i = 1 if toks[0] in ("+", "-") else 0
    while True:
        text = toks[i]
        num = den = 1
        powers = {}
        if text[:1].isdecimal():
            num, den = _rational(text, error)
            i += 1
        elif text not in ("x", "y"):
            raise error("expected a term")
        while True:  # factors, each after an optional '*'
            if toks[i] == "*":
                i += 1
                if toks[i] not in ("x", "y"):
                    raise error("expected a variable after '*'")
            var = toks[i]
            if var not in ("x", "y"):
                break
            power = 1
            i += 1
            if toks[i] == "^":
                i += 1
                text = toks[i]
                if not text[:1].isdecimal() or "/" in text:
                    raise error("expected an integer exponent after '^'")
                power = _capped(text, "exponent", error, cap)
                i += 1
            if var in powers:
                raise error(f"variable {var!r} repeated in one term")
            powers[var] = power
        parts.append(((powers.get("x", 0), powers.get("y", 0)), sign * num, den))
        text = toks[i]
        if not text:
            break
        if text not in ("+", "-"):
            raise error(f"expected '+' or '-', got {text!r}")
        sign = 1 if text == "+" else -1
        i += 1
    lcm = math.lcm(*{den for _, _, den in parts})
    terms: dict[tuple[int, int], int] = {}
    for key, num, den in parts:
        terms[key] = terms.get(key, 0) + num * (lcm // den)
    return terms, lcm


def _strip(line: str) -> str:
    """Drop the comment and trailing blanks; the indent stays, so columns
    count from the start of the line."""
    return line.split("#", 1)[0].rstrip()


def _numbered_lines(text: str) -> list[tuple[int, str]]:
    """The ``(number, text)`` lines left after :func:`_strip`, numbered from 1."""
    return [(number, line) for number, line in enumerate(map(_strip, text.splitlines()), start=1) if line]


def parse_poly(text: str, line: int = 1, offset: int = 0) -> Poly:
    """Parse a univariate polynomial; x and y are both accepted as the
    indeterminate (branch naming is display only), but not mixed.  Error
    columns count from ``offset`` + 1."""
    terms, den = _terms([(line, text)], offset)
    if any(i for (i, _), c in terms.items() if c) and any(j for (_, j), c in terms.items() if c):
        raise DSLSyntaxError("expected a univariate polynomial, found both x and y", line)
    nums = [0] * (max(i + j for i, j in terms) + 1)
    for (i, j), c in terms.items():
        nums[i + j] += c
    return _poly(nums, den)


def parse_poly2(text: str) -> Poly2:
    """Parse a plane polynomial in x and y, which may span several lines;
    comments and line breaks are whitespace, and errors name their line."""
    terms, den = _terms(_numbered_lines(text))
    by_y = [{} for _ in range(max(j for _, j in terms) + 1)]  # by_y[j] = {x power: numerator}
    for (i, j), c in terms.items():
        by_y[j][i] = c
    return Poly2.of(*(_poly([row.get(i, 0) for i in range(max(row, default=-1) + 1)], den) for row in by_y))


_PAIR = re.compile(r"^\s*pair\s+m\s*=\s*(?P<m>\d+)\s*:\s*(?P<body>.*)$")
_SYMBOL = re.compile(
    r"^\s*symbol\s+deg\s*=\s*(?P<deg>\d+)\s+m\s*=\s*(?P<m>\d+)\s*:\s*(?P<body>.*)$"
)
_CHAR = re.compile(r"^\s*char\s+branch\s*=\s*(1|2|sing)\s+at\s*=\s*(-?\d+(?:/\d+)?)\s*$")
_OP = re.compile(r"^\s*op\s+order\s*=\s*(?P<order>\d+)\s*$")
_COEFF = re.compile(r"^\s*coeff\s+(?P<index>\d+)\s*:\s*(.*)$")
_BRANCH = re.compile(r"^\s*branch\s+([xy])\s*$")

_SIZES = {"m": "contact order", "deg": "degree", "order": "order"}


def _size(match: re.Match, group: str, line: int) -> int:
    """A header field that sizes the problem, at most the degree cap."""
    error = partial(DSLSyntaxError, line=line, column=match.start(group) + 1)
    return _capped(match.group(group), _SIZES[group], error, get_degree_cap())


def _branch_polys(match: re.Match, line: int) -> tuple[Poly, Poly]:
    """The '<poly> | <poly>' body closing a pair or symbol line, with error
    columns counted from the start of the line."""
    start = match.start("body")
    parts = match.group("body").split("|")
    if len(parts) != 2:
        raise DSLSyntaxError("expected exactly two branch polynomials separated by '|'", line)
    left, right = parts
    return parse_poly(left, line, start), parse_poly(right, line, start + len(left) + 1)


def parse_glued(text: str, line: int = 1) -> GluedFunction:
    match = _PAIR.match(_strip(text))
    if not match:
        raise DSLSyntaxError("expected 'pair m=<INT>: <poly> | <poly>'", line)
    m = _size(match, "m", line)
    f, g = _branch_polys(match, line)
    try:
        return make_glued(f, g, SpaceSpec(m))
    except JetMismatch as exc:
        raise DSLSyntaxError(f"not a glued pair: {exc}", line) from exc


def parse_symbol(text: str, line: int = 1) -> SymbolElem:
    from .symbols import make_symbol
    match = _SYMBOL.match(_strip(text))
    if not match:
        raise DSLSyntaxError("expected 'symbol deg=<INT> m=<INT>: <poly> | <poly>'", line)
    degree, m = _size(match, "deg", line), _size(match, "m", line)
    return make_symbol(degree, *_branch_polys(match, line), SpaceSpec(m))


def parse_char(text: str, line: int = 1) -> Character:
    from .spectra import make_character
    match = _CHAR.match(_strip(text))
    if not match:
        raise DSLSyntaxError("expected 'char branch=<1|2|sing> at=<rational>'", line)
    branch, error = match.group(1), partial(DSLSyntaxError, line=line, column=match.start(2) + 1)
    at = Fraction(*_rational(match.group(2), error))
    try:
        return make_character("sing" if branch == "sing" else int(branch), at)
    except ValueError as exc:  # the singular character off base point 0
        raise error(str(exc)) from None


class ParsedPair(NamedTuple):
    d1: BranchOp
    d2: BranchOp
    declared_order: int


def _parse_op_block(lines: list, index: int) -> tuple[tuple[list[Poly], int], int]:
    if index >= len(lines):
        raise DSLSyntaxError("expected 'op order=<INT>' after this line", lines[-1][0])
    number, line = lines[index]
    match = _OP.match(line)
    if not match:
        raise DSLSyntaxError("expected 'op order=<INT>'", number)
    order = _size(match, "order", number)
    coeffs: dict[int, Poly] = {}
    index += 1
    while index < len(lines):
        number, line = lines[index]
        match = _COEFF.match(line)
        if not match:
            break
        error = partial(DSLSyntaxError, line=number, column=match.start("index") + 1)
        i = _rational(match.group("index"), error)[0]
        if i > order:
            raise DSLSyntaxError(f"coefficient index {i} exceeds declared order {order}", number)
        if i in coeffs:
            raise DSLSyntaxError(f"coefficient {i} given twice", number)
        coeffs[i] = parse_poly(match.group(2), number, match.start(2))
        index += 1
    return ([coeffs.get(i, ZERO) for i in range(order + 1)], order), index


def _parse_paired_at(lines: list, index: int) -> tuple[ParsedPair, int]:
    from .operators import BranchOp  # once per pair, not per block
    blocks = []
    for expected in ("x", "y"):
        if index >= len(lines):
            raise DSLSyntaxError(f"missing 'branch {expected}' block", lines[-1][0])
        number, line = lines[index]
        match = _BRANCH.match(line)
        if not match or match.group(1) != expected:
            raise DSLSyntaxError(f"expected 'branch {expected}'", number)
        block, index = _parse_op_block(lines, index + 1)
        blocks.append(block)
    (c1, order1), (c2, order2) = blocks
    return ParsedPair(BranchOp.of(*c1), BranchOp.of(*c2), max(order1, order2)), index


def parse_paired(text: str) -> ParsedPair:
    pairs = parse_many_paired(text)
    if len(pairs) != 1:
        raise DSLSyntaxError(f"expected exactly one paired operator, found {len(pairs)}", 1)
    return pairs[0]


def parse_many_paired(text: str) -> list[ParsedPair]:
    lines = _numbered_lines(text)
    if not lines:
        raise DSLSyntaxError("empty paired-operator input", 1)
    pairs = []
    index = 0
    while index < len(lines):
        pair, index = _parse_paired_at(lines, index)
        pairs.append(pair)
    return pairs


# ---------------------------------------------------------------------------
# Rendering (inverse of parsing)


def render_glued(u: GluedFunction) -> str:
    return f"pair m={u.space.m}: {poly_str(u.f, 'x')} | {poly_str(u.g, 'y')}"


def render_symbol(s: SymbolElem) -> str:
    return (
        f"symbol deg={s.degree} m={s.space.m}: "
        f"{poly_str(s.a, 'x')} | {poly_str(s.b, 'y')}"
    )


def render_char(c: Character) -> str:
    branch = c.branch if c.branch == "sing" else str(c.branch)
    return f"char branch={branch} at={rational_str(*c.base_point.as_integer_ratio())}"


def render_op(op: BranchOp, declared_order: int | None = None, var: str = "x") -> str:
    order = max(len(op.coeffs) - 1, 0) if declared_order is None else declared_order
    lines = [f"op order={order}"]
    for i in range(order, -1, -1):
        coeff = op.coeff(i)
        if not coeff.is_zero:
            lines.append(f"coeff {i}: {poly_str(coeff, var)}")
    return "\n".join(lines)


def render_paired(pair) -> str:
    """Render a PairedOp, or a ParsedPair at its declared order."""
    order = pair.declared_order if isinstance(pair, ParsedPair) else pair.order
    return (
        "branch x\n"
        + render_op(pair.d1, order, "x")
        + "\nbranch y\n"
        + render_op(pair.d2, order, "y")
    )
