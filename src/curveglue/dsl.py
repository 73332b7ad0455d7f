"""Text syntax for polynomials, glued pairs, operators, symbols and
characters, shared between files and the CLI.

Expression grammar::

    rational := INT ('/' INT)?
    mono     := rational ('*'? var ('^' INT)?)? | var ('^' INT)?
    poly     := '-'? mono (('+'|'-') mono)*

with var one of x, y.  Line comments start with '#'.  Block forms:

    pair m=<INT>: <poly> | <poly>
    symbol deg=<INT> m=<INT>: <poly> | <poly>
    char branch=<1|2|sing> at=<rational>
    branch x            (label opening a paired-operator block)
    op order=<INT>
    coeff <i>: <poly>   (omitted indices are zero)
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .errors import DSLSyntaxError, JetMismatch
from .glued import GluedFunction, SpaceSpec, make_glued
from .operators import BranchOp
from .poly import ZERO, Poly, Poly2, get_degree_cap, poly_str
from .spectra import Character, make_character
from .symbols import SymbolElem, make_symbol

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>[xy])|(?P<op>[*^+\-])|(?P<bad>\S))"
)


def _tokens(text: str, line: int, offset: int):
    """(kind, text, column) tokens; columns count from ``offset`` + 1."""
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            break
        bad = match.group("bad")
        if bad:
            raise DSLSyntaxError(f"unexpected character {bad!r}", line, offset + match.start("bad") + 1)
        for kind in ("num", "var", "op"):
            if match.group(kind):
                yield kind, match.group(kind), offset + match.start(kind) + 1
                break
        pos = match.end()


def _rational(text: str, line: int, column: int | None = None) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise DSLSyntaxError(f"zero denominator in {text!r}", line, column) from None
    except ValueError:  # more digits than int() converts
        raise DSLSyntaxError(f"number too long ({len(text)} characters)", line, column) from None


def _capped(text: str, what: str, line: int, column: int) -> int:
    """An integer that sizes the problem (exponent, contact order, degree,
    operator order), at most the degree cap."""
    value = _rational(text, line, column)
    cap = get_degree_cap()
    if value > cap:
        raise DSLSyntaxError(f"{what} {value} exceeds the degree cap {cap}", line, column)
    return int(value)


class _ExprParser:
    def __init__(self, text: str, line: int, offset: int = 0):
        self.line = line
        self.toks = list(_tokens(text, line, offset))
        self.pos = 0
        if not self.toks:
            raise DSLSyntaxError("empty expression", line)

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise DSLSyntaxError("unexpected end of expression", self.line)
        self.pos += 1
        return tok

    def fail(self, message: str):
        tok = self.peek()
        col = tok[2] if tok else None
        raise DSLSyntaxError(message, self.line, col)

    def parse_terms(self) -> dict[tuple[int, int], Fraction]:
        terms: dict[tuple[int, int], Fraction] = {}
        sign = 1
        tok = self.peek()
        if tok and tok[1] == "-":
            sign = -1
            self.next()
        elif tok and tok[1] == "+":
            self.next()
        while True:
            coeff, powers = self.parse_mono()
            key = (powers.get("x", 0), powers.get("y", 0))
            terms[key] = terms.get(key, Fraction(0)) + sign * coeff
            tok = self.peek()
            if tok is None:
                return terms
            if tok[1] not in "+-":
                self.fail(f"expected '+' or '-', got {tok[1]!r}")
            sign = 1 if tok[1] == "+" else -1
            self.next()

    def parse_mono(self):
        coeff = Fraction(1)
        powers: dict[str, int] = {}
        saw_coeff = False
        tok = self.peek()
        if tok is None:
            self.fail("expected a term")
        if tok[0] == "num":
            coeff = _rational(tok[1], self.line, tok[2])
            saw_coeff = True
            self.next()
            tok = self.peek()
            if tok and tok[1] == "*":
                self.next()
                tok = self.peek()
                if tok is None or tok[0] != "var":
                    self.fail("expected a variable after '*'")
        saw_var = False
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "var":
                break
            var = tok[1]
            self.next()
            power = 1
            tok = self.peek()
            if tok and tok[1] == "^":
                self.next()
                tok = self.peek()
                if tok is None or tok[0] != "num" or "/" in tok[1]:
                    self.fail("expected an integer exponent after '^'")
                power = _capped(tok[1], "exponent", self.line, tok[2])
                self.next()
            if var in powers:
                self.fail(f"variable {var!r} repeated in one term")
            powers[var] = power
            saw_var = True
            tok = self.peek()
            if tok and tok[1] == "*":
                self.next()
                tok = self.peek()
                if tok is None or tok[0] != "var":
                    self.fail("expected a variable after '*'")
        if not saw_coeff and not saw_var:
            self.fail("expected a term")
        return coeff, powers


def _strip(line: str) -> str:
    """Drop the comment and trailing blanks; the indent stays, so columns
    count from the start of the line."""
    return line.split("#", 1)[0].rstrip()


def parse_poly(text: str, line: int = 1, offset: int = 0) -> Poly:
    """Parse a univariate polynomial; x and y are both accepted as the
    indeterminate (branch naming is display only), but not mixed.  Error
    columns count from ``offset`` + 1."""
    terms = _ExprParser(text, line, offset).parse_terms()
    has_x = any(i for (i, _), c in terms.items() if c)
    has_y = any(j for (_, j), c in terms.items() if c)
    if has_x and has_y:
        raise DSLSyntaxError("expected a univariate polynomial, found both x and y", line)
    coeffs: dict[int, Fraction] = {}
    for (i, j), c in terms.items():
        coeffs[i + j] = coeffs.get(i + j, Fraction(0)) + c
    top = max(coeffs, default=-1)
    return Poly.of(*(coeffs.get(n, Fraction(0)) for n in range(top + 1)))


def parse_poly2(text: str, line: int = 1) -> Poly2:
    terms = _ExprParser(text, line).parse_terms()
    max_j = max((j for (_, j) in terms), default=0)
    slices = []
    for j in range(max_j + 1):
        row = {i: c for (i, jj), c in terms.items() if jj == j}
        top = max(row, default=-1)
        slices.append(Poly.of(*(row.get(n, Fraction(0)) for n in range(top + 1))))
    return Poly2.of(*slices)


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
    return _capped(match.group(group), _SIZES[group], line, match.start(group) + 1)


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
    match = _SYMBOL.match(_strip(text))
    if not match:
        raise DSLSyntaxError("expected 'symbol deg=<INT> m=<INT>: <poly> | <poly>'", line)
    degree, m = _size(match, "deg", line), _size(match, "m", line)
    return make_symbol(degree, *_branch_polys(match, line), SpaceSpec(m))


def parse_char(text: str, line: int = 1) -> Character:
    match = _CHAR.match(_strip(text))
    if not match:
        raise DSLSyntaxError("expected 'char branch=<1|2|sing> at=<rational>'", line)
    branch = match.group(1)
    at = _rational(match.group(2), line, match.start(2) + 1)
    return make_character("sing" if branch == "sing" else int(branch), at)


class ParsedOp(NamedTuple):
    op: BranchOp
    declared_order: int


class ParsedPair(NamedTuple):
    d1: BranchOp
    d2: BranchOp
    declared_order: int


def _numbered_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if line:
            yield number, line


def _parse_op_block(lines: list, index: int) -> tuple[ParsedOp, int]:
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
        i = int(_rational(match.group("index"), number, match.start("index") + 1))
        if i > order:
            raise DSLSyntaxError(f"coefficient index {i} exceeds declared order {order}", number)
        if i in coeffs:
            raise DSLSyntaxError(f"coefficient {i} given twice", number)
        coeffs[i] = parse_poly(match.group(2), number, match.start(2))
        index += 1
    op = BranchOp.of(*(coeffs.get(i, ZERO) for i in range(order + 1)))
    return ParsedOp(op, order), index


def _parse_paired_at(lines: list, index: int) -> tuple[ParsedPair, int]:
    blocks = {}
    for expected in ("x", "y"):
        if index >= len(lines):
            raise DSLSyntaxError(f"missing 'branch {expected}' block", lines[-1][0])
        number, line = lines[index]
        match = _BRANCH.match(line)
        if not match or match.group(1) != expected:
            raise DSLSyntaxError(f"expected 'branch {expected}'", number)
        parsed, index = _parse_op_block(lines, index + 1)
        blocks[expected] = parsed
    order = max(blocks["x"].declared_order, blocks["y"].declared_order)
    return ParsedPair(blocks["x"].op, blocks["y"].op, order), index


def parse_paired(text: str) -> ParsedPair:
    pairs = parse_many_paired(text)
    if len(pairs) != 1:
        raise DSLSyntaxError(f"expected exactly one paired operator, found {len(pairs)}", 1)
    return pairs[0]


def parse_many_paired(text: str) -> list[ParsedPair]:
    lines = list(_numbered_lines(text))
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
    return f"char branch={branch} at={c.base_point}"


def render_op(op: BranchOp, declared_order: int | None = None, var: str = "x") -> str:
    order = declared_order
    if order is None:
        order = 0 if op.is_zero else int(op.order)
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
