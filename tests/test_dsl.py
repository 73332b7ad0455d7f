"""DSL parsing, rendering roundtrips and error positions."""

import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveglue import dsl
from curveglue.errors import DSLSyntaxError
from curveglue.glued import SpaceSpec, make_glued, random_glued
from curveglue.operators import BranchOp, ConditionSet, generate_conditions
from curveglue.symbols import symbol_conditions, symbol_scale
from curveglue.poly import Poly, Poly2, degree_cap, get_degree_cap, poly2_str, poly_str
from curveglue.sampling import random_admissible_pair, random_symbol
from curveglue.spectra import make_character


# ---------------------------------------------------------------------------
# Reference expression parser: the earlier token generator and
# recursive-descent class, with the earlier Fraction-based literal readers
# and its own copy of the earlier token pattern, kept to check the one-pass
# integer parser against.

_REF_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>[xy])|(?P<op>[*^+\-])|(?P<bad>\S))"
)


def _ref_rational(text: str, line: int, column: int | None = None) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise DSLSyntaxError(f"zero denominator in {text!r}", line, column) from None
    except ValueError:  # more digits than int() converts
        raise DSLSyntaxError(f"number too long ({len(text)} characters)", line, column) from None


def _ref_capped(text: str, what: str, line: int, column: int) -> int:
    value = _ref_rational(text, line, column)
    cap = get_degree_cap()
    if value > cap:
        raise DSLSyntaxError(f"{what} {value} exceeds the degree cap {cap}", line, column)
    return int(value)


def _ref_numbered_lines(text: str):
    """(number, text) of each line that holds more than blanks once its
    comment is dropped, numbered from 1."""
    lines = ((number, raw.split("#", 1)[0]) for number, raw in enumerate(text.splitlines(), start=1))
    return [(number, line) for number, line in lines if line.strip()]


def _tokens(lines, offset: int):
    """(kind, text, line, column) tokens of ``(number, text)`` lines;
    columns count from ``offset`` + 1."""
    for line, text in lines:
        pos = 0
        while pos < len(text):
            match = _REF_TOKEN.match(text, pos)
            if match is None:
                break
            bad = match.group("bad")
            if bad:
                raise DSLSyntaxError(f"unexpected character {bad!r}", line, offset + match.start("bad") + 1)
            for kind in ("num", "var", "op"):
                if match.group(kind):
                    yield kind, match.group(kind), line, offset + match.start(kind) + 1
                    break
            pos = match.end()


class _ExprParser:
    def __init__(self, lines, offset: int = 0):
        self.line = lines[-1][0] if lines else 1  # where the input ends
        self.toks = list(_tokens(lines, offset))
        self.pos = 0
        if not self.toks:
            raise DSLSyntaxError("empty expression", self.line)

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
        raise DSLSyntaxError(message, *(tok[2:] if tok else (self.line,)))

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
            coeff = _ref_rational(tok[1], *tok[2:])
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
                power = _ref_capped(tok[1], "exponent", *tok[2:])
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


def _reference_poly(text: str, line: int, offset: int) -> Poly:
    terms = _ExprParser([(line, text)], offset).parse_terms()
    has_x = any(i for (i, _), c in terms.items() if c)
    has_y = any(j for (_, j), c in terms.items() if c)
    if has_x and has_y:
        raise DSLSyntaxError("expected a univariate polynomial, found both x and y", line)
    coeffs: dict[int, Fraction] = {}
    for (i, j), c in terms.items():
        coeffs[i + j] = coeffs.get(i + j, Fraction(0)) + c
    top = max(coeffs, default=-1)
    return Poly.of(*(coeffs.get(n, Fraction(0)) for n in range(top + 1)))


def _reference_poly2(text: str) -> Poly2:
    terms = _ExprParser(_ref_numbered_lines(text)).parse_terms()
    max_j = max((j for (_, j) in terms), default=0)
    slices = []
    for j in range(max_j + 1):
        row = {i: c for (i, jj), c in terms.items() if jj == j}
        top = max(row, default=-1)
        slices.append(Poly.of(*(row.get(n, Fraction(0)) for n in range(top + 1))))
    return Poly2.of(*slices)


def _outcome(parse, *args):
    """The parsed value, or the error's type, message, line and column."""
    try:
        return parse(*args)
    except DSLSyntaxError as exc:
        return type(exc), str(exc), exc.line, exc.column


class TestPolyExpressions:
    def test_spec_example(self):
        assert dsl.parse_poly("3/2*x^2 - x + 1") == Poly.of(1, -1, Fraction(3, 2))

    def test_lenient_forms(self):
        assert dsl.parse_poly("2x") == Poly.of(0, 2)
        assert dsl.parse_poly("x") == Poly.of(0, 1)
        assert dsl.parse_poly("x^3") == Poly.monomial(3)
        assert dsl.parse_poly("-x + x") == Poly.of()
        assert dsl.parse_poly("7") == Poly.of(7)

    def test_branch_variable_y(self):
        assert dsl.parse_poly("y^2 + 1") == Poly.of(1, 0, 1)

    def test_mixed_variables_rejected_in_univariate(self):
        with pytest.raises(DSLSyntaxError):
            dsl.parse_poly("x + y")

    def test_syntax_error_position(self):
        with pytest.raises(DSLSyntaxError) as err:
            dsl.parse_poly("1 + $", line=4)
        assert err.value.line == 4
        assert err.value.column == 5

    def test_variable_expected_after_star(self):
        assert _outcome(dsl.parse_poly, "2*3") == (
            DSLSyntaxError, "expected a variable after '*' at line 1, column 3", 1, 3)
        assert _outcome(dsl.parse_poly, "x*") == (
            DSLSyntaxError, "expected a variable after '*' at line 1", 1, None)

    def test_exponent_bounded_by_degree_cap(self):
        cap = get_degree_cap()
        with pytest.raises(DSLSyntaxError) as err:
            dsl.parse_poly(f"1 + x^{cap + 1}", line=2)
        assert (err.value.line, err.value.column) == (2, 7)
        assert "degree cap" in str(err.value)
        with degree_cap(cap + 1):
            assert dsl.parse_poly(f"x^{cap + 1}") == Poly.monomial(cap + 1)

    def test_numbers_beyond_int_conversion_limit(self):
        for text, column in (("1" + "0" * 5000, 1), ("x^1" + "0" * 5000, 3)):
            with pytest.raises(DSLSyntaxError) as err:
                dsl.parse_poly(text, line=3)
            assert (err.value.line, err.value.column) == (3, column)
            assert "number too long" in str(err.value)

    def test_bivariate(self):
        F = dsl.parse_poly2("x*y + 2*x^2 - 1")
        assert F == Poly2.of(Poly.of(-1, 0, 2), Poly.monomial(1))
        assert dsl.parse_poly2("2 x^2 y") == Poly2.of(Poly.of(), Poly.of(0, 0, 2))

    def test_bivariate_lines_and_comments(self):
        # A line break is whitespace, so x and y on two lines multiply.
        assert dsl.parse_poly2("x  # first factor\n\n  y\n") == dsl.parse_poly2("x*y")
        with pytest.raises(DSLSyntaxError) as err:
            dsl.parse_poly2("# nothing\n\n")
        assert (str(err.value), err.value.column) == ("empty expression at line 1", None)


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="Python before 3.10.7 has no int-to-str digit limit",
)

# Literals about Python's default int-to-str limit of 4300 digits: at the
# limit they parse, one digit past it they are too long.
NEAR_LIMIT = ["9" * 4300, "1/" + "3" * 4300, "7" * 4300 + "/" + "6" * 4300, "8" * 4301, "1/" + "3" * 4301]

# Single-line text from DSL pieces, with 'var^number' factors drawn as often
# as single pieces so that exponents other than plain integers turn up.
NUMBERS = ["2", "10", "0", "3/4", "1/0", "2/4", "0/7", "1" + "0" * 4999, *NEAR_LIMIT]
EXPRESSION_PIECES = ["x", "y", *NUMBERS, "*", "^", "+", "-", " ", "$"]
factors = st.builds("{}^{}".format, st.sampled_from("xy"), st.sampled_from(NUMBERS))
pieces = st.lists(st.one_of(st.sampled_from(EXPRESSION_PIECES), factors), max_size=12).map("".join)

# Well-formed sums over a few monomials, so that terms repeat and merge
# ('1/2*x^2 + 1/2*x^2') or cancel ('x - x').
MONOMIALS = ["", "x", "x^2", "y", "y^3", "x*y", "x^2 y"]
COEFFICIENTS = ["", "1", "3", "2/4", "0/7", "1/2", "5/6", *NEAR_LIMIT[:3]]
sum_terms = st.tuples(st.sampled_from("+-"), st.sampled_from(COEFFICIENTS), st.sampled_from(MONOMIALS))


@st.composite
def sums(draw):
    terms = draw(st.lists(sum_terms, min_size=1, max_size=5))
    repeats = st.tuples(st.integers(0, len(terms) - 1), st.booleans())
    for index, cancel in draw(st.lists(repeats, max_size=4)):
        sign, coefficient, mono = terms[index]
        terms.append(({"+": "-", "-": "+"}[sign] if cancel else sign, coefficient, mono))
    return " ".join(
        sign + ("*".join(filter(None, (coefficient, mono))) or "1")
        for sign, coefficient, mono in draw(st.permutations(terms))
    )


expressions = st.one_of(pieces, sums())

# Text over several lines, with blank lines and comments between pieces.
LINE_PIECES = ["\n", "  # note\n"]
lines_of_pieces = st.lists(
    st.one_of(st.sampled_from(EXPRESSION_PIECES + LINE_PIECES), factors), max_size=12
).map("".join)


class TestAgainstReferenceParser:
    """The one-pass parser gives the reference parser's value or error."""

    @settings(max_examples=400, deadline=None)
    @given(expressions, st.integers(1, 99), st.integers(0, 40))
    def test_poly(self, text, line, offset):
        assert _outcome(dsl.parse_poly, text, line, offset) == _outcome(_reference_poly, text, line, offset)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(lines_of_pieces, sums()))
    def test_poly2(self, text):
        assert _outcome(dsl.parse_poly2, text) == _outcome(_reference_poly2, text)


class TestLiterals:
    """Literals are read as integer pairs: unreduced fractions, repeated and
    cancelling monomials, and the exact message and column of each error."""

    def test_unreduced_repeated_and_cancelling(self):
        assert dsl.parse_poly("2/4*x + 0/7") == Poly.of(0, Fraction(1, 2))
        assert dsl.parse_poly("x - x") == Poly.of()
        assert dsl.parse_poly("1/2*x^2 + 1/2*x^2") == Poly.monomial(2)
        assert dsl.parse_poly("x - x + 1/3*y") == Poly.of(0, Fraction(1, 3))
        expected = Poly2.of(Poly.of(), Poly.of(Fraction(1, 4)))
        assert dsl.parse_poly2("x*y - 1/2 x y + 1/4*y - 2/4 x y") == expected

    def test_zero_denominator(self):
        with pytest.raises(DSLSyntaxError) as err:
            dsl.parse_poly("x - 2/0", line=2)
        assert str(err.value) == "zero denominator in '2/0' at line 2, column 5"
        assert (err.value.line, err.value.column) == (2, 5)

    @needs_digit_limit
    @pytest.mark.parametrize("literal", ["7" * 4301 + "/3", "1/" + "3" * 4301, "7" * 4301 + "/0"],
                             ids=["numerator", "denominator", "numerator-over-zero"])
    def test_number_too_long(self, literal):
        # The length is the whole token's, and a too-long numerator is
        # reported before a zero denominator.
        with pytest.raises(DSLSyntaxError) as err:
            dsl.parse_poly(f"x + {literal}*y^0", line=2)
        assert str(err.value) == "number too long (4303 characters) at line 2, column 5"
        assert (err.value.line, err.value.column) == (2, 5)

    @needs_digit_limit
    def test_char_base_point_too_long(self):
        with pytest.raises(DSLSyntaxError) as err:
            dsl.parse_char("char branch=1 at=-" + "7" * 4301, 3)
        assert str(err.value) == "number too long (4302 characters) at line 3, column 18"


class TestBlocks:
    def test_pair(self):
        u = dsl.parse_glued("pair m=1: x + x^2 | y")
        assert u.space == SpaceSpec(1)
        assert u.f == Poly.of(0, 1, 1)

    def test_pair_jet_mismatch_located(self):
        with pytest.raises(DSLSyntaxError) as err:
            dsl.parse_glued("pair m=1: x | 2y", line=3)
        assert err.value.line == 3

    def test_branch_columns_count_from_line_start(self):
        with pytest.raises(DSLSyntaxError) as err:
            dsl.parse_symbol("symbol deg=1 m=1: x | $")
        assert err.value.column == 23
        with pytest.raises(DSLSyntaxError) as err:
            dsl.parse_glued("pair m=1: x | y + $")
        assert err.value.column == 19
        with pytest.raises(DSLSyntaxError) as err:
            dsl.parse_glued("pair m=1: x + * | y", line=5)
        assert (err.value.line, err.value.column) == (5, 15)

    def test_coeff_columns_count_from_line_start(self):
        with pytest.raises(DSLSyntaxError) as err:
            dsl.parse_paired("branch x\nop order=1\ncoeff 1: x + $")
        assert (err.value.line, err.value.column) == (3, 14)

    def test_indented_columns_count_from_line_start(self):
        with pytest.raises(DSLSyntaxError) as err:
            dsl.parse_paired("branch x\nop order=1\n  coeff 1: x + $")
        assert (err.value.line, err.value.column) == (3, 16)
        with pytest.raises(DSLSyntaxError) as err:
            dsl.parse_glued("   pair m=1: x | y + $", 2)
        assert (err.value.line, err.value.column) == (2, 22)

    def test_symbol(self):
        s = dsl.parse_symbol("symbol deg=1 m=1: x^2 | y^2")
        assert (s.degree, s.space) == (1, SpaceSpec(1))

    def test_char(self):
        c = dsl.parse_char("char branch=2 at=-3/2")
        assert c == make_character(2, Fraction(-3, 2))

    def test_singular_char_off_zero(self):
        with pytest.raises(DSLSyntaxError) as err:
            dsl.parse_char("char branch=sing at=-1/2", 3)
        assert str(err.value) == "the singular character sits at base point 0 at line 3, column 21"
        assert (err.value.line, err.value.column) == (3, 21)

    def test_op_block(self):
        block = "op order=2\ncoeff 2: x\ncoeff 1: -1\ncoeff 0: 0"
        parsed = dsl.parse_paired(f"branch x\n{block}\nbranch y\n{block}")
        assert parsed.declared_order == 2
        assert parsed.d1 == parsed.d2 == BranchOp.of(Poly.of(), Poly.of(-1), Poly.monomial(1))

    def test_coeff_index_exceeds_order(self):
        with pytest.raises(DSLSyntaxError) as err:
            dsl.parse_paired("branch x\nop order=2\ncoeff 5: x")
        assert "exceeds" in str(err.value)

    def test_paired(self):
        text = "branch x\nop order=1\ncoeff 1: x\nbranch y\nop order=1\ncoeff 1: y\n"
        pair = dsl.parse_paired(text)
        assert pair.d1 == pair.d2 == BranchOp.derivative(Poly.monomial(1))
        assert pair.declared_order == 1

    def test_comments_and_blanks(self):
        text = "# operator\nbranch x\nop order=0\ncoeff 0: 1  # unit\n\nbranch y\nop order=0\ncoeff 0: 1\n"
        pair = dsl.parse_paired(text)
        assert pair.d1 == BranchOp.of(Poly.of(1))

    def test_extra_pair_names_its_first_line(self):
        # Line 1 is a comment; the second pair starts at line 10.
        text = (Path(__file__).parent / "data" / "pair_two_eulers_K1.txt").read_text()
        with pytest.raises(DSLSyntaxError) as err:
            dsl.parse_paired(text)
        assert str(err.value) == "expected exactly one paired operator, found 2 at line 10"
        assert len(dsl.parse_many_paired(text)) == 2

    def test_blank_input_has_no_pair(self):
        # The multi-pair reader finds none, so a caller counts them; the
        # one-pair reader refuses the input itself.
        assert dsl.parse_many_paired("# c\n") == []
        with pytest.raises(DSLSyntaxError) as err:
            dsl.parse_paired("# c\n")
        assert str(err.value) == "empty paired-operator input at line 1"


class TestRenderRoundtrip:
    def test_polys(self):
        rng = random.Random(3)
        for _ in range(50):
            p = Poly.of(*[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(5)])
            assert dsl.parse_poly(poly_str(p)) == p

    def test_poly2(self):
        # Zero, unit, negative and fractional coefficients, and constant terms.
        p = Poly.of
        cases = [
            Poly2.of(),
            Poly2.of(p(1)),
            Poly2.of(p(-1)),
            Poly2.of(p(0), p(1)),
            Poly2.of(p(Fraction(-3, 2), 0, -1), p(), p(0, Fraction(1, 3), 1)),
            Poly2.of(p(), p(), p(2, -1)),
        ]
        rng = random.Random(4)
        for _ in range(50):
            cases.append(Poly2.of(*(
                p(*[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))])
                for _ in range(rng.randint(0, 3))
            )))
        for F in cases:
            assert dsl.parse_poly2(poly2_str(F)) == F

    def test_glued(self):
        rng = random.Random(5)
        for _ in range(50):
            u = random_glued(SpaceSpec(rng.randint(0, 3)), rng)
            assert dsl.parse_glued(dsl.render_glued(u)) == u

    def test_symbols(self):
        rng = random.Random(7)
        for _ in range(50):
            s = random_symbol(SpaceSpec(rng.randint(0, 2)), rng.randint(0, 3), rng)
            assert dsl.parse_symbol(dsl.render_symbol(s)) == s

    def test_paired_ops(self):
        rng = random.Random(9)
        for _ in range(30):
            pair = random_admissible_pair(SpaceSpec(rng.randint(0, 2)), rng.randint(0, 3), rng)
            parsed = dsl.parse_paired(dsl.render_paired(pair))
            assert (parsed.d1, parsed.d2) == (pair.d1, pair.d2)

    def test_char(self):
        for c in (make_character(1, 2), make_character(SINGULAR := "sing", 0), make_character(2, Fraction(-1, 3))):
            assert dsl.parse_char(dsl.render_char(c)) == c


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
polys = st.lists(fractions, max_size=7).map(lambda cs: Poly.of(*cs))
seeded = st.integers(0, 2**32 - 1).map(random.Random)


@st.composite
def glued_pairs(draw):
    m = draw(st.integers(0, 4))
    f, g = draw(polys), draw(polys)
    return make_glued(f, f.jet(m) + g - g.jet(m), SpaceSpec(m))


@st.composite
def paired_ops(draw):
    ops = st.lists(polys, max_size=4).map(lambda cs: BranchOp.of(*cs))
    d1, d2 = draw(ops), draw(ops)
    order = max(d1.order, d2.order, 0) + draw(st.integers(0, 2))
    return dsl.ParsedPair(d1, d2, order)


roundtrip = settings(max_examples=50, deadline=None)


class TestRenderRoundtripProperties:
    """parse(render(v)) == v for every value type the DSL writes."""

    @roundtrip
    @given(polys, st.sampled_from("xy"))
    def test_poly(self, p, var):
        assert dsl.parse_poly(poly_str(p, var)) == p

    @roundtrip
    @given(st.lists(polys, max_size=4).map(lambda slices: Poly2.of(*slices)))
    def test_poly2(self, F):
        assert dsl.parse_poly2(poly2_str(F)) == F

    @roundtrip
    @given(glued_pairs())
    def test_glued(self, u):
        assert dsl.parse_glued(dsl.render_glued(u)) == u

    @roundtrip
    @given(st.integers(0, 3), st.integers(0, 5), seeded, fractions)
    def test_symbol(self, m, degree, rng, c):
        s = symbol_scale(random_symbol(SpaceSpec(m), degree, rng), c)
        assert dsl.parse_symbol(dsl.render_symbol(s)) == s

    @roundtrip
    @given(paired_ops())
    def test_paired(self, pair):
        assert dsl.parse_paired(dsl.render_paired(pair)) == pair

    @roundtrip
    @given(st.integers(0, 2), st.integers(0, 3), seeded)
    def test_admissible_pair(self, m, k, rng):
        pair = random_admissible_pair(SpaceSpec(m), k, rng)
        assert dsl.parse_paired(dsl.render_paired(pair)) == (pair.d1, pair.d2, pair.order)

    @roundtrip
    @given(st.sampled_from([1, 2, "sing"]), fractions)
    def test_char(self, branch, at):
        c = make_character(branch, 0 if branch == "sing" else at)
        assert dsl.parse_char(dsl.render_char(c)) == c


# ---------------------------------------------------------------------------
# Rendering against the earlier Fraction-based renderer.


def _fraction_signed_sum(terms) -> str:
    """The earlier renderer of (Fraction coefficient, monomial) pairs."""
    parts = []
    for c, mono in terms:
        if not c:
            continue
        mag = abs(c)
        body = f"{mag}*{mono}" if mag != 1 and mono else (mono or str(mag))
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts) or "0"


def _monomial(var: str, n: int) -> str:
    return "" if n == 0 else var if n == 1 else f"{var}^{n}"


def _fraction_rendered(rows, variables) -> tuple[str, ...]:
    """Integer rows, each divided by its first value, by the earlier renderer."""
    return tuple(_fraction_signed_sum((Fraction(c, next(iter(row.values()), 1)), variables[col].name)
                                      for col, c in row.items()) + " = 0"
                 for row in rows)


# Negative, unit, integer and large coefficients.
wide_fractions = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.integers(-10**6, 10**6).map(Fraction),
    st.fractions(max_denominator=60),
    st.builds(Fraction, st.integers(-10**80, 10**80), st.integers(1, 10**80)),
)
wide_polys = st.lists(wide_fractions, max_size=8).map(lambda cs: Poly.of(*cs))


class TestRenderMatchesFractionReference:
    """The integer renderer is byte-equal to the earlier Fraction one for
    every exponent form: '', 'x', 'x^n' and 'x^i*y^j'."""

    @settings(max_examples=200, deadline=None)
    @given(wide_polys, st.sampled_from("xy"))
    def test_poly_str(self, p, var):
        terms = ((c, _monomial(var, n)) for n, c in reversed(tuple(enumerate(p.coeffs))))
        assert poly_str(p, var) == _fraction_signed_sum(terms)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(wide_polys, max_size=4).map(lambda slices: Poly2.of(*slices)))
    def test_poly2_str(self, F):
        terms = (
            (c, "*".join(filter(None, (_monomial("x", i), _monomial("y", j)))))
            for j, s in enumerate(F.slices)
            for i, c in enumerate(s.coeffs)
        )
        assert poly2_str(F) == _fraction_signed_sum(terms)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 4), st.data())
    def test_condition_set_rendered(self, m, k, data):
        conditions = generate_conditions(SpaceSpec(m), k)
        stratum = symbol_conditions(m, k)
        for cs in (conditions, stratum):
            assert cs.rendered == _fraction_rendered(cs.sparse_rows, cs.variables)
        columns = st.integers(0, len(conditions.variables) - 1)
        # Integer rows with a positive first entry, as sparse_rows holds them.
        entries = st.integers(-10**80, 10**80).filter(bool) | st.integers(-60, 60).filter(bool)
        rows = data.draw(st.lists(st.dictionaries(columns, entries), max_size=5))
        rows = tuple({c: abs(v) if i == 0 else v for i, (c, v) in enumerate(sorted(row.items()))}
                     for row in rows)
        drawn = ConditionSet(conditions.space, k, conditions.variables, rows)
        assert drawn.rendered == _fraction_rendered(rows, conditions.variables)


def test_parse_and_render_build_no_fraction(monkeypatch):
    """parse_paired and render_paired of a benchmark-shaped pair (order 4,
    coefficients of degree 4 with rational entries) run on integers only."""
    rng = random.Random(11)

    def coefficient():
        entries = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4)]
        return Poly.of(*entries, Fraction(rng.randint(1, 9), rng.randint(1, 6)))

    pair = dsl.ParsedPair(*(BranchOp.of(*(coefficient() for _ in range(5))) for _ in range(2)), 4)
    made = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    Fraction(1, 2)
    assert len(made) == 1  # the counter sees every construction
    made.clear()
    parsed = dsl.parse_paired(dsl.render_paired(pair))
    assert made == []
    monkeypatch.undo()
    assert parsed == pair
