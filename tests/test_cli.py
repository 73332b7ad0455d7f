"""Golden-file corpus for the command-line interface.

Every invocation runs `main` in-process; stdout is compared verbatim
against a file in tests/golden/.
"""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveglue import dsl
from curveglue.cli import build_parser, main
from curveglue.glued import SpaceSpec
from curveglue.operators import default_probe_degree, generate_conditions
from curveglue.poly import get_degree_cap
from curveglue.sampling import random_admissible_pair
from curveglue.spectra import char_eval
from curveglue.symbols import SymbolElem

HERE = Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"


def run(capsys, *argv):
    status = main([str(a) for a in argv])
    return status, capsys.readouterr()


def run_stdin(capsys, monkeypatch, text, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return run(capsys, *argv)


def assert_golden(capsys, golden_name, expected_status, *argv):
    status, captured = run(capsys, *argv)
    assert captured.out == (GOLDEN / golden_name).read_text()
    assert status == expected_status


CORPUS = [
    ("check_euler_K1.txt", 0, ["check", DATA / "pair_euler_K1.txt", "--space", "K1"]),
    ("check_dd_K0.txt", 1, ["check", DATA / "pair_dd_K0.txt", "--space", "K0"]),
    (
        "check_normal_form.txt",
        1,
        ["check", DATA / "pair_normal_form.txt", "--space", "K1", "--probe-depth"],
    ),
    (
        "compose_euler_squared.txt",
        0,
        ["compose", DATA / "pair_euler_K1.txt", DATA / "pair_euler_K1.txt", "--space", "K1"],
    ),
    (
        "commutator_two_eulers.txt",
        0,
        ["commutator", DATA / "pair_two_eulers_K1.txt", "--space", "K1"],
    ),
    ("symbol_second_order.txt", 0, ["symbol", DATA / "pair_second_order_K1.txt", "--space", "K1"]),
    ("bracket_symbols_K1.txt", 0, ["bracket", DATA / "symbols_K1.txt"]),
    ("extend_linear.txt", 0, ["extend", DATA / "glued_linear_K1.txt"]),
    ("restrict_xy.txt", 0, ["restrict", DATA / "surface_xy.txt", "--space", "K1"]),
    ("witness_branch_points.txt", 0, ["witness", DATA / "chars_branch_points.txt", "--space", "K0"]),
    ("witness_same_point.txt", 0, ["witness", DATA / "chars_same_point.txt", "--space", "K1"]),
    ("nullity_K0.txt", 0, ["nullity", "--space", "K0"]),
    ("nullity_K1.txt", 0, ["nullity", "--space", "K1"]),
    ("conditions_K0_order3.txt", 0, ["conditions", "--space", "K0", "--order", "3"]),
    ("conditions_K1_order0.txt", 0, ["conditions", "--space", "K1", "--order", "0"]),
    ("conditions_K1_order1.txt", 0, ["conditions", "--space", "K1", "--order", "1"]),
    ("conditions_K1_order2.txt", 0, ["conditions", "--space", "K1", "--order", "2"]),
    ("conditions_K1_order3.txt", 0, ["conditions", "--space", "K1", "--order", "3"]),
]


@pytest.mark.parametrize(
    "golden,status,argv", CORPUS, ids=[c[0].removesuffix(".txt") for c in CORPUS]
)
def test_golden_corpus(capsys, golden, status, argv):
    assert_golden(capsys, golden, status, *argv)


class TestConditionGoldensAreComplete:
    """The condition goldens must list every generated constraint, in order."""

    @pytest.mark.parametrize(
        "golden,m,k",
        [
            ("conditions_K0_order3.txt", 0, 3),
            ("conditions_K1_order0.txt", 1, 0),
            ("conditions_K1_order1.txt", 1, 1),
            ("conditions_K1_order2.txt", 1, 2),
            ("conditions_K1_order3.txt", 1, 3),
        ],
    )
    def test_matches_generator(self, golden, m, k):
        lines = (GOLDEN / golden).read_text().splitlines()
        assert lines == list(generate_conditions(SpaceSpec(m), k).rendered)


def test_conditions_K64_output_is_pinned(capsys):
    # Line count and digest of the output of the whole-system elimination
    # that the weight blocks replaced; too large for a golden file.
    status, captured = run(capsys, "conditions", "--space", "K64", "--order", "64", "--max-degree", "64")
    assert status == 0
    assert captured.out.count("\n") == 5281
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert digest == "5bded49f4065ce3aece4ec34c9fb1730b772a4297bda20fba7ecca000d1e673b"


def test_conditions_K96_output_is_pinned(capsys):
    # Line count and digest of the output of the block-by-block elimination
    # that the interpolation formula replaced; its truncated-short blocks
    # exercise the gap term.
    status, captured = run(capsys, "conditions", "--space", "K96", "--order", "96", "--max-degree", "96")
    assert status == 0
    assert captured.out.count("\n") == 11761
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert digest == "ef9e45e0fb7f6836d64af8cbfc54e8f4ebbaa4a4a949bb7969bf4edeebf10b6f"


def test_conditions_K128_output_is_pinned(capsys):
    # Line count and digest of the output of the interpolation formula that
    # the one column walk replaced; 20,801 rows, as the rank formula says.
    status, captured = run(capsys, "conditions", "--space", "K128", "--order", "128", "--max-degree", "128")
    assert status == 0
    assert captured.out.count("\n") == 20801
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert digest == "639547ca29dffc04ecbbe6dfded901ebfa850baf6788b666dfc974175955542f"


# The parser that reads back each verb's ``result.dsl``.
RESULT_PARSERS = {
    "compose": dsl.parse_paired,
    "commutator": dsl.parse_paired,
    "symbol": dsl.parse_symbol,
    "bracket": dsl.parse_symbol,
    "extend": dsl.parse_poly2,
    "restrict": dsl.parse_glued,
}


@pytest.mark.parametrize(
    "golden,status,argv", CORPUS, ids=[c[0].removesuffix(".txt") for c in CORPUS]
)
def test_json_corpus_shares_payload_shape(capsys, golden, status, argv):
    got, captured = run(capsys, *argv, "--json")
    payload = json.loads(captured.out)
    assert got == status
    assert list(payload)[:2] == ["verb", "space"]
    assert payload["verb"] == argv[0]
    assert isinstance(payload["verdict"], str)
    assert all(set(v) == {"constraint", "lhs", "rhs"} for v in payload["violations"])
    if "--space" in argv:
        assert payload["space"] == argv[argv.index("--space") + 1]
    if "dsl" in payload.get("result", {}):
        RESULT_PARSERS[payload["verb"]](payload["result"]["dsl"])


class TestJsonOutput:
    def test_check_payload(self, capsys):
        status, captured = run(
            capsys, "check", DATA / "pair_dd_K0.txt", "--space", "K0", "--json"
        )
        payload = json.loads(captured.out)
        assert status == 1
        assert payload["verdict"] == "inadmissible"
        assert {"constraint": "a1(0) = 0", "lhs": "1", "rhs": "0"} in payload["violations"]

    def test_compose_result_reparses(self, capsys):
        _, captured = run(
            capsys,
            "compose",
            DATA / "pair_euler_K1.txt",
            DATA / "pair_euler_K1.txt",
            "--space",
            "K1",
            "--json",
        )
        payload = json.loads(captured.out)
        reparsed = dsl.parse_paired(payload["result"]["dsl"])
        assert payload["result"]["order"] == reparsed.declared_order == 2
        assert payload["result"]["branch_x"] == [[], ["0", "1"], ["0", "0", "1"]]

    def test_bracket_result_reparses(self, capsys):
        _, captured = run(capsys, "bracket", DATA / "symbols_K1.txt", "--json")
        payload = json.loads(captured.out)
        s = dsl.parse_symbol(payload["result"]["dsl"])
        assert s == SymbolElem(1, dsl.parse_poly("-x^2"), dsl.parse_poly("-y^2"), SpaceSpec(1))

    def test_restrict_coeff_arrays(self, capsys):
        _, captured = run(
            capsys, "restrict", DATA / "surface_xy.txt", "--space", "K1", "--json"
        )
        payload = json.loads(captured.out)
        assert payload["result"]["f"] == []
        assert payload["result"]["g"] == ["0", "0", "0", "1"]

    def test_witness_values_differ(self, capsys):
        _, captured = run(
            capsys, "witness", DATA / "chars_branch_points.txt", "--space", "K0", "--json"
        )
        payload = json.loads(captured.out)
        values = payload["result"]["values"]
        assert values[0] != values[1]


class TestExitStatusContract:
    def test_missing_file_is_input_error(self, capsys):
        status, captured = run(capsys, "check", DATA / "no_such_file.txt", "--space", "K0")
        assert status == 2
        assert captured.err.startswith("error:")

    def test_syntax_error_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("branch x\nop order=1\ncoeff 9: x\n")
        status, captured = run(capsys, "check", bad, "--space", "K0")
        assert status == 2
        assert "error:" in captured.err

    def test_inadmissible_compose_input_rejected(self, capsys):
        status, captured = run(
            capsys, "compose", DATA / "pair_dd_K0.txt", DATA / "pair_dd_K0.txt", "--space", "K0"
        )
        assert status == 1
        assert captured.err == "error: operator pair is not admissible: b1(0) = 0; a1(0) = 0\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["commutator", DATA / "pair_dd_K0.txt", DATA / "pair_dd_K0.txt", "--space", "K0"],
            ["symbol", DATA / "pair_dd_K0.txt", "--space", "K0"],
        ],
        ids=["commutator", "symbol"],
    )
    def test_inadmissible_pair_fails_the_check(self, capsys, argv):
        # Well-formed input that fails admissibility exits 1, like `check`.
        status, captured = run(capsys, *argv)
        assert status == 1
        assert captured.out == ""
        assert captured.err == "error: operator pair is not admissible: b1(0) = 0; a1(0) = 0\n"

    def test_stdin_input(self, capsys, monkeypatch):
        status, captured = run_stdin(capsys, monkeypatch, "pair m=0: x | 0\n", "extend", "-")
        assert status == 0
        assert captured.out.strip() == "x - y"

    def test_non_utf8_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xffbranch x")
        status, captured = run(capsys, "check", bad, "--space", "K0")
        assert status == 2
        assert captured.err == f"error: {bad}: not valid UTF-8 at byte 0\n"

    def test_non_utf8_stdin_is_input_error(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8", errors="strict")
        monkeypatch.setattr("sys.stdin", stdin)
        status, captured = run(capsys, "check", "-", "--space", "K0")
        assert status == 2
        assert captured.err == "error: stdin: not valid UTF-8 at byte 0\n"

    def test_explicit_order_override(self, capsys):
        # The Euler pair is also admissible when regarded as order 2.
        status, _ = run(
            capsys, "check", DATA / "pair_euler_K1.txt", "--space", "K1", "--order", "2"
        )
        assert status == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", DATA / "pair_euler_K1.txt", "--space", "K1", "--order", "-1"],
            ["symbol", DATA / "pair_euler_K1.txt", "--space", "K1", "--degree", "-1"],
            ["conditions", "--space", "K1", "--order", "-1"],
        ],
        ids=["check", "symbol", "conditions"],
    )
    def test_negative_order_is_input_error(self, capsys, argv):
        # One message for a negative order, whichever verb declares it.
        status, captured = run(capsys, *argv)
        assert status == 2
        assert captured.out == ""
        assert captured.err == "error: operator order must be nonnegative\n"

    def test_zero_denominator_in_poly_is_input_error(self, capsys, monkeypatch):
        status, captured = run_stdin(capsys, monkeypatch, "pair m=1: 1/0 | 1\n", "extend", "-")
        assert status == 2
        assert captured.err.startswith("error: zero denominator")

    def test_zero_denominator_in_char_is_input_error(self, capsys, monkeypatch):
        text = "char branch=1 at=1/0\nchar branch=2 at=1\n"
        status, captured = run_stdin(capsys, monkeypatch, text, "witness", "-", "--space", "K1")
        assert status == 2
        assert captured.err.startswith("error: zero denominator")

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_nullity_beyond_contact_one_is_input_error(self, capsys, flags):
        status, captured = run(capsys, "nullity", "--space", "K2", *flags)
        assert status == 2
        assert captured.out == ""
        assert captured.err == "error: nullity identities are implemented for K0 and K1, not K2\n"

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_singular_char_off_zero_is_input_error(self, capsys, monkeypatch, flags):
        text = "char branch=sing at=1\nchar branch=1 at=1\n"
        argv = ("witness", "-", "--space", "K0", *flags)
        status, captured = run_stdin(capsys, monkeypatch, text, *argv)
        assert status == 2
        assert captured.out == ""
        assert captured.err == (
            "error: the singular character sits at base point 0 at line 1, column 21\n"
        )

    def test_invalid_symbol_in_bracket_is_input_error(self, capsys, monkeypatch):
        # An invalid symbol is malformed input (exit 2), unlike an
        # inadmissible pair (exit 1): the two report errors stay siblings.
        text = "symbol deg=3 m=1: x | y\nsymbol deg=1 m=1: x^2 | y^2\n"
        status, captured = run_stdin(capsys, monkeypatch, text, "bracket", "-")
        assert status == 2
        assert captured.out == ""
        assert captured.err == "error: invalid symbol: b'(0) = 0; a'(0) = 0\n"


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="Python before 3.10.7 has no int-to-str digit limit",
)
class TestPrintingLimit:
    """A result number past Python's int-to-str digit limit ends in one
    error line and exit 2, in text and --json."""

    SYMBOLS = f"symbol deg=1 m=0: {'7' * 3000}*x^2 | x^2\nsymbol deg=2 m=0: {'3' * 3000}*x^2 | x^2\n"
    CHARS = f"char branch=1 at={'7' * 3000}\nchar branch=2 at={'7' * 3000}\n"
    # The violated row b0(0) - a0(0) = 0 has an lhs with a 6000-digit denominator.
    PAIR = f"branch x\nop order=0\ncoeff 0: 1/{'7' * 3000}\nbranch y\nop order=0\ncoeff 0: 1/{'3' * 2999}1\n"
    SUM = f"1/{'7' * 3000}*x + 1/{'3' * 2999}1*x"  # a 6000-digit denominator
    MULTIPLIER = f"branch x\nop order=0\ncoeff 0: {SUM}\nbranch y\nop order=0\ncoeff 0: {SUM}\n"
    X2D = "branch x\nop order=1\ncoeff 1: x^2\nbranch y\nop order=1\ncoeff 1: x^2\n"
    SURFACE = f"1/{'7' * 3000}*x*y + 1/{'3' * 2999}1*x*y\n"
    GLUED = f"pair m=0: {SUM} | {SUM} + x^2\n"

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("text, argv", [
        (SYMBOLS, ["bracket", "-"]),
        (CHARS, ["witness", "-", "--space", "K1"]),
        (PAIR, ["check", "-", "--space", "K0"]),
        (MULTIPLIER, ["symbol", "-", "--space", "K0"]),
        (MULTIPLIER + X2D, ["compose", "-", "--space", "K0"]),
        (MULTIPLIER + X2D, ["commutator", "-", "--space", "K0"]),
        (SURFACE, ["restrict", "-", "--space", "K0"]),
        (GLUED, ["extend", "-"]),
    ], ids=["bracket", "witness", "check", "symbol", "compose", "commutator", "restrict", "extend"])
    def test_one_error_line_and_exit_2(self, capsys, monkeypatch, text, argv, flags):
        status, captured = run_stdin(capsys, monkeypatch, text, *argv, *flags)
        assert status == 2
        assert captured.out == ""
        limit = sys.get_int_max_str_digits()
        assert captured.err == (
            f"error: a number in the result has more than {limit} digits, "
            "the limit of Python's integer-to-text conversion\n"
        )

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_jet_mismatch_past_the_limit(self, capsys, monkeypatch, flags):
        # f(0) has a 6000-digit denominator and g(0) = 0: the mismatch names
        # the limit instead of the values.
        text = f"pair m=0: 1/{'7' * 3000} + 1/{'3' * 2999}1 | 0\n"
        status, captured = run_stdin(capsys, monkeypatch, text, "extend", "-", *flags)
        assert status == 2
        assert captured.out == ""
        limit = sys.get_int_max_str_digits()
        assert captured.err == (
            "error: not a glued pair: jet coefficient 0 differs between branches: "
            f"a number in the result has more than {limit} digits, "
            "the limit of Python's integer-to-text conversion at line 1\n"
        )


class TestDegreeCapOption:
    def test_cap_is_scoped_to_one_call(self, capsys):
        run(capsys, "nullity", "--space", "K0", "--max-degree", "5")
        assert get_degree_cap() == 32

    def test_nonpositive_cap_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nullity", "--space", "K0", "--max-degree", "0"])
        assert exc.value.code == 2
        assert "--max-degree" in capsys.readouterr().err

    def test_witness_search_ignores_cap(self, capsys, monkeypatch):
        # Both points sit at 1, one per branch: they differ, so a witness exists.
        text = "char branch=1 at=1\nchar branch=2 at=1\n"
        argv = ("witness", "-", "--space", "K1", "--max-degree", "1")
        status, captured = run_stdin(capsys, monkeypatch, text, *argv)
        assert status == 0
        u = dsl.parse_glued(captured.out)
        c1, c2 = (dsl.parse_char(line) for line in text.splitlines())
        assert char_eval(c1, u) != char_eval(c2, u)


class TestProbeDepth:
    """(D f)^(i)(0), i <= m, reads f only up to x^(k+m), so the probe needs
    depth k + m at least; 0 or no value still means the default depth."""

    @pytest.mark.parametrize(
        "name,space,depth,least",
        [("pair_dd_K0.txt", "K0", -1, 1), ("pair_euler_K1.txt", "K1", 1, 2)],
    )
    def test_shallow_depth_rejected(self, capsys, name, space, depth, least):
        argv = ("check", DATA / name, "--space", space, "--probe-depth", depth)
        status, captured = run(capsys, *argv)
        assert status == 2
        assert captured.out == ""
        assert f"--probe-depth {depth} is below the minimum {least}" in captured.err

    @pytest.mark.parametrize(
        "name,space",
        [
            ("pair_dd_K0.txt", "K0"),
            ("pair_euler_K1.txt", "K1"),
            ("pair_normal_form.txt", "K1"),
            ("pair_second_order_K1.txt", "K1"),
        ],
    )
    def test_minimum_depth_agrees_with_check(self, capsys, name, space):
        argv = ["check", DATA / name, "--space", space, "--json"]
        payload = json.loads(run(capsys, *argv)[1].out)
        least = payload["order"] + int(space[1:])
        status, captured = run(capsys, *argv, "--probe-depth", least)
        payload = json.loads(captured.out)
        assert payload["probe"] == {"depth": least, "verdict": payload["verdict"]}
        assert status == (0 if payload["verdict"] == "admissible" else 1)

    @pytest.mark.parametrize("option", [[], ["0"]])
    def test_zero_or_bare_means_default(self, capsys, option):
        argv = ["check", DATA / "pair_euler_K1.txt", "--space", "K1", "--json", "--probe-depth"]
        payload = json.loads(run(capsys, *argv, *option)[1].out)
        assert payload["probe"]["depth"] == default_probe_degree(SpaceSpec(1), 1)

    @pytest.mark.parametrize("option,depth", [([], 34), (["32"], 32), (["34"], 34)])
    def test_probe_never_meets_the_degree_cap(self, tmp_path, capsys, option, depth):
        # Coefficients of degree 17 times x^(k + m + 2) would be of degree 51;
        # the probe forms only m-jets, so it runs under the default cap.  The
        # default depth passes the cap, and so may the same depth given.
        path = tmp_path / "pair.txt"
        path.write_text(str(random_admissible_pair(SpaceSpec(16), 16, random.Random(3))) + "\n")
        assert get_degree_cap() == 32
        status, captured = run(capsys, "check", path, "--space", "K16", "--probe-depth", *option)
        assert (status, captured.err) == (0, "")
        assert captured.out.splitlines()[-1] == f"probe (depth {depth}): admissible"


class TestTwoBlockInput:
    """Two blocks come from one file, or one from each of two files; every
    file is read the same way, comments and blank lines included."""

    def test_leading_comment_in_each_of_two_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("# first symbol\nsymbol deg=1 m=1: x | y\n")
        b.write_text("\nsymbol deg=1 m=1: x^2 | y^2  # second\n")
        status, captured = run(capsys, "bracket", a, b)
        assert status == 0
        assert captured.out == "symbol deg=1 m=1: x^2 | y^2\n"

    def test_each_of_two_files_holds_one_block(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("symbol deg=1 m=1: x | y\nsymbol deg=1 m=1: x | y\n")
        status, captured = run(capsys, "bracket", a, a)
        assert status == 2
        assert "found 2" in captured.err

    def test_one_file_holds_two_blocks(self, capsys):
        status, captured = run(capsys, "compose", DATA / "pair_euler_K1.txt", "--space", "K1")
        assert status == 2
        assert "found 1" in captured.err


class TestDslExponentCap:
    """Exponents above the degree cap are rejected while parsing (cap + 1 only)."""

    def test_default_cap(self, capsys, monkeypatch):
        cap = get_degree_cap()
        status, captured = run_stdin(capsys, monkeypatch, f"pair m=0: x^{cap + 1} | 0\n", "extend", "-")
        assert status == 2
        assert captured.err.startswith(f"error: exponent {cap + 1} exceeds the degree cap {cap}")

    def test_cap_from_option(self, capsys, monkeypatch):
        status, _ = run_stdin(capsys, monkeypatch, "pair m=0: x^40 | 0\n", "extend", "-", "--max-degree", "40")
        assert status == 0
        status, _ = run_stdin(capsys, monkeypatch, "pair m=0: x^41 | 0\n", "extend", "-", "--max-degree", "40")
        assert status == 2


class TestSizeBound:
    """The contact order and every order or depth, from an option or from the
    input, are at most the degree cap (checked at cap + 1 only)."""

    OVER = get_degree_cap() + 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["conditions", "--space", f"K{OVER}", "--order", "0"],
            ["conditions", "--space", "K0", "--order", str(OVER)],
            ["symbol", DATA / "pair_second_order_K1.txt", "--space", "K1", "--degree", str(OVER)],
            ["check", DATA / "pair_euler_K1.txt", "--space", "K1", "--probe-depth", str(OVER)],
            ["nullity", "--space", f"K{OVER}"],
        ],
        ids=["space", "order", "degree", "probe-depth", "nullity-space"],
    )
    def test_options(self, capsys, argv):
        status, captured = run(capsys, *argv)
        assert status == 2
        assert f"{self.OVER} exceeds the degree cap {self.OVER - 1}" in captured.err

    @pytest.mark.parametrize(
        "text,argv",
        [
            (f"pair m={OVER}: x | x\n", ["extend", "-"]),
            (f"symbol deg={OVER} m=1: x | y\nsymbol deg=1 m=1: x | y\n", ["bracket", "-"]),
            (f"symbol deg=1 m={OVER}: x | y\nsymbol deg=1 m=1: x | y\n", ["bracket", "-"]),
            (
                f"branch x\nop order={OVER}\ncoeff 1: x\nbranch y\nop order=1\ncoeff 1: y\n",
                ["check", "-", "--space", "K1"],
            ),
        ],
        ids=["pair-m", "symbol-deg", "symbol-m", "op-order"],
    )
    def test_dsl_headers(self, capsys, monkeypatch, text, argv):
        status, captured = run_stdin(capsys, monkeypatch, text, *argv)
        assert status == 2
        assert f"{self.OVER} exceeds the degree cap {self.OVER - 1} at line" in captured.err

    def test_cap_from_option(self, capsys, monkeypatch):
        assert run(capsys, "conditions", "--space", "K4", "--order", "4", "--max-degree", "4")[0] == 0
        status, captured = run(capsys, "conditions", "--space", "K5", "--order", "4", "--max-degree", "4")
        assert status == 2
        assert "--space K5: contact order 5 exceeds the degree cap 4" in captured.err
        status, _ = run_stdin(capsys, monkeypatch, "pair m=4: x | x\n", "extend", "-", "--max-degree", "5")
        assert status == 0


class TestInputLines:
    def test_extend_file_with_leading_comment(self, tmp_path, capsys):
        path = tmp_path / "pair.txt"
        path.write_text("# a pair\npair m=1: x | x\n")
        status, captured = run(capsys, "extend", path)
        assert status == 0
        assert captured.out == "x\n"

    def test_extend_needs_one_pair_line(self, capsys, monkeypatch):
        status, captured = run_stdin(capsys, monkeypatch, "pair m=1: x | x\npair m=1: x | x\n", "extend", "-")
        assert status == 2
        assert "expected one pair line, found 2" in captured.err


class TestEmbedOption:
    """--embed sets the profile h of extend and restrict (default x^(m+1))."""

    def test_extend(self, capsys, monkeypatch):
        text = "pair m=1: x | x + x^2\n"
        status, captured = run_stdin(capsys, monkeypatch, text, "extend", "-", "--embed", "2 x^2")
        assert (status, captured.out) == (0, "x + 1/2*y\n")

    def test_restrict(self, capsys, monkeypatch):
        argv = ("restrict", "-", "--space", "K1", "--embed", "2x^2")
        status, captured = run_stdin(capsys, monkeypatch, "x + y\n", *argv)
        assert (status, captured.out) == (0, "pair m=1: x | 2*y^2 + y\n")

    @pytest.mark.parametrize(
        "text,argv,message",
        [
            (
                "x + y\n",
                ("restrict", "-", "--space", "K1", "--embed", "x^3"),
                "embedding profile must have a zero of exact order 2 at 0, got order 3",
            ),
            (
                "pair m=1: x | x + x^3\n",
                ("extend", "-", "--embed", "x^2 + x^3"),
                "division is not exact, remainder -x^2",
            ),
            ("pair m=1: x | x\n", ("extend", "-", "--embed", ""), "empty expression at line 1"),
            ("pair m=1: x | x\n", ("extend", "-", "--embed", " "), "empty expression at line 1"),
            (
                "x + y\n",
                ("restrict", "-", "--space", "K1", "--embed", ""),
                "empty expression at line 1",
            ),
        ],
        ids=["wrong-order", "inexact", "empty", "blank", "empty-restrict"],
    )
    def test_bad_profile_is_input_error(self, capsys, monkeypatch, text, argv, message):
        status, captured = run_stdin(capsys, monkeypatch, text, *argv)
        assert status == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestErrorLineNumbers:
    """Errors name the input line, counting comment and blank lines."""

    def test_bracket(self, capsys, monkeypatch):
        text = "# two symbols\n\nsymbol deg=1 m=1: x | y\nsymbol deg=1 m=1: x | $\n"
        status, captured = run_stdin(capsys, monkeypatch, text, "bracket", "-")
        assert status == 2
        assert "at line 4, column 23" in captured.err

    def test_witness(self, capsys, monkeypatch):
        text = "# two points\nchar branch=1 at=1\n\nchar branch=3 at=1\n"
        status, captured = run_stdin(capsys, monkeypatch, text, "witness", "-", "--space", "K0")
        assert status == 2
        assert "at line 4" in captured.err

    def test_restrict(self, capsys, monkeypatch):
        text = "# a surface\n\n\nx*y $\n"
        status, captured = run_stdin(capsys, monkeypatch, text, "restrict", "-", "--space", "K1")
        assert status == 2
        assert "at line 4" in captured.err

    def test_restrict_multi_line_surface(self, capsys, monkeypatch):
        for text, where in (
            ("x*y +\n  x^2 $\n", "at line 2, column 7\n"),
            ("x*y +\n\n  x^2 + y^\n", "at line 3\n"),
        ):
            status, captured = run_stdin(capsys, monkeypatch, text, "restrict", "-", "--space", "K1")
            assert status == 2
            assert captured.err.endswith(where)

    def test_input_ending_after_branch_label(self, capsys, monkeypatch):
        text = "# a pair\n\nbranch x\n"
        status, captured = run_stdin(capsys, monkeypatch, text, "check", "-", "--space", "K1")
        assert status == 2
        assert "expected 'op order=<INT>' after this line at line 3" in captured.err


# Each verb that reads input; conditions and nullity read none.
INPUT_VERBS = [
    ["check", "-", "--space", "K1"],
    ["check", "-", "--space", "K0", "--probe-depth"],
    ["compose", "-", "--space", "K1"],
    ["commutator", "-", "--space", "K1"],
    ["symbol", "-", "--space", "K1"],
    ["bracket", "-"],
    ["extend", "-"],
    ["restrict", "-", "--space", "K1"],
    ["witness", "-", "--space", "K0"],
]
DATA_TEXTS = sorted(path.read_text() for path in DATA.glob("*.txt"))
FRAGMENTS = [
    "branch x\n", "branch y\n", "op order=", "coeff ", "pair m=", "symbol deg=",
    "char branch=", " at=", "sing", "1/0", "99", "-", "\n\n", "#",
]


@st.composite
def mutated_data(draw):
    """A data file's text with one to three short spans replaced."""
    text = draw(st.sampled_from(DATA_TEXTS))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        start = draw(st.integers(min_value=0, max_value=len(text)))
        end = draw(st.integers(min_value=start, max_value=min(len(text), start + 8)))
        insert = draw(st.one_of(
            st.text(alphabet="0123456789xy^*+-/:=|# \n", max_size=4),
            st.sampled_from(FRAGMENTS),
        ))
        text = text[:start] + insert + text[end:]
    return text


def run_quiet(argv, text):
    """main(argv) on ``text`` as stdin: the status and the stderr text."""
    stdin, err = sys.stdin, io.StringIO()
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            return main(argv), err.getvalue()
    finally:
        sys.stdin = stdin


@settings(max_examples=60, deadline=None)
@given(mutated_data())
def test_mutated_data_ends_in_an_exit_status(text):
    """Every input verb ends a mutated data file in exit 0, 1 or 2, never in
    an exception, and exit 2 comes with an "error:" line."""
    for argv in INPUT_VERBS:
        status, err = run_quiet(argv, text)
        assert status in (0, 1, 2), (argv, text)
        if status == 2:
            assert err.startswith("error:"), (argv, text)


def test_cli_import_skips_dataclasses_and_inspect():
    """Start-up guard: importing the CLI loads none of these modules, whose
    import (and, without cached bytecode, compilation) costs every CLI call;
    each verb imports the algebra it uses.  ``-S`` keeps installed ``.pth``
    files out."""
    unused = {"dataclasses", "inspect", "json", "random", "curveglue.operators",
              "curveglue.symbols", "curveglue.spectra", "curveglue.sampling"}
    code = f"import curveglue.cli, sys; print(sorted(set({sorted(unused)!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
    # A whole call imports only its verb's modules.
    for argv, unused in [
        (["extend", DATA / "glued_linear_K1.txt"], "curveglue.operators"),
        (["conditions", "--space", "K1", "--order", "2"], "curveglue.spectra"),
    ]:
        done = subprocess.run(
            [sys.executable, "-S", "-X", "importtime", "-m", "curveglue.cli", *map(str, argv)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
        assert "curveglue.dsl" in imported, done.stderr
        assert unused not in imported, argv


def test_cli_runs_as_a_process():
    """``python -m curveglue.cli`` exits through entry() with main's status:
    0 and 1 with their golden output, 2 with one error line and no traceback."""
    def cli(*argv, stdin=""):
        return subprocess.run(
            [sys.executable, "-S", "-m", "curveglue.cli", *map(str, argv)],
            input=stdin,
            env={**os.environ, "PYTHONPATH": str(HERE.parent / "src")},
            capture_output=True,
            text=True,
            timeout=60,
        )

    done = cli("conditions", "--space", "K1", "--order", "2")
    assert (done.returncode, done.stdout) == (0, (GOLDEN / "conditions_K1_order2.txt").read_text())
    done = cli("check", DATA / "pair_dd_K0.txt", "--space", "K0")
    assert (done.returncode, done.stdout) == (1, (GOLDEN / "check_dd_K0.txt").read_text())
    done = cli("check", "-", "--space", "K1", stdin="branch q\n")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: expected 'branch x' at line 1\n"


VERBS = ("check", "compose", "commutator", "symbol", "bracket",
         "conditions", "extend", "restrict", "witness", "nullity")


def parser_exit(parse, argv):
    """Exit status, stdout and stderr of ``parse(argv)``, which exits."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


class TestParserParity:
    """A call that names its verb builds that verb's subparser alone, and
    must print what the full parser prints."""

    @pytest.fixture(autouse=True)
    def _width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width

    @pytest.mark.parametrize("verb", VERBS)
    def test_one_verb_build_prints_the_full_build_help(self, verb):
        one, full = build_parser(verb), build_parser()
        assert one.format_usage() == full.format_usage()
        assert "{" + ",".join(VERBS) + "}" in full.format_usage()
        status, out, err = parser_exit(one.parse_args, [verb, "-h"])
        assert (status, out, err) == parser_exit(full.parse_args, [verb, "-h"])
        assert (status, err) == (0, "") and out.startswith(f"usage: curveglue {verb} ")

    @pytest.mark.parametrize(
        "argv,error",
        [
            ([], "curveglue: error: the following arguments are required: verb"),
            (["bogus"], "curveglue: error: argument verb: invalid choice: 'bogus' (choose from "),
            (["nullity", "--space", "K0", "stray"], "curveglue: error: unrecognized arguments: stray"),
            (["conditions", "--space", "K1"],
             "curveglue conditions: error: the following arguments are required: --order"),
            (["compose", "--space", "K1"],
             "curveglue compose: error: the following arguments are required: files"),
        ],
        ids=["no-verb", "unknown-verb", "stray-argument", "missing-option", "missing-file"],
    )
    def test_argparse_errors(self, argv, error):
        status, out, err = parser_exit(main, argv)
        assert (status, out) == (2, "")
        assert err.splitlines()[-1].startswith(error)
        assert (status, out, err) == parser_exit(build_parser().parse_args, argv)
