import contextlib
import io
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclohouse import (
    CycNum,
    CyclohouseError,
    DomainError,
    ParseError,
    Poly,
    RatFunc,
    ResourceLimitError,
    format_value,
    parser,
    parse_ratfunc,
    parse_scalar,
    ratfunc,
    ratfunc_new,
)
from cyclohouse.cli import main
from cyclohouse.parser import NESTING_LIMIT
from cyclohouse.ratfunc import POWER_BITS_CEILING

from . import parser_reference as ref


class TestGrammar:
    def test_rational_function(self):
        h = parse_ratfunc("(x^3 + z5*x)/(x - 1)")
        assert h == ratfunc_new(
            Poly([0, CycNum.zeta(5), 0, 1]), Poly([-1, 1])
        )

    def test_scalar_reduction(self):
        assert parse_scalar("z3 + z3^2") == CycNum.from_rational(-1)

    def test_negative_power_of_x(self):
        assert parse_ratfunc("x^-2 + 2") == ratfunc_new(
            Poly([1, 0, 2]), Poly([0, 0, 1])
        )

    def test_division_is_always_field_division(self):
        assert parse_scalar("3/2").as_rational() == Fraction(3, 2)
        assert parse_scalar("1/2/2").as_rational() == Fraction(1, 4)

    def test_unary_minus_binds_powered_base(self):
        assert parse_scalar("-2^2").as_rational() == -4

    def test_power_precedence(self):
        assert parse_ratfunc("2*x^3") == RatFunc.from_poly(Poly([0, 0, 0, 2]))

    def test_whitespace_insignificant(self):
        assert parse_ratfunc(" ( x + 1 ) ^ 2 ") == parse_ratfunc("(x+1)^2")

    def test_parenthesized_expression_power(self):
        assert parse_ratfunc("(x + 1)^-1") == ratfunc_new(Poly([1]), Poly([1, 1]))


class TestErrors:
    @pytest.mark.parametrize(
        "text,pos",
        [
            ("2x", 1),
            ("z", 0),
            ("z0", 0),
            ("x +", 3),
            ("(x", 2),
            ("x^x", 2),
            ("y", 0),
            ("x^(2)", 2),
            ("", 0),
        ],
    )
    def test_syntax_errors_carry_positions(self, text, pos):
        with pytest.raises(ParseError) as err:
            parse_ratfunc(text)
        assert err.value.position == pos

    def test_division_by_zero_value(self):
        with pytest.raises(DomainError):
            parse_ratfunc("1/(x - x)")

    def test_scalar_requires_x_free(self):
        with pytest.raises(DomainError):
            parse_scalar("x + 1")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "z5^2",
            "2*x^3/(x + 1)",
            "(x^2 + 1)/(x - 1)",
            "-3/2",
            "1 + z5",
            "x^3 - 3*x",
            "0",
            "-x^3 + 2",
            "(1 + z5)*x^2 + 3",
            "3*z7^2*x - 1/2",
            "(1 + z5)/x^2",
            "x^-3",
        ],
    )
    def test_named_cases(self, text):
        value = parse_ratfunc(text)
        rendered = format_value(value)
        assert parse_ratfunc(rendered) == value
        assert format_value(parse_ratfunc(rendered)) == rendered


def _random_expr(rng: random.Random, depth: int) -> str:
    if depth == 0:
        kind = rng.randrange(4)
        if kind == 0:
            return "x"
        if kind == 1:
            return str(rng.randint(0, 30))
        if kind == 2:
            return f"z{rng.randint(1, 12)}"
        return f"z{rng.randint(2, 10)}^{rng.randint(0, 9)}"
    op = rng.randrange(6)
    if op == 0:
        return f"{_random_expr(rng, depth - 1)} + {_random_expr(rng, depth - 1)}"
    if op == 1:
        return f"{_random_expr(rng, depth - 1)} - {_random_expr(rng, depth - 1)}"
    if op == 2:
        return f"{_random_expr(rng, depth - 1)} * {_random_expr(rng, depth - 1)}"
    if op == 3:
        return f"({_random_expr(rng, depth - 1)}) / (x^2 + {rng.randint(1, 9)})"
    if op == 4:
        return f"({_random_expr(rng, depth - 1)})^{rng.randint(0, 3)}"
    return f"-({_random_expr(rng, depth - 1)})"


class TestRootOfUnityPowers:
    @pytest.mark.parametrize("n", [1, 2, 6, 10, 12, 2520])
    def test_power_of_zeta_literal(self, n, monkeypatch):
        ks = (-n - 1, -1, 0, 1, n, n + 3)
        # by multiplication, and through inverse() for k < 0
        expected = {k: CycNum.zeta(n) ** k for k in ks}
        # zN^k is read as zeta_N^k directly: no inversion, not even for k < 0
        monkeypatch.setattr(CycNum, "inverse", _no_inverse)
        for k in ks:
            for text in (f"z{n}^{k}", f"(z{n})^{k}"):
                assert parse_scalar(text) == expected[k], text
            assert parse_scalar(f"-z{n}^{k}") == -expected[k]


def _no_inverse(self):
    raise AssertionError("zN^k must not invert")


class TestFuzz:
    def test_five_hundred_random_round_trips(self):
        rng = random.Random(987654321)
        checked = 0
        while checked < 500:
            text = _random_expr(rng, rng.randint(1, 3))
            try:
                value = parse_ratfunc(text)
            except DomainError:
                continue  # division by a zero value; still a valid parse
            rendered = format_value(value)
            reparsed = parse_ratfunc(rendered)
            assert reparsed == value, (text, rendered)
            assert format_value(reparsed) == rendered, (text, rendered)
            checked += 1


def _outcome(parse, text):
    """(repr, hash) of the parsed value, or the error's type and message."""
    try:
        value = parse(text)
    except CyclohouseError as err:
        return type(err), str(err)
    return repr(value), hash(value)


def _texts(n):
    """Expressions over Q(zeta_n) up to three levels deep: sums, products,
    quotients (by constants, by non-constants and by zero), negations
    and powers from -3 to 4."""
    leaves = st.sampled_from(
        ["x", "x", "0", "2", "(x - x)", f"z{n}", f"z{n}^-2", f"(x - z{n})", f"(3*x + z{n}^2)"]
    )

    @st.composite
    def text(draw, depth):
        if depth == 0:
            return draw(leaves)
        op = draw(st.sampled_from("+-*/^-"))
        lhs = draw(text(depth - 1))
        if op == "^":
            return f"({lhs})^{draw(st.integers(-3, 4))}"
        if op == "-" and draw(st.booleans()):
            return f"-({lhs})"
        return f"({lhs}) {op} ({draw(text(draw(st.integers(0, depth - 1))))})"

    return st.integers(1, 3).flatmap(text)


# Built once: a strategy built inside a draw is validated on every draw.
TEXTS = {n: _texts(n) for n in (1, 3, 4, 5, 12)}


class TestAgainstReference:
    @pytest.mark.parametrize("n", TEXTS)
    @given(data=st.data())
    def test_matches_ratfunc_per_node_evaluation(self, n, data):
        text = data.draw(TEXTS[n])
        assert _outcome(parse_ratfunc, text) == _outcome(ref.parse_ratfunc, text)

    @pytest.mark.parametrize(
        "text",
        ["x^-2", "0^-1", "x/0", "(x-x)^0", "(x-x)^-1", "2^-3*x", "3/(x - x)", "x/(2*z5)",
         "(x^2 + 1)^-3", "((x + 1)/(x - 1))^-2", "(x/x)^7", "((x^2 - 1)/(x - 1))^3",
         "-(x + z4)^3/(2*z5)", "(1/x)^-3", "x*(1/x)", "(z12*x - 1/3)^7 / (x + z3)"],
    )
    def test_edge_cases(self, text):
        assert _outcome(parse_ratfunc, text) == _outcome(ref.parse_ratfunc, text)

    @pytest.mark.parametrize(
        "text",
        ["(2*x+1)^12 + z12*(2*x+1)^11", "((x - z4)/z6)^9 + z3*((x - z4)/z6)^4"],
    )
    def test_polynomial_text_makes_no_product_and_no_gcd(self, text, monkeypatch):
        expected = ref.parse_ratfunc(text)
        counts = {"mul": 0, "gcd": 0}

        def counted(key, f):
            def wrapper(*args):
                counts[key] += 1
                return f(*args)

            return wrapper

        monkeypatch.setattr(Poly, "__mul__", counted("mul", Poly.__mul__))
        monkeypatch.setattr(ratfunc, "poly_gcd", counted("gcd", ratfunc.poly_gcd))
        assert parse_ratfunc(text) == expected
        assert counts == {"mul": 0, "gcd": 0}


class TestDegreeCeiling:
    @pytest.mark.parametrize("text", ["x^1000001", "x^-1000001", "(x^2 + 1)^500001", "(1/x^3)^-400000"])
    def test_power_past_the_ceiling_is_refused(self, text):
        with pytest.raises(ResourceLimitError, match="degree ceiling 1000000"):
            parse_ratfunc(text)

    def test_power_at_the_ceiling_and_of_constants_is_built(self):
        assert parse_ratfunc("x^1000000").num.deg == 1_000_000
        assert parse_ratfunc("(x^2 + 1)^0 * 2^30") == RatFunc.const(2**30)
        assert parse_ratfunc("(x - x)^100000000") == RatFunc.const(0)


class TestPowerCeiling:
    def test_constant_power_is_refused_past_the_ceiling(self):
        # size_bits(2) = 3: one bit of denominator, two of numerator
        assert 3 * 349525 <= POWER_BITS_CEILING < 3 * 349526
        assert parse_ratfunc("2^349525") == RatFunc.const(2**349525)
        for text in ("2^349526", "(1/2)^-349526", "(1 + z7)^1000000"):
            with pytest.raises(ResourceLimitError, match="power ceiling"):
                parse_ratfunc(text)

    def test_powers_that_keep_their_size_are_built(self):
        assert parse_ratfunc("(-1)^100000001") == RatFunc.const(-1)
        # -z7^3 = z14^13
        want = CycNum.zeta(14, 13 * 100000000 % 14)
        assert parse_ratfunc("(-z7^3)^100000000") == RatFunc.const(want)
        assert parse_ratfunc("(z4 - z4)^100000000") == RatFunc.const(0)


class TestNesting:
    def test_nesting_at_the_limit_parses(self):
        text = "(" * NESTING_LIMIT + "x" + ")" * NESTING_LIMIT
        assert parse_ratfunc(text) == RatFunc.from_poly(Poly.x())

    def test_nesting_past_the_limit_fails_at_the_parenthesis(self):
        text = "x + " + "(" * (NESTING_LIMIT + 1) + "x" + ")" * (NESTING_LIMIT + 1)
        with pytest.raises(ParseError, match="nested more than") as err:
            parse_ratfunc(text)
        assert err.value.position == 4 + NESTING_LIMIT

    def test_each_kind_of_nesting_evaluates_at_the_limit(self):
        def nested(wrap):
            text = "x"
            for _ in range(NESTING_LIMIT):
                text = wrap.format(text)
            return parse_ratfunc(text)

        # "neg", "pow" and right operands recurse once per level, within the limit
        assert nested("-({})") == RatFunc.from_poly(Poly.x())
        assert nested("(x*{})/x") == RatFunc.from_poly(Poly.x())
        assert nested("1 - (1 + {})^1") == RatFunc.from_poly(Poly.x())
        with pytest.raises(DomainError, match="division by zero"):
            nested("1/(x - {})")  # the innermost 1/(x - x)

    def test_long_chains_fold_in_order(self):
        # 1,000 operands were a RecursionError when each took a frame
        terms = 2000
        text = "0" + "".join(f" {'+-'[i % 2]} x*{i}/{i + 1}" for i in range(terms))
        expected = sum((-1) ** i * Fraction(i, i + 1) for i in range(terms))
        assert parse_ratfunc(text) == RatFunc.from_poly(Poly([0, expected]))
        text = "x" + "*x/x" * 1000 + "*2" * 1000 + "/2" * 1000
        assert parse_ratfunc(text) == RatFunc.from_poly(Poly([0, 1]))


class TestInputBoundary:
    def test_digit_and_space_characters_tokenize_or_raise_parse_errors(self):
        # \d and \s in the token pattern accept what int() and str.isspace do
        kinds = set()
        for ch in map(chr, range(sys.maxunicode + 1)):
            if not (ch.isdigit() or ch.isspace()):
                continue
            try:
                tokens = parser._tokenize(ch)
            except ParseError as err:
                assert not ch.isdecimal() and err.position == 0, repr(ch)
                kinds.add("error")
                continue
            if ch.isdecimal():
                assert tokens == [("int", 0, int(ch)), ("end", 1, None)], repr(ch)
            else:
                assert ch.isspace() and tokens == [("end", 1, None)], repr(ch)
            kinds.add(tokens[0][0])
        assert kinds == {"int", "end", "error"}

    def test_random_texts_end_in_a_value_or_a_library_error(self):
        alphabet = list("xz0123456789+-*/^() \t²٣")
        rng = random.Random(20261019)
        outcomes = set()
        for _ in range(10000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            try:
                parse_ratfunc(text)
            except CyclohouseError as err:
                outcomes.add(type(err))
            else:
                outcomes.add(RatFunc)
        assert {RatFunc, ParseError} <= outcomes

    def test_superscript_exponent_is_a_syntax_error_at_the_cli(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["degree", "x^²"])
        assert code == 2
        error = json.loads(buf.getvalue())["error"]
        assert error["type"] == "syntax" and error["position"] == 2
