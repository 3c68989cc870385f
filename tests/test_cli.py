"""Golden-file tests: every CLI command, byte-identical deterministic output.

A CASES entry is (argv, exit code) or (argv, exit code, environment);
``apply_case`` sets the environment with monkeypatch.
"""

import ast
import io
import json
import contextlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cyclohouse.cli import main
from cyclohouse.errors import (
    CyclohouseError,
    DomainError,
    ParseError,
    ResourceLimitError,
    UndecidedError,
)

from .util import forbid_loxton_tables

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

CASES = {
    "house": (["house", "1 + z5", "--bits", "128"], 0),
    "integer": (["integer", "1 + z8"], 0),
    "rootofunity": (["rootofunity", "1 + z3"], 0),
    "pa": (["pa", "1 + z5", "--A", "2"], 0),
    "pa_boundary": (["pa", "2*z3", "--A", "2"], 0),
    "decompose": (["decompose", "1 + z5 + z5^2", "--dmax", "4"], 0),
    "cheb": (["cheb", "3"], 0),
    "compose": (["compose", "x^2", "x^3"], 0),
    "iterate": (["iterate", "x^2 - 2", "2"], 0),
    "degree": (["degree", "2*x^3/(x + 1)"], 0),
    "poles": (["poles", "1/(x^3 - x)"], 0),
    "special": (["special", "x^2 + 2*x"], 0),
    "normalize": (["normalize", "2*x^3/(x + 1)"], 0),
    "orbit": (["orbit", "x^2 - 2", "z8 + z8^-1", "--n", "2", "--A", "2"], 0),
    "scan": (["scan", "x^2", "--M", "4", "--A", "1"], 0),
    "scan_csv": (["scan", "x^2 + x", "--M", "4", "--A", "1", "--csv"], 0),
    "witness-check": (
        [
            "witness-check",
            "x^2 - 2",
            "--S",
            "x + x^-1",
            "--terms",
            '[{"beta":{"order":1,"exp":0},"e":"1","n":2},'
            '{"beta":{"order":1,"exp":0},"e":"1","n":-2}]',
        ],
        0,
    ),
    "witness-search": (["witness-search", "x^4 - 4*x^2 + 2", "--dmax", "2"], 0),
    "verdict": (["verdict", "1/(x^3 - x)", "--A", "7", "--budget", "5"], 0),
    "bounds": (["bounds", "--l", "3"], 0),
    "fz-verify": (["fz-verify", "x^3 + x", "x^2 + x"], 0),
    "specialterms": (["specialterms", "x^3 + x", "x^2 + x", "--n", "3"], 0),
    "err_syntax": (["degree", "2x"], 2),
    "err_domain": (["compose", "x", "1/0"], 1),
    "err_resource": (["iterate", "x^2", "64"], 3),
    # F_101/F_100 is about 2^-138 above the golden ratio, the house of 1 + z5
    "err_undecided": (
        ["pa", "1 + z5", "--A", "573147844013817084101/354224848179261915075"],
        4,
        {"CYCLOHOUSE_PRECISION_CAP": "128"},
    ),
}


def _src_env() -> dict:
    """This environment with ./src first on PYTHONPATH, for a new process."""
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def apply_case(name, monkeypatch):
    """argv and exit code of a golden case, with its environment set."""
    argv, code, *env = CASES[name]
    for key, value in (env[0] if env else {}).items():
        monkeypatch.setenv(key, value)
    return argv, code


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, monkeypatch):
    argv, expected_code = apply_case(name, monkeypatch)
    code, out = _run(argv)
    assert code == expected_code
    golden = (GOLDEN_DIR / f"{name}.out").read_text()
    assert out == golden


def test_json_goldens_hold_only_integer_numbers():
    # exact decimals are printed as strings; a JSON float would be a
    # claim that no integer reasoning proves
    def refuse(token):
        raise AssertionError(f"non-integer JSON number {token}")

    for name, (argv, *_) in sorted(CASES.items()):
        if "--csv" not in argv:
            text = (GOLDEN_DIR / f"{name}.out").read_text()
            json.loads(text, parse_float=refuse, parse_constant=refuse)


@pytest.mark.parametrize("name", sorted(CASES))
def test_deterministic_across_runs(name, monkeypatch):
    argv, _ = apply_case(name, monkeypatch)
    _, out1 = _run(argv)
    _, out2 = _run(argv)
    assert out1 == out2


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_json_or_csv(name, monkeypatch):
    argv, _ = apply_case(name, monkeypatch)
    _, out = _run(argv)
    if "--csv" in argv:
        assert out.splitlines()[0] == "order,exponent,value,house_lower,house_upper,in_PA"
    else:
        json.loads(out)


def test_spec_cheb_golden_is_exact():
    _, out = _run(["cheb", "3"])
    assert out == '{"poly": "x^3 - 3*x"}\n'


def test_verdict_json_fields():
    _, out = _run(["verdict", "x^2 - 2", "--A", "2", "--budget", "2"])
    doc = json.loads(out)
    assert doc["verdict"] == "witness_found"
    assert doc["witness"]["S"] == "(x^2 + 1)/x"


def test_exit_code_success_and_missing_command():
    code, _ = _run(["bounds", "--l", "1"])
    assert code == 0


def test_usage_error_emits_json(capsys):
    import contextlib as _ctx

    with _ctx.redirect_stderr(io.StringIO()):
        code, out = _run(["no-such-command"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "usage"


@pytest.mark.parametrize("argv", [["house", "-z5"], ["degree", "-x+1"]])
def test_an_expression_may_begin_with_a_minus_sign(argv):
    # argparse once read "-z5" as an unknown option: a usage error, exit 2
    code, out = _run(argv)
    assert code == 0
    assert (code, out) == _run([argv[0], "--", argv[1]])


def _parse(parser, argv):
    """(exit code or None, stdout, stderr) of ``parser.parse_args(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_help_and_every_option_still_parse(monkeypatch):
    import argparse

    from cyclohouse.cli import _build_parser

    monkeypatch.setenv("COLUMNS", "80")
    top = _build_parser()
    (sub,) = (a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        # options first, so a value beginning with "-" follows each option
        argv, expected = [name], {}
        actions = sorted(parser._actions, key=lambda a: not a.option_strings)
        for action in actions:
            if isinstance(action, argparse._HelpAction):
                continue
            value, text = (-3, "-3") if action.type is int else ("-x", "-x")
            if action.nargs == 0:
                value, text = True, None
            argv += [*action.option_strings[:1], *([text] if text else [])]
            expected[action.dest] = value
        args = top.parse_args(argv)
        assert {key: getattr(args, key) for key in expected} == expected, argv
        # a one-subparser build parses, helps and refuses as the full build
        one = _build_parser([name])
        assert one.parse_args(argv) == args, argv
        help_text, missing, extra = (
            [_parse(parser, probe) for parser in (one, top)]
            for probe in ([name, "--help"], [name], argv + ["--no-such-option"])
        )
        assert help_text[0] == help_text[1] and help_text[0][0] == 0, name
        assert missing[0] == missing[1] and missing[0][0] == 2, name
        assert "the following arguments are required" in missing[0][2], name
        assert extra[0] == extra[1] and "unrecognized arguments" in extra[0][2], name
        for flag in ("-h", "--help"):
            code, out = _run([name, flag])
            assert code == 0 and out.startswith(f"usage: cyclohouse {name} [-h]")
    for flag in ("-h", "--help"):
        code, out = _run([flag])
        assert code == 0 and out.startswith("usage: cyclohouse [-h]")


# One case per exit code, and two usage errors: an unknown command (the
# full parser) and a named command without its argument (one subparser).
ENTRY_CASES = ["house", "err_domain", "err_syntax", "err_resource", "err_undecided"]
USAGE_ERRORS = {"usage_unknown": ["no-such-command"], "usage_missing": ["house"]}
ENTRY_POINTS = {
    "module": ["-m", "cyclohouse.cli"],
    "run": ["-c", "import cyclohouse.cli; cyclohouse.cli.run()"],
}


@pytest.mark.parametrize("case", ENTRY_CASES + list(USAGE_ERRORS))
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_process_matches_in_process_main(entry, case, monkeypatch):
    # the freeze before exit lives only on this path; main in-process skips it
    monkeypatch.setenv("COLUMNS", "80")
    if case in USAGE_ERRORS:
        argv, expected_code = USAGE_ERRORS[case], 2
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, expected_out = _run(argv)
        assert code == 2 and json.loads(expected_out)["error"]["type"] == "usage"
        expected_err = err.getvalue()
    else:
        argv, expected_code = apply_case(case, monkeypatch)
        expected_out, expected_err = (GOLDEN_DIR / f"{case}.out").read_text(), ""
    proc = subprocess.run(
        [sys.executable, *ENTRY_POINTS[entry], *argv],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        expected_code, expected_out, expected_err
    )


def test_precision_cap_env_variable(monkeypatch):
    from fractions import Fraction

    from cyclohouse import CycNum, UndecidedError, house
    from cyclohouse.cyclotomic import precision_cap

    monkeypatch.setenv("CYCLOHOUSE_PRECISION_CAP", "128")
    assert precision_cap() == 128
    a = CycNum.from_rational(1) + CycNum.zeta(5)
    with pytest.raises(UndecidedError):
        house(a, 4096)
    monkeypatch.delenv("CYCLOHOUSE_PRECISION_CAP")
    assert precision_cap() == 4096


@pytest.mark.parametrize("value", ["abc", "10", "63", "-1", ""])
def test_malformed_precision_cap_is_a_domain_error(monkeypatch, value):
    monkeypatch.setenv("CYCLOHOUSE_PRECISION_CAP", value)
    code, out = _run(["pa", "1 + z5", "--A", "2"])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "domain"
    assert "CYCLOHOUSE_PRECISION_CAP" in error["message"]


@pytest.mark.parametrize("cap", ["127", "64"])
def test_a_cap_below_the_first_bucket_still_runs_a_rung(monkeypatch, cap):
    # the ladder's first bucket for 2*z5 is 128 bits; a lower cap is its first rung
    monkeypatch.setenv("CYCLOHOUSE_PRECISION_CAP", cap)
    code, out = _run(["pa", "2*z5", "--A", "3"])
    assert code == 0
    assert json.loads(out)["verdict"] == "member"


def test_no_per_call_precision_or_ceiling_parameters():
    import inspect

    from cyclohouse import avoidance, cyclotomic, ratfunc

    knobs = {"cap", "accuracy_bits", "monomial_ceiling", "max_half_table"}
    functions = [
        cyclotomic.in_PA,
        cyclotomic.compare_house,
        cyclotomic.loxton_decompose,
        avoidance.monic_normalize,
        avoidance.orbit,
        avoidance.verify_orbit_lemma,
        avoidance.scan_roots_of_unity,
        ratfunc.iterate,
    ]
    for f in functions:
        assert not knobs & set(inspect.signature(f).parameters), f.__name__
    assert "cap" not in inspect.signature(cyclotomic.house).parameters


def test_loxton_ceiling_exits_3_before_the_torsion_list(monkeypatch):
    from cyclohouse import cyclotomic

    monkeypatch.setattr(cyclotomic, "LOXTON_HALF_TABLE_CEILING", 13)
    forbid_loxton_tables(monkeypatch)
    code, out = _run(["decompose", "1 + z7", "--dmax", "2"])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "resource"


def test_scan_past_the_conductor_ceiling_exits_3_at_once():
    start = time.process_time()
    code, out = _run(["scan", "x^2-2", "--M", "1000000000", "--A", "2"])
    assert time.process_time() - start < 0.5
    assert code == 3
    assert json.loads(out)["error"] == {
        "type": "resource",
        "message": "scan ceiling exceeded: coefficient conductor 1 times order cap "
        "1000000000 is above 2048",
    }


def test_unexpected_exception_is_internal_error(monkeypatch):
    import cyclohouse.cli as cli_mod

    def boom(args):
        raise RuntimeError("simulated failure")

    monkeypatch.setattr(cli_mod, "_cmd_degree", boom)
    code, out = _run(["degree", "x^2"])
    assert code == 5
    doc = json.loads(out)
    assert doc["error"]["type"] == "internal"
    assert "simulated failure" in doc["error"]["message"]


@pytest.mark.parametrize(
    "error, kind, code",
    [
        (DomainError("outside"), "domain", 1),
        (ParseError("bad token", 3, ("x", "(")), "syntax", 2),
        (ResourceLimitError("too big"), "resource", 3),
        (UndecidedError("too close"), "undecided", 4),
        (CyclohouseError("unclassified"), "internal", 5),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_each_error_class_carries_its_type_and_exit_code(monkeypatch, error, kind, code):
    import cyclohouse.cli as cli_mod

    def fail(args):
        raise error

    monkeypatch.setattr(cli_mod, "_cmd_degree", fail)
    assert _run(["degree", "x^2"]) == (code, json.dumps({"error": error.to_dict()}) + "\n")
    expected = {"type": kind, "message": str(error)}
    if kind == "syntax":
        expected.update(position=3, expected=["x", "("])
    assert error.to_dict() == expected


def test_an_answer_that_cannot_be_serialized_is_one_json_line(monkeypatch):
    import cyclohouse.cli as cli_mod

    monkeypatch.setattr(cli_mod, "_cmd_degree", lambda args: {"value": 10**5000})
    code, out = _run(["degree", "x^2"])
    assert code == 5
    assert json.loads(out)["error"]["type"] == "internal"


def test_a_handler_exit_is_not_a_usage_error(monkeypatch):
    import cyclohouse.cli as cli_mod

    def leave(args):
        raise SystemExit(7)

    monkeypatch.setattr(cli_mod, "_cmd_degree", leave)
    with pytest.raises(SystemExit):
        _run(["degree", "x^2"])


def test_only_main_writes_stdout():
    # every handler returns its answer; main writes it and picks the exit code
    offenders = []
    tree = ast.parse((SRC / "cyclohouse" / "cli.py").read_text())
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef) or func.name == "main":
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                callee = ast.unparse(node.func)
                if callee in ("_emit", "print", "sys.stdout.write"):
                    offenders.append(f"{func.name}:{node.lineno} calls {callee}")
            returned = getattr(node, "value", None) if isinstance(node, ast.Return) else None
            if isinstance(returned, ast.Name) and returned.id.startswith("EXIT_"):
                offenders.append(f"{func.name}:{node.lineno} returns {returned.id}")
    assert not offenders


WITNESS_CHECK = ["witness-check", "x^2 - 2", "--S", "x + x^-1", "--terms"]


@pytest.mark.parametrize(
    "terms",
    [
        "[1]",
        '{"a":1}',
        '[{"beta":{"order":"a","exp":0},"n":2}]',
        '[{"beta":{"order":1,"exp":0},"n":1.5}]',
        '[{"beta":{"order":1,"exp":0}}]',
        '[{"beta":{"order":1},"n":2}]',
        '[{"beta":{"order":1,"exp":true},"n":2}]',
        '[{"beta":{"order":1,"exp":0},"e":1,"n":2}]',
        '[{"n":2}]',
    ],
)
def test_malformed_witness_terms_are_domain_errors(terms):
    code, out = _run(WITNESS_CHECK + [terms])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "domain"


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "1/(x-1)", "--M", "1", "--A", "-3"],
        ["scan", "1/(x-1)", "--M", "1", "--A", "1/2"],
        ["scan", "x^2", "--M", "3", "--A", "1/2"],
    ],
)
def test_scan_rejects_A_below_1_even_when_every_root_is_a_pole(argv):
    code, out = _run(argv)
    assert code == 1
    assert json.loads(out)["error"] == {"type": "domain", "message": "A must be at least 1"}


def test_negative_budget_is_a_domain_error():
    code, out = _run(["verdict", "x^3 + 2", "--A", "2", "--budget", "-1"])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "domain"


@pytest.mark.parametrize(
    "argv",
    [
        ["pa", "1", "--A", "1e999999"],
        ["pa", "1", "--A", "1e99999999"],
        ["pa", "1", "--A", "1e-99999999"],
        ["orbit", "x^2 - 2", "z8 + z8^-1", "--n", "2", "--A", "1e99999999"],
        ["scan", "x^2", "--M", "4", "--A", "1e-99999999"],
        ["verdict", "1/(x^3 - x)", "--A", "1e999999", "--budget", "5"],
    ],
)
def test_huge_decimal_exponent_is_a_domain_error(argv):
    start = time.process_time()
    code, out = _run(argv)
    assert time.process_time() - start < 1
    assert code == 1
    assert json.loads(out)["error"]["type"] == "domain"


def test_real_parameter_prints_back_up_to_the_digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no int-to-str digit limit")
    code, out = _run(["pa", "1", "--A", f"5e{limit - 1}"])
    assert code == 0
    assert json.loads(out)["A"] == "5" + "0" * (limit - 1)
    for text in (f"55e{limit - 1}", f"1e-{limit}"):
        code, out = _run(["pa", "1", "--A", text])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "domain"


@pytest.mark.parametrize(
    "argv",
    [
        ["integer", "2^20000"],
        ["iterate", "x^2", "20000"],  # its ceiling message would print 2^20000
        ["bounds", "--l", "7000"],
    ],
)
def test_number_too_long_to_print_is_a_resource_error(argv):
    code, out = _run(argv)
    assert code == 3
    assert json.loads(out)["error"]["type"] == "resource"


def test_integer_literal_past_the_digit_limit_is_a_domain_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no int-to-str digit limit")
    code, out = _run(["integer", "7" * limit])
    assert code == 0
    assert json.loads(out)["value"] == "7" * limit
    digits = "7" * (limit + 1)
    for text, position in ((digits, 0), ("x + z" + digits, 4), ("x^-" + digits, 3)):
        code, out = _run(["integer", text])
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "domain",
            "message": f"integer of more than {limit} digits at position {position}",
        }


def test_witness_term_order_past_the_digit_limit_is_a_domain_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no int-to-str digit limit")
    order = "1" + "0" * limit
    terms = '[{"beta":{"order":%s,"exp":0},"n":2}]' % order
    code, out = _run(["witness-check", "x^2", "--S", "x", "--terms", terms])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "domain"


def test_bounds_refuses_an_unprintable_cap_before_building_it():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no int-to-str digit limit")
    start = time.process_time()
    code, out = _run(["bounds", "--l", "10000000"])  # 2016 * 5^l: 7.7 s to build
    assert time.process_time() - start < 0.5
    assert code == 3
    assert json.loads(out)["error"]["message"] == (
        f"a number of more than {limit} digits cannot be printed"
    )


def test_cheb_refuses_an_unprintable_degree_before_building_it():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no int-to-str digit limit")
    start = time.process_time()
    code, out = _run(["cheb", "100000"])  # T_20000 alone ran past 20 s
    assert time.process_time() - start < 1
    assert code == 3
    assert json.loads(out)["error"]["message"] == (
        f"a number of more than {limit} digits cannot be printed"
    )


def test_cheb_below_the_print_limit_still_answers():
    code, out = _run(["cheb", "2000"])
    assert code == 0
    assert json.loads(out)["poly"].startswith("x^2000 - 2000*x^1998 + 1997000*x^1996 - ")


def test_cheb_just_below_the_refusal_is_built_from_the_closed_form():
    from cyclohouse.formatting import format_value
    from cyclohouse.ratfunc import chebyshev

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit != 4300:
        pytest.skip("the degree is sized for the default 4300-digit limit")
    chebyshev.cache_clear()
    start = time.process_time()
    code, out = _run(["cheb", "20734"])  # 45 s by the three-term recurrence
    assert time.process_time() - start < 5
    # built, then refused by the printer: its coefficients pass 4300 digits
    assert code == 3
    assert json.loads(out)["error"]["message"] == (
        "a number of more than 4300 digits cannot be printed"
    )
    # the printer checks every coefficient's size before it converts any
    # (1.09 s when it converted them one at a time up to the first too long)
    t_d = chebyshev(20734)
    start = time.process_time()
    with pytest.raises(ResourceLimitError, match="more than 4300 digits"):
        format_value(t_d)
    assert time.process_time() - start < 0.5
    chebyshev.cache_clear()


@pytest.mark.parametrize("n", [10**8, 10**9, 10**10, -(10**10)])
def test_witness_check_with_a_large_exponent_ends_in_json(n):
    # 2.1 s and 1.5 GB at 10^8, killed at 7.6 GB at 10^9, MemoryError (exit 5)
    # at 10^10: the witness sum was made dense from its lowest exponent up
    terms = '[{"beta":{"order":1,"exp":0},"e":"1","n":%d}]' % n
    start = time.process_time()
    code, out = _run(["witness-check", "x^2", "--S", "x", "--terms", terms])
    assert time.process_time() - start < 1
    assert code in (0, 3)
    assert json.loads(out)["valid"] is False


def test_witness_check_compares_term_by_term():
    terms = '[{"beta":{"order":1,"exp":0},"e":"1","n":2},{"beta":{"order":1,"exp":0},"n":-2}]'
    assert json.loads(_run(WITNESS_CHECK + [terms])[1])["valid"] is True
    # x + 1/x is not a witness for h = x: the sum sits at other exponents
    code, out = _run(["witness-check", "x", "--S", "x + x^-1", "--terms", terms])
    assert (code, json.loads(out)["valid"]) == (0, False)


def test_special_of_a_sparse_power_builds_no_root():
    # each model fails a test that does not depend on the root u, so none of
    # the 3999 roots is built (9.6 s cold when all of them were)
    start = time.process_time()
    code, out = _run(["special", "x^4000 + 3"])
    assert time.process_time() - start < 1
    assert (code, json.loads(out)) == (0, {"status": "not_special", "certificate": None})


def test_iterate_ceiling_does_not_build_d_to_the_n():
    start = time.process_time()
    code, out = _run(["iterate", "x^3", "1000000000000"])
    assert time.process_time() - start < 1
    assert code == 3
    assert "3^1000000000000" in json.loads(out)["error"]["message"]


def test_compose_past_the_iterate_ceiling_is_refused_before_any_product():
    start = time.process_time()
    code, out = _run(["compose", "x^1000", "x^1000"])  # 58 s CPU and 2.3 GB before a kill
    assert time.process_time() - start < 1
    assert code == 3
    assert json.loads(out)["error"]["message"] == (
        "compose would expand to about 1000000 monomials (ceiling 1000000)"
    )


def test_monomial_compose_spreads_the_coefficients():
    start = time.process_time()
    code, out = _run(["compose", "x^400", "x^400"])  # 9.7 s by dense products
    assert time.process_time() - start < 1
    assert (code, out) == (0, '{"ratfunc": "x^160000"}\n')


def test_orbit_past_the_power_ceiling_is_refused_at_the_first_large_point():
    start = time.process_time()
    code, out = _run(["orbit", "x^2+1", "2", "--n", "40", "--A", "2"])  # 5 s at --n 24
    assert time.process_time() - start < 1
    assert code == 3
    assert json.loads(out)["error"]["message"] == "orbit point 20 exceeds 1048576 bits"


@pytest.mark.parametrize(
    "argv",
    [
        ["house", "z1000000000000"],  # MemoryError, exit 5
        ["rootofunity", "z99999999999999999999"],  # past 20 s factorizing
        ["integer", "z9999999999999999999999999"],  # past 20 s
        ["house", "z999999999999999999999999999999"],  # past 20 s
        ["integer", "z2000003"],  # answered in 1.5 s
        ["integer", "z10000019"],  # answered in 8.5 s and 1.3 GB
        ["house", "z1021 * z1031"],  # a product at conductor 1021 * 1031
    ],
)
def test_conductor_past_the_ceiling_exits_3_at_once(argv):
    start = time.process_time()
    code, out = _run(argv)
    assert time.process_time() - start < 1
    assert code == 3
    assert json.loads(out)["error"]["message"].endswith("is above 1048576")


def test_orbit_needs_no_escape_radius():
    # the house of 10^2000 * z7 needs more than the precision cap; orbit
    # prints D, not the escape radius R, so it never asks for that house
    start = time.process_time()
    code, out = _run(["orbit", "x^3 + 10^2000*z7", "1", "--n", "0", "--A", "2"])
    assert time.process_time() - start < 1
    assert code == 0
    doc = json.loads(out)
    assert (doc["points"], doc["D"], doc["hit_indices"]) == (["1"], 1, [0])
    # normalize prints R, so it still cannot answer
    code, out = _run(["normalize", "x^3 + 10^2000*z7"])
    assert code == 4
    assert json.loads(out)["error"]["type"] == "undecided"


def test_orbit_scale_past_the_print_limit_exits_3():
    start = time.process_time()
    # D = 2^20000 has 6021 digits
    code, out = _run(["orbit", "x^3 + x/2^20000", "1", "--n", "0", "--A", "2"])
    assert time.process_time() - start < 1
    assert code == 3
    assert out.count("\n") == 1
    assert json.loads(out)["error"]["type"] == "resource"


@pytest.mark.parametrize("h, flag", [("1/(x-3)", "--gridM"), ("x^3+2*x+5", "--gridH")])
def test_grid_past_the_entry_ceiling_is_refused_before_it_is_built(h, flag):
    start = time.process_time()
    code, out = _run(["witness-search", h, "--dmax", "2", flag, "100000"])
    assert time.process_time() - start < 1
    assert code == 3
    assert "may hold more than 20000 entries" in json.loads(out)["error"]["message"]


def test_power_past_the_degree_ceiling_is_refused_before_it_is_built():
    start = time.process_time()
    code, out = _run(["degree", "x^100000000"])  # a list of 10^8 coefficients
    assert time.process_time() - start < 1
    assert code == 3
    assert json.loads(out)["error"]["message"] == (
        "power 100000000 of a degree-1 expression exceeds the degree ceiling 1000000"
    )


def test_affine_power_is_cheap():
    start = time.process_time()
    code, out = _run(["degree", "(x+1)^3000"])  # 11 s by repeated squaring
    assert time.process_time() - start < 1
    assert (code, json.loads(out)) == (0, {"degree": 3000})


def test_affine_power_past_the_size_ceiling_is_refused_before_it_is_built():
    start = time.process_time()
    code, out = _run(["degree", "(x+1)^1000000"])  # within the degree ceiling; ~10^11 bytes
    assert time.process_time() - start < 1
    assert code == 3
    assert json.loads(out)["error"]["message"] == (
        "power 1000000 of a degree-1 polynomial exceeds the expansion ceiling of 4294967296 bits"
    )


def test_constant_power_past_the_power_ceiling_is_refused_before_it_is_built():
    start = time.process_time()
    code, out = _run(["degree", "3^9999999"])  # 5.5 s to build, and it cannot print
    assert time.process_time() - start < 1
    assert code == 3
    assert json.loads(out)["error"]["message"] == (
        "power 9999999 of a constant exceeds the power ceiling of 1048576 bits"
    )


def test_long_flat_sum_answers():
    # evaluation once took one frame per operand: 1,000 terms were a RecursionError
    start = time.process_time()
    code, out = _run(["degree", "+".join(["x"] * 10000)])
    assert time.process_time() - start < 1
    assert (code, json.loads(out)) == (0, {"degree": 1})


def test_deep_nesting_is_a_syntax_error_at_the_first_parenthesis_past_the_limit():
    from cyclohouse.parser import NESTING_LIMIT

    start = time.process_time()
    code, out = _run(["degree", "(" * 300 + "x" + ")" * 300])  # 248 levels were exit 5
    assert time.process_time() - start < 1
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "syntax" and error["position"] == NESTING_LIMIT


def test_quadratic_rational_map_is_decided_without_a_large_gauss_sum():
    # its Wronskian's discriminant needs sqrt(19 * 15643), at conductor 4 * 19 * 15643
    start = time.process_time()
    code, out = _run(["special", "(11/18*x^2 + 1/3*x + 5/27)/(x^2 - 10/9*x + 17/54)"])
    assert time.process_time() - start < 2
    assert code == 0
    assert out == '{"status": "not_special", "certificate": null}\n'


def _fresh_python(script: str) -> str:
    """stdout of ``python -c script`` in a new process that imports ./src."""
    proc = subprocess.run(
        [sys.executable, "-c", script], env=_src_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_PACKAGE = {f"cyclohouse.{p.stem}" for p in (SRC / "cyclohouse").glob("[!_]*.py")}
_UPPER_LAYERS = {"cyclohouse.special", "cyclohouse.witness", "cyclohouse.avoidance"}

# A cold process that imports the CLI and runs one command: (argv, or None
# for the import alone; modules it must load; modules it must leave out).
# Each subcommand imports only what it uses, and none imports mpmath,
# dataclasses or inspect.
_NEVER_LOADED = {"mpmath", "dataclasses", "inspect"}
_SPECIAL = {"cyclohouse.special"}
COLD_IMPORTS = {
    "import": (
        None,
        {"cyclohouse", "cyclohouse.cli", "cyclohouse.errors"},
        _PACKAGE - {"cyclohouse.cli", "cyclohouse.errors"},
    ),
    "cheb": (["cheb", "3"], set(), _UPPER_LAYERS),
    "degree": (["degree", "2*x^3/(x + 1)"], set(), _UPPER_LAYERS),
    "house": (["house", "1 + z5"], {"cyclohouse.intervals"}, _UPPER_LAYERS),
    "scan": (
        ["scan", "x^2", "--M", "4", "--A", "1"],
        {"cyclohouse.avoidance"},
        {"cyclohouse.witness"} | _SPECIAL,
    ),
    "orbit": (CASES["orbit"][0], {"cyclohouse.avoidance"}, {"cyclohouse.witness"} | _SPECIAL),
    "bounds": (CASES["bounds"][0], {"cyclohouse.witness"}, _SPECIAL),
    "witness-check": (CASES["witness-check"][0], {"cyclohouse.witness"}, _SPECIAL),
    "fz-verify": (CASES["fz-verify"][0], {"cyclohouse.witness"}, _SPECIAL),
}


@pytest.mark.parametrize("argv, loaded, absent", COLD_IMPORTS.values(), ids=list(COLD_IMPORTS))
def test_cold_process_loads_only_what_it_uses(argv, loaded, absent):
    script = (
        "import contextlib, io, json, sys\n"
        "import cyclohouse.cli\n"
        f"argv = {argv!r}\n"
        "if argv is not None:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cyclohouse.cli.main(argv) == 0\n"
        "print(json.dumps(list(sys.modules)))\n"
    )
    modules = set(json.loads(_fresh_python(script)))
    assert loaded <= modules
    assert not (absent | _NEVER_LOADED) & modules


def test_lazy_package_resolves_every_public_name():
    # a bare import loads no submodule; every name resolves on first use to
    # the object its submodule binds, and stays bound in the package
    _fresh_python(
        "import importlib, pkgutil, sys\n"
        "import cyclohouse\n"
        "assert not [m for m in sys.modules if m.startswith('cyclohouse.')]\n"
        "assert set(cyclohouse.__all__) <= set(dir(cyclohouse))\n"
        "assert cyclohouse.cyclotomic is sys.modules['cyclohouse.cyclotomic']\n"
        "star = {}\n"
        "exec('from cyclohouse import *', star)\n"
        "subs = [importlib.import_module(f'cyclohouse.{m.name}')\n"
        "        for m in pkgutil.iter_modules(cyclohouse.__path__)]\n"
        "for name in cyclohouse.__all__:\n"
        "    value = getattr(cyclohouse, name)\n"
        "    homes = [vars(m)[name] for m in subs if name in vars(m)]\n"
        "    assert homes and all(v is value for v in homes), name\n"
        "    assert vars(cyclohouse)[name] is value, name\n"
        "    assert star[name] is value, name\n"
        "assert not hasattr(cyclohouse, 'no_such_name')\n"
    )


def test_house_default_bits_is_64():
    assert _run(["house", "1 + z5"]) == _run(["house", "1 + z5", "--bits", "64"])
