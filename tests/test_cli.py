"""Golden-file tests: every CLI command, byte-identical deterministic output.

A CASES entry is (argv, exit code) or (argv, exit code, environment);
``apply_case`` sets the environment with monkeypatch.
"""

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
        avoidance.escape_radius,
        avoidance.orbit,
        avoidance.verify_orbit_lemma,
        avoidance.scan_roots_of_unity,
        ratfunc.iterate,
    ]
    for f in functions:
        assert not knobs & set(inspect.signature(f).parameters), f.__name__
    assert "cap" not in inspect.signature(cyclotomic.house).parameters


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


def test_iterate_ceiling_does_not_build_d_to_the_n():
    start = time.process_time()
    code, out = _run(["iterate", "x^3", "1000000000000"])
    assert time.process_time() - start < 1
    assert code == 3
    assert "3^1000000000000" in json.loads(out)["error"]["message"]


def test_quadratic_rational_map_is_decided_without_a_large_gauss_sum():
    # its Wronskian's discriminant needs sqrt(19 * 15643), at conductor 4 * 19 * 15643
    start = time.process_time()
    code, out = _run(["special", "(11/18*x^2 + 1/3*x + 5/27)/(x^2 - 10/9*x + 17/54)"])
    assert time.process_time() - start < 2
    assert code == 0
    assert out == '{"status": "not_special", "certificate": null}\n'


def _fresh_python(script: str) -> str:
    """stdout of ``python -c script`` in a new process that imports ./src."""
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_PACKAGE = {f"cyclohouse.{p.stem}" for p in (SRC / "cyclohouse").glob("[!_]*.py")}
_UPPER_LAYERS = {"cyclohouse.special", "cyclohouse.witness", "cyclohouse.avoidance"}

# A cold process that imports the CLI and runs one command: (argv, or None
# for the import alone; modules it must load; modules it must leave out).
# Each subcommand imports only what it uses, and only a root-table build
# imports mpmath.
COLD_IMPORTS = {
    "import": (
        None,
        {"cyclohouse", "cyclohouse.cli", "cyclohouse.errors"},
        _PACKAGE - {"cyclohouse.cli", "cyclohouse.errors"} | {"mpmath"},
    ),
    "cheb": (["cheb", "3"], set(), _UPPER_LAYERS | {"mpmath"}),
    "degree": (["degree", "2*x^3/(x + 1)"], set(), _UPPER_LAYERS),
    "house": (["house", "1 + z5"], {"mpmath"}, _UPPER_LAYERS),
    "scan": (
        ["scan", "x^2", "--M", "4", "--A", "1"],
        {"cyclohouse.avoidance"},
        {"cyclohouse.witness"},
    ),
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
        "ours = [m for m in sys.modules if m.partition('.')[0] in ('cyclohouse', 'mpmath')]\n"
        "print(json.dumps(ours))\n"
    )
    modules = set(json.loads(_fresh_python(script)))
    assert loaded <= modules
    assert not absent & modules


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
