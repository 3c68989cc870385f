"""Command-line interface: every library operation behind one executable.

Every handler returns its answer, a JSON object (or, for ``scan --csv``,
CSV text), and ``main`` alone writes it to stdout.  Exit codes: 0 for an
answer, 4 for one whose verdict is undecided, 2 for a usage error, and for
a library error the ``exit_code`` of its class in ``errors`` (an
unexpected exception is internal, 5).  Errors are reported as
{"error": {"type": ..., "message": ...}} and identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from fractions import Fraction

from .errors import (
    CyclohouseError,
    DomainError,
    UndecidedError,
    int_digit_limit,
    printable,
    too_long_to_print,
)

# Each handler imports what it calls, so a cold process compiles only the
# modules its subcommand uses.

EXIT_OK = 0
EXIT_SYNTAX = 2
EXIT_UNDECIDED = 4
EXIT_INTERNAL = 5


def _real(text: str) -> Fraction:
    """Exact rational from a decimal string or p/q form.

    Its numerator and denominator must print back, so each has at most
    ``int_digit_limit()`` digits; a decimal exponent beyond that is
    refused before 10^exponent is built.
    """
    limit = int_digit_limit()
    _, e, exponent = text.lower().partition("e")
    try:
        if limit and e and abs(int(exponent)) > limit:
            raise ValueError(f"decimal exponent beyond {limit} digits")
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse real parameter {text!r}: {exc}") from exc
    if limit and max(abs(value.numerator), value.denominator) >= 10**limit:
        raise DomainError(f"real parameter {text!r} has more than {limit} digits")
    return value


# Subcommand name -> (help line, arguments, handler name), in usage order.
_COMMANDS: dict[str, tuple[str, tuple, str]] = {}
_INT = {"type": int}
_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": int, "required": True}


def _command(help_line: str, *arguments):
    """Register handler ``_cmd_<name>`` as subcommand <name>, "_" read as "-".

    An argument is a name or a (name, ``add_argument`` keywords) pair.  The
    parser looks the handler up by name when it is built, so a replaced
    module attribute is the one that runs.
    """

    def register(handler):
        name = handler.__name__
        _COMMANDS[name[len("_cmd_"):].replace("_", "-")] = (help_line, arguments, name)
        return handler

    return register


# --bits absent: house's DEFAULT_ACCURACY_BITS
@_command("rigorous house enclosure of a scalar", "expr", ("--bits", _INT))
def _cmd_house(args) -> dict:
    from .cyclotomic import house
    from .formatting import format_value
    from .parser import parse_scalar

    a = parse_scalar(args.expr)
    hr = house(a) if args.bits is None else house(a, args.bits)
    return {"house": hr.to_dict(), "value": format_value(a)}


@_command("algebraic integrality test", "expr")
def _cmd_integer(args) -> dict:
    from .cyclotomic import is_algebraic_integer
    from .formatting import format_value
    from .parser import parse_scalar

    a = parse_scalar(args.expr)
    return {"integral": is_algebraic_integer(a), "value": format_value(a)}


@_command("exact root-of-unity test", "expr")
def _cmd_rootofunity(args) -> dict:
    from .cyclotomic import is_root_of_unity
    from .formatting import format_value
    from .parser import parse_scalar

    a = parse_scalar(args.expr)
    rou = is_root_of_unity(a)
    return {
        "root_of_unity": rou.to_dict() if rou is not None else None,
        "value": format_value(a),
    }


@_command("membership in the bounded-house integers", "expr", ("--A", _REQUIRED))
def _cmd_pa(args) -> dict:
    from .cyclotomic import house, in_PA, is_algebraic_integer
    from .formatting import format_value
    from .parser import parse_scalar

    a = parse_scalar(args.expr)
    big_a = _real(args.A)
    verdict = in_PA(a, big_a)
    out = {
        "verdict": verdict,
        "A": str(big_a),
        "integral": is_algebraic_integer(a),
        "value": format_value(a),
    }
    if is_algebraic_integer(a) and a:
        try:
            out["house"] = house(a).to_dict()
        except UndecidedError:
            out["house"] = None
    return out


@_command("shortest root-of-unity sum", "expr", ("--dmax", _REQUIRED_INT))
def _cmd_decompose(args) -> dict:
    from .cyclotomic import loxton_decompose, torsion_order
    from .formatting import format_value
    from .parser import parse_scalar

    a = parse_scalar(args.expr)
    result = loxton_decompose(a, args.dmax)
    return {
        "decomposition": (
            [{"e": format_value(e), "root": r.to_dict()} for e, r in result]
            if result is not None
            else None
        ),
        "length": len(result) if result is not None else None,
        "search_conductor": torsion_order(a.n),
    }


@_command("Chebyshev-model polynomial", ("d", _INT))
def _cmd_cheb(args) -> dict:
    from .formatting import format_value
    from .ratfunc import chebyshev

    return {"poly": format_value(chebyshev(args.d))}


@_command("exact composition h(g(x))", "h", "g")
def _cmd_compose(args) -> dict:
    from .formatting import format_value
    from .parser import parse_ratfunc
    from .ratfunc import compose

    h1 = parse_ratfunc(args.h)
    h2 = parse_ratfunc(args.g)
    return {"ratfunc": format_value(compose(h1, h2))}


@_command("n-fold self-composition", "h", ("n", _INT))
def _cmd_iterate(args) -> dict:
    from .formatting import format_value
    from .parser import parse_ratfunc
    from .ratfunc import iterate

    h = parse_ratfunc(args.h)
    return {"ratfunc": format_value(iterate(h, args.n))}


@_command("degree of a rational function", "h")
def _cmd_degree(args) -> dict:
    from .parser import parse_ratfunc
    from .ratfunc import degree

    return {"degree": degree(parse_ratfunc(args.h))}


@_command("distinct pole count on the projective line", "h")
def _cmd_poles(args) -> dict:
    from .parser import parse_ratfunc
    from .ratfunc import distinct_pole_count

    return {"distinct_pole_count": distinct_pole_count(parse_ratfunc(args.h))}


@_command("conjugacy to x^d, -x^d or T_d", "h")
def _cmd_special(args) -> dict:
    from .formatting import format_value
    from .parser import parse_ratfunc
    from .special import is_special

    verdict = is_special(parse_ratfunc(args.h))
    cert = None
    if verdict.certificate is not None:
        cert = {
            "mobius": format_value(verdict.certificate.mobius.as_ratfunc()),
            "model": verdict.certificate.model_name(),
        }
    return {"status": verdict.status, "certificate": cert}


@_command("monic normalization (c, h~, D, R)", "h")
def _cmd_normalize(args) -> dict:
    from .avoidance import monic_normalize
    from .parser import parse_ratfunc

    norm = monic_normalize(parse_ratfunc(args.h))
    out = norm.to_dict()
    out["escape_radius_verified"] = str(norm.R)
    return out


@_command(
    "forward orbit with houses and hits",
    "h",
    "alpha",
    ("--n", _REQUIRED_INT),
    ("--A", _REQUIRED),
)
def _cmd_orbit(args) -> dict:
    from .avoidance import orbit
    from .parser import parse_ratfunc, parse_scalar

    h = parse_ratfunc(args.h)
    alpha = parse_scalar(args.alpha)
    return orbit(h, alpha, args.n, _real(args.A)).to_dict()


@_command(
    "roots of unity mapping into P_A",
    "h",
    ("--M", _REQUIRED_INT),
    ("--A", _REQUIRED),
    ("--csv", {"action": "store_true"}),
)
def _cmd_scan(args) -> dict | str:
    from .avoidance import scan_roots_of_unity
    from .formatting import scan_to_csv
    from .parser import parse_ratfunc

    h = parse_ratfunc(args.h)
    result = scan_roots_of_unity(h, args.M, _real(args.A))
    return scan_to_csv(result) if args.csv else result.to_dict()


@_command(
    "verify a witness identity exactly", "h", ("--S", _REQUIRED), ("--terms", _REQUIRED)
)
def _cmd_witness_check(args) -> dict:
    from .parser import parse_ratfunc
    from .witness import Witness, witness_check

    h = parse_ratfunc(args.h)
    s_map = parse_ratfunc(args.S)
    w = Witness(tuple(_witness_terms(args.terms)), s_map)
    return {"valid": witness_check(h, w), "witness": w.to_dict()}


def _witness_terms(text: str) -> list:
    """--terms: a JSON list of {"beta": {"order", "exp"}, "e", "n"} objects."""
    from .cyclotomic import RootOfUnity
    from .parser import parse_scalar

    try:
        raw_terms = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise DomainError(f"terms must be JSON: {exc}") from exc
    if not isinstance(raw_terms, list):
        raise DomainError("terms must be a JSON list of objects")
    terms = []
    for entry in raw_terms:
        beta = entry.get("beta") if isinstance(entry, dict) else None
        if not isinstance(beta, dict):
            raise DomainError('each term must be an object with a "beta" object')
        root = RootOfUnity.make(_json_int(beta, "order"), _json_int(beta, "exp"))
        e = entry.get("e", "1")
        if not isinstance(e, str):
            raise DomainError('term key "e" must be a string')
        terms.append((root, parse_scalar(e), _json_int(entry, "n")))
    return terms


def _json_int(obj: dict, key: str) -> int:
    value = obj.get(key)
    if type(value) is not int:  # bool is an int subclass; JSON true is not a number
        raise DomainError(f'term key "{key}" must be present and an integer')
    return value


@_command(
    "bounded deg-2 witness search",
    "h",
    ("--dmax", _REQUIRED_INT),
    ("--gridM", {"type": int, "default": 12}),
    ("--gridH", {"type": int, "default": 8}),
)
def _cmd_witness_search(args) -> dict:
    from .parser import parse_ratfunc
    from .witness import SearchGrid, witness_search_deg2

    h = parse_ratfunc(args.h)
    grid = SearchGrid(rou_order_cap=args.gridM, rational_height_cap=args.gridH)
    w = witness_search_deg2(h, args.dmax, grid)
    return {"witness": w.to_dict() if w is not None else None}


@_command(
    "avoidance decision cascade", "h", ("--A", _REQUIRED), ("--budget", _REQUIRED_INT)
)
def _cmd_verdict(args) -> dict:
    from .avoidance import avoidance_verdict
    from .cyclotomic import LoxtonProfile
    from .parser import parse_ratfunc

    h = parse_ratfunc(args.h)
    profile = LoxtonProfile.default(args.budget)
    return avoidance_verdict(h, _real(args.A), profile).to_dict()


@_command("degree caps for an l-term composition", ("--l", _REQUIRED_INT))
def _cmd_bounds(args) -> dict:
    from .witness import fz_degree_cap

    limit = int_digit_limit()
    if limit and args.l > 2 * limit:
        # 2016 * 5^l has more than 0.69 * l digits: refused before it is built
        raise too_long_to_print(limit)
    rational, laurent = map(printable, fz_degree_cap(args.l))
    return {"l": args.l, "rational_cap": rational, "laurent_poly_cap": laurent}


@_command("composition degree-cap consistency", "h", "q")
def _cmd_fz_verify(args) -> dict:
    from .parser import parse_ratfunc
    from .witness import verify_fz

    return verify_fz(parse_ratfunc(args.h), parse_ratfunc(args.q)).to_dict()


@_command("iterated-composition term bound", "h", "q", ("--n", _REQUIRED_INT))
def _cmd_specialterms(args) -> dict:
    from .parser import parse_ratfunc
    from .witness import verify_specialterms

    return verify_specialterms(parse_ratfunc(args.h), parse_ratfunc(args.q), args.n).to_dict()


class _ArgumentParser(argparse.ArgumentParser):
    """Every option is "--name" or "-h", so an argument such as "-z5" is a
    value (an expression), as after "--"; subcommand parsers inherit this."""

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[:2] != "--" and arg_string != "-h":
            return None
        return super()._parse_optional(arg_string)


def _build_parser(names: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser with the listed subcommands, all of them by default.

    A partial build names every subcommand in its usage line, as the full
    build does, so a usage error prints the same text either way.
    """
    top = _ArgumentParser(
        prog="cyclohouse",
        description="Exact cyclotomic arithmetic, houses, and avoidance checks",
    )
    metavar = None if names is None else "{" + ",".join(_COMMANDS) + "}"
    sub = top.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if names is None else names:
        help_line, arguments, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        for argument in arguments:
            flag, options = (argument, {}) if isinstance(argument, str) else argument
            p.add_argument(flag, **options)
        p.set_defaults(func=globals()[handler])
    return top


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a cold process builds the one subparser it runs
    parser = _build_parser(argv[:1] if argv[:1] and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse printed help or usage on stderr; keep stdout valid JSON
        if exc.code in (0, None):
            return EXIT_OK
        answer = {"error": {"type": "usage", "message": "invalid command line"}}
        sys.stdout.write(json.dumps(answer) + "\n")
        return EXIT_SYNTAX
    try:
        answer = args.func(args)
        # cyclotomic.UNDECIDED, spelled out: a cold import of cli loads no cyclotomic
        undecided = args.command == "pa" and answer["verdict"] == "undecided"
        code = EXIT_UNDECIDED if undecided else EXIT_OK
        text = answer if isinstance(answer, str) else json.dumps(answer) + "\n"
    except CyclohouseError as exc:
        text, code = json.dumps({"error": exc.to_dict()}) + "\n", exc.exit_code
    except Exception as exc:  # last resort: a JSON error, never a traceback
        error = {"type": "internal", "message": f"{type(exc).__name__}: {exc}"}
        text, code = json.dumps({"error": error}) + "\n", EXIT_INTERNAL
    sys.stdout.write(text)
    return code


def run() -> None:
    """Entry point of ``python -m cyclohouse.cli`` and the console script."""
    code = main()
    # The process ends next.  Freezing moves every live object, the heap the
    # imports made included, into the permanent generation, which the
    # interpreter's final collections skip instead of walking it.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
