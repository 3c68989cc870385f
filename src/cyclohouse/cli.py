"""Command-line interface: every library operation behind one executable.

Every command emits a single JSON object on stdout (or CSV for tabular
commands under --csv).  Exit codes: 0 success, 1 domain error, 2 syntax
error, 3 resource ceiling (a number too long to print included), 4
undecided at the precision cap, 5 internal error (an unexpected
exception).  Errors are reported as {"error": {"type": ..., "message":
...}} and identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import (
    CyclohouseError,
    DomainError,
    ParseError,
    ResourceLimitError,
    UndecidedError,
    int_digit_limit,
    printable,
    too_long_to_print,
)

# Each handler imports what it calls, so a cold process compiles only the
# modules its subcommand uses.

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_SYNTAX = 2
EXIT_RESOURCE = 3
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


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _cmd_house(args) -> int:
    from .cyclotomic import house
    from .formatting import format_value
    from .parser import parse_scalar

    a = parse_scalar(args.expr)
    hr = house(a) if args.bits is None else house(a, args.bits)
    _emit({"house": hr.to_dict(), "value": format_value(a)})
    return EXIT_OK


def _cmd_integer(args) -> int:
    from .cyclotomic import is_algebraic_integer
    from .formatting import format_value
    from .parser import parse_scalar

    a = parse_scalar(args.expr)
    _emit({"integral": is_algebraic_integer(a), "value": format_value(a)})
    return EXIT_OK


def _cmd_rootofunity(args) -> int:
    from .cyclotomic import is_root_of_unity
    from .formatting import format_value
    from .parser import parse_scalar

    a = parse_scalar(args.expr)
    rou = is_root_of_unity(a)
    _emit(
        {
            "root_of_unity": rou.to_dict() if rou is not None else None,
            "value": format_value(a),
        }
    )
    return EXIT_OK


def _cmd_pa(args) -> int:
    from .cyclotomic import UNDECIDED, house, in_PA, is_algebraic_integer
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
    _emit(out)
    return EXIT_UNDECIDED if verdict == UNDECIDED else EXIT_OK


def _cmd_decompose(args) -> int:
    from .cyclotomic import loxton_decompose, torsion_order
    from .formatting import format_value
    from .parser import parse_scalar

    a = parse_scalar(args.expr)
    result = loxton_decompose(a, args.dmax)
    _emit(
        {
            "decomposition": (
                [{"e": format_value(e), "root": r.to_dict()} for e, r in result]
                if result is not None
                else None
            ),
            "length": len(result) if result is not None else None,
            "search_conductor": torsion_order(a.n),
        }
    )
    return EXIT_OK


def _cmd_cheb(args) -> int:
    from .formatting import format_value
    from .ratfunc import chebyshev

    _emit({"poly": format_value(chebyshev(args.d))})
    return EXIT_OK


def _cmd_compose(args) -> int:
    from .formatting import format_value
    from .parser import parse_ratfunc
    from .ratfunc import compose

    h1 = parse_ratfunc(args.h)
    h2 = parse_ratfunc(args.g)
    _emit({"ratfunc": format_value(compose(h1, h2))})
    return EXIT_OK


def _cmd_iterate(args) -> int:
    from .formatting import format_value
    from .parser import parse_ratfunc
    from .ratfunc import iterate

    h = parse_ratfunc(args.h)
    _emit({"ratfunc": format_value(iterate(h, args.n))})
    return EXIT_OK


def _cmd_degree(args) -> int:
    from .parser import parse_ratfunc
    from .ratfunc import degree

    _emit({"degree": degree(parse_ratfunc(args.h))})
    return EXIT_OK


def _cmd_poles(args) -> int:
    from .parser import parse_ratfunc
    from .ratfunc import distinct_pole_count

    _emit({"distinct_pole_count": distinct_pole_count(parse_ratfunc(args.h))})
    return EXIT_OK


def _cmd_special(args) -> int:
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
    _emit({"status": verdict.status, "certificate": cert})
    return EXIT_OK


def _cmd_normalize(args) -> int:
    from .avoidance import monic_normalize
    from .parser import parse_ratfunc

    norm = monic_normalize(parse_ratfunc(args.h))
    out = norm.to_dict()
    out["escape_radius_verified"] = str(norm.R)
    _emit(out)
    return EXIT_OK


def _cmd_orbit(args) -> int:
    from .avoidance import orbit
    from .parser import parse_ratfunc, parse_scalar

    h = parse_ratfunc(args.h)
    alpha = parse_scalar(args.alpha)
    record = orbit(h, alpha, args.n, _real(args.A))
    _emit(record.to_dict())
    return EXIT_OK


def _cmd_scan(args) -> int:
    from .avoidance import scan_roots_of_unity
    from .formatting import scan_to_csv
    from .parser import parse_ratfunc

    h = parse_ratfunc(args.h)
    result = scan_roots_of_unity(h, args.M, _real(args.A))
    if args.csv:
        sys.stdout.write(scan_to_csv(result))
    else:
        _emit(result.to_dict())
    return EXIT_OK


def _cmd_witness_check(args) -> int:
    from .parser import parse_ratfunc
    from .witness import Witness, witness_check

    h = parse_ratfunc(args.h)
    s_map = parse_ratfunc(args.S)
    w = Witness(tuple(_witness_terms(args.terms)), s_map)
    _emit({"valid": witness_check(h, w), "witness": w.to_dict()})
    return EXIT_OK


def _witness_terms(text: str) -> list:
    """--terms: a JSON list of {"beta": {"order", "exp"}, "e", "n"} objects."""
    from .cyclotomic import RootOfUnity
    from .parser import parse_scalar

    try:
        raw_terms = json.loads(text)
    except json.JSONDecodeError as exc:
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


def _cmd_witness_search(args) -> int:
    from .parser import parse_ratfunc
    from .witness import SearchGrid, witness_search_deg2

    h = parse_ratfunc(args.h)
    grid = SearchGrid(rou_order_cap=args.gridM, rational_height_cap=args.gridH)
    w = witness_search_deg2(h, args.dmax, grid)
    _emit({"witness": w.to_dict() if w is not None else None})
    return EXIT_OK


def _cmd_verdict(args) -> int:
    from .avoidance import avoidance_verdict
    from .cyclotomic import LoxtonProfile
    from .parser import parse_ratfunc

    h = parse_ratfunc(args.h)
    profile = LoxtonProfile.default(args.budget)
    verdict = avoidance_verdict(h, _real(args.A), profile)
    _emit(verdict.to_dict())
    return EXIT_OK


def _cmd_bounds(args) -> int:
    from .witness import fz_degree_cap

    limit = int_digit_limit()
    if limit and args.l > 2 * limit:
        # 2016 * 5^l has more than 0.69 * l digits: refused before it is built
        raise too_long_to_print(limit)
    rational, laurent = map(printable, fz_degree_cap(args.l))
    _emit({"l": args.l, "rational_cap": rational, "laurent_poly_cap": laurent})
    return EXIT_OK


def _cmd_fz_verify(args) -> int:
    from .parser import parse_ratfunc
    from .witness import verify_fz

    report = verify_fz(parse_ratfunc(args.h), parse_ratfunc(args.q))
    _emit(report.to_dict())
    return EXIT_OK


def _cmd_specialterms(args) -> int:
    from .parser import parse_ratfunc
    from .witness import verify_specialterms

    report = verify_specialterms(parse_ratfunc(args.h), parse_ratfunc(args.q), args.n)
    _emit(report.to_dict())
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cyclohouse",
        description="Exact cyclotomic arithmetic, houses, and avoidance checks",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("house", help="rigorous house enclosure of a scalar")
    p.add_argument("expr")
    p.add_argument("--bits", type=int)  # None: house's DEFAULT_ACCURACY_BITS
    p.set_defaults(func=_cmd_house)

    p = sub.add_parser("integer", help="algebraic integrality test")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_integer)

    p = sub.add_parser("rootofunity", help="exact root-of-unity test")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_rootofunity)

    p = sub.add_parser("pa", help="membership in the bounded-house integers")
    p.add_argument("expr")
    p.add_argument("--A", required=True)
    p.set_defaults(func=_cmd_pa)

    p = sub.add_parser("decompose", help="shortest root-of-unity sum")
    p.add_argument("expr")
    p.add_argument("--dmax", type=int, required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("cheb", help="Chebyshev-model polynomial")
    p.add_argument("d", type=int)
    p.set_defaults(func=_cmd_cheb)

    p = sub.add_parser("compose", help="exact composition h(g(x))")
    p.add_argument("h")
    p.add_argument("g")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("iterate", help="n-fold self-composition")
    p.add_argument("h")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_iterate)

    p = sub.add_parser("degree", help="degree of a rational function")
    p.add_argument("h")
    p.set_defaults(func=_cmd_degree)

    p = sub.add_parser("poles", help="distinct pole count on the projective line")
    p.add_argument("h")
    p.set_defaults(func=_cmd_poles)

    p = sub.add_parser("special", help="conjugacy to x^d, -x^d or T_d")
    p.add_argument("h")
    p.set_defaults(func=_cmd_special)

    p = sub.add_parser("normalize", help="monic normalization (c, h~, D, R)")
    p.add_argument("h")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("orbit", help="forward orbit with houses and hits")
    p.add_argument("h")
    p.add_argument("alpha")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--A", required=True)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("scan", help="roots of unity mapping into P_A")
    p.add_argument("h")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--A", required=True)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("witness-check", help="verify a witness identity exactly")
    p.add_argument("h")
    p.add_argument("--S", required=True)
    p.add_argument("--terms", required=True)
    p.set_defaults(func=_cmd_witness_check)

    p = sub.add_parser("witness-search", help="bounded deg-2 witness search")
    p.add_argument("h")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--gridM", type=int, default=12)
    p.add_argument("--gridH", type=int, default=8)
    p.set_defaults(func=_cmd_witness_search)

    p = sub.add_parser("verdict", help="avoidance decision cascade")
    p.add_argument("h")
    p.add_argument("--A", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.set_defaults(func=_cmd_verdict)

    p = sub.add_parser("bounds", help="degree caps for an l-term composition")
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("fz-verify", help="composition degree-cap consistency")
    p.add_argument("h")
    p.add_argument("q")
    p.set_defaults(func=_cmd_fz_verify)

    p = sub.add_parser("specialterms", help="iterated-composition term bound")
    p.add_argument("h")
    p.add_argument("q")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_specialterms)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse printed usage on stderr; keep stdout valid JSON
        if exc.code in (0, None):
            return EXIT_OK
        _emit({"error": {"type": "usage", "message": "invalid command line"}})
        return EXIT_SYNTAX
    try:
        return args.func(args)
    except ParseError as exc:
        _emit(
            {
                "error": {
                    "type": "syntax",
                    "message": str(exc),
                    "position": exc.position,
                    "expected": list(exc.expected),
                }
            }
        )
        return EXIT_SYNTAX
    except ResourceLimitError as exc:
        _emit({"error": {"type": "resource", "message": str(exc)}})
        return EXIT_RESOURCE
    except UndecidedError as exc:
        _emit({"error": {"type": "undecided", "message": str(exc)}})
        return EXIT_UNDECIDED
    except DomainError as exc:
        _emit({"error": {"type": "domain", "message": str(exc)}})
        return EXIT_DOMAIN
    except CyclohouseError as exc:
        _emit({"error": {"type": "internal", "message": str(exc)}})
        return EXIT_DOMAIN
    except Exception as exc:  # last resort: a JSON error, never a traceback
        _emit({"error": {"type": "internal", "message": f"{type(exc).__name__}: {exc}"}})
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
