"""Run one generated query through the library's public functions.

Each runner starts from the generated strings, calls the library and
builds the same JSON object the CLI prints for that subcommand.  It
returns that object together with the raw result objects the checker
needs (exact house endpoints, which the CLI rounds to decimals).

Only ``CyclohouseError`` is a documented outcome; it becomes the CLI's
error object.  Anything else propagates and counts as a failed query.
"""

from __future__ import annotations

import json
from fractions import Fraction

import cyclohouse as ch
from cyclohouse.errors import CyclohouseError


def _house(a, q):
    hr = ch.house(a, q["bits"])
    return {"house": hr.to_dict(), "value": ch.format_value(a)}, hr


def _pa(a, q):
    big_a = Fraction(q["A"])
    verdict = ch.in_PA(a, big_a)
    integral = ch.is_algebraic_integer(a)
    out = {"verdict": verdict, "A": str(big_a), "integral": integral,
           "value": ch.format_value(a)}
    hr = None
    if integral and a:
        try:
            hr = ch.house(a)
            out["house"] = hr.to_dict()
        except ch.UndecidedError:
            out["house"] = None
    return out, hr


def _rootofunity(a, q):
    rou = ch.is_root_of_unity(a)
    return {"root_of_unity": rou.to_dict() if rou is not None else None,
            "value": ch.format_value(a)}, None


def _decompose(a, q):
    result = ch.loxton_decompose(a, q["dmax"])
    m_tor = a.n if a.n % 2 == 0 else 2 * a.n
    return {
        "decomposition": (
            [{"e": ch.format_value(e), "root": r.to_dict()} for e, r in result]
            if result is not None else None
        ),
        "length": len(result) if result is not None else None,
        "search_conductor": m_tor,
    }, None


SCALAR_QUESTIONS = {
    "house": _house,
    "pa": _pa,
    "rootofunity": _rootofunity,
    "decompose": _decompose,
}


def _error(exc: CyclohouseError) -> dict:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def _scalar(args):
    """Parse once, then answer each question as its CLI subcommand would."""
    a = ch.parse_scalar(args["expr"])
    outs, raws = [], []
    for q in args["questions"]:
        try:
            out, raw = SCALAR_QUESTIONS[q["op"]](a, q)
        except CyclohouseError as exc:
            out, raw = _error(exc), None
        outs.append(out)
        raws.append(raw)
    return outs, raws


def _scan(args):
    h = ch.parse_ratfunc(args["h"])
    result = ch.scan_roots_of_unity(h, args["M"], Fraction(args["A"]))
    return result.to_dict(), result


def _verdict(args):
    h = ch.parse_ratfunc(args["h"])
    profile = ch.LoxtonProfile.default(args["dmax"])
    return ch.avoidance_verdict(h, Fraction(args["A"]), profile).to_dict(), None


def _witness_search(args):
    h = ch.parse_ratfunc(args["h"])
    w = ch.witness_search_deg2(h, args["dmax"], ch.SearchGrid())
    return {"witness": w.to_dict() if w is not None else None}, None


def _special(args):
    verdict = ch.is_special(ch.parse_ratfunc(args["h"]))
    cert = None
    if verdict.certificate is not None:
        cert = {
            "mobius": ch.format_value(verdict.certificate.mobius.as_ratfunc()),
            "model": verdict.certificate.model_name(),
        }
    return {"status": verdict.status, "certificate": cert}, None


RUNNERS = {
    "scalar": _scalar,
    "scan": _scan,
    "verdict": _verdict,
    "witness-search": _witness_search,
    "special": _special,
}


def run_query(query: dict):
    """(answer text, raw result) for one library query.

    The answer text is the JSON line the CLI would print; for a scalar
    query, the list of the lines its questions would print.
    """
    try:
        out, raw = RUNNERS[query["op"]](query["args"])
    except CyclohouseError as exc:
        out, raw = _error(exc), None
    return json.dumps(out), raw
