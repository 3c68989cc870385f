"""cyclohouse: exact arithmetic in the cyclotomic closure of Q.

Core objects: CycNum (exact cyclotomic numbers with rigorous house
enclosures), RatFunc/Poly/LaurentPoly (exact rational-function algebra),
witnesses for compositions landing on short root-of-unity sums, and the
orbit/avoidance machinery built on top of them.

Names resolve on first use (PEP 562): ``import cyclohouse`` loads no
submodule, so a cold command-line process compiles only what it runs.
"""

from importlib import import_module

_EXPORTS = {
    "cyclotomic": (
        "MEMBER", "NONMEMBER", "UNDECIDED", "CycNum", "HouseResult", "LoxtonProfile",
        "RootOfUnity", "conjugates", "embed_at_conductor", "house", "in_PA",
        "is_algebraic_integer", "is_root_of_unity", "loxton_decompose",
    ),
    "errors": (
        "CyclohouseError", "DomainError", "ParseError", "ResourceLimitError",
        "UndecidedError",
    ),
    "ratfunc": (
        "BinomialShape", "LaurentPoly", "Mobius", "Poly", "RatFunc", "chebyshev",
        "compose", "degree", "distinct_pole_count", "evaluate", "is_binomial_shape",
        "is_trinomial_shape", "iterate", "mobius_conjugate", "ratfunc_new",
        "substitute_poly_laurent", "term_count", "to_laurent",
    ),
    "special": ("SpecialCertificate", "SpecialVerdict", "is_special"),
    "avoidance": (
        "AvoidanceVerdict", "MonicNormalization", "OrbitLemmaReport", "OrbitRecord",
        "ScanResult", "avoidance_verdict", "monic_normalize", "orbit",
        "scan_roots_of_unity", "verify_orbit_lemma",
    ),
    "witness": (
        "FZReport", "SearchGrid", "SpecialTermsReport", "Witness", "fz_degree_cap",
        "iterate_term_lower_bound", "verify_fz", "verify_specialterms",
        "witness_check", "witness_laurent", "witness_search_deg2",
    ),
    "parser": ("parse_ratfunc", "parse_scalar"),
    "formatting": ("format_value",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "intervals", "record"}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Later lookups find the name here and never call this function again.
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
