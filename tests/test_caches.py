"""Every ``functools.lru_cache`` in the package is bounded or accounted for."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import cyclohouse

# Unbounded caches, each with why it may grow with its key.  Their sizes
# in bytes are an open question of ROADMAP item 3 ("Bounded work on every
# input"); a cache not listed here must set a maxsize.
UNBOUNDED = {
    "cyclotomic.factorize": "a few (prime, multiplicity) pairs per integer factored",
    "cyclotomic.euler_phi": "one integer per conductor",
    "cyclotomic._primitive_root": "one integer per prime",
    "cyclotomic.cyclotomic_polynomial": "phi(n) + 1 coefficients per conductor, "
    "shared by every reduction at n",
    "cyclotomic._cyclotomy": "Phi_n and its nonzero terms per conductor, read by every "
    "product and reduction",
    "cyclotomic._screen_field": "two integers per witness-grid field, torsion conductor and "
    "subfield that a prime-drop test maps into",
    "ratfunc.chebyshev": "T_d per degree, below the print-limit refusal",
}


def _caches():
    """(module.name, maxsize) of every lru_cache in cyclohouse's modules,
    at module level and on their classes."""
    found = {}
    for info in pkgutil.iter_modules(cyclohouse.__path__):
        module = importlib.import_module(f"cyclohouse.{info.name}")
        scopes = [vars(module)]
        scopes += [vars(c) for c in vars(module).values()
                   if inspect.isclass(c) and c.__module__ == module.__name__]
        for scope in scopes:
            for obj in scope.values():
                obj = getattr(obj, "__func__", obj)
                if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                    found[f"{info.name}.{obj.__qualname__}"] = obj.cache_parameters()["maxsize"]
    return found


def test_every_unbounded_cache_is_on_the_allow_list():
    caches = _caches()
    unbounded = {name for name, maxsize in caches.items() if maxsize is None}
    assert unbounded <= set(UNBOUNDED), sorted(unbounded - set(UNBOUNDED))
    # the allow-list names live caches only
    assert set(UNBOUNDED) <= unbounded, sorted(set(UNBOUNDED) - unbounded)


def test_the_listing_sees_every_decorated_cache():
    decorators = sum(
        inspect.getsource(importlib.import_module(f"cyclohouse.{info.name}")).count("@lru_cache")
        for info in pkgutil.iter_modules(cyclohouse.__path__)
    )
    assert len(_caches()) == decorators
