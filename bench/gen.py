"""Seeded inputs for the four benchmark workloads.

Every query is a plain dict that the program never sees whole:

* ``key``   -- a stable string naming the query (used for answer digests),
* ``op``    -- which library entry point or CLI subcommand runs it,
* ``copy``  -- which copy of its slot the query is; copy 0 of every slot
  is the warm-up pass that fills the caches,
* ``args``  -- the generated strings and small integers passed to it,
* ``facts`` -- what the independent checker knows about the input
  (its structure, and the planted answer where there is one).

The generator depends only on its seed: the same seed gives
byte-identical pools.  The pools are stratified: each workload has a
fixed list of slots (input kind, size, field), and the seed only picks
the coefficients inside a slot, so the cost of a pool pass varies little
between seeds.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import mpmath

# Grid of the default witness search (roots of unity of order <= 12,
# rationals of height <= 8); planted inner maps are drawn from it.
GRID_ROU_ORDERS = tuple(range(3, 13))
WITNESS_DMAX = 4
HOUSE_NEAR_GAPS = (Fraction(1, 1 << 100), Fraction(1, 1 << 200))


def _lcm(*xs: int) -> int:
    out = 1
    for x in xs:
        out = out * x // math.gcd(out, x)
    return out


# -- string rendering ---------------------------------------------------------


def zpow(m: int, k: int) -> str:
    """zeta_m^k in the expression grammar."""
    k %= m
    if k == 0:
        return "1"
    return f"z{m}" if k == 1 else f"z{m}^{k}"


def frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def coeff_str(c: dict[int, Fraction], cond: int) -> str:
    """A coefficient sum_j q_j zeta_cond^j, parenthesized."""
    parts = []
    for j, q in sorted(c.items()):
        if not q:
            continue
        z = zpow(cond, j)
        parts.append(frac_str(q) if z == "1" else f"{frac_str(q)}*{z}")
    return "(" + (" + ".join(parts) or "0") + ")"


def poly_str(coeffs: list[dict[int, Fraction]], cond: int) -> str:
    """Polynomial in x with coefficients in Q(zeta_cond), ascending order."""
    parts = []
    for i, c in enumerate(coeffs):
        if not any(c.values()):
            continue
        cs = coeff_str(c, cond)
        parts.append(cs if i == 0 else (f"{cs}*x" if i == 1 else f"{cs}*x^{i}"))
    return " + ".join(parts) or "0"


def _facts_poly(coeffs):
    return [{str(j): str(q) for j, q in c.items() if q} for c in coeffs]


# -- house workload -----------------------------------------------------------


def _rou_terms(rng: random.Random, nterms: int, orders) -> list[tuple[int, int]]:
    return [(m, rng.randrange(m)) for m in (rng.choice(orders) for _ in range(nterms))]


def _root_product(*roots: tuple[int, int]) -> tuple[int, int]:
    """zeta_m1^k1 * zeta_m2^k2 * ... as one (order, exponent) pair."""
    n = _lcm(*(m for m, _ in roots))
    return n, sum(k * (n // m) for m, k in roots) % n


def _terms_str(terms) -> str:
    return " + ".join(zpow(m, k) for m, k in terms)


def numeric_house(terms, prec: int = 200):
    """max over conjugates of |sum zeta_m^k|, in mpmath at ``prec`` bits."""
    ctx = mpmath.MPContext()
    ctx.prec = prec
    n = _lcm(*(m for m, _ in terms))
    best = ctx.mpf(0)
    for t in range(1, n + 1):
        if math.gcd(t, n) != 1:
            continue
        v = ctx.fsum(ctx.expjpi(ctx.mpf(2 * t * k) / m) for m, k in terms)
        best = max(best, abs(v))
    return best


# Conductors of the house elements, one per slot: the cost of a query
# follows the conductor, so fixing it per slot keeps a pass's cost steady
# across seeds while the seed picks the roots.  The tail latency is set by
# the costliest slots and the median by the slots in the middle of the
# cost order (conductor 120 here, after the twelve cheap root and Loxton
# queries), so several slots share each of those conductors.
HOUSE_CONDUCTORS = (2520, 2520, 2520, 1260, 1260, 840, 630, 504, 420, 360, 280, 252,
                    210, 180, 168, 140, 120, 120, 120, 120, 120, 120, 90, 60)
# Order pairs of the planted roots (products of two roots).
ROU_PAIRS = ((8, 9), (5, 7), (12, 35), (40, 63), (9, 280), (72, 35))
# Orders of the Loxton inputs: 1 to 3 roots, conductor at most 60.
LOXTON_SLOTS = ((5,), (8, 3), (12, 5, 4), (9, 2), (10, 4, 5), (15, 3))
# Copies of every slot, each with inputs of its own.  The median and the
# tail latency are order statistics of the pool, and a larger pool moves
# them less from seed to seed.
HOUSE_COPIES = 3
SCAN_COPIES = 3
WITNESS_COPIES = 3


def _phi(n: int) -> int:
    return sum(1 for t in range(1, n + 1) if math.gcd(t, n) == 1)


def _terms_with_conductor(rng: random.Random, n: int, nterms: int) -> list[tuple[int, int]]:
    """nterms distinct primitive n-th roots zeta_n^e whose sum has a number
    of nonzero coordinates fixed by n, and a cheap parse.

    The cost of a house query grows with the number of nonzero coordinates,
    and the cost of parsing zN^e with the bit length of e.  The first root
    has phi(n) <= e < phi(n) + 64, so it reduces to minus a shifted tail of
    Phi_n: 21 to 32 coordinates at n = 2520.  The others have e < 64, below
    phi(n): one basis coordinate each.  Arbitrary exponents would give
    anywhere from one to 48 coordinates, depending on the seed.
    """
    phi = sum(1 for t in range(1, n + 1) if math.gcd(t, n) == 1)
    first = rng.choice([e for e in range(phi, min(n, phi + 64)) if math.gcd(e, n) == 1])
    rest = rng.sample([e for e in range(1, min(phi, 64)) if math.gcd(e, n) == 1], nterms - 1)
    return [(n, e) for e in [first] + rest]


def _scalar_query(expr: str, questions: list[dict], facts: dict, copy: int) -> dict:
    key = "scalar|" + expr + "|" + json.dumps(questions, sort_keys=True)
    return {"key": key, "op": "scalar", "copy": copy,
            "args": {"expr": expr, "questions": questions}, "facts": facts}


def house_pool(rng: random.Random) -> list[dict]:
    """Scalar queries: one generated string, several questions about it.

    A user asking about one number parses it once, so each query parses
    its string once and then asks its questions; otherwise the parser,
    not the house machinery, would do most of the work.
    """
    pool = []
    for copy in range(HOUSE_COPIES):
        for i, n in enumerate(HOUSE_CONDUCTORS):
            while True:
                terms = _terms_with_conductor(rng, n, 2 + i % 3)
                h = numeric_house(terms, prec=320)
                # Nonzero, and clear of 1 so that A = house - gap stays >= 1.
                if h > 1 + 2.0**-20:
                    break
            # A within 2^-100 and 2^-200 of the house on both sides: in_PA must
            # climb its precision ladder (64, 128, then 256 bits) to separate them.
            h_q = Fraction(int(h * 2**260), 2**260)
            questions = [
                {"op": "house", "bits": 64},
                {"op": "house", "bits": 256},
                {"op": "pa", "A": "1"},
                {"op": "pa", "A": "2"},
            ] + [
                {"op": "pa", "A": str(h_q + sign * gap), "planted": True}
                for gap in HOUSE_NEAR_GAPS for sign in (1, -1)
            ] + [{"op": "rootofunity"}]
            pool.append(_scalar_query(_terms_str(terms), questions, {"terms": terms}, copy))
        for m1, m2 in ROU_PAIRS:
            # Planted roots: a product of two roots is a root of unity.
            k1, k2 = rng.randrange(1, m1), rng.randrange(1, m2)
            expr = f"{zpow(m1, k1)} * {zpow(m2, k2)}"
            product = [(m1, k1), (m2, k2)]
            questions = [{"op": "rootofunity"}, {"op": "pa", "A": "1"},
                         {"op": "house", "bits": 64}]
            pool.append(_scalar_query(expr, questions, {
                "product": product, "terms": [_root_product(*product)]}, copy))
        for orders in LOXTON_SLOTS:
            terms = [(m, rng.randrange(m)) for m in orders]
            questions = [{"op": "decompose", "dmax": max(2, len(terms))},
                         {"op": "house", "bits": 64}, {"op": "rootofunity"}]
            pool.append(_scalar_query(_terms_str(terms), questions, {"terms": terms}, copy))
    return pool


# -- scan workload ------------------------------------------------------------


def _rand_coeff(rng: random.Random, cond: int, height: int = 3) -> dict[int, Fraction]:
    """A nonzero coefficient in Q (cond 1) or in Q(zeta_3), Q(i)."""
    while True:
        c = {0: Fraction(rng.randint(-height, height))}
        if cond > 1:
            c[1] = Fraction(rng.randint(-height, height))
        if any(c.values()):
            return c


def _mul_linear(coeffs, r: int):
    """coeffs * (x - r), coefficients rational (dict {0: q})."""
    out = [{0: Fraction(0)} for _ in range(len(coeffs) + 1)]
    for i, c in enumerate(coeffs):
        out[i + 1][0] += c[0]
        out[i][0] -= r * c[0]
    return out


def _eval_at_int(coeffs, cond: int, r: int) -> complex:
    z = complex(math.cos(2 * math.pi / cond), math.sin(2 * math.pi / cond))
    return sum(sum(float(q) * z**j for j, q in c.items()) * r**i for i, c in enumerate(coeffs))


# (field conductor, numerator degree, poles, M, A).  Poles lists the roots
# of the monic denominator: "r" is a fresh integer 2 <= |r| <= 4, "rr" a
# double root, and -1 a pole at a root of unity, so that pole skipping is
# exercised.  At most two distinct poles, as the workload requires.  The
# order caps are set so that every slot costs about the same (a rational
# map pays one inverse per root, a polynomial none), which keeps the
# median latency from jumping between slots of different cost.
SCAN_SLOTS = (
    (1, 2, (), 30, 2),
    (1, 3, (), 28, 3),
    (1, 4, (), 24, 2),
    (1, 2, (), 34, 3),
    (3, 2, (), 28, 3),
    (3, 3, (), 24, 2),
    (4, 3, (), 24, 2),
    (4, 2, (), 28, 3),
    (1, 3, ("r",), 20, 3),
    (1, 2, ("r",), 20, 2),
    (1, 3, ("r",), 17, 2),
    (1, 2, (-1, "r"), 17, 3),
    (1, 3, ("rr",), 17, 3),
    (1, 2, ("r", "r"), 17, 3),
    (3, 2, ("r",), 17, 3),
    (3, 3, ("r",), 14, 2),
    (3, 2, (-1, "r"), 14, 2),
    (4, 2, ("r",), 17, 2),
    (4, 3, ("rr",), 14, 3),
    (4, 2, ("r", "r"), 14, 3),
)


def scan_pool(rng: random.Random) -> list[dict]:
    pool = []
    for k, (cond, deg, poles, order_cap, big_a) in enumerate(SCAN_SLOTS * SCAN_COPIES):
        den_roots = []
        for p in poles:
            if p in ("r", "rr"):
                den_roots.extend([rng.choice((-4, -3, -2, 2, 3, 4))] * len(p))
            else:
                den_roots.append(p)
        den = [{0: Fraction(1)}]
        for r in den_roots:
            den = _mul_linear(den, r)
        while True:
            num = [_rand_coeff(rng, cond) for _ in range(deg)] + [
                {0: Fraction(rng.choice((1, 1, 2, -1)))}
            ]
            if all(abs(_eval_at_int(num, cond, r)) > 1e-9 for r in set(den_roots)):
                break
        num_s = poly_str(num, cond)
        h = num_s if not den_roots else f"({num_s})/({poly_str(den, 1)})"
        facts = {
            "num": _facts_poly(num), "den": _facts_poly(den), "cond": cond,
            "den_roots": den_roots,
        }
        pool.append(
            {"key": f"scan|{h}|{order_cap}|{big_a}", "op": "scan", "copy": k // len(SCAN_SLOTS),
             "args": {"h": h, "M": order_cap, "A": str(big_a)}, "facts": facts}
        )
    return pool


# -- witness workload ---------------------------------------------------------


def _grid_rou(rng: random.Random, orders=GRID_ROU_ORDERS) -> tuple[int, int]:
    while True:
        m = rng.choice(orders)
        k = rng.randrange(1, m)
        if math.gcd(k, m) == 1:
            return m, k


def chebyshev_coeffs(d: int) -> list[int]:
    """Integer coefficients of T_d with T_d(t + 1/t) = t^d + t^-d, ascending."""
    prev, cur = [2], [0, 1]
    if d == 0:
        return prev
    for _ in range(d - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def _int_poly_str(coeffs: list[int], var: str) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if c:
            parts.append(f"({c})" if i == 0 else f"({c})*{var}^{i}")
    return "(" + " + ".join(parts) + ")"


def _rand_int_poly(rng: random.Random, d: int, lead: int | None = None) -> list[int]:
    coeffs = [rng.randint(-3, 3) for _ in range(d)] + [lead or rng.choice((1, 2, 3, -1))]
    if not any(coeffs[:-1]):
        coeffs[0] = 1
    return coeffs


def _unit(rng: random.Random, m: int) -> int:
    while True:
        k = rng.randrange(1, m)
        if math.gcd(k, m) == 1:
            return k


def _rou_of_order(rng: random.Random, m: int) -> str:
    return zpow(m, _unit(rng, m))


def witness_pool(rng: random.Random) -> list[dict]:
    """Inputs for avoidance_verdict, witness_search_deg2 and is_special.

    Degrees and root orders are fixed per slot (degrees 3 to 12 across the
    slots) and the seed picks the coefficients, so a pass costs about the
    same for every seed.  Planted witnesses h = g o S^-1 are marked
    ``found_expected``: their inner map lies on the default search grid
    and their short sum within the budget, so a null answer is a miss.
    """
    inputs = []
    copy = 0

    def add(kind, h, **facts):
        inputs.append((kind, h, copy, facts))

    # ROADMAP 2a: h = g(2x + 1) with consecutive top exponents.  The witness
    # S = x/2 - 1/2 is on the grid; the seed's bracket pruning misses it.
    add("planted_2a", "(2*x+1)^3 + (2*x+1)^2", found_expected=True, degree=3)
    for copy in range(WITNESS_COPIES):
        for d in (7, 12):
            beta = _rou_of_order(rng, rng.choice(GRID_ROU_ORDERS))
            add("planted_2a", f"(2*x+1)^{d} + {beta}*(2*x+1)^{d - 1}", found_expected=True,
                degree=d)
        # Affine inner map S = a x + b with a unit: h(y) = g((y - b)/a).
        for d, (ma, mb, mg) in ((5, (4, 3, 8)), (9, (6, 4, 3))):
            e = rng.randint(1, d - 2)
            u = f"((x - {_rou_of_order(rng, mb)})/{_rou_of_order(rng, ma)})"
            add("planted_unit", f"{u}^{d} + {_rou_of_order(rng, mg)}*{u}^{e}",
                found_expected=True, degree=d)
        # Affine inner map with a non-unit and no x^(d-1) term in g.
        d = 8
        e = rng.randint(1, d - 3)
        num = rng.choice((2, 3))
        v = rng.choice((-1, 1))
        beta = _rou_of_order(rng, rng.choice(GRID_ROU_ORDERS))
        add("planted_nonunit", f"({num}*x + {v})^{d} + {beta}*({num}*x + {v})^{e}",
            found_expected=True, degree=d)
        # S = a(x + 1/x) + b with a unit: h(y) = beta * T_d((y - b)/a).
        for d, (ma, mg), b in ((4, (8, 12), 1), (8, (6, 4), 0)):
            u = f"((x - ({b}))/{_rou_of_order(rng, ma)})"
            add("planted_cheb",
                f"{_rou_of_order(rng, mg)}*{_int_poly_str(chebyshev_coeffs(d), u)}",
                found_expected=True, degree=d)
        # Planted special maps u*P((x - v)/u) + v, P in {x^d, T_d}.
        for model, d in (("power", 5), ("chebyshev", 6)):
            u = rng.choice((2, 3, -1, -2))
            v = rng.randint(-2, 2)
            inner = f"((x - ({v}))/({u}))"
            p = f"{inner}^{d}" if model == "power" else _int_poly_str(chebyshev_coeffs(d), inner)
            add("planted_special", f"({u})*{p} + ({v})", special=True, degree=d)
        # Random polynomials: the search exhausts the grid.  A unit leading
        # coefficient lets the whole grid through the first pruning step.
        for d, lead in ((6, 1), (11, 3)):
            add("random_poly", _int_poly_str(_rand_int_poly(rng, d, lead), "x"), degree=d)
        # One double pole: the pole-matching candidates run.
        d = 4
        g = rng.choice((-3, -2, 2, 3))
        num = _rand_int_poly(rng, d)
        while sum(c * g**i for i, c in enumerate(num)) == 0:
            num[0] += 1
        add("double_pole", f"{_int_poly_str(num, 'x')}/(x - ({g}))^2", poles=2, degree=d)
        # Three or four distinct poles: certified avoidance.
        for npoles, d in ((3, 4), (4, 6)):
            roots = rng.sample((-4, -3, -2, -1, 2, 3, 4, 5), npoles)
            num = _rand_int_poly(rng, d)
            while any(sum(c * r**i for i, c in enumerate(num)) == 0 for r in roots):
                num[0] += 1
            den = "*".join(f"(x - ({r}))" for r in roots)
            add("many_poles", f"{_int_poly_str(num, 'x')}/({den})",
                poles=npoles + (1 if d > npoles else 0), degree=max(d, npoles))

    pool = []
    for kind, h, copy, facts in inputs:
        facts = dict(facts, kind=kind)
        for op in ("verdict", "witness-search", "special"):
            pool.append(
                {"key": f"{op}|{h}|{WITNESS_DMAX}", "op": op, "copy": copy,
                 "args": {"h": h, "dmax": WITNESS_DMAX, "A": "2"}, "facts": facts}
            )
    return pool


# -- cli workload -------------------------------------------------------------


# Copies of the command list, each with inputs of its own, so that the
# tail latency has ten commands beyond it.
CLI_COPIES = 2


def cli_pool(rng: random.Random) -> list[dict]:
    """One small invocation of each of the 20 subcommands, plus parse-heavy
    scalars at conductors 420, 1260 and 3960, CLI_COPIES times."""
    pool = []
    copy = 0

    def add(argv, **facts):
        pool.append({"key": "cli|" + "\x1f".join(argv), "op": "cli", "copy": copy,
                     "args": {"argv": argv}, "facts": facts})

    for copy in range(CLI_COPIES):
        terms = _rou_terms(rng, 3, (3, 4, 5, 8, 12, 15))
        add(["house", _terms_str(terms), "--bits", "64"], cmd="house", terms=terms, bits=64)
        half = rng.choice((True, False))
        terms = _rou_terms(rng, 2, (3, 4, 5, 8))
        expr = _terms_str(terms)
        add(["integer", f"({expr})/2" if half else expr], cmd="integer", terms=terms,
            scale="1/2" if half else "1")
        (m1, k1), (m2, k2) = _rou_terms(rng, 2, (5, 7, 9, 12, 20))
        add(["rootofunity", f"{zpow(m1, k1)} * {zpow(m2, k2)}"], cmd="rootofunity",
            product=[(m1, k1), (m2, k2)])
        terms = _rou_terms(rng, 2, (5, 8, 12))
        add(["pa", _terms_str(terms), "--A", "3"], cmd="pa", terms=terms, A="3")
        terms = _rou_terms(rng, 2, (3, 4, 5, 6, 8, 10, 12))
        add(["decompose", _terms_str(terms), "--dmax", "2"], cmd="decompose", terms=terms)
        d = rng.randint(3, 12)
        add(["cheb", str(d)], cmd="cheb", d=d)
        h = _int_poly_str(_rand_int_poly(rng, 2), "x")
        g = _int_poly_str(_rand_int_poly(rng, 2), "x")
        add(["compose", h, g], cmd="compose", h=h, g=g)
        h = _int_poly_str(_rand_int_poly(rng, 2), "x")
        add(["iterate", h, "2"], cmd="iterate", h=h, n=2)
        num = _rand_int_poly(rng, 3)
        r = rng.choice((-2, 2, 3))
        while sum(c * r**i for i, c in enumerate(num)) == 0:
            num[0] += 1
        h = f"{_int_poly_str(num, 'x')}/(x - ({r}))"
        add(["degree", h], cmd="degree", h=h, degree=3)
        roots = rng.sample((-3, -2, -1, 1, 2, 3), 3)
        h = "1/(" + "*".join(f"(x - ({r}))" for r in roots) + ")"
        add(["poles", h], cmd="poles", h=h, poles=3)
        d = rng.randint(3, 6)
        v = rng.randint(-2, 2)
        h = f"(x - ({v}))^{d} + ({v})"
        add(["special", h], cmd="special", h=h, special=True)
        h = f"x^3 + ({rng.randint(-3, 3)})*x + ({rng.randint(1, 3)})"
        add(["normalize", h], cmd="normalize", h=h)
        alpha = f"{zpow(8, rng.choice((1, 3)))} + {zpow(8, 7)}"
        add(["orbit", "x^2 - 2", alpha, "--n", "2", "--A", "2"], cmd="orbit", h="x^2 - 2",
            alpha=alpha, n=2)
        c = rng.choice((1, 2, -1))
        h = f"x^2 + ({c})"
        add(["scan", h, "--M", "10", "--A", "2"], cmd="scan", h=h, M=10, A="2",
            num=[{"0": str(c)}, {}, {"0": "1"}], den=[{"0": "1"}], cond=1, den_roots=[])
        d = rng.randint(2, 5)
        (ma, ka) = _grid_rou(rng)
        u = f"((x - 1)/{zpow(ma, ka)})"
        h = f"{u}^{d}"
        s_map = f"{zpow(ma, ka)}*x + 1"
        terms = [{"beta": {"order": 1, "exp": 0}, "e": "1", "n": d}]
        add(["witness-check", h, "--S", s_map, "--terms", json.dumps(terms)], cmd="witness-check",
            h=h, S=s_map, terms=terms, valid=True)
        d = rng.randint(3, 6)
        m, k = _grid_rou(rng)
        h = f"((x + 1)/{zpow(m, k)})^{d} + ((x + 1)/{zpow(m, k)})"
        add(["witness-search", h, "--dmax", "2"], cmd="witness-search", h=h, dmax=2,
            found_expected=True)
        roots = rng.sample((-3, -2, 2, 3, 4), 3)
        h = "x^2/(" + "*".join(f"(x - ({r}))" for r in roots) + ")"
        add(["verdict", h, "--A", "2", "--budget", "2"], cmd="verdict", h=h, poles=3)
        l_terms = rng.randint(1, 6)
        add(["bounds", "--l", str(l_terms)], cmd="bounds", l=l_terms)
        h = _int_poly_str(_rand_int_poly(rng, 3), "x")
        q = f"x^2 + ({rng.randint(1, 3)})*x"
        add(["fz-verify", h, q], cmd="fz-verify", h=h, q=q)
        h = f"x^3 + ({rng.randint(1, 3)})*x"
        add(["specialterms", h, "x^2 + x", "--n", "3"], cmd="specialterms", h=h, q="x^2 + x",
            n=3)
        # Parse-heavy scalars: cold Phi_n and root tables at large conductors.
        for cmd, n in (("house", 420), ("integer", 1260), ("rootofunity", 3960)):
            k = _unit(rng, n)  # coprime, so the conductor is n for every seed
            m2, k2 = _rou_terms(rng, 1, (3, 4, 12))[0]
            expr = f"{zpow(n, k)} * {zpow(m2, k2)}"
            root = _root_product((n, k), (m2, k2))
            if cmd == "house":
                j = rng.randrange(1, 60)
                add(["house", f"{expr} + {zpow(60, j)}", "--bits", "64"], cmd="house",
                    terms=[root, (60, j)], bits=64)
            elif cmd == "integer":
                add(["integer", expr], cmd="integer", terms=[root], scale="1")
            else:
                add(["rootofunity", expr], cmd="rootofunity", product=[(n, k), (m2, k2)])
    return pool


POOLS = {
    "scan": scan_pool,
    "house": house_pool,
    "witness": witness_pool,
    "cli": cli_pool,
}


def pool(workload: str, seed: int) -> list[dict]:
    """The query pool of one workload; depends only on (workload, seed)."""
    return POOLS[workload](random.Random(f"{workload}:{seed}"))
