"""Independent checker for benchmark answers.

Nothing here imports the package under test.  Answers are checked
against the generator's facts (the planted answer, or the structure of
the input) with mpmath at a higher precision than the program used, or
with plain floats where the margin is many orders of magnitude wider
than float error (maps of degree <= 12 with small coefficients, values
of modulus <= 10).  Expressions in the grammar, both the generated
inputs and the strings the program prints, are evaluated by the small
numeric evaluator below, at any Galois embedding zeta_m -> zeta_m^t.

Every check returns ``(status, detail)`` where status is

* ``"ok"``     -- the answer agrees with the checker,
* ``"wrong"``  -- the answer contradicts it (a false claim),
* ``"missed"`` -- no answer (null, undecided or an error) where the
  planted answer is known.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from fractions import Fraction
from functools import lru_cache

import mpmath

OK, WRONG, MISSED = "ok", "wrong", "missed"
# Sample points for identities in x; none is a pole of a generated map or
# of the inner maps the search can return (poles at 0 and at integers).
POINTS = ((0.71, 0.33), (1.27, -0.41), (-0.58, 1.09))


def _lcm(*xs: int) -> int:
    out = 1
    for x in xs:
        out = out * x // math.gcd(out, x)
    return out


def units(n: int) -> list[int]:
    return [t for t in range(1, n + 1) if math.gcd(t, n) == 1]


def mp_ctx(prec: int) -> mpmath.MPContext:
    ctx = mpmath.MPContext()
    ctx.prec = prec
    return ctx


# -- numeric evaluation of the expression grammar ------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|(x)|z(\d+)|([-+*/^()]))")


@lru_cache(maxsize=4096)
def parse(text: str):
    """AST of an expression: nested tuples ('x',), ('int', v), ('z', m), ..."""
    toks = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"checker cannot read {text!r} at {pos}")
        num, x, z, op = m.groups()
        toks.append(("int", int(num)) if num else ("x",) if x else ("z", int(z)) if z else (op,))
        pos = m.end()
    toks.append(("end",))
    i = 0

    def peek():
        return toks[i][0]

    def take():
        nonlocal i
        i += 1
        return toks[i - 1]

    def expr():
        node = term()
        while peek() in "+-":
            op = take()[0]
            node = ("add" if op == "+" else "sub", node, term())
        return node

    def term():
        node = factor()
        while peek() in "*/":
            op = take()[0]
            node = ("mul" if op == "*" else "div", node, factor())
        return node

    def factor():
        neg = peek() == "-"
        if neg:
            take()
        node = base()
        if peek() == "^":
            take()
            sign = -1 if peek() == "-" else 1
            if sign < 0:
                take()
            node = ("pow", node, sign * take()[1])
        return ("neg", node) if neg else node

    def base():
        tok = take()
        if tok[0] == "(":
            node = expr()
            take()
            return node
        return tok

    return expr()


def z_orders(node) -> set[int]:
    """Orders of the zN literals in an AST."""
    if node[0] == "z":
        return {node[1]}
    out = set()
    for child in node[1:]:
        if isinstance(child, tuple):
            out |= z_orders(child)
    return out


def evaluate(node, x, root):
    """Value of an AST at x, with zeta_m mapped to root(m)."""
    kind = node[0]
    if kind == "x":
        return x
    if kind == "int":
        return node[1]
    if kind == "z":
        return root(node[1])
    if kind == "neg":
        return -evaluate(node[1], x, root)
    if kind == "pow":
        return evaluate(node[1], x, root) ** node[2]
    a = evaluate(node[1], x, root)
    b = evaluate(node[2], x, root)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a) / b  # exact: rationals must not round to floats
    return a / b


def float_root(t: int):
    def root(m: int) -> complex:
        return cmath.exp(2j * math.pi * ((t % m) / m))

    return root


def mp_root(ctx, t: int):
    def root(m: int):
        return ctx.expjpi(ctx.mpf(2 * (t % m)) / m)

    return root


def value_at(text: str, t: int = 1) -> complex:
    """Float value of an x-free expression at the embedding zeta_m -> zeta_m^t."""
    return complex(evaluate(parse(text), None, float_root(t)))


def conjugates_of_string(text: str, ctx) -> list:
    """All conjugates of an x-free expression (embeddings of Q(zeta_N))."""
    node = parse(text)
    return [evaluate(node, None, mp_root(ctx, t)) for t in units(_lcm(2, *z_orders(node)))]


# -- sums of roots of unity ------------------------------------------------------


@lru_cache(maxsize=256)
def house_of_terms(terms: tuple, prec: int = 400):
    """max |sum zeta_m^(k t)| over t, in mpmath at ``prec`` bits (above the
    256 bits of the finest enclosure checked)."""
    ctx = mp_ctx(prec)
    n = _lcm(*(m for m, _ in terms))
    best = ctx.mpf(0)
    for t in units(n):
        if 2 * t > n + 1:
            break  # sigma_{n-t} is the complex conjugate of sigma_t
        v = ctx.fsum(ctx.expjpi(ctx.mpf(2 * ((k * t) % m)) / m) for m, k in terms)
        best = max(best, abs(v))
    return best


def terms_value(terms, prec: int = 150):
    ctx = mp_ctx(prec)
    return ctx.fsum(ctx.expjpi(ctx.mpf(2 * k) / m) for m, k in terms)


def minimal_root(order: int, exp: int) -> dict:
    exp %= order
    if exp == 0:
        return {"order": 1, "exp": 0}
    g = math.gcd(exp, order)
    return {"order": order // g, "exp": exp // g}


def product_root(roots) -> dict:
    n = _lcm(*(m for m, _ in roots))
    return minimal_root(n, sum(k * (n // m) for m, k in roots))


def integral_numeric(conj_at) -> bool:
    """Is the characteristic polynomial prod (X - c) integral?

    ``conj_at(ctx)`` returns the full list of conjugates as values of the
    mpmath context ``ctx``.  The coefficients are rationals; a non-integer
    one is far from an integer compared with 2^-60 at these heights.  The
    partial products reach prod (1 + |c|), which at conductor 1260 is
    2^288 for a single root of unity, so the precision is raised until that
    bound leaves 128 bits below the working precision.
    """
    prec = 200
    while True:
        ctx = mp_ctx(prec)
        conj = conj_at(ctx)
        growth = sum(math.log2(1 + float(abs(c))) for c in conj)
        if prec >= growth + 128:
            break
        prec = int(growth) + 160
    coeffs = [ctx.mpc(1)]
    for c in conj:
        nxt = [ctx.mpc(0)] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            nxt[i] += a
            nxt[i + 1] -= a * c
        coeffs = nxt
    tol = ctx.mpf(2) ** -60
    return all(abs(c.real - ctx.nint(c.real)) < tol and abs(c.imag) < tol for c in coeffs)


def to_fraction(v) -> Fraction:
    """Exact value of a float or an mpmath mpf."""
    if isinstance(v, (int, float, Fraction)):
        return Fraction(v)
    man, exp = v.man_exp
    return Fraction(man) * Fraction(2) ** exp


def _encloses(hdict: dict, true_value, bits: int | None = None, slack=Fraction(0)) -> str | None:
    """Problem with a printed house enclosure, or None."""
    lo, hi = Fraction(hdict["lower"]), Fraction(hdict["upper"])
    v = to_fraction(true_value)
    eps = Fraction(1, 1 << 100) + slack
    if lo > v + eps or hi < v - eps:
        return f"enclosure [{hdict['lower']}, {hdict['upper']}] misses house {float(v)!r}"
    if bits is not None and hi - lo > Fraction(1, 1 << bits) + Fraction(2, 10**15):
        return f"enclosure wider than 2^-{bits}"
    return None


def check_house_result(terms, bits: int, lower: Fraction, upper: Fraction) -> str | None:
    """Exact enclosure [lower, upper] must contain the house and be 2^-bits wide."""
    v = to_fraction(house_of_terms(tuple(map(tuple, terms))))
    eps = Fraction(1, 1 << (bits + 80))
    if lower > v + eps or upper < v - eps:
        return "house enclosure does not contain the house"
    if upper - lower > Fraction(1, 1 << bits):
        return f"house enclosure wider than 2^-{bits}"
    return None


# -- library-answer checks ---------------------------------------------------------


def _check_house(q, ans, raw):
    terms = q["facts"]["terms"]
    bits = q["args"]["bits"]
    if "error" in ans:
        return MISSED, ans["error"]["message"]
    problem = check_house_result(terms, bits, raw.lower, raw.upper)
    if problem is None:
        problem = _encloses(ans["house"], house_of_terms(tuple(map(tuple, terms))))
    return (WRONG, problem) if problem else (OK, "")


def _pa_expected(terms, big_a: Fraction):
    """member / nonmember, or None for a genuine tie, for sums of roots."""
    h = house_of_terms(tuple(map(tuple, terms)))
    hq = to_fraction(h)
    tie = Fraction(1, 1 << 300)
    if hq < tie:
        return "member", h
    if big_a == 1:
        # A nonzero algebraic integer of house 1 is a root of unity (Kronecker).
        return ("member" if abs(hq - 1) < tie else "nonmember"), h
    if abs(hq - big_a) < tie:
        return None, h
    return ("nonmember" if hq > big_a else "member"), h


def _check_pa(q, ans, raw=None):
    terms = q["facts"]["terms"]
    big_a = Fraction(q["args"]["A"])
    if "error" in ans:
        return MISSED, ans["error"]["message"]
    expected, h = _pa_expected(terms, big_a)
    if ans.get("integral") is not True:
        return WRONG, "a sum of roots of unity was reported non-integral"
    if ans["verdict"] == "undecided":
        return (OK, "tie") if expected is None else (MISSED, f"undecided, expected {expected}")
    if expected is not None and ans["verdict"] != expected:
        return WRONG, f"verdict {ans['verdict']}, expected {expected} at A={big_a}"
    if ans.get("house"):
        problem = _encloses(ans["house"], h)
        if problem:
            return WRONG, problem
    return OK, ""


def _check_rootofunity(q, ans, raw=None):
    facts = q["facts"]
    if "error" in ans:
        return MISSED, ans["error"]["message"]
    got = ans["root_of_unity"]
    if "product" in facts:
        expected = product_root(facts["product"])
        if got is None:
            return MISSED, f"planted root {expected} not recognized"
        return (OK, "") if got == expected else (WRONG, f"{got} != planted {expected}")
    # A nonzero algebraic integer is a root of unity iff its house is 1
    # (Kronecker); sums of roots of unity are algebraic integers.
    h = to_fraction(house_of_terms(tuple(map(tuple, facts["terms"]))))
    is_root = abs(h - 1) < Fraction(1, 1 << 150)
    if got is None:
        return (WRONG, "root of unity reported as not one") if is_root else (OK, "")
    if not is_root:
        return WRONG, f"{got} claimed for an element of house {float(h)}"
    ctx = mp_ctx(150)
    w = ctx.expjpi(ctx.mpf(2 * got["exp"]) / got["order"])
    v = terms_value(facts["terms"])
    ok = abs(w - v) < mpmath.mpf(10) ** -25 and got == minimal_root(got["order"], got["exp"])
    return (OK, "") if ok else (WRONG, f"{got} does not equal the value")


def _check_decompose(q, ans, raw=None):
    terms = q["facts"]["terms"]
    d_max = q["args"]["dmax"]
    if "error" in ans:
        return MISSED, ans["error"]["message"]
    parts = ans["decomposition"]
    if parts is None:
        m_tor = ans["search_conductor"]
        if len(terms) <= d_max and all(m_tor % m == 0 for m, _ in terms):
            return MISSED, "no decomposition although the planted one is in the search space"
        return OK, "outside the search space"
    ctx = mp_ctx(150)
    total = ctx.mpc(0)
    for p in parts:
        r = p["root"]
        e = evaluate(parse(p["e"]), None, mp_root(ctx, 1))
        total += e * ctx.expjpi(ctx.mpf(2 * r["exp"]) / r["order"])
    if abs(total - terms_value(terms)) > mpmath.mpf(10) ** -25:
        return WRONG, "decomposition does not re-sum to the value"
    if len(parts) > len(terms) or ans["length"] != len(parts):
        return WRONG, "decomposition longer than the planted one"
    return OK, ""


class _Field:
    """Coefficients sum_j q_j zeta_c^j of a generated map, under sigma_t."""

    def __init__(self, facts):
        self.cond = facts["cond"]
        self.num = [{int(j): Fraction(v) for j, v in c.items()} for c in facts["num"]]
        self.den = [{int(j): Fraction(v) for j, v in c.items()} for c in facts["den"]]
        self.integral_poly = len(self.den) == 1 and all(
            v.denominator == 1 for c in self.num for v in c.values()
        )

    def coeffs(self, poly, t):
        zc = cmath.exp(2j * math.pi * ((t % self.cond) / self.cond))
        return [sum(float(v) * zc**j for j, v in c.items()) for c in poly]

    def mp_values(self, k: int, m: int, ctx) -> list:
        """All conjugates of h(zeta_m^k) at the precision of ``ctx``."""
        out = []
        for t in units(_lcm(m, self.cond)):
            zc = ctx.expjpi(ctx.mpf(2 * (t % self.cond)) / self.cond)
            x = ctx.expjpi(ctx.mpf(2 * ((k * t) % m)) / m)
            num, den = (
                [ctx.fsum(ctx.mpf(v.numerator) / v.denominator * zc**j for j, v in c.items())
                 for c in poly]
                for poly in (self.num, self.den)
            )
            out.append(self.horner(num, x) / self.horner(den, x))
        return out

    @staticmethod
    def horner(cs, x):
        acc = 0j
        for c in reversed(cs):
            acc = acc * x + c
        return acc


def check_scan(facts, args, ans) -> tuple[str, str]:
    """Every hit, undecided entry, skipped pole and non-hit of a scan."""
    if "error" in ans:
        return MISSED, ans["error"]["message"]
    f = _Field(facts)
    order_cap, big_a = int(args["M"]), Fraction(args["A"])
    a_f = float(big_a)
    hits = {(h["order"], h["exponent"]): h for h in ans["hits"]}
    und = {(h["order"], h["exponent"]): h for h in ans["undecided"]}
    poles = {(r["order"], r["exp"]) for r in ans["poles_skipped"]}
    coeff_cache = {}

    def poly_at(poly, which, t, x):
        key = (which, t % f.cond)
        if key not in coeff_cache:
            coeff_cache[key] = f.coeffs(poly, t)
        return f.horner(coeff_cache[key], x)

    seen = set()
    for m in range(1, order_cap + 1):
        for k in range(m):
            if math.gcd(k, m) != 1 and m > 1:
                continue
            key = (m, k if m > 1 else 0)
            seen.add(key)
            x1 = cmath.exp(2j * math.pi * k / m)
            if abs(poly_at(f.den, "d", 1, x1)) < 1e-9:
                if key not in poles:
                    return WRONG, f"pole at {key} not skipped"
                continue
            if key in poles:
                return WRONG, f"{key} skipped but is no pole"
            n = _lcm(m, f.cond)
            vals = []
            for t in units(n):
                xt = cmath.exp(2j * math.pi * ((k * t) % m) / m)
                vals.append(poly_at(f.num, "n", t, xt) / poly_at(f.den, "d", t, xt))
            mx = max(abs(v) for v in vals)
            entry = hits.get(key) or und.get(key)
            if entry is not None:
                problem = _scan_entry_problem(entry, vals, k, m, f, mx)
                if problem:
                    return WRONG, f"{key}: {problem}"
                if key in hits:
                    if mx > a_f + 1e-9:
                        return WRONG, f"hit {key} has house {mx} > A"
                    if not f.integral_poly and not _integral_vals(vals, f, k, m):
                        return WRONG, f"hit {key} is not integral"
                elif abs(mx - a_f) > 1e-6:
                    return MISSED, f"{key} undecided, house {mx} is far from A"
                continue
            if mx > a_f + 1e-6 or not (f.integral_poly or _integral_vals(vals, f, k, m)):
                continue
            if abs(mx - a_f) <= 1e-6:
                return MISSED, f"{key}: integral with house within 1e-6 of A, not reported"
            return WRONG, f"{key}: integral with house {mx} <= A but not a hit"
    if set(hits) - seen or set(und) - seen or poles - seen:
        return WRONG, "entries outside the scanned orders"
    return OK, ""


def _integral_vals(vals, f: _Field, k: int, m: int) -> bool:
    """Integrality of h(zeta_m^k): a cheap float trace screen, then the
    characteristic polynomial from high-precision conjugates."""
    tr = sum(vals)
    if abs(tr.real - round(tr.real)) > 1e-6:
        return False
    return integral_numeric(lambda ctx: f.mp_values(k, m, ctx))


def _scan_entry_problem(entry, vals, k, m, f, mx) -> str | None:
    node = parse(entry["value"])
    n = _lcm(m, f.cond)
    big_n = _lcm(n, 2, *z_orders(node))
    by_t = dict(zip(units(n), vals))
    for t in units(big_n):
        v = by_t[t % n] if (t % n) in by_t else None
        if v is None:
            continue
        w = complex(evaluate(node, None, float_root(t)))
        if abs(w - v) > 1e-9 * (1 + abs(v)):
            return f"value {entry['value']} differs from h(xi) at sigma_{t}"
    return _encloses(entry["house"], mx, slack=Fraction(1, 10**9))


def _verify_witness(h: str, w: dict, d_max: int) -> str | None:
    if len(w["terms"]) > d_max:
        return "witness longer than the budget"
    ctx = mp_ctx(160)
    root = mp_root(ctx, 1)
    hn, sn = parse(h), parse(w["S"])
    for re_, im_ in POINTS:
        x = ctx.mpc(re_, im_)
        lhs = evaluate(hn, evaluate(sn, x, root), root)
        rhs = ctx.mpc(0)
        for term in w["terms"]:
            beta = term["beta"]
            e = evaluate(parse(term["e"]), None, root)
            rhs += ctx.expjpi(ctx.mpf(2 * beta["exp"]) / beta["order"]) * e * x ** term["n"]
        if abs(lhs - rhs) > ctx.mpf(10) ** -30 * (1 + abs(rhs)):
            return "h(S(x)) differs from the witness sum"
    return None


def _model_value(model: str, y):
    if model.startswith("T_"):
        d = int(model[2:])
        prev, cur = 2, y
        if d == 0:
            return prev
        for _ in range(d - 1):
            prev, cur = cur, y * cur - prev
        return cur
    sign = -1 if model.startswith("-") else 1
    return sign * y ** int(model.lstrip("-").split("^")[1])


def _verify_special(h: str, cert: dict) -> str | None:
    """mobius^-1 o h o mobius == model, checked as h(m(x)) == m(model(x))."""
    ctx = mp_ctx(160)
    root = mp_root(ctx, 1)
    hn, mn = parse(h), parse(cert["mobius"])
    for re_, im_ in POINTS:
        x = ctx.mpc(re_, im_)
        lhs = evaluate(hn, evaluate(mn, x, root), root)
        rhs = evaluate(mn, _model_value(cert["model"], x), root)
        if abs(lhs - rhs) > ctx.mpf(10) ** -30 * (1 + abs(rhs)):
            return "certificate does not conjugate h to its model"
    return None


def _check_verdict(q, ans, raw=None):
    facts, args = q["facts"], q["args"]
    if "error" in ans:
        return MISSED, ans["error"]["message"]
    kind = ans["verdict"]
    poles = facts.get("poles")
    diag = ans.get("diagnostics", {})
    if kind == "certified_avoiding":
        if poles is None or poles <= 2 or ans.get("reason") != f"pole_count={poles}":
            return WRONG, f"certificate {ans.get('reason')} but the map has {poles} poles"
        return OK, ""
    if poles is not None and poles > 2:
        return WRONG, f"{poles} poles but no certificate"
    if kind == "witness_found":
        problem = _verify_witness(args["h"], ans["witness"], args["dmax"])
        return (WRONG, problem) if problem else (OK, "")
    if "degree" in facts and diag.get("degree") != facts["degree"]:
        return WRONG, f"degree {diag.get('degree')} != {facts['degree']}"
    if facts.get("found_expected"):
        return MISSED, "no witness although one is planted on the grid"
    return OK, ""


def _check_witness_search(q, ans, raw=None):
    facts, args = q["facts"], q["args"]
    if "error" in ans:
        return MISSED, ans["error"]["message"]
    w = ans["witness"]
    if w is None:
        if facts.get("found_expected"):
            return MISSED, "no witness although one is planted on the grid"
        return OK, ""
    problem = _verify_witness(args["h"], w, args["dmax"])
    return (WRONG, problem) if problem else (OK, "")


def _check_special(q, ans, raw=None):
    facts = q["facts"]
    if "error" in ans:
        return (MISSED, ans["error"]["message"]) if facts.get("special") else (OK, "error")
    status = ans["status"]
    if status == "special":
        problem = _verify_special(q["args"]["h"], ans["certificate"])
        return (WRONG, problem) if problem else (OK, "")
    if facts.get("special"):
        return (WRONG if status == "not_special" else MISSED), f"planted special map: {status}"
    return OK, ""


SCALAR_CHECKS = {
    "house": _check_house,
    "pa": _check_pa,
    "rootofunity": _check_rootofunity,
    "decompose": _check_decompose,
}


def _check_scalar(q, answers, raws):
    """Each question of a scalar query; the first problem found decides."""
    if len(answers) != len(q["args"]["questions"]):
        return WRONG, "answers missing"
    for question, ans, raw in zip(q["args"]["questions"], answers, raws):
        sub = {"args": question, "facts": q["facts"]}
        status, detail = SCALAR_CHECKS[question["op"]](sub, ans, raw)
        if status != OK:
            return status, f"{question['op']} {question.get('A', '')}: {detail}"
    return OK, ""


LIBRARY_CHECKS = {
    "scalar": _check_scalar,
    "scan": lambda q, ans, raw=None: check_scan(q["facts"], q["args"], ans),
    "verdict": _check_verdict,
    "witness-search": _check_witness_search,
    "special": _check_special,
}


def check_library(query: dict, answer_text: str, raw) -> tuple[str, str]:
    return LIBRARY_CHECKS[query["op"]](query, json.loads(answer_text), raw)


# -- CLI-answer checks --------------------------------------------------------------


def _mp_identity(expected_fn, got: str, ctx_prec: int = 160) -> str | None:
    """got(x) == expected_fn(x, ctx, root) at the sample points."""
    ctx = mp_ctx(ctx_prec)
    root = mp_root(ctx, 1)
    node = parse(got)
    for re_, im_ in POINTS:
        x = ctx.mpc(re_, im_)
        lhs = evaluate(node, x, root)
        rhs = expected_fn(x, ctx, root)
        if abs(lhs - rhs) > ctx.mpf(10) ** -30 * (1 + abs(rhs)):
            return f"{got} differs from the expected map"
    return None


def _string_house(text: str):
    ctx = mp_ctx(200)
    return max(abs(v) for v in conjugates_of_string(text, ctx))


def check_cli(query: dict, code: int, stdout: str) -> tuple[str, str]:
    facts, argv = query["facts"], query["args"]["argv"]
    try:
        ans = json.loads(stdout)
    except ValueError:
        return WRONG, f"exit {code}, output is not one JSON object"
    if code != 0 or "error" in ans:
        return MISSED, f"exit {code}: {stdout.strip()[:200]}"
    cmd = facts["cmd"]
    problem = None
    if cmd == "house":
        h = house_of_terms(tuple(map(tuple, facts["terms"])))
        problem = _encloses(ans["house"], h, facts["bits"])
    elif cmd == "integer":
        scale = Fraction(facts["scale"])
        n = _lcm(2, *(m for m, _ in facts["terms"]))

        def conj_at(ctx):
            return [
                ctx.fsum(ctx.expjpi(ctx.mpf(2 * ((k * t) % m)) / m) for m, k in facts["terms"])
                * ctx.mpf(scale.numerator) / scale.denominator
                for t in units(n)
            ]

        if ans["integral"] != integral_numeric(conj_at):
            problem = f"integral={ans['integral']} is wrong"
    elif cmd == "rootofunity":
        expected = product_root(facts["product"])
        if ans["root_of_unity"] is None:
            return MISSED, f"planted root {expected} not recognized"
        if ans["root_of_unity"] != expected:
            problem = f"{ans['root_of_unity']} != {expected}"
    elif cmd == "pa":
        q = {"facts": {"terms": facts["terms"]}, "args": {"A": facts["A"]}}
        return _check_pa(q, ans)
    elif cmd == "decompose":
        q = {"facts": {"terms": facts["terms"]}, "args": {"dmax": int(argv[-1])}}
        return _check_decompose(q, ans)
    elif cmd == "cheb":
        d = facts["d"]
        ctx = mp_ctx(160)
        node = parse(ans["poly"])
        for re_, im_ in POINTS:
            s = ctx.mpc(re_, im_)
            if abs(evaluate(node, s + 1 / s, None) - (s**d + s**-d)) > ctx.mpf(10) ** -30 * abs(s) ** d:
                problem = "T_d(t + 1/t) != t^d + t^-d"
    elif cmd in ("compose", "iterate"):
        hn = parse(facts["h"])
        gn = parse(facts["g"] if cmd == "compose" else facts["h"])
        problem = _mp_identity(
            lambda x, ctx, root: evaluate(hn, evaluate(gn, x, root), root), ans["ratfunc"]
        )
    elif cmd == "degree":
        if ans["degree"] != facts["degree"]:
            problem = f"degree {ans['degree']} != {facts['degree']}"
    elif cmd == "poles":
        if ans["distinct_pole_count"] != facts["poles"]:
            problem = f"{ans['distinct_pole_count']} poles, expected {facts['poles']}"
    elif cmd == "special":
        if ans["status"] != "special":
            return MISSED, f"planted special map: {ans['status']}"
        problem = _verify_special(facts["h"], ans["certificate"])
    elif cmd == "normalize":
        hn, tn, cn = parse(facts["h"]), parse(ans["h_tilde"]), parse(ans["c"])

        def scaled(x, ctx, root):
            c = evaluate(cn, None, root)
            return evaluate(tn, c * x, root) / c

        problem = _mp_identity(scaled, facts["h"])
    elif cmd == "orbit":
        hn = parse(facts["h"])
        pts = ans["points"]
        if abs(value_at(pts[0]) - value_at(facts["alpha"])) > 1e-9:
            problem = "orbit does not start at alpha"
        for j in range(len(pts) - 1):
            for t in units(_lcm(2, *z_orders(parse(pts[j])))):
                want = complex(evaluate(hn, value_at(pts[j], t), float_root(t)))
                if abs(value_at(pts[j + 1], t) - want) > 1e-9 * (1 + abs(want)):
                    problem = f"orbit point {j + 1} is not h(point {j})"
        for p, hd in zip(pts, ans["houses"]):
            problem = problem or _encloses(hd, _string_house(p))
    elif cmd == "scan":
        return check_scan(facts, {"M": facts["M"], "A": facts["A"]}, ans)
    elif cmd == "witness-check":
        if ans["valid"] is not True:
            return WRONG, "planted witness reported invalid"
        problem = _verify_witness(facts["h"], dict(ans["witness"]), 10)
    elif cmd == "witness-search":
        if ans["witness"] is None:
            return MISSED, "no witness although one is planted on the grid"
        problem = _verify_witness(facts["h"], ans["witness"], facts["dmax"])
    elif cmd == "verdict":
        if ans["verdict"] != "certified_avoiding" or ans.get("reason") != f"pole_count={facts['poles']}":
            problem = f"expected a pole certificate, got {ans}"
    elif cmd == "bounds":
        l_terms = facts["l"]
        if (ans["rational_cap"], ans["laurent_poly_cap"]) != (
            2016 * 5**l_terms, 2 * (2 * l_terms - 1) * (l_terms - 1)
        ):
            problem = "degree caps differ from 2016*5^l and 2(2l-1)(l-1)"
    elif cmd == "fz-verify":
        # The caps are theorems: a violation is a false report.
        if ans["violations"] or ans["composition_terms"] < 1:
            problem = f"violations {ans['violations']}"
    elif cmd == "specialterms":
        if not ans["bound_holds"] or ans["composition_terms"] < ans["lower_bound"]:
            problem = "term lower bound reported violated"
    return (WRONG, problem) if problem else (OK, "")
