"""Canonical text rendering and JSON/CSV emission.

The text forms round-trip through the expression grammar:
parse(format(v)) == v for every CycNum and RatFunc, and formatting is a
pure function of the canonical value, so equal values always render to
byte-identical strings.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CycNum
from .errors import DomainError, int_digit_limit, printable
from .ratfunc import LaurentPoly, Poly, RatFunc


def _format_rational(q: Fraction) -> str:
    return str(printable(q))


def _cycnum_term_strings(a: CycNum) -> list[tuple[int, str]]:
    """(sign, body) pairs for each nonzero power-basis monomial."""
    out = []
    n, den = a.n, a.den
    for j, c in enumerate(a.num):
        if not c:
            continue
        sign = 1 if c > 0 else -1
        mag = abs(c) if den == 1 else Fraction(abs(c), den)
        if j == 0:
            body = str(printable(mag))
        else:
            zeta = f"z{n}" if j == 1 else f"z{n}^{j}"
            body = zeta if mag == 1 else f"{printable(mag)}*{zeta}"
        out.append((sign, body))
    return out


def _join_signed(parts) -> str:
    """Join (sign, body) terms as "-a + b - c": the first sign unspaced, a first "+" dropped."""
    text = " ".join(("- " if sign < 0 else "+ ") + body for sign, body in parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def format_cycnum(a: CycNum) -> str:
    if a.is_rational:
        return _format_rational(a.as_rational())
    return _join_signed(_cycnum_term_strings(a))


def _is_simple_coefficient(c: CycNum) -> bool:
    """Renders as a single product (no internal + or -)."""
    return sum(1 for v in c.num if v) <= 1


def _coefficient_product(c: CycNum, xpart: str | None) -> tuple[int, str]:
    """(sign, body) of c * xpart with the sign pulled out when simple."""
    if _is_simple_coefficient(c):
        parts = _cycnum_term_strings(c)
        sign, body = parts[0]
        if xpart is None:
            return sign, body
        if body == "1":
            return sign, xpart
        return sign, f"{body}*{xpart}"
    inner = format_cycnum(c)
    body = f"({inner})"
    if xpart is not None:
        body = f"{body}*{xpart}"
    return 1, body


def format_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    if p.deg == 0:
        return format_cycnum(p.constant_value())
    return _join_signed(
        _coefficient_product(c, None if k == 0 else ("x" if k == 1 else f"x^{k}"))
        for k, c in reversed(list(enumerate(p.coeffs)))
        if c
    )


def _poly_is_single_product(p: Poly) -> bool:
    """One monomial whose coefficient renders without + or -."""
    if p.num_terms() != 1:
        return False
    coeff = next(c for c in p.coeffs if c)
    return _is_simple_coefficient(coeff)


def format_ratfunc(h: RatFunc) -> str:
    num_str = format_poly(h.num)
    if h.den.deg == 0:
        return num_str
    den_str = format_poly(h.den)
    if not _poly_is_single_product(h.den):
        den_str = f"({den_str})"
    if _poly_is_single_product(h.num) and not num_str.startswith("-"):
        return f"{num_str}/{den_str}"
    return f"({num_str})/{den_str}"


def _refuse_unprintable(coeffs) -> None:
    """Raise ``printable``'s error, before any text is made, when a term of
    one of the coefficients cannot print.  Below 2^(3 * limit) < 10^limit
    the largest magnitude passes a coefficient without the exact test."""
    limit = int_digit_limit()
    if not limit:
        return
    bits = 3 * limit
    for c in coeffs:
        if max(c.den, max(c.num), -min(c.num)).bit_length() > bits:
            for x in c.num:
                if x:
                    printable(Fraction(abs(x), c.den))


def format_value(v) -> str:
    """Canonical text of v; a polynomial or rational function that cannot
    print is refused before any of its coefficients is converted."""
    if isinstance(v, LaurentPoly):
        v = v.to_ratfunc()
    if isinstance(v, CycNum):
        return format_cycnum(v)
    if isinstance(v, RatFunc):
        _refuse_unprintable(v.num.coeffs + v.den.coeffs)
        return format_ratfunc(v)
    if isinstance(v, Poly):
        _refuse_unprintable(v.coeffs)
        return format_poly(v)
    if isinstance(v, (int, Fraction)):
        return _format_rational(Fraction(v))
    raise DomainError(f"cannot format {type(v).__name__}")


# -- directed decimal rendering ---------------------------------------------

_DECIMAL_PLACES = 15


def _decimal_directed(q: Fraction, round_up: bool, places: int = _DECIMAL_PLACES) -> str:
    scaled = q.numerator * 10**places
    if round_up:
        iv = -((-scaled) // q.denominator)
    else:
        iv = scaled // q.denominator
    sign = "-" if iv < 0 else ""
    digits = str(printable(abs(iv))).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def decimal_lower(q: Fraction) -> str:
    """Decimal string rounded toward minus infinity (keeps rigor)."""
    return _decimal_directed(q, round_up=False)


def decimal_upper(q: Fraction) -> str:
    """Decimal string rounded toward plus infinity (keeps rigor)."""
    return _decimal_directed(q, round_up=True)


# -- CSV --------------------------------------------------------------------

SCAN_CSV_HEADER = "order,exponent,value,house_lower,house_upper,in_PA"


def scan_to_csv(result) -> str:
    """Hit table as CSV (grammar strings contain no commas)."""
    lines = [SCAN_CSV_HEADER]
    for hit, verdict in [(h, "member") for h in result.hits] + [
        (u, "undecided") for u in result.undecided
    ]:
        lines.append(
            ",".join(
                [
                    str(hit.root.order),
                    str(hit.root.exponent),
                    format_value(hit.value),
                    decimal_lower(hit.house.lower),
                    decimal_upper(hit.house.upper),
                    verdict,
                ]
            )
        )
    return "\n".join(lines) + "\n"
