"""Shared interval-evaluation helpers for escape-radius style checks."""

from __future__ import annotations

import math
from fractions import Fraction

from cyclohouse import CycNum, Poly
from cyclohouse.cyclotomic import _units_half

from .interval_boxes import ComplexBox, RealInterval, embedding_box


def poly_box_at(p: Poly, z: ComplexBox, sigma_t: int, scale_bits: int = 96) -> ComplexBox:
    """Rigorous box around sigma_t(p)(z) via Horner with coefficient boxes."""
    acc = ComplexBox.point(0)
    for c in reversed(p.coeffs):
        acc = (acc * z).round_out(2 * scale_bits)
        if c:
            acc = acc + embedding_box(c, sigma_t, scale_bits)
    return acc


def coefficient_embeddings(p: Poly) -> list[int]:
    """Representative sigma indices covering every embedding of p's field."""
    n = 1
    for c in p.coeffs:
        n = math.lcm(n, c.n)
    if n == 1:
        return [1]
    return list(_units_half(n)) + [n - t for t in _units_half(n)]


def circle_sample_boxes(radius: Fraction, count: int = 64, scale_bits: int = 96):
    """Boxes around radius * exp(2*pi*i*k/count) for k = 0..count-1."""
    out = []
    for k in range(count):
        w = ComplexBox.from_root_table(count, k, scale_bits)
        out.append(w.scale(radius))
    return out


def modulus_squared_lower(box: ComplexBox) -> Fraction:
    return box.abs_squared().lo


def modulus_squared_upper(box: ComplexBox) -> Fraction:
    return box.abs_squared().hi


def embedding_abs_squared(v: CycNum, sigma_t: int, scale_bits: int = 96) -> RealInterval:
    return embedding_box(v, sigma_t, scale_bits).abs_squared()
