"""Continued-fraction expansion of a real number in (0, 1), with exact convergents.

All arithmetic runs on ``fractions.Fraction``, so coefficients and convergents
are exact for the rational number actually supplied. A Python float is first
converted to the exact binary rational it represents; because every float is
rational, its expansion terminates, and coefficients past the float's
information content describe the binary approximation rather than the intended
real. The expansion of a float therefore stops (with ``truncated=True``) once
the convergent is within 1e-14 of the input. Pass a Fraction (for example from
``golden_ratio_fraction``) to expand to arbitrary depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

#: decimal digits of the golden-ratio constant used when a Fraction stand-in is needed
GOLDEN_DIGITS = 60

FLOAT_RESIDUAL_GUARD = Fraction(1, 10 ** 14)


def golden_ratio_fraction(digits: int = GOLDEN_DIGITS) -> Fraction:
    """(sqrt(5)-1)/2 as an exact Fraction accurate to about ``digits`` decimal digits."""
    if digits < 1:
        raise ValueError("digits must be positive")
    scale = 10 ** digits
    return Fraction(isqrt(5 * scale * scale) - scale, 2 * scale)


@dataclass(frozen=True)
class Convergent:
    """One convergent n_k/d_k, stored as exact coprime integers."""

    numerator: int
    denominator: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


@dataclass(frozen=True)
class ContinuedFraction:
    """Expansion x = [0; c_1, c_2, ...] with convergents n_k/d_k.

    ``finite`` marks a complete expansion of a rational input; ``truncated``
    marks an expansion stopped early by the float-precision guard rather than
    by the requested depth.
    """

    x: Fraction
    coefficients: tuple[int, ...]
    convergents: tuple[Convergent, ...]
    finite: bool
    truncated: bool

    def depth(self) -> int:
        return len(self.coefficients)


def cf_expand(x, depth: int) -> ContinuedFraction:
    """Expand x in (0, 1) to at most ``depth`` coefficients.

    x may be a float or a Fraction; floats are subject to the residual guard
    described in the module docstring.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    guard = isinstance(x, float)
    xf = Fraction(x)
    if not (0 < xf < 1):
        raise ValueError("x must lie strictly between 0 and 1")

    coeffs: list[int] = []
    convs: list[Convergent] = []
    n_prev, n_curr = 1, 0
    d_prev, d_curr = 0, 1
    rem = xf
    truncated = False
    for _ in range(depth):
        if rem == 0:
            break
        inv = 1 / rem
        c = int(inv)
        rem = inv - c
        coeffs.append(c)
        n_prev, n_curr = n_curr, c * n_curr + n_prev
        d_prev, d_curr = d_curr, c * d_curr + d_prev
        convs.append(Convergent(n_curr, d_curr))
        if guard and rem != 0 and abs(xf - Fraction(n_curr, d_curr)) < FLOAT_RESIDUAL_GUARD:
            truncated = True
            break
    return ContinuedFraction(x=xf, coefficients=tuple(coeffs),
                             convergents=tuple(convs), finite=rem == 0,
                             truncated=truncated)


def evaluate(coefficients) -> Fraction:
    """Exact value of the finite continued fraction [0; c_1, ..., c_k]."""
    value = Fraction(0)
    for c in reversed(tuple(coefficients)):
        value = Fraction(1, c + value)
    return value


def approximation_check(cf: ContinuedFraction) -> list[bool]:
    """Per-k truth of |x - n_k/d_k| < 1/(c_{k+1} * d_k^2), exact arithmetic.

    Defined for k = 1..depth-1 (the bound needs the next coefficient), so the
    list has depth-1 entries.
    """
    out: list[bool] = []
    for k in range(len(cf.coefficients) - 1):
        conv = cf.convergents[k]
        c_next = cf.coefficients[k + 1]
        bound = Fraction(1, c_next * conv.denominator ** 2)
        out.append(abs(cf.x - conv.value) < bound)
    return out


@dataclass(frozen=True)
class FieldClassification:
    kind: str
    depth: int
    max_coefficient: int


def classify_field(cf: ContinuedFraction) -> FieldClassification:
    """Heuristic coefficient-growth classification at the computed depth.

    Returns kind in {"rational", "bounded-coefficients",
    "unbounded-coefficients"}. A finite expansion is rational. Otherwise the
    expansion counts as unbounded-looking when its largest coefficient exceeds
    both 10 and ten times the median coefficient; this is a statement about
    the computed prefix only, not about the true infinite tail.
    """
    coeffs = cf.coefficients
    max_c = max(coeffs) if coeffs else 0
    if cf.finite:
        return FieldClassification("rational", len(coeffs), max_c)
    ordered = sorted(coeffs)
    median = ordered[len(ordered) // 2]
    if max_c > 10 and max_c > 10 * median:
        kind = "unbounded-coefficients"
    else:
        kind = "bounded-coefficients"
    return FieldClassification(kind, len(coeffs), max_c)
