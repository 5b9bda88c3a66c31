"""Scalar domains and their canonical text/JSON forms.

Three domains are supported: exact rationals (`fractions.Fraction`),
complex floating values, and exact polynomials (`Poly`). Rationals render
as lowest-terms "n/d" with "/1" suppressed; complex scalars serialize as
[re, im] pairs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainMismatch
from .polynomials import Poly

RATIONAL = "rational"
COMPLEX = "complex-float"
BIPOLY = "bipoly"


def to_fraction(value) -> Fraction:
    """Parse an exact rational from an int, Fraction, or 'n/d' string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise ValueError(f"cannot read an exact rational from {value!r}")


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def scalar_kind(value) -> str:
    if isinstance(value, (Fraction, int)):
        return RATIONAL
    if isinstance(value, (complex, float)):
        return COMPLEX
    if isinstance(value, Poly):
        return BIPOLY
    raise DomainMismatch(f"unsupported scalar type {type(value).__name__}")


def join_domains(a: str, b: str) -> str:
    if a == b:
        return a
    pair = {a, b}
    if pair == {RATIONAL, COMPLEX}:
        return COMPLEX
    if pair == {RATIONAL, BIPOLY}:
        return BIPOLY
    raise DomainMismatch(f"cannot mix scalar domains {a} and {b}")


def infer_domain(values) -> str:
    domain = RATIONAL
    for v in values:
        domain = join_domains(domain, scalar_kind(v))
    return domain


def is_zero(value) -> bool:
    if isinstance(value, Poly):
        return value.is_zero
    return value == 0


def abs_magnitude(value):
    """Magnitude usable for comparisons: exact for rationals, float otherwise."""
    if isinstance(value, (Fraction, int)):
        return abs(Fraction(value))
    if isinstance(value, (complex, float)):
        return abs(value)
    raise DomainMismatch("no magnitude for polynomial scalars")


def scalar_to_json(value):
    if isinstance(value, (Fraction, int)):
        return format_rational(Fraction(value))
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, float):
        return [value, 0.0]
    if isinstance(value, Poly):
        return str(value)
    raise DomainMismatch(f"unsupported scalar type {type(value).__name__}")


def _finite(z: complex, source) -> complex:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"scalar {source!r} is not finite")
    return z


def scalar_from_json(value):
    if isinstance(value, str):
        return to_fraction(value)
    if isinstance(value, bool):
        raise ValueError("booleans are not scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return _finite(complex(float(value[0]), float(value[1])), value)
    raise ValueError(f"cannot read a scalar from {value!r}")


def scalar_to_text(value) -> str:
    if isinstance(value, (Fraction, int)):
        return format_rational(Fraction(value))
    if isinstance(value, complex):
        return f"{value.real:+.6g}{value.imag:+.6g}j"
    if isinstance(value, float):
        return f"{value:+.6g}"
    return str(value)
