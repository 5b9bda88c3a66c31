"""Truncated power-series transformations of the real (or complex) line.

An element is stored by its expansion about a source point p:

    g(x) = a0 + a1 (x - p) + ... + aN (x - p)^N,   a1 != 0.

The source of g is p and the target is a0 = g(p). Composition g1 o g2 is
partial: it is defined only when the target of g2 equals the source of g1.
Every operation takes an explicit output order N; passing an input of lower
order is an error rather than a silent zero-pad.

Scalars are exact rationals by default; complex floating coefficients are
accepted where transcendental constants are unavoidable.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable
from fractions import Fraction

from ._record import record
from .errors import (
    ConvergenceBudgetExceeded,
    GroupoidIncompatibility,
    InsufficientOrder,
    RadiusViolation,
)
from .scalars import _finite, is_zero, scalar_from_json, scalar_to_json, to_fraction

_F0 = Fraction(0)
_F1 = Fraction(1)


@record
class GroupoidElement:
    """Truncated transformation with source/target bookkeeping."""

    base_point: object
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("a transformation needs at least a linear coefficient")
        if is_zero(self.coeffs[1]):
            raise ValueError("linear coefficient must be nonzero (a1 != 0)")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def source(self):
        return self.base_point

    @property
    def target(self):
        return self.coeffs[0]

    def evaluate(self, z):
        """Value of the truncated polynomial at z (Horner, exact in Q)."""
        u = z - self.base_point
        acc = self.coeffs[-1]
        for a in reversed(self.coeffs[:-1]):
            acc = acc * u + a
        return acc

    def deviation(self) -> tuple:
        """Coefficients of g - target, a series with zero constant term."""
        zero = self.coeffs[0] - self.coeffs[0]
        return (zero,) + self.coeffs[1:]


def make_series(base_point, coeffs) -> GroupoidElement:
    """Build a transformation; rejects a1 = 0 (not composition-invertible)."""
    coeffs = tuple(coeffs)
    if not coeffs:
        raise ValueError("coefficient list must be nonempty")
    return GroupoidElement(base_point, coeffs)


def identity_at(p, order: int) -> GroupoidElement:
    """The identity transformation x -> x expanded about p."""
    zero = p - p if not isinstance(p, (int, Fraction)) else _F0
    return GroupoidElement(p, (p,) + (_F1,) + (zero,) * (order - 1))


_BUILTIN_ORACLES: dict[str, Callable[[int], Fraction]] = {
    "identity": lambda k: _F1 if k == 1 else _F0,
    "geometric": lambda k: Fraction((-1) ** k),
    "h": lambda k: _F0 if k == 0 else Fraction((-1) ** k),
    "ln1p": lambda k: _F0 if k == 0 else Fraction((-1) ** (k + 1), k),
    "expm1": lambda k: _F0 if k == 0 else Fraction(1, math.factorial(k)),
}


def builtin_coefficient(name: str) -> Callable[[int], Fraction]:
    """Exact coefficient oracle k -> a_k for a named stock series."""
    try:
        return _BUILTIN_ORACLES[name]
    except KeyError:
        raise ValueError(f"unknown builtin series {name!r}") from None


def builtin_series(name: str, order: int, a=None) -> GroupoidElement:
    """Stock transformations: identity, translation(a), geometric = 1-x+x^2-...,
    h = -x+x^2-x^3+..., ln1p, expm1. All based at 0."""
    if order < 1:
        raise ValueError("order must be at least 1")
    if name == "translation":
        if a is None:
            raise ValueError("translation requires the shift amount")
        zero = a - a if not isinstance(a, (int, Fraction)) else _F0
        return GroupoidElement(zero, (a, _F1) + (zero,) * (order - 1))
    oracle = builtin_coefficient(name)
    return GroupoidElement(_F0, tuple(oracle(k) for k in range(order + 1)))


def _mul_trunc(a, b, order: int):
    """Cauchy product of coefficient sequences, truncated at the given order."""
    out = []
    for k in range(order + 1):
        acc = None
        for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1):
            term = a[i] * b[k - i]
            acc = term if acc is None else acc + term
        out.append(_F0 if acc is None else acc)
    return out


class PowerRows:
    """Pointwise powers g^0, g^1, ... of a coefficient oracle k -> a_k.

    The one routine that builds powers of a series. Row m is row m-1 times g
    (plain repeated multiplication; J.C.P. Miller's recurrence, Knuth TAOCP
    Vol. 2 sec. 4.7, would build g^m from its own earlier coefficients), each
    entry summed in the order of `_mul_trunc(row, g)`. Rows gain columns only as
    they are asked for; growth holds a lock, so readers may share an instance.
    """

    def __init__(self, coefficient: Callable[[int], object]):
        self._coefficient = coefficient
        self._g: list = []
        self._rows: list = [[_F1]]
        self._lock = threading.Lock()

    def row(self, m: int, order: int) -> list:
        """Coefficients of g^m through x^order, as a new list."""
        width = order + 1
        with self._lock:
            g, rows = self._g, self._rows
            g.extend(map(self._coefficient, range(len(g), width)))
            rows.extend([] for _ in range(len(rows), m + 1))
            rows[0].extend([_F0] * (width - len(rows[0])))
            for prev, row in zip(rows, rows[1 : m + 1]):
                for k in range(len(row), width):
                    acc = prev[0] * g[k]
                    for a, b in zip(prev[1 : k + 1], reversed(g[:k])):
                        acc = acc + a * b
                    row.append(acc)
            return rows[m][:width]


def _require_order(g: GroupoidElement, order: int, what: str):
    if g.order < order:
        raise InsufficientOrder(
            f"{what}: input has order {g.order}, need at least {order}"
        )


def _deviation_rows(g: GroupoidElement, order: int) -> list:
    """Powers 0..order of g - target through x^order; row m has valuation m."""
    powers = PowerRows(g.deviation().__getitem__)
    return [powers.row(m, order) for m in range(order + 1)]


def compose(g1: GroupoidElement, g2: GroupoidElement, order: int) -> GroupoidElement:
    """g1 o g2 truncated at the given order, expanded about the source of g2.

    Defined only when target(g2) = source(g1) exactly. The substituted
    quantity is the deviation g2 - target(g2), which has zero constant term,
    so the truncated result is an exact polynomial computation.
    """
    _require_order(g1, order, "compose")
    _require_order(g2, order, "compose")
    if g2.target != g1.source:
        raise GroupoidIncompatibility(
            f"target of inner ({g2.target}) differs from source of outer ({g1.source})"
        )
    rows = _deviation_rows(g2, order)
    a = g1.coeffs
    out = (
        sum((a[m] * rows[m][j] for m in range(1, order + 1)), a[0] * rows[0][j])
        for j in range(order + 1)
    )
    return GroupoidElement(g2.base_point, tuple(out))


def invert(g: GroupoidElement, order: int) -> GroupoidElement:
    """Compositional inverse about the target of g, solved term by term.

    The returned f satisfies compose(f, g, order) = identity at source(g)
    through the requested order; source(f) = target(g), target(f) = source(g).
    """
    _require_order(g, order, "invert")
    rows = _deviation_rows(g, order)
    c = [g.base_point]
    for j in range(1, order + 1):
        rhs = _F1 if j == 1 else _F0
        for m in range(1, j):
            rhs = rhs - c[m] * rows[m][j]
        c.append(rhs / rows[j][j])
    return GroupoidElement(g.target, tuple(c))


def pointwise_power(g: GroupoidElement, m: int, order: int) -> tuple:
    """Coefficients of g^m (m-fold product, not composition), truncated."""
    if m < 0:
        raise ValueError("power must be nonnegative")
    _require_order(g, order, "pointwise_power")
    return tuple(PowerRows(g.coeffs.__getitem__).row(m, order))


def rebase(g: GroupoidElement, new_base) -> GroupoidElement:
    """Re-expand the truncated polynomial about a new reference point.

    Exact polynomial identity; the rebased expansion must still have a
    nonzero linear coefficient.
    """
    delta = g.base_point - new_base
    # g(x) = sum a_k ((x - new_base) - delta)^k, Horner in (x - new_base)
    acc = [g.coeffs[-1]] + [_F0] * g.order
    shift = [-delta, _F1]
    for k in range(g.order - 1, -1, -1):
        acc = _mul_trunc(acc, shift, g.order)
        acc[0] = acc[0] + g.coeffs[k]
    return GroupoidElement(new_base, tuple(acc))


@record
class AnalyticCoefficientStream:
    """Entire/analytic outer function given by its exact Taylor oracle at 0."""

    name: str
    coefficient: Callable[[int], Fraction]
    radius: float

    def tail_bound(self, q: float, k: int) -> float:
        """Bound on sum_{m>k} |a_m| q^m, valid for coefficient-wise error."""
        if self.name == "exp":
            try:
                return q ** (k + 1) / math.factorial(k + 1) * math.exp(q)
            except OverflowError:
                return math.inf
        if q >= 1.0:
            return math.inf
        if self.name == "ln1p":
            return q ** (k + 1) / ((k + 1) * (1.0 - q))
        if self.name == "geometric-kernel":
            return q ** (k + 1) / (1.0 - q)
        raise ValueError(f"no tail bound for stream {self.name!r}")


_STREAMS = {
    "exp": AnalyticCoefficientStream(
        "exp", lambda k: Fraction(1, math.factorial(k)), math.inf
    ),
    "ln1p": AnalyticCoefficientStream(
        "ln1p", lambda k: _F0 if k == 0 else Fraction((-1) ** (k + 1), k), 1.0
    ),
    "geometric-kernel": AnalyticCoefficientStream(
        "geometric-kernel", lambda k: _F1, 1.0
    ),
}


def analytic_stream(name: str) -> AnalyticCoefficientStream:
    try:
        return _STREAMS[name]
    except KeyError:
        raise ValueError(f"unknown analytic stream {name!r}") from None


def substitute_analytic(
    outer: AnalyticCoefficientStream,
    inner: GroupoidElement,
    order: int,
    tol: float,
    k_budget: int = 200,
) -> tuple:
    """Coefficients of outer(inner(z)) through the given order.

    When the inner constant term is exactly zero the computation collapses
    to finitely many terms and is exact. Otherwise partial sums of the outer
    stream are accumulated until the analytic tail bound (evaluated at
    |constant| + l1-norm of the truncated deviation) drops below tol.
    """
    _require_order(inner, order, "substitute_analytic")
    c = inner.coeffs[0]
    abs_c = abs(complex(c)) if not isinstance(c, (int, Fraction)) else abs(Fraction(c))
    if math.isfinite(outer.radius) and abs_c >= outer.radius:
        raise RadiusViolation(
            f"inner constant {c!r} is not strictly inside radius {outer.radius}"
        )
    exact = is_zero(c)
    if not exact:
        q = float(abs_c) + sum(abs(complex(x)) for x in inner.coeffs[1 : order + 1])
    powers = PowerRows(inner.coeffs.__getitem__)
    acc = [outer.coefficient(0)] + [_F0] * order
    for k in range(1, (order if exact else k_budget) + 1):
        a_k = outer.coefficient(k)
        for j, p in enumerate(powers.row(k, order)):
            acc[j] = acc[j] + a_k * p
        if not exact and outer.tail_bound(q, k) < tol:
            return tuple(acc)
    if exact:
        return tuple(acc)
    raise ConvergenceBudgetExceeded(
        f"tolerance {tol} not met within the {k_budget}-term budget (q = {q:.4g})"
    )


def series_to_json(g: GroupoidElement) -> dict:
    return {
        "base_point": scalar_to_json(g.base_point),
        "coeffs": [scalar_to_json(a) for a in g.coeffs],
    }


def series_from_json(data: dict) -> GroupoidElement:
    try:
        base = scalar_from_json(data["base_point"])
        coeffs = [scalar_from_json(a) for a in data["coeffs"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed series JSON: {exc}") from exc
    return make_series(base, coeffs)


def parse_scalar_argument(text: str):
    """Scalar from CLI text: 'n/d' rational or finite 'a+bj' complex."""
    try:
        return to_fraction(text)
    except ValueError:
        pass
    try:
        value = complex(text)
    except ValueError:
        raise ValueError(f"cannot parse scalar {text!r}") from None
    return _finite(value, text)
