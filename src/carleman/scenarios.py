"""Worked matrix scenarios: circle rotations and a deformed addition law.

Circle route: conjugating the shift by i*y with the log/exp pair turns it
into the scaling z -> z e^{iy}, whose embedding is the diagonal matrix
diag(1, e^{iy}, e^{2iy}, ...). The certified computation happens at series
level, where the composition collapses exactly; the literal truncated
matrix-product route is intrinsically truncation-approximate and is exposed
separately, flagged as such. The certified chart covers |y| < pi/3 (the arc
where |z - 1| < 1); larger angles are reached by multiplying certified
steps.

Adjoint family: conjugating u_t = I + tX (X nilpotent, first column only)
by an alternating upper-triangular matrix produces M_t with first row
(1-t, t, -t, t, ...), and turns addition of parameters into
mu(t, t') = t + t' - t t'. All parameter computations stay in exact
polynomial arithmetic; nothing mixes polynomials with floating scalars.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from ._record import record
from .errors import CertifiedArcError
from .matrices import (
    InfiniteMatrixHandle,
    TruncatedMatrix,
    carleman_embed,
    product_handle,
    translation_matrix,
    truncated_multiply,
)
from .polynomials import Poly
from .series import (
    GroupoidElement,
    analytic_stream,
    builtin_coefficient,
    make_series,
    rebase,
    substitute_analytic,
)

_F0 = Fraction(0)
_F1 = Fraction(1)

CERTIFIED_ARC = math.pi / 3


# ---------------------------------------------------------------------------
# Circle scenario
# ---------------------------------------------------------------------------


def _log_shift_series(y: float, order: int) -> GroupoidElement:
    """iy + ln(1+z) as a truncated series: constant iy, then log coefficients."""
    ln = builtin_coefficient("ln1p")
    return make_series(_F0, (1j * y,) + tuple(ln(k) for k in range(1, order + 1)))


def circle_composite_series(y: float, order: int, tol: float = 1e-12) -> tuple:
    """Coefficients of (e^z - 1) applied after the shifted log.

    Collapses to constant e^{iy} - 1, linear e^{iy}, and higher coefficients
    below the tail tolerance.
    """
    inner = _log_shift_series(y, order)
    coeffs = substitute_analytic(analytic_stream("exp"), inner, order, tol)
    return (coeffs[0] - 1,) + tuple(coeffs[1:])


def circle_generator_matrix(y: float, n: int, tol: float = 1e-9) -> TruncatedMatrix:
    """Certified embedding of the composite transformation z -> z e^{iy}.

    Valid on the certified arc |y| < pi/3 of absolute convergence. The
    composite is computed by series substitution about the point 1, rebased
    to 0 (an exact polynomial shift), and embedded; the result is within tol
    of diag(e^{i(j-1)y}).
    """
    if abs(y) >= CERTIFIED_ARC:
        raise CertifiedArcError(
            f"|y| = {abs(y):.6g} is outside the certified arc (< {CERTIFIED_ARC:.6g})"
        )
    if n < 2:
        raise ValueError("window size must be at least 2")
    order = n - 1
    inner = _log_shift_series(y, order)
    coeffs = substitute_analytic(analytic_stream("exp"), inner, order, tol * 1e-3)
    about_one = make_series(complex(1.0), tuple(complex(c) for c in coeffs))
    about_zero = rebase(about_one, complex(0.0))
    return carleman_embed(about_zero, n)


def circle_raw_product(y: float, n: int) -> TruncatedMatrix:
    """Literal truncated product of the conjugation chain, flagged approximate.

    The middle multiplication (upper x general) is not truncation-exact, so
    the whole block carries truncation_exact=False; it is reported for
    comparison against the certified route, never trusted.
    """
    ln_block = carleman_embed(
        make_series(_F0, tuple(builtin_coefficient("ln1p")(k) for k in range(n))), n
    )
    exp_block = carleman_embed(
        make_series(_F0, tuple(builtin_coefficient("expm1")(k) for k in range(n))), n
    )
    t_iy = translation_matrix(1j * y, n)
    step = truncated_multiply(t_iy, ln_block, n)
    step = truncated_multiply(exp_block, step, n)
    step = truncated_multiply(translation_matrix(complex(1.0), n), step, n)
    return truncated_multiply(step, translation_matrix(complex(-1.0), n), n)


def circle_cover_extend(angles, n: int = 8, tol: float = 1e-9) -> TruncatedMatrix:
    """Product of certified-arc steps, reaching any total rotation angle.

    Each step must lie inside the certified arc; the product equals
    diag(e^{i (sum angles) (j-1)}) within an accumulated tolerance.
    """
    angles = list(angles)
    if not angles:
        raise ValueError("need at least one step")
    result = circle_generator_matrix(angles[0], n, tol)
    for y in angles[1:]:
        result = truncated_multiply(result, circle_generator_matrix(y, n, tol), n)
    return result


def scaling_diagonal(angle: float, n: int) -> TruncatedMatrix:
    """Closed-form target diag(e^{i (j-1) angle}) for deviation reports."""
    rows = [
        [cmath.exp(1j * angle * i) if i == j else complex(0.0) for j in range(n)]
        for i in range(n)
    ]
    return TruncatedMatrix(n, tuple(tuple(r) for r in rows), "complex-float")


def diag_deviation(matrix: TruncatedMatrix, angle: float) -> float:
    """Max entrywise deviation from the closed-form scaling diagonal."""
    target = scaling_diagonal(angle, matrix.n)
    return max(
        abs(complex(matrix.rows[i][j]) - target.rows[i][j])
        for i in range(matrix.n)
        for j in range(matrix.n)
    )


# ---------------------------------------------------------------------------
# Adjoint family
# ---------------------------------------------------------------------------


def _first_column_generator() -> InfiniteMatrixHandle:
    """X: first column (0, -1, 1, -1, ...), zero elsewhere; X^2 = 0."""

    def fn(i, j):
        if j == 1 and i >= 2:
            return Fraction((-1) ** (i - 1))
        return _F0

    def row_cols(i):
        return () if i == 1 else (1,)

    return InfiniteMatrixHandle(
        fn, "general", {"kind": "explicit", "name": "first-column-generator"},
        row_cols=row_cols,
    )


def _alternating_upper() -> InfiniteMatrixHandle:
    def fn(i, j):
        return Fraction((-1) ** (j - i)) if j >= i else _F0

    return InfiniteMatrixHandle(
        fn, "upper", {"kind": "explicit", "name": "alternating-upper"}
    )


def _bidiagonal_inverse() -> InfiniteMatrixHandle:
    def fn(i, j):
        return _F1 if j in (i, i + 1) else _F0

    def row_cols(i):
        return (i, i + 1)

    return InfiniteMatrixHandle(
        fn, "upper", {"kind": "explicit", "name": "bidiagonal-inverse"},
        row_cols=row_cols,
    )


def _one_parameter_group(t) -> InfiniteMatrixHandle:
    """u_t = I + tX, exactly (X is square-zero)."""

    def fn(i, j):
        if i == j:
            return 1 + (t - t)
        if j == 1 and i >= 2:
            return ((-1) ** (i - 1)) * t
        return _F0

    def row_cols(i):
        return (i,) if i == 1 else (1, i)

    def col_rows(j):
        return None if j == 1 else (j,)

    return InfiniteMatrixHandle(
        fn, "general", {"kind": "explicit", "name": "one-parameter", "t": str(t)},
        row_cols=row_cols, col_rows=col_rows,
    )


def adjoint_handle(t) -> InfiniteMatrixHandle:
    """Closed form of the conjugated family: first row (1-t, t, -t, ...),
    identity from row 2 on. The parameter may be a Fraction or a Poly."""

    def fn(i, j):
        if i == 1:
            if j == 1:
                return 1 - t
            return t if j % 2 == 0 else -t
        return _F1 if i == j else _F0

    def row_cols(i):
        return None if i == 1 else (i,)

    def col_rows(j):
        return (1,) if j == 1 else (1, j)

    return InfiniteMatrixHandle(
        fn, "general", {"kind": "adjoint-M", "t": str(t)},
        row_cols=row_cols, col_rows=col_rows,
    )


@record
class AdjointFamily:
    """Handles of the conjugation data, all exact in the parameter."""

    n: int
    x: InfiniteMatrixHandle
    u_t: InfiniteMatrixHandle
    g: InfiniteMatrixHandle
    g_inv: InfiniteMatrixHandle
    m_t: InfiniteMatrixHandle


def adjoint_family(n: int) -> AdjointFamily:
    """Construct the family at truncation n and verify its structure:
    X^2 = 0 on the window, and the conjugate has identity rows from 2 on."""
    if n < 2:
        raise ValueError("truncation must be at least 2")
    t = Poly.variable("t", ("t",))
    x = _first_column_generator()
    u_t = _one_parameter_group(t)
    g = _alternating_upper()
    g_inv = _bidiagonal_inverse()
    x_sq = truncated_multiply(x, x, n)
    if any(not v == 0 for row in x_sq.rows for v in row):
        raise AssertionError("generator is not square-zero on the window")
    m_t = product_handle(product_handle(g_inv, u_t), g)
    for i in range(2, n + 1):
        for j in range(1, n + 1):
            expected = _F1 if i == j else _F0
            if not m_t.entry(i, j) == expected:
                raise AssertionError("conjugate family lost its identity rows")
    m_t = InfiniteMatrixHandle(
        m_t.entry, "general", {"kind": "adjoint-M", "t": "t"},
        row_cols=m_t.row_cols, col_rows=m_t.col_rows,
    )
    return AdjointFamily(n, x, u_t, g, g_inv, m_t)


@record
class MuCheck:
    """Outcome of the deformed-addition identity check."""

    ok: bool
    n: int
    residual: Poly
    entry: tuple | None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "n": self.n,
            "residual": str(self.residual),
            "entry": list(self.entry) if self.entry else None,
        }


def mu_compose(t, t2):
    """The deformed addition mu(t, t') = t + t' - t t'."""
    return t + t2 - t * t2


def adjoint_mu_check(n: int) -> MuCheck:
    """Verify M_t M_t' = M_{mu(t,t')} entrywise as exact polynomials."""
    variables = ("t", "t'")
    t = Poly.variable("t", variables)
    t2 = Poly.variable("t'", variables)
    left = product_handle(adjoint_handle(t), adjoint_handle(t2))
    target = adjoint_handle(mu_compose(t, t2))
    zero = Poly(variables)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            diff = left.entry(i, j) - target.entry(i, j)
            if isinstance(diff, (int, Fraction)):
                diff = Poly.constant(diff, variables)
            if not diff.is_zero:
                return MuCheck(False, n, diff, (i, j))
    return MuCheck(True, n, zero, None)
