"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive (full polynomial expansion, cofactor
determinants, the closed-form inversion series) and shares no code with the
library paths it checks.
"""

import math
from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)


def poly_mul(a, b):
    """Full (untruncated) product of coefficient lists."""
    out = [F0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_pow(a, m):
    out = [F1]
    for _ in range(m):
        out = poly_mul(out, a)
    return out


def poly_eval(coeffs, x):
    acc = F0 * x if not isinstance(x, (int, Fraction)) else F0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_compose(outer, inner):
    """Full substitution outer(inner(x)) with no truncation anywhere."""
    out = [F0]
    power = [F1]
    for k, c in enumerate(outer):
        if k:
            power = poly_mul(power, inner)
        term = [c * p for p in power]
        if len(term) > len(out):
            out = out + [F0] * (len(term) - len(out))
        for i, v in enumerate(term):
            out[i] += v
    return out


def series_reciprocal(coeffs, order):
    """1 / (c0 + c1 x + ...) through the given order; needs c0 != 0."""
    c0 = coeffs[0]
    out = [F1 / c0]
    for n in range(1, order + 1):
        acc = F0
        for i in range(1, n + 1):
            ci = coeffs[i] if i < len(coeffs) else F0
            acc += ci * out[n - i]
        out.append(-acc / c0)
    return out


def lagrange_inverse(deviation, order):
    """Inverse of y = d(x) (d(0)=0, d'(0)!=0) by the classical coefficient
    formula: [y^n] = (1/n) [x^(n-1)] (x/d(x))^n."""
    ratio = series_reciprocal(deviation[1:], order)  # x/d(x) = 1/(a1 + a2 x + ...)
    out = [F0]
    for n in range(1, order + 1):
        power = [F1]
        for _ in range(n):
            power = poly_mul(power, ratio)
        out.append(Fraction(power[n - 1], n) if isinstance(power[n - 1], int) else power[n - 1] / n)
    return out


def mat_mul(rows_a, rows_b):
    n, m, p = len(rows_a), len(rows_b), len(rows_b[0])
    assert len(rows_a[0]) == m
    return [
        [sum((rows_a[i][k] * rows_b[k][j] for k in range(m)), F0) for j in range(p)]
        for i in range(n)
    ]


def mat_eq(rows_a, rows_b):
    return [list(r) for r in rows_a] == [list(r) for r in rows_b]


def laplace_det(rows):
    """Cofactor-expansion determinant (exponential; fine for tiny minors)."""
    n = len(rows)
    if n == 0:
        return F1
    if n == 1:
        return rows[0][0]
    det = F0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        det += (-1) ** j * rows[0][j] * laplace_det(minor)
    return det


def elimination_det(rows):
    """Determinant by (independent) rational elimination; for larger blocks."""
    m = [list(r) for r in rows]
    n = len(m)
    det = F1
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return F0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def elimination_rank(rows):
    """Rank by (independent) rational elimination with row swaps."""
    m = [list(r) for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][c] / m[rank][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def rand_fraction(rng, lo=-5, hi=5, max_den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_isotropy_coeffs(rng, order, lo=-5, hi=5, max_den=4):
    """Random coefficients with zero constant term and nonzero linear term."""
    a1 = F0
    while a1 == 0:
        a1 = rand_fraction(rng, lo, hi, max_den)
    return [F0, a1] + [rand_fraction(rng, lo, hi, max_den) for _ in range(order - 1)]


def check_structure(window):
    """True when a window's declared structure tag holds on its entries."""
    tag = window.structure
    for i, row in enumerate(window.rows):
        for j, v in enumerate(row):
            if j > i and tag in ("lower", "lower-unipotent", "diagonal") and v != 0:
                return False
            if i > j and tag in ("upper", "diagonal") and v != 0:
                return False
            if i == j and tag == "lower-unipotent" and v != 1:
                return False
    return True


def on_segment(point, p, q):
    """True when the integer point lies on the closed segment [p, q]."""
    collinear = (q[0] - p[0]) * (point[1] - p[1]) == (q[1] - p[1]) * (point[0] - p[0])
    return collinear and all(min(a, b) <= c <= max(a, b) for a, b, c in zip(p, q, point))


def float_winding(polygon, center):
    """Winding number of a closed polygon about center, from summed float turns.

    Each edge that misses center turns (p - center) into (q - center) by an
    angle of size below pi, which atan2 of their cross and dot products gives;
    the turns of a closed path sum to 2 pi times its winding number.
    """
    total = 0.0
    for p, q in zip(polygon, polygon[1:] + polygon[:1]):
        ax, ay = p[0] - center[0], p[1] - center[1]
        bx, by = q[0] - center[0], q[1] - center[1]
        total += math.atan2(ax * by - ay * bx, ax * bx + ay * by)
    return round(total / (2 * math.pi))
