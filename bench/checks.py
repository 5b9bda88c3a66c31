"""Independent oracles for checking benchmark job outputs.

Nothing here imports `carleman`. Each oracle is the naive textbook
computation (schoolbook truncated products, incremental powers, cofactor
determinants, arithmetic modulo a prime, Freivalds' randomized product
check), so a fault in the library cannot hide behind shared code.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)

# Mersenne prime 2^61 - 1: minors and ranks modulo it agree with the exact
# rational values unless the prime divides a numerator or denominator.
PRIME = (1 << 61) - 1


def mul_trunc(a, b, order):
    """Schoolbook product of two coefficient lists, kept through `order`."""
    out = [F0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                out[i + j] += x * y
    return out


def power_rows(coeffs, rows, order):
    """Rows 0..rows-1 of the powers coeffs^m, each kept through `order`."""
    out = [[F1] + [F0] * order]
    for _ in range(rows - 1):
        out.append(mul_trunc(out[-1], coeffs, order))
    return out


def compose_trunc(outer, inner_dev, order):
    """sum_k outer[k] * inner_dev^k through `order` (inner_dev[0] == 0)."""
    out = [F0] * (order + 1)
    for k, row in enumerate(power_rows(inner_dev, order + 1, order)):
        c = outer[k]
        if c:
            for j, v in enumerate(row):
                out[j] += c * v
    return out


def binomial(n, k):
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def mat_vec(rows, x):
    return [sum((a * b for a, b in zip(row, x)), F0) for row in rows]


def freivalds_product(a_rows, b_rows, c_rows, x):
    """True when A (B x) == C x for the probe vector x."""
    return mat_vec(a_rows, mat_vec(b_rows, x)) == mat_vec(c_rows, x)


def cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    det = F0
    for j, v in enumerate(rows[0]):
        if v:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            det += (-1) ** j * v * cofactor_det(minor)
    return det


def to_mod(value):
    v = Fraction(value)
    return v.numerator % PRIME * pow(v.denominator, -1, PRIME) % PRIME


def _echelon_mod(rows):
    """Forward elimination modulo PRIME; returns (rank, determinant if square)."""
    m = [[to_mod(x) for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    rank, det = 0, 1
    for c in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][c]), None)
        if piv is None:
            det = 0
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        p = m[rank][c]
        det = det * p % PRIME
        inv = pow(p, -1, PRIME)
        for r in range(rank + 1, nrows):
            f = m[r][c] * inv % PRIME
            if f:
                m[r] = [(x - f * y) % PRIME for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank, det % PRIME


def rank_mod(rows):
    return _echelon_mod(rows)[0]


def det_mod(rows):
    return _echelon_mod(rows)[1] if len(rows) == len(rows[0]) else None


def scaling_deviation(rows, angle):
    """Max entrywise distance from diag(e^{i (j-1) angle})."""
    n = len(rows)
    return max(
        abs(complex(rows[i][j]) - (cmath.exp(1j * angle * i) if i == j else 0))
        for i in range(n)
        for j in range(n)
    )


def builtin_coeffs(name, count):
    """Closed-form Taylor coefficients of the stock series, 0..count-1."""
    out = []
    fact = 1
    for k in range(count):
        if k:
            fact *= k
        if name == "geometric":
            out.append(Fraction((-1) ** k))
        elif name == "h":
            out.append(Fraction((-1) ** k) if k else F0)
        elif name == "ln1p":
            out.append(Fraction((-1) ** (k + 1), k) if k else F0)
        elif name == "expm1":
            out.append(Fraction(1, fact) if k else F0)
        else:
            raise ValueError(f"no closed form for {name!r}")
    return out


def scalar_bits(value):
    """Bit length of the larger of numerator and denominator."""
    v = Fraction(value)
    return max(abs(v.numerator).bit_length(), v.denominator.bit_length())
