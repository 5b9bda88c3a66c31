import cmath
import math
from fractions import Fraction as F
from functools import reduce
from operator import add, mul

import pytest

import carleman as cl
from carleman import scenarios
from carleman.errors import CertifiedArcError
from carleman.linalg import KERNEL_CERTIFIED, NO_OBSTRUCTION
from carleman.polynomials import Poly


def expected_diag(angle, n):
    return [
        [cmath.exp(1j * angle * i) if i == j else 0j for j in range(n)]
        for i in range(n)
    ]


def max_dev(matrix, target):
    return max(
        abs(complex(matrix.rows[i][j]) - target[i][j])
        for i in range(matrix.n)
        for j in range(matrix.n)
    )


class TestCircle:
    @pytest.mark.parametrize("y", [0.3, 0.5, 1.0])
    def test_certified_diagonal(self, y):
        m = cl.circle_generator_matrix(y, 8, 1e-9)
        assert m.domain == "complex-float"
        assert max_dev(m, expected_diag(y, 8)) < 1e-9

    def test_zero_angle_identity(self):
        m = cl.circle_generator_matrix(0.0, 6, 1e-12)
        assert max_dev(m, expected_diag(0.0, 6)) < 1e-12

    @pytest.mark.parametrize("y", [0.3, 0.5, 1.0])
    def test_composite_series_head(self, y):
        comp = cl.circle_composite_series(y, 7, 1e-12)
        eiy = cmath.exp(1j * y)
        assert abs(comp[0] - (eiy - 1)) < 1e-9
        assert abs(comp[1] - eiy) < 1e-9
        assert all(abs(c) < 1e-9 for c in comp[2:])

    def test_outside_certified_arc(self):
        with pytest.raises(CertifiedArcError):
            cl.circle_generator_matrix(1.2, 8)
        with pytest.raises(CertifiedArcError):
            cl.circle_generator_matrix(-math.pi / 3, 8)

    def test_raw_route_is_flagged(self):
        raw = cl.circle_raw_product(0.5, 8)
        assert not raw.truncation_exact

    def test_cover_inverse_pair(self):
        m = cl.circle_cover_extend([0.6, -0.6], 8)
        assert max_dev(m, expected_diag(0.0, 8)) < 2e-9

    def test_cover_past_two_thirds_pi(self):
        total = 2.7
        m = cl.circle_cover_extend([0.9, 0.9, 0.9], 8)
        assert total > 2 * math.pi / 3
        assert max_dev(m, expected_diag(total, 8)) < 1e-8

    def test_cover_full_circle(self):
        total = 6.4
        m = cl.circle_cover_extend([0.8] * 8, 8)
        assert total > 2 * math.pi
        assert max_dev(m, expected_diag(total, 8)) < 1e-8

    def test_angle_addition(self):
        a = cl.circle_generator_matrix(0.4, 8)
        b = cl.circle_generator_matrix(0.7, 8)
        prod = cl.truncated_multiply(a, b, 8)
        assert max_dev(prod, expected_diag(1.1, 8)) < 1e-9

    def test_diag_deviation_helper(self):
        m = cl.circle_generator_matrix(0.5, 8)
        assert cl.diag_deviation(m, 0.5) == pytest.approx(max_dev(m, expected_diag(0.5, 8)))


class TestAdjointFamily:
    def test_first_row(self):
        fam = cl.adjoint_family(6)
        t = Poly.variable("t", ("t",))
        expected = [1 - t, t, -t, t, -t, t]
        assert [fam.m_t.entry(1, j) for j in range(1, 7)] == expected

    def test_zero_parameter_is_identity(self):
        handle = cl.adjoint_handle(F(0))
        assert handle.window(6).rows == cl.identity_matrix(6).rows

    def test_generator_is_square_zero(self):
        fam = cl.adjoint_family(8)
        sq = cl.truncated_multiply(fam.x, fam.x, 8)
        assert all(v == 0 for row in sq.rows for v in row)

    def test_exponential_short_circuits(self):
        # generic truncated exponential sum I + tX + (tX)^2/2 + ... = I + tX
        fam = cl.adjoint_family(6)
        t = Poly.variable("t", ("t",))
        n = 6
        tx = [[t * fam.x.entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
        acc = [[Poly.constant(1 if i == j else 0, ("t",)) for j in range(n)] for i in range(n)]
        power = [row[:] for row in acc]
        factorial = 1
        for k in range(1, 5):
            power = [
                [sum((power[i][m] * tx[m][j] for m in range(n)), Poly(("t",))) for j in range(n)]
                for i in range(n)
            ]
            factorial *= k
            acc = [
                [acc[i][j] + F(1, factorial) * power[i][j] for j in range(n)]
                for i in range(n)
            ]
        for i in range(n):
            for j in range(n):
                assert acc[i][j] == fam.u_t.entry(i + 1, j + 1)

    def test_conjugate_matches_closed_form(self):
        fam = cl.adjoint_family(7)
        t = Poly.variable("t", ("t",))
        closed = cl.adjoint_handle(t)
        for i in range(1, 8):
            for j in range(1, 8):
                assert fam.m_t.entry(i, j) == closed.entry(i, j)

    def test_mu_identity(self):
        chk = cl.adjoint_mu_check(8)
        assert chk.ok
        assert chk.residual.is_zero
        assert chk.entry is None

    def test_entry_11_factorization(self):
        variables = ("t", "t'")
        t = Poly.variable("t", variables)
        tp = Poly.variable("t'", variables)
        lhs = (1 - t) * (1 - tp)
        assert lhs == 1 - cl.mu_compose(t, tp)

    def test_gamma_verdicts(self):
        assert cl.gamma_probe(cl.adjoint_handle(F(1)), 8, 32).verdict == KERNEL_CERTIFIED
        for k in range(-9, 12):
            t = F(k, 7)
            if t == 1:
                continue
            assert cl.gamma_probe(cl.adjoint_handle(t), 6, 24).verdict == NO_OBSTRUCTION

    def test_small_truncation_rejected(self):
        with pytest.raises(ValueError):
            cl.adjoint_family(1)


def full_ordered_sum(a, b, n):
    """Every entry summed over all k in order, the first term as accumulator."""
    cols = list(zip(*(r[:n] for r in b.rows[:n])))
    return [[reduce(add, map(mul, r[:n], c)) for c in cols] for r in a.rows[:n]]


def test_non_rational_products_equal_the_full_ordered_sum(monkeypatch):
    calls = []

    def spy(a, b, n):
        product = cl.truncated_multiply(a, b, n)
        a, b = (m if isinstance(m, cl.TruncatedMatrix) else m.window(n) for m in (a, b))
        calls.append((a, b, n, product))
        return product

    monkeypatch.setattr(scenarios, "truncated_multiply", spy)
    for y in (0.5, -0.9, 0.01):
        cl.circle_raw_product(y, 8)
    cl.circle_cover_extend([0.5, 0.5, -0.3], 8)  # y = 0.5 is declared upper: empty bands
    fam = cl.adjoint_family(6)
    assert {p.domain for *_, p in calls} == {"complex-float", "rational"}
    for left, right in ((fam.u_t, fam.g), (fam.g_inv, fam.u_t), (fam.u_t, fam.u_t)):
        calls.append((left.window(6), right.window(6), 6, cl.truncated_multiply(left, right, 6)))
    assert calls[-1][3].domain == "bipoly"
    for a, b, n, product in calls:
        assert [list(r) for r in product.rows] == full_ordered_sum(a, b, n)
