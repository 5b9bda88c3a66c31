import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from carleman import series as s
from carleman.errors import (
    ConvergenceBudgetExceeded,
    GroupoidIncompatibility,
    InsufficientOrder,
    RadiusViolation,
)
from oracles import lagrange_inverse, poly_compose, rand_fraction, rand_isotropy_coeffs


def rand_element(rng, order, isotropy=False):
    if isotropy:
        return s.make_series(F(0), rand_isotropy_coeffs(rng, order))
    p = rand_fraction(rng)
    a1 = F(0)
    while a1 == 0:
        a1 = rand_fraction(rng)
    coeffs = [rand_fraction(rng), a1] + [rand_fraction(rng) for _ in range(order - 1)]
    return s.make_series(p, coeffs)


class TestMakeSeries:
    def test_identity(self):
        g = s.make_series(F(0), [F(0), F(1)])
        assert g.source == 0 and g.target == 0 and g.order == 1

    def test_alternating_unit(self):
        g = s.make_series(F(0), [F(1), F(-1), F(1), F(-1), F(1), F(-1), F(1)])
        assert g.source == 0
        assert g.target == 1
        assert g.order == 6

    def test_rejects_zero_linear_term(self):
        with pytest.raises(ValueError):
            s.make_series(F(0), [F(1), F(0)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            s.make_series(F(0), [])


class TestBuiltins:
    def test_geometric(self):
        g = s.builtin_series("geometric", 6)
        assert g.coeffs == (F(1), F(-1), F(1), F(-1), F(1), F(-1), F(1))

    def test_ln1p(self):
        g = s.builtin_series("ln1p", 4)
        assert g.coeffs == (F(0), F(1), F(-1, 2), F(1, 3), F(-1, 4))

    def test_expm1(self):
        g = s.builtin_series("expm1", 4)
        assert g.coeffs == (F(0), F(1), F(1, 2), F(1, 6), F(1, 24))

    def test_translation(self):
        g = s.builtin_series("translation", 5, a=F(3, 2))
        assert g.coeffs == (F(3, 2), F(1), F(0), F(0), F(0), F(0))
        assert g.source == 0 and g.target == F(3, 2)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            s.builtin_series("nope", 4)


class TestCompose:
    def test_translation_after_h_is_geometric(self):
        t1 = s.builtin_series("translation", 8, a=F(1))
        h = s.builtin_series("h", 8)
        assert s.compose(t1, h, 8).coeffs == s.builtin_series("geometric", 8).coeffs

    def test_identity_axiom(self):
        rng = random.Random(11)
        for _ in range(20):
            g = rand_element(rng, 6, isotropy=True)
            e = s.identity_at(F(0), 6)
            assert s.compose(g, e, 6).coeffs == g.coeffs

    def test_h_is_an_involution(self):
        # oracle: full polynomial substitution, then truncate
        h = s.builtin_series("h", 8)
        full = poly_compose(list(h.coeffs), list(h.coeffs))
        expected = tuple(full[:9])
        assert s.compose(h, h, 8).coeffs == expected
        assert expected == s.identity_at(F(0), 8).coeffs

    def test_incompatibility(self):
        g = s.builtin_series("geometric", 6)  # target 1
        h = s.builtin_series("h", 6)  # source 0
        with pytest.raises(GroupoidIncompatibility):
            s.compose(h, g, 6)

    def test_source_target_bookkeeping(self):
        rng = random.Random(3)
        p0, p1, p2 = rand_fraction(rng), rand_fraction(rng), rand_fraction(rng)
        g2 = s.make_series(p2, [p1] + rand_isotropy_coeffs(rng, 5)[1:])
        g1 = s.make_series(p1, [p0] + rand_isotropy_coeffs(rng, 5)[1:])
        out = s.compose(g1, g2, 5)
        assert out.source == g2.source and out.target == g1.target

    def test_low_order_input_is_an_error(self):
        g = s.builtin_series("geometric", 4)
        h = s.builtin_series("h", 8)
        with pytest.raises(InsufficientOrder):
            s.compose(g, h, 8)

    def test_associative_through_order(self):
        rng = random.Random(23)
        for _ in range(15):
            p = [rand_fraction(rng) for _ in range(4)]
            chain = []
            for outer_idx in range(3):
                coeffs = rand_isotropy_coeffs(rng, 6)
                coeffs[0] = p[outer_idx]
                chain.append(s.make_series(p[outer_idx + 1], coeffs))
            g1, g2, g3 = chain
            left = s.compose(s.compose(g1, g2, 6), g3, 6)
            right = s.compose(g1, s.compose(g2, g3, 6), 6)
            assert left.coeffs == right.coeffs and left.base_point == right.base_point


class TestInvert:
    def test_translation(self):
        t = s.builtin_series("translation", 5, a=F(7, 3))
        inv = s.invert(t, 5)
        assert inv.base_point == F(7, 3)
        assert inv.coeffs == (F(0), F(1), F(0), F(0), F(0), F(0))

    def test_h_self_inverse(self):
        h = s.builtin_series("h", 10)
        assert s.invert(h, 10).coeffs == h.coeffs

    def test_geometric_closed_form(self):
        # (1-y)/y about y=1 expands as -u + u^2 - u^3 + ... with u = y-1
        g = s.builtin_series("geometric", 8)
        inv = s.invert(g, 8)
        assert inv.base_point == F(1)
        assert inv.coeffs == (F(0),) + tuple(F((-1) ** k) for k in range(1, 9))

    def test_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(40):
            g = rand_element(rng, 8)
            inv = s.invert(g, 8)
            assert inv.base_point == g.target and inv.target == g.source
            assert s.compose(inv, g, 8).coeffs == s.identity_at(g.source, 8).coeffs

    def test_double_inversion(self):
        rng = random.Random(6)
        for _ in range(100):
            order = rng.randint(2, 12)
            g = rand_element(rng, order)
            back = s.invert(s.invert(g, order), order)
            assert back.coeffs == g.coeffs and back.base_point == g.base_point

    def test_against_lagrange_formula(self):
        rng = random.Random(9)
        for _ in range(25):
            g = rand_element(rng, 7, isotropy=True)
            expected = lagrange_inverse(list(g.coeffs), 7)
            assert list(s.invert(g, 7).coeffs) == expected


class TestPointwisePower:
    def test_geometric_square(self):
        g = s.builtin_series("geometric", 6)
        assert s.pointwise_power(g, 2, 6) == (F(1), F(-2), F(3), F(-4), F(5), F(-6), F(7))

    def test_zeroth_power(self):
        g = s.builtin_series("h", 5)
        assert s.pointwise_power(g, 0, 5) == (F(1), F(0), F(0), F(0), F(0), F(0))

    def test_ln_square(self):
        g = s.builtin_series("ln1p", 4)
        assert s.pointwise_power(g, 2, 4) == (F(0), F(0), F(1), F(-1), F(11, 12))

    def test_power_addition_law(self):
        from carleman.series import _mul_trunc

        rng = random.Random(13)
        for _ in range(15):
            g = rand_element(rng, 6)
            m1, m2 = rng.randint(0, 4), rng.randint(0, 4)
            lhs = s.pointwise_power(g, m1 + m2, 6)
            rhs = _mul_trunc(s.pointwise_power(g, m1, 6), s.pointwise_power(g, m2, 6), 6)
            assert list(lhs) == rhs


class TestRebase:
    def test_round_trip(self):
        rng = random.Random(17)
        for _ in range(15):
            g = rand_element(rng, 6)
            q = rand_fraction(rng)
            moved = s.rebase(g, q)
            assert moved.base_point == q
            back = s.rebase(moved, g.base_point)
            assert back.coeffs == g.coeffs

    def test_values_agree(self):
        g = s.make_series(F(1), [F(2), F(3), F(-1), F(4)])
        moved = s.rebase(g, F(0))
        for z in (F(0), F(1, 2), F(-3)):
            assert moved.evaluate(z) == g.evaluate(z)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(
    rationals,
    st.lists(rationals, min_size=2, max_size=8).filter(lambda c: c[1] != 0),
    rationals,
)
def test_rebase_there_and_back_is_exact(p, coeffs, q):
    g = s.make_series(p, coeffs)
    moved = s.rebase(g, q)
    # g(x) = sum a_k (x - p)^k with x - p = (x - q) + (q - p)
    assert list(moved.coeffs) == poly_compose(coeffs, [q - p, F(1)])[: len(coeffs)]
    assert s.rebase(moved, p) == g


class TestSubstituteAnalytic:
    def test_shifted_log_collapses(self):
        y = 0.5
        ln = s.builtin_coefficient("ln1p")
        inner = s.make_series(F(0), (1j * y,) + tuple(ln(k) for k in range(1, 7)))
        out = s.substitute_analytic(s.analytic_stream("exp"), inner, 6, 1e-12)
        eiy = complex(math.cos(y), math.sin(y))
        assert abs(out[0] - eiy) < 1e-12
        assert abs(out[1] - eiy) < 1e-12
        assert all(abs(c) < 1e-12 for c in out[2:])

    def test_exp_of_plain_variable_is_exact(self):
        inner = s.identity_at(F(0), 5)
        out = s.substitute_analytic(s.analytic_stream("exp"), inner, 5, 1e-12)
        assert out == (F(1), F(1), F(1, 2), F(1, 6), F(1, 24), F(1, 120))

    def test_radius_violation(self):
        inner = s.make_series(F(0), (F(2), F(1), F(0), F(0)))
        with pytest.raises(RadiusViolation):
            s.substitute_analytic(s.analytic_stream("ln1p"), inner, 3, 1e-9)

    def test_log_of_shifted_value(self):
        # ln(1 + 1/2 + z/4) = ln(3/2) + z/6 - z^2/72 + ...
        inner = s.make_series(F(0), (F(1, 2), F(1, 4), F(0), F(0), F(0)))
        out = s.substitute_analytic(s.analytic_stream("ln1p"), inner, 4, 1e-12)
        assert abs(float(out[0]) - math.log(1.5)) < 1e-12
        assert abs(float(out[1]) - float(F(1, 6))) < 1e-12
        assert abs(float(out[2]) - float(F(-1, 72))) < 1e-12

    def test_budget_exhaustion(self):
        inner = s.make_series(F(0), (F(9, 10), F(1), F(1), F(1)))
        with pytest.raises(ConvergenceBudgetExceeded):
            s.substitute_analytic(s.analytic_stream("ln1p"), inner, 3, 1e-9, k_budget=50)

    def test_geometric_kernel(self):
        # 1/(1 - (1/4 + z/4)) = 4/3 + 4/9 z + ... via the kernel stream
        inner = s.make_series(F(0), (F(1, 4), F(1, 4), F(0)))
        out = s.substitute_analytic(s.analytic_stream("geometric-kernel"), inner, 2, 1e-15)
        assert abs(float(out[0]) - float(F(4, 3))) < 1e-12
        assert abs(float(out[1]) - float(F(4, 9))) < 1e-12


class TestJson:
    def test_round_trip(self):
        g = s.make_series(F(1, 2), [F(-3, 4), F(2), F(0), F(5, 7)])
        data = s.series_to_json(g)
        assert data["base_point"] == "1/2"
        assert data["coeffs"][0] == "-3/4"
        back = s.series_from_json(data)
        assert back.coeffs == g.coeffs and back.base_point == g.base_point

    def test_complex_round_trip(self):
        g = s.make_series(0.0 + 0j, [1j, 1.0 + 0j, 0j])
        back = s.series_from_json(s.series_to_json(g))
        assert back.coeffs == g.coeffs

    def test_malformed(self):
        with pytest.raises(ValueError):
            s.series_from_json({"coeffs": ["1"]})
