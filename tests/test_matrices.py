import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import carleman as cl
from carleman.errors import DomainMismatch, InsufficientOrder, UndefinedOperation
from carleman.polynomials import Poly
from oracles import (
    check_structure,
    mat_eq,
    mat_mul,
    poly_eval,
    poly_pow,
    rand_fraction,
    rand_isotropy_coeffs,
)


class TestEmbed:
    def test_geometric_block(self):
        g = cl.builtin_series("geometric", 5)
        m = cl.carleman_embed(g, 6)
        assert m.rows[0] == (F(1), F(0), F(0), F(0), F(0), F(0))
        assert m.rows[4] == (F(1), F(-4), F(10), F(-20), F(35), F(-56))

    def test_identity_series(self):
        e = cl.identity_at(F(0), 5)
        assert cl.carleman_embed(e, 6).rows == cl.identity_matrix(6).rows

    def test_h_block(self):
        h = cl.builtin_series("h", 5)
        m = cl.carleman_embed(h, 6)
        assert m.rows[3] == (F(0), F(0), F(0), F(-1), F(3), F(-6))
        assert m.is_upper_triangular()

    def test_insufficient_order(self):
        with pytest.raises(InsufficientOrder):
            cl.carleman_embed(cl.builtin_series("h", 3), 6)

    def test_isotropy_diagonal(self):
        rng = random.Random(2)
        for _ in range(10):
            coeffs = rand_isotropy_coeffs(rng, 7)
            g = cl.make_series(F(0), coeffs)
            m = cl.carleman_embed(g, 8)
            assert m.is_upper_triangular()
            assert all(m.rows[i][i] == coeffs[1] ** i for i in range(8))

    def test_first_row_always_unit(self):
        rng = random.Random(4)
        for _ in range(10):
            g = cl.make_series(rand_fraction(rng), [rand_fraction(rng), F(1)] + [rand_fraction(rng)] * 5)
            m = cl.carleman_embed(g, 7)
            assert m.rows[0] == (F(1),) + (F(0),) * 6


class TestTranslation:
    def test_pascal(self):
        m = cl.translation_matrix(F(1), 6)
        assert m.rows[5] == (F(1), F(5), F(10), F(10), F(5), F(1))
        assert m.rows == cl.carleman_embed(cl.builtin_series("translation", 5, a=F(1)), 6).rows

    def test_zero_shift(self):
        assert cl.translation_matrix(F(0), 5).rows == cl.identity_matrix(5).rows

    def test_addition_law(self):
        rng = random.Random(21)
        for _ in range(10):
            a, b = rand_fraction(rng), rand_fraction(rng)
            lhs = cl.truncated_multiply(cl.translation_matrix(a, 8), cl.translation_matrix(b, 8), 8)
            assert lhs.rows == cl.translation_matrix(a + b, 8).rows


class TestMultiply:
    def test_factorization(self):
        t = cl.translation_matrix(F(1), 12)
        mh = cl.carleman_embed(cl.builtin_series("h", 11), 12)
        mg = cl.carleman_embed(cl.builtin_series("geometric", 11), 12)
        prod = cl.truncated_multiply(t, mh, 12)
        assert prod.rows == mg.rows and prod.truncation_exact

    def test_identity_neutral(self):
        m = cl.carleman_embed(cl.builtin_series("geometric", 5), 6)
        assert cl.truncated_multiply(cl.identity_matrix(6), m, 6).rows == m.rows

    def test_homomorphism_on_isotropy(self):
        rng = random.Random(31)
        for _ in range(20):
            g1 = cl.make_series(F(0), rand_isotropy_coeffs(rng, 12))
            g2 = cl.make_series(F(0), rand_isotropy_coeffs(rng, 12))
            lhs = cl.carleman_embed(cl.compose(g1, g2, 12), 12)
            rhs = cl.truncated_multiply(cl.carleman_embed(g1, 12), cl.carleman_embed(g2, 12), 12)
            assert lhs.rows == rhs.rows
            # cross-check the library product against the naive oracle
            assert mat_eq(rhs.rows, mat_mul([list(r) for r in cl.carleman_embed(g1, 12).rows],
                                            [list(r) for r in cl.carleman_embed(g2, 12).rows]))

    def test_exactness_flag(self):
        upper = cl.carleman_embed(cl.builtin_series("h", 5), 6)
        lower = cl.translation_matrix(F(1), 6)
        dense = cl.carleman_embed(cl.builtin_series("geometric", 5), 6)
        assert cl.truncated_multiply(lower, dense, 6).truncation_exact  # left lower
        assert cl.truncated_multiply(dense, upper, 6).truncation_exact  # right upper
        assert not cl.truncated_multiply(dense, dense, 6).truncation_exact
        assert not cl.truncated_multiply(upper, lower, 6).truncation_exact

    def test_flag_propagates(self):
        dense = cl.carleman_embed(cl.builtin_series("geometric", 5), 6)
        approx = cl.truncated_multiply(dense, dense, 6)
        again = cl.truncated_multiply(cl.translation_matrix(F(1), 6), approx, 6)
        assert not again.truncation_exact

    def test_hidden_coefficient_is_not_exact(self):
        # g = x + x^4: its 4 x 4 window is the identity, but the infinite
        # matrix is only upper triangular, so (M_g T_1)(2,1) = 1 + 1 = 2 is
        # not the window product's 1
        g = cl.make_series(F(0), [F(0), F(1), F(0), F(0), F(1)])
        prod = cl.truncated_multiply(cl.carleman_embed(g, 4), cl.translation_matrix(F(1), 4), 4)
        assert prod.rows[1][0] == 1 and not prod.truncation_exact

    def test_product_declares_combined_structure(self):
        t = cl.translation_matrix(F(2), 5)
        upper = cl.carleman_embed(cl.builtin_series("h", 4), 5)
        assert cl.truncated_multiply(t, t, 5).structure == "lower-unipotent"
        assert cl.truncated_multiply(upper, upper, 5).structure == "upper"
        assert cl.truncated_multiply(t, upper, 5).structure == "general"
        assert cl.truncated_multiply(cl.identity_matrix(5), upper, 5).structure == "upper"

    def test_domain_mismatch(self):
        t = Poly.variable("t", ("t",))
        poly_mat = cl.matrix_from_rows([[t, Poly.constant(0, ("t",))], [Poly.constant(0, ("t",)), t]])
        cplx = cl.translation_matrix(1j, 2)
        with pytest.raises(DomainMismatch):
            cl.truncated_multiply(poly_mat, cplx, 2)


class TestHandles:
    def test_structure_soundness(self):
        for handle in (
            cl.translation_handle(F(1)),
            cl.builtin_carleman_handle("h"),
            cl.builtin_carleman_handle("expm1"),
        ):
            window = handle.window(8)
            assert window.structure == handle.structure and check_structure(window)

    def test_memoized_entries_are_stable(self):
        handle = cl.builtin_carleman_handle("geometric")
        first = handle.entry(5, 7)
        assert handle.entry(5, 7) == first == F(poly_pow([F(1), F(-1), F(1), F(-1), F(1), F(-1), F(1)], 4)[6])

    def test_window_limited(self):
        g = cl.builtin_series("h", 4)
        handle = cl.carleman_handle(g)
        handle.window(5)
        with pytest.raises(InsufficientOrder):
            handle.entry(1, 6)

    def test_product_handle_matches_multiply(self):
        t = cl.translation_handle(F(2))
        mh = cl.builtin_carleman_handle("h")
        prod = cl.product_handle(t, mh)
        window = prod.window(6)
        direct = cl.truncated_multiply(t, mh, 6)
        assert window.rows == direct.rows

    def test_product_handle_refuses_infinite_sums(self):
        mh = cl.builtin_carleman_handle("h")
        tinv = cl.translation_handle(F(-1))
        prod = cl.product_handle(mh, tinv)
        with pytest.raises(UndefinedOperation):
            prod.entry(2, 1)

    def test_explicit_handle_supports(self):
        block = cl.matrix_from_rows([[F(0), F(1)], [F(1), F(0)]])
        handle = cl.explicit_handle(block, beyond="identity")
        assert handle.entry(3, 3) == 1 and handle.entry(2, 3) == 0
        assert handle.col_rows(1) == (2,)
        assert handle.col_rows(5) == (5,)


class TestDeclaredStructure:
    def test_producers_declare_their_tags(self):
        iso = cl.make_series(F(0), [F(0), F(2), F(1)])
        shifted = cl.make_series(F(0), [F(1), F(2), F(1)])
        assert cl.carleman_embed(iso, 3).structure == "upper"
        assert cl.carleman_embed(shifted, 3).structure == "general"
        assert cl.translation_matrix(F(3), 4).structure == "lower-unipotent"
        assert cl.translation_matrix(F(0), 4).structure == "diagonal"
        assert cl.identity_matrix(4).structure == "diagonal"

    def test_triangular_rows_declare_nothing(self):
        rows = [[F(1), F(0)], [F(2), F(1)]]
        assert cl.matrix_from_rows(rows).structure == "general"
        data = {"rows": [["1", "0"], ["2", "1"]]}
        assert cl.matrix_from_json(data).structure == "general"
        assert "structure" not in cl.matrix_to_json(cl.translation_matrix(F(1), 2))


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def producers(draw):
    """A window producer: the embedding of a polynomial of degree <= 4
    (isotropy or not), a translation, or the identity."""
    kind = draw(st.sampled_from(("carleman", "translation", "identity")))
    if kind == "carleman":
        degree = draw(st.integers(min_value=1, max_value=4))
        a0 = F(0) if draw(st.booleans()) else draw(small)
        rest = draw(st.lists(small, min_size=degree - 1, max_size=degree - 1))
        return kind, [a0, draw(small.filter(bool))] + rest
    return kind, draw(small)


def produce(producer, n):
    kind, arg = producer
    if kind == "carleman":
        return cl.carleman_embed(cl.make_series(F(0), arg + [F(0)] * (n - 1)), n)
    if kind == "translation":
        return cl.translation_matrix(arg, n)
    return cl.identity_matrix(n)


@given(producers(), st.integers(min_value=1, max_value=6))
def test_declared_structure_holds_on_every_window(producer, n):
    assert check_structure(produce(producer, n))


@given(producers(), producers(), st.integers(min_value=1, max_value=6))
def test_a_product_flagged_exact_is_a_window_of_the_true_product(left, right, n):
    product = cl.truncated_multiply(produce(left, n), produce(right, n), n)
    if product.truncation_exact:
        # rows 1..n of the left factor vanish past column (n-1)d+1, so every
        # sum of the product's top-left n x n block is complete at that size
        degree = len(left[1]) - 1 if left[0] == "carleman" else 1
        big = (n - 1) * degree + 1
        full = mat_mul(
            [list(r) for r in produce(left, big).rows], [list(r) for r in produce(right, big).rows]
        )
        assert mat_eq(product.rows, [r[:n] for r in full[:n]])


class TestLatentDecomposition:
    def test_geometric(self):
        g = cl.builtin_series("geometric", 7)
        lp = cl.lul_decompose(g, 8)
        assert lp.junctions == ("performed", "latent")
        t, gamma, tinv = lp.factors
        assert t.window(8).rows == cl.translation_matrix(F(1), 8).rows
        assert gamma.window(8).rows == cl.carleman_embed(cl.builtin_series("h", 7), 8).rows
        assert tinv.window(8).rows == cl.identity_matrix(8).rows

    def test_identity(self):
        lp = cl.lul_decompose(cl.identity_at(F(0), 5), 6)
        for factor in lp.factors:
            assert factor.window(6).rows == cl.identity_matrix(6).rows

    def test_shifted_isotropy(self):
        g = cl.make_series(F(2), [F(2), F(3), F(1), F(4), F(0), F(2)])
        lp = cl.lul_decompose(g, 6)
        gamma = lp.factors[1].window(6)
        assert gamma.is_upper_triangular()
        assert tuple(gamma.rows[i][i] for i in range(6)) == tuple(F(3) ** i for i in range(6))
        assert lp.factors[0].window(6).rows == cl.translation_matrix(F(2), 6).rows
        assert lp.factors[2].window(6).rows == cl.translation_matrix(F(-2), 6).rows

    def test_performed_junction_reproduces_composition(self):
        g = cl.make_series(F(1), [F(3), F(2), F(-1), F(1), F(0), F(1)])
        lp = cl.lul_decompose(g, 6)
        performed = cl.truncated_multiply(lp.factors[0], lp.factors[1], 6)
        zero_dev = cl.make_series(F(0), (F(0),) + g.coeffs[1:])
        tau = cl.builtin_series("translation", 5, a=g.target)
        assert performed.rows == cl.carleman_embed(cl.compose(tau, zero_dev, 5), 6).rows

    def test_junction_flag_validation(self):
        mh = cl.builtin_carleman_handle("h")
        tinv = cl.translation_handle(F(-1))
        with pytest.raises(ValueError):
            cl.LatentProduct((mh, tinv), ("performed",))

    def test_serialization(self):
        lp = cl.lul_decompose(cl.builtin_series("geometric", 5), 6)
        data = lp.to_json()
        assert data["junctions"] == ["performed", "latent"]
        assert data["factors"][0]["kind"] == "translation"
        assert data["factors"][1]["kind"] == "carleman-of"


class TestMonomialColumn:
    def test_identity_deviation_zero(self):
        e = cl.identity_at(F(0), 7)
        report = cl.monomial_column_check(e, F(1, 3), 8, 1e-12)
        assert report.max_deviation == 0 and report.ok

    def test_translation_exact(self):
        t = cl.builtin_series("translation", 7, a=F(1))
        report = cl.monomial_column_check(t, F(1, 2), 8, 0)
        assert report.max_deviation == 0 and report.ok

    def test_geometric_small_point(self):
        # oracle: deviation in row m+1 equals the tail of the fully expanded
        # truncated power evaluated at z, since low coefficients agree
        g = cl.builtin_series("geometric", 7)
        z = F(1, 10)
        n = 8
        report = cl.monomial_column_check(g, z, n, 1e-4)
        truncated = list(g.coeffs[:n])
        for m in range(n):
            full = poly_pow(truncated, m)
            tail = poly_eval(full[n:], z) * z ** n if len(full) > n else F(0)
            assert report.deviations[m] == abs(tail)
        assert report.ok and report.max_deviation < F(1, 10000)


CELLS = (F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(3), F(5, 3), F(-7, 6))


@st.composite
def windows_of_every_producer(draw):
    """One window of each producer at one size n <= 6. Their declared tags
    cover upper, lower, lower-unipotent, diagonal and general."""
    n = draw(st.integers(min_value=1, max_value=6))
    cells = draw(st.lists(st.sampled_from(CELLS), min_size=n * n, max_size=n * n))
    dense = [cells[i * n : (i + 1) * n] for i in range(n)]
    coeffs = draw(st.lists(small, min_size=n, max_size=n))
    lead, shift = draw(small.filter(bool)), draw(small.filter(bool))
    return (
        cl.carleman_embed(cl.make_series(F(0), [F(0), lead] + coeffs), n),
        cl.carleman_embed(cl.make_series(F(0), [shift, lead] + coeffs), n),
        cl.translation_matrix(shift, n),
        cl.translation_matrix(F(0), n),
        cl.identity_matrix(n),
        cl.matrix_from_rows(dense),
        cl.explicit_handle(
            cl.matrix_from_rows([[v if j >= i else F(0) for j, v in enumerate(r)] for i, r in enumerate(dense)])
        ).window(n),
        cl.explicit_handle(
            cl.matrix_from_rows([[v if j <= i else F(0) for j, v in enumerate(r)] for i, r in enumerate(dense)])
        ).window(n),
    )


@given(windows_of_every_producer())
def test_every_product_is_the_product_of_its_windows(windows):
    # flagged or not, every pair of declared tags, empty bands included
    assert {w.structure for w in windows} >= {"upper", "lower", "lower-unipotent", "diagonal", "general"}
    for a in windows:
        for b in windows:
            assert mat_eq(cl.truncated_multiply(a, b, a.n).rows, mat_mul(a.rows, b.rows))
