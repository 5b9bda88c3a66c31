import random
from fractions import Fraction as F

import pytest

import carleman as cl
from carleman.errors import DomainMismatch, SingularTruncation, WitnessNotFound, ZeroDiagonalError
from carleman.linalg import KERNEL_CANDIDATE, KERNEL_CERTIFIED, NO_OBSTRUCTION
from oracles import elimination_det, laplace_det, mat_eq, mat_mul, rand_fraction


def rand_invertible(rng, n):
    while True:
        rows = [[rand_fraction(rng, -9, 9, 6) for _ in range(n)] for _ in range(n)]
        if elimination_det(rows) != 0:
            return cl.matrix_from_rows(rows)


def reconstruct(p, l, u):
    return mat_mul(
        [list(r) for r in p.matrix(l.n).rows],
        mat_mul([list(r) for r in l.rows], [list(r) for r in u.rows]),
    )


class TestPlu:
    def test_identity(self):
        p, l, u = cl.plu_decompose(cl.identity_matrix(4))
        assert p.is_identity
        assert l.rows == u.rows == cl.identity_matrix(4).rows

    def test_swap(self):
        a = cl.matrix_from_rows([[F(0), F(1)], [F(1), F(0)]])
        p, l, u = cl.plu_decompose(a)
        assert p.prefix == (2, 1)
        assert l.rows == cl.identity_matrix(2).rows
        assert u.rows == cl.identity_matrix(2).rows
        assert mat_eq(reconstruct(p, l, u), a.rows)

    def test_pascal_already_lower(self):
        a = cl.translation_matrix(F(1), 6)
        p, l, u = cl.plu_decompose(a)
        assert p.is_identity
        assert l.rows == a.rows
        assert u.rows == cl.identity_matrix(6).rows

    def test_random_reconstruction(self):
        rng = random.Random(42)
        for _ in range(30):
            n = rng.randint(1, 10)
            a = rand_invertible(rng, n)
            p, l, u = cl.plu_decompose(a)
            assert mat_eq(reconstruct(p, l, u), a.rows)
            assert all(l.rows[i][i] == 1 for i in range(n))
            assert l.is_lower_triangular()
            assert u.is_upper_triangular()
            assert all(u.rows[i][i] != 0 for i in range(n))

    def test_permuted_pascal_needs_swaps(self):
        # swapping the first two columns of the Pascal block zeroes the
        # leading minor, so the permutation cannot be the identity
        pascal = cl.translation_matrix(F(1), 5)
        swapped = [[row[1], row[0], *row[2:]] for row in pascal.rows]
        assert laplace_det([r[:1] for r in swapped[:1]]) == 0
        a = cl.matrix_from_rows(swapped)
        p, l, u = cl.plu_decompose(a)
        assert not p.is_identity
        assert mat_eq(reconstruct(p, l, u), a.rows)

    def test_singular(self):
        a = cl.matrix_from_rows([[F(1), F(2)], [F(2), F(4)]])
        with pytest.raises(SingularTruncation):
            cl.plu_decompose(a)

    def test_requires_exact_domain(self):
        a = cl.translation_matrix(1j, 3)
        with pytest.raises(DomainMismatch):
            cl.plu_decompose(a)


class TestSigmaDeterminants:
    def test_identity_handle(self):
        h = cl.translation_handle(F(0))
        assert cl.sigma_determinants(h, count=5) == [F(1)] * 5

    def test_geometric_minors(self):
        mg = cl.builtin_carleman_handle("geometric")
        dets = cl.sigma_determinants(mg, count=3)
        # oracle: cofactor expansion of the printed block
        block = [[mg.entry(i, j) for j in range(1, 4)] for i in range(1, 4)]
        assert dets == [laplace_det([r[:k] for r in block[:k]]) for k in (1, 2, 3)]
        assert dets == [F(1), F(-1), F(-1)]

    def test_pascal_all_ones(self):
        dets = cl.sigma_determinants(cl.translation_handle(F(1)), count=6)
        assert dets == [F(1)] * 6

    def test_triangular_diagonal_partial_products(self):
        for handle in (cl.builtin_carleman_handle("h"), cl.translation_handle(F(3, 2))):
            dets = cl.sigma_determinants(handle, count=6)
            acc = F(1)
            expected = []
            for i in range(1, 7):
                acc *= handle.entry(i, i)
                expected.append(acc)
            assert dets == expected

    def test_permuted_and_blocked(self):
        mg = cl.builtin_carleman_handle("geometric")
        pi1 = cl.PermutationSpec((2, 1, 3))
        beta = cl.BlockInjection((1, 3))
        dets = cl.sigma_determinants(mg, pi1=pi1, beta=beta, count=2)
        rows = [2, 1, 3]
        block3 = [[mg.entry(r, j) for j in range(1, 4)] for r in rows]
        assert dets == [block3[0][0], laplace_det(block3)]

    def test_lu_matrices_give_diag_partial_products(self):
        # minors of a matrix factoring as L U (P = id) are the partial
        # products of the diagonal of U
        rng = random.Random(99)
        for _ in range(10):
            n = rng.randint(2, 6)
            a = rand_invertible(rng, n)
            p, l, u = cl.plu_decompose(a)
            if not p.is_identity:
                continue
            handle = cl.explicit_handle(a, beyond="identity")
            dets = cl.sigma_determinants(handle, count=n)
            acc = F(1)
            for i in range(n):
                acc *= u.rows[i][i]
                assert dets[i] == acc


class TestFindPivotRows:
    def test_lower_unipotent_identity_prefix(self):
        spec = cl.find_pivot_rows(cl.translation_handle(F(2)), 5, 10)
        assert spec.prefix == (1, 2, 3, 4, 5)

    def test_zero_first_row_shifts(self):
        def fn(i, j):
            return F(1) if i >= 2 and j == i - 1 else F(0)

        handle = cl.from_function(fn, col_rows=lambda j: (j + 1,))
        spec = cl.find_pivot_rows(handle, 4, 12)
        assert spec.prefix == (2, 3, 4, 5)
        minors = cl.sigma_determinants(handle, pi1=spec, count=4)
        assert all(d != 0 for d in minors)

    def test_adjoint_at_one_has_zero_column(self):
        handle = cl.adjoint_handle(F(1))
        with pytest.raises(WitnessNotFound) as err:
            cl.find_pivot_rows(handle, 4, 16)
        assert err.value.column == 1

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            cl.find_pivot_rows(cl.translation_handle(F(1)), 5, 4)

    def test_minors_nonzero_after_permutation(self):
        # Vandermonde-style handle whose first row vanishes on the window
        def fn(i, j):
            if i == 1:
                return F(0)
            return F(i) ** j

        handle = cl.from_function(fn)
        spec = cl.find_pivot_rows(handle, 3, 10)
        assert spec.prefix == (2, 3, 4)
        minors = cl.sigma_determinants(handle, pi1=spec, count=3)
        assert all(d != 0 for d in minors)


class TestGammaProbe:
    def test_identity(self):
        verdict = cl.gamma_probe(cl.translation_handle(F(0)), 6, 12)
        assert verdict.verdict == NO_OBSTRUCTION

    def test_adjoint_at_one_certified(self):
        verdict = cl.gamma_probe(cl.adjoint_handle(F(1)), 8, 32)
        assert verdict.verdict == KERNEL_CERTIFIED
        assert verdict.vector.to_json() == {"1": "1"}
        assert verdict.certificate == "zero-column"

    def test_pascal_no_obstruction(self):
        assert cl.gamma_probe(cl.translation_handle(F(1)), 8, 24).verdict == NO_OBSTRUCTION

    def test_candidate_without_support_information(self):
        # zero column but the handle cannot bound its support: candidate only
        def fn(i, j):
            return F(0) if j == 1 else (F(1) if i == j else F(0))

        handle = cl.from_function(fn)
        verdict = cl.gamma_probe(handle, 4, 10)
        assert verdict.verdict == KERNEL_CANDIDATE
        assert verdict.vector.to_json() == {"1": "1"}

    def test_certified_with_explicit_support(self):
        block = cl.matrix_from_rows([[F(0), F(0)], [F(0), F(1)]])
        handle = cl.explicit_handle(block, beyond="identity")
        verdict = cl.gamma_probe(handle, 4, 10)
        assert verdict.verdict == KERNEL_CERTIFIED
        assert verdict.vector.to_json() == {"1": "1"}

    def test_never_certifies_sound_invertible_families(self):
        for handle in (
            cl.translation_handle(F(5)),
            cl.builtin_carleman_handle("h"),
            cl.builtin_carleman_handle("expm1"),
            cl.adjoint_handle(F(3, 7)),
        ):
            assert cl.gamma_probe(handle, 6, 18).verdict == NO_OBSTRUCTION

    def test_row_side_detection(self):
        # row 1 identically zero; columns stay independent on any window
        def fn(i, j):
            return F(1) if j == i - 1 else F(0)

        handle = cl.from_function(fn, row_cols=lambda i: () if i == 1 else (i - 1,))
        verdict = cl.gamma_probe(handle, 4, 10)
        assert verdict.verdict == KERNEL_CERTIFIED
        assert verdict.transpose
        assert verdict.vector.to_json() == {"1": "1"}

    def test_json_shape(self):
        data = cl.gamma_probe(cl.adjoint_handle(F(1)), 8, 64).to_json()
        assert data["verdict"] == "KERNEL-CERTIFIED"
        assert data["vector"] == {"1": "1"}
        assert data["certificate"] == "zero-column"
        assert "rows_checked" in data


class TestInvertTriangular:
    def test_pascal_alternating(self):
        pascal = cl.translation_matrix(F(1), 6)
        inv = cl.invert_triangular(pascal)
        assert inv.rows == cl.translation_matrix(F(-1), 6).rows
        assert mat_eq(mat_mul([list(r) for r in inv.rows], [list(r) for r in pascal.rows]),
                      cl.identity_matrix(6).rows)

    def test_identity(self):
        assert cl.invert_triangular(cl.identity_matrix(4)).rows == cl.identity_matrix(4).rows

    def test_h_self_inverse(self):
        mh = cl.carleman_embed(cl.builtin_series("h", 5), 6)
        assert cl.invert_triangular(mh).rows == mh.rows

    def test_random_upper(self):
        rng = random.Random(77)
        for _ in range(10):
            n = rng.randint(1, 7)
            rows = [[rand_fraction(rng) if j > i else (F(0) if j < i else F(0)) for j in range(n)] for i in range(n)]
            for i in range(n):
                d = F(0)
                while d == 0:
                    d = rand_fraction(rng)
                rows[i][i] = d
            a = cl.matrix_from_rows(rows)
            inv = cl.invert_triangular(a)
            assert inv.is_upper_triangular()
            assert mat_eq(mat_mul([list(r) for r in inv.rows], rows), cl.identity_matrix(n).rows)

    def test_zero_diagonal(self):
        a = cl.matrix_from_rows([[F(1), F(2)], [F(0), F(0)]])
        with pytest.raises(ZeroDiagonalError):
            cl.invert_triangular(a)

    def test_not_triangular(self):
        a = cl.matrix_from_rows([[F(1), F(2)], [F(3), F(4)]])
        with pytest.raises(ValueError):
            cl.invert_triangular(a)


class TestKernelBasis:
    def test_identity_trivial(self):
        assert cl.kernel_basis(cl.identity_matrix(3)) == []

    def test_zero_column(self):
        a = cl.matrix_from_rows([[F(0), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]])
        basis = cl.kernel_basis(a)
        assert len(basis) == 1 and basis[0].to_json() == {"1": "1"}

    def test_rank_one(self):
        a = cl.matrix_from_rows([[F(1), F(1)], [F(1), F(1)]])
        basis = cl.kernel_basis(a)
        assert [v.to_json() for v in basis] == [{"1": "1", "2": "-1"}]


class TestSpecs:
    def test_permutation_validation(self):
        with pytest.raises(ValueError):
            cl.PermutationSpec((1, 1))
        with pytest.raises(ValueError):
            cl.PermutationSpec((0, 2))
        spec = cl.PermutationSpec((3, 1, 2))
        assert spec.apply(2) == 1 and spec.apply(9) == 9

    def test_permutation_continues_with_unused_integers(self):
        # the prefix (3,) is the permutation 3, 1, 2, 4, 5, ...
        spec = cl.PermutationSpec((3,))
        assert [spec.apply(i) for i in range(1, 6)] == [3, 1, 2, 4, 5]
        assert [list(r) for r in spec.matrix(3).rows] == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        pascal = cl.translation_handle(F(1))
        rows = [[pascal.entry(i, j) for j in range(1, 5)] for i in (3, 1, 2, 4)]
        expected = [laplace_det([r[:k] for r in rows[:k]]) for k in range(1, 5)]
        assert cl.sigma_determinants(pascal, pi1=spec, count=4) == expected == [1, -2, 1, 1]

    def test_permutation_matrix_too_small_for_the_prefix(self):
        with pytest.raises(ValueError, match=r"prefix entry 3 does not fit a 2 x 2 matrix"):
            cl.PermutationSpec((3,)).matrix(2)
        assert [list(r) for r in cl.PermutationSpec((2, 1, 5)).matrix(2).rows] == [[0, 1], [1, 0]]

    def test_block_injection_validation(self):
        with pytest.raises(ValueError):
            cl.BlockInjection((2, 2))
        beta = cl.BlockInjection((1, 3, 8))
        assert beta.apply(3) == 8
        assert cl.BlockInjection.identity().apply(4) == 4

    def test_finite_support_vector(self):
        v = cl.FiniteSupportVector.from_dense([F(0), F(2), F(0), F(-1)])
        assert v.support == (2, 4)
        assert v.normalized().to_json() == {"2": "1", "4": "-1/2"}
