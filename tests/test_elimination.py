"""Properties of the fraction-free elimination core against the oracles.

Matrices are drawn with many zero entries, so pivots move off the diagonal,
leading minors vanish mid-sequence and kernels are nontrivial.
"""

from fractions import Fraction as F
from itertools import count, islice

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import carleman as cl
from carleman.errors import SingularTruncation, WitnessNotFound
from oracles import elimination_det, elimination_rank, laplace_det, mat_mul

entries = st.one_of(
    st.just(F(0)), st.fractions(min_value=-5, max_value=5, max_denominator=6)
)


def matrices(rows, cols=None):
    """Lists of rows; `cols` defaults to square."""
    return rows.flatmap(
        lambda m: st.lists(
            st.lists(entries, min_size=cols or m, max_size=cols or m), min_size=m, max_size=m
        )
    )


sizes = st.integers(min_value=1, max_value=8)


def identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


@given(matrices(sizes))
@example([[F(0), F(1)], [F(1), F(0)]])
def test_plu_reconstructs_with_least_index_pivots(a):
    n = len(a)
    if elimination_det(a) == 0:
        with pytest.raises(SingularTruncation):
            cl.plu_decompose(cl.matrix_from_rows(a))
        return
    p, l, u = cl.plu_decompose(cl.matrix_from_rows(a))
    rebuilt = mat_mul([list(r) for r in p.matrix(n).rows], mat_mul(l.rows, u.rows))
    assert rebuilt == a
    assert l.is_lower_triangular() and all(l.rows[i][i] == 1 for i in range(n))
    assert u.is_upper_triangular() and all(u.rows[i][i] != 0 for i in range(n))
    # the step-k pivot is the least-index unused row extending the chosen
    # rows to a nonzero minor on columns 1..k+1
    chosen = []
    for k, row in enumerate(p.prefix):
        def minor(r):
            return elimination_det([a[i - 1][: k + 1] for i in chosen + [r]])
        assert minor(row) != 0
        assert all(minor(r) == 0 for r in range(1, row) if r not in chosen)
        chosen.append(row)


@st.composite
def minor_requests(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    a = draw(matrices(st.just(n)))
    prefix = draw(st.permutations(range(1, n + 3)))[: draw(st.integers(0, n))]
    cols = draw(st.permutations(range(1, n + 1)))
    beta = sorted(draw(st.sets(st.integers(1, n), min_size=1)))
    return a, tuple(prefix), tuple(cols), tuple(beta)


@given(minor_requests())
@example(([[F(0), F(1), F(2)], [F(1), F(1), F(1)], [F(3), F(0), F(1)]], (), (1, 2, 3), (1, 2, 3)))
@example(([[F(1), F(1), F(0)], [F(1), F(1), F(1)], [F(0), F(1), F(1)]], (), (1, 2, 3), (1, 2, 3)))
@example(([[F(1), F(0), F(0), F(0)], [F(1), F(1), F(0), F(0)], [F(1), F(2), F(1), F(0)],
           [F(1), F(3), F(3), F(1)]], (3,), (1, 2, 3, 4), (1, 2, 3, 4)))
def test_sigma_minors_are_cofactor_determinants(request):
    a, prefix, cols, beta = request
    n = len(a)
    # rows beyond the matrix are zero; unused row numbers follow the prefix
    table = {(i, j): a[i - 1][j - 1] for i in range(1, n + 1) for j in range(1, n + 1)}
    handle = cl.from_function(lambda i, j: table.get((i, j), F(0)))
    row_order = list(prefix) + list(islice((i for i in count(1) if i not in prefix), n))
    dets = cl.sigma_determinants(
        handle, cl.PermutationSpec(prefix), cl.PermutationSpec(cols), cl.BlockInjection(beta),
        count=len(beta),
    )
    expected = [
        laplace_det([[table.get((i, j), F(0)) for j in cols[:size]] for i in row_order[:size]])
        for size in beta
    ]
    assert dets == expected


@given(matrices(sizes), st.data())
def test_kernel_basis_spans_the_kernel(a, data):
    n, a = len(a), [list(r) for r in a]
    # make some rows combinations of others, so kernels are nontrivial
    for i in data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1)):
        c = data.draw(entries)
        a[i] = [x * c + y for x, y in zip(a[(i + 1) % n], a[(i + 2) % n])]
    basis = cl.kernel_basis(cl.matrix_from_rows(a))
    vectors = [[v.get(j) for j in range(1, n + 1)] for v in basis]
    assert len(vectors) == n - elimination_rank(a)
    for v, vec in zip(basis, vectors):
        assert mat_mul(a, [[x] for x in vec]) == [[0]] * n
        assert v.entries[0][1] == 1
    if vectors:
        assert elimination_rank(vectors) == len(vectors)


@given(matrices(sizes), st.booleans())
def test_invert_triangular_both_ways(a, lower):
    n = len(a)
    t = [
        [x if (j <= i if lower else j >= i) else F(0) for j, x in enumerate(row)]
        for i, row in enumerate(a)
    ]
    for i in range(n):
        t[i][i] = t[i][i] or F(i + 2, 3)
    inv = cl.invert_triangular(cl.matrix_from_rows(t))
    assert mat_mul(t, inv.rows) == identity(n)
    assert inv.is_lower_triangular() if lower else inv.is_upper_triangular()


@given(matrices(sizes))
def test_invert_triangular_plu_factors(a):
    n = len(a)
    if elimination_det(a) == 0:
        return
    _, l, u = cl.plu_decompose(cl.matrix_from_rows(a))
    for factor in (l, u):
        assert mat_mul(factor.rows, cl.invert_triangular(factor).rows) == identity(n)


@st.composite
def pivot_searches(draw):
    budget = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=1, max_value=budget))
    return draw(matrices(st.just(budget), n)), n


@given(pivot_searches())
def test_pivot_rows_are_the_least_index_search(search):
    block, n = search
    budget = len(block)
    handle = cl.from_function(lambda i, j: block[i - 1][j - 1] if i <= budget and j <= n else F(0))
    chosen, missing = [], None
    for k in range(n):
        row = next(
            (r for r in range(1, budget + 1) if r not in chosen
             and elimination_det([block[i - 1][: k + 1] for i in chosen + [r]]) != 0),
            None,
        )
        if row is None:
            missing = k + 1
            break
        chosen.append(row)
    if missing is not None:
        with pytest.raises(WitnessNotFound) as err:
            cl.find_pivot_rows(handle, n, budget)
        assert err.value.column == missing
    else:
        assert cl.find_pivot_rows(handle, n, budget).prefix == tuple(chosen)
