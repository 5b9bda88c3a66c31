"""Properties of the power-row engine against the independent oracles."""

import sys
import threading
from fractions import Fraction as F

from hypothesis import given
from hypothesis import strategies as st

import carleman as cl
from oracles import lagrange_inverse, mat_mul, poly_compose, poly_pow

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)
complexes = st.builds(
    complex,
    st.floats(min_value=-2, max_value=2, allow_subnormal=False),
    st.floats(min_value=-2, max_value=2, allow_subnormal=False),
)


@st.composite
def series(draw, isotropy=None, scalars=rationals):
    """A series based at 0 of order at most 7, so windows stay within n <= 8."""
    order = draw(st.integers(min_value=1, max_value=7))
    if isotropy is None:
        isotropy = draw(st.booleans())
    a0 = F(0) if isotropy else draw(scalars)
    a1 = draw(scalars.filter(bool))
    rest = draw(st.lists(scalars, min_size=order - 1, max_size=order - 1))
    return cl.make_series(F(0), [a0, a1] + rest)


@given(series())
def test_embedding_rows_are_powers(g):
    n = g.order + 1
    rows = cl.carleman_embed(g, n).rows
    for m in range(n):
        expected = (poly_pow(list(g.coeffs[:n]), m) + [F(0)] * n)[:n]
        assert list(rows[m]) == expected


def _by_columns(handle, n):
    # the order entry_series_probe reads a factor in: down each column
    cols = [[handle.entry(i, j) for i in range(1, n + 1)] for j in range(1, n + 1)]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


@given(st.one_of(series(), series(scalars=complexes)))
def test_read_order_does_not_change_entries(g):
    n = g.order + 1
    by_rows = cl.carleman_handle(g).window(n).rows
    assert _by_columns(cl.carleman_handle(g), n) == by_rows
    assert cl.carleman_embed(g, n).rows == by_rows


@given(series(), series(isotropy=True))
def test_compose_is_truncated_substitution(g1, d):
    order = min(g1.order, d.order)
    g2 = cl.make_series(F(1, 2), (g1.source,) + d.coeffs[1:])
    full = poly_compose(list(g1.coeffs[: order + 1]), list(d.coeffs[: order + 1]))
    assert list(cl.compose(g1, g2, order).coeffs) == (full + [F(0)] * order)[: order + 1]


@given(series(isotropy=True))
def test_invert_is_lagrange_inversion(g):
    assert list(cl.invert(g, g.order).coeffs) == lagrange_inverse(list(g.coeffs), g.order)


@given(series(isotropy=True), series(isotropy=True))
def test_embedding_is_a_homomorphism_on_isotropy(g1, g2):
    n = min(g1.order, g2.order) + 1
    lhs = cl.carleman_embed(cl.compose(g1, g2, n - 1), n).rows
    rhs = mat_mul(cl.carleman_embed(g1, n).rows, cl.carleman_embed(g2, n).rows)
    assert [list(r) for r in lhs] == rhs


@given(series(), st.integers(min_value=0, max_value=8))
def test_pointwise_power_is_one_row(g, m):
    expected = (poly_pow(list(g.coeffs), m) + [F(0)] * (g.order + 1))[: g.order + 1]
    assert list(cl.pointwise_power(g, m, g.order)) == expected


def test_concurrent_windows_match_serial_embedding():
    """Threads reading fresh handles in different orders all see the serial
    embedding: the InfiniteMatrixHandle memo contract, over shared rows."""
    n = 16
    g = cl.make_series(F(0), [F((-1) ** k * (k % 5 + 1), k % 3 + 1) for k in range(n)])
    sources = {"ln1p": cl.builtin_series("ln1p", n - 1), "series": g}
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    orders = {
        "rows": cells,
        "columns": sorted(cells, key=lambda c: (c[1], c[0])),
        "reversed": cells[::-1],
        "anti-diagonals": sorted(cells, key=lambda c: (c[0] + c[1], c[0])),
        "last-row-first": sorted(cells, key=lambda c: (-c[0], c[1])),
        "top-left": [c for c in cells if max(c) <= n // 2],
    }
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for name, source in sources.items():
            serial = cl.carleman_embed(source, n).rows
            for _ in range(25):
                handle = cl.builtin_carleman_handle(name) if name == "ln1p" else cl.carleman_handle(g)
                reads = {}
                start = threading.Barrier(len(orders))

                def read(key, order, handle=handle, reads=reads, start=start):
                    start.wait(timeout=60)
                    reads[key] = [(i, j, handle.entry(i, j)) for i, j in order]

                threads = [threading.Thread(target=read, args=item) for item in orders.items()]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert set(reads) == set(orders)
                for got in reads.values():
                    assert all(v == serial[i - 1][j - 1] for i, j, v in got)
    finally:
        sys.setswitchinterval(interval)
