"""Coefficient-matrix embeddings of truncated transformations.

The embedding sends a transformation g to the matrix whose row i lists the
expansion coefficients of g^(i-1) about the source of g, so that the matrix
acts on the column of monomials: M_g u_x = u_{g(x)}. Indices are 1-based
from the upper-left corner throughout. Every embedding entry, in a window or
a handle, is read from the single power-row engine `series.PowerRows`.

Finite windows are exact `TruncatedMatrix` values; lazily generated infinite
matrices are `InfiniteMatrixHandle`s carrying a structure tag and provenance.
The structure tag describes the infinite matrix, so it is declared by the
producer (a handle stamps its own tag on every window it cuts) and never
inferred from a window. A product of two windows is truncation-exact only
when the left factor is declared lower triangular or the right factor is
declared upper triangular, and both factors are exact; anything else is
flagged, and genuinely infinite products belong in a `LatentProduct`.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import add, mul

from ._record import record
from .errors import InsufficientOrder, UndefinedOperation
from .scalars import (
    COMPLEX,
    RATIONAL,
    infer_domain,
    is_zero,
    scalar_from_json,
    scalar_to_json,
    scalar_to_text,
)
from .series import GroupoidElement, PowerRows, series_to_json

_F0 = Fraction(0)
_F1 = Fraction(1)


@record
class TruncatedMatrix:
    """Finite square window over a single scalar domain.

    `structure` tags the infinite matrix the window was cut from, as declared
    by its producer ("general" if undeclared), never inferred from entries;
    the `is_*_triangular` tests describe only the finite window itself.
    """

    n: int
    rows: tuple
    domain: str
    truncation_exact: bool = True
    structure: str = "general"

    def entry(self, i: int, j: int):
        return self.rows[i - 1][j - 1]

    def is_lower_triangular(self) -> bool:
        return all(
            is_zero(self.rows[i][j]) for i in range(self.n) for j in range(i + 1, self.n)
        )

    def is_upper_triangular(self) -> bool:
        return all(is_zero(self.rows[i][j]) for i in range(self.n) for j in range(i))


def matrix_from_rows(rows, exact: bool = True) -> TruncatedMatrix:
    rows = tuple(tuple(r) for r in rows)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix window must be square")
    domain = infer_domain(x for r in rows for x in r)
    return TruncatedMatrix(n, rows, domain, exact)


def identity_matrix(n: int) -> TruncatedMatrix:
    rows = tuple(
        tuple(_F1 if i == j else _F0 for j in range(n)) for i in range(n)
    )
    return TruncatedMatrix(n, rows, RATIONAL, structure="diagonal")


def _coerce_cell(value, domain):
    # structural zeros/ones may stay rational inside complex windows
    if domain == "complex-float" and not isinstance(value, complex):
        return complex(value)
    return value


def matrix_to_json(m: TruncatedMatrix) -> dict:
    return {
        "n": m.n,
        "domain": m.domain,
        "truncation_exact": m.truncation_exact,
        "rows": [[scalar_to_json(_coerce_cell(x, m.domain)) for x in row] for row in m.rows],
    }


def _cell_from_json(value, i: int, j: int):
    try:
        return scalar_from_json(value)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"matrix cell ({i}, {j}): {exc}") from None


def matrix_from_json(data: dict) -> TruncatedMatrix:
    rows = data.get("rows") if isinstance(data, dict) else None
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ValueError("malformed matrix JSON: rows must be a list of lists")
    rows = [
        [_cell_from_json(x, i, j) for j, x in enumerate(row, 1)]
        for i, row in enumerate(rows, 1)
    ]
    m = matrix_from_rows(rows, data.get("truncation_exact", True))
    if "n" in data and data["n"] != m.n:
        raise ValueError("matrix JSON size field disagrees with rows")
    return m


def matrix_to_text(m: TruncatedMatrix) -> str:
    cells = [[scalar_to_text(_coerce_cell(x, m.domain)) for x in row] for row in m.rows]
    widths = [max(len(cells[i][j]) for i in range(m.n)) for j in range(m.n)]
    lines = [
        "  ".join(cells[i][j].rjust(widths[j]) for j in range(m.n))
        for i in range(m.n)
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Infinite matrices as entry oracles
# ---------------------------------------------------------------------------

LOWER_TAGS = ("lower", "lower-unipotent", "diagonal")
UPPER_TAGS = ("upper", "diagonal")


class InfiniteMatrixHandle:
    """Lazily generated infinite matrix with a structure tag.

    The entry oracle is 1-based and memoized; memoization is synchronized so
    concurrent window queries are safe and deterministic. `row_cols(i)` /
    `col_rows(j)` return the finite support of a row/column when the
    structure or provenance pins it down, else None (unknown / infinite).
    """

    def __init__(
        self,
        entry_fn,
        structure: str = "general",
        provenance: dict | None = None,
        row_cols=None,
        col_rows=None,
        window_limit: int | None = None,
    ):
        self._fn = entry_fn
        self.structure = structure
        self.provenance = provenance or {"kind": "explicit"}
        self._row_cols = row_cols
        self._col_rows = col_rows
        self.window_limit = window_limit
        self._cache: dict = {}
        self._lock = threading.Lock()

    def entry(self, i: int, j: int):
        if i < 1 or j < 1:
            raise IndexError("indices are 1-based")
        if self.window_limit is not None and max(i, j) > self.window_limit:
            raise InsufficientOrder(
                f"handle is window-limited to {self.window_limit}; asked for ({i},{j})"
            )
        key = (i, j)
        with self._lock:
            if key in self._cache:
                return self._cache[key]
        value = self._fn(i, j)
        with self._lock:
            self._cache.setdefault(key, value)
        return value

    def row_cols(self, i: int):
        if self._row_cols is not None:
            return self._row_cols(i)
        if self.structure in LOWER_TAGS:
            return tuple(range(1, i + 1)) if self.structure != "diagonal" else (i,)
        return None

    def col_rows(self, j: int):
        if self._col_rows is not None:
            return self._col_rows(j)
        if self.structure == "diagonal":
            return (j,)
        if self.structure == "upper":
            return tuple(range(1, j + 1))
        return None

    def window(self, n: int) -> TruncatedMatrix:
        """The n x n window, declaring this handle's structure tag."""
        rows = [[self.entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
        m = matrix_from_rows(rows)
        return TruncatedMatrix(m.n, m.rows, m.domain, m.truncation_exact, self.structure)


def from_function(
    entry_fn, structure="general", provenance=None, row_cols=None, col_rows=None
) -> InfiniteMatrixHandle:
    return InfiniteMatrixHandle(entry_fn, structure, provenance, row_cols, col_rows)


def carleman_handle(source) -> InfiniteMatrixHandle:
    """Embedding handle for a transformation.

    `source` is either a GroupoidElement (window-limited by its order) or an
    exact coefficient oracle k -> a_k (unlimited). Isotropy input (constant
    term zero) yields an upper-triangular handle. Entries are read from the
    power rows of the series, grown as they are asked for.
    """
    if isinstance(source, GroupoidElement):
        coefficient, limit = source.coeffs.__getitem__, source.order + 1
        series = series_to_json(source)
    else:
        coefficient, limit, series = source, None, "oracle"
    powers = PowerRows(coefficient)
    return InfiniteMatrixHandle(
        lambda i, j: powers.row(i - 1, j - 1)[j - 1],
        "upper" if is_zero(coefficient(0)) else "general",
        {"kind": "carleman-of", "series": series},
        row_cols=lambda i: (1,) if i == 1 else None,  # row 1 is g^0 = (1, 0, 0, ...)
        window_limit=limit,
    )


def builtin_carleman_handle(name: str) -> InfiniteMatrixHandle:
    from .series import builtin_coefficient

    handle = carleman_handle(builtin_coefficient(name))
    handle.provenance = {"kind": "carleman-of", "series": {"builtin": name}}
    return handle


def _binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def translation_handle(a) -> InfiniteMatrixHandle:
    """Lower-unipotent handle of the shift z -> z + a: entry C(i-1,j-1) a^(i-j)."""

    def fn(i, j):
        if j > i:
            return _F0
        if i == j:
            return _F1
        return _binomial(i - 1, j - 1) * a ** (i - j)

    structure = "diagonal" if is_zero(a) else "lower-unipotent"
    return InfiniteMatrixHandle(
        fn, structure, {"kind": "translation", "a": scalar_to_json(a)}
    )


def explicit_handle(block: TruncatedMatrix, beyond: str = "zero") -> InfiniteMatrixHandle:
    """Finite block continued by zeros or by the identity; supports are finite."""
    if beyond not in ("zero", "identity"):
        raise ValueError("beyond must be 'zero' or 'identity'")
    nb = block.n

    def fn(i, j):
        if i <= nb and j <= nb:
            return block.entry(i, j)
        if beyond == "identity" and i == j:
            return _F1
        return _F0

    def row_cols(i):
        if i <= nb:
            cols = tuple(j for j in range(1, nb + 1) if not is_zero(block.entry(i, j)))
            return cols
        return (i,) if beyond == "identity" else ()

    def col_rows(j):
        if j <= nb:
            return tuple(i for i in range(1, nb + 1) if not is_zero(block.entry(i, j)))
        return (j,) if beyond == "identity" else ()

    structure = "general"
    if block.is_lower_triangular():
        structure = "lower"
    elif block.is_upper_triangular():
        structure = "upper"
    return InfiniteMatrixHandle(
        fn,
        structure,
        {"kind": "explicit", "n": nb, "beyond": beyond},
        row_cols,
        col_rows,
    )


def _combine_structure(a: str, b: str) -> str:
    if a == "diagonal":
        return b
    if b == "diagonal":
        return a
    if a in LOWER_TAGS and b in LOWER_TAGS:
        if a == "lower-unipotent" and b == "lower-unipotent":
            return "lower-unipotent"
        return "lower"
    if a == "upper" and b == "upper":
        return "upper"
    return "general"


def product_handle(a: InfiniteMatrixHandle, b: InfiniteMatrixHandle) -> InfiniteMatrixHandle:
    """Entrywise product of two handles; defined only where sums are finite."""

    def fn(i, j):
        ks = a.row_cols(i)
        if ks is None:
            ks = b.col_rows(j)
        if ks is None:
            raise UndefinedOperation(
                f"entry ({i},{j}) of the product is an infinite sum; probe it instead"
            )
        acc = _F0
        for k in ks:
            acc = acc + a.entry(i, k) * b.entry(k, j)
        return acc

    def row_cols(i):
        ka = a.row_cols(i)
        if ka is not None:
            out = set()
            for k in ka:
                kb = b.row_cols(k)
                if kb is None:
                    return None
                out.update(kb)
            return tuple(sorted(out))
        return None

    def col_rows(j):
        kb = b.col_rows(j)
        if kb is not None:
            out = set()
            for k in kb:
                ka = a.col_rows(k)
                if ka is None:
                    return None
                out.update(ka)
            return tuple(sorted(out))
        return None

    structure = _combine_structure(a.structure, b.structure)
    limits = [x.window_limit for x in (a, b) if x.window_limit is not None]
    return InfiniteMatrixHandle(
        fn,
        structure,
        {"kind": "product", "factors": [a.provenance, b.provenance]},
        row_cols,
        col_rows,
        window_limit=min(limits) if limits else None,
    )


# ---------------------------------------------------------------------------
# Embedding operations
# ---------------------------------------------------------------------------


def carleman_embed(g: GroupoidElement, n: int) -> TruncatedMatrix:
    """n x n embedding window: entry (i,j) = coefficient of (x-s)^(j-1) in g^(i-1)."""
    if g.order < n - 1:
        raise InsufficientOrder(
            f"carleman_embed: series order {g.order} < window order {n - 1}"
        )
    return carleman_handle(g).window(n)


def translation_matrix(a, n: int) -> TruncatedMatrix:
    if n < 1:
        raise ValueError("window size must be positive")
    return translation_handle(a).window(n)


@record
class MonomialColumn:
    """Powers 1, z, z^2, ..., z^(n-1) of a sample point."""

    z: object
    powers: tuple


def monomial_column(z, n: int) -> MonomialColumn:
    powers = [_F1]
    for _ in range(n - 1):
        powers.append(powers[-1] * z)
    return MonomialColumn(z, tuple(powers))


PERFORMED = "performed"
LATENT = "latent"


def _performed_allowed(left, right) -> bool:
    """The one exactness rule for a product of two declared structures."""
    return left.structure in LOWER_TAGS or right.structure in UPPER_TAGS


@record
class LatentProduct:
    """Ordered factors with per-junction performed/latent flags.

    A junction may be flagged performed only when the multiplication is
    truncation-exact (left factor lower triangular or right factor upper
    triangular); everything else stays latent and is only ever probed.
    """

    factors: tuple
    junctions: tuple

    def __post_init__(self):
        if len(self.junctions) != len(self.factors) - 1:
            raise ValueError("need exactly one flag per junction")
        for idx, flag in enumerate(self.junctions):
            if flag not in (PERFORMED, LATENT):
                raise ValueError(f"unknown junction flag {flag!r}")
            if flag == PERFORMED and not _performed_allowed(
                self.factors[idx], self.factors[idx + 1]
            ):
                raise ValueError(
                    f"junction {idx + 1} is not truncation-exact; it must stay latent"
                )

    def to_json(self) -> dict:
        return {
            "factors": [f.provenance for f in self.factors],
            "structures": [f.structure for f in self.factors],
            "junctions": list(self.junctions),
        }


def lul_decompose(g: GroupoidElement, n: int) -> LatentProduct:
    """Split the embedding of g as T_target x M_gamma (latent) T_(-source).

    gamma is the isotropy part: conjugating g by the translations moves both
    source and target to 0, so its embedding is upper triangular with
    diagonal a1^(i-1). The first junction is truncation-exact (lower x upper)
    and may be performed; the second junction stays latent.
    """
    if g.order < n - 1:
        raise InsufficientOrder(
            f"lul_decompose: series order {g.order} < window order {n - 1}"
        )
    zero = g.coeffs[0] - g.coeffs[0]
    gamma = GroupoidElement(_F0, (zero,) + g.coeffs[1:])
    factors = (
        translation_handle(g.target),
        carleman_handle(gamma),
        translation_handle(-g.source),
    )
    return LatentProduct(factors, (PERFORMED, LATENT))


def _window(value, n: int) -> TruncatedMatrix:
    if isinstance(value, InfiniteMatrixHandle):
        return value.window(n)
    if isinstance(value, TruncatedMatrix):
        if value.n < n:
            raise InsufficientOrder(f"matrix window {value.n} smaller than {n}")
        return value
    raise TypeError("expected a TruncatedMatrix or InfiniteMatrixHandle")


def _scaled(row):
    """(s, ints) with s the lcm of the row's denominators and ints = s * row."""
    s = lcm(*(x.denominator for x in row))
    return s, [x.numerator * (s // x.denominator) for x in row]


def truncated_multiply(a, b, n: int) -> TruncatedMatrix:
    """Exact n x n product when the declared structure allows it, else flagged.

    Exact iff the left factor is declared lower triangular or the right one
    upper triangular (the rule of a performed latent junction) and neither
    factor is flagged; otherwise the result carries truncation_exact=False.

    Entry (i, j) sums in k order over the band the tags allow (lower left
    k <= i, upper left k >= i, upper right k <= j, lower right k >= j), else is
    the domain's zero; rational windows sum ints, one scale per row and column.
    """
    a, b = _window(a, n), _window(b, n)
    rows_a = [row[:n] for row in a.rows[:n]]
    cols_b = list(zip(*(row[:n] for row in b.rows[:n])))
    domain = infer_domain(x for vecs in (rows_a, cols_b) for v in vecs for x in v)
    scale = _scaled if domain == RATIONAL else lambda v: (None, v)
    rows_a, cols_b = list(map(scale, rows_a)), list(map(scale, cols_b))
    zero = 0j if domain == COMPLEX else _F0
    left_up, left_low = a.structure in UPPER_TAGS, a.structure in LOWER_TAGS
    right_low, right_up = b.structure in LOWER_TAGS, b.structure in UPPER_TAGS
    rows = []
    for i, (da, row) in enumerate(rows_a):
        out = []
        for j, (db, col) in enumerate(cols_b):
            lo = max(i if left_up else 0, j if right_low else 0)
            hi = min(i + 1 if left_low else n, j + 1 if right_up else n)
            s = reduce(add, map(mul, row[lo:hi], col[lo:hi])) if lo < hi else zero
            out.append(s if da is None else Fraction(s, da * db))
        rows.append(tuple(out))
    exact = _performed_allowed(a, b) and a.truncation_exact and b.truncation_exact
    return TruncatedMatrix(
        n, tuple(rows), domain, exact, _combine_structure(a.structure, b.structure)
    )


@record
class MonomialCheck:
    """Outcome of comparing M_g u_z with the powers of the truncated value."""

    max_deviation: object
    deviations: tuple
    tol: float
    ok: bool


def monomial_column_check(g: GroupoidElement, z, n: int, tol) -> MonomialCheck:
    """Compare the embedding acting on monomials of (z - source) against the
    column of powers of the truncated evaluation g(z); returns the deviations."""
    m = carleman_embed(g, n)
    u = monomial_column(z - g.base_point, n)
    w = GroupoidElement(g.base_point, g.coeffs[:n]).evaluate(z) if n >= 2 else g.evaluate(z)
    target = monomial_column(w, n).powers
    deviations = []
    for i in range(n):
        acc = None
        for j in range(n):
            term = m.rows[i][j] * u.powers[j]
            acc = term if acc is None else acc + term
        dev = acc - target[i]
        deviations.append(abs(dev))
    max_dev = max(deviations)
    return MonomialCheck(max_dev, tuple(deviations), float(tol), float(max_dev) <= float(tol))
