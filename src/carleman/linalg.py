"""Exact linear algebra: PLU, minor sequences, and kernel probes.

All elimination runs through one integer-preserving (Bareiss) echelon
routine, `_Echelon`, on rows scaled to Python ints; the only fractions built
are the outputs. Each column's pivot is the least-index unused row with a
nonzero reduced entry (rows are never swapped), so the permutation produced
for a given input never depends on evaluation order.

Deciding invertibility-in-the-large of a lazily generated infinite matrix
from finite data is only semi-decidable; `gamma_probe` therefore returns a
three-level verdict that encodes exactly what was proved. Certification of
a kernel vector requires a finite column-support argument supplied by the
handle's structure or provenance.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import prod

from ._record import record
from .errors import DomainMismatch, SingularTruncation, WitnessNotFound, ZeroDiagonalError
from .matrices import InfiniteMatrixHandle, TruncatedMatrix, _scaled, matrix_from_rows
from .scalars import RATIONAL, format_rational

_F0 = Fraction(0)
_F1 = Fraction(1)


@record
class PermutationSpec:
    """Injective finite prefix of a permutation of N.

    Beyond the prefix the permutation runs through the positive integers
    the prefix does not use, in increasing order; for a prefix that is
    itself a permutation of 1..k this is the identity beyond k.
    """

    prefix: tuple

    def __post_init__(self):
        if len(set(self.prefix)) != len(self.prefix):
            raise ValueError("permutation prefix entries must be distinct")
        if any(p < 1 for p in self.prefix):
            raise ValueError("permutation prefix entries must be positive")

    @classmethod
    def identity(cls) -> "PermutationSpec":
        return cls(())

    def apply(self, i: int) -> int:
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        j = i - len(self.prefix)
        for p in sorted(self.prefix):
            j += p <= j
        return j

    @property
    def is_identity(self) -> bool:
        return all(p == i + 1 for i, p in enumerate(self.prefix))

    def matrix(self, n: int) -> TruncatedMatrix:
        images = [self.apply(j) for j in range(1, n + 1)]
        if max(images, default=0) > n:
            raise ValueError(f"prefix entry {max(images)} does not fit a {n} x {n} matrix")
        rows = [[_F1 if p == i else _F0 for p in images] for i in range(1, n + 1)]
        return matrix_from_rows(rows)


@record
class BlockInjection:
    """Strictly increasing finite prefix of an injection N -> N."""

    prefix: tuple

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.prefix, self.prefix[1:])):
            raise ValueError("block injection prefix must be strictly increasing")
        if any(p < 1 for p in self.prefix):
            raise ValueError("block injection entries must be positive")

    @classmethod
    def identity(cls) -> "BlockInjection":
        return cls(())

    def apply(self, i: int) -> int:
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        if self.prefix and i > len(self.prefix):
            raise ValueError("block injection prefix exhausted")
        return i


@record
class FiniteSupportVector:
    """Sparse column vector: 1-based index -> nonzero rational entry."""

    entries: tuple  # sorted ((index, value), ...)

    @classmethod
    def from_dict(cls, mapping) -> "FiniteSupportVector":
        items = tuple(sorted((int(i), Fraction(v)) for i, v in mapping.items() if v))
        return cls(items)

    @classmethod
    def from_dense(cls, values, start: int = 1) -> "FiniteSupportVector":
        return cls.from_dict({start + k: v for k, v in enumerate(values) if v})

    @property
    def support(self) -> tuple:
        return tuple(i for i, _ in self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def get(self, i: int) -> Fraction:
        for idx, val in self.entries:
            if idx == i:
                return val
        return _F0

    def normalized(self) -> "FiniteSupportVector":
        """Scale so the leading (lowest-index) entry equals 1."""
        if not self.entries:
            return self
        lead = self.entries[0][1]
        return FiniteSupportVector(tuple((i, v / lead) for i, v in self.entries))

    def to_json(self) -> dict:
        return {str(i): format_rational(v) for i, v in self.entries}


def _require_rational(m: TruncatedMatrix, what: str):
    if m.domain != RATIONAL:
        raise DomainMismatch(f"{what} requires the exact rational domain, got {m.domain}")


class _Echelon:
    """Fraction-free (Bareiss) row echelon form with least-index pivot rows.

    Row i is scaled to ints by scale[i]; rows are read only as far as the
    pivot search needs and dropped once zero. Step k maps each other unused
    row x with entry f in the pivot column to (x*d[k+1] - f*y) // d[k], y the
    pivot row and d[k+1] its pivot: exact by Sylvester's identity, d[k] being
    the k x k minor of the scaled rows on the first k pivots. A row with f = 0
    takes its pending scale d[k] / d[j] only when next touched. rows[k] is the
    step-k pivot row, scale * d[k] times its fraction-reduced row; mult[row][k]
    is its f.
    """

    def __init__(self, rows, ncols: int):
        self.pivots, self.rows, self.d, self.scale, self.mult = [], [], [1], {}, {}
        source = enumerate(rows)
        live = []  # [row index, ints, step j whose d[j] the ints are scaled to]
        for c in range(ncols):
            pivot = next((e for e in live if e[1][c]), None)
            while pivot is None and (item := next(source, None)) is not None:
                self.scale[item[0]], ints = _scaled(item[1])
                e = [item[0], ints, 0]
                if any(ints) and all(self._reduce(e, k) for k in range(len(self.pivots))):
                    live.append(e)
                    pivot = e if ints[c] else None
            if pivot is not None:
                live.remove(pivot)
                k = len(self.pivots)
                self._rescale(pivot, k, c)
                self.pivots.append((pivot[0], c))
                self.d.append(pivot[1][c])
                self.rows.append(pivot[1])
                live = [e for e in live if self._reduce(e, k)]

    def _rescale(self, e, k: int, c: int):
        if e[2] != k:
            e[1][c:] = [x * self.d[k] // self.d[e[2]] for x in e[1][c:]]
            e[2] = k

    def _reduce(self, e, k: int) -> bool:
        """Apply step k to a live row; False once the row is zero."""
        row, c = e[1], self.pivots[k][1]
        if not row[c]:
            return True
        self._rescale(e, k, c)
        f, p, dk = row[c], self.d[k + 1], self.d[k]
        self.mult.setdefault(e[0], {})[k] = f
        row[c:] = [(x * p - f * y) // dk for x, y in zip(row[c:], self.rows[k][c:])]
        e[2] = k + 1
        return any(row)

    @property
    def full_columns(self) -> int:
        """How many leading columns each got a pivot."""
        return next((k for k, (_, c) in enumerate(self.pivots) if c != k), len(self.pivots))

    def leading_minor(self, size: int) -> Fraction:
        """Determinant of the leading size x size block: valid when the first
        `size` pivots lie on the diagonal or the input was that block alone."""
        if len(self.pivots) < size:
            return _F0
        order = [r for r, _ in self.pivots[:size]]
        sign = (-1) ** sum(a > b for a, b in combinations(order, 2))
        return Fraction(sign * self.d[size], prod(self.scale[r] for r in order))


def _back_substitute(rows, cols, free, d: int) -> list:
    """d times the reduced rows (pivot 1, zero in the other pivot columns) at
    the `free` columns. rows[k] has its pivot in cols[k] and a zero in cols[j]
    for j > k; d must make the results integers, and every division is exact."""
    out = []
    for row, c in zip(rows, cols):
        xs = [d * row[f] for f in free]
        for done, pc in zip(out, cols):
            if row[pc]:
                xs = [x - row[pc] * y for x, y in zip(xs, done)]
        out.append([x // row[c] for x in xs])
    return out


def plu_decompose(a: TruncatedMatrix):
    """Exact P L U with deterministic minimal-row-index pivoting.

    Returns (PermutationSpec, L, U) with P.matrix(n) @ L @ U = A, L lower
    unipotent and U upper with nonzero diagonal. The pivot for each column
    is the least-index unused row with a nonzero (reduced) entry.
    """
    _require_rational(a, "plu_decompose")
    n = a.n
    ech = _Echelon(a.rows, n)
    if ech.full_columns < n:
        raise SingularTruncation(ech.full_columns + 1)
    order = [r for r, _ in ech.pivots]
    s, d, f = ech.scale, ech.d, ech.mult
    l_rows = [
        [Fraction(f[r][m] * s[order[m]], d[m + 1] * s[r]) if m in f.get(r, ()) else _F0
         for m in range(k)] + [_F1] + [_F0] * (n - k - 1)
        for k, r in enumerate(order)
    ]
    u_rows = [[Fraction(x, s[r] * d[k]) for x in ech.rows[k]] for k, r in enumerate(order)]
    spec = PermutationSpec(tuple(r + 1 for r in order))
    return spec, matrix_from_rows(l_rows), matrix_from_rows(u_rows)


def _handle_entry(m, i: int, j: int) -> Fraction:
    value = m.entry(i, j)
    if not isinstance(value, (int, Fraction)):
        raise DomainMismatch("minor sequences require exact rational entries")
    return Fraction(value)


def sigma_determinants(
    m: InfiniteMatrixHandle,
    pi1: PermutationSpec | None = None,
    pi2: PermutationSpec | None = None,
    beta: BlockInjection | None = None,
    count: int = 1,
) -> list:
    """Minor sequence: determinant of the beta(k) x beta(k) submatrix picked
    by the row permutation pi1 and column permutation pi2, for k = 1..count.
    The pivots of one elimination are the minors up to the first zero one."""
    pi1 = pi1 or PermutationSpec.identity()
    pi2 = pi2 or PermutationSpec.identity()
    beta = beta or BlockInjection.identity()
    sizes = [beta.apply(k) for k in range(1, count + 1)]
    n = max(sizes, default=0)
    cols = [pi2.apply(j) for j in range(1, n + 1)]
    rows = [[_handle_entry(m, pi1.apply(i), j) for j in cols] for i in range(1, n + 1)]
    ech = _Echelon(rows, n)
    diagonal = next((k for k, p in enumerate(ech.pivots) if p != (k, k)), len(ech.pivots))
    blocks = (ech if k <= diagonal else _Echelon([r[:k] for r in rows[:k]], k) for k in sizes)
    return [block.leading_minor(k) for block, k in zip(blocks, sizes)]


def find_pivot_rows(m: InfiniteMatrixHandle, n: int, row_budget: int) -> PermutationSpec:
    """Greedy pivot-row search making all n leading minors nonzero.

    For each column in order, picks the least-index unused row within the
    budget whose reduced entry in that column is nonzero (the row order of a
    least-index PLU of the row_budget x n block). The returned prefix is
    re-verified by recomputing the minors before returning.
    """
    if row_budget < n:
        raise ValueError("row budget must be at least the number of columns")
    rows = ([_handle_entry(m, r, j) for j in range(1, n + 1)] for r in range(1, row_budget + 1))
    ech = _Echelon(rows, n)
    if ech.full_columns < n:
        raise WitnessNotFound(ech.full_columns + 1, row_budget)
    spec = PermutationSpec(tuple(r + 1 for r, _ in ech.pivots))
    minors = sigma_determinants(m, pi1=spec, count=n)
    if any(d == 0 for d in minors):
        raise WitnessNotFound(minors.index(_F0) + 1, row_budget)
    return spec


NO_OBSTRUCTION = "NO-OBSTRUCTION"
KERNEL_CANDIDATE = "KERNEL-CANDIDATE"
KERNEL_CERTIFIED = "KERNEL-CERTIFIED"


@record
class GammaVerdict:
    """What a finite probe actually established about kernel triviality."""

    verdict: str
    vector: FiniteSupportVector | None
    n_cols: int
    rows_checked: int
    certificate: str | None = None
    transpose: bool = False

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "rows_checked": self.rows_checked}
        if self.vector is not None:
            out["vector"] = self.vector.to_json()
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.verdict == NO_OBSTRUCTION:
            out["n_cols"] = self.n_cols
        if self.transpose:
            out["transpose"] = True
        return out


def _kernel_rect(rows, ncols):
    """Kernel basis of a rectangular system from its reduced row echelon form,
    scaled so every pivot is the last Bareiss pivot d: free column fc gives d
    at fc and the negated fc entries at the pivot columns, normalized to lead 1.
    """
    ech = _Echelon(rows, ncols)
    cols = [c for _, c in reversed(ech.pivots)]
    free = sorted(set(range(ncols)) - set(cols))
    solved = _back_substitute(ech.rows[::-1], cols, free, ech.d[-1])
    return [
        FiniteSupportVector.from_dict(
            {fc + 1: ech.d[-1], **{pc + 1: -xs[i] for pc, xs in zip(cols, solved)}}
        ).normalized()
        for i, fc in enumerate(free)
    ]


def _probe_side(m: InfiniteMatrixHandle, n_cols: int, row_budget: int, transpose: bool):
    """Kernel probe of the first n_cols columns (or rows, when transposed)."""
    support_of = m.col_rows if not transpose else m.row_cols
    supports = [support_of(j) for j in range(1, n_cols + 1)]
    if all(s is not None for s in supports):
        row_set = sorted(set().union(*[set(s) for s in supports])) or [1]
        certified = True
    else:
        row_set = list(range(1, row_budget + 1))
        certified = False
    rows = [
        [_handle_entry(m, *((j, r) if transpose else (r, j))) for j in range(1, n_cols + 1)]
        for r in row_set
    ]
    basis = _kernel_rect(rows, n_cols)
    return basis, certified, len(row_set)


def _zero_column_certificate(m, vector, transpose):
    support = vector.support
    if len(support) != 1:
        return "finite-support"
    j = support[0]
    rows = m.col_rows(j) if not transpose else m.row_cols(j)
    if rows is not None and all(
        (m.entry(r, j) if not transpose else m.entry(j, r)) == 0 for r in rows
    ):
        return "zero-column" if not transpose else "zero-row"
    return "finite-support"


def gamma_probe(m: InfiniteMatrixHandle, n_cols: int, row_budget: int) -> GammaVerdict:
    """Probe kernel triviality of the matrix and its transpose on finitely
    supported vectors, using the first n_cols columns/rows.

    NO-OBSTRUCTION: both sides linearly independent on the tested window.
    KERNEL-CANDIDATE: a nonzero vector kills all tested rows, tail unverified.
    KERNEL-CERTIFIED: as above, plus the involved columns have finite row
    support, so the vector genuinely refutes kernel triviality.
    """
    if row_budget < n_cols:
        raise ValueError("row budget must be at least n_cols")
    rows_checked = 0
    for transpose in (False, True):
        basis, certified, checked = _probe_side(m, n_cols, row_budget, transpose)
        rows_checked = max(rows_checked, checked)
        if basis:
            vector = basis[0]
            if certified:
                cert = _zero_column_certificate(m, vector, transpose)
                return GammaVerdict(KERNEL_CERTIFIED, vector, n_cols, checked, cert, transpose)
            return GammaVerdict(KERNEL_CANDIDATE, vector, n_cols, checked, transpose=transpose)
    return GammaVerdict(NO_OBSTRUCTION, None, n_cols, rows_checked)


def invert_triangular(a: TruncatedMatrix) -> TruncatedMatrix:
    """Exact inverse of a triangular window with nonzero diagonal."""
    _require_rational(a, "invert_triangular")
    n = a.n
    lower = a.is_lower_triangular()
    upper = a.is_upper_triangular()
    if not (lower or upper):
        raise ValueError("matrix is not triangular")
    for i in range(n):
        if a.rows[i][i] == 0:
            raise ZeroDiagonalError(f"zero diagonal entry at position {i + 1}")
    # Scale rows, or columns (inverting the transpose), whichever gives the
    # smaller determinant: it is the common denominator of the whole solve.
    sides = [[_scaled(line) for line in lines] for lines in (a.rows, zip(*a.rows))]
    bits = [sum(ints[i].bit_length() for i, (_, ints) in enumerate(side)) for side in sides]
    transpose = bits[1] < bits[0]
    scaled = sides[transpose]
    det = abs(prod(ints[i] for i, (_, ints) in enumerate(scaled)))
    order = range(n) if lower != transpose else range(n - 1, -1, -1)
    rows = [scaled[i][1] + [scaled[i][0] if j == i else 0 for j in range(n)] for i in order]
    inv = [None] * n
    for i, xs in zip(order, _back_substitute(rows, order, range(n, 2 * n), det)):
        inv[i] = [Fraction(x, det) for x in xs]
    return matrix_from_rows(list(zip(*inv)) if transpose else inv)


def kernel_basis(a: TruncatedMatrix) -> list:
    """Basis of the kernel of a finite window, by elimination; [] iff injective."""
    _require_rational(a, "kernel_basis")
    return _kernel_rect(a.rows, a.n)
