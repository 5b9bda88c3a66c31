"""Pinned reference blocks for the stock embeddings.

Each fixture stores an expected window entry-for-entry in exact rationals
and the recipe that must reproduce it. The exp0 block pins entry (3, 5) to
7/12, the value of the expansion (e^z - 1)^2 = sum (2^k - 2)/k! z^k at
k = 4; a circulating table gives 4/3 for that entry, which is flagged as a
suspected transcription error whenever the fixture is verified.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import record
from .matrices import carleman_embed
from .series import builtin_series


def _rows(spec: str) -> tuple:
    return tuple(
        tuple(Fraction(cell) for cell in line.split())
        for line in spec.strip().splitlines()
    )


_GEOMETRIC = _rows(
    """
    1  0  0   0  0    0    0
    1 -1  1  -1  1   -1    1
    1 -2  3  -4  5   -6    7
    1 -3  6 -10 15  -21   28
    1 -4 10 -20 35  -56   84
    1 -5 15 -35 70 -126  210
    """
)

_PASCAL = _rows(
    """
    1 0  0  0 0 0 0
    1 1  0  0 0 0 0
    1 2  1  0 0 0 0
    1 3  3  1 0 0 0
    1 4  6  4 1 0 0
    1 5 10 10 5 1 0
    """
)

_H = _rows(
    """
    1  0 0  0 0  0  0
    0 -1 1 -1 1 -1  1
    0  0 1 -2 3 -4  5
    0  0 0 -1 3 -6 10
    0  0 0  0 1 -4 10
    0  0 0  0 0 -1  5
    """
)

_LN = _rows(
    """
    1 0    0   0     0
    0 1 -1/2 1/3  -1/4
    0 0    1  -1 11/12
    0 0    0   1  -3/2
    0 0    0   0     1
    """
)

_EXP0 = _rows(
    """
    1 0   0   0    0
    0 1 1/2 1/6 1/24
    0 0   1   1 7/12
    0 0   0   1  3/2
    0 0   0   0    1
    """
)


@record
class GoldenFixture:
    """Expected window, the recipe reproducing it, and any pinned corrections."""

    name: str
    tag: str
    expected: tuple
    builtin: str
    note: str | None = None

    @property
    def shape(self) -> tuple:
        return len(self.expected), len(self.expected[0])

    def computed(self) -> tuple:
        n_rows, n_cols = self.shape
        g = builtin_series(self.builtin, n_cols - 1, a=1 if self.builtin == "translation" else None)
        block = carleman_embed(g, n_cols)
        return tuple(block.rows[i][:n_cols] for i in range(n_rows))


FIXTURES = (
    GoldenFixture("geometric", "alternating geometric embedding", _GEOMETRIC, "geometric"),
    GoldenFixture("pascal", "unit translation embedding", _PASCAL, "translation"),
    GoldenFixture("h", "alternating isotropy embedding", _H, "h"),
    GoldenFixture("ln1p", "shifted logarithm embedding", _LN, "ln1p"),
    GoldenFixture(
        "exp0",
        "shifted exponential embedding",
        _EXP0,
        "expm1",
        note=(
            "entry (3,5) pinned to 7/12 = (2^4-2)/4! from the expansion of "
            "(e^z-1)^2; the circulating value 4/3 for this entry is a "
            "suspected transcription error"
        ),
    ),
)


@record
class FixtureResult:
    name: str
    ok: bool
    mismatches: tuple
    note: str | None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "mismatches": [
                {"entry": [i, j], "expected": str(e), "computed": str(c)}
                for (i, j, e, c) in self.mismatches
            ],
            "note": self.note,
        }


def verify_goldens() -> list:
    """Recompute every fixture and compare entry-for-entry in exact rationals."""
    results = []
    for fixture in FIXTURES:
        computed = fixture.computed()
        mismatches = []
        for i, (row_e, row_c) in enumerate(zip(fixture.expected, computed), start=1):
            for j, (e, c) in enumerate(zip(row_e, row_c), start=1):
                if e != c:
                    mismatches.append((i, j, e, c))
        results.append(
            FixtureResult(fixture.name, not mismatches, tuple(mismatches), fixture.note)
        )
    return results
