"""Entrywise probes of latent (undone) infinite matrix products.

Whether an entry's infinite sum converges is undecidable from finitely many
exact terms, so the probe is an explicitly heuristic classifier with an
honest "inconclusive" outcome. Its verdicts:

* finite-exact - certified: structure tags bound the support, the sum is a
  finite exact computation;
* divergent-terms-dont-vanish - a heuristic: every term magnitude in the
  trailing window stays at or above the floor (or grows across it). That
  suggests, but cannot prove, that the terms do not tend to zero; the sum of
  40^k / k! (expm1 against translation:40 at entry (2,1)) converges, yet its
  terms only start to fall near k = 40 and it gets this verdict.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from ._record import record
from .matrices import InfiniteMatrixHandle, LatentProduct, product_handle
from .scalars import abs_magnitude, scalar_to_json

FINITE_EXACT = "finite-exact"
LIKELY_CONVERGENT = "likely-convergent"
DIVERGENT = "divergent-terms-dont-vanish"
INCONCLUSIVE = "inconclusive"

DEFAULT_K_MAX = 64
DEFAULT_WINDOW = 16
DEFAULT_FLOOR = Fraction(1)


@record
class EntryProbeReport:
    """Evidence gathered for one entry of a latent product."""

    entry: tuple
    classification: str
    value: object | None
    terms: tuple  # (k, term, partial_sum), all indices that were computed
    floor: object
    k_max: int
    window: int

    def head(self, count: int = 4) -> tuple:
        return self.terms[:count]

    def tail(self, count: int = 4) -> tuple:
        return self.terms[-count:]

    def to_json(self) -> dict:
        out = {
            "entry": list(self.entry),
            "classification": self.classification,
            "first_terms": [scalar_to_json(t) for _, t, _ in self.head()],
            "last_terms": [scalar_to_json(t) for _, t, _ in self.tail()],
            "k_max": self.k_max,
        }
        if self.value is not None:
            out["value"] = scalar_to_json(self.value)
        return out


def entry_series_probe(
    a: InfiniteMatrixHandle,
    b: InfiniteMatrixHandle,
    i: int,
    j: int,
    k_max: int = DEFAULT_K_MAX,
    window: int = DEFAULT_WINDOW,
    floor=DEFAULT_FLOOR,
) -> EntryProbeReport:
    """Probe the sum over k of A(i,k) B(k,j).

    Classification:
    * finite-exact when either factor's structure bounds the support;
    * divergent-terms-dont-vanish when every trailing magnitude >= floor,
      or the trailing magnitudes strictly grow;
    * likely-convergent when trailing magnitudes strictly decrease;
    * inconclusive otherwise.
    """
    support = a.row_cols(i)
    if support is None:
        support = b.col_rows(j)
    if support is not None:
        terms = []
        acc = Fraction(0)
        for k in sorted(support):
            t = a.entry(i, k) * b.entry(k, j)
            acc = acc + t
            terms.append((k, t, acc))
        return EntryProbeReport(
            (i, j), FINITE_EXACT, acc, tuple(terms), floor, k_max, window
        )
    # window-limited factors can only serve finitely many summands
    for limit in (a.window_limit, b.window_limit):
        if limit is not None:
            k_max = min(k_max, limit)
    terms = []
    acc = Fraction(0)
    for k in range(1, k_max + 1):
        t = a.entry(i, k) * b.entry(k, j)
        acc = acc + t
        terms.append((k, t, acc))
    mags = [abs_magnitude(t) for _, t, _ in terms]
    trail = mags[-window:] if window <= len(mags) else mags
    floor_mag = abs_magnitude(floor)
    if all(m >= floor_mag for m in trail) or all(
        x < y for x, y in zip(trail, trail[1:])
    ):
        cls = DIVERGENT
        # report the floor actually achieved on the trailing window
        floor = min(trail)
    elif all(x > y for x, y in zip(trail, trail[1:])):
        cls = LIKELY_CONVERGENT
    else:
        cls = INCONCLUSIVE
    return EntryProbeReport((i, j), cls, None, tuple(terms), floor, k_max, window)


@record
class JunctionReport:
    """All probed entries for one junction of a latent product."""

    index: int
    flag: str
    counts: dict
    entries: tuple

    def to_json(self) -> dict:
        return {
            "junction": self.index,
            "flag": self.flag,
            "counts": dict(self.counts),
            "entries": [r.to_json() for r in self.entries],
        }


@record
class LatentReport:
    window: int
    junctions: tuple

    def counts(self) -> Counter:
        total: Counter = Counter()
        for j in self.junctions:
            total.update(j.counts)
        return total

    def to_json(self) -> dict:
        return {
            "window": self.window,
            "counts": dict(self.counts()),
            "junctions": [j.to_json() for j in self.junctions],
        }


def latent_product_report(
    lp: LatentProduct,
    window: int,
    k_max: int = DEFAULT_K_MAX,
    w: int = DEFAULT_WINDOW,
    floor=DEFAULT_FLOOR,
) -> LatentReport:
    """Probe every entry of an n x n window at each junction.

    The left side of junction m is the structural product of factors 1..m;
    accumulating past a latent junction is refused (entries would be
    infinite sums), so junctions after the first latent one are reported
    as inconclusive without probing.
    """
    left = lp.factors[0]
    blocked = False
    junction_reports = []
    for idx, flag in enumerate(lp.junctions):
        right = lp.factors[idx + 1]
        if blocked:
            junction_reports.append(
                JunctionReport(idx + 1, flag, {INCONCLUSIVE: window * window}, ())
            )
            continue
        reports = tuple(
            entry_series_probe(left, right, i, j, k_max, w, floor)
            for i in range(1, window + 1)
            for j in range(1, window + 1)
        )
        counts = Counter(r.classification for r in reports)
        junction_reports.append(JunctionReport(idx + 1, flag, dict(counts), reports))
        if flag == "performed":
            left = product_handle(left, right)
        else:
            blocked = True
    return LatentReport(window, tuple(junction_reports))
