"""The four benchmark workloads: seeded inputs, one job, its output check.

Each workload turns a seeded `random.Random` into blocks of job specs. A
block holds every job class of the workload's schedule exactly as often as
the schedule says, in a seeded order, so the size mix of a run does not
depend on the seed; the seed picks the coefficients, points and order.

`run(spec, tr)` makes the library calls of one job through the tracer
`tr` and returns the outputs. `check(spec, out)` compares them with the
independent oracles in `checks.py` and returns None or a one-line reason.
`observe(spec, out, counts)` adds the per-layer counts a traced run
reports. Nothing in `run` builds inputs, and nothing in `check` is timed.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from collections import Counter
from fractions import Fraction

import checks

F0 = Fraction(0)
F1 = Fraction(1)

NUM_HEIGHT = 5  # coefficient numerators in [-5, 5]
DEN_HEIGHT = 5  # denominators in [1, 5]


def rand_q(rng, nonzero=False):
    while True:
        v = Fraction(rng.randint(-NUM_HEIGHT, NUM_HEIGHT), rng.randint(1, DEN_HEIGHT))
        if v or not nonzero:
            return v


def rand_matrix(rng, rows, cols):
    return [[rand_q(rng) for _ in range(cols)] for _ in range(rows)]


def probe_vector(rng, n):
    return [Fraction(rng.randint(-9, 9)) for _ in range(n)]


def cells(*matrices):
    return [x for m in matrices for row in m.rows for x in row]


def count_scalars(values, counts):
    """Count the exact rationals among a job's output values, and their size."""
    exact = [v for v in values if isinstance(v, (Fraction, int))]
    counts["scalars.values_out"] += len(exact)
    if exact:
        counts["scalars.max_bits"] = max(
            counts["scalars.max_bits"], max(checks.scalar_bits(v) for v in exact)
        )


class Workload:
    """Shared block logic; subclasses define SCHEDULE and the job kinds."""

    SCHEDULE: tuple = ()
    SMOKE_SCHEDULE: tuple = ()
    WARMUP: tuple = ()  # one class of each job kind, at its smallest size
    MODULES = ("series", "matrices", "linalg", "convergence", "scenarios")

    def __init__(self, lib, rng, smoke, workdir):
        self.lib = lib
        self.rng = rng
        self.smoke = smoke
        self.workdir = workdir
        self.seen = Counter()

    def make_block(self):
        classes = list(self.SMOKE_SCHEDULE if self.smoke else self.SCHEDULE)
        self.rng.shuffle(classes)
        return [self.spec(c) for c in classes]

    def spec(self, cls):
        # variants (isotropy, stock pair, t) cycle per class, so every run
        # of whole blocks holds the same variant mix whatever the seed
        k = self.seen[cls]
        self.seen[cls] += 1
        return self.make_spec(cls, k)

    def warmup_specs(self):
        classes = self.SMOKE_SCHEDULE[:1] if self.smoke else self.WARMUP
        return [self.make_spec(c, 0) for c in classes]

    def observe(self, spec, out, counts):
        """Add the per-layer counts of one checked job."""


# ---------------------------------------------------------------------------
# series-embed
# ---------------------------------------------------------------------------

STOCK_PAIRS = (("ln1p", "expm1"), ("expm1", "ln1p"), ("geometric", "h"), ("h", "h"))


class SeriesEmbed(Workload):
    name = "series-embed"
    # (kind, n); isotropy alternates within each class from block to block
    SCHEDULE = (
        ("random", 8), ("random", 8), ("circle", 8), ("circle", 8),
        ("random", 12), ("random", 12), ("random", 12),
        ("random", 16), ("random", 16), ("random", 16), ("random", 16), ("random", 16), ("random", 16),
        ("circle", 16), ("circle", 16), ("stock", 16),
        ("random", 24), ("random", 24), ("random", 24),
        ("stock", 32),
    )
    SMOKE_SCHEDULE = (("random", 4), ("random", 5), ("stock", 6), ("circle", 4))
    WARMUP = (("random", 8), ("stock", 16), ("circle", 8))

    def make_spec(self, cls, k):
        kind, n = cls
        rng = self.rng
        iso = k % 2 == 0
        if kind == "circle":
            return {"kind": kind, "n": n, "y": rng.uniform(-1.0, 1.0), "tol": 1e-9}
        s = self.lib.series
        if kind == "stock":
            outer, inner = STOCK_PAIRS[k % len(STOCK_PAIRS)]
            g1, g2 = s.builtin_series(outer, n), s.builtin_series(inner, n)
        else:
            base2 = F0 if iso else rand_q(rng, nonzero=True)
            target2 = F0 if iso else rand_q(rng, nonzero=True)
            g2 = s.make_series(base2, [target2, rand_q(rng, True)] + [rand_q(rng) for _ in range(n - 1)])
            target1 = F0 if iso else rand_q(rng, nonzero=True)
            g1 = s.make_series(target2, [target1, rand_q(rng, True)] + [rand_q(rng) for _ in range(n - 1)])
        return {"kind": kind, "n": n, "g1": g1, "g2": g2, "x": probe_vector(rng, n)}

    def run(self, spec, tr):
        n = spec["n"]
        sc, s, m = self.lib.scenarios, self.lib.series, self.lib.matrices
        if spec["kind"] == "circle":
            cert = tr.call("scenarios.circle_generator_matrix", sc.circle_generator_matrix, spec["y"], n, spec["tol"])
            raw = tr.call("scenarios.circle_raw_product", sc.circle_raw_product, spec["y"], n)
            return {"cert": cert, "raw": raw}
        g1, g2 = spec["g1"], spec["g2"]
        comp = tr.call("series.compose", s.compose, g1, g2, n)
        inv = tr.call("series.invert", s.invert, g2, n)
        m1 = tr.call("matrices.carleman_embed", m.carleman_embed, g1, n)
        m2 = tr.call("matrices.carleman_embed", m.carleman_embed, g2, n)
        mc = tr.call("matrices.carleman_embed", m.carleman_embed, comp, n)
        prod = tr.call("matrices.truncated_multiply", m.truncated_multiply, m1, m2, n)
        return {"comp": comp, "inv": inv, "emb": (m1, m2, mc), "prod": prod}

    def check(self, spec, out):
        n = spec["n"]
        if spec["kind"] == "circle":
            dev = checks.scaling_deviation(out["cert"].rows, spec["y"])
            if not dev <= spec["tol"]:
                return f"certified circle deviation {dev:.3g} above tol"
            if out["raw"].truncation_exact:
                return "raw circle product not flagged approximate"
            return None
        g1, g2 = spec["g1"], spec["g2"]
        dev2 = [F0] + list(g2.coeffs[1:])
        comp, inv = out["comp"], out["inv"]
        if comp.base_point != g2.base_point or list(comp.coeffs) != checks.compose_trunc(g1.coeffs, dev2, n):
            return "compose differs from naive substitution"
        if inv.base_point != g2.target:
            return "inverse has the wrong source"
        identity = [g2.base_point, F1] + [F0] * (n - 1)
        if checks.compose_trunc(inv.coeffs, dev2, n) != identity:
            return "compose(invert(g), g) is not the identity"
        for g, emb in zip((g1, g2, comp), out["emb"]):
            if [list(r) for r in emb.rows] != checks.power_rows(g.coeffs, n, n - 1):
                return "embedding differs from naive powers"
        m1, m2, mc = out["emb"]
        prod = out["prod"]
        upper_right = g2.target == 0
        if prod.truncation_exact != upper_right:
            return "product exactness flag is wrong"
        if upper_right and prod.rows != mc.rows:
            return "embedding of the composite differs from the product"
        if not checks.freivalds_product(m1.rows, m2.rows, prod.rows, spec["x"]):
            return "product fails the Freivalds check"
        return None

    def observe(self, spec, out, counts):
        if spec["kind"] == "circle":
            values = cells(out["cert"], out["raw"])
        else:
            values = [*out["comp"].coeffs, *out["inv"].coeffs, *cells(*out["emb"], out["prod"])]
        count_scalars(values, counts)


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


class Elimination(Workload):
    name = "elimination"
    # (dense size n, embedding window w, gamma_probe n_cols)
    SCHEDULE = (
        (12, 6, 8), (12, 6, 8), (12, 6, 8), (12, 6, 8),
        (24, 12, 16), (24, 12, 16), (24, 12, 16), (24, 12, 16),
        (32, 16, 32), (32, 16, 32),
    )
    SMOKE_SCHEDULE = ((4, 3, 3), (5, 3, 4))
    WARMUP = ((12, 6, 8),)

    def make_spec(self, cls, k):
        n, w, n_cols = cls
        rng, lib = self.rng, self.lib
        mx = lib.matrices
        a = rand_matrix(rng, n, n)
        # rank-deficient on alternate jobs: d rows are combinations of the rest
        d = k % 2 * rng.randint(1, 3)
        b = rand_matrix(rng, n - d, n)
        for _ in range(d):
            coef = [rand_q(rng) for _ in range(n - d)]
            b.append([sum((c * row[j] for c, row in zip(coef, b[: n - d])), F0) for j in range(n)])
        rng.shuffle(b)
        # embedding window for the minor sequence
        iso = k % 4 < 2
        coeffs = [F0 if iso else rand_q(rng, True), rand_q(rng, True)] + [rand_q(rng) for _ in range(w - 2)]
        window = checks.power_rows(coeffs, w, w - 1)
        # pivot-search block: real rows R = Lr Ur (all leading minors nonzero)
        # interleaved with zero rows and combinations of earlier real rows
        lr = [[F1 if i == j else (rand_q(rng) if j < i else F0) for j in range(w)] for i in range(w)]
        ur = [[rand_q(rng, True) if i == j else (rand_q(rng) if j > i else F0) for j in range(w)] for i in range(w)]
        real = [[sum((lr[i][m] * ur[m][j] for m in range(w)), F0) for j in range(w)] for i in range(w)]
        block, expected = [], []
        for i, row in enumerate(real):
            if i == 0:
                block.append([F0] * w)
            else:
                coef = [rand_q(rng) for _ in range(i)]
                block.append([sum((c * real[m][j] for m, c in enumerate(coef)), F0) for j in range(w)])
            block.append(row)
            expected.append(len(block))
        size = len(block)
        block = [r + [F0] * (size - w) for r in block]
        t = F1 if k % 3 == 0 else Fraction(1, 2)
        if k % 3 == 2:
            while t in (F1, Fraction(1, 2)):
                t = rand_q(rng, True)
        return {
            "n": n, "w": w, "n_cols": n_cols, "d": d, "t": t,
            "a": mx.matrix_from_rows(a), "b": mx.matrix_from_rows(b),
            "window": window, "pivot_block": block, "expected_pivots": tuple(expected),
            "h_window": mx.explicit_handle(mx.matrix_from_rows(window)),
            "h_pivot": mx.explicit_handle(mx.matrix_from_rows(block)),
            "h_gamma": lib.scenarios.adjoint_handle(t),
            "x": probe_vector(rng, n),
        }

    def run(self, spec, tr):
        la = self.lib.linalg
        perm, lower, upper = tr.call("linalg.plu_decompose", la.plu_decompose, spec["a"])
        upper_inv = tr.call("linalg.invert_triangular", la.invert_triangular, upper)
        kernel = tr.call("linalg.kernel_basis", la.kernel_basis, spec["b"])
        minors = tr.call("linalg.sigma_determinants", la.sigma_determinants, spec["h_window"], count=spec["w"])
        pivots = tr.call("linalg.find_pivot_rows", la.find_pivot_rows, spec["h_pivot"], spec["w"], len(spec["pivot_block"]))
        n_cols = spec["n_cols"]
        verdict = tr.call("linalg.gamma_probe", la.gamma_probe, spec["h_gamma"], n_cols, 4 * n_cols)
        return {
            "plu": (perm, lower, upper), "upper_inv": upper_inv, "kernel": kernel,
            "minors": minors, "pivots": pivots, "verdict": verdict,
        }

    def check(self, spec, out):
        n, x = spec["n"], spec["x"]
        perm, lower, upper = out["plu"]
        prefix = perm.prefix
        if sorted(prefix) != list(range(1, n + 1)):
            return "PLU permutation is not a permutation of 1..n"
        lo, up = lower.rows, upper.rows
        for i in range(n):
            if lo[i][i] != 1 or any(lo[i][j] for j in range(i + 1, n)):
                return "L is not lower unipotent"
            if up[i][i] == 0 or any(up[i][j] for j in range(i)):
                return "U is not upper with nonzero diagonal"
        ax = checks.mat_vec(spec["a"].rows, x)
        lux = checks.mat_vec(lo, checks.mat_vec(up, x))
        if any(ax[prefix[k] - 1] != lux[k] for k in range(n)):
            return "P L U differs from A"
        if checks.mat_vec(up, checks.mat_vec(out["upper_inv"].rows, x)) != x:
            return "U times its computed inverse is not the identity"
        b = spec["b"].rows
        vectors = [[v.get(j) for j in range(1, n + 1)] for v in out["kernel"]]
        if len(vectors) != spec["d"]:
            return f"kernel has dimension {len(vectors)}, expected {spec['d']}"
        if any(any(checks.mat_vec(b, v)) for v in vectors):
            return "kernel vector is not killed by the matrix"
        if vectors and checks.rank_mod(vectors) != len(vectors):
            return "kernel basis is dependent"
        window = spec["window"]
        minors = out["minors"]
        if len(minors) != spec["w"]:
            return "wrong number of minors"
        for k, value in enumerate(minors, start=1):
            lead = [row[:k] for row in window[:k]]
            if k <= 4 and value != checks.cofactor_det(lead):
                return f"minor {k} differs from the cofactor determinant"
            if checks.to_mod(value) != checks.det_mod(lead):
                return f"minor {k} differs from the modular determinant"
        if out["pivots"].prefix != spec["expected_pivots"]:
            return "pivot search chose the wrong rows"
        verdict, n_cols = out["verdict"], spec["n_cols"]
        if spec["t"] == 1:
            # column 1 of M_1 is zero (1 - t = 0, identity below row 1)
            vec = verdict.vector
            if verdict.verdict != "KERNEL-CERTIFIED" or vec is None or vec.support != (1,):
                return "gamma_probe missed the certified kernel at t = 1"
        elif verdict.verdict != "NO-OBSTRUCTION" or verdict.rows_checked != 4 * n_cols:
            return "gamma_probe found an obstruction at t != 1"
        return None

    def observe(self, spec, out, counts):
        counts["linalg.gamma_probe.rows_checked"] += out["verdict"].rows_checked
        kernel = [x for v in out["kernel"] for _, x in v.entries]
        count_scalars([*cells(*out["plu"][1:], out["upper_inv"]), *kernel, *out["minors"]], counts)


# ---------------------------------------------------------------------------
# latent-probe
# ---------------------------------------------------------------------------

PROBE_NAMES = ("h", "ln1p", "geometric", "expm1")


class LatentProbe(Workload):
    name = "latent-probe"
    # Report costs barely vary within a class. Three (24, 5) reports hold
    # the median and two (24, 8) reports rank just below the k_max=128
    # probe, so the 50th and 90th percentiles each fall inside one job
    # class, not in the gap between two.
    SCHEDULE = (
        ("report", 16, 4), ("report", 16, 5), ("report", 16, 6), ("report", 16, 7), ("report", 16, 8),
        ("report", 24, 4), ("report", 24, 5), ("report", 24, 5), ("report", 24, 5),
        ("report", 24, 6), ("report", 24, 7), ("report", 24, 8), ("report", 24, 8),
        # (probe, k_max, j, builtin): entry (2, j) of builtin x T(a)
        ("probe", 64, 1, "h"), ("probe", 64, 1, "ln1p"), ("probe", 64, 1, "expm1"),
        ("probe", 64, 2, "geometric"), ("probe", 64, 2, "ln1p"),
        ("probe", 128, 1, "h"),
        ("mu", 8, 0), ("mu", 12, 0), ("mu", 16, 0),
    )
    SMOKE_SCHEDULE = (("report", 5, 3), ("probe", 8, 1, "h"), ("mu", 4, 0))
    WARMUP = (("report", 16, 4), ("probe", 64, 1, "h"), ("mu", 8, 0))

    def make_spec(self, cls, k):
        kind, size, extra = cls[:3]
        rng, mx = self.rng, self.lib.matrices
        if kind == "report":
            coeffs = [rand_q(rng, True), rand_q(rng, True)] + [rand_q(rng) for _ in range(size - 1)]
            g = self.lib.series.make_series(rand_q(rng, True), coeffs)
            return {"kind": kind, "n": size, "w": extra, "g": g}
        if kind == "probe":
            name = cls[3]
            a = Fraction(-1) if size >= 128 else rng.choice((Fraction(-1), Fraction(-1, 2), Fraction(1, 2), F1))
            return {
                "kind": kind, "k_max": size, "i": 2, "j": extra, "name": name, "a": a,
                "left": mx.builtin_carleman_handle(name), "right": mx.translation_handle(a),
            }
        return {"kind": kind, "n": size}

    def run(self, spec, tr):
        conv = self.lib.convergence
        if spec["kind"] == "report":
            lp = tr.call("matrices.lul_decompose", self.lib.matrices.lul_decompose, spec["g"], spec["n"])
            report = tr.call("convergence.latent_product_report", conv.latent_product_report, lp, spec["w"])
            return {"lp": lp, "report": report}
        if spec["kind"] == "probe":
            return tr.call(
                "convergence.entry_series_probe", conv.entry_series_probe,
                spec["left"], spec["right"], spec["i"], spec["j"], k_max=spec["k_max"],
            )
        return tr.call("scenarios.adjoint_mu_check", self.lib.scenarios.adjoint_mu_check, spec["n"])

    @staticmethod
    def _terms_match(report, row, col_fn, k_max):
        """Each (k, term, partial) equals row[k-1] * col_fn(k) and its running sum."""
        acc = F0
        if len(report.terms) != k_max:
            return False
        for pos, (k, t, partial) in enumerate(report.terms, start=1):
            acc += row[k - 1] * col_fn(k)
            if k != pos or t != row[k - 1] * col_fn(k) or partial != acc:
                return False
        return True

    def check(self, spec, out):
        if spec["kind"] == "mu":
            if not out.ok or out.entry is not None:
                return "M_t M_t' != M_mu(t,t') on the window"
            return None
        if spec["kind"] == "probe":
            k_max, j, a = spec["k_max"], spec["j"], spec["a"]
            row = checks.power_rows(checks.builtin_coeffs(spec["name"], k_max), 2, k_max - 1)[1]
            if not self._terms_match(out, row, lambda k: checks.binomial(k - 1, j - 1) * a ** (k - j) if k >= j else F0, k_max):
                return "probe terms differ from the closed-form entries"
            if spec["name"] == "h" and a == -1 and j == 1 and any(t != 1 for _, t, _ in out.terms[1:]):
                return "an h x T(-1) (2,1) term beyond the first is not 1"
            return None
        g, n, w = spec["g"], spec["n"], spec["w"]
        lp, report = out["lp"], out["report"]
        if lp.junctions != ("performed", "latent"):
            return "unexpected junction flags"
        if [f.structure for f in lp.factors] != ["lower-unipotent", "upper", "lower-unipotent"]:
            return "unexpected factor structures"
        emb = checks.power_rows(g.coeffs, w, n)  # T_target M_gamma = embedding of g
        j1, j2 = report.junctions
        k_max = min(64, n + 1)
        neg_s = -g.source
        for jr in report.junctions:
            if sum(jr.counts.values()) != w * w or len(jr.entries) != w * w:
                return "junction does not cover the window"
        for r in j1.entries:
            i, j = r.entry
            if r.classification != "finite-exact" or r.value != emb[i - 1][j - 1]:
                return f"junction 1 entry {r.entry} differs from the embedding"
        for r in j2.entries:
            i, j = r.entry
            col = lambda k, j=j: checks.binomial(k - 1, j - 1) * neg_s ** (k - j) if k >= j else F0
            if r.classification == "finite-exact":
                # row 1 of the embedding is (1, 0, 0, ...): a one-term sum
                ok = i == 1 and r.value == col(1)
            else:
                ok = self._terms_match(r, emb[i - 1], col, k_max)
            if not ok:
                return f"junction 2 entry {r.entry} has wrong terms"
        return None

    def observe(self, spec, out, counts):
        if spec["kind"] == "mu":
            return
        reports = [out] if spec["kind"] == "probe" else [r for jr in out["report"].junctions for r in jr.entries]
        counts["convergence.entries"] += len(reports)
        counts["convergence.decided"] += sum(r.classification != "inconclusive" for r in reports)
        counts["convergence.terms"] += sum(len(r.terms) for r in reports)
        count_scalars([t for r in reports for _, t, _ in r.terms], counts)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_COMMANDS = (
    "embed", "compose", "invert", "plu", "sigmadet", "gamma-probe", "latent",
    "probe", "demo-circle", "demo-adjoint", "demo-olver", "goldens-verify",
)
FILES = 4  # series and matrix files written at set-up


def _series_json(g):
    return {"base_point": str(g.base_point), "coeffs": [str(c) for c in g.coeffs]}


class Cli(Workload):
    name = "cli"
    MODULES = Workload.MODULES + ("cli",)
    SCHEDULE = tuple(CLI_COMMANDS)
    SMOKE_SCHEDULE = ("embed", "plu", "demo-olver")
    WARMUP = ("embed",)

    def __init__(self, lib, rng, smoke, workdir):
        super().__init__(lib, rng, smoke, workdir)
        self.env = dict(os.environ, PYTHONPATH=str(lib.src), PYTHONIOENCODING="utf-8")
        s = lib.series
        self.files = {}
        for k in range(FILES):
            n = 8
            iso_target = rand_q(rng, True)
            g = s.make_series(rand_q(rng, True), [iso_target, rand_q(rng, True)] + [rand_q(rng) for _ in range(n - 1)])
            outer = s.make_series(iso_target, [rand_q(rng, True), rand_q(rng, True)] + [rand_q(rng) for _ in range(n - 1)])
            size = 4 + k % 3
            mat = rand_matrix(rng, size, size)
            for j in range(size):
                mat[j][j] = Fraction(2 * NUM_HEIGHT * size)  # diagonally dominant: full rank
            for fname, data in (
                (f"series{k}.json", _series_json(g)),
                (f"outer{k}.json", _series_json(outer)),
                (f"matrix{k}.json", {"rows": [[str(v) for v in r] for r in mat]}),
            ):
                path = os.path.join(workdir, fname)
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(data, fh)
                self.files[fname] = path

    def make_spec(self, cmd, _k):
        rng, f = self.rng, self.files
        idx = rng.randrange(FILES)
        n = rng.randint(4, 8)
        if cmd == "embed":
            argv = ["embed", "--n", str(n)] + (
                ["--series", f[f"series{idx}.json"]] if idx % 2 else ["--builtin", rng.choice(PROBE_NAMES)]
            )
        elif cmd == "compose":
            pair = rng.choice((["ln1p", "expm1"], ["translation:1", "h"], [f[f"outer{idx}.json"], f[f"series{idx}.json"]]))
            argv = ["compose", *pair, "--n", str(n)]
        elif cmd == "invert":
            argv = ["invert", "--n", str(n)] + (
                ["--series", f[f"series{idx}.json"]] if idx % 2 else ["--builtin", rng.choice(PROBE_NAMES)]
            )
        elif cmd == "plu":
            argv = ["plu", "--matrix", f[f"matrix{idx}.json"]]
        elif cmd == "sigmadet":
            argv = ["sigmadet", "--handle", rng.choice(("geometric", "pascal", "h", "ln1p", "adjoint:1/2")),
                    "--count", str(rng.randint(3, 6))]
        elif cmd == "gamma-probe":
            cols = rng.randint(4, 8)
            argv = ["gamma-probe", "--t", rng.choice(("1", "1/2", f"{rng.randint(2, 9)}/11")),
                    "--n-cols", str(cols), "--row-budget", str(4 * cols)]
        elif cmd == "latent":
            argv = ["latent", "--probe", "--n", str(n), "--window", str(rng.randint(2, 4))] + (
                ["--series", f[f"series{idx}.json"]] if idx % 2 else ["--builtin", "geometric"]
            )
        elif cmd == "probe":
            argv = ["probe", "--left", rng.choice(("h", "geometric")), "--right", "inverse-pascal",
                    "--entry", "2,1", "--kmax", str(rng.choice((16, 24, 32)))]
        elif cmd == "demo-circle":
            argv = ["demo", "circle", "--y", f"{rng.uniform(-1.0, 1.0):.4f}", "--n", str(n)]
        elif cmd == "demo-adjoint":
            argv = ["demo", "adjoint", "--n", str(n)]
        elif cmd == "demo-olver":
            argv = ["demo", "olver"]
        else:
            argv = ["goldens", "verify"]
        if rng.random() < 0.5:
            argv.append("--json")
        return {"cmd": cmd, "argv": argv}

    def run(self, spec, tr):
        return tr.call(f"cli.{spec['cmd']}", subprocess.run,
                       [sys.executable, "-m", "carleman.cli", *spec["argv"]],
                       env=self.env, capture_output=True, check=False)

    def check(self, spec, out):
        if out.returncode != 0:
            return f"exit code {out.returncode}: {out.stderr.decode(errors='replace').strip()[-200:]}"
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            code = self.lib.cli.dispatch(spec["argv"])
        if code != 0 or out.stdout != buf.getvalue().encode("utf-8"):
            return "subprocess stdout differs from in-process dispatch"
        return None


WORKLOADS = {w.name: w for w in (SeriesEmbed, Elimination, LatentProbe, Cli)}
