"""Command-line front end. Thin wrappers only; no computation lives here.

Exit codes: 0 success, 1 malformed input, 2 undefined operation (source and
target mismatch, undefined local product, out-of-arc angle, a tolerance the
term budget cannot meet, ...), 3 divergence detected where convergence was
required.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import convergence, goldens, linalg, localgroup, matrices, scenarios, series
from .errors import DivergenceDetected, UndefinedOperation
from .scalars import format_rational, scalar_to_text, to_fraction

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_UNDEFINED = 2
EXIT_DIVERGENT = 3

BUILTIN_NAMES = ("identity", "geometric", "h", "ln1p", "expm1", "translation")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _load_series_file(path: str) -> series.GroupoidElement:
    with open(path, "r", encoding="utf-8") as fh:
        return series.series_from_json(json.load(fh))


def _builtin_arg(spec: str, order: int) -> series.GroupoidElement:
    name, _, arg = spec.partition(":")
    if name == "translation":
        if not arg:
            raise ValueError("translation builtin needs an amount, e.g. translation:1")
        return series.builtin_series("translation", order, a=series.parse_scalar_argument(arg))
    return series.builtin_series(name, order)


def _series_arg(args, order: int) -> series.GroupoidElement:
    if getattr(args, "series", None):
        return _load_series_file(args.series)
    if getattr(args, "builtin", None):
        return _builtin_arg(args.builtin, order)
    raise ValueError("provide --series FILE or --builtin NAME")


def _series_spec(spec: str, order: int) -> series.GroupoidElement:
    """A builtin name (possibly translation:a) or a path to a series JSON file."""
    base = spec.partition(":")[0]
    if base in BUILTIN_NAMES:
        return _builtin_arg(spec, order)
    return _load_series_file(spec)


def _handle_spec(spec: str) -> matrices.InfiniteMatrixHandle:
    name, _, arg = spec.partition(":")
    if name in ("identity", "geometric", "h", "ln1p", "expm1"):
        return matrices.builtin_carleman_handle(name)
    if name == "translation":
        if not arg:
            raise ValueError("translation handle needs an amount, e.g. translation:-1")
        return matrices.translation_handle(series.parse_scalar_argument(arg))
    if name == "pascal":
        return matrices.translation_handle(Fraction(1))
    if name == "inverse-pascal":
        return matrices.translation_handle(Fraction(-1))
    if name == "adjoint":
        if not arg:
            raise ValueError("adjoint handle needs a parameter, e.g. adjoint:1")
        return scenarios.adjoint_handle(to_fraction(arg))
    raise ValueError(f"unknown handle spec {spec!r}")


def _print_series(g: series.GroupoidElement, as_json: bool):
    if as_json:
        print(json.dumps(series.series_to_json(g)))
    else:
        print(f"source {scalar_to_text(g.source)}  target {scalar_to_text(g.target)}")
        print("coeffs", " ".join(scalar_to_text(c) for c in g.coeffs))


def _print_matrix(m: matrices.TruncatedMatrix, as_json: bool):
    if as_json:
        print(json.dumps(matrices.matrix_to_json(m)))
    else:
        if not m.truncation_exact:
            print("# truncation-approximate")
        print(matrices.matrix_to_text(m))


def _csv_ints(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from None


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _entry(text: str) -> tuple:
    i, _, j = text.partition(",")
    return _positive_int(i), _positive_int(j)


def _cmd_embed(args) -> int:
    g = _series_arg(args, args.n - 1)
    _print_matrix(matrices.carleman_embed(g, args.n), args.json)
    return EXIT_OK


def _cmd_compose(args) -> int:
    g1 = _series_spec(args.outer, args.n)
    g2 = _series_spec(args.inner, args.n)
    _print_series(series.compose(g1, g2, args.n), args.json)
    return EXIT_OK


def _cmd_invert(args) -> int:
    g = _series_arg(args, args.n)
    _print_series(series.invert(g, args.n), args.json)
    return EXIT_OK


def _cmd_plu(args) -> int:
    with open(args.matrix, "r", encoding="utf-8") as fh:
        try:
            a = matrices.matrix_from_json(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{args.matrix}: {exc}") from None
    p, l, u = linalg.plu_decompose(a)
    if args.json:
        print(
            json.dumps(
                {
                    "permutation": list(p.prefix),
                    "L": matrices.matrix_to_json(l),
                    "U": matrices.matrix_to_json(u),
                }
            )
        )
    else:
        print("P prefix:", " ".join(str(i) for i in p.prefix))
        print("L:")
        print(matrices.matrix_to_text(l))
        print("U:")
        print(matrices.matrix_to_text(u))
    return EXIT_OK


def _cmd_sigmadet(args) -> int:
    handle = _handle_spec(args.handle)
    pi1 = linalg.PermutationSpec(_csv_ints(args.pi1)) if args.pi1 else None
    pi2 = linalg.PermutationSpec(_csv_ints(args.pi2)) if args.pi2 else None
    beta = linalg.BlockInjection(_csv_ints(args.beta)) if args.beta else None
    dets = linalg.sigma_determinants(handle, pi1, pi2, beta, args.count)
    if args.json:
        print(json.dumps({"determinants": [format_rational(d) for d in dets]}))
    else:
        print(" ".join(format_rational(d) for d in dets))
    return EXIT_OK


def _cmd_gamma_probe(args) -> int:
    if args.handle:
        handle = _handle_spec(args.handle)
    elif args.t is not None:
        handle = scenarios.adjoint_handle(to_fraction(args.t))
    else:
        raise ValueError("provide --handle SPEC or --t VALUE")
    verdict = linalg.gamma_probe(handle, args.n_cols, args.row_budget)
    if args.json:
        print(json.dumps(verdict.to_json()))
    else:
        print(verdict.verdict, end="")
        if verdict.vector is not None:
            print(f"  vector {verdict.vector.to_json()}", end="")
        if verdict.certificate:
            print(f"  certificate {verdict.certificate}", end="")
        print(f"  rows_checked {verdict.rows_checked}")
    return EXIT_OK


def _cmd_latent(args) -> int:
    g = _series_arg(args, args.n - 1)
    lp = matrices.lul_decompose(g, args.n)
    if args.probe:
        report = convergence.latent_product_report(
            lp, args.window, args.kmax, args.tail_window, to_fraction(args.floor)
        )
        if args.json:
            print(json.dumps({"product": lp.to_json(), "report": report.to_json()}))
        else:
            print("junctions:", " ".join(lp.junctions))
            for jr in report.junctions:
                print(f"junction {jr.index} [{jr.flag}]:", dict(sorted(jr.counts.items())))
        return EXIT_OK
    if args.json:
        print(json.dumps(lp.to_json()))
    else:
        for idx, factor in enumerate(lp.factors):
            print(f"factor {idx + 1}: {factor.structure}  {factor.provenance}")
            if idx < len(lp.junctions):
                print(f"  -- junction {idx + 1}: {lp.junctions[idx]}")
    return EXIT_OK


def _cmd_probe(args) -> int:
    left = _handle_spec(args.left)
    right = _handle_spec(args.right)
    i, j = args.entry
    report = convergence.entry_series_probe(
        left, right, i, j, args.kmax, args.tail_window, to_fraction(args.floor)
    )
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(f"entry ({i},{j}): {report.classification}")
        if report.value is not None:
            print("value:", scalar_to_text(report.value))
        head = ", ".join(scalar_to_text(t) for _, t, _ in report.head())
        tail = ", ".join(scalar_to_text(t) for _, t, _ in report.tail())
        print(f"terms: {head} ... {tail}")
    if args.require_convergence and report.classification == convergence.DIVERGENT:
        raise DivergenceDetected(f"entry ({i},{j}) diverges: terms do not vanish")
    return EXIT_OK


def _cmd_demo_circle(args) -> int:
    if not (math.isfinite(args.y) and math.isfinite(args.tol) and args.tol > 0):
        raise ValueError("--y must be finite and --tol finite and positive")
    m = scenarios.circle_generator_matrix(args.y, args.n, args.tol)
    dev = scenarios.diag_deviation(m, args.y)
    comp = scenarios.circle_composite_series(args.y, args.n - 1, args.tol * 1e-3)
    raw = scenarios.circle_raw_product(args.y, args.n)
    raw_dev = scenarios.diag_deviation(raw, args.y)
    if args.json:
        print(
            json.dumps(
                {
                    "y": args.y,
                    "n": args.n,
                    "max_deviation": dev,
                    "raw_max_deviation": raw_dev,
                    "within_tol": dev <= args.tol,
                    "composite_head": [[c.real, c.imag] for c in map(complex, comp[:3])],
                }
            )
        )
    else:
        print(f"certified embedding of z -> z e^(i {args.y}) at n = {args.n}")
        _print_matrix(m, False)
        print(f"max deviation from the scaling diagonal: {dev:.3e} (tol {args.tol:g})")
        print(f"raw truncated-product route deviation: {raw_dev:.3e} (truncation-approximate)")
    return EXIT_OK


def _cmd_demo_adjoint(args) -> int:
    fam = scenarios.adjoint_family(args.n)
    chk = scenarios.adjoint_mu_check(args.n)
    at_one = linalg.gamma_probe(scenarios.adjoint_handle(Fraction(1)), args.n, 4 * args.n)
    at_half = linalg.gamma_probe(scenarios.adjoint_handle(Fraction(1, 2)), args.n, 4 * args.n)
    if args.json:
        print(
            json.dumps(
                {
                    "n": args.n,
                    "first_row": [str(fam.m_t.entry(1, j)) for j in range(1, args.n + 1)],
                    "mu": chk.to_json(),
                    "probe_at_1": at_one.to_json(),
                    "probe_at_1/2": at_half.to_json(),
                }
            )
        )
    else:
        row = "  ".join(str(fam.m_t.entry(1, j)) for j in range(1, args.n + 1))
        print(f"M_t first row: {row}")
        print(f"M_t M_t' = M_(t + t' - t t'): {'holds' if chk.ok else 'FAILS'}  residual {chk.residual}")
        print(f"probe at t = 1: {at_one.verdict} ({at_one.certificate})")
        print(f"probe at t = 1/2: {at_half.verdict}")
    return EXIT_OK


def _cmd_demo_olver(args) -> int:
    rep = localgroup.associativity_demo()
    if args.json:
        print(json.dumps(rep.to_json()))
    else:
        print(f"triangle a {rep.a}, b {rep.b}, c {rep.c}; winding around the puncture: {rep.triangle_winding}")
        print(
            f"(a b) c : base {rep.left.z}, theta {rep.left.theta / math.pi:.4f} pi, sheet {rep.sheet_left}"
        )
        print(
            f"a (b c) : base {rep.right.z}, theta {rep.right.theta / math.pi:.4f} pi, sheet {rep.sheet_right}"
        )
        if rep.broken:
            print(f"global associativity broken: sheets {rep.sheet_left} vs {rep.sheet_right}")
        else:
            print("associativity held on this configuration")
    return EXIT_OK


def _cmd_goldens(args) -> int:
    results = goldens.verify_goldens()
    ok = all(r.ok for r in results)
    if args.json:
        print(json.dumps({"ok": ok, "fixtures": [r.to_json() for r in results]}))
    else:
        for r in results:
            print(f"{r.name}: {'ok' if r.ok else 'MISMATCH'}")
            if r.note:
                print(f"  note: {r.note}")
            for (i, j, e, c) in r.mismatches:
                print(f"  entry ({i},{j}): expected {e}, computed {c}")
    return EXIT_OK if ok else EXIT_MALFORMED


def build_parser() -> _Parser:
    parser = _Parser(prog="carleman", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n_default=8):
        p.add_argument("--n", type=int, default=n_default, help="truncation window")
        p.add_argument("--json", action="store_true", help="structured JSON output")

    p = sub.add_parser("embed", help="coefficient-matrix embedding of a series")
    common(p)
    p.add_argument("--builtin", help="builtin series name (translation:a for shifts)")
    p.add_argument("--series", help="series JSON file")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("compose", help="compose two series (outer inner)")
    common(p)
    p.add_argument("outer", help="builtin name or series JSON path")
    p.add_argument("inner", help="builtin name or series JSON path")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("invert", help="compositional inverse of a series")
    common(p)
    p.add_argument("--builtin", help="builtin series name")
    p.add_argument("--series", help="series JSON file")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("plu", help="exact PLU decomposition of a rational matrix")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_plu)

    p = sub.add_parser("sigmadet", help="leading-minor sequence of a handle")
    p.add_argument("--handle", required=True, help="handle spec (geometric, pascal, adjoint:t, ...)")
    p.add_argument("--count", type=_positive_int, default=5)
    p.add_argument("--pi1", help="row permutation prefix, comma separated")
    p.add_argument("--pi2", help="column permutation prefix, comma separated")
    p.add_argument("--beta", help="block injection prefix, comma separated")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sigmadet)

    p = sub.add_parser("gamma-probe", help="kernel probe of a handle")
    p.add_argument("--handle", help="handle spec")
    p.add_argument("--t", help="shorthand: probe the conjugated family at this rational t")
    p.add_argument("--n-cols", type=_positive_int, default=8)
    p.add_argument("--row-budget", type=int, default=32)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gamma_probe)

    p = sub.add_parser("latent", help="lower x upper (latent) split of an embedding")
    common(p, n_default=6)
    p.add_argument("--builtin", help="builtin series name")
    p.add_argument("--series", help="series JSON file")
    p.add_argument("--probe", action="store_true", help="probe every junction entrywise")
    p.add_argument("--window", type=_positive_int, default=4)
    p.add_argument("--kmax", type=_positive_int, default=convergence.DEFAULT_K_MAX)
    p.add_argument("--tail-window", type=_positive_int, default=convergence.DEFAULT_WINDOW)
    p.add_argument("--floor", default="1", help="divergence floor (rational)")
    p.set_defaults(func=_cmd_latent)

    p = sub.add_parser("probe", help="probe one entry of a latent product")
    p.add_argument("--left", required=True, help="left handle spec")
    p.add_argument("--right", required=True, help="right handle spec")
    p.add_argument("--entry", required=True, type=_entry, help="i,j (1-based)")
    p.add_argument("--kmax", type=_positive_int, default=convergence.DEFAULT_K_MAX)
    p.add_argument("--tail-window", type=_positive_int, default=convergence.DEFAULT_WINDOW)
    p.add_argument("--floor", default="1")
    p.add_argument("--require-convergence", action="store_true",
                   help="exit 3 if the entry is classified divergent")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("demo", help="worked scenarios")
    demo_sub = p.add_subparsers(dest="demo", required=True)

    pc = demo_sub.add_parser("circle", help="rotation scaling via the log/exp conjugation")
    pc.add_argument("--y", type=float, default=0.5)
    pc.add_argument("--n", type=int, default=8)
    pc.add_argument("--tol", type=float, default=1e-9)
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=_cmd_demo_circle)

    pa = demo_sub.add_parser("adjoint", help="conjugated one-parameter family")
    pa.add_argument("--n", type=int, default=8)
    pa.add_argument("--json", action="store_true")
    pa.set_defaults(func=_cmd_demo_adjoint)

    po = demo_sub.add_parser("olver", help="associativity failure on the covering space")
    po.add_argument("--json", action="store_true")
    po.set_defaults(func=_cmd_demo_olver)

    p = sub.add_parser("goldens", help="pinned reference blocks")
    golden_sub = p.add_subparsers(dest="goldens_cmd", required=True)
    pv = golden_sub.add_parser("verify", help="recompute and compare all fixtures")
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=_cmd_goldens)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    try:
        try:
            return args.func(args)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`| head`) after taking what it wanted; that
        # outranks what the command went on to find. Point stdout at devnull so
        # the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except DivergenceDetected as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENT
    except UndefinedOperation as exc:
        print(f"undefined operation: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except (ValueError, OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
