import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from math import comb
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from carleman import cli, series
from carleman.cli import EXIT_DIVERGENT, EXIT_MALFORMED, EXIT_OK, EXIT_UNDEFINED
from carleman.scalars import format_rational
from oracles import laplace_det


def run(capsys, *argv):
    code = cli.dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEmbed:
    def test_geometric_block(self, capsys):
        code, out, _ = run(capsys, "embed", "--builtin", "geometric", "--n", "6")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[1].split() == ["1", "-1", "1", "-1", "1", "-1"]
        assert lines[4].split() == ["1", "-4", "10", "-20", "35", "-56"]

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "embed", "--builtin", "h", "--n", "4", "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["domain"] == "rational"
        assert data["rows"][1] == ["0", "-1", "1", "-1"]

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "embed", "--builtin", "nope", "--n", "4")
        assert code == EXIT_MALFORMED
        assert "unknown builtin" in err

    def test_byte_determinism(self, capsys):
        _, first, _ = run(capsys, "embed", "--builtin", "geometric", "--n", "8")
        _, second, _ = run(capsys, "embed", "--builtin", "geometric", "--n", "8")
        assert first == second


class TestCompose:
    def test_translation_after_h(self, capsys):
        code, out, _ = run(capsys, "compose", "translation:1", "h", "--n", "6", "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["coeffs"] == ["1", "-1", "1", "-1", "1", "-1", "1"]

    def test_incompatible_pair_exits_2(self, capsys):
        code, _, err = run(capsys, "compose", "h", "geometric", "--n", "6")
        assert code == EXIT_UNDEFINED
        assert "undefined operation" in err

    def test_series_file(self, tmp_path, capsys):
        g = series.builtin_series("h", 6)
        path = tmp_path / "h.json"
        path.write_text(json.dumps(series.series_to_json(g)))
        code, out, _ = run(capsys, "compose", str(path), str(path), "--n", "6", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["coeffs"] == ["0", "1", "0", "0", "0", "0", "0"]


class TestInvert:
    def test_geometric(self, capsys):
        code, out, _ = run(capsys, "invert", "--builtin", "geometric", "--n", "6", "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["base_point"] == "1"
        assert data["coeffs"] == ["0", "-1", "1", "-1", "1", "-1", "1"]


class TestPlu:
    def test_round_trip(self, tmp_path, capsys):
        matrix = {
            "n": 2,
            "domain": "rational",
            "rows": [["0", "1"], ["1", "0"]],
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix))
        code, out, _ = run(capsys, "plu", "--matrix", str(path), "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["permutation"] == [2, 1]
        assert data["L"]["rows"] == [["1", "0"], ["0", "1"]]

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "plu", "--matrix", str(path))
        assert code == EXIT_MALFORMED

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "plu", "--matrix", "/nonexistent.json")
        assert code == EXIT_MALFORMED


class TestSigmaDet:
    def test_geometric(self, capsys):
        code, out, _ = run(capsys, "sigmadet", "--handle", "geometric", "--count", "3")
        assert code == EXIT_OK
        assert out.split() == ["1", "-1", "-1"]

    def test_permuted(self, capsys):
        code, out, _ = run(
            capsys, "sigmadet", "--handle", "pascal", "--count", "2", "--pi1", "2,1"
        )
        assert code == EXIT_OK
        assert out.split() == ["1", "-1"]


    def test_open_prefix_continues_with_unused_rows(self, capsys):
        # --pi1 3 reads rows 3, 1, 2, 4 of the Pascal matrix C(i-1, j-1)
        rows = [[F(comb(i - 1, j - 1)) for j in range(1, 5)] for i in (3, 1, 2, 4)]
        expected = [laplace_det([r[:k] for r in rows[:k]]) for k in range(1, 5)]
        code, out, _ = run(capsys, "sigmadet", "--handle", "pascal", "--count", "4", "--pi1", "3")
        assert code == EXIT_OK
        assert out.split() == [format_rational(d) for d in expected] == ["1", "-2", "1", "1"]


class TestGammaProbe:
    def test_certified_at_one(self, capsys):
        code, out, _ = run(capsys, "gamma-probe", "--t", "1", "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["verdict"] == "KERNEL-CERTIFIED"
        assert data["vector"] == {"1": "1"}
        assert data["certificate"] == "zero-column"

    def test_handle_spec(self, capsys):
        code, out, _ = run(capsys, "gamma-probe", "--handle", "pascal")
        assert code == EXIT_OK
        assert "NO-OBSTRUCTION" in out

    def test_requires_argument(self, capsys):
        code, _, err = run(capsys, "gamma-probe")
        assert code == EXIT_MALFORMED


class TestLatent:
    def test_factors(self, capsys):
        code, out, _ = run(capsys, "latent", "--builtin", "geometric", "--n", "6", "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["junctions"] == ["performed", "latent"]
        assert data["factors"][0]["kind"] == "translation"

    def test_probe(self, capsys):
        code, out, _ = run(capsys, "latent", "--builtin", "geometric", "--n", "6", "--probe", "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["report"]["window"] == 4
        assert data["report"]["counts"]["finite-exact"] == 32


class TestProbe:
    def test_divergent_reported(self, capsys):
        code, out, _ = run(
            capsys, "probe", "--left", "h", "--right", "inverse-pascal", "--entry", "2,1"
        )
        assert code == EXIT_OK
        assert "divergent-terms-dont-vanish" in out

    def test_require_convergence_exits_3(self, capsys):
        code, _, err = run(
            capsys,
            "probe", "--left", "h", "--right", "inverse-pascal",
            "--entry", "2,1", "--require-convergence",
        )
        assert code == EXIT_DIVERGENT
        assert "divergence" in err

    def test_finite_exact_ok(self, capsys):
        code, out, _ = run(
            capsys,
            "probe", "--left", "pascal", "--right", "expm1",
            "--entry", "3,3", "--require-convergence",
        )
        assert code == EXIT_OK
        assert "finite-exact" in out

    def test_bad_entry(self, capsys):
        code, _, _ = run(capsys, "probe", "--left", "h", "--right", "pascal", "--entry", "x,y")
        assert code == EXIT_MALFORMED


class TestDemos:
    def test_circle(self, capsys):
        code, out, _ = run(capsys, "demo", "circle", "--y", "0.5", "--n", "8", "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["within_tol"] is True
        assert data["max_deviation"] < 1e-9

    def test_circle_outside_arc(self, capsys):
        code, _, err = run(capsys, "demo", "circle", "--y", "1.2")
        assert code == EXIT_UNDEFINED

    def test_adjoint(self, capsys):
        code, out, _ = run(capsys, "demo", "adjoint", "--n", "6", "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["mu"]["ok"] is True
        assert data["first_row"][0] == "1 - t"
        assert data["probe_at_1"]["verdict"] == "KERNEL-CERTIFIED"

    def test_olver(self, capsys):
        code, out, _ = run(capsys, "demo", "olver")
        assert code == EXIT_OK
        assert "global associativity broken: sheets 1 vs 0" in out


class TestGoldens:
    def test_verify(self, capsys):
        code, out, _ = run(capsys, "goldens", "verify")
        assert code == EXIT_OK
        assert out.count("ok") >= 5
        assert "7/12" in out  # discrepancy notice is printed

    def test_verify_json(self, capsys):
        code, out, _ = run(capsys, "goldens", "verify", "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["ok"] is True
        names = {f["name"] for f in data["fixtures"]}
        assert names == {"geometric", "pascal", "h", "ln1p", "exp0"}


class TestParser:
    def test_help_exits_zero(self, capsys):
        assert cli.dispatch(["--help"]) == 0

    def test_no_command(self, capsys):
        assert cli.dispatch([]) == EXIT_MALFORMED

    def test_unknown_command(self, capsys):
        assert cli.dispatch(["frobnicate"]) == EXIT_MALFORMED


MALFORMED = [
    ("probe", "--left", "h", "--right", "translation:-1", "--entry", "0,1"),
    ("probe", "--left", "h", "--right", "pascal", "--entry", "1,2,3"),
    ("embed", "--builtin", "translation:1/0"),
    ("gamma-probe", "--handle", "adjoint:1/0"),
    ("gamma-probe", "--t", "1/0"),
    ("latent", "--builtin", "h", "--probe", "--floor", "1/0"),
    ("embed", "--series", "{zero_denominator}"),
    ("demo", "circle", "--y", "nan"),
    ("demo", "circle", "--y", "inf"),
    ("demo", "circle", "--tol", "0"),
    ("demo", "circle", "--tol", "-1e-9"),
    ("gamma-probe", "--t", "1", "--n-cols", "0"),
    ("sigmadet", "--handle", "pascal", "--count", "0"),
    ("latent", "--builtin", "h", "--probe", "--kmax", "0"),
    ("latent", "--builtin", "h", "--probe", "--tail-window", "-1"),
    ("latent", "--builtin", "h", "--probe", "--window", "0"),
    ("probe", "--left", "h", "--right", "pascal", "--entry", "2,1", "--kmax", "0"),
    ("probe", "--left", "h", "--right", "pascal", "--entry", "2,1", "--tail-window", "0"),
    ("plu", "--matrix", "{complex_cell}"),
    ("plu", "--matrix", "{string_rows}"),
]

MALFORMED_FILES = {
    "zero_denominator": {"base_point": "0", "coeffs": ["0", "1/0", "1"]},
    "complex_cell": {"rows": [["1", "1+2j"], ["0", "1"]]},
    "string_rows": {"rows": "ab"},
}


def write_files(tmp_path, contents):
    paths = {}
    for name, data in contents.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    return paths


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_input_is_one_error_line(argv, tmp_path, capsys):
    paths = write_files(tmp_path, MALFORMED_FILES)
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == EXIT_MALFORMED
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# an operation asked for outside its domain: exit 2 and one line naming why
UNDEFINED = [
    (("compose", "h", "geometric", "--n", "6"), "differs from source"),
    (("demo", "circle", "--y", "1.2"), "outside the certified arc"),
    (("demo", "circle", "--y", "1e-320", "--tol", "1e-300"), "200-term budget"),
]


@pytest.mark.parametrize("argv,reason", UNDEFINED, ids=[" ".join(a) for a, _ in UNDEFINED])
def test_undefined_operation_is_one_line_exit_2(argv, reason, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_UNDEFINED, "")
    assert err.startswith("undefined operation: ") and err.count("\n") == 1
    assert reason in err


CLOSED_STDOUT = [
    ("embed", "--builtin", "geometric", "--n", "6"),
    # prints its report, then fails the convergence requirement
    ("probe", "--left", "h", "--right", "inverse-pascal", "--entry", "2,1", "--require-convergence"),
]


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", CLOSED_STDOUT, ids=lambda argv: argv[0])
def test_closed_stdout_exits_0_silently(argv, unbuffered):
    # the reader's end is closed before the command starts, so its first
    # write to stdout (or the flush of its buffered output) meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered, PYTHONPATH=src)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "carleman.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")


def test_malformed_matrix_file_names_the_file_and_the_cell(tmp_path, capsys):
    paths = write_files(tmp_path, MALFORMED_FILES)
    _, _, err = run(capsys, "plu", "--matrix", str(paths["complex_cell"]))
    assert err == (
        f"error: {paths['complex_cell']}: matrix cell (1, 2): "
        "Invalid literal for Fraction: '1+2j'\n"
    )
    _, _, err = run(capsys, "plu", "--matrix", str(paths["string_rows"]))
    assert err == (
        f"error: {paths['string_rows']}: malformed matrix JSON: rows must be a list of lists\n"
    )


# Exact stdout of the elimination commands, recorded before the fraction-free
# core replaced the fraction loops; the matrix needs a row swap at column 1 and
# a reduced zero at column 2, and `expm1 --pi1 2,1` has a vanishing first minor.
# The embed, latent and circle commands were recorded before matrix structure
# became declared by each window's producer; `latent` prints structure tags.
# The olver rows were recorded while sheets still came from float angle sums.
PLU_MATRIX = {
    "n": 4,
    "domain": "rational",
    "rows": [
        ["0", "0", "1", "2/3"],
        ["3/2", "2", "3", "-4"],
        ["2", "8/3", "1/3", "5/7"],
        ["1/3", "1", "-1/2", "1"],
    ],
}

# a series whose constant term is not 0, so its embedding is declared general
SHIFTED_SERIES = {"base_point": "1/2", "coeffs": ["3/4", "2", "-1/3", "5/7", "0", "1", "-2"]}

PINNED = [
    (
        ("plu", "--matrix", "{matrix}"),
        "P prefix: 2 4 1 3\nL:\n  1  0      0  0\n2/9  1      0  0\n  0  0      1  0\n"
        "4/3  0  -11/3  1\nU:\n3/2    2     3      -4\n  0  5/9  -7/6    17/9\n"
        "  0    0     1     2/3\n  0    0     0  535/63\n",
    ),
    (
        ("plu", "--matrix", "{matrix}", "--json"),
        '{"permutation": [2, 4, 1, 3], "L": {"n": 4, "domain": "rational", '
        '"truncation_exact": true, "rows": [["1", "0", "0", "0"], ["2/9", "1", "0", "0"], '
        '["0", "0", "1", "0"], ["4/3", "0", "-11/3", "1"]]}, "U": {"n": 4, '
        '"domain": "rational", "truncation_exact": true, "rows": [["3/2", "2", "3", "-4"], '
        '["0", "5/9", "-7/6", "17/9"], ["0", "0", "1", "2/3"], ["0", "0", "0", "535/63"]]}}\n',
    ),
    (("sigmadet", "--handle", "geometric"), "1 -1 -1 1 1\n"),
    (("sigmadet", "--handle", "ln1p"), "1 1 1 1 1\n"),
    (("sigmadet", "--handle", "adjoint:1/2"), "1/2 1/2 1/2 1/2 1/2\n"),
    (("sigmadet", "--handle", "pascal", "--count", "2", "--pi1", "2,1", "--beta", "1,3"), "1 -1\n"),
    (("sigmadet", "--handle", "h", "--count", "6", "--json"),
     '{"determinants": ["1", "-1", "-1", "1", "1", "-1"]}\n'),
    (("sigmadet", "--handle", "expm1", "--count", "6", "--pi1", "2,1"), "0 -1 -1 -1 -1 -1\n"),
    (("sigmadet", "--handle", "geometric", "--count", "7", "--pi1", "3,1,2", "--pi2", "2,1"),
     "-2 -2 1 -1 -1 1 1\n"),
    (("gamma-probe", "--t", "1"),
     "KERNEL-CERTIFIED  vector {'1': '1'}  certificate zero-column  rows_checked 8\n"),
    (("gamma-probe", "--t", "1/2", "--json"),
     '{"verdict": "NO-OBSTRUCTION", "rows_checked": 32, "n_cols": 8}\n'),
    (("gamma-probe", "--handle", "pascal"), "NO-OBSTRUCTION  rows_checked 32\n"),
    (("gamma-probe", "--handle", "ln1p", "--n-cols", "5", "--json"),
     '{"verdict": "NO-OBSTRUCTION", "rows_checked": 32, "n_cols": 5}\n'),
    (
        ("embed", "--series", "{series}", "--n", "6", "--json"),
        '{"n": 6, "domain": "rational", "truncation_exact": true, "rows": [["1", "0", '
        '"0", "0", "0", "0"], ["3/4", "2", "-1/3", "5/7", "0", "1"], ["9/16", "3", '
        '"7/2", "-11/42", "187/63", "43/42"], ["27/64", "27/8", "135/16", "695/112", '
        '"75/28", "473/48"], ["81/256", "27/8", "207/16", "2319/112", "785/56", '
        '"5755/336"], ["243/1024", "405/128", "4185/256", "72585/1792", "11205/224", '
        '"78019/1792"]]}\n'
    ),
    (
        ("embed", "--builtin", "translation:3/2", "--n", "5"),
        '    1     0     0  0  0\n'
        '  3/2     1     0  0  0\n'
        '  9/4     3     1  0  0\n'
        ' 27/8  27/4   9/2  1  0\n'
        '81/16  27/2  27/2  6  1\n'
    ),
    (
        ("latent", "--builtin", "geometric", "--n", "6"),
        "factor 1: lower-unipotent  {'kind': 'translation', 'a': '1'}\n"
        '  -- junction 1: performed\n'
        "factor 2: upper  {'kind': 'carleman-of', 'series': {'base_point': '0', "
        "'coeffs': ['0', '-1', '1', '-1', '1', '-1']}}\n"
        '  -- junction 2: latent\n'
        "factor 3: diagonal  {'kind': 'translation', 'a': '0'}\n"
    ),
    (
        ("demo", "circle"),
        'certified embedding of z -> z e^(i 0.5) at n = 8\n'
        '           +1+0j                      +0+0j                      '
        '+0+0j                      +0+0j                      '
        '+0+0j                      +0+0j                      '
        '+0+0j                      +0+0j\n'
        ' +0-5.55112e-17j        +0.877583+0.479426j  -1.14729e-16-7.90446e-16j  '
        '-2.67535e-17+1.25324e-15j   +1.12176e-16-1.2235e-15j   '
        '-5.53036e-17+7.4023e-16j    +2.9677e-18-2.5435e-16j  '
        '+1.46066e-18+3.73657e-17j\n'
        ' -3.08149e-33-0j  +5.32269e-17-9.74312e-17j        +0.540302+0.841471j  '
        '+5.56551e-16-1.49737e-15j  -1.24863e-15+2.17399e-15j  '
        '+1.37004e-15-2.03989e-15j   -8.06838e-16+1.2462e-15j   '
        '+2.49092e-16-4.4358e-16j\n'
        ' -0+1.71057e-49j  -8.11278e-33-4.43203e-33j  +1.40133e-16-8.99784e-17j       '
        '+0.0707372+0.997495j  +1.80945e-15-1.57086e-15j  -3.20706e-15+1.96385e-15j  '
        '+3.27045e-15-1.70001e-15j  -1.95829e-15+1.06024e-15j\n'
        ' +9.49557e-66+0j  -3.28036e-49+6.00466e-49j  -9.98961e-33-1.55579e-32j  '
        '+2.21488e-16-1.57068e-17j        -0.416147+0.909297j   '
        '+3.1214e-15-6.81423e-16j  -5.00797e-15+2.47856e-16j   '
        '+4.91349e-15+1.0139e-16j\n'
        '  +0-5.2711e-82j  +4.16657e-65+2.27621e-65j  -1.43939e-48+9.24225e-49j  '
        '-2.17976e-33-3.07377e-32j  +2.52381e-16+1.15504e-16j        '
        '-0.801144+0.598472j  +3.83247e-15+1.12309e-15j  -5.64217e-15-2.72929e-15j\n'
        ' -2.92605e-98-0j  +1.51626e-81-2.77549e-81j  +7.69572e-65+1.19854e-64j  '
        '-3.41257e-48+2.42002e-49j  +1.92353e-32-4.20298e-32j  '
        '+1.99331e-16+2.66834e-16j         -0.989992+0.14112j  '
        '+3.38985e-15+3.38759e-15j\n'
        '-0+1.62428e-114j  -1.79749e-97-9.81975e-98j   +9.3145e-81-5.98077e-81j  '
        '+2.35091e-65+3.31512e-64j  -5.44396e-48-2.49147e-48j   '
        '+5.1843e-32-3.87279e-32j  +5.48361e-17+3.84689e-16j        '
        '-0.936457-0.350783j\n'
        'max deviation from the scaling diagonal: 6.268e-15 (tol 1e-09)\n'
        'raw truncated-product route deviation: 9.148e+04 (truncation-approximate)\n'
    ),
    (
        ("demo", "olver"),
        'triangle a (-2.0, 1.0), b (0.0, -2.0), c (2.0, 1.0); winding around the puncture: 1\n'
        '(a b) c : base (0.0, 0.0), theta 2.0000 pi, sheet 1\n'
        'a (b c) : base (0.0, 0.0), theta 0.0000 pi, sheet 0\n'
        'global associativity broken: sheets 1 vs 0\n'
    ),
    (
        ("demo", "olver", "--json"),
        '{"a": [-2.0, 1.0], "b": [0.0, -2.0], "c": [2.0, 1.0], "left_base": [0.0, 0.0], '
        '"right_base": [0.0, 0.0], "left_theta_over_pi": 2.0, "right_theta_over_pi": 0.0, '
        '"sheet_left": 1, "sheet_right": 0, "triangle_winding": 1, "broken": true}\n'
    ),
]


@pytest.mark.parametrize("argv,expected", PINNED, ids=[" ".join(a) for a, _ in PINNED])
def test_elimination_stdout_is_pinned(argv, expected, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(PLU_MATRIX))
    shifted = tmp_path / "shifted.json"
    shifted.write_text(json.dumps(SHIFTED_SERIES))
    code, out, err = run(capsys, *(a.format(matrix=path, series=shifted) for a in argv))
    assert (code, out, err) == (EXIT_OK, expected, "")


def test_exhausted_block_injection_is_one_error_line(capsys):
    code, out, err = run(capsys, "sigmadet", "--handle", "pascal", "--pi1", "2,1", "--beta", "1,3")
    assert (code, out, err) == (EXIT_MALFORMED, "", "error: block injection prefix exhausted\n")


FUZZ_FILES = {
    "series.json": json.dumps(SHIFTED_SERIES),
    "matrix.json": json.dumps(PLU_MATRIX),
    "cut.json": '{"rows": [["1", ',
    "list.json": "[]",
    "ragged.json": '{"rows": [["1", "2"], ["3"]]}',
    "zero-den.json": '{"base_point": "0", "coeffs": ["1/0", "1"], "rows": [["1/0"]]}',
    "types.json": '{"base_point": [], "coeffs": "x", "rows": 5, "n": "2"}',
    "complex.json": '{"base_point": [0, 1], "coeffs": [[1, 0], [0.5, 2]], "rows": [[[1, 2]]]}',
    "infinite.json": '{"base_point": [Infinity, 0], "coeffs": [[Infinity, 0], [1, 0], [0, 0], [0, 0]]}',
    "nan.json": '{"base_point": "0", "coeffs": ["0", [NaN, 0], "1"], "rows": [[[NaN, 0]]]}',
}
FUZZ_SCALARS = ("1", "-1/2", "0", "3/4", "1/0", "abc", "1e400", "2j", "nan", "inf", "", "-")
FUZZ_LISTS = ("1,2", "2,1", "3", "0,0", "-1,2", "a,b", "1,2,3", "", ",")
FUZZ_NAMES = ("identity", "geometric", "h", "ln1p", "expm1", "pascal", "inverse-pascal", "nope")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FUZZ_FILES.items():
        (root / name).write_text(text)
    return root


@st.composite
def fuzz_argv(draw, root):
    size = st.one_of(st.integers(-2, 12).map(str), st.sampled_from(("x", "1.5", "")))
    scalar = st.sampled_from(FUZZ_SCALARS)
    path = st.sampled_from(sorted(FUZZ_FILES) + ["absent.json"]).map(lambda f: str(root / f))
    name = st.one_of(
        st.sampled_from(FUZZ_NAMES),
        scalar.map("translation:{}".format),
        scalar.map("adjoint:{}".format),
    )
    source = st.one_of(
        st.tuples(st.just("--builtin"), name), st.tuples(st.just("--series"), path), st.just(())
    )

    def opt(flag, values):
        return draw(st.one_of(st.just(()), values.map(lambda v: (flag, v))))

    def switch(flag):
        return draw(st.sampled_from(((), (flag,))))

    cmd = draw(st.sampled_from((
        "embed", "compose", "invert", "plu", "sigmadet", "gamma-probe", "latent",
        "probe", "demo circle", "demo adjoint", "demo olver", "goldens verify",
    )))
    argv = cmd.split()
    if cmd in ("embed", "invert", "latent"):
        argv += [*draw(source), "--n", draw(size)]
    if cmd == "compose":
        argv += [draw(st.one_of(name, path)), draw(st.one_of(name, path)), "--n", draw(size)]
    if cmd == "plu":
        argv += ["--matrix", draw(path)]
    if cmd == "sigmadet":
        argv += ["--handle", draw(name), "--count", draw(size)]
        for flag in ("--pi1", "--pi2", "--beta"):
            argv += opt(flag, st.sampled_from(FUZZ_LISTS))
    if cmd == "gamma-probe":
        argv += [*opt("--t", scalar), *opt("--handle", name)]
        argv += ["--n-cols", draw(size), "--row-budget", draw(size)]
    if cmd == "latent":
        argv += [*switch("--probe"), *opt("--window", size)]
    if cmd in ("latent", "probe"):
        argv += ["--kmax", draw(size), *opt("--floor", scalar)]
    if cmd == "probe":
        argv += ["--left", draw(name), "--right", draw(name), "--entry", draw(st.sampled_from(FUZZ_LISTS))]
        argv += switch("--require-convergence")
    if cmd == "demo circle":
        argv += [*opt("--y", scalar), "--n", draw(size), *opt("--tol", scalar)]
    if cmd == "demo adjoint":
        argv += ["--n", draw(size)]
    return argv + list(switch("--json"))


@given(st.data())
def test_fuzzed_argv_exits_with_a_code_and_at_most_one_error_line(fuzz_dir, data):
    argv = data.draw(fuzz_argv(fuzz_dir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    assert code in (EXIT_OK, EXIT_MALFORMED, EXIT_UNDEFINED, EXIT_DIVERGENT)
    assert err.getvalue().count("\n") <= 1


@pytest.mark.parametrize("amount", ["inf", "-infj", "nan", "1e400+1j"])
def test_non_finite_amount_is_one_error_line(amount, capsys):
    code, out, err = run(capsys, "probe", "--left", "h", "--right", f"translation:{amount}", "--entry", "2,1")
    assert (code, out, err) == (EXIT_MALFORMED, "", f"error: scalar {amount!r} is not finite\n")


NON_FINITE_SERIES = [
    ("latent", "--series", "{infinite}", "--n", "4", "--probe", "--kmax", "8"),
    ("embed", "--series", "{nan}", "--n", "3"),
]


@pytest.mark.parametrize("argv", NON_FINITE_SERIES, ids=lambda argv: argv[0])
def test_non_finite_series_file_is_one_error_line(argv, tmp_path, capsys):
    infinite, nan = tmp_path / "infinite.json", tmp_path / "nan.json"
    infinite.write_text(FUZZ_FILES["infinite.json"])
    nan.write_text(FUZZ_FILES["nan.json"])
    code, out, err = run(capsys, *(a.format(infinite=infinite, nan=nan) for a in argv))
    assert (code, out) == (EXIT_MALFORMED, "")
    assert err.startswith("error: scalar [") and err.endswith("is not finite\n") and err.count("\n") == 1


def test_cli_import_does_not_load_dataclasses():
    # dataclasses pulls in inspect, ast and tokenize: several ms on every CLI call
    src = str(Path(cli.__file__).parents[1])
    code = "import carleman.cli, sys; sys.exit('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0
