"""Smoke tests of the benchmark itself: tiny sizes, correctness only.

    python -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import checks
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(RUN), *args], capture_output=True, text=True, cwd=cwd, timeout=170
    )


def test_smoke_every_workload_reports_its_declared_metrics():
    spec = _spec()
    proc = _run("--workload", "all", "--seed", "7", "--smoke")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0
    declared = {w["name"] for w in spec["workloads"]}
    assert set(out["summary"]["workloads"]) == declared
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, entry in out["summary"]["workloads"].items():
        untraced, traced = entry["untraced"], entry["traced"]
        assert {k: v["unit"] for k, v in untraced["metrics"].items()} == e2e, name
        assert {k: v["unit"] for k, v in traced["metrics"].items()} == layers, name
        assert untraced["attempted"] >= 1 and untraced["failed_frac"] == 0
        assert entry["trace_overhead"] > 0


def test_traced_counts_repeat_for_a_seed():
    runs = [_run("--workload", "latent-probe", "--seed", "3", "--smoke", "--trace", "1") for _ in range(2)]
    counts = []
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if not k.endswith("_s") and "share" not in k})
    assert counts[0] == counts[1]
    assert counts[0]["convergence.terms"] > 0


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in _spec()["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


TAMPER = """
import random, sys
sys.path.insert(0, "bench")
import jobs, run, spans
lib = run.fresh_import(jobs.SeriesEmbed.MODULES)
wl = jobs.SeriesEmbed(lib, random.Random(1), True, ".")
spec = wl.make_spec(("random", 4), 0)
out = wl.run(spec, spans.NULL)
assert wl.check(spec, out) is None
m1, m2, mc = out["emb"]
rows = [list(r) for r in mc.rows]
rows[2][3] += 1
out["emb"] = (m1, m2, lib.matrices.matrix_from_rows(rows))
assert wl.check(spec, out) is not None
"""


def test_a_tampered_output_fails_its_check():
    proc = subprocess.run([sys.executable, "-c", TAMPER], capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr


def test_host_factors_are_relative_to_the_reference_kernel_time():
    speed = run.HostSpeed()
    ref = run.HostSpeed.REFERENCE_S
    assert [speed.factor(ref), speed.factor(2 * ref)] == [1.0, 2.0]
    _, wall, local = speed.timed(sum, [1, 2])
    assert wall >= 0 and local > 0 and speed.last > 0


def test_oracles_reject_wrong_answers():
    g = [Fraction(0), Fraction(2), Fraction(-1, 3), Fraction(5, 4)]
    rows = checks.power_rows(g, 4, 3)
    assert rows[2] == checks.mul_trunc(g, g, 3)
    assert checks.compose_trunc([Fraction(0), Fraction(1), Fraction(0), Fraction(0)], g, 3) == g
    x = [Fraction(1), Fraction(-2), Fraction(3), Fraction(5)]
    transposed = [list(c) for c in zip(*rows)]
    product = [[sum((a * b for a, b in zip(r, s)), Fraction(0)) for s in rows] for r in rows]
    assert checks.freivalds_product(rows, transposed, product, x)
    product[1][2] += 1
    assert not checks.freivalds_product(rows, transposed, product, x)
    m = [[Fraction(2), Fraction(1, 2), Fraction(0)], [Fraction(1), Fraction(3), Fraction(-1)],
         [Fraction(0), Fraction(4, 3), Fraction(1)]]
    assert checks.to_mod(checks.cofactor_det(m)) == checks.det_mod(m)
    assert checks.rank_mod([m[0], m[1], [a + b for a, b in zip(m[0], m[1])]]) == 2
