"""Tests of the benchmark itself, at a size of one cycle per workload.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's default test collection; a
run takes about a minute on two cores.
"""
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def bench(workload, seed, trace, cwd=ROOT):
    """One smoke run (a single cycle); returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_present_with_its_unit(workload, trace):
    code, lines = bench(workload, 1, trace)
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    if trace == 0:
        assert all(v > 0 for v in values)
    else:
        assert 0.98 <= result["metrics"]["trace.self_coverage"]["value"] <= 1.0 + 1e-9
    env = json.loads(lines[0])["env"]
    assert env["seed"] == 1 and 1 <= env["blas_threads"] <= env["nproc"]


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_second_seed_runs_clean(workload):
    code, lines = bench(workload, 2, 0)
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] is True and result["failed"] == 0, lines


def test_traced_run_leaves_no_wrapper(tmp_path):
    import monotensor
    import run

    t = tracer.Tracer()
    t.install(monotensor)
    try:
        installed = tracer.leftover_wrappers(monotensor)
        wl = workloads.QuotientSuite(3, str(tmp_path))
        t.active = True
        loop = run.Loop(wl, tracer=t)
        for op in wl.cycle(0)[:3]:
            loop.run_op(op)
        t.active = False
    finally:
        t.uninstall()
    assert loop.failed == 0
    assert {"cli.verify-cyclic closure", "moments.split_runs",
            "words.NCPolynomial.__mul__", "linalg.trace"} <= set(installed)
    assert {"cli", "words", "moments", "sampling"} <= {r.layer for r in t.records}
    assert tracer.leftover_wrappers(monotensor) == []
    assert monotensor.model.cyclic_moment is monotensor.moments.cyclic_moment


def test_same_seed_same_inputs(tmp_path):
    for name, cls in workloads.WORKLOADS.items():
        dirs = [tmp_path / f"{name}-{i}" for i in range(2)]
        for d in dirs:
            d.mkdir()
            cls(5, str(d)).cycle(1)
        files = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*.json"))
        assert files
        for f in files:
            assert (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes(), f


def test_checks_reject_wrong_output():
    good = "k,symbolic,matrix,residual,pass\n" + "".join(
        f"{k},1+0j,1+0j,0,true\n" for k in range(1, 6))
    assert workloads._verify_check([(0, good)]) is None
    assert workloads._verify_check([(0, good.replace("3,1+0j,1+0j", "3,1+0j,1.1+0j"))])
    assert workloads._verify_check([(1, good)])
    table = "n,l\n64,64\n128,128\n256,256\n{}\n"
    ok = table + "c_rate=1 bound_failures=[] slope=-1.0 band=(-1.1,-0.9)"
    assert workloads._haar_check([(0, ok)]) is None
    assert workloads._haar_check([(0, ok.replace("slope=-1.0", "slope=-0.5"))])
    assert workloads._haar_check([(0, ok.replace("=[]", "=[128]"))])


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("quotient_suite", 1, 0, cwd=str(tmp_path))
    assert code != 0 and lines == []
