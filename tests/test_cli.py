"""Command-line interface: exit codes, artifacts, reproducibility."""
import gc
import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest
from click.testing import CliRunner

from monotensor import cli
from monotensor import haar as haar_module
from monotensor import model as model_module
from monotensor.cli import main

SPEC_OBJ = {
    "n": 3,
    "q": 1,
    "poly": "a1 + b1 a1 b1",
    "a": [{"eigenvalues": [0.5, 0.25, 0.125]}],
}


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_OBJ))
    return str(path)


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.output


@pytest.mark.parametrize("cmd", ["model", "tables"])
def test_in_process_calls_keep_no_memory(runner, spec_file, cmd):
    # An in-process caller swaps sys.stdout on every call; the CLI must not
    # keep a stream (or anything else) per call.
    args = [cmd, "--spec", spec_file] if cmd == "model" else [cmd]
    calls = 300
    for _ in range(20):
        runner.invoke(main, args)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(calls):
            assert runner.invoke(main, args).exit_code == 0
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept / calls < 200


def test_tables_writes_utf8_under_an_ascii_locale(runner):
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONIOENCODING": "ascii", "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "monotensor.cli", "tables"],
                          env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "°".encode() in proc.stdout
    assert proc.stdout == runner.invoke(main, ["tables"]).stdout.encode()


def test_example_passes(runner):
    result = runner.invoke(main, ["example"])
    assert result.exit_code == 0
    assert "eigenvalue" in result.output
    assert "0.5" in result.output


def test_example_json_format(runner):
    result = runner.invoke(main, ["example", "--format", "json"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["ok"] is True
    assert obj["x_eigenvalues"][0] == 0.5


# The example's stdout byte for byte: the compressed model must give
# exactly the spectra of the dense Kronecker matrices.
EXAMPLE_GOLDEN = {
    ("default", "csv"): (
        "matrix,index,eigenvalue,expected\n"
        "x,0,0.5,0.5\nx,1,0.5,0.5\nx,2,0.25,0.25\nx,3,0.25,0.25\n"
        "x,4,0.125,0.125\nx,5,0.125,0.125\n"
        "y,0,0.5,0.5\ny,1,0.25,0.25\ny,2,0.125,0.125\n"
        "y,3,-0.125,-0.125\ny,4,-0.25,-0.25\ny,5,-0.5,-0.5\n"
    ),
    ("default", "json"): (
        '{"ok":true,"x_eigenvalues":[0.5,0.5,0.25,0.25,0.125,0.125],'
        '"x_expected":[0.5,0.5,0.25,0.25,0.125,0.125],'
        '"y_eigenvalues":[0.5,0.25,0.125,-0.125,-0.25,-0.5],'
        '"y_expected":[0.5,0.25,0.125,-0.125,-0.25,-0.5]}\n'
    ),
    ("-0.3,2.5,0,7", "csv"): (
        "matrix,index,eigenvalue,expected\n"
        "x,0,7,7\nx,1,7,7\nx,2,2.5,2.5\nx,3,2.5,2.5\nx,4,0,0\nx,5,0,0\n"
        "x,6,-0.29999999999999999,-0.29999999999999999\n"
        "x,7,-0.29999999999999999,-0.29999999999999999\n"
        "y,0,7,7\ny,1,2.5,2.5\ny,2,0.29999999999999999,0.29999999999999999\n"
        "y,3,0,-0\ny,4,0,0\ny,5,-0.29999999999999999,-0.29999999999999999\n"
        "y,6,-2.5,-2.5\ny,7,-7,-7\n"
    ),
    ("-0.3,2.5,0,7", "json"): (
        '{"ok":true,"x_eigenvalues":[7.0,7.0,2.5,2.5,0.0,0.0,-0.3,-0.3],'
        '"x_expected":[7.0,7.0,2.5,2.5,0.0,0.0,-0.3,-0.3],'
        '"y_eigenvalues":[7.0,2.5,0.3,0.0,0.0,-0.3,-2.5,-7.0],'
        '"y_expected":[7.0,2.5,0.3,-0.0,0.0,-0.3,-2.5,-7.0]}\n'
    ),
}


@pytest.mark.parametrize("eigenvalues,fmt", sorted(EXAMPLE_GOLDEN))
def test_example_golden_bytes(runner, eigenvalues, fmt):
    args = ["example", "--format", fmt]
    if eigenvalues != "default":
        args += ["--eigenvalues", eigenvalues]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert result.stdout == EXAMPLE_GOLDEN[(eigenvalues, fmt)]


def test_example_rejects_bad_eigenvalues(runner):
    result = runner.invoke(main, ["example", "--eigenvalues", "zero"])
    assert result.exit_code == 2


def test_model_evaluates_state(runner, spec_file):
    result = runner.invoke(main, ["model", "--spec", spec_file, "--k", "2"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert abs(obj["value"][0] - 21.0 / 32.0) <= 1e-12

    result = runner.invoke(
        main, ["model", "--spec", spec_file, "--k", "2", "--state", "monotone"]
    )
    obj = json.loads(result.output)
    assert abs(obj["value"][0] - 21.0 / 64.0) <= 1e-12

    result = runner.invoke(
        main, ["model", "--spec", spec_file, "--state", "partial:3"]
    )
    obj = json.loads(result.output)
    assert abs(obj["value"][0] - 7.0 / 8.0) <= 1e-12


def test_model_rejects_unknown_state(runner, spec_file):
    result = runner.invoke(main, ["model", "--spec", spec_file, "--state", "spooky"])
    assert result.exit_code == 2


def test_verify_commands_pass(runner, spec_file):
    for cmd in ("verify-cyclic", "verify-monotone"):
        result = runner.invoke(main, [cmd, "--spec", spec_file, "--k-max", "4"])
        assert result.exit_code == 0, result.output
        assert result.output.count("true") == 4


def test_verify_accepts_k_alias(runner, spec_file):
    result = runner.invoke(main, ["verify-cyclic", "--spec", spec_file, "--k", "2"])
    assert result.exit_code == 0
    assert result.output.count("true") == 2


def test_verify_fails_on_contradictory_moments(runner, spec_file, tmp_path):
    moments = {
        "a_matrices": [
            {"rows": 3, "cols": 3,
             "re": [0.5, 0, 0, 0, 0.25, 0, 0, 0, 0.125]}
        ],
        "tau": {"1": 0.0, "11": 0.5},
    }
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(moments))
    result = runner.invoke(
        main, ["verify-cyclic", "--spec", spec_file, "--moments", str(path)]
    )
    assert result.exit_code == 1


def test_verify_exit_2_on_bad_spec(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = runner.invoke(main, ["verify-cyclic", "--spec", str(bad)])
    assert result.exit_code == 2
    result = runner.invoke(main, ["verify-cyclic", "--spec", str(tmp_path / "no.json")])
    assert result.exit_code == 2


def test_verify_quotient_randomized(runner):
    result = runner.invoke(
        main, ["verify-quotient", "--count", "5", "--right-factors", "5"]
    )
    assert result.exit_code == 0, result.output
    assert "annihilation" in result.output


def test_verify_quotient_fixed_spec(runner, spec_file):
    result = runner.invoke(main, ["verify-quotient", "--spec", spec_file])
    assert result.exit_code == 0, result.output


def test_limits_pass(runner, spec_file):
    result = runner.invoke(
        main, ["limits", "--spec", spec_file, "--k", "2", "--n", "3,6,12"]
    )
    assert result.exit_code == 0, result.output
    assert "value_re" in result.output


def test_tables_default_data(runner):
    result = runner.invoke(main, ["tables"])
    assert result.exit_code == 0, result.output
    # 16 cyclic cells + 16 monotone cells + header line.
    assert len(result.output.strip().splitlines()) == 33


def test_tables_json(runner):
    result = runner.invoke(main, ["tables", "--format", "json"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["ok"] is True
    assert obj["cyclic_pattern"][0] == ["+", "0", "0", "0"]


def test_haar_small_run(runner, tmp_path):
    out = tmp_path / "mc.csv"
    fit_out = tmp_path / "fit.json"
    args = [
        "haar", "--n", "8,16,32", "--trials", "40", "--seed", "7",
        "--output", str(out), "--fit-output", str(fit_out),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    fit = json.loads(fit_out.read_text())
    assert -1.6 <= fit["slope"] <= -0.7
    header = out.read_text().splitlines()[0]
    assert header.startswith("n,l,mean_re")


def test_haar_artifacts_are_byte_identical(runner, tmp_path):
    blobs = []
    for tag in ("one", "two"):
        out = tmp_path / f"{tag}.csv"
        fit_out = tmp_path / f"{tag}-fit.json"
        result = runner.invoke(main, [
            "haar", "--n", "8,16", "--trials", "20", "--seed", "11",
            "--output", str(out), "--fit-output", str(fit_out),
        ])
        assert result.exit_code == 0, result.output
        blobs.append((out.read_bytes(), fit_out.read_bytes()))
    assert blobs[0] == blobs[1]


def test_haar_rejects_bad_word(runner):
    result = runner.invoke(main, ["haar", "--word", "BB", "--n", "8"])
    assert result.exit_code == 2


def _no_trial(*_args, **_kwargs):
    raise AssertionError("a trial ran")


def test_haar_half_rejects_a_leading_b_before_any_trial(runner, monkeypatch):
    monkeypatch.setattr(haar_module, "sample_haar_rows", _no_trial)
    result = runner.invoke(main, ["haar", "--word", "BAB", "--l", "half", "--n", "8"])
    assert result.exit_code == 2, result.output
    assert "half" in result.output


def test_haar_fixed_l_near_n_on_a_leading_b_exits_2_before_any_trial(runner, monkeypatch):
    # At n = 32 a sum over l = 32 entries is the full trace, whose limit
    # is the cyclic moment, not the monotone target.
    monkeypatch.setattr(haar_module, "sample_haar_rows", _no_trial)
    result = runner.invoke(main, ["haar", "--word", "BAB", "--l", "32", "--n", "32,64"])
    assert result.exit_code == 2, result.output
    assert "2*l < 32" in result.output
    # Below half the smallest n the corner stays a corner.
    spec = haar_module.HaarWordSpec(
        word=haar_module.parse_word("BAB"),
        a_families=(haar_module.CornerFamily((0.5,)),),
        b_families=(haar_module.DiagPatternFamily((1.0,), (1.0,)),),
        n_list=(32, 64), l_rule=15,
    )
    assert spec.rows_needed(32) == 15


@pytest.mark.parametrize("args", [
    ["--n", "1000000000"],
    ["--word", "BAB", "--l", "40000", "--n", "100000"],
    # 10^11 trials keep 3.2 TB of values in the rows alone.
    ["--n", "8,16", "--trials", "100000000000"],
], ids=["huge-n", "leading-b-wide-corner", "huge-trials"])
def test_haar_above_the_memory_cap_exits_2_before_any_trial(runner, monkeypatch, args):
    monkeypatch.setattr(haar_module, "sample_haar_rows", _no_trial)
    # Realizing a b-family at n = 10^9 alone would take 8 GB.
    monkeypatch.setattr(haar_module, "realize_families", _no_trial)
    result = runner.invoke(main, ["haar", "--trials", "2", *args])
    assert result.exit_code == 2, result.output
    assert "memory cap" in result.output


def test_haar_family_file(runner, tmp_path):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({
        "a": [{"eigenvalues": [0.5, 0.25]}],
        "b": [{"values": [1.0, -1.0], "weights": [0.5, 0.5]}],
    }))
    result = runner.invoke(main, [
        "haar", "--n", "8,16", "--trials", "20", "--family", str(fam),
    ])
    assert result.exit_code in (0, 1)  # statistical outcome, not a crash
    assert "slope" in result.output


def test_verify_artifact_byte_identical(runner, spec_file, tmp_path):
    texts = []
    for tag in ("one", "two"):
        out = tmp_path / f"{tag}.csv"
        result = runner.invoke(main, [
            "verify-cyclic", "--spec", spec_file, "--output", str(out),
        ])
        assert result.exit_code == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    assert texts[0].decode().startswith("k,symbolic,matrix,residual,pass\n")


# Dyadic eigenvalues, Gaussian-integer coefficients and the orthonormal
# b-state make every value below exact, so the bytes depend on neither
# the BLAS nor the order of summation.
GOLDEN_SPEC = {
    "n": 3,
    "q": 2,
    "poly": [
        {"coeff_re": 1.0, "coeff_im": 1.0, "word": [["A", 1]]},
        {"coeff_re": 2.0, "coeff_im": -1.0, "word": [["B", 1], ["A", 1], ["B", 1]]},
        {"coeff_re": -1.0, "coeff_im": 0.0, "word": [["A", 1], ["Bc", [1, 2]], ["A", 1]]},
        {"coeff_re": 0.0, "coeff_im": 1.0, "word": [["B", 2], ["A", 1]]},
    ],
    "a": [{"eigenvalues": [0.5, 0.25, -0.125]}],
}

GOLDEN_OUTPUT = {
    "verify-cyclic": (
        "k,symbolic,matrix,residual,pass\n"
        "1,1.875+0j,1.875+0j,0,true\n"
        "2,0.984375-0.65625j,0.984375-0.65625j,0,true\n"
        "3,0-1.248046875j,0-1.248046875j,0,true\n"
        "4,-0.733154296875-1.599609375j,-0.733154296875-1.599609375j,0,true\n"
        "5,-1.35223388671875-1.448822021484375j,"
        "-1.35223388671875-1.448822021484375j,0,true\n"
    ),
    "verify-monotone": (
        "k,symbolic,matrix,residual,pass\n"
        "1,0.625+0.625j,0.625+0.625j,0,true\n"
        "2,0+0.65625j,0+0.65625j,0,true\n"
        "3,-0.27734375+0.27734375j,-0.27734375+0.27734375j,0,true\n"
        "4,-0.2666015625+0j,-0.2666015625+0j,0,true\n"
        "5,-0.1287841796875-0.1287841796875j,-0.1287841796875-0.1287841796875j,0,true\n"
    ),
    "verify-quotient": (
        "index,check,residual,pass\n"
        "0,cyclic,0,true\n"
        "0,monotone,0,true\n"
        "0,annihilation,0,true\n"
    ),
}


@pytest.mark.parametrize("cmd", sorted(GOLDEN_OUTPUT))
def test_golden_output_bytes(runner, tmp_path, cmd):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(GOLDEN_SPEC))
    args = [cmd, "--spec", str(path)]
    if cmd != "verify-quotient":
        args += ["--k-max", "5"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert result.stdout == GOLDEN_OUTPUT[cmd]


@pytest.mark.parametrize("args", [
    ["model", "--state", "partial:abc"],
    ["haar", "--slope-window", "1"],
    ["example", "--eigenvalues", ""],
    ["verify-quotient", "--right-factors", "-1"],
    ["verify-quotient", "--count", "-1"],
    ["limits", "--n", ","],
    ["verify-cyclic", "--k-max", "0"],
    ["verify-monotone", "--k-max", "-3", "--format", "json"],
    ["haar", "--c-rate", "nan"],
    ["haar", "--c-rate", "inf"],
    ["verify-cyclic", "--tolerance", "inf"],
    ["verify-monotone", "--tolerance", "nan"],
    ["verify-quotient", "--tolerance", "inf"],
    ["limits", "--tolerance", "-inf"],
], ids=["model-state", "haar-slope-window", "example-eigenvalues",
        "quotient-right-factors", "quotient-count", "limits-n",
        "verify-cyclic-k-max", "verify-monotone-k-max", "haar-c-rate-nan",
        "haar-c-rate-inf", "verify-cyclic-tolerance-inf",
        "verify-monotone-tolerance-nan", "quotient-tolerance-inf",
        "limits-tolerance-minus-inf"])
def test_malformed_input_exits_2_before_any_work(runner, spec_file, monkeypatch, args):
    def no_work(*_args, **_kwargs):
        raise AssertionError("work started on malformed input")

    for name in ("mc_estimate", "quotient_check", "evaluate_state", "limit_sweep"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setattr(model_module, "build_model", no_work)
    if args[0] in ("model", "limits", "verify-cyclic", "verify-monotone"):
        args = args + ["--spec", spec_file]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output


def test_oversized_expansion_exits_2_before_expanding(runner, tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({
        "n": 2, "q": 1, "poly": "a1 + a2",
        "a": [{"eigenvalues": [0.5, 0.25]}, {"eigenvalues": [0.25, 0.5]}],
    }))
    t0 = time.monotonic()
    for args in (["verify-cyclic", "--k-max", "40"], ["verify-monotone", "--k-max", "40"],
                 ["limits", "--k", "30"]):
        result = runner.invoke(main, args + ["--spec", str(path)])
        assert result.exit_code == 2, result.output
        assert "cap" in result.output
    assert time.monotonic() - t0 < 5.0


def test_long_words_reach_the_atom_cap_sooner(runner, tmp_path):
    # Two terms of seven atoms: the cap counts atoms, so these stop at a
    # lower power than a1 + a2 (k = 18), before anything is expanded.
    path = tmp_path / "long.json"
    path.write_text(json.dumps({
        "n": 2, "q": 1, "poly": "b1 a1 b1 a1 b1 a1 b1 + a1 b1 a1 b1 a1 b1 a1",
        "a": [{"eigenvalues": [0.5, 0.25]}],
    }))
    result = runner.invoke(main, ["verify-cyclic", "--k-max", "4", "--spec", str(path)])
    assert result.exit_code == 0, result.output
    t0 = time.monotonic()
    for k in ("16", "18"):
        result = runner.invoke(main, ["verify-cyclic", "--k-max", k, "--spec", str(path)])
        assert result.exit_code == 2, result.output
        assert "cap" in result.output
    assert time.monotonic() - t0 < 5.0


def test_spec_with_q_above_the_cap_exits_2_before_any_table(runner, tmp_path):
    # limits prints positions up to n * 2^q; the spec is refused when it is read.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "n": 1, "q": 1025, "poly": "a1", "a": [{"eigenvalues": [0.5]}],
    }))
    t0 = time.monotonic()
    for args in (["verify-cyclic"], ["verify-monotone"], ["limits"],
                 ["verify-quotient"], ["model"]):
        result = runner.invoke(main, args + ["--spec", str(path)])
        assert result.exit_code == 2, (args, result.output)
        assert "q must lie in 0..1024" in result.output
    assert time.monotonic() - t0 < 5.0


@pytest.mark.parametrize("q", [13, 100, 1024])
def test_spec_of_any_q_up_to_the_cap_runs(runner, spec_file, tmp_path, q):
    # The same polynomial on b_q instead of b_1: every value is unchanged.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({**SPEC_OBJ, "q": q, "poly": f"a1 + b{q} a1 b{q}"}))
    for args in (["verify-cyclic"], ["verify-monotone"], ["verify-quotient"],
                 ["model", "--k", "3"]):
        want = runner.invoke(main, args + ["--spec", spec_file])
        got = runner.invoke(main, args + ["--spec", str(path)])
        assert got.exit_code == want.exit_code == 0, (args, got.output)
        assert got.stdout == want.stdout
    result = runner.invoke(main, ["limits", "--spec", str(path)])
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines()[-1] == f"12,{12 * 2**q},0.65625,0"


@pytest.mark.parametrize("moments", [
    {"eigenvalues": [0.5, 0.25, 0.125], "q": 100},
    {"eigenvalues": [0.5, 0.25, 0.125], "q": 3, "tau_max_len": 40},
], ids=["q-100", "runs-of-40"])
def test_orthonormal_moments_of_any_width_run(runner, spec_file, tmp_path, moments):
    # The orthonormal state applies its rule on demand: a wide family or a
    # tau_max_len key (ignored, like any unknown key) changes no output.
    path = tmp_path / "moments.json"
    path.write_text(json.dumps(moments))
    for args in (["tables"], ["verify-cyclic", "--spec", spec_file]):
        want = runner.invoke(main, args)
        got = runner.invoke(main, args + ["--moments", str(path)])
        assert got.exit_code == want.exit_code == 0, (args, got.output)
        assert got.stdout == want.stdout


def test_spec_whose_runs_meet_into_six_verifies(runner, tmp_path):
    # The trail b3 b2 b1 meets the lead b1 b2 b3 in p^2: a run of six.
    path = tmp_path / "runs.json"
    path.write_text(json.dumps({
        "n": 2, "q": 3, "poly": "b1 b2 b3 a1 b3 b2 b1 + a1",
        "a": [{"eigenvalues": [0.5, 0.25]}],
    }))
    for args in (["verify-cyclic", "--k-max", "4"], ["verify-monotone", "--k-max", "4"],
                 ["limits", "--k", "2"]):
        result = runner.invoke(main, args + ["--spec", str(path)])
        assert result.exit_code == 0, (args, result.output)
    result = runner.invoke(main, ["verify-cyclic", "--k-max", "2", "--spec", str(path)])
    assert result.stdout.splitlines()[2] == "2,0.625+0j,0.625+0j,0,true"


def test_limits_grid_above_the_cap_exits_2_before_any_work(runner, tmp_path, monkeypatch):
    def no_work(*_args, **_kwargs):
        raise AssertionError("work started on an oversized grid")

    monkeypatch.setattr(model_module, "build_model", no_work)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "n": 2**30, "q": 1, "poly": "a1 + b1 a1 b1", "a": [{"eigenvalues": [0.5]}],
    }))
    t0 = time.monotonic()
    for extra in ([], ["--n", "65536"], ["--l", ",".join(map(str, range(1, 30000))),
                                         "--n", "1,2,3"]):
        result = runner.invoke(main, ["limits", "--k", "2", "--spec", str(path)] + extra)
        assert result.exit_code == 2, (extra, result.output)
        assert "cells" in result.output
    assert time.monotonic() - t0 < 5.0
