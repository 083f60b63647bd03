"""The compressed tensor model against the dense Kronecker oracle."""
import time
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference
from _reference import build_dense_model
from monotensor import linalg
from monotensor import model as model_module
from monotensor.cli import main
from monotensor.model import (
    ModelSpec,
    build_example_pair,
    build_model,
    evaluate_state,
    limit_sweep,
    state_value,
)
from monotensor.moments import cyclic_moment, monotone_moment
from monotensor.sampling import random_model_spec, stream
from monotensor.words import CenteredRun, Letter, NCPolynomial, parse_polynomial

SEED = 20260819


def _close(got, want):
    return abs(got - want) <= 1e-12 * (1.0 + abs(want))


def _compare_states(spec, k_max, same):
    """Every diagonal state of every power up to k_max, on both models."""
    model, dense = build_model(spec), build_dense_model(spec)
    mc, md = model.poly_matrix, dense.poly_matrix
    for k in range(1, k_max + 1):
        if k > 1:
            mc = mc @ model.poly_matrix
            md = md @ dense.poly_matrix
        if k <= 5:
            assert same(evaluate_state(model, k, "full"), linalg.trace(md))
            assert same(evaluate_state(model, k, "monotone"),
                        linalg.partial_trace(md, spec.n))
        for l in range(dense.dim + 1):
            got, want = state_value(model, mc, l), linalg.partial_trace(md, l)
            assert same(got, want), (k, l, got, want)


def test_states_match_dense_model_on_criterion_specs():
    # Every criterion spec has dim <= 48, so each runs up to k = 32.
    for i in range(200):
        spec = random_model_spec(stream(SEED, 0xC0DE, i))
        assert spec.dim <= 256
        _compare_states(spec, 32, _close)


# Dyadic inputs: integer a-matrices and Gaussian-integer coefficients
# keep every value an exact integer, so both models must agree bit for bit.
@st.composite
def dyadic_specs(draw):
    q = draw(st.integers(1, 3))
    base = draw(st.integers(1, 3))
    n = draw(st.integers(base, base + 2))
    mats = []
    for _ in range(draw(st.integers(1, 2))):
        upper = np.triu(draw(st.lists(st.integers(-1, 1), min_size=base * base,
                                      max_size=base * base).map(
            lambda xs: np.reshape(xs, (base, base)))))
        mats.append(upper + np.triu(upper, 1).T)
    a_letters = st.builds(Letter, st.just("A"), st.integers(1, len(mats)))
    b_atoms = st.one_of(
        st.builds(Letter, st.just("B"), st.integers(1, q)),
        st.lists(st.integers(1, q), min_size=1, max_size=3).map(
            lambda js: CenteredRun(tuple(js))),
    )
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        rest = draw(st.lists(st.one_of(a_letters, b_atoms, b_atoms), max_size=4))
        pos = draw(st.integers(0, len(rest)))
        word = tuple(rest[:pos] + [draw(a_letters)] + rest[pos:])
        terms[word] = complex(draw(st.integers(-1, 1)), draw(st.integers(-1, 1)))
    return ModelSpec(n=n, q=q, a_matrices=tuple(mats), poly=NCPolynomial(terms))


@settings(max_examples=60, deadline=None)
@given(dyadic_specs())
def test_states_match_dense_model_exactly_on_dyadic_specs(spec):
    _compare_states(spec, 4, lambda got, want: got == want)


def test_words_map_to_label_blocks():
    # b1 flips the most significant of q = 3 bits, b3 the least.
    a1 = np.array([[1.0, 2.0], [2.0, -1.0]])
    spec = ModelSpec(n=5, q=3, a_matrices=(a1,), poly=NCPolynomial({
        (Letter("B", 1), Letter("A", 1), Letter("B", 3)): 2.0,
        (CenteredRun((2, 3)), Letter("A", 1)): 1.0,
        # Vanish: an inner run that moves label 0, and a centered run
        # whose flips cancel.
        (Letter("A", 1), Letter("B", 2), Letter("A", 1)): 5.0,
        (CenteredRun((1, 1)), Letter("A", 1)): 7.0,
    }))
    model = build_model(spec)
    assert model.labels == (0, 1, 3, 4) and model.base == 2
    want = np.zeros((8, 8), dtype=complex)
    want[6:8, 2:4] = 2.0 * a1  # label 4 -> label 1
    want[4:6, 0:2] = a1  # label 3 -> label 0
    assert np.array_equal(model.poly_matrix, want)
    with pytest.raises(ValueError, match=r"l must lie in \[0, 40\]"):
        evaluate_state(model, 1, ("partial", 41))


def test_partial_states_cut_inside_a_nonzero_label_block():
    # n = 4 > base = 2: each label's block of the full space is n wide but
    # holds only base nonzero positions, so a cut l inside a later label's
    # block keeps min(base, l - label * n) of them.  The b2 term fills the
    # block of a nonzero label.
    spec = ModelSpec(n=4, q=2, a_matrices=(np.array([[0.5, 0.25], [0.25, -0.75]]),),
                     poly=parse_polynomial("a1 + b1 a1 b1 + 0.5 b2 a1 b1"))
    assert (build_model(spec).base, spec.dim) == (2, 16)
    _compare_states(spec, 4, _close)


def test_limit_sweep_matches_dense_partial_traces():
    spec = random_model_spec(stream(SEED, 0xC0DE, 7))
    n_list = [spec.n, 2 * spec.n]
    l_list = list(range(0, 2 * spec.n * 2**spec.q + 1))
    report = limit_sweep(spec, 3, n_list, l_list)
    assert report.ok
    for n in n_list:
        dense = build_dense_model(spec.with_n(n))
        mp = np.linalg.matrix_power(dense.poly_matrix, 3)
        for l in range(dense.dim + 1):
            assert _close(report.values[(n, l)], linalg.partial_trace(mp, l))


def _big_spec():
    rng = np.random.default_rng(11)
    a1, a2 = (m + m.T for m in rng.standard_normal((2, 3, 3)))
    A1, A2 = Letter("A", 1), Letter("A", 2)
    b1, b3, b7, b12 = (Letter("B", j) for j in (1, 3, 7, 12))
    poly = NCPolynomial({
        (A1,): 1.0,
        (b1, A2, b12): 0.5 - 0.25j,
        (b3, b7, A1, A2, b7, b3): -0.75,
        (CenteredRun((2, 5)), A1): 0.5j,
        (A2, CenteredRun((4,))): 1.25,
    })
    return ModelSpec(n=2**20, q=12, a_matrices=(a1, a2), poly=poly)


def test_huge_sparse_model_builds_on_its_blocks():
    spec = _big_spec()
    assert spec.dim == 2**32
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        model = build_model(spec)
        elapsed = time.perf_counter() - t0
        values = {
            (k, state): evaluate_state(model, k, state)
            for k in (1, 2, 3) for state in ("full", "monotone")
        }
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert model.poly_matrix.shape == (18, 18)  # six labels of size 3
    assert peak < 2**20  # nothing of the 2**32-dimensional space
    data = spec.moment_data()
    for k in (1, 2, 3):
        pk = spec.poly**k
        assert _close(values[(k, "full")], cyclic_moment(pk, data))
        assert _close(values[(k, "monotone")], monotone_moment(pk, data))


def test_build_checks_memory_before_allocating(monkeypatch):
    spec = random_model_spec(stream(SEED, 0xC0DE, 3))
    size = build_model(spec).poly_matrix.shape[0]

    def no_alloc(*_args, **_kwargs):
        raise AssertionError("allocated before checking the cap")

    monkeypatch.setattr(model_module, "MEMORY_CAP", 3 * 16 * size**2 - 1)
    monkeypatch.setattr(model_module.np, "zeros", no_alloc)
    with pytest.raises(ValueError, match="exceeds the memory cap"):
        build_model(spec)
    with pytest.raises(ValueError, match="exceeds the memory cap"):
        build_dense_model(spec)


def test_cli_runs_compressed_on_one_position_per_label(tmp_path, monkeypatch):
    def no_dense(*_args, **_kwargs):
        raise AssertionError("a dense Kronecker matrix was built")

    monkeypatch.setattr(_reference, "build_dense_model", no_dense)
    monkeypatch.setattr(np, "kron", no_dense)
    path = tmp_path / "spec.json"
    path.write_text(
        '{"n": 1, "q": 12, "poly": "a1 + b1 a1 b12 + b12 a1 b1",'
        ' "a": [{"eigenvalues": [0.5]}]}'
    )
    runner = CliRunner()
    for args in (["model", "--state", "monotone", "--k", "3"],
                 ["model", "--state", "partial:4096", "--k", "32"],
                 ["limits", "--k", "2", "--n", "1,2"],
                 ["verify-cyclic", "--k-max", "3"],
                 ["verify-monotone", "--k-max", "3"]):
        result = runner.invoke(main, args + ["--spec", str(path)])
        assert result.exit_code == 0, (args, result.output)


@pytest.mark.parametrize("eigenvalues", [
    (0.5, 0.25, 0.125),
    (1.0,),
    (-0.3, 2.5, 0.0, -1e-300, 7.0),
    tuple(-np.abs(np.random.default_rng(17).standard_normal(17))),
], ids=["dyadic", "single", "signed-zero-denormal", "negative-gaussians"])
def test_example_models_match_dense_model_bit_for_bit(eigenvalues):
    pair = build_example_pair(eigenvalues)
    for spec in (pair.x_spec, pair.y_spec):
        model, dense = build_model(spec), build_dense_model(spec)
        assert model.labels == (0, 1)
        assert model.poly_matrix.tobytes() == dense.poly_matrix.tobytes()
        assert (np.linalg.eigvalsh(model.poly_matrix).tobytes()
                == np.linalg.eigvalsh(dense.poly_matrix).tobytes())


def test_example_peak_stays_below_its_estimate(monkeypatch):
    estimates = []
    check = model_module._check_memory

    def record(nbytes, what):
        estimates.append((what, nbytes))
        check(nbytes, what)

    monkeypatch.setattr(model_module, "_check_memory", record)
    eigenvalues = np.linspace(-1.0, 1.0, 400)
    tracemalloc.start()
    try:
        build_example_pair(eigenvalues)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    what, estimate = estimates[0]
    assert what == "the example pair of size 800"
    assert peak <= estimate


def test_example_above_the_cap_exits_2_before_allocating(monkeypatch):
    def no_model(*_args, **_kwargs):
        raise AssertionError("a model matrix was built")

    monkeypatch.setattr(model_module, "build_model", no_model)
    eigenvalues = ",".join(["0.5"] * 2049)
    result = CliRunner().invoke(main, ["example", "--eigenvalues", eigenvalues])
    assert result.exit_code == 2, result.output
    assert "memory cap" in result.output

