"""Tensor model: construction, state evaluation, verification, limits."""
import numpy as np
import pytest

import _reference as ref
from _reference import FLIP, build_dense_model, corner_unit, flip_factor
from monotensor import model as model_module
from monotensor.model import (
    ModelSpec,
    build_example_pair,
    build_model,
    evaluate_state,
    limit_sweep,
    matrix_power,
    model_spec_from_json_obj,
    verify_cyclic,
    verify_monotone,
)
from monotensor.moments import MomentData, cyclic_moment
from monotensor.sampling import random_model_spec, stream
from monotensor.words import CenteredRun, Letter, NCPolynomial, ParseError, a, b


def _example_spec(n=3, q=1, poly="a1 + b1 a1 b1"):
    return ModelSpec(
        n=n, q=q, a_matrices=(np.diag(ref.EIGS),), poly=NCPolynomial.parse(poly)
    )


def test_flip_factor_slots():
    assert np.array_equal(flip_factor(1, 1), FLIP)
    assert np.array_equal(flip_factor(2, 1), np.kron(FLIP, np.eye(2)))
    assert np.array_equal(flip_factor(2, 2), np.kron(np.eye(2), FLIP))
    assert np.array_equal(flip_factor(2, 0), np.eye(4))


def test_corner_unit_is_rank_one():
    e = corner_unit(2)
    assert e.shape == (4, 4)
    assert e[0, 0] == 1.0 and np.count_nonzero(e) == 1
    assert np.array_equal(e @ e, e)


def test_generator_matrices_match_reference():
    model = build_dense_model(_example_spec())
    assert np.array_equal(model.a_reps[0], ref.A6)
    assert np.array_equal(model.b_reps[0], ref.B6)


def test_poly_matrices_match_reference():
    x_model = build_model(_example_spec())
    y_model = build_model(_example_spec(poly="a1 b1 + b1 a1"))
    assert np.array_equal(x_model.poly_matrix, ref.X6)
    assert np.array_equal(y_model.poly_matrix, ref.Y6)


def test_example_pair_spectra():
    pair = build_example_pair(ref.EIGS)
    assert pair.ok
    assert np.max(np.abs(pair.x_eigenvalues - ref.X_SPECTRUM)) <= 1e-12
    assert np.max(np.abs(pair.y_eigenvalues - ref.Y_SPECTRUM)) <= 1e-12


def test_example_pair_other_eigenvalues():
    pair = build_example_pair((0.9, 0.3))
    assert pair.ok
    assert np.allclose(pair.x_eigenvalues, [0.9, 0.9, 0.3, 0.3], atol=1e-12)
    assert np.allclose(pair.y_eigenvalues, [0.9, 0.3, -0.3, -0.9], atol=1e-12)


def test_tensor_factor_order_is_a_shuffle():
    # Swapping the two tensor factors permutes the basis, so both
    # orders have identical spectra; entrywise they differ.
    d = np.diag(ref.EIGS)
    e11 = corner_unit(1)
    left = np.kron(e11, d)
    right = np.kron(d, e11)
    n, m = d.shape[0], 2
    perm = np.zeros((n * m, n * m))
    for i in range(m):
        for j in range(n):
            perm[j * m + i, i * n + j] = 1.0
    assert np.array_equal(perm @ left @ perm.T, right)
    assert not np.array_equal(left, right)


def test_spec_validation():
    with pytest.raises(ValueError):
        _example_spec(n=2)  # a-block larger than n
    with pytest.raises(ValueError):
        ModelSpec(n=3, q=1, a_matrices=(np.diag(ref.EIGS),),
                  poly=NCPolynomial.parse("a2"))
    with pytest.raises(ValueError):
        ModelSpec(n=3, q=1, a_matrices=(np.diag(ref.EIGS),),
                  poly=NCPolynomial.parse("a1 b2"))
    with pytest.raises(ValueError, match="exceeds the memory cap"):
        build_dense_model(ModelSpec(n=2048, q=4, a_matrices=(np.eye(2),),
                                    poly=NCPolynomial.parse("a1")))
    with pytest.raises(ValueError):
        ModelSpec(n=3, q=1, a_matrices=(np.array([[0.0, 1.0], [0.0, 0.0]]),),
                  poly=NCPolynomial.parse("a1"))
    with pytest.raises(ValueError):
        # Polynomial outside the a-generated ideal.
        ModelSpec(n=3, q=1, a_matrices=(np.diag(ref.EIGS),),
                  poly=NCPolynomial.parse("a1 + b1"))


def test_states_agree_with_frozen_values():
    model = build_model(_example_spec())
    for k, want in ref.X_TRACE.items():
        assert abs(evaluate_state(model, k, "full") - want) <= 1e-12
    for k, want in ref.X_CORNER.items():
        assert abs(evaluate_state(model, k, "monotone") - want) <= 1e-12
    assert abs(evaluate_state(model, 2, ("partial", 6)) - ref.X_TRACE[2]) <= 1e-12


def test_full_trace_equals_partial_at_dim():
    spec = _example_spec(q=2, poly="a1 + b1 a1 b2")
    model = build_model(spec)
    for k in (1, 2, 3):
        full = evaluate_state(model, k, "full")
        part = evaluate_state(model, k, ("partial", model.dim))
        assert full == part


def test_model_values_stable_under_padding():
    spec = _example_spec()
    grown = spec.with_n(7)
    for k in (1, 2, 3):
        v1 = evaluate_state(build_model(spec), k, "full")
        v2 = evaluate_state(build_model(grown), k, "full")
        assert abs(v1 - v2) <= 1e-12
        m1 = evaluate_state(build_model(spec), k, "monotone")
        m2 = evaluate_state(build_model(grown), k, "monotone")
        assert abs(m1 - m2) <= 1e-12


def test_matrix_power_bounds():
    m = np.eye(2)
    assert np.array_equal(matrix_power(m, 1), m)
    with pytest.raises(ValueError):
        matrix_power(m, 0)
    with pytest.raises(ValueError):
        matrix_power(m, 33)
    assert np.array_equal(matrix_power(m, np.int64(2)), m)
    for bad in (True, 2.0, np.int64(33)):
        with pytest.raises(ValueError):
            matrix_power(m, bad)


def test_verify_reports_pass_on_example():
    spec = _example_spec()
    rc = verify_cyclic(spec, k_max=5)
    rm = verify_monotone(spec, k_max=5)
    assert rc.passed and rm.passed
    assert len(rc.rows) == 5 and len(rm.rows) == 5
    assert rc.max_residual <= 1e-12 and rm.max_residual <= 1e-12


def test_verify_detects_wrong_table():
    # A table claiming tau(b1 b1) = 1/2 contradicts the involution the
    # model realizes, so verification must fail honestly.
    from monotensor.moments import AFamilyMoments, BMomentTable

    spec = _example_spec(poly="a1 b1 b1 a1")
    data = MomentData(
        AFamilyMoments.from_eigenvalues(ref.EIGS),
        BMomentTable({(1,): 0.0, (1, 1): 0.5}, q=1),
    )
    report = verify_cyclic(spec, data, k_max=1)
    assert not report.passed


def test_verify_randomized_specs():
    for i in range(10):
        spec = random_model_spec(stream(314, i))
        assert verify_cyclic(spec, k_max=4).passed
        assert verify_monotone(spec, k_max=4).passed


def test_limit_sweep_example():
    spec = _example_spec()
    report = limit_sweep(spec, 2, [3, 6, 12], [1, 2, 3, 6, 12, 24])
    assert report.ok
    assert abs(report.cyclic_value - ref.X_TRACE[2]) <= 1e-12
    assert abs(report.monotone_value - ref.X_CORNER[2]) <= 1e-12
    # The full-dimension cut reproduces the trace for every n.
    data = spec.moment_data()
    sym = cyclic_moment(spec.poly**2, data)
    for n in (3, 6, 12):
        assert abs(report.values[(n, 2 * n)] - sym) <= 1e-12


def test_limit_sweep_rejects_missing_grid():
    spec = _example_spec()
    with pytest.raises(ValueError):
        limit_sweep(spec, 2, [], [1])
    with pytest.raises(ValueError):
        limit_sweep(spec, 2, [3], [])


def test_structural_involution_and_commutation():
    for q in (1, 2, 3):
        spec = ModelSpec(
            n=2, q=q, a_matrices=(np.eye(2) * 0.5,),
            poly=NCPolynomial.parse("a1 b1"),
        )
        model = build_dense_model(spec)
        dim = model.dim
        for bm in model.b_reps:
            assert np.array_equal(bm @ bm, np.eye(dim))
        for i in range(q):
            for j in range(i + 1, q):
                lhs = model.b_reps[i] @ model.b_reps[j]
                rhs = model.b_reps[j] @ model.b_reps[i]
                assert np.array_equal(lhs, rhs)


def test_model_spec_json_forms(monkeypatch):
    obj = {
        "n": 3,
        "q": 1,
        "poly": "a1 + b1 a1 b1",
        "a": [{"eigenvalues": [0.5, 0.25, 0.125]}],
    }
    spec = model_spec_from_json_obj(obj)
    assert spec.n == 3 and spec.q == 1 and spec.dim == 6
    assert np.array_equal(spec.a_matrices[0], np.diag(ref.EIGS))

    obj_matrix = {
        "n": 2,
        "q": 1,
        "poly": (a(1) * b(1)).to_json_obj(),
        "a": [{"matrix": {"rows": 2, "cols": 2, "re": [0.5, 0.0, 0.0, 0.25]}}],
    }
    spec2 = model_spec_from_json_obj(obj_matrix)
    assert np.array_equal(spec2.a_matrices[0], np.diag([0.5, 0.25]))

    with pytest.raises(ValueError):
        model_spec_from_json_obj({"n": 2, "q": 1, "poly": "a1"})
    with pytest.raises(ParseError):
        model_spec_from_json_obj({**obj, "poly": "a1 +"})
    # Six bytes short of three 6 x 6 complex matrices.
    monkeypatch.setattr(model_module, "MEMORY_CAP", 3 * 36 * 16 - 6)
    with pytest.raises(ValueError, match="exceeds the memory cap"):
        build_model(model_spec_from_json_obj({**obj, "n": 4096}))


def test_q_zero_model_is_plain_polynomial():
    a_mat = np.diag(ref.EIGS)
    spec = ModelSpec(n=3, q=0, a_matrices=(a_mat,),
                     poly=NCPolynomial.parse("a1 + a1 a1"))
    model = build_model(spec)
    assert model.dim == 3
    assert np.array_equal(model.poly_matrix, a_mat + a_mat @ a_mat)


def test_full_trace_odd_powers_of_y_vanish():
    # Y has a symmetric spectrum, so odd-power traces cancel.
    pair = build_example_pair()
    model = build_model(pair.y_spec)
    for k in (1, 3, 5):
        assert abs(evaluate_state(model, k, "full")) <= 1e-12


def test_verify_monotone_flip_sandwich_vanishes():
    # b1 a1 b1 moves the a-corner off the corner block, so both sides
    # of the monotone comparison are exactly zero for every power.
    spec = _example_spec(poly="b1 a1 b1")
    report = verify_monotone(spec, k_max=4)
    assert report.passed
    for row in report.rows:
        assert row.symbolic == 0.0
        assert abs(row.matrix) == 0.0


def test_verify_monotone_pair_sandwich_first_power():
    spec = _example_spec(poly="a1 b1 b1 a1")
    report = verify_monotone(spec, k_max=1)
    (row,) = report.rows
    assert abs(row.symbolic - ref.A_MOMENT_2) <= 1e-15
    assert abs(row.matrix - ref.A_MOMENT_2) <= 1e-15


def test_verify_cyclic_pure_a_polynomial_is_exact():
    # With no b-letters the q-factor contributes a trace of one, so the
    # matrix and symbolic sides are the same arithmetic.
    spec = _example_spec(poly="a1")
    report = verify_cyclic(spec, k_max=4)
    assert report.passed
    for row in report.rows:
        assert row.residual == 0.0
        assert row.symbolic == sum(v ** row.k for v in ref.EIGS)


def test_monotone_state_is_corner_block_trace():
    spec = _example_spec(q=2, poly="a1 + b1 a1 b2 + b2 a1 b1")
    model = build_model(spec)
    for k in (1, 2, 3):
        mp = matrix_power(model.poly_matrix, k)
        corner = complex(np.trace(mp[: spec.n, : spec.n]))
        assert abs(evaluate_state(model, k, "monotone") - corner) <= 1e-12


def test_a_rep_products_stay_in_corner():
    # phi(a_i) phi(a_j) = (a_i a_j) tensor the corner unit, exactly.
    a1m = np.array([[1.0, 2.0], [2.0, 3.0]])
    a2m = np.array([[0.0, 1.0], [1.0, 5.0]])
    spec = ModelSpec(n=2, q=2, a_matrices=(a1m, a2m),
                     poly=NCPolynomial.parse("a1 b1 a2"))
    model = build_dense_model(spec)
    want = np.kron(corner_unit(2), a1m @ a2m)
    assert np.array_equal(model.a_reps[0] @ model.a_reps[1], want)


def test_limit_sweep_zero_polynomial():
    spec = ModelSpec(n=3, q=1, a_matrices=(np.diag(ref.EIGS),),
                     poly=NCPolynomial.zero())
    report = limit_sweep(spec, 2, [3, 6], [1, 2, 3, 6])
    assert report.ok
    assert report.cyclic_value == 0.0
    assert report.monotone_value == 0.0
    assert all(v == 0.0 for v in report.values.values())


def test_limit_sweep_first_power_pure_a():
    # For poly = a1 and k = 1 the two iterated limits coincide at the
    # full a-trace.
    spec = _example_spec(poly="a1")
    report = limit_sweep(spec, 1, [3, 6], [1, 2, 3, 6, 12])
    assert report.ok
    assert report.cyclic_value == 7 / 8
    assert report.monotone_value == 7 / 8


def test_example_pair_zero_eigenvalues():
    pair = build_example_pair((0.0, 0.0, 0.0))
    assert pair.ok
    assert np.array_equal(pair.x_eigenvalues, np.zeros(6))
    assert np.array_equal(pair.y_eigenvalues, np.zeros(6))


def test_moment_data_holds_the_runs_of_every_power():
    eigs = (np.diag([0.5, 0.25]),)

    def longest(poly, q=3):
        if isinstance(poly, str):
            poly = NCPolynomial.parse(poly)
        spec = ModelSpec(n=2, q=q, a_matrices=eigs, poly=poly)
        return max(map(len, spec.moment_data().b_table.values), default=0)

    assert longest("a1 + b1 a1 b1") == 4  # the floor
    assert longest("b1 a1 b1 b2 b3 b1 b2 a1") == 5  # an inner run
    assert longest("b1 b2 b3 a1 b3 b2 b1 + a1") == 6  # trail meets lead
    a1 = Letter("A", 1)
    centered = NCPolynomial({(CenteredRun((1, 2, 3)), a1): 1.0,
                             (a1, CenteredRun((3, 2))): 1.0})
    assert longest(centered) == 5  # a centered run counts its indices
    assert longest("a1", q=0) == 0
