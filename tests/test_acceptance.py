"""Acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion, each stating the measured quantity and its budget.
Criteria 2, 3, and 4 share one seeded suite of 200 random model specs.
"""
import time

import numpy as np
import pytest

import _reference as ref
from monotensor.haar import (
    CornerFamily,
    DiagPatternFamily,
    HaarWordSpec,
    mc_estimate,
    parse_word,
    rate_check,
)
from monotensor.model import (
    ModelSpec,
    build_example_pair,
    build_model,
    corner_unit,
    flip_factor,
    limit_sweep,
    verify_cyclic,
    verify_monotone,
)
from monotensor.moments import (
    CYCLIC_SIGN_PATTERN,
    MONOTONE_SIGN_PATTERN,
    MomentData,
    cyclic_moment,
    moment_via_quotient,
    quotient_check,
    sign_pattern_check,
)
from monotensor.sampling import random_alternating_poly, random_model_spec, stream
from monotensor.words import NCPolynomial, a, b

SEED = 20260819


def _line(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {detail}")


@pytest.fixture(scope="module")
def random_specs():
    """200 seeded model specs (p <= 2, q <= 3, n <= 6, |coeff| <= 1)."""
    out = []
    for i in range(200):
        spec = random_model_spec(stream(SEED, 0xC0DE, i))
        out.append((spec, spec.moment_data()))
    return out


def test_criterion_1_example_eigenvalues():
    t0 = time.monotonic()
    pair = build_example_pair(ref.EIGS)
    err_x = float(np.max(np.abs(pair.x_eigenvalues - ref.X_SPECTRUM)))
    err_y = float(np.max(np.abs(pair.y_eigenvalues - ref.Y_SPECTRUM)))
    elapsed = time.monotonic() - t0
    ok = err_x <= 1e-12 and err_y <= 1e-12 and elapsed < 1.0
    _line(1, ok, f"spectrum errors {err_x:.2e}/{err_y:.2e} (tol 1e-12), "
                 f"{elapsed:.2f}s (< 1 s)")
    assert ok


def test_criterion_2_cyclic_equivalence(random_specs):
    t0 = time.monotonic()
    worst = 0.0
    failed = 0
    for spec, data in random_specs:
        report = verify_cyclic(spec, data, k_max=5, rtol=1e-10)
        worst = max(worst, report.max_residual)
        failed += 0 if report.passed else 1
    elapsed = time.monotonic() - t0
    ok = failed == 0 and elapsed < 60.0
    _line(2, ok, f"200 specs x k<=5, {failed} failures, worst residual "
                 f"{worst:.2e} (tol 1e-10*(1+|value|)), {elapsed:.1f}s (< 60 s)")
    assert ok


def test_criterion_3_monotone_equivalence(random_specs):
    t0 = time.monotonic()
    worst = 0.0
    failed = 0
    for spec, data in random_specs:
        report = verify_monotone(spec, data, k_max=5, rtol=1e-10)
        worst = max(worst, report.max_residual)
        failed += 0 if report.passed else 1
    elapsed = time.monotonic() - t0
    ok = failed == 0 and elapsed < 60.0
    _line(3, ok, f"200 specs x k<=5, {failed} failures, worst residual "
                 f"{worst:.2e} (tol 1e-10*(1+|value|)), {elapsed:.1f}s (< 60 s)")
    assert ok


def test_criterion_4_quotient_routes(random_specs):
    t0 = time.monotonic()
    worst_route = 0.0
    worst_annihilation = 0.0
    failed = 0
    for i, (spec, data) in enumerate(random_specs):
        rng = stream(SEED, 0xFAC7, i)
        rights = (random_alternating_poly(rng, data.p, data.q) for _ in range(50))
        for check, residual, passed in quotient_check(spec.poly, data, rights, 1e-10):
            failed += 0 if passed else 1
            if check == "annihilation":
                worst_annihilation = max(worst_annihilation, residual)
            else:
                worst_route = max(worst_route, residual)
    elapsed = time.monotonic() - t0
    ok = failed == 0
    _line(4, ok, f"route residual {worst_route:.2e} (tol 1e-10*(1+|value|)), "
                 f"every dropped monomial x 50 right factors, worst "
                 f"|value| {worst_annihilation:.2e} (tol 1e-10), {elapsed:.1f}s")
    assert ok


def test_criterion_5_sign_patterns():
    report = sign_pattern_check(MomentData.standard(ref.EIGS))
    cells = 0
    for got, want in (
        (report.cyclic_pattern, CYCLIC_SIGN_PATTERN),
        (report.monotone_pattern, MONOTONE_SIGN_PATTERN),
    ):
        for grow, wrow in zip(got, want):
            cells += sum(1 for g, w in zip(grow, wrow) if g == w)
    ok = cells == 32
    _line(5, ok, f"{cells}/32 sign cells match (16 + 16)")
    assert ok


def test_criterion_6_motivating_identities():
    data = MomentData.standard(ref.EIGS)
    abab = a(1) * b(1) * a(1) * b(1)
    abba = a(1) * b(1) * b(1) * a(1)
    errs = [
        abs(cyclic_moment(abab, data) - ref.ABAB_CYCLIC),
        abs(moment_via_quotient(abab, data, "cyclic") - ref.ABAB_CYCLIC),
        abs(cyclic_moment(abba, data) - ref.ABBA_CYCLIC),
        abs(moment_via_quotient(abba, data, "cyclic") - ref.ABBA_CYCLIC),
    ]
    worst = max(errs)
    ok = worst <= 1e-12
    _line(6, ok, f"abab -> 0 and abba -> 21/64 on both code paths, worst "
                 f"error {worst:.2e} (tol 1e-12)")
    assert ok


def test_criterion_7_limit_swap():
    t0 = time.monotonic()
    spec = ModelSpec(
        n=3, q=1, a_matrices=(np.diag(ref.EIGS),),
        poly=NCPolynomial.parse("a1 + b1 a1 b1"),
    )
    n_list = [3, 6, 12]
    l_list = [1, 2, 3, 6, 12, 24]
    report = limit_sweep(spec, 2, n_list, l_list, tol=1e-12)
    err_cyclic = abs(report.cyclic_value - 21.0 / 32.0)
    err_monotone = abs(report.monotone_value - 21.0 / 64.0)
    elapsed = time.monotonic() - t0
    ok = (
        report.ok
        and err_cyclic <= 1e-12
        and err_monotone <= 1e-12
        and elapsed < 5.0
    )
    _line(7, ok, f"trace limit 21/32 (err {err_cyclic:.2e}), corner limit "
                 f"21/64 (err {err_monotone:.2e}), stabilization "
                 f"{'ok' if report.ok else 'BROKEN'} (tol 1e-12), "
                 f"{elapsed:.1f}s (< 5 s)")
    assert ok


def test_criterion_8_monte_carlo_rate():
    t0 = time.monotonic()
    spec = HaarWordSpec(
        word=parse_word("ABAB"),
        a_families=(CornerFamily(ref.EIGS),),
        b_families=(DiagPatternFamily((1.0, -1.0), (0.5, 0.5)),),
        n_list=(64, 128, 256),
        trials=400,
        seed=7,
    )
    report = mc_estimate(spec)
    c_rate = report.calibrate_c_rate()
    failures = report.bound_failures(c_rate)
    fit = rate_check(report)
    elapsed = time.monotonic() - t0
    ok = not failures and fit.slope_in(-1.6, -0.7) and elapsed < 300.0
    _line(8, ok, f"error bound 3*stderr + {c_rate:.3f}/n holds at n=64,128,256 "
                 f"(failures: {failures}), slope {fit.slope:.3f} in [-1.6,-0.7], "
                 f"{elapsed:.0f}s (< 300 s)")
    assert ok


def test_criterion_9_structural_exactness():
    # Involution, commutation, and the {0,1} pairing pattern of the
    # flip-conjugation words, all at zero tolerance.
    mismatch = 0
    checked = 0
    for q in (1, 2, 3):
        spec = ModelSpec(
            n=2, q=q, a_matrices=(np.eye(2) * 0.5,),
            poly=NCPolynomial.parse("a1 b1"),
        )
        model = build_model(spec)
        eye = np.eye(model.dim)
        for bm in model.b_reps:
            if not np.array_equal(bm @ bm, eye):
                mismatch += 1
        for i in range(q):
            for j in range(i + 1, q):
                if not np.array_equal(
                    model.b_reps[i] @ model.b_reps[j],
                    model.b_reps[j] @ model.b_reps[i],
                ):
                    mismatch += 1
        flips = [flip_factor(q, j) for j in range(1, q + 1)]
        unit = corner_unit(q)
        for k in (1, 2, 3):
            for flat in range(q ** (2 * k)):
                idx = []
                rest = flat
                for _ in range(2 * k):
                    idx.append(rest % q + 1)
                    rest //= q
                word = np.eye(2**q, dtype=np.complex128)
                for m in range(k):
                    word = word @ flips[idx[2 * m] - 1] @ unit @ flips[idx[2 * m + 1] - 1]
                value = complex(np.trace(word))
                paired = idx[-1] == idx[0] and all(
                    idx[2 * m + 1] == idx[2 * m + 2] for m in range(k - 1)
                )
                expected = 1.0 if paired else 0.0
                checked += 1
                if value != expected:
                    mismatch += 1
    ok = mismatch == 0
    _line(9, ok, f"involution + commutation + {checked} pairing words for "
                 f"q <= 3, k <= 3: {mismatch} mismatches (zero tolerance)")
    assert ok
