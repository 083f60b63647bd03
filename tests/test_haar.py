"""Haar sampling, family realizations, and the Monte Carlo sweep."""
import time
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from monotensor import haar, linalg
from monotensor.haar import (
    CornerFamily,
    DiagPatternFamily,
    HaarWordSpec,
    McReport,
    McRow,
    mc_estimate,
    parse_word,
    rate_check,
    realize_families,
    sample_haar_rows,
    word_value,
)
from monotensor.sampling import stream

A_FAM = CornerFamily((0.5, 0.25, 0.125))
B_BAL = DiagPatternFamily((1.0, -1.0), (0.5, 0.5))
B_POS = DiagPatternFamily((1.0, 0.0), (0.5, 0.5))
# tr(b) = 3/2 and tr(b^2) = 5/2: the cyclic and monotone values differ.
B_12 = DiagPatternFamily((1.0, 2.0), (0.5, 0.5))


def _spec(**kw):
    base = dict(
        word=parse_word("ABAB"),
        a_families=(A_FAM,),
        b_families=(B_BAL,),
        n_list=(8, 16),
        trials=10,
        seed=7,
    )
    base.update(kw)
    return HaarWordSpec(**base)


def test_sample_haar_unitary_is_unitary():
    u = sample_haar_rows(12, 12, stream(3, 12, 0))
    assert np.max(np.abs(u.conj().T @ u - np.eye(12))) <= 1e-12
    # Fewer rows than n: still orthonormal rows.
    v = sample_haar_rows(12, 3, stream(3, 12, 0))
    assert v.shape == (3, 12)
    assert np.max(np.abs(v @ v.conj().T - np.eye(3))) <= 1e-12
    with pytest.raises(ValueError):
        sample_haar_rows(12, 13, stream(3, 12, 0))


def test_sample_haar_unitary_streams():
    u1 = sample_haar_rows(6, 6, stream(3, 6, 0))
    u2 = sample_haar_rows(6, 6, stream(3, 6, 0))
    u3 = sample_haar_rows(6, 6, stream(3, 6, 1))
    assert np.array_equal(u1, u2)
    assert not np.array_equal(u1, u3)


def test_corner_family_padding():
    m = A_FAM.realize(5)
    assert m.shape == (5, 5)
    assert np.array_equal(np.diag(m).real, [0.5, 0.25, 0.125, 0.0, 0.0])
    with pytest.raises(ValueError):
        A_FAM.realize(2)


def test_diag_pattern_counts():
    diag = B_BAL.realize(6)
    assert diag.shape == (6,)
    assert np.sum(diag == 1.0) == 3 and np.sum(diag == -1.0) == 3
    assert diag.sum() / 6 == 0.0
    # Odd n still fills every slot: three +1 against two -1.
    assert B_BAL.realize(5).sum() / 5 == 0.2
    with pytest.raises(ValueError):
        DiagPatternFamily((1.0,), (0.7,))


def test_parse_word():
    assert parse_word("ABAB") == (1, -1, 1, -1)
    assert parse_word("B2 A1 B1") == (-2, 1, -1)
    assert parse_word("a2b1") == (2, -1)
    with pytest.raises(ValueError):
        parse_word("AXB")
    with pytest.raises(ValueError):
        parse_word("")
    with pytest.raises(ValueError, match="word letter A0 has no family"):
        parse_word("A0B")  # 0 codes neither family


def test_word_shape_validation():
    for text in ("BABAB", "BABA", "ABBA", "BBAB", "A"):
        _spec(word=parse_word(text))  # any word with an A
    with pytest.raises(ValueError):
        _spec(word=parse_word("BB"))  # no a-letter
    with pytest.raises(ValueError):
        _spec(word=parse_word("A2B"))  # no second a-family
    with pytest.raises(ValueError):
        _spec(word=parse_word("BAB"), l_rule="half")  # leading b: no target
    with pytest.raises(ValueError):
        _spec(trials=1)


def test_resolve_l_rules():
    spec = _spec(l_rule="half")
    assert spec.resolve_l(16) == 8
    assert _spec(l_rule=3).resolve_l(16) == 3
    with pytest.raises(ValueError):
        _spec(l_rule=20).resolve_l(16)


def _targets(**kw):
    return [row.target for row in mc_estimate(_spec(trials=2, **kw)).rows]


def test_target_value_balanced_b_vanishes():
    for rule in ("full", "half", 3):
        assert _targets(l_rule=rule) == [0.0, 0.0]


def test_target_value_tracks_traces():
    # eta_n(A) * tr(B) = (7/8) * (1/2).
    for got in _targets(word=parse_word("AB"), b_families=(B_POS,)):
        assert abs(got - 0.875 * 0.5) <= 1e-12


def test_target_values_are_pinned():
    # Tr(A^2) tr(B)^2 = (21/64) (1/4) over the full trace, and the top
    # entry of A^2 times tr(B)^2 over the first coordinate.
    word = parse_word("ABAB")
    assert _targets(word=word, b_families=(B_POS,)) == [21 / 256, 21 / 256]
    assert _targets(word=word, b_families=(B_POS,), l_rule=1) == [1 / 16, 1 / 16]


def test_leading_b_targets():
    # BAB: the full trace wraps the trail onto the lead, Tr(A) tr(B^2);
    # a fixed corner factors them, Tr(A) tr(B) tr(B).
    spec = dict(word=parse_word("BAB"), b_families=(B_POS,))
    for got in _targets(**spec):
        assert abs(got - 0.875 * 0.5) <= 1e-12
    for got in _targets(l_rule=3, **spec):
        assert abs(got - 0.875 * 0.25) <= 1e-12


@pytest.mark.parametrize("word,cyclic,monotone", [
    ("BAB", 0.875 * 2.5, 0.875 * 1.5**2),
    ("BABAB", 0.328125 * 1.5 * 2.5, 0.328125 * 1.5**3),
])
def test_leading_b_words_sample_both_functionals(word, cyclic, monotone):
    rows = {}
    for rule, want in (("full", cyclic), (3, monotone)):
        rep = mc_estimate(_spec(word=parse_word(word), b_families=(B_12,),
                                n_list=(16, 64), trials=100, l_rule=rule))
        row = rows[rule] = max(rep.rows, key=lambda r: r.n)
        assert abs(row.target - want) <= 1e-12
        assert row.abs_err <= 3.0 * row.stderr
    spread = max(row.stderr for row in rows.values())
    assert abs(cyclic - monotone) > 10.0 * spread


@pytest.mark.parametrize("word", ["ABBA", "BBAB", "BABA"])
def test_words_of_the_a_ideal_sample_their_targets(word):
    for rule in (1, 3, "full"):
        rep = mc_estimate(_spec(word=parse_word(word), b_families=(B_12,),
                                n_list=(64,), trials=100, l_rule=rule))
        for row in rep.rows:
            assert row.abs_err <= 3.0 * row.stderr, (rule, row.mean, row.target)


def test_word_value_identity_unitary():
    # With u = I the word is just the alternating matrix product.
    spec = _spec(word=parse_word("AB"))
    n = 8
    a = A_FAM.realize(n)
    bm = B_BAL.realize(n)
    direct = np.trace(a @ np.diag(bm))
    rows = np.eye(n, dtype=np.complex128)[:3]
    got = word_value(spec, n, n, rows, [A_FAM.realize(3)], {(-1,): bm})
    assert abs(got - direct) <= 1e-12


def _dense_word_value(spec, n, l, u):
    """The oracle: the whole n x n word at a full unitary u."""
    a_mats = [fam.realize(n) for fam in spec.a_families]
    b_mats = [np.diag(fam.realize(n)) for fam in spec.b_families]
    uh = u.conj().T
    factors = (
        a_mats[x - 1] if x > 0 else u @ b_mats[-x - 1] @ uh
        for x in spec.word
    )
    return linalg.partial_trace(reduce(np.matmul, factors), l)


A_TWO = CornerFamily((0.9, -0.3))
B_THREE = DiagPatternFamily((1.0, -0.5, 3.0), (0.25, 0.5, 0.25))


@pytest.mark.parametrize("word", ["ABAB", "BAB", "BABA", "ABBA", "BBAB",
                                  "A1B2B1A2B1", "B2A2A1B1B2", "ABA"])
def test_word_value_matches_the_dense_oracle(word):
    for n in (12, 16):
        for rule in ("full", "half", 1, 2, 3, 5):
            if rule == "half" and word[0] == "B":
                continue
            spec = _spec(word=parse_word(word), a_families=(A_FAM, A_TWO),
                         b_families=(B_12, B_THREE), n_list=(n,), l_rule=rule)
            l, m = spec.resolve_l(n), spec.rows_needed(n)
            assert m == (max(l, 3) if word[0] == "B" and rule != "full" else 3)
            for t in range(3):
                u = sample_haar_rows(n, n, stream(1, n, t))
                got = word_value(spec, n, l, u[:m], *realize_families(spec, n, m))
                want = _dense_word_value(spec, n, l, u)
                assert abs(got - want) <= 1e-12, (n, rule, t)


def test_mc_estimate_reproducible():
    r1 = mc_estimate(_spec())
    r2 = mc_estimate(_spec())
    for a_row, b_row in zip(r1.rows, r2.rows):
        assert np.array_equal(a_row.values, b_row.values)
        assert a_row.target == b_row.target


def _identity_unitary(n, m, rng):
    return np.eye(n, dtype=np.complex128)[:m]


def test_mc_estimate_force_identity_collapses_spread(monkeypatch):
    monkeypatch.setattr(haar, "sample_haar_rows", _identity_unitary)
    rep = mc_estimate(_spec())
    for row in rep.rows:
        assert row.stderr == 0.0
        assert np.all(row.values == row.values[0])


def test_mc_row_statistics():
    row = McRow(n=4, l=4, values=np.array([1.0 + 0j, 3.0 + 0j]), target=1.0 + 0j)
    assert row.mean == 2.0
    # spread = |1-2|^2 + |3-2|^2 = 2; stderr = sqrt(2 / (2*1)) = 1.
    assert row.stderr == 1.0
    assert row.abs_err == 1.0
    # mad = mean(|1-1|, |3-1|) = 1.
    assert row.mad == 1.0


def test_bound_failures():
    row_ok = McRow(n=2, l=2, values=np.array([1.0, 1.0]), target=1.0)
    row_bad = McRow(n=4, l=4, values=np.array([2.0, 2.0]), target=1.0)
    report = McReport(spec=_spec(), rows=[row_ok, row_bad])
    assert report.bound_failures(100.0) == []
    assert report.bound_failures(0.0) == [4]


def test_calibrate_c_rate_uses_smallest_n():
    rep = mc_estimate(_spec())
    row = min(rep.rows, key=lambda r: r.n)
    assert rep.calibrate_c_rate() == row.n * (row.abs_err + 3.0 * row.stderr)


def test_rate_check_recovers_synthetic_slope():
    # Deviations exactly c/n give slope -1 regardless of resampling.
    rows = [
        McRow(n=n, l=n, values=np.full(4, 1.0 + 2.0 / n), target=1.0 + 0j)
        for n in (8, 16, 32)
    ]
    fit = rate_check(McReport(spec=_spec(n_list=(8, 16, 32)), rows=rows), resamples=20)
    assert not fit.degenerate
    assert abs(fit.slope + 1.0) <= 1e-9
    assert fit.slope_in(-1.6, -0.7)


def test_rate_check_degenerate_on_exact_values():
    rows = [
        McRow(n=n, l=n, values=np.full(4, 1.0 + 0j), target=1.0 + 0j)
        for n in (8, 16)
    ]
    fit = rate_check(McReport(spec=_spec(), rows=rows), resamples=5)
    assert fit.degenerate
    assert not fit.slope_in(-1.6, -0.7)
    with pytest.raises(ValueError):
        rate_check(McReport(spec=_spec(), rows=rows[:1]))


def test_moment_bound_guard(monkeypatch):
    monkeypatch.setattr(haar, "MOMENT_BOUND", 0.1)
    spec = _spec()
    with pytest.raises(ValueError):
        mc_estimate(spec)


def test_mc_decay_small_scale():
    rep = mc_estimate(_spec(n_list=(8, 16, 32), trials=60))
    errs = [row.abs_err for row in sorted(rep.rows, key=lambda r: r.n)]
    assert errs[0] > errs[1] > errs[2]
    assert rep.bound_failures(rep.calibrate_c_rate()) == []


def test_haar_dimension_one_is_pure_phase():
    u = sample_haar_rows(1, 1, stream(7, 1, 0))
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


def test_haar_first_moments():
    # E[U] = 0 and E[U_ab conj(U_cd)] = delta_ac delta_bd / n; with 10^4
    # samples both hold entrywise to five standard errors, for the whole
    # unitary and for its top two rows alone.
    n, count = 4, 10_000
    for m in (n, 2):
        rng = stream(11, n, m)
        us = np.empty((count, m, n), dtype=np.complex128)
        for t in range(count):
            us[t] = sample_haar_rows(n, m, rng)

        mean = us.mean(axis=0)
        serr = us.std(axis=0, ddof=1) / np.sqrt(count)
        assert np.all(np.abs(mean) <= 5.0 * serr)

        prods = us[:, :, :, None, None] * us.conj()[:, None, None, :, :]
        second = prods.mean(axis=0)
        serr2 = prods.std(axis=0, ddof=1) / np.sqrt(count)
        target = np.einsum("ac,bd->abcd", np.eye(m), np.eye(n)) / n
        assert np.all(np.abs(second - target) <= 5.0 * serr2)


def test_word_value_identity_b_reduces_to_a_trace():
    spec = _spec(
        word=parse_word("AB"),
        b_families=(DiagPatternFamily((1.0,), (1.0,)),),
    )
    u = sample_haar_rows(8, 8, stream(5, 8, 0))
    # Conjugating the identity does nothing, so the value is Tr(A).
    got = word_value(spec, 8, 8, u, *realize_families(spec, 8, 8))
    assert abs(got - 0.875) <= 1e-12


def test_mc_first_moment_is_exact():
    # E[U B U*] = tr(B) I exactly, so the mean error for a single-B word
    # is pure sampling noise at every dimension.
    spec = _spec(
        word=parse_word("AB"),
        b_families=(B_POS,),
        n_list=(6, 12),
        trials=300,
    )
    rep = mc_estimate(spec)
    for row in rep.rows:
        assert row.abs_err <= 3.0 * row.stderr


def test_rate_check_identity_unitary_negative_control(monkeypatch):
    # Forcing U = I freezes the word value at a nonzero constant, so the
    # deviation from the factorized target does not decay; the slope
    # sits near zero and the rate window check fails as it should.
    monkeypatch.setattr(haar, "sample_haar_rows", _identity_unitary)
    spec = _spec(n_list=(8, 16, 32), trials=5)
    fit = rate_check(mc_estimate(spec), resamples=20)
    assert not fit.degenerate
    assert abs(fit.slope) <= 0.05
    assert not fit.slope_in(-1.6, -0.7)


def test_mc_estimate_allocates_no_n_by_n_array():
    # An n x n complex matrix at n = 8192 would be 1 GiB.
    spec = _spec(n_list=(8192,), trials=4)
    tracemalloc.start()
    try:
        mc_estimate(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_large_n_sweep_keeps_the_rate():
    t0 = time.monotonic()
    rep = mc_estimate(_spec(n_list=(256, 1024, 4096, 8192), trials=400, seed=7))
    fit = rate_check(rep)
    assert rep.bound_failures(rep.calibrate_c_rate()) == []
    assert fit.slope_in(-1.6, -0.7), fit.slope
    assert time.monotonic() - t0 < 10.0
