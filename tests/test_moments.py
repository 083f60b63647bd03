"""Moment evaluation: tables, the two functionals, and sign patterns."""
import itertools
import json

import numpy as np
import pytest

import _reference as ref
from monotensor import words
from monotensor.moments import (
    AFamilyMoments,
    BMomentTable,
    CYCLIC_SIGN_PATTERN,
    MONOTONE_SIGN_PATTERN,
    MomentData,
    OrthonormalState,
    cyclic_moment,
    moment_via_quotient,
    monotone_moment,
    quotient_check,
    sign_pattern_check,
)
from monotensor.sampling import random_alternating_poly, random_model_spec, stream
from monotensor.words import IdealMembershipError, MissingMomentError, a, b, b_centered

STANDARD = MomentData.standard(ref.EIGS)


def test_a_family_power_sums():
    fam = AFamilyMoments.from_eigenvalues(ref.EIGS)
    assert fam.moment((1,)) == ref.A_MOMENT_1
    assert fam.moment((1, 1)) == ref.A_MOMENT_2
    assert fam.moment((1, 1, 1)) == ref.A_MOMENT_3


def test_a_family_mixed_product():
    m1 = np.diag([1.0, 2.0])
    m2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    fam = AFamilyMoments([m1, m2])
    # trace(m1 m2) = 0, trace(m1 m2 m1 m2) = trace(diag(2, 2)) = 4.
    assert fam.moment((1, 2)) == 0.0
    assert fam.moment((1, 2, 1, 2)) == 4.0


def test_a_family_validation():
    with pytest.raises(ValueError):
        AFamilyMoments([np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ValueError):
        AFamilyMoments([np.eye(2), np.eye(3)])
    fam = AFamilyMoments([np.eye(2)])
    with pytest.raises(IdealMembershipError):
        fam.moment(())
    with pytest.raises(ValueError):
        fam.moment((2,))


def test_orthonormal_table_parity_rule():
    table = OrthonormalState(2)
    assert table.value(()) == 1.0
    assert table.value((1,)) == 0.0
    assert table.value((1, 1)) == 1.0
    assert table.value((1, 2)) == 0.0
    assert table.value((1, 2, 2, 1)) == 1.0
    assert table.value((1, 2, 1, 2)) == 1.0
    assert table.value((1, 1, 1, 2)) == 0.0
    # The rule holds at any length and any q.
    assert table.value((1, 2) * 20) == 1.0 and table.value((2,) * 41) == 0.0
    assert OrthonormalState(1000).value((1000, 7, 1000, 7)) == 1.0


def test_table_missing_entry_raises():
    table = BMomentTable({(1,): 0.0, (1, 1): 1.0}, q=1)
    with pytest.raises(MissingMomentError):
        table.value((1,) * 5)
    # The orthonormal state misses only indices outside 1..q.
    for state, run in ((OrthonormalState(1), (1, 2)), (OrthonormalState(0), (1,))):
        with pytest.raises(MissingMomentError):
            state.value(run)
    with pytest.raises(ValueError):
        OrthonormalState(-1)


def test_table_rejects_inconsistent_values():
    # Rotating a stored word must not change its value.
    with pytest.raises(ValueError):
        BMomentTable({(1, 2): 0.3, (2, 1): 0.4}, q=2)
    # Reversal must conjugate: a palindrome with an imaginary value fails.
    with pytest.raises(ValueError):
        BMomentTable({(1,): 1j}, q=1)
    with pytest.raises(ValueError):
        BMomentTable({(0,): 1.0})


def test_cyclic_oracles():
    x = a(1) + b(1) * a(1) * b(1)
    for k, want in ref.X_TRACE.items():
        assert abs(cyclic_moment(x**k, STANDARD) - want) <= 1e-12


def test_monotone_oracles():
    x = a(1) + b(1) * a(1) * b(1)
    for k, want in ref.X_CORNER.items():
        assert abs(monotone_moment(x**k, STANDARD) - want) <= 1e-12


def test_alternating_words_against_mean_zero_b():
    abab = a(1) * b(1) * a(1) * b(1)
    abba = a(1) * b(1) * b(1) * a(1)
    assert cyclic_moment(abab, STANDARD) == ref.ABAB_CYCLIC
    assert abs(cyclic_moment(abba, STANDARD) - ref.ABBA_CYCLIC) <= 1e-12


def test_cyclic_wraps_trailing_into_leading():
    # tau(b2 b1) = 0.7 differs from tau(b1) tau(b2) = 1/8, separating the
    # wrapped pairing from the fully factorized one.
    table = BMomentTable(
        {(1,): 0.5, (2,): 0.25, (1, 2): 0.7, (2, 1): 0.7,
         (1, 1): 1.0, (2, 2): 1.0},
        q=2,
    )
    data = MomentData(AFamilyMoments.from_eigenvalues(ref.EIGS), table)
    word = b(1) * a(1) * b(2)
    assert abs(cyclic_moment(word, data) - ref.A_MOMENT_1 * 0.7) <= 1e-12
    assert abs(monotone_moment(word, data) - ref.A_MOMENT_1 * 0.5 * 0.25) <= 1e-12


def test_inner_runs_factor_one_by_one():
    table = BMomentTable(
        {(1,): 0.5, (2,): 0.25, (1, 2): 0.7, (2, 1): 0.7,
         (1, 1): 1.0, (2, 2): 1.0},
        q=2,
    )
    data = MomentData(AFamilyMoments.from_eigenvalues(ref.EIGS), table)
    # a1 b1 a1 b2 a1: inner runs (1,) and (2,), no outer runs.
    word = a(1) * b(1) * a(1) * b(2) * a(1)
    want = ref.A_MOMENT_3 * 0.5 * 0.25
    assert abs(cyclic_moment(word, data) - want) <= 1e-12
    assert abs(monotone_moment(word, data) - want) <= 1e-12


def test_moment_rejects_b_only_words():
    with pytest.raises(IdealMembershipError):
        cyclic_moment(b(1), STANDARD)
    with pytest.raises(IdealMembershipError):
        monotone_moment(b(1) * b(1), STANDARD)


def test_missing_entry_not_masked_by_zero_factor():
    # The first inner run has value 0; the second is not in the table.
    # The lookup must still fail rather than short-circuit to 0.
    data = MomentData(AFamilyMoments.from_eigenvalues(ref.EIGS),
                      BMomentTable({(1,): 0.0, (1, 1): 1.0}, q=1))
    word = a(1) * b(1) * a(1) * (b(1) * b(1) * b(1)) * a(1)
    with pytest.raises(MissingMomentError):
        cyclic_moment(word, data)
    with pytest.raises(MissingMomentError):
        monotone_moment(word, data)


def test_quotient_route_matches_direct():
    table = BMomentTable(
        {(1,): 0.5, (2,): 0.25, (1, 2): 0.7, (2, 1): 0.7,
         (1, 1): 1.0, (2, 2): 1.0},
        q=2,
    )
    data = MomentData(AFamilyMoments.from_eigenvalues(ref.EIGS), table)
    x = a(1) + b(1) * a(1) * b(2) + 0.5 * (b(2) * a(1))
    for k in (1, 2, 3):
        p = x**k
        for kind, direct in (("cyclic", cyclic_moment), ("monotone", monotone_moment)):
            got = moment_via_quotient(p, data, kind)
            want = direct(p, data)
            assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


@pytest.mark.parametrize("scale", [1e-16, 1e16])
def test_functionals_scale_exactly(scale):
    # Tiny or huge coefficients are neither pruned nor distorted.
    p = a(1) + b(1) * a(1) * b(1)
    for fn in (
        cyclic_moment,
        monotone_moment,
        lambda x, d: moment_via_quotient(x, d, "cyclic"),
        lambda x, d: moment_via_quotient(x, d, "monotone"),
    ):
        assert fn(scale * p, STANDARD) == scale * fn(p, STANDARD)
    assert cyclic_moment(scale * p, STANDARD) == scale * ref.X_TRACE[1]


def test_quotient_check_draws_right_factors_only_for_dropped_monomials():
    def never():
        raise AssertionError("right factor drawn with nothing dropped")
        yield

    rows = quotient_check(a(1) + b(1) * a(1) * b(1), STANDARD, never(), 1e-10)
    assert [row[0] for row in rows] == ["cyclic", "monotone", "annihilation"]
    assert all(passed for _, _, passed in rows)
    # a1 (b1)° a1 is dropped; times b1 a1 both functionals vanish on it.
    rows = quotient_check(a(1) * b(1) * a(1), STANDARD, iter([b(1) * a(1)]), 1e-10)
    assert rows[-1] == ("annihilation", 0.0, True)


def test_quotient_route_rejects_unknown_kind():
    with pytest.raises(ValueError):
        moment_via_quotient(a(1), STANDARD, "tracial")


def test_sign_patterns_match_expected_tables():
    report = sign_pattern_check(STANDARD)
    assert report.cyclic_pattern == CYCLIC_SIGN_PATTERN
    assert report.monotone_pattern == MONOTONE_SIGN_PATTERN
    assert report.ok


def test_sign_pattern_zero_cells_are_exact():
    report = sign_pattern_check(STANDARD)
    for values, pattern in (
        (report.cyclic_values, report.cyclic_pattern),
        (report.monotone_values, report.monotone_pattern),
    ):
        for i in range(4):
            for j in range(4):
                if pattern[i][j] == "0":
                    assert values[i][j] == 0.0


def test_self_products_positive():
    # Both functionals are positive on w* w for the surviving words.
    bc = b_centered(1)
    words = [a(1), a(1) * bc, bc * a(1), bc * a(1) * bc]
    for w in words:
        v = cyclic_moment(w.adjoint() * w, STANDARD)
        assert v.real > 0 and abs(v.imag) <= 1e-14


def test_gram_schmidt_single_generator():
    # tau(b) = 1/2, tau(b^2) = 1: b' = (b - 1/2) / sqrt(3/4).
    coeffs = ref.gram_schmidt(np.array([[1.0]]), np.array([0.5]))
    scale = 1.0 / np.sqrt(0.75)
    assert np.allclose(coeffs, [[-0.5 * scale, scale]], atol=1e-12)
    table = BMomentTable({(1,): 0.5, (1, 1): 1.0}, q=1)
    primed = ref.orthonormalized_table(coeffs, table)
    assert abs(primed.value((1,))) <= 1e-12
    assert abs(primed.value((1, 1)) - 1.0) <= 1e-12


def test_gram_schmidt_two_generators():
    gram = np.array([[1.0, 0.3], [0.3, 1.0]])
    means = np.array([0.2, 0.1])
    coeffs = ref.gram_schmidt(gram, means)
    table = BMomentTable(
        {(1,): 0.2, (2,): 0.1, (1, 1): 1.0, (2, 2): 1.0, (1, 2): 0.3, (2, 1): 0.3},
        q=2,
    )
    primed = ref.orthonormalized_table(coeffs, table)
    for j in (1, 2):
        assert abs(primed.value((j,))) <= 1e-12
    for i in (1, 2):
        for j in (1, 2):
            want = 1.0 if i == j else 0.0
            assert abs(primed.value((i, j)) - want) <= 1e-12


def test_gram_schmidt_rejects_dependence():
    gram = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        ref.gram_schmidt(gram, np.array([0.0, 0.0]))


def test_moment_data_json_forms():
    data = MomentData.from_json_obj({"eigenvalues": [0.5, 0.25], "q": 2})
    assert data.p == 1 and data.q == 2
    assert data.b_table.value((1, 2, 2, 1)) == 1.0
    # A tau_max_len key is ignored, like any unknown key.
    same = MomentData.from_json_obj({"eigenvalues": [0.5, 0.25], "q": 2, "tau_max_len": 1})
    assert same.b_table.value((1, 2, 1, 2, 2, 2)) == 1.0

    obj = {"a_matrices": [{"rows": 3, "cols": 3,
                           "re": [0.5, 0, 0, 0, 0.25, 0, 0, 0, 0.125]}],
           "tau": {"1": 0.0, "11": 1.0}, "q": 1}
    explicit = MomentData.from_json_obj(obj)
    x = a(1) + b(1) * a(1) * b(1)
    assert cyclic_moment(x, explicit) == cyclic_moment(x, STANDARD)


def test_moment_data_json_rejects_bad_tau_keys():
    base = {"a_matrices": [{"rows": 1, "cols": 1, "re": [1.0]}]}
    with pytest.raises(ValueError):
        MomentData.from_json_obj({**base, "tau": {"10": 1.0}})
    with pytest.raises(ValueError):
        MomentData.from_json_obj({**base, "tau": {"x": 1.0}})
    with pytest.raises(ValueError):
        MomentData.from_json_obj(base)


def test_sign_pattern_degenerate_a_is_all_zero():
    # With a = 0 every product vanishes; the report shows the all-zero
    # pattern and correctly fails the expected tables.
    data = MomentData(
        AFamilyMoments((np.zeros((2, 2)),)), OrthonormalState(1)
    )
    report = sign_pattern_check(data)
    zero = (("0",) * 4,) * 4
    assert report.cyclic_pattern == zero
    assert report.monotone_pattern == zero
    assert not report.ok


def test_gram_schmidt_orthonormal_family_is_identity():
    coeffs = ref.gram_schmidt(np.eye(2), np.zeros(2))
    expected = np.hstack([np.zeros((2, 1)), np.eye(2)])
    assert np.allclose(coeffs, expected, atol=1e-12)


def test_quotient_check_builds_one_quotient_record(monkeypatch):
    calls = []
    original = words.center_expand

    def counting(p, table):
        calls.append(p)
        return original(p, table)

    monkeypatch.setattr(words, "center_expand", counting)
    spec = random_model_spec(stream(20260819, 0xC0DE, 3))
    data = spec.moment_data()
    rights = (random_alternating_poly(stream(20260819, 0xFAC7, 3), data.p, data.q)
              for _ in range(5))
    rows = quotient_check(spec.poly, data, rights, 1e-10)
    assert len(calls) == 1
    assert [row[0] for row in rows] == ["cyclic", "monotone", "annihilation"]
    assert all(passed for _, _, passed in rows)


def test_tau_keys_name_indices_of_ten_and_up():
    base = {"a_matrices": [{"rows": 1, "cols": 1, "re": [1.0]}]}
    wide = MomentData.from_json_obj(json.loads(
        '{"a_matrices": [{"rows": 1, "cols": 1, "re": [1.0]}], "q": 10,'
        ' "tau": {"1,10": 0.0, "10,1": 0.0, "10,10": 1.0, "10,": 0.0, "99": 1.0}}'
    ))
    assert wide.q == 10
    assert wide.b_table.values == {(1, 10): 0.0, (10, 1): 0.0, (10, 10): 1.0,
                                   (10,): 0.0, (9, 9): 1.0}
    same = MomentData.from_json_obj({**base, "tau": {"1,2": 0.5, "2,1,": 0.5, "3,": 0.0}})
    assert same.b_table.values == {(1, 2): 0.5, (2, 1): 0.5, (3,): 0.0}
    for bad in ("10", "1,0", "01,2", "1,,2", "1, 2", ",1", ",", "1,2,,"):
        with pytest.raises(ValueError):
            MomentData.from_json_obj({**base, "tau": {bad: 1.0}})
    with pytest.raises(ValueError, match="twice"):
        MomentData.from_json_obj({**base, "tau": {"12": 0.5, "1,2": 0.5}})



def _pauli_data(a_value=0.5):
    """The Pauli matrices X, Y, Z as b1, b2, b3 under tr/2, runs of up to six.

    They anticommute, so a run's value depends on the order of its
    letters: tau(b1 b2) = i/2 tau(Z) = 0, but tau(b1 b2 b1 b2) = -1.
    """
    paulis = (np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]], dtype=complex))
    values = {}
    for length in range(1, 7):
        for run in itertools.product((1, 2, 3), repeat=length):
            m = np.eye(2, dtype=complex)
            for j in run:
                m = m @ paulis[j - 1]
            values[run] = np.trace(m) / 2
    return MomentData(AFamilyMoments.from_eigenvalues([a_value]),
                      BMomentTable(values, q=3))


@pytest.mark.parametrize("word, cyclic, monotone", [
    (b(1) * b(2) * a(1) * b(1) * b(2), -0.5, 0.0),
    (a(1) * b(1) * b(2) * b(3) * a(1), 0.25j, 0.25j),
    (a(1) * b(1) * b_centered(2) * b(1) * b(2) * a(1), -0.25, -0.25),
    (b(3) * a(1) * b(1) * b(2), 0.5j, 0.0),
], ids=["wrap-of-two-pairs", "inner-triple", "inner-centered", "wrap-of-three"])
def test_anticommuting_law_sees_the_order_inside_a_run(word, cyclic, monotone):
    # Hand values: XY = iZ, so XYXY = -1 and XYZ = i; a = 0.5 weighs
    # 0.5 per a-letter.  Reversing or reordering a run changes a sign.
    data = _pauli_data()
    for fn, want in ((cyclic_moment, cyclic), (monotone_moment, monotone)):
        assert abs(fn(word, data) - want) <= 1e-12
        kind = "cyclic" if fn is cyclic_moment else "monotone"
        assert abs(moment_via_quotient(word, data, kind) - want) <= 1e-12
