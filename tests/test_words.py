"""Word algebra: parsing, products, centering, and the quotient map."""
import numpy as np
import pytest

from monotensor.moments import BMomentTable
from monotensor.words import (
    CenteredRun,
    IdealMembershipError,
    Letter,
    NCPolynomial,
    ParseError,
    a,
    b,
    b_centered,
    center_expand,
    parse_polynomial,
    poly_isclose,
    quotient_map,
    quotient_map_with_remainder,
    split_runs,
)

ORTHO = BMomentTable.orthonormal(2)


def test_letter_validation():
    with pytest.raises(ValueError):
        Letter("A", 0)
    with pytest.raises(ValueError):
        b_centered(0)
    assert str(b_centered(2)) == "(b2)°"


def test_parse_basic():
    p = parse_polynomial("a1 + b1 a1 b1")
    assert len(p) == 2
    assert p == a(1) + b(1) * a(1) * b(1)


def test_parse_coefficients():
    p = parse_polynomial("0.5 b1 a1 b2 - a1")
    q = 0.5 * (b(1) * a(1) * b(2)) - a(1)
    assert poly_isclose(p, q)


def test_parse_complex_coefficient():
    p = parse_polynomial("(1+2j) a1")
    (word, coeff), = p.sorted_terms()
    assert coeff == 1 + 2j


def test_parse_identity_b0_is_dropped():
    assert parse_polynomial("b0 a1 b0") == a(1)


def test_parse_rejects_garbage():
    for bad in ("a1 +", "c3", "a1 b", "1.2.3 a1", "a0"):
        with pytest.raises(ParseError):
            parse_polynomial(bad)


def test_product_expansion():
    p = (a(1) + b(1)) ** 2
    expected = (
        a(1) * a(1) + a(1) * b(1) + b(1) * a(1) + b(1) * b(1)
    )
    assert poly_isclose(p, expected)


def test_pow_zero_is_unit():
    assert a(1) ** 0 == NCPolynomial.one()


def test_pow_takes_any_integer_type_but_bool():
    assert a(1) ** np.int64(2) == a(1) * a(1)
    for bad in (True, 2.0, -1, np.int64(-1)):
        with pytest.raises(ValueError):
            a(1) ** bad


def test_adjoint_reverses_and_conjugates():
    p = (1 + 2j) * (a(1) * b(1))
    q = p.adjoint()
    (word, coeff), = q.sorted_terms()
    assert coeff == 1 - 2j
    assert [str(atom) for atom in word] == ["b1", "a1"]
    assert poly_isclose(q.adjoint(), p)


def test_in_a_ideal():
    assert (a(1) * b(1)).in_a_ideal()
    assert not (a(1) + b(1)).in_a_ideal()
    assert not NCPolynomial.one().in_a_ideal()
    # Zero belongs to every ideal.
    assert NCPolynomial.zero().in_a_ideal()


def test_split_runs():
    p = b(1) * a(1) * b(2) * b(1) * a(2)
    (word, _), = p.sorted_terms()
    a_indices, runs = split_runs(word)
    assert a_indices == [1, 2]
    assert [tuple(atom.index for atom in run) for run in runs] == [(1,), (2, 1), ()]


def test_center_expand_orthonormal():
    # With mean-zero generators, centering a single letter leaves just
    # the centered run, no unit term.
    p = b(1) * a(1)
    out = center_expand(p, ORTHO)
    (word, coeff), = out.sorted_terms()
    assert coeff == 1.0
    assert word[0] == CenteredRun((1,))
    assert word[1] == Letter("A", 1)


def test_center_expand_nonzero_mean():
    # tau(b1) = 1/2: the run splits into its centered part plus the mean
    # times the unit, so b1 a1 = (b1)degree a1 + 1/2 a1.
    table = BMomentTable({(1,): 0.5, (1, 1): 1.0}, q=1)
    out = center_expand(b(1) * a(1), table)
    terms = dict(out.terms)
    assert terms[(CenteredRun((1,)), Letter("A", 1))] == 1.0
    assert terms[(Letter("A", 1),)] == 0.5
    assert len(terms) == 2


def test_center_expand_pair_run():
    # A length-2 run centers as a whole: b1 b2 = (b1 b2)degree + tau(b1 b2).
    table = BMomentTable(
        {(1,): 0.0, (2,): 0.0, (1, 2): 0.25, (2, 1): 0.25,
         (1, 1): 1.0, (2, 2): 1.0},
        q=2,
    )
    out = center_expand(b(1) * b(2) * a(1), table)
    terms = dict(out.terms)
    assert terms[(CenteredRun((1, 2)), Letter("A", 1))] == 1.0
    assert terms[(Letter("A", 1),)] == 0.25


def test_quotient_classification():
    table = ORTHO
    el = quotient_map(a(1), table)
    assert el.part_a == {(1,): 1.0}

    el = quotient_map(a(1) * b(1), table)
    assert el.part_ab == {((1,), (1,)): 1.0}
    assert not el.part_a and not el.part_ba and not el.part_bab

    el = quotient_map(b(1) * a(1), table)
    assert el.part_ba == {((1,), (1,)): 1.0}

    el = quotient_map(b(2) * a(1) * a(2) * b(1), table)
    assert el.part_bab == {((2,), (1, 2), (1,)): 1.0}


def test_quotient_mean_shifts_between_parts():
    # tau(b1) = 1/2 splits b1 a1 into the centered leg plus half the
    # bare a-word.
    table = BMomentTable({(1,): 0.5, (1, 1): 1.0}, q=1)
    el = quotient_map(b(1) * a(1), table)
    assert el.part_ba == {((1,), (1,)): 1.0}
    assert el.part_a == {(1,): 0.5}


def test_quotient_two_legs_go_to_remainder():
    el, rem = quotient_map_with_remainder(a(1) * b(1) * a(1), ORTHO)
    assert el.is_zero()
    (word, coeff), = rem.sorted_terms()
    assert coeff == 1.0
    assert word == (Letter("A", 1), CenteredRun((1,)), Letter("A", 1))


def test_quotient_inner_pair_run_mean_merges_a_letters():
    # a1 b1 b1 a1: the inner run's mean tau(b1 b1) = 1 merges the two
    # a-letters into one bare a-word, while the fully centered leftover
    # a1 (b1 b1)degree a1 is annihilated.
    el, rem = quotient_map_with_remainder(a(1) * b(1) * b(1) * a(1), ORTHO)
    assert el.part_a == {(1, 1): 1.0}
    assert not el.part_ab and not el.part_ba and not el.part_bab
    (word, coeff), = rem.sorted_terms()
    assert coeff == 1.0
    assert word == (Letter("A", 1), CenteredRun((1, 1)), Letter("A", 1))


def test_quotient_requires_a_letters():
    with pytest.raises(IdealMembershipError):
        quotient_map(b(1), ORTHO)
    with pytest.raises(IdealMembershipError):
        quotient_map(NCPolynomial.one(), ORTHO)


def test_quotient_linearity():
    p = a(1) * b(1) + 2.0 * (b(1) * a(1) * b(2))
    r = b(2) * a(1)
    lhs = quotient_map(p + r, ORTHO)
    rhs = quotient_map(p, ORTHO).added(quotient_map(r, ORTHO))
    assert lhs.isclose(rhs)


def test_json_round_trip_plain_and_centered():
    p = (0.5 + 0.25j) * (a(1) * b(2)) + b_centered(1) * a(1)
    back = NCPolynomial.from_json_obj(p.to_json_obj())
    assert poly_isclose(back, p)


def test_centered_letter_json_reads_as_run():
    obj = [{"coeff_re": 1.0, "word": [["B", 1, True], ["A", 1], ["B", 2, False]]}]
    p = NCPolynomial.from_json_obj(obj)
    assert set(p.terms) == {(CenteredRun((1,)), Letter("A", 1), Letter("B", 2))}
    assert p.to_json_obj()[0]["word"] == [["Bc", [1]], ["A", 1], ["B", 2]]
    for bad in (["A", 1, True], ["B", 0, True]):
        with pytest.raises(ValueError):
            NCPolynomial.from_json_obj([{"coeff_re": 1.0, "word": [bad]}])


def test_centered_letter_and_run_are_one_word():
    p = b_centered(1) * a(1) + NCPolynomial.from_word(
        (CenteredRun((1,)), Letter("A", 1))
    )
    assert p.terms == {(CenteredRun((1,)), Letter("A", 1)): 2.0}


def test_json_round_trip_centered_run():
    word = (CenteredRun((1, 2)), Letter("A", 1))
    p = NCPolynomial.from_word(word, 2.0)
    back = NCPolynomial.from_json_obj(p.to_json_obj())
    assert poly_isclose(back, p)


def test_str_form():
    assert str(a(1) * b(2)) == "a1 b2"
    assert str(NCPolynomial.zero()) == "0"
