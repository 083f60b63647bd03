"""Algebraic properties on small random polynomials (hypothesis)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotensor.moments import (
    AFamilyMoments,
    BMomentTable,
    MomentData,
    cyclic_moment,
    moment_via_quotient,
    monotone_moment,
)
from monotensor.words import (
    CenteredRun,
    Letter,
    NCPolynomial,
    center_expand,
    parse_polynomial,
    poly_isclose,
    quotient_map,
)

# Two a-generators and an orthonormal pair of b-generators.  Runs of up to
# six indices cover every state value a word of four atoms can need.
DATA = MomentData(
    AFamilyMoments([
        np.diag([0.5, 0.25, 0.125]),
        np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.25], [0.0, 0.25, 0.0]]),
    ]),
    BMomentTable.orthonormal(2, max_len=6),
)

FUNCTIONALS = (
    cyclic_moment,
    monotone_moment,
    lambda p, d: moment_via_quotient(p, d, "cyclic"),
    lambda p, d: moment_via_quotient(p, d, "monotone"),
)

A_LETTERS = st.sampled_from([Letter("A", 1), Letter("A", 2)])
B_ATOMS = st.sampled_from([
    Letter("B", 1), Letter("B", 2),
    CenteredRun((1,)), CenteredRun((2,)), CenteredRun((1, 2)),
])


# b-indices of 10 and up, for the text and JSON round trips.
WIDE_B_LETTERS = st.sampled_from([Letter("B", 1), Letter("B", 10), Letter("B", 12)])
WIDE_B_ATOMS = WIDE_B_LETTERS | st.sampled_from([CenteredRun((11,)), CenteredRun((1, 10))])


@st.composite
def words(draw, b_atoms=B_ATOMS):
    """A word of one to four atoms with at least one a-letter."""
    rest = draw(st.lists(st.one_of(A_LETTERS, b_atoms), max_size=3))
    pos = draw(st.integers(0, len(rest)))
    return tuple(rest[:pos] + [draw(A_LETTERS)] + rest[pos:])


# Gaussian-integer coefficients keep products and sums exact.
COEFFS = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
POLYS = st.dictionaries(words(), COEFFS, max_size=4).map(NCPolynomial)
WIDE_POLYS = st.dictionaries(words(WIDE_B_ATOMS), COEFFS, max_size=4).map(NCPolynomial)
LETTER_POLYS = st.dictionaries(words(WIDE_B_LETTERS), COEFFS, max_size=4).map(NCPolynomial)
# Plain letters in any order, the unit word and b-only words included.
PLAIN_WORDS = st.lists(A_LETTERS | WIDE_B_LETTERS, max_size=4).map(tuple)
PLAIN_POLYS = st.dictionaries(PLAIN_WORDS, COEFFS, max_size=4).map(NCPolynomial)
SCALES = st.floats(1e-20, 1e20) | st.floats(-1e20, -1e-20)

FEW = settings(max_examples=25, deadline=None)


def _l1(p):
    return sum(abs(c) for c in p.terms.values())


@FEW
@given(POLYS, POLYS)
def test_functionals_are_additive(p, r):
    for fn in FUNCTIONALS:
        lhs = fn(p + r, DATA)
        rhs = fn(p, DATA) + fn(r, DATA)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + _l1(p) + _l1(r))


@FEW
@given(POLYS, SCALES)
def test_functionals_scale(p, s):
    for fn in FUNCTIONALS:
        assert abs(fn(s * p, DATA) - s * fn(p, DATA)) <= 1e-12 * abs(s) * (1.0 + _l1(p))


@FEW
@given(POLYS, POLYS)
def test_quotient_map_is_linear(p, r):
    kept, dropped = quotient_map(p + 2.0 * r, DATA.b_table)
    p_kept, p_dropped = quotient_map(p, DATA.b_table)
    r_kept, r_dropped = quotient_map(2.0 * r, DATA.b_table)
    assert poly_isclose(kept, p_kept + r_kept)
    assert poly_isclose(dropped, p_dropped + r_dropped)
    assert kept + dropped == center_expand(p + 2.0 * r, DATA.b_table)


@FEW
@given(POLYS, POLYS, POLYS)
def test_product_is_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@FEW
@given(POLYS)
def test_adjoint_is_an_involution(p):
    assert p.adjoint().adjoint() == p


def _rebuilt(terms):
    """A polynomial from decoded ``(word, coeff)`` pairs, through the public constructor."""
    out = {}
    for word, c in terms:
        out[word] = out.get(word, 0) + c
    return NCPolynomial(out)


@FEW
@given(WIDE_POLYS, WIDE_POLYS)
def test_trusted_results_match_the_public_constructor(p, r):
    pairs = [(w1 + w2, c1 * c2) for w1, c1 in p.sorted_terms() for w2, c2 in r.sorted_terms()]
    assert p * r == _rebuilt(pairs)
    assert p + r == _rebuilt(p.sorted_terms() + r.sorted_terms())
    assert -p == _rebuilt((w, -c) for w, c in p.sorted_terms())
    assert 2.0 * p == _rebuilt((w, 2.0 * c) for w, c in p.sorted_terms())
    for poly in (p * r, p + r, -p, 2.0 * p):
        assert poly == _rebuilt(poly.sorted_terms())


@FEW
@given(WIDE_POLYS, LETTER_POLYS)
def test_text_and_json_round_trips_keep_coded_words(p, r):
    assert NCPolynomial.from_json_obj(p.to_json_obj()).terms == p.terms
    assert NCPolynomial.parse(str(r)).terms == r.terms


@FEW
@given(PLAIN_POLYS)
def test_text_form_parses_back(p):
    # Gaussian-integer coefficients, which %g prints exactly.
    assert parse_polynomial(str(p)) == p


@FEW
@given(st.lists(st.integers(1, 2), min_size=1, max_size=5))
def test_a_family_traces_cannot_go_stale(a_word):
    # complex128 inputs, which np.asarray would not copy.
    mats = [
        np.diag([0.5, 0.25, 0.125]).astype(np.complex128),
        np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, 0.0]], dtype=np.complex128),
    ]
    fam = AFamilyMoments(mats)
    before = fam.moment(a_word)
    for m in mats:
        m *= 3.0
    original = AFamilyMoments(np.array(mats) / 3.0)
    longer = tuple(a_word) + (1,)  # not cached: computed after the change
    assert fam.moment(a_word) == before
    assert fam.moment(longer) == original.moment(longer)
    with pytest.raises(ValueError):
        fam.matrices[0][0, 0] = 1.0


A_WORDS = st.lists(st.lists(st.integers(1, 2), min_size=1, max_size=6).map(tuple), max_size=8)


@FEW
@given(A_WORDS)
def test_a_family_traces_do_not_depend_on_call_order(a_words):
    # Entries that round: reused partial products must give the same bits.
    mats = [np.array([[0.3, 0.1 + 0.7j], [0.1 - 0.7j, -1.1]]),
            np.array([[0.9, 0.2], [0.2, 1 / 3]])]
    fam = AFamilyMoments(mats)
    for w in a_words:
        assert fam.moment(w) == AFamilyMoments(mats).moment(w)
