"""Algebraic properties on small random polynomials (hypothesis)."""
import numpy as np
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
from monotensor.words import CenteredRun, Letter, NCPolynomial, quotient_map

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


@st.composite
def words(draw):
    """A word of one to four atoms with at least one a-letter."""
    rest = draw(st.lists(st.one_of(A_LETTERS, B_ATOMS), max_size=3))
    pos = draw(st.integers(0, len(rest)))
    return tuple(rest[:pos] + [draw(A_LETTERS)] + rest[pos:])


# Gaussian-integer coefficients keep products and sums exact.
COEFFS = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
POLYS = st.dictionaries(words(), COEFFS, max_size=4).map(NCPolynomial)
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
    lhs = quotient_map(p + 2.0 * r, DATA.b_table)
    rhs = quotient_map(p, DATA.b_table).added(quotient_map(2.0 * r, DATA.b_table))
    assert lhs.isclose(rhs)


@FEW
@given(POLYS, POLYS, POLYS)
def test_product_is_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@FEW
@given(POLYS)
def test_adjoint_is_an_involution(p):
    assert p.adjoint().adjoint() == p
