"""Frozen reference values and the dense Kronecker oracle of the model.

The values are derived by hand from the eigenvalue list (1/2, 1/4, 1/8),
so the suite never trusts the code under test for an expected value.
All numbers are dyadic rationals and exact in floats.

``build_dense_model`` forms the model's n*2^q matrices as Kronecker
products: ``a`` maps to ``corner (x) a_padded`` and ``b_j`` to
``B_j (x) I_n``, where ``corner`` is the rank-one unit at label 0 of the
2^q tensor space and ``B_j`` puts a flip in tensor slot j.  The tests
check :func:`monotensor.model.build_model`, which works on the reachable
blocks only, against it.

``gram_schmidt`` and ``orthonormalized_table`` orthonormalize a b-family
in its state, and ``poly_isclose`` compares polynomials term by term;
only the tests call them.
"""
from dataclasses import dataclass

import numpy as np

from monotensor import linalg
from monotensor.model import ENTRY_BYTES, ModelSpec, _check_memory
from monotensor.moments import BMomentTable
from monotensor.words import NCPolynomial

EIGS = (0.5, 0.25, 0.125)

# Power sums of the eigenvalues: sum(e), sum(e^2), sum(e^3).
A_MOMENT_1 = 7.0 / 8.0      # 1/2 + 1/4 + 1/8
A_MOMENT_2 = 21.0 / 64.0    # 1/4 + 1/16 + 1/64
A_MOMENT_3 = 73.0 / 512.0   # 1/8 + 1/64 + 1/512

# X = a + b a b is diag(a, a) in the 6x6 realization, so its full trace
# doubles each power sum while the top-corner sum keeps it as is.
X_TRACE = {1: 2 * A_MOMENT_1, 2: 2 * A_MOMENT_2, 3: 2 * A_MOMENT_3}
X_CORNER = {1: A_MOMENT_1, 2: A_MOMENT_2, 3: A_MOMENT_3}

# Alternating words against a mean-zero, unit-square b.
ABAB_CYCLIC = 0.0
ABBA_CYCLIC = A_MOMENT_2

_diag = np.diag(EIGS)
_zero = np.zeros((3, 3))
_eye = np.eye(3)

# The 6x6 realization over the block basis (corner block first).
A6 = np.block([[_diag, _zero], [_zero, _zero]])
B6 = np.block([[_zero, _eye], [_eye, _zero]])
X6 = np.block([[_diag, _zero], [_zero, _diag]])
Y6 = np.block([[_zero, _diag], [_diag, _zero]])

# Spectra, sorted descending to match the eigenvalue solver's order.
X_SPECTRUM = np.array([0.5, 0.5, 0.25, 0.25, 0.125, 0.125])
Y_SPECTRUM = np.array([0.5, 0.25, 0.125, -0.125, -0.25, -0.5])


# -- the dense Kronecker oracle ----------------------------------------------

#: 2x2 flip (the off-diagonal permutation); its square is the identity.
FLIP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def flip_factor(q: int, j: int) -> np.ndarray:
    """The 2^q tensor-space matrix with a flip in slot j (j = 0: identity)."""
    if not 0 <= j <= q:
        raise ValueError(f"slot index {j} out of range 0..{q}")
    if j == 0:
        return np.eye(2**q, dtype=np.complex128)
    return np.kron(
        np.eye(2 ** (j - 1)), np.kron(FLIP, np.eye(2 ** (q - j)))
    )


def corner_unit(q: int) -> np.ndarray:
    """Rank-one unit at tensor label 0 (the product of per-slot units)."""
    out = np.zeros((2**q, 2**q), dtype=np.complex128)
    out[0, 0] = 1.0
    return out


@dataclass
class DenseTensorModel:
    n: int
    q: int
    dim: int
    a_reps: list
    b_reps: list
    poly_matrix: np.ndarray


def build_dense_model(spec: ModelSpec) -> DenseTensorModel:
    """Realize the spec's polynomial as a dim x dim Kronecker matrix."""
    dim = spec.dim
    _check_memory(
        (len(spec.a_matrices) + spec.q + 3) * dim**2 * ENTRY_BYTES,
        f"a dense model of dimension {dim}",
    )
    corner = corner_unit(spec.q)
    eye_n = np.eye(spec.n, dtype=np.complex128)
    a_reps = [
        np.kron(corner, linalg.embed_top_corner(m, spec.n))
        for m in spec.a_matrices
    ]
    b_reps = [
        np.kron(flip_factor(spec.q, j), eye_n) for j in range(1, spec.q + 1)
    ]
    acc = np.zeros((dim, dim), dtype=np.complex128)
    # Every word holds an a-letter (ModelSpec checks), so none is empty.
    for word, coeff in spec.poly.terms.items():
        m = _atom_matrix(word[0], a_reps, b_reps, dim)
        for atom in word[1:]:
            m = m @ _atom_matrix(atom, a_reps, b_reps, dim)
        acc = acc + coeff * m
    return DenseTensorModel(
        n=spec.n, q=spec.q, dim=dim, a_reps=a_reps, b_reps=b_reps, poly_matrix=acc
    )


def _atom_matrix(atom, a_reps, b_reps, dim: int) -> np.ndarray:
    """Matrix of a coded atom (see :mod:`monotensor.words`)."""
    if isinstance(atom, tuple):
        m = b_reps[atom[0] - 1]
        for j in atom[1:]:
            m = m @ b_reps[j - 1]
        return m - (np.trace(m) / dim) * np.eye(dim, dtype=np.complex128)
    if atom > 0:
        return a_reps[atom - 1]
    return b_reps[-atom - 1]


# -- orthonormalization of a b-family ----------------------------------------

#: Smallest squared norm :func:`gram_schmidt` accepts as a pivot.
PIVOT_TOL = 1e-10


def gram_schmidt(gram, means) -> np.ndarray:
    """Orthonormalize {1, b_1..b_q} in the state's inner product.

    ``gram[i, j]`` holds state(b_i* b_j) and ``means[i]`` holds
    state(b_i).  Returns a (q, q+1) coefficient matrix C with
    ``b'_i = C[i, 0] * 1 + sum_k C[i, k] * b_k``; the primed family is
    centered and orthonormal.  Pivots below :data:`PIVOT_TOL` (linear
    dependence, or a Gram matrix that is not positive definite) raise
    ``ValueError``.
    """
    gram = np.asarray(gram, dtype=np.complex128)
    means = np.asarray(means, dtype=np.complex128).ravel()
    q = means.size
    if gram.shape != (q, q):
        raise ValueError(f"gram must be ({q}, {q}) to match means, got {gram.shape}")
    full = np.zeros((q + 1, q + 1), dtype=np.complex128)
    full[0, 0] = 1.0
    full[0, 1:] = means
    full[1:, 0] = means.conjugate()
    full[1:, 1:] = gram
    if not linalg.is_hermitian(full, rtol=1e-10):
        raise ValueError("gram matrix is not Hermitian")

    def inner(x, y):
        return complex(x.conjugate() @ full @ y)

    basis = [np.eye(q + 1, dtype=np.complex128)[0]]
    for i in range(1, q + 1):
        v = np.eye(q + 1, dtype=np.complex128)[i]
        for u in basis:
            v = v - inner(u, v) * u
        nrm2 = inner(v, v).real
        if nrm2 < PIVOT_TOL:
            raise ValueError(
                f"orthonormalization pivot {nrm2:.3e} below {PIVOT_TOL:.1e}: "
                "family is linearly dependent or the Gram matrix is not positive"
            )
        basis.append(v / np.sqrt(nrm2))
    return np.array(basis[1:])


def orthonormalized_table(coeffs, table: BMomentTable) -> BMomentTable:
    """Singleton and pair moments of the orthonormalized family.

    Expands state values of ``b'_i`` and ``b'_i b'_j`` multilinearly in
    the original family (assumed self-adjoint, so products need no
    conjugation); the result is the centered orthonormal table up to
    rounding.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    q = coeffs.shape[0]
    if coeffs.shape != (q, q + 1):
        raise ValueError(f"coefficient matrix must be (q, q+1), got {coeffs.shape}")
    ext = np.zeros(q + 1, dtype=np.complex128)
    ext[0] = 1.0
    for k in range(1, q + 1):
        ext[k] = table.value((k,))
    prods = np.zeros((q + 1, q + 1), dtype=np.complex128)
    prods[0, :] = ext
    prods[:, 0] = ext
    for k in range(1, q + 1):
        for l in range(1, q + 1):
            prods[k, l] = table.value((k, l))
    singles = coeffs @ ext
    pairs = coeffs @ prods @ coeffs.T
    values: dict[tuple[int, ...], complex] = {}
    for i in range(q):
        values[(i + 1,)] = singles[i]
        for j in range(q):
            values[(i + 1, j + 1)] = pairs[i, j]
    return BMomentTable(values, q=q)


def poly_isclose(p: NCPolynomial, r: NCPolynomial, tol: float = 1e-12) -> bool:
    words = set(p.terms) | set(r.terms)
    return all(abs(p.terms.get(w, 0.0) - r.terms.get(w, 0.0)) <= tol for w in words)
