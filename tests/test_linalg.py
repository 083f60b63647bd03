"""Linear-algebra helpers: traces, eigenvalues, QR phases, JSON forms."""
import numpy as np
import pytest

import _reference as ref
from monotensor import linalg


def test_kron_places_left_factor_on_blocks():
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    d = np.diag([2.0, 3.0])
    out = linalg.kron(e11, d)
    expected = np.zeros((4, 4))
    expected[:2, :2] = d
    assert np.array_equal(out, expected)


def test_kron_mixed_product():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3))
    c = rng.normal(size=(2, 2))
    d = rng.normal(size=(3, 3))
    lhs = linalg.kron(a, b) @ linalg.kron(c, d)
    rhs = linalg.kron(a @ c, b @ d)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_partial_trace_prefix_sums():
    m = np.diag([1.0, 2.0, 4.0, 8.0])
    assert linalg.partial_trace(m, 0) == 0.0
    assert linalg.partial_trace(m, 2) == 3.0
    assert linalg.partial_trace(m, 4) == linalg.trace(m) == 15.0


def test_partial_trace_rejects_bad_cutoff():
    m = np.eye(3)
    with pytest.raises(ValueError):
        linalg.partial_trace(m, 4)
    with pytest.raises(ValueError):
        linalg.partial_trace(m, -1)


def test_is_hermitian():
    assert linalg.is_hermitian(np.array([[1.0, 2.0 + 1j], [2.0 - 1j, 3.0]]))
    assert not linalg.is_hermitian(np.array([[1.0, 2.0], [3.0, 1.0]]))


def test_hermitian_eigenvalues_descending():
    m = np.diag([0.125, 0.5, 0.25])
    vals = linalg.hermitian_eigenvalues(m)
    assert np.allclose(vals, [0.5, 0.25, 0.125], atol=1e-14)
    assert list(vals) == sorted(vals, reverse=True)


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ValueError):
        linalg.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_qr_unitary_is_unitary_with_positive_diagonal():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    u = linalg.qr_unitary(m)
    assert np.max(np.abs(u.conj().T @ u - np.eye(6))) <= 1e-12
    # The phase convention fixes R = U^* M to a positive real diagonal.
    r = u.conj().T @ m
    assert np.all(np.diag(r).real > 0)
    assert np.max(np.abs(np.diag(r).imag)) <= 1e-12


def test_qr_unitary_deterministic():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(linalg.qr_unitary(m), linalg.qr_unitary(m.copy()))


def test_qr_unitary_rejects_singular_input():
    m = np.zeros((3, 3), dtype=np.complex128)
    with pytest.raises(np.linalg.LinAlgError):
        linalg.qr_unitary(m)


def test_embed_top_corner():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = linalg.embed_top_corner(m, 4)
    assert out.shape == (4, 4)
    assert np.array_equal(out[:2, :2], m)
    assert np.count_nonzero(out) == 4
    with pytest.raises(ValueError):
        linalg.embed_top_corner(m, 1)


def test_matrix_json_round_trip():
    m = np.array([[1.0, 2.0 + 0.5j], [2.0 - 0.5j, -1.0]])
    obj = linalg.matrix_to_json(m)
    assert obj["rows"] == 2 and obj["cols"] == 2
    back = linalg.matrix_from_json(obj)
    assert np.array_equal(back, m)


def test_matrix_json_real_only():
    obj = {"rows": 2, "cols": 2, "re": [[1.0, 0.0], [0.0, 2.0]]}
    m = linalg.matrix_from_json(obj)
    assert np.array_equal(m, np.diag([1.0, 2.0]))


def test_matrix_json_shape_mismatch():
    with pytest.raises(ValueError):
        linalg.matrix_from_json({"rows": 2, "cols": 2, "re": [[1.0, 0.0]]})


def test_flip_conjugation_moves_corner_unit():
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    moved = flip @ e11 @ flip
    assert np.array_equal(moved, np.array([[0.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(moved @ e11, np.zeros((2, 2)))


def test_traces_of_reference_matrix():
    assert linalg.trace(ref.X6) == 7 / 4
    assert linalg.partial_trace(ref.X6, 3) == 7 / 8


def test_hermitian_eigenvalues_zero_matrix():
    assert np.array_equal(linalg.hermitian_eigenvalues(np.zeros((4, 4))), np.zeros(4))


def test_hermitian_eigenvalues_match_recomputed_eigenpairs():
    # Cross-check the sorted eigenvalue list against full eigenpairs:
    # each recomputed pair must solve the eigenvalue equation to within
    # 1e-10 of the matrix norm.
    rng = np.random.default_rng(23)
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    m = (g + g.conj().T) / 2.0
    vals = linalg.hermitian_eigenvalues(m)
    w, v = np.linalg.eigh(m)
    scale = np.linalg.norm(m, 2)
    for lam, vec in zip(w, v.T):
        assert np.linalg.norm(m @ vec - lam * vec) <= 1e-10 * scale
    assert np.allclose(np.sort(vals), w, atol=1e-12)
