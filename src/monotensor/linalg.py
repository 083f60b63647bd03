"""Dense complex matrix kernel shared by the model and the samplers.

Everything operates on square (or rectangular, where noted) complex128
ndarrays.
"""
from __future__ import annotations

import numpy as np

#: Relative tolerance used when deciding whether a matrix is Hermitian.
HERMITIAN_RTOL = 1e-12

#: Relative tolerance below which a QR pivot counts as rank-deficient.
QR_PIVOT_RTOL = 1e-12


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a 2-d complex128 array."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={arr.ndim}")
    return arr


def _require_square(m: np.ndarray, what: str) -> np.ndarray:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} requires a square matrix, got shape {m.shape}")
    return m


def trace(m) -> complex:
    m = _require_square(m, "trace")
    return complex(np.trace(m))


def partial_trace(m, l: int) -> complex:
    """Sum of the first ``l`` diagonal entries.

    ``l = 0`` gives 0 and ``l = dim`` gives the full trace; other values
    truncate the diagonal, which is the state used to separate the two
    iterated limits of the matrix models.
    """
    m = _require_square(m, "partial_trace")
    if not 0 <= l <= m.shape[0]:
        raise ValueError(f"l must lie in [0, {m.shape[0]}], got {l}")
    return complex(m.diagonal()[:l].sum())


def is_hermitian(m, rtol: float = HERMITIAN_RTOL) -> bool:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    if m.size == 0:
        return True
    scale = 1.0 + float(np.abs(m).max())
    return float(np.abs(m - m.conj().T).max()) <= rtol * scale


def hermitian_eigenvalues(m) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted descending.

    Raises ``ValueError`` when the input fails the Hermitian check; the
    check tolerance is relative to the largest entry.
    """
    m = _require_square(m, "hermitian_eigenvalues")
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within tolerance")
    vals = np.linalg.eigvalsh(m)
    return vals[::-1].copy()


def qr_unitary(m) -> np.ndarray:
    """Q of the (thin) QR factorization, phase-fixed so diag(R) > 0.

    A square input gives a unitary Q, a tall n x k one the n x k Q with
    orthonormal columns.  The phase convention makes the factorization
    unique for full-rank input, which keeps downstream Haar sampling
    distribution-correct and bit-reproducible.  Rank-deficient input is
    rejected.
    """
    m = as_matrix(m)
    if m.shape[0] < m.shape[1]:
        raise ValueError(f"qr_unitary requires a square or tall matrix, got shape {m.shape}")
    q, r = np.linalg.qr(m)
    d = np.diagonal(r).copy()
    scale = 1.0 + float(np.abs(m).max()) if m.size else 1.0
    if np.any(np.abs(d) <= QR_PIVOT_RTOL * scale):
        raise np.linalg.LinAlgError("rank-deficient input: QR pivot underflow")
    phases = d / np.abs(d)
    return q * phases[np.newaxis, :]


def embed_top_corner(m, dim: int) -> np.ndarray:
    """Zero-pad a square matrix into the top-left corner of a dim x dim one."""
    m = _require_square(m, "embed_top_corner")
    r = m.shape[0]
    if dim < r:
        raise ValueError(f"target dimension {dim} is smaller than the block ({r})")
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[:r, :r] = m
    return out


def matrix_to_json(m) -> dict:
    """Serialize to the interchange schema {rows, cols, re, im} (row-major)."""
    m = as_matrix(m)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": [float(x) for x in m.real.ravel()],
        "im": [float(x) for x in m.imag.ravel()],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    rows = int(obj["rows"])
    cols = int(obj["cols"])
    re = np.asarray(obj["re"], dtype=np.float64).ravel()
    im = np.asarray(obj.get("im", np.zeros(rows * cols)), dtype=np.float64).ravel()
    if re.size != rows * cols or im.size != rows * cols:
        raise ValueError("matrix payload length does not match rows*cols")
    return (re + 1j * im).reshape(rows, cols)
