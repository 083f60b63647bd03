"""Symbolic moment evaluation for the two product states.

The a-family carries a non-normalized trace weight given by explicit
Hermitian matrices (or an eigenvalue list); the b-family carries a
tracial state given by a finite table of run moments.  Two linear
functionals are evaluated on polynomials whose every word contains an
a-letter:

* the cyclic functional factors a word as  weight(a-letters) *
  state(inner runs) * state(trailing run concatenated with leading run);
* the monotone functional factors every run separately, leading and
  trailing included.

The two share one evaluation loop and differ only in that wrap.  Both
also factor through the quotient record produced by
:func:`monotensor.words.quotient_map`; :func:`moment_via_quotient`
evaluates along that route, which is the oracle used throughout the
test-suite, and :func:`quotient_check` compares the two routes.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from . import linalg
from .words import (
    CenteredRun,
    IdealMembershipError,
    MissingMomentError,
    NCPolynomial,
    b_centered,
    a as a_letter,
    expand_run,
    quotient_map,
    quotient_map_with_remainder,
    split_runs,
)

TABLE_CHECK_TOL = 1e-12


class BMomentTable:
    """Finite table of b-run moments under a tracial state.

    Entries map plain index tuples to values; the empty run has value 1.
    Stored entries are checked for Hermitian symmetry (reverse = conjugate,
    the family being self-adjoint) and traciality (stored rotations agree).
    A lookup of a run that is not stored raises
    :class:`~monotensor.words.MissingMomentError` rather than defaulting
    to zero.
    """

    def __init__(self, values: dict, q: int | None = None):
        table: dict[tuple[int, ...], complex] = {}
        top = 0
        for key, val in values.items():
            run = tuple(int(j) for j in key)
            if not run:
                raise ValueError("the empty run is implicit and always 1")
            if any(j < 1 for j in run):
                raise ValueError(f"run indices must be >= 1, got {run}")
            top = max(top, max(run))
            table[run] = complex(val)
        self.values = table
        self.q = top if q is None else int(q)
        if self.q < top:
            raise ValueError(f"q={q} is smaller than the largest stored index {top}")
        self._check_consistency()

    def _check_consistency(self):
        scale = 1.0 + max((abs(v) for v in self.values.values()), default=0.0)
        tol = TABLE_CHECK_TOL * scale
        for run, val in self.values.items():
            rev = tuple(reversed(run))
            if rev in self.values and abs(self.values[rev] - val.conjugate()) > tol:
                raise ValueError(
                    f"table is not Hermitian: value({rev}) != conj(value({run}))"
                )
            for shift in range(1, len(run)):
                rot = run[shift:] + run[:shift]
                if rot in self.values and abs(self.values[rot] - val) > tol:
                    raise ValueError(
                        f"table is not tracial: value({rot}) != value({run})"
                    )

    @classmethod
    def orthonormal(cls, q: int, max_len: int = 4) -> "BMomentTable":
        """Moments of a centered orthonormal family.

        Singletons are 0 and pairs are delta(i, j); longer runs follow
        the even-multiplicity rule (1 iff every index occurs an even
        number of times), which is the value the concrete flip-matrix
        realization of such a family takes at every length.
        """
        if q < 0:
            raise ValueError("q must be non-negative")
        values: dict[tuple[int, ...], float] = {}
        for length in range(1, max_len + 1):
            for run in iter_product(range(1, q + 1), repeat=length):
                counts = {j: run.count(j) for j in set(run)}
                values[run] = 1.0 if all(c % 2 == 0 for c in counts.values()) else 0.0
        return cls(values, q=q)

    def value(self, run) -> complex:
        run = tuple(run)
        if not run:
            return 1.0 + 0.0j
        try:
            return self.values[run]
        except KeyError:
            raise MissingMomentError(
                f"no stored moment for b-run {run}; extend the table"
            ) from None


class AFamilyMoments:
    """Joint moments of the a-family: non-normalized trace of products."""

    def __init__(self, matrices):
        mats = [linalg.as_matrix(m) for m in matrices]
        if not mats:
            raise ValueError("need at least one a-matrix")
        dim = mats[0].shape[0]
        for m in mats:
            if m.shape != (dim, dim):
                raise ValueError("a-matrices must be square with a common dimension")
            if not linalg.is_hermitian(m):
                raise ValueError("a-matrices must be Hermitian")
        self.matrices = mats

    @classmethod
    def from_eigenvalues(cls, eigenvalues) -> "AFamilyMoments":
        eigs = [float(x) for x in eigenvalues]
        if not eigs:
            raise ValueError("need at least one eigenvalue")
        return cls([np.diag(eigs)])

    @property
    def p(self) -> int:
        return len(self.matrices)

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]

    def moment(self, indices) -> complex:
        """Trace of ``a_{i1} .. a_{ik}``; the word must be non-empty."""
        indices = tuple(indices)
        if not indices:
            raise IdealMembershipError("a-word moment needs at least one letter")
        for i in indices:
            if not 1 <= i <= self.p:
                raise ValueError(f"a-index {i} out of range 1..{self.p}")
        acc = self.matrices[indices[0] - 1]
        for i in indices[1:]:
            acc = acc @ self.matrices[i - 1]
        return complex(np.trace(acc))


@dataclass
class MomentData:
    """Everything needed to evaluate the two functionals."""

    a_moments: AFamilyMoments
    b_table: BMomentTable

    @property
    def p(self) -> int:
        return self.a_moments.p

    @property
    def q(self) -> int:
        return self.b_table.q

    @classmethod
    def standard(cls, eigenvalues, q: int = 1, max_len: int = 4) -> "MomentData":
        """Single diagonal a-matrix plus the orthonormal b-table."""
        return cls(
            AFamilyMoments.from_eigenvalues(eigenvalues),
            BMomentTable.orthonormal(q, max_len=max_len),
        )

    @classmethod
    def from_json_obj(cls, obj: dict) -> "MomentData":
        if "eigenvalues" in obj:
            a_moments = AFamilyMoments.from_eigenvalues(obj["eigenvalues"])
            q = int(obj.get("q", 1))
            table = BMomentTable.orthonormal(q, max_len=int(obj.get("tau_max_len", 4)))
            return cls(a_moments, table)
        if "a_matrices" not in obj or "tau" not in obj:
            raise ValueError(
                "moment data needs either 'eigenvalues' or 'a_matrices' plus 'tau'"
            )
        a_moments = AFamilyMoments(
            [linalg.matrix_from_json(m) for m in obj["a_matrices"]]
        )
        values = {}
        for key, val in obj["tau"].items():
            if not key or not key.isdigit() or "0" in key:
                raise ValueError(f"tau keys are digit strings of indices >= 1: {key!r}")
            run = tuple(int(ch) for ch in key)
            values[run] = complex(val[0], val[1]) if isinstance(val, list) else complex(val)
        return cls(a_moments, BMomentTable(values, q=obj.get("q")))

    def to_json_obj(self) -> dict:
        tau = {}
        for run, val in sorted(self.b_table.values.items()):
            key = "".join(str(j) for j in run)
            tau[key] = val.real if val.imag == 0.0 else [val.real, val.imag]
        return {
            "a_matrices": [linalg.matrix_to_json(m) for m in self.a_moments.matrices],
            "tau": tau,
            "q": self.b_table.q,
        }


def run_mean(run, table: BMomentTable) -> complex:
    """State value of a b-run that may contain centered atoms."""
    total = 0.0 + 0.0j
    for plain, coeff in expand_run(run, table):
        total += coeff * table.value(plain)
    return total


def _factorized_moment(p: NCPolynomial, data: MomentData, wrap: bool) -> complex:
    """Weight of each word's a-letters times the state of each of its b-runs.

    With ``wrap`` the trailing run is joined onto the leading one inside
    a single state value; without it the two factor separately.
    """
    total = 0.0 + 0.0j
    for word, coeff in p.terms.items():
        a_indices, runs = split_runs(word)
        if not a_indices:
            raise IdealMembershipError(
                f"word without a-letters has no moment here: {word!r}"
            )
        if wrap:
            runs = runs[1:-1] + [runs[-1] + runs[0]]
        value = data.a_moments.moment(a_indices)
        for run in runs:
            value *= run_mean(run, data.b_table)
        total += coeff * value
    return total


def cyclic_moment(p: NCPolynomial, data: MomentData) -> complex:
    """Cyclic functional: inner runs factor, trailing wraps onto leading."""
    return _factorized_moment(p, data, wrap=True)


def monotone_moment(p: NCPolynomial, data: MomentData) -> complex:
    """Monotone functional: every run factors separately."""
    return _factorized_moment(p, data, wrap=False)


def moment_via_quotient(p: NCPolynomial, data: MomentData, kind: str) -> complex:
    """Evaluate a functional through the quotient record.

    ``kind`` is ``"cyclic"`` or ``"monotone"``.  In the cyclic case a
    two-sided part (lead, a-word, trail) carries the weight
    ``state(trail_centered * lead_centered)``, one-sided parts carry 0
    (a centered leg traced against the unit), and the a-only part
    carries 1.  In the monotone case only the a-only part survives.
    """
    if kind not in ("cyclic", "monotone"):
        raise ValueError(f"kind must be 'cyclic' or 'monotone', got {kind!r}")
    element = quotient_map(p, data.b_table)
    total = 0.0 + 0.0j
    for a_word, coeff in element.part_a.items():
        total += coeff * data.a_moments.moment(a_word)
    if kind == "cyclic":
        for (lead, a_word, trail), coeff in element.part_bab.items():
            weight = run_mean((CenteredRun(trail), CenteredRun(lead)), data.b_table)
            if weight != 0.0:
                total += coeff * data.a_moments.moment(a_word) * weight
    return total


def quotient_check(p: NCPolynomial, data: MomentData, rights,
                   tol: float) -> list[tuple[str, float, bool]]:
    """Check that both functionals factor through the quotient of ``p``.

    Returns ``(check, residual, passed)`` rows.  The ``cyclic`` and
    ``monotone`` rows hold ``|quotient route - direct evaluator|``, which
    passes at or below ``tol * (1 + |direct|)``.  The ``annihilation``
    row holds the largest modulus either functional takes on a dropped
    monomial of ``p`` (coefficient 1) times a right factor from
    ``rights``; it passes at or below ``tol``.  ``rights`` is drawn from
    only when ``p`` drops a monomial.
    """
    rows = []
    for kind, direct in (("cyclic", cyclic_moment), ("monotone", monotone_moment)):
        want = direct(p, data)
        residual = abs(moment_via_quotient(p, data, kind) - want)
        rows.append((kind, residual, residual <= tol * (1.0 + abs(want))))
    _, remainder = quotient_map_with_remainder(p, data.b_table)
    worst = 0.0
    if remainder:
        rights = list(rights)
        for word, _ in remainder.sorted_terms():
            dropped = NCPolynomial.from_word(word)
            for y in rights:
                xy = dropped * y
                worst = max(worst, abs(cyclic_moment(xy, data)),
                            abs(monotone_moment(xy, data)))
    rows.append(("annihilation", worst, worst <= tol))
    return rows


# -- sign patterns of the low-degree mixed words -------------------------

SIGN_LABELS = ("a", "a b°", "b° a", "b° a b°")

CYCLIC_SIGN_PATTERN = (
    ("+", "0", "0", "0"),
    ("0", "0", "+", "0"),
    ("0", "+", "0", "0"),
    ("0", "0", "0", "+"),
)

MONOTONE_SIGN_PATTERN = (
    ("+", "0", "0", "0"),
    ("0", "0", "+", "0"),
    ("0", "0", "0", "0"),
    ("0", "0", "0", "0"),
)


@dataclass
class SignPatternReport:
    labels: tuple
    cyclic_values: list
    monotone_values: list
    cyclic_pattern: tuple
    monotone_pattern: tuple
    cyclic_ok: bool
    monotone_ok: bool

    @property
    def ok(self) -> bool:
        return self.cyclic_ok and self.monotone_ok


def _pattern_of(values: list[list[complex]]) -> tuple:
    scale = max((abs(v) for row in values for v in row), default=0.0)
    tol = 1e-9 * (1.0 + scale)
    rows = []
    for row in values:
        cells = []
        for v in row:
            if abs(v) <= tol:
                cells.append("0")
            elif v.real > 0 and abs(v.imag) <= tol:
                cells.append("+")
            else:
                cells.append("?")
        rows.append(tuple(cells))
    return tuple(rows)


def sign_pattern_check(data: MomentData) -> SignPatternReport:
    """Evaluate both functionals on products of the four low-degree words.

    The products of {a, a b°, b° a, b° a b°} (b° = centered b) pin where
    each functional can be non-zero; degenerate data produces all-zero
    tables which fail the expected pattern.
    """
    if data.p < 1 or data.q < 1:
        raise ValueError("sign patterns need at least one a and one b generator")
    aa = a_letter(1)
    bc = b_centered(1)
    words = [aa, aa * bc, bc * aa, bc * aa * bc]
    cyclic_values = [[cyclic_moment(w1 * w2, data) for w2 in words] for w1 in words]
    monotone_values = [[monotone_moment(w1 * w2, data) for w2 in words] for w1 in words]
    cyc = _pattern_of(cyclic_values)
    mono = _pattern_of(monotone_values)
    return SignPatternReport(
        labels=SIGN_LABELS,
        cyclic_values=cyclic_values,
        monotone_values=monotone_values,
        cyclic_pattern=cyc,
        monotone_pattern=mono,
        cyclic_ok=cyc == CYCLIC_SIGN_PATTERN,
        monotone_ok=mono == MONOTONE_SIGN_PATTERN,
    )


# -- orthonormalization of a b-family ------------------------------------


def gram_schmidt(gram, means, pivot_tol: float = 1e-10) -> np.ndarray:
    """Orthonormalize {1, b_1..b_q} in the state's inner product.

    ``gram[i, j]`` holds state(b_i* b_j) and ``means[i]`` holds
    state(b_i).  Returns a (q, q+1) coefficient matrix C with
    ``b'_i = C[i, 0] * 1 + sum_k C[i, k] * b_k``; the primed family is
    centered and orthonormal.  Pivots below ``pivot_tol`` (linear
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
        if nrm2 < pivot_tol:
            raise ValueError(
                f"orthonormalization pivot {nrm2:.3e} below {pivot_tol:.1e}: "
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
