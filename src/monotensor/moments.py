"""Symbolic moment evaluation for the two product states.

The a-family carries a non-normalized trace weight given by explicit
Hermitian matrices (or an eigenvalue list); the b-family carries a
tracial state, either a finite table of run moments or the rule of a
centered orthonormal family.  Two linear functionals are evaluated on
polynomials whose every word contains an a-letter:

* the cyclic functional factors a word as  weight(a-letters) *
  state(inner runs) * state(trailing run concatenated with leading run);
* the monotone functional factors every run separately, leading and
  trailing included.

The two share one evaluation loop and differ only in that wrap.  Both
also factor through the quotient record that
:func:`monotensor.words.quotient_map` returns, the polynomials ``(kept,
dropped)``: both functionals vanish on ``dropped`` and differ on
``kept`` only in the state they apply to its words' end runs.
:func:`moment_via_quotient` evaluates along that route, which is the
oracle used throughout the test-suite, and :func:`quotient_check`
compares the two routes.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import linalg
from .words import (
    IdealMembershipError,
    MissingMomentError,
    NCPolynomial,
    b_centered,
    a as a_letter,
    decode_word,
    expand_run,
    quotient_map,
    split_runs,
)

TABLE_CHECK_TOL = 1e-12

#: One b-index of a comma-separated ``tau`` key such as ``"1,10"``.
_TAU_INDEX = re.compile(r"[1-9][0-9]*")


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


class OrthonormalState:
    """State of a centered orthonormal family of q commuting flips.

    A run has value 1 when every index occurs an even number of times and
    0 otherwise: singletons are 0, pairs are delta(i, j), and every longer
    run takes the value of the flip realization in the matrix model.
    Values are computed on demand and memoized.  A run with an index
    outside 1..q raises :class:`~monotensor.words.MissingMomentError`, as
    a run missing from a :class:`BMomentTable` does.
    """

    def __init__(self, q: int):
        if q < 0:
            raise ValueError("q must be non-negative")
        self.q = int(q)
        self._values: dict[tuple[int, ...], complex] = {}

    def value(self, run) -> complex:
        run = tuple(run)
        value = self._values.get(run)
        if value is None:
            if not all(1 <= j <= self.q for j in run):
                raise MissingMomentError(
                    f"b-run {run} has an index outside 1..{self.q}"
                )
            even = all(run.count(j) % 2 == 0 for j in set(run))
            value = self._values[run] = 1.0 + 0.0j if even else 0.0j
        return value


class AFamilyMoments:
    """Joint moments of the a-family: non-normalized trace of products.

    The matrices are read-only copies of the inputs, so the traces that
    :meth:`moment` caches by a-word cannot go stale.
    """

    def __init__(self, matrices):
        mats = tuple(np.array(linalg.as_matrix(m)) for m in matrices)
        if not mats:
            raise ValueError("need at least one a-matrix")
        dim = mats[0].shape[0]
        for m in mats:
            if m.shape != (dim, dim):
                raise ValueError("a-matrices must be square with a common dimension")
            if not linalg.is_hermitian(m):
                raise ValueError("a-matrices must be Hermitian")
        for m in mats:
            m.setflags(write=False)
        self.matrices = mats
        self._traces: dict[tuple, complex] = {}
        # The last a-word computed and its left-to-right partial products.
        self._chain: tuple[tuple, list] = ((), [])

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
        """Trace of ``a_{i1} .. a_{ik}``; the word must be non-empty.

        Values are cached by word.  A new word reuses the partial products
        ``a_{i1} .. a_{im}`` of the previous new word along their common
        prefix; those are the products it would compute itself, left to
        right, so the value does not depend on what came before.
        """
        indices = tuple(indices)
        value = self._traces.get(indices)
        if value is None:
            if not indices:
                raise IdealMembershipError("a-word moment needs at least one letter")
            p = len(self.matrices)
            for i in indices:
                if not 1 <= i <= p:
                    raise ValueError(f"a-index {i} out of range 1..{p}")
            prev, partials = self._chain
            shared = 0
            for i, j in zip(indices, prev):
                if i != j:
                    break
                shared += 1
            partials = partials[:shared] or [self.matrices[indices[0] - 1]]
            for i in indices[len(partials):]:
                partials.append(partials[-1] @ self.matrices[i - 1])
            self._chain = (indices, partials)
            value = self._traces[indices] = complex(partials[-1].trace())
        return value


@dataclass
class MomentData:
    """Everything needed to evaluate the two functionals."""

    a_moments: AFamilyMoments
    b_table: BMomentTable | OrthonormalState

    @property
    def p(self) -> int:
        return self.a_moments.p

    @property
    def q(self) -> int:
        return self.b_table.q

    @classmethod
    def standard(cls, eigenvalues, q: int = 1) -> "MomentData":
        """Single diagonal a-matrix plus the orthonormal b-state."""
        return cls(AFamilyMoments.from_eigenvalues(eigenvalues), OrthonormalState(q))

    @classmethod
    def from_json_obj(cls, obj: dict) -> "MomentData":
        if "eigenvalues" in obj:
            return cls.standard(obj["eigenvalues"], int(obj.get("q", 1)))
        if "a_matrices" not in obj or "tau" not in obj:
            raise ValueError(
                "moment data needs either 'eigenvalues' or 'a_matrices' plus 'tau'"
            )
        a_moments = AFamilyMoments(
            [linalg.matrix_from_json(m) for m in obj["a_matrices"]]
        )
        values = {}
        for key, val in obj["tau"].items():
            run = _tau_run(key)
            if run in values:
                raise ValueError(f"tau names the b-run {run} twice")
            values[run] = complex(val[0], val[1]) if isinstance(val, list) else complex(val)
        return cls(a_moments, BMomentTable(values, q=obj.get("q")))


def _tau_run(key: str) -> tuple[int, ...]:
    """The b-run a ``tau`` key names, every index >= 1.

    A key is either one digit per index (``"12"`` is ``(1, 2)``) or a
    comma list (``"1,10"``), which may end in a comma and must when it
    holds one index (``"10,"`` is ``(10,)``).
    """
    if "," in key:
        parts = key.removesuffix(",").split(",")
        if all(_TAU_INDEX.fullmatch(part) for part in parts):
            return tuple(int(part) for part in parts)
    elif key.isdigit() and "0" not in key:
        return tuple(int(ch) for ch in key)
    raise ValueError(
        f"tau keys are digit strings or comma lists of indices >= 1: {key!r}"
    )


def run_mean(run, table: BMomentTable | OrthonormalState) -> complex:
    """State value of a coded b-run that may contain centered atoms."""
    total = 0.0 + 0.0j
    for plain, coeff in expand_run(run, table):
        total += coeff * table.value(plain)
    return total


def _factorized_moment(p: NCPolynomial, data: MomentData, wrap: bool) -> complex:
    """Weight of each word's a-letters times the state of each of its b-runs.

    With ``wrap`` the trailing run is joined onto the leading one inside
    a single state value; without it the two factor separately.  Run
    means are memoized for the call, a-word traces by ``data.a_moments``.
    """
    a_moment = data.a_moments.moment
    table = data.b_table
    means: dict[tuple, complex] = {}
    total = 0.0 + 0.0j
    for word, coeff in p.terms.items():
        a_indices, runs = split_runs(word)
        if not a_indices:
            raise IdealMembershipError(
                f"word without a-letters has no moment here: {decode_word(word)!r}"
            )
        if wrap:
            runs = runs[1:-1] + [runs[-1] + runs[0]]
        value = a_moment(a_indices)
        for run in runs:
            mean = means.get(run)
            if mean is None:
                mean = means[run] = run_mean(run, table)
            value *= mean
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

    ``kind`` is ``"cyclic"`` or ``"monotone"``.  Only the kept words
    count.  In the cyclic case a two-sided word ``(lead, *a_word, trail)``
    carries the weight ``state(trail_centered * lead_centered)``, a
    one-sided word carries 0 (a centered leg traced against the unit),
    and a bare a-word carries 1.  In the monotone case only the bare
    a-words survive.
    """
    if kind not in ("cyclic", "monotone"):
        raise ValueError(f"kind must be 'cyclic' or 'monotone', got {kind!r}")
    kept, _ = quotient_map(p, data.b_table)
    return _quotient_moment(kept, data, kind)


def _quotient_moment(kept: NCPolynomial, data: MomentData, kind: str) -> complex:
    """A functional's value on the kept words of a quotient record.

    Bare a-words are summed first, then two-sided words, each in the
    order of ``kept.terms`` (see :func:`moment_via_quotient`).
    """
    total = 0.0 + 0.0j
    for word, coeff in kept.terms.items():
        if not isinstance(word[0], tuple) and not isinstance(word[-1], tuple):
            total += coeff * data.a_moments.moment(word)
    if kind == "cyclic":
        for word, coeff in kept.terms.items():
            lead, trail = word[0], word[-1]
            if isinstance(lead, tuple) and isinstance(trail, tuple):
                # Both legs are centered runs, which code as their index tuples.
                weight = run_mean((trail, lead), data.b_table)
                if weight != 0.0:
                    total += coeff * data.a_moments.moment(word[1:-1]) * weight
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
    only when ``p`` drops a monomial.  The quotient record of ``p`` is
    built once and serves every row.
    """
    kept, dropped = quotient_map(p, data.b_table)
    rows = []
    for kind, direct in (("cyclic", cyclic_moment), ("monotone", monotone_moment)):
        want = direct(p, data)
        residual = abs(_quotient_moment(kept, data, kind) - want)
        rows.append((kind, residual, residual <= tol * (1.0 + abs(want))))
    worst = 0.0
    if dropped:
        rights = list(rights)
        for word, _ in dropped.sorted_terms():
            monomial = NCPolynomial.from_word(word)
            for y in rights:
                xy = monomial * y
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
