"""Finite-dimensional matrix models for the two moment functionals.

A model places the a-matrices in the corner block of an n*2^q space:
``a`` maps to ``corner (x) a_padded`` and ``b_j`` maps to ``B_j (x) I_n``,
where ``corner`` is the rank-one unit at label 0 of the 2^q tensor space
and ``B_j`` puts a flip in tensor slot j.  Matrices are flattened with
the tensor label as the outer (slow) index, so the corner block occupies
the FIRST n diagonal positions: the full trace of a polynomial power
recovers the cyclic moment, the sum of the first n diagonal entries
recovers the monotone moment, and truncated diagonal sums interpolate
between the two iterated limits.

``build_model`` never forms that space.  A flip is an XOR on the 2^q
label and ``a`` acts at label 0 only, so each word of the polynomial is
one block ``E_{L,R} (x) M``: L and R are the labels its lead and trail
b-runs send label 0 to, and M is the product of its a-matrices.  The
model keeps the reachable labels and, in each, the first ``base``
positions (the size of the a-matrices); every other row and column of
every power is zero.  The tests keep the Kronecker form as its oracle.
"""
from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass

import numpy as np

from . import linalg
from .moments import (
    AFamilyMoments,
    MomentData,
    OrthonormalState,
    cyclic_moment,
    monotone_moment,
)
from .words import NCPolynomial, check_expansion

#: Most bytes of matrices a model build may plan to hold at once (1 GiB).
#: Each estimate is checked against it before anything is allocated.
MEMORY_CAP = 2**30

#: Compressed matrices alive at once while a power is taken: the model
#: matrix, the running power and the next one.
LIVE_MATRICES = 3

#: Bytes of one complex128 entry.
ENTRY_BYTES = 16

#: Largest polynomial power evaluate_state accepts.
POWER_CAP = 32

#: Largest q a spec may have.  ``limits`` prints positions up to n * 2^q
#: in decimal, and Python refuses to print an int of more than 4,300
#: digits.  2^1024 has 309 digits, well inside that limit.
MAX_Q = 1024

#: Most (n, l) cells limit_sweep tabulates.
SWEEP_CELL_CAP = 2**16

@dataclass(frozen=True)
class ModelSpec:
    """Input data for a model: sizes, a-matrices, and the polynomial."""

    n: int
    q: int
    a_matrices: tuple
    poly: NCPolynomial

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0 <= self.q <= MAX_Q:
            raise ValueError(f"q must lie in 0..{MAX_Q}, got {self.q}")
        mats = tuple(linalg.as_matrix(m) for m in self.a_matrices)
        object.__setattr__(self, "a_matrices", mats)
        if not mats:
            raise ValueError("a model needs at least one a-matrix")
        base = mats[0].shape[0]
        for m in mats:
            if m.shape != (base, base):
                raise ValueError("a-matrices must share a common square shape")
            if not linalg.is_hermitian(m):
                raise ValueError("a-matrices must be Hermitian")
        if base > self.n:
            raise ValueError(
                f"a-matrices of dimension {base} do not fit in n={self.n}"
            )
        if self.poly.max_letter_index("A") > len(mats):
            raise ValueError("polynomial uses an a-index with no matrix")
        if self.poly.max_letter_index("B") > self.q:
            raise ValueError(f"polynomial uses a b-index above q={self.q}")
        if not self.poly.in_a_ideal():
            raise ValueError(
                "polynomial must lie in the ideal generated by the a-letters"
            )

    @property
    def dim(self) -> int:
        return self.n * 2**self.q

    def with_n(self, n: int) -> "ModelSpec":
        return dataclasses.replace(self, n=n)

    def moment_data(self) -> MomentData:
        """The matching symbolic data: same a-matrices, orthonormal b-state."""
        return MomentData(AFamilyMoments(self.a_matrices), OrthonormalState(self.q))


@dataclass
class TensorModel:
    """The model on its reachable blocks.

    Row ``r * base + i`` of ``poly_matrix`` is row ``labels[r] * n + i``
    of the n*2^q matrix, so both orders agree; the rows left out are zero.
    """

    n: int
    q: int
    base: int
    labels: tuple
    poly_matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.n * 2**self.q


def _check_memory(nbytes: int, what: str) -> None:
    if nbytes > MEMORY_CAP:
        raise ValueError(
            f"{what} needs about {nbytes} bytes of matrices, "
            f"which exceeds the memory cap of {MEMORY_CAP}"
        )


def _word_block(word, q: int):
    """``(L, a_indices, R)`` of a coded word, or None when its matrix is 0.

    ``b_j`` flips bit ``q - j`` of the label (slot 1 is the most
    significant bit, the outer Kronecker factor).  A centered run is its
    flip minus its normalized trace: the flip itself, or zero when the
    flips cancel.  A run between two a-letters must fix label 0.
    """
    a_indices = []
    lead = label = 0
    for atom in word:
        if isinstance(atom, tuple):
            mask = 0
            for j in atom:
                mask ^= 1 << (q - j)
            if not mask:
                return None
            label ^= mask
        elif atom < 0:
            label ^= 1 << (q + atom)
        else:
            if not a_indices:
                lead = label
            elif label:
                return None
            a_indices.append(atom)
            label = 0
    return lead, a_indices, label


def build_model(spec: ModelSpec) -> TensorModel:
    """Realize the spec's polynomial on its reachable (label, a-support) blocks."""
    blocks = [
        (coeff, block)
        for word, coeff in spec.poly.terms.items()
        if (block := _word_block(word, spec.q)) is not None
    ]
    labels = sorted({x for _, (lead, _, trail) in blocks for x in (lead, trail)})
    base = spec.a_matrices[0].shape[0]
    size = len(labels) * base
    _check_memory(
        LIVE_MATRICES * size**2 * ENTRY_BYTES,
        f"a model of {len(labels)} labels of size {base}",
    )
    start = {label: r * base for r, label in enumerate(labels)}
    acc = np.zeros((size, size), dtype=np.complex128)
    for coeff, (lead, a_indices, trail) in blocks:
        m = spec.a_matrices[a_indices[0] - 1]
        for i in a_indices[1:]:
            m = m @ spec.a_matrices[i - 1]
        r, c = start[lead], start[trail]
        acc[r:r + base, c:c + base] += coeff * m
    return TensorModel(
        n=spec.n, q=spec.q, base=base, labels=tuple(labels), poly_matrix=acc
    )


def state_value(model: TensorModel, m: np.ndarray, l: int) -> complex:
    """Sum of the first ``l`` diagonal entries of ``m`` in the n*2^q space.

    ``m`` is a matrix on the model's blocks, such as a power of its
    ``poly_matrix``.  Position ``label * n + i`` of the full space is
    position ``r * base + i`` here, in the same order, so the first ``l``
    full positions are a prefix of this diagonal.
    """
    if not 0 <= l <= model.dim:
        raise ValueError(f"l must lie in [0, {model.dim}], got {l}")
    n, base = model.n, model.base
    kept = sum(min(base, l - label * n) for label in model.labels if label * n < l)
    return linalg.partial_trace(m, kept)


def matrix_power(m: np.ndarray, k: int) -> np.ndarray:
    if isinstance(k, bool) or not hasattr(k, "__index__") \
            or not 1 <= operator.index(k) <= POWER_CAP:
        raise ValueError(f"power k must be an integer in 1..{POWER_CAP}, got {k}")
    acc = m
    for _ in range(k - 1):
        acc = acc @ m
    return acc


def evaluate_state(model: TensorModel, k: int, state) -> complex:
    """Evaluate a diagonal state on the k-th power of the model matrix.

    ``state`` is ``"full"`` (trace), ``"monotone"`` (sum of the first n
    diagonal entries, i.e. the corner block), or ``("partial", l)``.
    """
    if state == "full":
        l = model.dim
    elif state == "monotone":
        l = model.n
    elif isinstance(state, tuple) and len(state) == 2 and state[0] == "partial":
        l = int(state[1])
    else:
        raise ValueError(f"unknown state {state!r}")
    return state_value(model, matrix_power(model.poly_matrix, k), l)


# -- verification against the symbolic evaluators -------------------------


@dataclass
class VerifyRow:
    k: int
    symbolic: complex
    matrix: complex
    residual: float
    passed: bool


@dataclass
class VerifyReport:
    kind: str
    rows: list
    rtol: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def max_residual(self) -> float:
        return max((r.residual for r in self.rows), default=0.0)


def _verify(spec: ModelSpec, data: MomentData | None, k_max: int, rtol: float,
            kind: str) -> VerifyReport:
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    check_expansion(spec.poly, k_max)
    if data is None:
        data = spec.moment_data()
    model = build_model(spec)
    symbolic_eval = cyclic_moment if kind == "cyclic" else monotone_moment
    l = model.dim if kind == "cyclic" else model.n
    rows = []
    pk, mk = spec.poly, model.poly_matrix
    for k in range(1, k_max + 1):
        if k > 1:
            pk = pk * spec.poly
            mk = mk @ model.poly_matrix
        sym = symbolic_eval(pk, data)
        mat = state_value(model, mk, l)
        residual = abs(sym - mat)
        rows.append(
            VerifyRow(
                k=k,
                symbolic=sym,
                matrix=mat,
                residual=residual,
                passed=residual <= rtol * (1.0 + abs(sym)),
            )
        )
    return VerifyReport(kind=kind, rows=rows, rtol=rtol)


def verify_cyclic(spec: ModelSpec, data: MomentData | None = None, k_max: int = 5,
                  rtol: float = 1e-10) -> VerifyReport:
    """Full trace of every power against the cyclic moment."""
    return _verify(spec, data, k_max, rtol, "cyclic")


def verify_monotone(spec: ModelSpec, data: MomentData | None = None, k_max: int = 5,
                    rtol: float = 1e-10) -> VerifyReport:
    """Corner-block trace of every power against the monotone moment."""
    return _verify(spec, data, k_max, rtol, "monotone")


# -- the two iterated limits ----------------------------------------------


@dataclass
class LimitSweepReport:
    k: int
    rows: list  # (n, l, value)
    values: dict  # (n, l) -> value, including the full-dimension cut
    cyclic_value: complex
    monotone_value: complex
    cyclic_consistent: bool
    corner_consistent: bool
    monotone_limit_ok: bool

    @property
    def ok(self) -> bool:
        return self.cyclic_consistent and self.corner_consistent and self.monotone_limit_ok


def limit_sweep(spec: ModelSpec, k: int, n_list, l_list=None,
                tol: float = 1e-12) -> LimitSweepReport:
    """Tabulate truncated diagonal sums over a grid of n and l.

    ``l_list=None`` takes every l in 1..min(n) plus each full dimension.
    Checks the finite-rank stabilization pattern: for each n the l-run
    ends exactly at the full trace (one iterated limit, the cyclic
    value), for each common l <= min(n) the value is independent of n
    and the stabilized column reaches the corner-block value (the other
    iterated limit, the monotone value).  The model's blocks do not
    depend on n, so one power serves every n and the consistency flags
    hold by construction; the table still shows the pattern.
    """
    n_list = sorted(set(int(n) for n in n_list))
    if l_list is not None:
        l_list = sorted(set(int(l) for l in l_list))
    if not n_list or l_list == []:
        raise ValueError("need at least one n and one l")
    l_count = n_list[0] + len(n_list) if l_list is None else len(l_list)
    if len(n_list) * l_count > SWEEP_CELL_CAP:
        raise ValueError(
            f"a grid of {len(n_list)} n by {l_count} l exceeds the cap of "
            f"{SWEEP_CELL_CAP} cells"
        )
    spec.with_n(n_list[0])  # the smallest n must hold the a-matrices
    if l_list is None:
        l_list = sorted(
            set(range(1, n_list[0] + 1)) | {n * 2**spec.q for n in n_list}
        )
    model = build_model(spec)
    mp = matrix_power(model.poly_matrix, k)
    rows = []
    traces = {}
    corners = {}
    values = {}
    for n in n_list:
        at_n = dataclasses.replace(model, n=n)
        traces[n] = state_value(at_n, mp, at_n.dim)
        corners[n] = state_value(at_n, mp, n)
        for l in l_list:
            if l <= at_n.dim:
                values[(n, l)] = state_value(at_n, mp, l)
                rows.append((n, l, values[(n, l)]))
        values[(n, at_n.dim)] = traces[n]

    n0 = n_list[0]
    n_top = n_list[-1]
    cyclic_consistent = all(
        abs(traces[n] - traces[n0]) <= tol
        and abs(values[(n, n * 2**spec.q)] - traces[n]) <= tol
        for n in n_list
    )
    corner_consistent = all(
        abs(values[(n, l)] - values[(n0, l)]) <= tol
        for l in l_list
        if l <= n0
        for n in n_list
    )
    monotone_limit_ok = all(abs(corners[n] - corners[n0]) <= tol for n in n_list)
    if n0 in l_list:
        # The deepest common column must already sit at the corner value.
        monotone_limit_ok = (
            monotone_limit_ok and abs(values[(n_top, n0)] - corners[n_top]) <= tol
        )
    return LimitSweepReport(
        k=k,
        rows=rows,
        values=values,
        cyclic_value=traces[n0],
        monotone_value=corners[n0],
        cyclic_consistent=cyclic_consistent,
        corner_consistent=corner_consistent,
        monotone_limit_ok=monotone_limit_ok,
    )


# -- the rank-3 worked example ---------------------------------------------


@dataclass
class ExamplePair:
    x_spec: ModelSpec
    y_spec: ModelSpec
    x_eigenvalues: np.ndarray
    y_eigenvalues: np.ndarray
    x_expected: np.ndarray
    y_expected: np.ndarray

    @property
    def ok(self) -> bool:
        return bool(
            np.max(np.abs(self.x_eigenvalues - self.x_expected)) <= 1e-12
            and np.max(np.abs(self.y_eigenvalues - self.y_expected)) <= 1e-12
        )


def build_example_pair(eigenvalues=(0.5, 0.25, 0.125)) -> ExamplePair:
    """The commutation/anticommutation pair over a diagonal a.

    X = a + b a b has each a-eigenvalue twice; Y = a b + b a has the
    a-eigenvalues with both signs.  Both reach labels 0 and 1, so each
    model matrix is the whole 2n x 2n space.  Expected spectra are
    derived from the input eigenvalues, so variant inputs are checked
    against the same rule.
    """
    eigs = np.asarray([float(x) for x in eigenvalues])
    if eigs.size < 1:
        raise ValueError("need at least one eigenvalue")
    n = eigs.size
    # One model matrix at a time, plus the temporaries of the Hermitian
    # check and of eigvalsh: 3.3 matrices of size 2n by tracemalloc,
    # which misses LAPACK's workspace.
    _check_memory(4 * (2 * n) ** 2 * ENTRY_BYTES, f"the example pair of size {2 * n}")
    diag = linalg.as_matrix(np.diag(eigs))
    x_spec = ModelSpec(
        n=n, q=1, a_matrices=(diag,), poly=NCPolynomial.parse("a1 + b1 a1 b1")
    )
    y_spec = ModelSpec(
        n=n, q=1, a_matrices=(diag,), poly=NCPolynomial.parse("a1 b1 + b1 a1")
    )
    return ExamplePair(
        x_spec=x_spec,
        y_spec=y_spec,
        x_eigenvalues=linalg.hermitian_eigenvalues(build_model(x_spec).poly_matrix),
        y_eigenvalues=linalg.hermitian_eigenvalues(build_model(y_spec).poly_matrix),
        x_expected=np.sort(np.concatenate([eigs, eigs]))[::-1],
        y_expected=np.sort(np.concatenate([eigs, -eigs]))[::-1],
    )


# -- JSON loading -----------------------------------------------------------


def model_spec_from_json_obj(obj: dict) -> ModelSpec:
    """Load a model spec from its JSON form.

    Expected keys: ``n``, ``q``, ``poly`` (text or term list), and ``a``
    (list of {"eigenvalues": [...]} or {"matrix": {...}} entries).
    """
    if "n" not in obj or "q" not in obj or "poly" not in obj or "a" not in obj:
        raise ValueError("model spec needs keys n, q, poly, a")
    poly = obj["poly"]
    if isinstance(poly, str):
        poly = NCPolynomial.parse(poly)
    else:
        poly = NCPolynomial.from_json_obj(poly)
    mats = []
    for entry in obj["a"]:
        if "eigenvalues" in entry:
            mats.append(np.diag([float(x) for x in entry["eigenvalues"]]))
        elif "matrix" in entry:
            mats.append(linalg.matrix_from_json(entry["matrix"]))
        else:
            raise ValueError("each a-entry needs 'eigenvalues' or 'matrix'")
    base = max(m.shape[0] for m in mats)
    mats = [linalg.embed_top_corner(m, base) for m in mats]
    return ModelSpec(
        n=int(obj["n"]),
        q=int(obj["q"]),
        a_matrices=tuple(mats),
        poly=poly,
    )
