"""Monte Carlo checks of both functionals on one random matrix model.

A word multiplies fixed corner blocks A_i with diagonal patterns B_j,
each B conjugated by one Haar unitary per trial.  As the dimension
grows, the full trace of the word concentrates on its cyclic moment and
the trace over a fixed number of top coordinates on its monotone
moment, both taken on the families' moment data at that dimension.
``mc_estimate`` runs the seeded experiment over a dimension sweep and
``rate_check`` fits the decay slope with a trial-resampling confidence
band.  The a-blocks have finite rank, so a trial draws only the top
rows of U that the word reads, never an n x n matrix.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, groupby, repeat

import numpy as np

from . import linalg
from .model import ENTRY_BYTES, _check_memory
from .moments import AFamilyMoments, BMomentTable, MomentData, cyclic_moment, monotone_moment
from .sampling import complex_gaussians, stream
from .words import Letter, NCPolynomial, split_runs

#: Largest |A-word trace| and normalized |b-power trace| a sweep accepts.
MOMENT_BOUND = 100.0


def sample_haar_rows(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Top ``m`` rows of an n x n Haar unitary, without forming it.

    The thin QR of an n x m complex Gaussian, phase-fixed as in
    :func:`monotensor.linalg.qr_unitary` (positive real diagonal of R),
    gives the first m columns of a Haar unitary; their conjugate
    transpose is the top of its (also Haar) adjoint (Mezzadri, Notices
    AMS 2007).  ``m = n`` gives a whole Haar unitary.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n for the rows of U, got m={m}, n={n}")
    return linalg.qr_unitary(complex_gaussians(rng, (n, m))).conj().T


@dataclass(frozen=True)
class CornerFamily:
    """Fixed finite-rank Hermitian block, zero-padded into dimension n."""

    eigenvalues: tuple

    def realize(self, n: int) -> np.ndarray:
        block = np.diag([float(x) for x in self.eigenvalues])
        if block.shape[0] > n:
            raise ValueError(f"block of rank {block.shape[0]} does not fit in n={n}")
        return linalg.embed_top_corner(block, n)


@dataclass(frozen=True)
class DiagPatternFamily:
    """Diagonal matrices with prescribed values in fixed proportions.

    ``realize(n)`` is the length-n diagonal: each value repeated
    round(weight * n) times using largest-remainder rounding, so
    normalized traces converge (and for exact proportions like a
    balanced +-1 pattern are exact at every even n).
    """

    values: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.values) != len(self.weights) or not self.values:
            raise ValueError("values and weights must be equal-length and non-empty")
        total = float(sum(self.weights))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total}")

    def realize(self, n: int) -> np.ndarray:
        raw = [w * n for w in self.weights]
        counts = [int(np.floor(x)) for x in raw]
        remainder = n - sum(counts)
        order = sorted(
            range(len(raw)), key=lambda i: (raw[i] - counts[i], -i), reverse=True
        )
        for i in order[:remainder]:
            counts[i] += 1
        return np.repeat(np.array(self.values, dtype=float), counts)


@dataclass(frozen=True)
class HaarWordSpec:
    """A conjugation word plus the families and sweep parameters.

    ``word`` is a tuple of ("A", i) / ("B", j) pairs with at least one A.
    ``l_rule`` "full" targets the cyclic functional of the word, "half"
    or a fixed int the monotone one.  "half" is rejected on a word that
    starts with a B: its limit is neither functional, and so is a fixed
    ``l`` with ``2 * l`` reaching the smallest n, where the sum is no
    longer a small corner.  The arrays a trial holds, with the values
    every row keeps, must fit in :data:`monotensor.model.MEMORY_CAP` at
    every n.
    """

    word: tuple
    a_families: tuple
    b_families: tuple
    n_list: tuple
    l_rule: object = "full"  # "full", "half", or an explicit int
    trials: int = 400
    seed: int = 7

    def __post_init__(self):
        word = tuple((str(t).upper(), int(i)) for t, i in self.word)
        object.__setattr__(self, "word", word)
        if not any(tag == "A" for tag, _ in word):
            raise ValueError("word needs at least one A")
        if self.l_rule == "half" and word[0][0] == "B":
            raise ValueError("l='half' has no target for a word that starts with a B")
        for tag, idx in word:
            fams = self.a_families if tag == "A" else self.b_families
            if not 1 <= idx <= len(fams):
                raise ValueError(f"word letter {tag}{idx} has no family")
        if self.trials < 2:
            raise ValueError("need at least two trials for a standard error")
        if not self.n_list:
            raise ValueError("need at least one dimension")
        if (word[0][0] == "B" and self.l_rule not in ("full", "half")
                and 2 * int(self.l_rule) >= min(self.n_list)):
            raise ValueError(
                f"l={self.l_rule} on a word that starts with a B needs "
                f"2*l < {min(self.n_list)}, the smallest n: nearer n the sum "
                "is not a fixed corner"
            )
        for n in self.n_list:
            if self.rank > n:
                raise ValueError(f"block of rank {self.rank} does not fit in n={n}")
            m = self.rows_needed(n)
            # The uniforms and Gaussians, Q and LAPACK's copy of it, the rows,
            # their adjoint and their scaled copy peak at about six complex
            # n x m arrays (4.6 measured by tracemalloc, which misses
            # LAPACK's); add one real diagonal per b-family and per b-run,
            # and the m x m blocks.  Every row keeps its trial values, and
            # rate_check's resamples copy one row (about two entries a trial).
            _check_memory(
                ENTRY_BYTES * (6 * n * m + (len(self.b_families) + len(word)) * n // 2
                               + (len(self.a_families) + len(word)) * m * m
                               + (len(self.n_list) + 2) * self.trials),
                f"a Haar sweep of {self.trials} trials at n={n}",
            )

    def resolve_l(self, n: int) -> int:
        if self.l_rule == "full":
            return n
        if self.l_rule == "half":
            return max(1, n // 2)
        l = int(self.l_rule)
        if not 1 <= l <= n:
            raise ValueError(f"l={l} out of range for n={n}")
        return l

    @property
    def rank(self) -> int:
        """Size ``r`` of the largest a-block: every A lives in the top r coordinates."""
        return max(len(fam.eigenvalues) for fam in self.a_families)

    def rows_needed(self, n: int) -> int:
        """How many top rows of U a trial at dimension n draws.

        A word that starts with an A, or the full trace of any word after
        rotating it to start at an A, only reads the top ``r`` coordinates:
        ``r`` rows.  A fixed corner of a word that starts with a B also
        reads the top ``l``: ``max(l, r)`` rows.
        """
        l = self.resolve_l(n)
        if self.word[0][0] == "A" or l == n:
            return self.rank
        return max(l, self.rank)


def parse_word(text: str) -> tuple:
    """Parse 'ABAB' or 'B2 A1 B1' style patterns (default index 1)."""
    compact = text.replace(" ", "")
    if not re.fullmatch(r"(?:[ABab]\d*)+", compact):
        raise ValueError(f"cannot parse word pattern {text!r}")
    return tuple(
        (m.group(1).upper(), int(m.group(2)) if m.group(2) else 1)
        for m in re.finditer(r"([ABab])(\d*)", compact)
    )


def realize_families(spec: HaarWordSpec, n: int, m: int):
    """The a-blocks padded to m x m and the length-n b-diagonals."""
    a_mats = [fam.realize(m) for fam in spec.a_families]
    b_diags = [fam.realize(n) for fam in spec.b_families]
    _check_moment_bounds(spec, n, a_mats, b_diags)
    return a_mats, b_diags


def _check_moment_bounds(spec: HaarWordSpec, n: int, a_mats, b_diags) -> None:
    c = MOMENT_BOUND
    a_word = [idx for tag, idx in spec.word if tag == "A"]
    if a_word:
        prod = a_mats[a_word[0] - 1]
        for i in a_word[1:]:
            prod = prod @ a_mats[i - 1]
        if abs(np.trace(prod)) > c:
            raise ValueError(
                f"A-word trace {abs(np.trace(prod)):.3g} exceeds the bound {c}"
            )
    for j, d in enumerate(b_diags, start=1):
        for power in accumulate(repeat(d, len(spec.word)), np.multiply):
            if abs(power.sum()) / n > c:
                raise ValueError(f"normalized trace of a b{j}-power exceeds {c}")


def word_value(spec: HaarWordSpec, n: int, l: int, rows: np.ndarray,
               a_mats=None, b_diags=None) -> complex:
    """Truncated diagonal sum of the realized word at one sample of U.

    ``rows`` holds the top ``m`` rows of U, ``m`` from
    :meth:`HaarWordSpec.rows_needed`.  A full trace (``l = n``) is
    rotated to start at an A.  Each maximal b-run, conjugated by U, is
    one diagonal ``d`` (the product of its b's); its top m x m corner is
    ``(rows * d) @ rows^H``.  A run is never split into its letters,
    because ``rows^H rows`` is not the identity.  The value is the trace
    over the first ``min(l, m)`` coordinates of the m x m product.
    """
    m = rows.shape[0]
    if a_mats is None or b_diags is None:
        a_mats, b_diags = realize_families(spec, n, m)
    word = spec.word
    if l == n:
        first_a = next(i for i, (tag, _) in enumerate(word) if tag == "A")
        word = word[first_a:] + word[:first_a]
    rows_h = rows.conj().T
    factors = []
    for is_a, letters in groupby(word, key=lambda letter: letter[0] == "A"):
        if is_a:
            factors.extend(a_mats[idx - 1] for _, idx in letters)
        else:
            d = reduce(np.multiply, (b_diags[idx - 1] for _, idx in letters))
            factors.append((rows * d) @ rows_h)
    return linalg.partial_trace(reduce(np.matmul, factors), min(l, m))


def _target(spec: HaarWordSpec, n: int, l: int, a_mats, b_diags) -> complex:
    """The cyclic moment of the word for ``l_rule`` "full", else its monotone one.

    The a-data are the corner blocks cut to their top ``min(l, r)``
    coordinates, ``r`` the largest block, which for diagonal families is
    the trace over the first ``l``.  The b-table holds the normalized
    trace of the realized product of each run the functionals read:
    lead, inner runs, trail, and trail joined to lead.
    """
    word = NCPolynomial.from_word(Letter(tag, idx) for tag, idx in spec.word)
    _, runs = split_runs(*word.terms)
    tau = {}
    for run in {*runs, runs[-1] + runs[0]} - {()}:
        indices = tuple(-x for x in run)
        product = reduce(np.multiply, (b_diags[j - 1] for j in indices))
        tau[indices] = complex(product.sum()) / n
    m = min(l, spec.rank)
    data = MomentData(AFamilyMoments([mat[:m, :m] for mat in a_mats]),
                      BMomentTable(tau, q=len(b_diags)))
    functional = cyclic_moment if spec.l_rule == "full" else monotone_moment
    return functional(word, data)


@dataclass
class McRow:
    n: int
    l: int
    values: np.ndarray
    target: complex

    @property
    def mean(self) -> complex:
        return complex(self.values.mean())

    @property
    def stderr(self) -> float:
        t = self.values.size
        spread = (np.abs(self.values - self.values.mean()) ** 2).sum()
        return float(np.sqrt(spread / (t * (t - 1))))

    @property
    def abs_err(self) -> float:
        return abs(self.mean - self.target)

    @property
    def mad(self) -> float:
        """Mean absolute deviation of single trials from the target."""
        return float(np.abs(self.values - self.target).mean())


@dataclass
class McReport:
    spec: HaarWordSpec
    rows: list

    def calibrate_c_rate(self) -> float:
        """Freeze the 1/n constant from the smallest dimension's row."""
        row = min(self.rows, key=lambda r: r.n)
        return row.n * (row.abs_err + 3.0 * row.stderr)

    def bound_failures(self, c_rate: float) -> list:
        return [
            r.n
            for r in self.rows
            if r.abs_err > 3.0 * r.stderr + c_rate / r.n
        ]


def mc_estimate(spec: HaarWordSpec) -> McReport:
    """Run the seeded sweep; each trial's rows of U come from a stream
    keyed by (seed, n, trial), so the experiment is reproducible bit for
    bit.  No array of size n x n is formed."""
    rows = []
    for n in spec.n_list:
        n = int(n)
        l = spec.resolve_l(n)
        m = spec.rows_needed(n)
        a_mats, b_diags = realize_families(spec, n, m)
        target = _target(spec, n, l, a_mats, b_diags)
        values = np.empty(spec.trials, dtype=np.complex128)
        for t in range(spec.trials):
            u_rows = sample_haar_rows(n, m, stream(spec.seed, n, t))
            values[t] = word_value(spec, n, l, u_rows, a_mats, b_diags)
        rows.append(McRow(n=n, l=l, values=values, target=target))
    return McReport(spec=spec, rows=rows)


@dataclass
class RateFit:
    n_list: list
    mads: list
    slope: float
    intercept: float
    band: tuple
    degenerate: bool

    def slope_in(self, lo: float, hi: float) -> bool:
        return (not self.degenerate) and lo <= self.slope <= hi


def rate_check(report: McReport, resamples: int = 200) -> RateFit:
    """Least-squares decay slope of the trial deviations against n.

    Fits log(mean |value - target|) on log(n); the confidence band
    resamples trials with replacement per dimension.  All-zero
    deviations are flagged degenerate instead of fitted.  A slope near
    -1 is expected only for trace-free b-families: a b with nonzero
    normalized trace gives deviations that decay like n^(-1/2).
    """
    rows = sorted(report.rows, key=lambda r: r.n)
    if len(rows) < 2:
        raise ValueError("rate fit needs at least two dimensions")
    n_arr = np.array([r.n for r in rows], dtype=float)
    mads = np.array([r.mad for r in rows])
    scale = max(abs(r.target) for r in rows)
    if np.all(mads <= 1e-14 * (1.0 + scale)):
        return RateFit(
            n_list=[int(x) for x in n_arr],
            mads=list(map(float, mads)),
            slope=float("nan"),
            intercept=float("nan"),
            band=(float("nan"), float("nan")),
            degenerate=True,
        )
    slope, intercept = np.polyfit(np.log(n_arr), np.log(mads), 1)
    boot = np.empty(resamples)
    for r in range(resamples):
        resampled = []
        for row_idx, row in enumerate(rows):
            rng = stream(report.spec.seed, 0xB00075, row_idx, r)
            idx = rng.integers(0, row.values.size, row.values.size)
            resampled.append(np.abs(row.values[idx] - row.target).mean())
        resampled = np.maximum(resampled, 1e-300)
        boot[r] = np.polyfit(np.log(n_arr), np.log(resampled), 1)[0]
    band = (float(np.quantile(boot, 0.025)), float(np.quantile(boot, 0.975)))
    return RateFit(
        n_list=[int(x) for x in n_arr],
        mads=list(map(float, mads)),
        slope=float(slope),
        intercept=float(intercept),
        band=band,
        degenerate=False,
    )
