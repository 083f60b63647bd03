"""Monte Carlo checks of both functionals on one random matrix model.

A word multiplies fixed corner blocks A_i with diagonal patterns B_j,
each B conjugated by one Haar unitary per trial.  It is the symbolic
layer's coded word (``a_i`` is ``i``, ``b_j`` is ``-j``), so the targets
are the functionals on that very word.  As the dimension
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
from functools import cached_property, reduce
from itertools import accumulate, repeat

import numpy as np

from . import linalg
from .model import ENTRY_BYTES, _check_memory
from .moments import AFamilyMoments, BMomentTable, MomentData, cyclic_moment, monotone_moment
from .sampling import complex_gaussians, stream
from .words import NCPolynomial, split_runs

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

    ``word`` is a coded word (``a_i`` is ``i``, ``b_j`` is ``-j``, as
    :func:`parse_word` returns it) with at least one a-letter.
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
        a_indices, (lead, *_) = self.split
        if not a_indices:
            raise ValueError("word needs at least one A")
        if self.l_rule == "half" and lead:
            raise ValueError("l='half' has no target for a word that starts with a B")
        for x in self.word:
            tag, fams = ("A", self.a_families) if x > 0 else ("B", self.b_families)
            if not 1 <= abs(x) <= len(fams):
                raise ValueError(f"word letter {tag}{abs(x)} has no family")
        if self.trials < 2:
            raise ValueError("need at least two trials for a standard error")
        if not self.n_list:
            raise ValueError("need at least one dimension")
        if (lead and self.l_rule not in ("full", "half")
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
                ENTRY_BYTES * (6 * n * m + (len(self.b_families) + len(self.word)) * n // 2
                               + (len(self.a_families) + len(self.word)) * m * m
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

    @cached_property
    def split(self) -> tuple:
        """``(a_indices, runs)`` of the word, by :func:`monotensor.words.split_runs`."""
        return split_runs(self.word)

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
        if not self.split[1][0] or l == n:
            return self.rank
        return max(l, self.rank)


def parse_word(text: str) -> tuple:
    """Parse 'ABAB' or 'B2 A1 B1' style patterns (default index 1) into a
    coded word: ``A<i>`` is ``i`` and ``B<j>`` is ``-j``."""
    compact = text.replace(" ", "")
    if not re.fullmatch(r"(?:[ABab]\d*)+", compact):
        raise ValueError(f"cannot parse word pattern {text!r}")
    word = []
    for tag, digits in re.findall(r"([AB])(\d*)", compact.upper()):
        idx = int(digits or 1)
        if idx == 0:  # codes neither family
            raise ValueError(f"word letter {tag}0 has no family")
        word.append(idx if tag == "A" else -idx)
    return tuple(word)


def realize_families(spec: HaarWordSpec, n: int, m: int):
    """The a-blocks padded to m x m and the realized product of each b-run.

    The second value maps each run the word and its functionals read
    (lead, inner runs, trail, and the trail joined to the lead, which is
    the run of a full trace rotated to start at an A) to the length-n
    diagonal of its b's, multiplied left to right.
    """
    a_mats = [fam.realize(m) for fam in spec.a_families]
    b_diags = [fam.realize(n) for fam in spec.b_families]
    _check_moment_bounds(spec, n, a_mats, b_diags)
    runs = spec.split[1]
    return a_mats, {
        run: reduce(np.multiply, (b_diags[-x - 1] for x in run))
        for run in {*runs, runs[-1] + runs[0]} - {()}
    }


def _check_moment_bounds(spec: HaarWordSpec, n: int, a_mats, b_diags) -> None:
    c = MOMENT_BOUND
    trace = abs(np.trace(reduce(np.matmul, (a_mats[i - 1] for i in spec.split[0]))))
    if trace > c:
        raise ValueError(f"A-word trace {trace:.3g} exceeds the bound {c}")
    for j, d in enumerate(b_diags, start=1):
        for power in accumulate(repeat(d, len(spec.word)), np.multiply):
            if abs(power.sum()) / n > c:
                raise ValueError(f"normalized trace of a b{j}-power exceeds {c}")


def word_value(spec: HaarWordSpec, n: int, l: int, rows: np.ndarray,
               a_mats, run_diags) -> complex:
    """Truncated diagonal sum of the realized word at one sample of U.

    ``rows`` holds the top ``m`` rows of U, ``m`` from
    :meth:`HaarWordSpec.rows_needed`, and ``a_mats`` and ``run_diags``
    come from :func:`realize_families`.  A full trace (``l = n``) is
    rotated to start at an A, which joins the trail to the lead.  Each
    b-run, conjugated by U, is its diagonal ``d``; its top m x m corner
    is ``(rows * d) @ rows^H``.  A run is never split into its letters,
    because ``rows^H rows`` is not the identity.  The value is the trace
    over the first ``min(l, m)`` coordinates of the m x m product.
    """
    m = rows.shape[0]
    a_indices, (lead, *runs) = spec.split
    if l == n:
        lead, runs[-1] = (), runs[-1] + lead
    rows_h = rows.conj().T
    factors = []
    # Each run follows the a-letter before it; the lead follows none.
    for i, run in zip((None, *a_indices), (lead, *runs)):
        if i is not None:
            factors.append(a_mats[i - 1])
        if run:
            factors.append((rows * run_diags[run]) @ rows_h)
    return linalg.partial_trace(reduce(np.matmul, factors), min(l, m))


def _target(spec: HaarWordSpec, n: int, l: int, a_mats, run_diags) -> complex:
    """The cyclic moment of the word for ``l_rule`` "full", else its monotone one.

    The a-data are the corner blocks cut to their top ``min(l, r)``
    coordinates, ``r`` the largest block, which for diagonal families is
    the trace over the first ``l``.  The b-table holds the normalized
    trace of each run's realized product.
    """
    tau = {tuple(-x for x in run): complex(d.sum()) / n for run, d in run_diags.items()}
    m = min(l, spec.rank)
    data = MomentData(AFamilyMoments([mat[:m, :m] for mat in a_mats]),
                      BMomentTable(tau, q=len(spec.b_families)))
    functional = cyclic_moment if spec.l_rule == "full" else monotone_moment
    return functional(NCPolynomial._coded({spec.word: 1.0 + 0.0j}), data)


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
        a_mats, run_diags = realize_families(spec, n, m)
        target = _target(spec, n, l, a_mats, run_diags)
        values = np.empty(spec.trials, dtype=np.complex128)
        for t in range(spec.trials):
            u_rows = sample_haar_rows(n, m, stream(spec.seed, n, t))
            values[t] = word_value(spec, n, l, u_rows, a_mats, run_diags)
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
