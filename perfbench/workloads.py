"""Seeded workloads for the monotensor benchmark.

Every input is generated here with numpy alone and written as the JSON
files the command line reads, so the program under test receives only
files and flags.  A workload is an endless sequence of *cycles*; cycle
``c`` is generated from ``(seed, c)`` on first use, so the same seed
always gives the same inputs and a run can take as many cycles as its
time allows.

Each cycle has a fixed *shape* and seeded *content*.  The shape is what
sets the cost of an operation (polynomial term count and letter
patterns, sizes, model dimension, power, trial count); the content is the
matrix entries, coefficients and letter indices.  Fixing the shapes keeps
the mix of cheap and expensive operations the same from seed to seed, so
throughput and percentiles compare across commits; the seed still
changes every number the program computes.
"""
from __future__ import annotations

import json
import os

import numpy as np

#: Polynomial term counts of the thirteen specs in one cycle of the
#: symbolic suites.  Criteria 2 and 3 draw 1..6 terms; the cost of k <= 5
#: grows like terms^5, so one 6-term spec costs about as much as the rest.
#: An odd count puts the median and the 90th percentile inside one spec's
#: samples rather than on the edge between two specs of different cost.
TERM_MIX = (5, 1, 3, 6, 2, 4, 3, 1, 5, 2, 4, 3, 2)

#: Seed of the spec shapes (sizes and letter patterns), drawn once like
#: ``random_model_spec`` draws them; the criteria's seed.
SHAPE_SEED = 20260819

#: Haar sweep of criterion 8: word, dimensions, program seed.  Trials are
#: cut from 400 to 100 per dimension so that one invocation takes seconds.
HAAR_WORD = "ABAB"
HAAR_N = "64,128,256"
HAAR_SEED = "7"
HAAR_TRIALS = 100

#: Tolerance of the benchmark's own value checks, as in the CLI.
RTOL = 1e-10

#: verify-quotient prints residuals but not the values they are relative
#: to; besides its pass flag, each residual must stay below this cap.
QUOTIENT_RESIDUAL_CAP = 1e-8


# -- speed references --------------------------------------------------------
#
# A shared machine changes speed by tens of percent over seconds (other
# tenants share its cores), far more than the changes the benchmark must
# resolve.  Each timed run therefore also times a fixed reference
# computation, independent of the program, at most every
# REFERENCE_INTERVAL seconds between operations, and scales each
# operation's time by the reference's nominal time over its median time
# near that operation: times are in seconds of a machine on which the
# reference takes its nominal time.  The reference matches the kind of
# work a workload does (interpreter-bound, small numpy calls, or large
# BLAS products); on a shared two-core Xeon VM each tracked its
# workload's speed better than the other two did.

REFERENCE_INTERVAL = 0.25


_REF_WORDS = [tuple((i * 7 + j) % 5 for j in range(1 + i % 4)) for i in range(70)]


def python_reference():
    """Products of small dict-of-tuple polynomials, like the symbolic layers."""
    out = {}
    for w1 in _REF_WORDS:
        for w2 in _REF_WORDS:
            w = w1 + w2
            out[w] = out.get(w, 0j) + (0.5 + 0.25j)
    return len(out)


_REF_RNG = np.random.default_rng(0)
_SMALL = _REF_RNG.standard_normal((96, 96)) + 1j * _REF_RNG.standard_normal((96, 96))
_LARGE = _REF_RNG.standard_normal((256, 256)) + 1j * _REF_RNG.standard_normal((256, 256))


def numpy_reference():
    q, _ = np.linalg.qr(_SMALL)
    g = np.sqrt(-np.log(1.0 - _REF_RNG.random(_SMALL.shape))) * np.exp(2j * np.pi * _SMALL.real)
    return (q @ g @ q.conj().T).trace()


def blas_reference():
    return (_LARGE @ _LARGE @ _LARGE).trace()


#: Reference computation and its nominal time in seconds, per kind of work.
REFERENCES = {
    "python": (python_reference, 0.0017),
    "numpy": (numpy_reference, 0.0035),
    "blas": (blas_reference, 0.0054),
}


class Op:
    """One operation: CLI calls made back to back, and a check of their output.

    ``check`` receives one ``(exit_code, stdout)`` pair per call and returns
    ``None`` or a reason for failure.  ``units`` is how many operations the
    calls count as (a Haar invocation counts its trials).
    """

    __slots__ = ("name", "calls", "check", "units")

    def __init__(self, name, calls, check, units=1):
        self.name = name
        self.calls = calls
        self.check = check
        self.units = units


def _rng(seed, *ids):
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, *ids])


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _matrix_json(m):
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": [float(x) for x in m.real.ravel()],
        "im": [float(x) for x in m.imag.ravel()],
    }


def _hermitian(rng, dim):
    """Hermitian matrix with unit-variance complex Gaussian entries."""
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    g /= np.sqrt(2.0)
    return (g + g.conj().T) / 2.0


def _coeff(rng):
    """Uniform on the unit disc."""
    z = np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
    return {"coeff_re": float(z.real), "coeff_im": float(z.imag)}


def _pattern(rng):
    """1..3 a-letters, each gap and end holding a b-letter with chance 0.7."""
    m = int(rng.integers(1, 4))
    out = ""
    for slot in range(m + 1):
        if rng.random() < 0.7:
            out += "B"
        if slot < m:
            out += "A"
    return out


def _symbolic_shapes():
    """(p, q, n, distinct letter patterns) for each entry of TERM_MIX."""
    rng = np.random.default_rng(SHAPE_SEED)
    shapes = []
    for terms in TERM_MIX:
        p, q, n = int(rng.integers(1, 3)), int(rng.integers(1, 4)), int(rng.integers(2, 7))
        patterns = []
        while len(patterns) < terms:
            pat = _pattern(rng)
            if pat not in patterns:
                patterns.append(pat)
        shapes.append((p, q, n, tuple(patterns)))
    return tuple(shapes)


SYMBOLIC_SHAPES = _symbolic_shapes()


def _orthonormal_tau(q, max_len=4):
    """Run moments of a centered orthonormal b-family (even-multiplicity rule)."""
    tau = {}
    keys = [""]
    for _ in range(max_len):
        keys = [k + str(j) for k in keys for j in range(1, q + 1)]
        for key in keys:
            tau[key] = 1.0 if all(key.count(ch) % 2 == 0 for ch in set(key)) else 0.0
    return tau


def _term(rng, pattern, p, q):
    word = [[t, int(rng.integers(1, (p if t == "A" else q) + 1))] for t in pattern]
    return dict(_coeff(rng), word=word)


def symbolic_spec(rng, shape):
    """A spec like ``random_model_spec`` makes, on the given shape.

    Distinct letter patterns keep the words distinct, so the term count
    never drops by merging.  Returns the spec and the matching moment data
    (same a-matrices, the orthonormal b-table) as JSON objects.
    """
    p, q, n, patterns = shape
    mats = [_hermitian(rng, n) for _ in range(p)]
    poly = [_term(rng, pat, p, q) for pat in patterns]
    spec = {"n": n, "q": q, "poly": poly, "a": [{"matrix": _matrix_json(m)} for m in mats]}
    moments = {"a_matrices": [_matrix_json(m) for m in mats], "tau": _orthonormal_tau(q), "q": q}
    return spec, moments


def _csv_rows(text):
    lines = text.strip().splitlines()
    return [line.split(",") for line in lines[1:]]


def _close(got, want):
    return abs(got - want) <= RTOL * (1.0 + abs(want))


class Workload:
    """Base: caches generated cycles and owns the input directory."""

    #: Cycles generated during set-up; later ones are made on first use.
    setup_cycles = 2
    #: Fewest operations a timed run takes, so that its 90th percentile
    #: has at least ten samples above it.
    min_ops = 0
    #: Kind of work, naming the speed reference (see REFERENCES).
    reference = "python"

    def __init__(self, seed, workdir):
        self.seed = int(seed)
        self.workdir = workdir
        self._cycles = {}

    def prepare(self):
        for c in range(self.setup_cycles):
            self.cycle(c)

    def cycle(self, c):
        if c not in self._cycles:
            path = os.path.join(self.workdir, f"c{c}")
            os.makedirs(path, exist_ok=True)
            self._cycles[c] = self.make_cycle(c, _rng(self.seed, c), path)
        return self._cycles[c]

    def make_cycle(self, c, rng, path):
        raise NotImplementedError


def _verify_check(results):
    for code, out in results:
        if code != 0:
            return f"exit code {code}"
        rows = _csv_rows(out)
        if [int(r[0]) for r in rows] != [1, 2, 3, 4, 5]:
            return "verify table does not list k = 1..5"
        for r in rows:
            sym, mat = complex(r[1]), complex(r[2])
            if r[4] != "true" or not _close(mat, sym):
                return f"k={r[0]}: symbolic {sym} against matrix {mat}"
    return None


class VerifySuite(Workload):
    """verify-cyclic plus verify-monotone, k <= 5, on criteria-2/3 shaped specs."""

    min_ops = 100

    def make_cycle(self, c, rng, path):
        ops = []
        for i, shape in enumerate(SYMBOLIC_SHAPES):
            spec, moments = symbolic_spec(rng, shape)
            s = _write(os.path.join(path, f"spec{i}.json"), spec)
            m = _write(os.path.join(path, f"moments{i}.json"), moments)
            args = ["--spec", s, "--moments", m, "--k-max", "5"]
            ops.append(Op(f"verify:{len(shape[3])}", [["verify-cyclic", *args],
                                              ["verify-monotone", *args]], _verify_check))
        return ops


def _quotient_check(results):
    (code, out), = results
    if code != 0:
        return f"exit code {code}"
    rows = _csv_rows(out)
    if sorted(r[1] for r in rows) != ["annihilation", "cyclic", "monotone"]:
        return "quotient table is missing a check"
    for r in rows:
        if r[3] != "true" or not float(r[2]) <= QUOTIENT_RESIDUAL_CAP:
            return f"{r[1]} residual {r[2]}"
    return None


class QuotientSuite(Workload):
    """verify-quotient --spec on criterion-4 shaped specs, 50 right factors each."""

    min_ops = 100

    def make_cycle(self, c, rng, path):
        ops = []
        for i, shape in enumerate(SYMBOLIC_SHAPES):
            spec, _ = symbolic_spec(rng, shape)
            s = _write(os.path.join(path, f"spec{i}.json"), spec)
            seed = str(int(rng.integers(1, 2**31)))
            ops.append(Op(f"quotient:{len(shape[3])}",
                          [["verify-quotient", "--spec", s, "--seed", seed]], _quotient_check))
        return ops


def _haar_check(results):
    (code, out), = results
    if code != 0:
        return f"exit code {code}"
    lines = out.strip().splitlines()
    summary = dict(kv.split("=", 1) for kv in lines[-1].split() if "=" in kv)
    ns = [int(r[0]) for r in _csv_rows("\n".join(lines[:4]))]
    if ns != [int(x) for x in HAAR_N.split(",")]:
        return f"haar table rows {ns}"
    if summary.get("bound_failures") != "[]":
        return f"bound failures {summary.get('bound_failures')}"
    slope = float(summary["slope"])
    if not -1.6 <= slope <= -0.7:
        return f"slope {slope} outside [-1.6, -0.7]"
    return None


class HaarSweep(Workload):
    """Criterion-8 sweep on seeded trace-free families; every other run uses l = n/2."""

    setup_cycles = 1
    reference = "numpy"

    def make_cycle(self, c, rng, path):
        eigs = np.sort(rng.uniform(0.1, 1.0, 3))[::-1]
        # Weight j/64 keeps the pattern exact at n = 64, 128, 256 and the
        # second value makes the normalized trace vanish, as in criterion 8:
        # a B with nonzero trace fluctuates like n^-1/2, not 1/n.
        w = int(rng.integers(16, 49)) / 64.0
        x = float(rng.uniform(0.5, 1.5))
        family = {
            "a": [{"eigenvalues": [float(e) for e in eigs]}],
            "b": [{"values": [x, -x * w / (1.0 - w)], "weights": [w, 1.0 - w]}],
        }
        f = _write(os.path.join(path, "family.json"), family)
        call = ["haar", "--word", HAAR_WORD, "--n", HAAR_N, "--trials", str(HAAR_TRIALS),
                "--seed", HAAR_SEED, "--family", f]
        if c % 2:
            call += ["--l", "half"]
        trials = HAAR_TRIALS * len(HAAR_N.split(","))
        return [Op("haar:" + ("half" if "--l" in call else "full"), [call], _haar_check, trials)]


class _Oracle:
    """Symbolic values of a spec's powers, computed by the library on demand."""

    def __init__(self, spec_path):
        self.spec_path = spec_path
        self._values = {}

    def value(self, kind, k):
        if (kind, k) not in self._values:
            from monotensor.model import model_spec_from_json_obj
            from monotensor.moments import cyclic_moment, monotone_moment
            with open(self.spec_path) as fh:
                spec = model_spec_from_json_obj(json.load(fh))
            data = spec.moment_data()
            fn = cyclic_moment if kind == "cyclic" else monotone_moment
            self._values[(kind, k)] = fn(spec.poly ** k, data)
        return self._values[(kind, k)]


def _model_value(out):
    obj = json.loads(out)
    return complex(obj["value"][0], obj["value"][1])


class DenseModel(Workload):
    """model and limits on dense tensor models of dimension 256 to 1024."""

    setup_cycles = 1
    reference = "blas"

    #: (n, q) of the specs in one cycle, then the model calls on each:
    #: (spec index, state, k).  A partial:<dim> call is checked against the
    #: full call before it, and k <= 2 calls against the symbolic moments.
    SHAPES = ((32, 3), (128, 2), (256, 2))
    CALLS = (
        (0, "full", 32), (0, "partial", 32), (0, "monotone", 32),
        (0, "full", 2), (0, "monotone", 2),
        (1, "full", 12), (1, "partial", 12), (1, "monotone", 1),
        (2, "full", 2), (2, "partial", 2),
    )
    #: limits runs on n, 2n, 4n = 32, 64, 128 with q = 3: dimensions 256..1024.
    LIMITS_SHAPE = (32, 3)

    @staticmethod
    def _spec(rng, n, q):
        # Three terms of fixed patterns b a b, a b a and b a: the letter
        # indices and all numbers are seeded, the build cost is not.
        poly = [_term(rng, pattern, 1, q) for pattern in ("BAB", "ABA", "BA")]
        return {"n": n, "q": q, "poly": poly, "a": [{"matrix": _matrix_json(_hermitian(rng, 3))}]}

    def make_cycle(self, c, rng, path):
        specs = []
        for i, (n, q) in enumerate(self.SHAPES):
            specs.append(_write(os.path.join(path, f"spec{i}.json"), self._spec(rng, n, q)))
        oracles = [_Oracle(s) for s in specs]
        full = {}
        ops = []
        for idx, state, k in self.CALLS:
            n, q = self.SHAPES[idx]
            dim = n * 2**q
            shown = f"partial:{dim}" if state == "partial" else state
            check = self._model_check(oracles[idx], full, (idx, k), state, k)
            ops.append(Op(f"model:{dim}:{state}:{k}",
                          [["model", "--spec", specs[idx], "--state", shown, "--k", str(k)]],
                          check))
        n, q = self.LIMITS_SHAPE
        lspec = _write(os.path.join(path, "limits.json"), self._spec(rng, n, q))
        ops.append(Op(f"limits:{n * 2**q}", [["limits", "--spec", lspec, "--k", "2"]],
                      self._limits_check(_Oracle(lspec), n, q)))
        return ops

    @staticmethod
    def _model_check(oracle, full, key, state, k):
        def check(results):
            (code, out), = results
            if code != 0:
                return f"exit code {code}"
            value = _model_value(out)
            if not np.isfinite(value):
                return f"value {value} is not finite"
            if state == "full":
                full[key] = value
            if state == "partial" and not abs(value - full[key]) <= 1e-12 * (1.0 + abs(full[key])):
                return f"partial:dim {value} differs from full {full[key]}"
            if k <= 2 and state in ("full", "monotone"):
                want = oracle.value("cyclic" if state == "full" else "monotone", k)
                if not _close(value, want):
                    return f"{state} k={k}: model {value} against symbolic {want}"
            return None
        return check

    @staticmethod
    def _limits_check(oracle, n, q):
        def check(results):
            (code, out), = results
            if code != 0:
                return f"exit code {code}"
            values = {(int(r[0]), int(r[1])): complex(float(r[2]), float(r[3]))
                      for r in _csv_rows(out)}
            cyclic, monotone = oracle.value("cyclic", 2), oracle.value("monotone", 2)
            for m in (n, 2 * n, 4 * n):
                if not _close(values[(m, m * 2**q)], cyclic):
                    return f"limits n={m}: full trace against cyclic {cyclic}"
            if not _close(values[(n, n)], monotone):
                return f"limits corner value against monotone {monotone}"
            return None
        return check


WORKLOADS = {
    "verify_suite": VerifySuite,
    "quotient_suite": QuotientSuite,
    "haar_sweep": HaarSweep,
    "dense_model": DenseModel,
}
