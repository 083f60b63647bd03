"""Deterministic random streams and randomized spec generators.

All randomness in the package flows through counter-based Philox
streams keyed by a master seed plus a tuple of integer ids, so any
draw can be reproduced from (seed, ids) alone.  The generators here
produce the randomized polynomials and matrices used by the
verification suites.  They are shaped like the model polynomials, with
at most one b-letter before, between and after the a-letters, so every
b-run of a power holds at most two letters: a trail joined to a lead.
"""
from __future__ import annotations

import numpy as np

from .model import ModelSpec
from .words import Letter, NCPolynomial

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fold64(*ids: int) -> int:
    """FNV-1a fold of integer ids into 64 bits."""
    h = _FNV_OFFSET
    for x in ids:
        x = int(x) & _MASK64
        for shift in range(0, 64, 8):
            h ^= (x >> shift) & 0xFF
            h = (h * _FNV_PRIME) & _MASK64
    return h


def stream(seed: int, *ids: int) -> np.random.Generator:
    """Philox stream for (seed, ids); distinct ids give distinct streams."""
    key = ((int(seed) & _MASK64) << 64) | fold64(*ids)
    return np.random.Generator(np.random.Philox(key=key))


def complex_gaussians(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex normals via Box-Muller on uniform doubles.

    Modulus squared is exponential and the phase uniform, which is the
    unit-variance complex normal; built from ``rng.random()`` only so
    the draw is fully pinned by the stream.
    """
    u1 = 1.0 - rng.random(shape)  # in (0, 1]: keeps the log finite
    u2 = rng.random(shape)
    return np.sqrt(-np.log(u1)) * np.exp(2j * np.pi * u2)


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    g = complex_gaussians(rng, (dim, dim))
    return scale * (g + g.conj().T) / 2.0


def random_coeff(rng: np.random.Generator) -> complex:
    """Uniform on the unit disc (modulus at most 1)."""
    return np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())


def random_alternating_word(rng: np.random.Generator, p: int, q: int,
                            min_a: int = 1, max_a: int = 3) -> tuple:
    """A word with single b-letters (or nothing) between, before, and
    after its a-letters."""
    m = int(rng.integers(min_a, max_a + 1))
    atoms: list[Letter] = []
    for slot in range(m + 1):
        if q >= 1 and rng.random() < 0.7:
            atoms.append(Letter("B", int(rng.integers(1, q + 1))))
        if slot < m:
            atoms.append(Letter("A", int(rng.integers(1, p + 1))))
    return tuple(atoms)


def random_alternating_poly(rng: np.random.Generator, p: int, q: int,
                            max_terms: int = 6, min_a: int = 1,
                            max_a: int = 3) -> NCPolynomial:
    n_terms = int(rng.integers(1, max_terms + 1))
    terms: dict[tuple, complex] = {}
    for _ in range(n_terms):
        w = random_alternating_word(rng, p, q, min_a=min_a, max_a=max_a)
        terms[w] = terms.get(w, 0.0) + random_coeff(rng)
    poly = NCPolynomial(terms)
    if not poly:
        # All coefficients cancelled; fall back to a single a-letter.
        poly = NCPolynomial({(Letter("A", 1),): 1.0})
    return poly


def random_model_spec(rng: np.random.Generator, p_max: int = 2, q_max: int = 3,
                      n_max: int = 6, max_terms: int = 6) -> ModelSpec:
    """A random spec: Hermitian a-matrices plus an alternating polynomial."""
    p = int(rng.integers(1, p_max + 1))
    q = int(rng.integers(1, q_max + 1))
    n = int(rng.integers(2, n_max + 1))
    mats = tuple(random_hermitian(rng, n) for _ in range(p))
    poly = random_alternating_poly(rng, p, q, max_terms=max_terms, min_a=1, max_a=3)
    return ModelSpec(n=n, q=q, a_matrices=mats, poly=poly)
