"""Words and polynomials over two families of generators.

The algebra is the unital free product of an "a" family (indices 1..p)
and a "b" family (indices 1..q, with ``b0`` reserved for the unit).  A
word is a tuple of atoms; adjacent atoms may come from the same family,
in which case they mean the product inside that family.  Atoms are
either single letters or *centered runs*: a centered run stands for a
product of b-generators minus its mean times the unit, which is the
normal form produced by :func:`center_expand`.

Polynomials are dictionaries word -> complex coefficient; only exact
zeros are pruned, so every operation is linear at any scale.  The
quotient map sends a polynomial whose every word contains at least one
a-letter to its record in the quotient by the ideal that both moment
functionals annihilate: the words that keep two or more separated
a-runs after centering are dropped, the rest are classified by their
leading/trailing centered runs.
"""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field


class IdealMembershipError(ValueError):
    """Raised when an operation needs every word to contain an a-letter."""


class MissingMomentError(LookupError):
    """Raised when a b-run has no stored moment value."""


@dataclass(frozen=True)
class Letter:
    """A single generator: ``a<index>`` or ``b<index>``.

    ``b0`` denotes the unit of the b family and is absorbed during word
    normalization.  A centered b-letter is the run ``CenteredRun((j,))``.
    """

    algebra: str
    index: int

    def __post_init__(self):
        if self.algebra not in ("A", "B"):
            raise ValueError(f"algebra must be 'A' or 'B', got {self.algebra!r}")
        if self.index < 0:
            raise ValueError("letter index must be non-negative")
        if self.algebra == "A" and self.index < 1:
            raise ValueError("a-letters are indexed from 1")

    def __str__(self) -> str:
        return f"{self.algebra.lower()}{self.index}"


@dataclass(frozen=True)
class CenteredRun:
    """A formal centered product of b-generators.

    ``CenteredRun((j1, .., jk))`` stands for ``b_j1 .. b_jk`` minus the
    mean of that product times the unit, so its mean vanishes by
    construction.
    """

    indices: tuple[int, ...]

    def __post_init__(self):
        if not self.indices:
            raise ValueError("a centered run needs at least one index")
        if any(j < 1 for j in self.indices):
            raise ValueError("centered runs index proper b-generators (>= 1)")

    def __str__(self) -> str:
        inner = " ".join(f"b{j}" for j in self.indices)
        return f"({inner})°"


Atom = Letter | CenteredRun
Word = tuple  # tuple[Atom, ...]; the empty tuple is the unit word.


def a(i: int) -> "NCPolynomial":
    """Single-letter polynomial ``a<i>``."""
    return NCPolynomial({(Letter("A", i),): 1.0})


def b(j: int) -> "NCPolynomial":
    """Single-letter polynomial ``b<j>`` (``b0`` gives the unit)."""
    return NCPolynomial({(Letter("B", j),): 1.0})


def b_centered(j: int) -> "NCPolynomial":
    """Single centered b-letter, the run ``CenteredRun((j,))``, as a polynomial."""
    return NCPolynomial({(CenteredRun((j,)),): 1.0})


def normalize_word(letters) -> Word:
    """Drop unit letters (``b0``); the result is the word's normal form."""
    out = []
    for atom in letters:
        if isinstance(atom, Letter) and atom.algebra == "B" and atom.index == 0:
            continue
        if not isinstance(atom, (Letter, CenteredRun)):
            raise TypeError(f"not a word atom: {atom!r}")
        out.append(atom)
    return tuple(out)


def _atom_sort_key(atom: Atom):
    if isinstance(atom, Letter):
        return (atom.algebra, atom.index)
    return ("R", atom.indices)


def _word_sort_key(word: Word):
    return (len(word), tuple(_atom_sort_key(x) for x in word))


def word_str(word: Word) -> str:
    if not word:
        return "1"
    return " ".join(str(atom) for atom in word)


class NCPolynomial:
    """Noncommutative polynomial: finitely many words with coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        collected: dict[Word, complex] = {}
        for word, coeff in (terms or {}).items():
            w = normalize_word(word)
            c = collected.get(w, 0.0) + complex(coeff)
            collected[w] = c
        self.terms = {w: c for w, c in collected.items() if c != 0}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "NCPolynomial":
        return cls({})

    @classmethod
    def one(cls) -> "NCPolynomial":
        return cls({(): 1.0})

    @classmethod
    def from_word(cls, word, coeff: complex = 1.0) -> "NCPolynomial":
        return cls({tuple(word): coeff})

    # -- structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def sorted_terms(self) -> list[tuple[Word, complex]]:
        return sorted(self.terms.items(), key=lambda kv: _word_sort_key(kv[0]))

    def in_a_ideal(self) -> bool:
        """True when every word contains at least one a-letter.

        The zero polynomial is a member (it lies in every ideal); the
        unit polynomial is not.
        """
        return all(
            any(isinstance(x, Letter) and x.algebra == "A" for x in w)
            for w in self.terms
        )

    def max_letter_index(self, algebra: str) -> int:
        top = 0
        for w in self.terms:
            for atom in w:
                if isinstance(atom, Letter) and atom.algebra == algebra:
                    top = max(top, atom.index)
                elif isinstance(atom, CenteredRun) and algebra == "B":
                    top = max(top, max(atom.indices))
        return top

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = NCPolynomial({(): other})
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0.0) + c
        return NCPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return NCPolynomial({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = NCPolynomial({(): other})
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return NCPolynomial({w: c * other for w, c in self.terms.items()})
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        out: dict[Word, complex] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, 0.0) + c1 * c2
        return NCPolynomial(out)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k: int):
        if isinstance(k, bool) or not hasattr(k, "__index__") or operator.index(k) < 0:
            raise ValueError("polynomial powers take a non-negative integer")
        out = NCPolynomial.one()
        for _ in range(k):
            out = out * self
        return out

    def adjoint(self) -> "NCPolynomial":
        """Formal adjoint: conjugate coefficients, reverse words.

        All generators are treated as self-adjoint; a centered run's
        adjoint is the centered reversed run (means are real for a
        self-adjoint family).
        """
        out: dict[Word, complex] = {}
        for w, c in self.terms.items():
            rev = tuple(
                CenteredRun(tuple(reversed(x.indices))) if isinstance(x, CenteredRun) else x
                for x in reversed(w)
            )
            out[rev] = out.get(rev, 0.0) + c.conjugate()
        return NCPolynomial(out)

    # -- text and JSON --------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for word, coeff in self.sorted_terms():
            shown = "" if (coeff == 1.0 and word) else _format_coeff(coeff)
            chunks.append(f"{shown} {word_str(word)}".strip())
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"NCPolynomial({self!s})"

    def to_json_obj(self) -> list:
        out = []
        for word, coeff in self.sorted_terms():
            out.append(
                {
                    "coeff_re": float(coeff.real),
                    "coeff_im": float(coeff.imag),
                    "word": [_atom_to_json(xx) for xx in word],
                }
            )
        return out

    @classmethod
    def from_json_obj(cls, obj) -> "NCPolynomial":
        terms: dict[Word, complex] = {}
        for entry in obj:
            coeff = complex(entry.get("coeff_re", 0.0), entry.get("coeff_im", 0.0))
            word = tuple(_atom_from_json(xx) for xx in entry["word"])
            terms[word] = terms.get(word, 0.0) + coeff
        return cls(terms)

    @classmethod
    def parse(cls, text: str) -> "NCPolynomial":
        return parse_polynomial(text)


def poly_isclose(p: NCPolynomial, r: NCPolynomial, tol: float = 1e-12) -> bool:
    words = set(p.terms) | set(r.terms)
    return all(abs(p.terms.get(w, 0.0) - r.terms.get(w, 0.0)) <= tol for w in words)


def _format_coeff(c: complex) -> str:
    if c.imag == 0.0:
        return format(c.real, "g")
    return f"({c.real:g}{c.imag:+g}j)"


def _atom_to_json(atom: Atom) -> list:
    if isinstance(atom, CenteredRun):
        return ["Bc", list(atom.indices)]
    return [atom.algebra, atom.index]


def _atom_from_json(entry) -> Atom:
    tag = entry[0]
    if tag == "Bc":
        return CenteredRun(tuple(int(j) for j in entry[1]))
    if len(entry) > 2 and entry[2]:
        # The centered-letter form ["B", j, true] reads as ["Bc", [j]].
        if tag != "B":
            raise ValueError("only b-letters can be centered")
        return CenteredRun((int(entry[1]),))
    return Letter(tag, int(entry[1]))


# -- parsing ------------------------------------------------------------

_TOKEN = re.compile(
    r"""
    (?P<complexp>\([^()\s]+\))            # parenthesized complex, e.g. (1+2j)
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?j?)
  | (?P<letter>[ab]\d+)
  | (?P<sign>[+-])
  | (?P<junk>\S)
    """,
    re.VERBOSE,
)


class ParseError(ValueError):
    """Raised on malformed polynomial text."""


def parse_polynomial(text: str) -> NCPolynomial:
    """Parse ``a1 + 0.5 b1 a1 b2`` style text.

    Terms are separated by ``+``/``-``; within a term an optional
    leading coefficient (real, imaginary like ``1.5j``, or parenthesized
    complex like ``(1+2j)``) is followed by letters ``a<i>``/``b<j>``
    joined by juxtaposition.
    """
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "junk":
            raise ParseError(f"unexpected character {m.group()!r} in {text!r}")
        tokens.append((kind, m.group()))
    if not tokens:
        raise ParseError("empty polynomial text")

    terms: dict[Word, complex] = {}
    pos = 0
    first = True
    while pos < len(tokens):
        sign = 1.0
        saw_sign = False
        while pos < len(tokens) and tokens[pos][0] == "sign":
            saw_sign = True
            if tokens[pos][1] == "-":
                sign = -sign
            pos += 1
        if not first and not saw_sign:
            raise ParseError(f"missing '+'/'-' between terms in {text!r}")
        coeff = complex(sign)
        saw_value = False
        if pos < len(tokens) and tokens[pos][0] in ("number", "complexp"):
            try:
                coeff *= complex(tokens[pos][1])
            except ValueError as exc:
                raise ParseError(f"bad coefficient {tokens[pos][1]!r}") from exc
            pos += 1
            saw_value = True
        letters = []
        while pos < len(tokens) and tokens[pos][0] == "letter":
            tok = tokens[pos][1]
            try:
                letters.append(Letter(tok[0].upper(), int(tok[1:])))
            except ValueError as exc:
                raise ParseError(f"bad letter {tok!r} in {text!r}") from exc
            pos += 1
            saw_value = True
        if not saw_value:
            raise ParseError(f"dangling sign or empty term in {text!r}")
        word = tuple(letters)
        terms[word] = terms.get(word, 0.0) + coeff
        first = False
    return NCPolynomial(terms)


# -- centering and the quotient map -------------------------------------


def split_runs(word: Word):
    """Split a word into its a-letter indices and surrounding b-runs.

    Returns ``(a_indices, runs)`` where ``runs`` has one more entry than
    ``a_indices``: leading run, the runs between consecutive a-letters,
    trailing run.  Runs are (possibly empty) tuples of b-atoms.
    """
    a_indices: list[int] = []
    runs: list[tuple] = [()]
    for atom in word:
        if isinstance(atom, Letter) and atom.algebra == "A":
            a_indices.append(atom.index)
            runs.append(())
        else:
            runs[-1] = runs[-1] + (atom,)
    return a_indices, runs


def expand_run(run, table) -> list[tuple[tuple[int, ...], complex]]:
    """Expand a b-run with centered atoms into plain runs with weights.

    Each centered run contributes (product - mean * unit); multiplying
    out yields a list of ``(plain_index_tuple, coefficient)`` pairs.
    ``table`` must provide ``value(indices) -> complex``.
    """
    parts: list[tuple[tuple[int, ...], complex]] = [((), 1.0)]
    for atom in run:
        if isinstance(atom, Letter):
            if atom.algebra != "B":
                raise ValueError("expand_run expects b-atoms only")
            parts = [(w + (atom.index,), c) for w, c in parts]
        elif isinstance(atom, CenteredRun):
            mean = table.value(atom.indices)
            nxt = []
            for w, c in parts:
                nxt.append((w + atom.indices, c))
                if mean != 0.0:
                    nxt.append((w, -c * mean))
            parts = nxt
        else:
            raise TypeError(f"not a b-atom: {atom!r}")
    collected: dict[tuple[int, ...], complex] = {}
    for w, c in parts:
        collected[w] = collected.get(w, 0.0) + c
    return [(w, c) for w, c in collected.items() if c != 0]


def center_expand(p: NCPolynomial, table) -> NCPolynomial:
    """Rewrite every maximal b-run as (centered run) + mean * unit.

    The output words consist of a-letters and :class:`CenteredRun`
    atoms only; b-runs whose mean is needed but not stored in ``table``
    raise :class:`MissingMomentError`.
    """
    out: dict[Word, complex] = {}
    for word, coeff in p.terms.items():
        a_indices, runs = split_runs(word)
        # Per run: list of (atom-or-None, weight) alternatives.
        options: list[list[tuple[Atom | None, complex]]] = []
        for run in runs:
            if not run:
                options.append([(None, 1.0)])
                continue
            alts: list[tuple[Atom | None, complex]] = []
            unit_weight = 0.0
            for plain, c in expand_run(run, table):
                if not plain:
                    unit_weight += c
                    continue
                alts.append((CenteredRun(plain), c))
                mean = table.value(plain)
                if mean != 0.0:
                    unit_weight += c * mean
            if unit_weight != 0:
                alts.append((None, unit_weight))
            options.append(alts)

        stack: list[tuple[Word, complex]] = [((), coeff)]
        for slot, run_alts in enumerate(options):
            nxt: list[tuple[Word, complex]] = []
            for prefix, c in stack:
                for atom, w in run_alts:
                    grown = prefix if atom is None else prefix + (atom,)
                    if slot < len(a_indices):
                        grown = grown + (Letter("A", a_indices[slot]),)
                    nxt.append((grown, c * w))
            stack = nxt
        for w, c in stack:
            out[w] = out.get(w, 0.0) + c
    return NCPolynomial(out)


@dataclass
class QuotientElement:
    """Image of a polynomial in the quotient that the moments factor through.

    Keys: ``part_a`` maps a-index words; ``part_ab`` maps (a-word,
    trailing run); ``part_ba`` maps (leading run, a-word); ``part_bab``
    maps (leading run, a-word, trailing run).  Runs are plain index
    tuples and always stand for centered products.
    """

    part_a: dict = field(default_factory=dict)
    part_ab: dict = field(default_factory=dict)
    part_ba: dict = field(default_factory=dict)
    part_bab: dict = field(default_factory=dict)

    def parts(self):
        return (self.part_a, self.part_ab, self.part_ba, self.part_bab)

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(all(abs(c) <= tol for c in part.values()) for part in self.parts())

    def added(self, other: "QuotientElement") -> "QuotientElement":
        out = []
        for mine, theirs in zip(self.parts(), other.parts()):
            merged = dict(mine)
            for k, v in theirs.items():
                merged[k] = merged.get(k, 0.0) + v
            out.append(merged)
        return QuotientElement(*out)

    def isclose(self, other: "QuotientElement", tol: float = 1e-12) -> bool:
        for mine, theirs in zip(self.parts(), other.parts()):
            for k in set(mine) | set(theirs):
                if abs(mine.get(k, 0.0) - theirs.get(k, 0.0)) > tol:
                    return False
        return True


def quotient_map_with_remainder(p: NCPolynomial, table):
    """Quotient image plus the dropped (annihilated) component.

    Every word of ``p`` must contain an a-letter.  After centering, a
    word with two or more maximal a-runs still separated by centered
    runs lands in the annihilated ideal and is returned inside the
    remainder polynomial; the rest are classified into the four parts.
    """
    if not p.in_a_ideal():
        raise IdealMembershipError(
            "quotient map needs every word to contain an a-letter"
        )
    expanded = center_expand(p, table)
    element = QuotientElement()
    remainder: dict[Word, complex] = {}
    for word, coeff in expanded.terms.items():
        legs = 0
        prev_was_a = False
        for atom in word:
            is_a = isinstance(atom, Letter) and atom.algebra == "A"
            if is_a and not prev_was_a:
                legs += 1
            prev_was_a = is_a
        if legs >= 2:
            remainder[word] = remainder.get(word, 0.0) + coeff
            continue
        lead: tuple[int, ...] = ()
        trail: tuple[int, ...] = ()
        a_word: list[int] = []
        for pos, atom in enumerate(word):
            if isinstance(atom, CenteredRun):
                if pos == 0:
                    lead = atom.indices
                else:
                    trail = atom.indices
            else:
                a_word.append(atom.index)
        key_a = tuple(a_word)
        if lead and trail:
            bucket, key = element.part_bab, (lead, key_a, trail)
        elif lead:
            bucket, key = element.part_ba, (lead, key_a)
        elif trail:
            bucket, key = element.part_ab, (key_a, trail)
        else:
            bucket, key = element.part_a, key_a
        bucket[key] = bucket.get(key, 0.0) + coeff
    return element, NCPolynomial(remainder)


def quotient_map(p: NCPolynomial, table) -> QuotientElement:
    element, _ = quotient_map_with_remainder(p, table)
    return element
