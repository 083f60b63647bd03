"""Words and polynomials over two families of generators.

The algebra is the unital free product of an "a" family (indices 1..p)
and a "b" family (indices 1..q, with ``b0`` reserved for the unit).  A
word is a tuple of atoms; adjacent atoms may come from the same family,
in which case they mean the product inside that family.  Atoms are
either single letters or *centered runs*: a centered run stands for a
product of b-generators minus its mean times the unit, which is the
normal form produced by :func:`center_expand`.

:class:`Letter` and :class:`CenteredRun` are the public atoms.  Inside a
polynomial, ``NCPolynomial.terms`` maps *coded* words to complex
coefficients, and a coded word is a tuple of coded atoms:

* ``a_i`` is the int ``i`` (positive),
* ``b_j`` is the int ``-j`` (negative),
* the centered run ``CenteredRun((j1, .., jk))`` is the tuple ``(j1, .., jk)``.

Ints and tuples hash and compare in C, so products and lookups cost no
Python-level hashing.  Words are encoded once, on the way in (the
constructor, :meth:`NCPolynomial.from_word`, :func:`parse_polynomial`,
:meth:`NCPolynomial.from_json_obj`), and decoded on the way out
(:meth:`NCPolynomial.sorted_terms`, which text and JSON output read).
Arithmetic, :func:`split_runs`, :func:`expand_run`, centering and the
quotient map work on coded words.

Only exact zeros are pruned, so every operation is linear at any scale.
The quotient map sends a polynomial whose every word contains at least
one a-letter to its record in the quotient by the ideal that both moment
functionals annihilate.  The record is a pair of polynomials ``(kept,
dropped)`` that sums to the centered normal form: ``dropped`` holds the
words that keep two or more separated a-runs after centering, ``kept``
the words ``[lead run] a-word [trail run]``.
"""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass


class IdealMembershipError(ValueError):
    """Raised when an operation needs every word to contain an a-letter."""


class MissingMomentError(LookupError):
    """Raised when a b-run has no stored moment value."""


@dataclass(frozen=True)
class Letter:
    """A single generator: ``a<index>`` or ``b<index>``.

    ``b0`` denotes the unit of the b family and is dropped when a word
    is encoded.  A centered b-letter is the run ``CenteredRun((j,))``.
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
Word = tuple  # tuple of coded atoms (int or tuple); () is the unit word.

#: Largest atom count ``len(p.terms) ** k * longest * k`` that an expansion
#: of ``p**k`` may reach, ``longest`` being the longest word of ``p``; see
#: :func:`check_expansion`.  ``a1 + a2`` reaches it at k = 18.
EXPANSION_CAP = 18 * 2**18


def a(i: int) -> "NCPolynomial":
    """Single-letter polynomial ``a<i>``."""
    return NCPolynomial({(Letter("A", i),): 1.0})


def b(j: int) -> "NCPolynomial":
    """Single-letter polynomial ``b<j>`` (``b0`` gives the unit)."""
    return NCPolynomial({(Letter("B", j),): 1.0})


def b_centered(j: int) -> "NCPolynomial":
    """Single centered b-letter, the run ``CenteredRun((j,))``, as a polynomial."""
    return NCPolynomial({(CenteredRun((j,)),): 1.0})


def encode_word(atoms) -> Word:
    """Coded normal form of a word of :class:`Letter`/:class:`CenteredRun` atoms.

    Unit letters (``b0``) are dropped.
    """
    out = []
    for atom in atoms:
        if isinstance(atom, Letter):
            if atom.algebra == "A":
                out.append(int(atom.index))
            elif atom.index != 0:
                out.append(-int(atom.index))
        elif isinstance(atom, CenteredRun):
            out.append(tuple(int(j) for j in atom.indices))
        else:
            raise TypeError(f"not a word atom: {atom!r}")
    return tuple(out)


def decode_word(word: Word) -> tuple:
    """The :class:`Letter`/:class:`CenteredRun` atoms of a coded word."""
    return tuple(
        CenteredRun(x) if isinstance(x, tuple)
        else Letter("A", x) if x > 0 else Letter("B", -x)
        for x in word
    )


def _atom_sort_key(atom):
    # a-letters, then b-letters, then centered runs, each by index.
    if isinstance(atom, tuple):
        return (2, atom)
    return (0, atom) if atom > 0 else (1, -atom)


def _word_sort_key(word: Word):
    return (len(word), tuple(_atom_sort_key(x) for x in word))


def check_expansion(p: "NCPolynomial", k: int) -> None:
    """Reject ``p**k`` before expanding when its atoms could top the cap.

    ``p**k`` has at most ``len(p.terms) ** k`` words of at most ``k`` times
    the longest word of ``p`` atoms each; raises ``ValueError`` when that
    product exceeds :data:`EXPANSION_CAP`.  The exponent of the term count
    is clipped, so a huge ``k`` costs nothing to check.
    """
    k = operator.index(k)
    n = len(p.terms)
    longest = max(map(len, p.terms), default=0)
    atoms = n ** min(k, EXPANSION_CAP.bit_length()) * longest * k
    if atoms > EXPANSION_CAP:
        raise ValueError(
            f"expanding {n} terms of up to {longest} atoms to the power {k} can "
            f"give up to {n}**{k} words of {longest * k} atoms, above the cap "
            f"of {EXPANSION_CAP} atoms"
        )


class NCPolynomial:
    """Noncommutative polynomial: finitely many words with coefficients.

    The constructor takes words of :class:`Letter`/:class:`CenteredRun`
    atoms and encodes them; ``terms`` holds coded words.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        collected: dict[Word, complex] = {}
        for word, coeff in (terms or {}).items():
            w = encode_word(word)
            c = collected.get(w, 0.0) + complex(coeff)
            collected[w] = c
        self.terms = {w: c for w, c in collected.items() if c != 0}

    @classmethod
    def _coded(cls, terms: dict) -> "NCPolynomial":
        """Trusted constructor: coded words and complex coefficients that
        this module built itself.  Prunes exact zeros and nothing else."""
        poly = cls.__new__(cls)
        poly.terms = {w: c for w, c in terms.items() if c != 0}
        return poly

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

    def sorted_terms(self) -> list[tuple[tuple, complex]]:
        """Terms in print order, words decoded to :class:`Letter`/:class:`CenteredRun`."""
        ordered = sorted(self.terms.items(), key=lambda kv: _word_sort_key(kv[0]))
        return [(decode_word(w), c) for w, c in ordered]

    def in_a_ideal(self) -> bool:
        """True when every word contains at least one a-letter.

        The zero polynomial is a member (it lies in every ideal); the
        unit polynomial is not.
        """
        return all(
            any(isinstance(x, int) and x > 0 for x in w) for w in self.terms
        )

    def max_letter_index(self, algebra: str) -> int:
        top = 0
        for w in self.terms:
            for atom in w:
                if isinstance(atom, tuple):
                    if algebra == "B":
                        top = max(top, max(atom))
                elif (atom > 0) == (algebra == "A"):
                    top = max(top, abs(atom))
        return top

    # -- arithmetic ----------------------------------------------------
    #
    # Results go through the trusted constructor.  No stored coefficient
    # has a negative-zero part (the public constructor adds 0.0 to each),
    # and neither has a sum of two such values, so sums go in as they
    # are.  Negation and scaling can make one, so they add 0.0 too.

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = NCPolynomial({(): other})
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0.0) + c
        return NCPolynomial._coded(out)

    __radd__ = __add__

    def __neg__(self):
        return NCPolynomial._coded({w: 0.0 - c for w, c in self.terms.items()})

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
            return NCPolynomial._coded(
                {w: 0.0 + complex(c * other) for w, c in self.terms.items()}
            )
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        out: dict[Word, complex] = {}
        get = out.get
        right = other.terms.items()
        for w1, c1 in self.terms.items():
            for w2, c2 in right:
                w = w1 + w2
                out[w] = get(w, 0.0) + c1 * c2
        return NCPolynomial._coded(out)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k: int):
        if isinstance(k, bool) or not hasattr(k, "__index__") or operator.index(k) < 0:
            raise ValueError("polynomial powers take a non-negative integer")
        check_expansion(self, k)
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
            rev = tuple(x[::-1] if isinstance(x, tuple) else x for x in reversed(w))
            out[rev] = out.get(rev, 0.0) + c.conjugate()
        return NCPolynomial._coded(out)

    # -- text and JSON --------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for word, coeff in self.sorted_terms():
            # A unit-word term prints as its coefficient alone.
            shown = [] if (coeff == 1.0 and word) else [_format_coeff(coeff)]
            chunks.append(" ".join(shown + [str(atom) for atom in word]))
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
    """Split a coded word into its a-letter indices and surrounding b-runs.

    Returns ``(a_indices, runs)`` where ``runs`` has one more entry than
    ``a_indices``: leading run, the runs between consecutive a-letters,
    trailing run.  Runs are (possibly empty) tuples of coded b-atoms.
    """
    a_indices: list[int] = []
    runs: list[tuple] = [()]
    for atom in word:
        if isinstance(atom, int) and atom > 0:
            a_indices.append(atom)
            runs.append(())
        else:
            runs[-1] += (atom,)
    return a_indices, runs


def expand_run(run, table) -> list[tuple[tuple[int, ...], complex]]:
    """Expand a coded b-run with centered atoms into plain runs with weights.

    Each centered run contributes (product - mean * unit); multiplying
    out yields a list of ``(plain_index_tuple, coefficient)`` pairs.
    ``table`` must provide ``value(indices) -> complex``.
    """
    parts: list[tuple[tuple[int, ...], complex]] = [((), 1.0)]
    for atom in run:
        if isinstance(atom, tuple):
            mean = table.value(atom)
            nxt = []
            for w, c in parts:
                nxt.append((w + atom, c))
                if mean != 0.0:
                    nxt.append((w, -c * mean))
            parts = nxt
        elif atom < 0:
            parts = [(w + (-atom,), c) for w, c in parts]
        else:
            raise ValueError("expand_run expects b-atoms only")
    collected: dict[tuple[int, ...], complex] = {}
    for w, c in parts:
        collected[w] = collected.get(w, 0.0) + c
    return [(w, c) for w, c in collected.items() if c != 0]


def center_expand(p: NCPolynomial, table) -> NCPolynomial:
    """Rewrite every maximal b-run as (centered run) + mean * unit.

    The output words consist of a-letters and centered runs only; b-runs
    whose mean is needed but not stored in ``table`` raise
    :class:`MissingMomentError`.
    """
    out: dict[Word, complex] = {}
    for word, coeff in p.terms.items():
        a_indices, runs = split_runs(word)
        # Per run: list of (centered run or None, weight) alternatives.
        options: list[list[tuple[tuple | None, complex]]] = []
        for run in runs:
            if not run:
                options.append([(None, 1.0)])
                continue
            alts: list[tuple[tuple | None, complex]] = []
            unit_weight = 0.0
            for plain, c in expand_run(run, table):
                if not plain:
                    unit_weight += c
                    continue
                alts.append((plain, c))
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
                        grown = grown + (a_indices[slot],)
                    nxt.append((grown, c * w))
            stack = nxt
        for w, c in stack:
            out[w] = out.get(w, 0.0) + c
    return NCPolynomial._coded(out)


def quotient_map(p: NCPolynomial, table) -> tuple[NCPolynomial, NCPolynomial]:
    """The quotient record of ``p``: the polynomials ``(kept, dropped)``.

    Every word of ``p`` must contain an a-letter.  The two sum to
    ``center_expand(p, table)``.  A centered word whose a-letters form
    two or more runs lies in the ideal that both functionals annihilate
    and goes to ``dropped``; every other word has the form
    ``[lead run] a-word [trail run]`` and goes to ``kept``.
    """
    if not p.in_a_ideal():
        raise IdealMembershipError(
            "quotient map needs every word to contain an a-letter"
        )
    kept: dict[Word, complex] = {}
    dropped: dict[Word, complex] = {}
    for word, coeff in center_expand(p, table).terms.items():
        # A centered word has one centered run between any two a-runs,
        # so a run inside the word separates two of them.
        inner_run = any(isinstance(atom, tuple) for atom in word[1:-1])
        (dropped if inner_run else kept)[word] = coeff
    return NCPolynomial._coded(kept), NCPolynomial._coded(dropped)
