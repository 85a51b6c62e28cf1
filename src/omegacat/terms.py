"""Terms denoting countable coloured linear orders, with a canonical normal form.

A term is one of

- ``Singleton(tag)`` — a single point.  Tag ``"1"`` is the uncoloured point,
  ``"I"`` is the reserved irrational-point marker, any other tag is a colour.
- ``Concat(factors)`` — the ordered sum of two or more factors, left to right.
- ``Shuffle(constituents)`` — the dense shuffle of a finite set of
  constituents: a dense, unbounded interleaving in which between any two
  points there is a stretch of every constituent.

Two terms denote isomorphic orders iff they have the same normal form
(:func:`normalize`).  The rewrite system behind the normal form has four
sound steps; the first two (constituent-set ordering and de-duplication) are
baked into the :class:`Shuffle` constructor, the other two are

- absorbing a nested shuffle whose constituent set already covers its
  siblings, and
- collapsing ``S ^ t ^ S`` to ``S`` when ``S`` is a shuffle and ``t`` is
  empty or a single constituent of ``S``.

Each node computes what it derives from its value at most once and keeps
it in a slot, as hash-consing does (Filliâtre & Conchon, "Type-Safe Modular
Hash-Consing", 2006), but with no table of nodes shared between terms:

- its hash, at construction, from its children's stored hashes, so hashing
  never recurses;
- on first use, its :func:`term_key`, its normal form, :func:`min_size`,
  :func:`is_finite`, a shuffle's redex spans and its :func:`render_term`
  text.  :func:`normalize` marks the normal form it returns as its own.

Keeping them is safe because a term is immutable: its children are fixed
at construction, so each stored fact stays the fact of the node's value.
The facts take no part in ``==``, ``hash`` or ``repr``.  Two equal terms
built apart are two nodes, each computing its facts once.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass, fields
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .errors import BudgetError, ParseError
from .posets import FinPoset

__all__ = [
    "Singleton",
    "Shuffle",
    "Concat",
    "Term",
    "OrbitDescriptor",
    "term_key",
    "shuffle",
    "concat",
    "factors",
    "is_finite",
    "min_size",
    "normalize",
    "is_normal",
    "equivalent",
    "applicable_rewrites",
    "collapse_factors",
    "parse_term",
    "render_term",
    "one_orbits",
    "orbit_paths",
    "subterm_at",
    "materialize",
]

UNCOLOURED = "1"
IRRATIONAL = "I"


# Writes a derived fact onto a node past the frozen dataclass's guard.
_store = object.__setattr__


class _Node:
    """The slots in which a term node keeps the facts it derives (see the
    module docstring).  Each kind compares its one field after the hashes,
    so unequal terms rarely get past the hashes, and children that are the
    same node are not compared at all."""

    __slots__ = ("_hash", "_key", "_nf", "_size", "_finite", "_spans", "_text")

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # copies and pickles are built by the constructor, which computes
        # the hash afresh: string hashes differ between processes
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, init=False, eq=False)
class Singleton(_Node):
    __slots__ = ("tag",)
    tag: str

    def __init__(self, tag: str):
        _store(self, "tag", tag)
        _store(self, "_hash", hash((0, tag)))

    def __eq__(self, other):
        if other.__class__ is not Singleton:
            return NotImplemented
        return self is other or self.tag == other.tag

    __hash__ = _Node.__hash__


@dataclass(frozen=True, init=False, eq=False)
class Shuffle(_Node):
    __slots__ = ("constituents",)
    constituents: Tuple["Term", ...]

    def __init__(self, constituents: Tuple["Term", ...]):
        _store(self, "constituents", constituents)
        # a child's hash is its stored one, so this reads one level only
        _store(self, "_hash", hash((1, constituents)))

    def __eq__(self, other):
        if other.__class__ is not Shuffle:
            return NotImplemented
        return self is other or (
            self._hash == other._hash and self.constituents == other.constituents
        )

    __hash__ = _Node.__hash__


@dataclass(frozen=True, init=False, eq=False)
class Concat(_Node):
    __slots__ = ("factors",)
    factors: Tuple["Term", ...]

    def __init__(self, factors: Tuple["Term", ...]):
        _store(self, "factors", factors)
        _store(self, "_hash", hash((2, factors)))

    def __eq__(self, other):
        if other.__class__ is not Concat:
            return NotImplemented
        return self is other or (
            self._hash == other._hash and self.factors == other.factors
        )

    __hash__ = _Node.__hash__


Term = Union[Singleton, Shuffle, Concat]


def term_key(t: Term):
    """Total order on terms: singletons < shuffles < concatenations,
    recursively lexicographic within each kind."""
    if isinstance(t, Singleton):
        return (0, t.tag)
    key = getattr(t, "_key", None)
    if key is None:
        if isinstance(t, Shuffle):
            key = (1, tuple(term_key(c) for c in t.constituents))
        else:
            key = (2, tuple(term_key(f) for f in t.factors))
        _store(t, "_key", key)
    return key


def shuffle(constituents: Iterable[Term]) -> Shuffle:
    """Smart constructor: sorts and de-duplicates the constituent set."""
    items = sorted(set(constituents), key=term_key)
    if not items:
        raise ValueError("shuffle needs at least one constituent")
    return Shuffle(tuple(items))


def concat(parts: Iterable[Term]) -> Term:
    """Smart constructor: flattens nested concatenations, drops the wrapper
    for a single part."""
    flat: List[Term] = []
    for p in parts:
        if isinstance(p, Concat):
            flat.extend(p.factors)
        else:
            flat.append(p)
    if not flat:
        raise ValueError("empty concatenation")
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def factors(t: Term) -> Tuple[Term, ...]:
    """Top-level factor list (a non-concatenation is its own single factor)."""
    if isinstance(t, Concat):
        return t.factors
    return (t,)


def is_finite(t: Term) -> bool:
    """True iff the denoted order is finite (no shuffle anywhere)."""
    if isinstance(t, Singleton):
        return True
    if isinstance(t, Shuffle):
        return False
    finite = getattr(t, "_finite", None)
    if finite is None:
        finite = all(is_finite(f) for f in t.factors)
        _store(t, "_finite", finite)
    return finite


def min_size(t: Term) -> int:
    """Smallest sample size that contains every constituent at least once.
    For a finite term this is its exact size."""
    if isinstance(t, Singleton):
        return 1
    size = getattr(t, "_size", None)
    if size is None:
        parts = t.constituents if isinstance(t, Shuffle) else t.factors
        size = sum(min_size(p) for p in parts)
        _store(t, "_size", size)
    return size


# ---------------------------------------------------------------------------
# rewriting and normal form


def _spans(f: Shuffle) -> Tuple[int, ...]:
    """The lengths ``j - i`` a redex ``(i, j)`` of ``f`` can have, increasing:
    one more than the factors of a constituent, or nothing, between."""
    spans = getattr(f, "_spans", None)
    if spans is None:
        spans = tuple(sorted({1} | {1 + len(factors(c)) for c in f.constituents}))
        _store(f, "_spans", spans)
    return spans


def _is_redex(fs: Sequence[Term], i: int, j: int) -> bool:
    seg = fs[i + 1 : j]
    return fs[i] == fs[j] and (not seg or concat(seg) in fs[i].constituents)


def _redexes_at(fs: Sequence[Term], i: int):
    """The redexes ``(i, j)`` starting at position ``i``, ``j`` increasing."""
    if isinstance(fs[i], Shuffle):
        for d in _spans(fs[i]):
            if i + d < len(fs) and _is_redex(fs, i, i + d):
                yield i, i + d


def collapse_factors(fs: Sequence[Term]) -> List[Term]:
    """Apply flanked-shuffle collapses until none remain, in one pass from
    left to right over a stack that holds no redex.

    A redex left in the result would lie in the stack, so it would have
    been found when its right end was pushed: pushing ``f`` at position
    ``j`` can only create redexes ``(i, j)``, and collapsing one cuts the
    stack back to its first ``i + 1`` factors, a prefix with no redex.  Each
    collapse is one of the word's, so the result is a collapse of ``fs`` with
    no redex left, and collapse is confluent (see ``trees._walk``): it is the
    normal form that collapsing in any order reaches.
    """
    out: List[Term] = []
    for f in fs:
        out.append(f)
        if not isinstance(f, Shuffle):
            continue
        j = len(out) - 1
        for d in reversed(_spans(f)):
            if d <= j and _is_redex(out, j - d, j):
                del out[j - d + 1 :]
                break
    return out


def _absorbing_constituent(s: Shuffle) -> Optional[Shuffle]:
    """The nested shuffle constituent that already covers all its siblings,
    if any.  (At most one such constituent can exist.)"""
    cs = set(s.constituents)
    for c in s.constituents:
        if isinstance(c, Shuffle) and cs - {c} <= set(c.constituents):
            return c
    return None


# Kept as the normal form of a node that is its own: a reference to the node
# itself would be a cycle, which only the garbage collector frees.
_SELF = object()


def normalize(t: Term) -> Term:
    """The canonical normal form; two terms denote isomorphic orders iff
    their normal forms are equal.

    The result is kept on ``t``, and on the result as its own normal form,
    so each node is normalised at most once and a normal subterm returns at
    once.  Marking the result relies on ``normalize`` being idempotent: the
    normal form denotes the same order as ``t`` (every step is sound), and
    isomorphic orders have one normal form.  A normal ``t`` is returned
    itself, so its normal subterms stay shared.
    """
    if isinstance(t, Singleton):
        return t
    nf = getattr(t, "_nf", None)
    if nf is not None:
        return t if nf is _SELF else nf
    if isinstance(t, Shuffle):
        s = shuffle(normalize(c) for c in t.constituents)
        nf = _absorbing_constituent(s)
        if nf is None:
            nf = t if s == t else s
    else:
        fs: List[Term] = []
        for f in t.factors:
            fs.extend(factors(normalize(f)))
        word = collapse_factors(fs)
        # no factor of a normal form is a concatenation, so a word of two or
        # more factors equal to t's would concatenate to t
        nf = t if len(word) > 1 and tuple(word) == t.factors else concat(word)
    _store(t, "_nf", _SELF if nf is t else nf)
    if nf is not t and not isinstance(nf, Singleton):
        _store(nf, "_nf", _SELF)
    return nf


def is_normal(t: Term) -> bool:
    """True iff ``t`` is its own normal form; a value that ``normalize``
    rejects, such as a hand-built empty shuffle, is not normal."""
    try:
        return normalize(t) == t
    except ValueError:
        return False


def equivalent(a: Term, b: Term) -> bool:
    """Do the two terms denote isomorphic orders?"""
    return normalize(a) == normalize(b)


def applicable_rewrites(t: Term) -> List[Tuple[str, Term]]:
    """Every single rewrite step applicable anywhere in ``t``, as
    ``(rule-name, result)`` pairs."""
    out: List[Tuple[str, Term]] = []
    if isinstance(t, Shuffle):
        inner = _absorbing_constituent(t)
        if inner is not None:
            out.append(("absorb-nested-shuffle", inner))
        for idx, c in enumerate(t.constituents):
            for name, r in applicable_rewrites(c):
                new = shuffle(
                    r if k == idx else d for k, d in enumerate(t.constituents)
                )
                out.append((name, new))
    elif isinstance(t, Concat):
        fs = list(t.factors)
        for i in range(len(fs)):
            for _, j in _redexes_at(fs, i):
                out.append(
                    ("collapse-flanked-shuffle", concat(fs[: i + 1] + fs[j + 1 :]))
                )
        for idx in range(len(fs)):
            for name, r in applicable_rewrites(fs[idx]):
                out.append((name, concat(fs[:idx] + [r] + fs[idx + 1 :])))
    return out


# ---------------------------------------------------------------------------
# parsing and rendering


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[1^(),]")


def _tokenize(text: str) -> List[Tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", column=pos)
        tokens.append((m.group(), pos))
        pos = m.end()
    return tokens


# Shuffles and concatenations nest at most this deep: parsing,
# normalizing, keying and printing a term spend a few Python frames per
# level (hashing spends none, as each node stores its hash), and 331 levels
# can exhaust the default recursion limit of 1000.
_MAX_NESTING = 200


class _TermParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def here(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return len(self.text)

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, sym: str):
        if self.peek() != sym:
            raise ParseError(f"expected {sym!r}", column=self.here())
        return self.take()

    def concatenated(self) -> bool:
        """Does the term starting at ``pos`` join factors with ``^``?"""
        level = 0
        for tok, _ in itertools.islice(self.tokens, self.pos, None):
            if level == 0 and tok in "^,)":
                return tok == "^"
            if tok == "(":
                level += 1
            elif tok == ")":
                level -= 1
        return False

    def term(self, depth: int = 0) -> Term:
        # ``depth`` shuffles and concatenations enclose the term, and its
        # own concatenation nests its factors one level deeper
        depth += self.concatenated()
        if depth > _MAX_NESTING:
            msg = f"term nested deeper than {_MAX_NESTING} levels"
            raise ParseError(msg, column=self.here())
        parts = [self.factor(depth)]
        while self.peek() == "^":
            self.take()
            parts.append(self.factor(depth))
        return concat(parts)

    def factor(self, depth: int) -> Term:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a term", column=self.here())
        if tok == "Q":
            self.take()
            if self.peek() != "(":
                raise ParseError(
                    "Q is reserved for shuffles and needs arguments",
                    column=self.here(),
                )
            self.take()
            cs = [self.term(depth + 1)]
            while self.peek() == ",":
                self.take()
                cs.append(self.term(depth + 1))
            self.expect(")")
            return shuffle(cs)
        if tok in "^(),":
            raise ParseError(f"unexpected {tok!r}", column=self.here())
        self.take()
        return Singleton(tok)


def parse_term(text: str) -> Term:
    """Parse the textual term syntax: singleton tags, ``a^b`` concatenation,
    ``Q(a, b)`` shuffles."""
    p = _TermParser(text)
    t = p.term()
    if p.peek() is not None:
        raise ParseError(f"unexpected {p.peek()!r} after term", column=p.here())
    return t


def render_term(t: Term) -> str:
    """Inverse of :func:`parse_term` (up to whitespace)."""
    if isinstance(t, Singleton):
        return t.tag
    text = getattr(t, "_text", None)
    if text is None:
        if isinstance(t, Shuffle):
            text = "Q(" + ",".join(render_term(c) for c in t.constituents) + ")"
        else:
            text = "^".join(render_term(f) for f in t.factors)
        _store(t, "_text", text)
    return text


# ---------------------------------------------------------------------------
# orbits of a normal-form term


@dataclass(frozen=True)
class OrbitDescriptor:
    """One orbit of the automorphism group on points, identified by the
    address ``path`` of the corresponding singleton / shuffle-constituent
    slot inside the term."""

    index: int
    path: Tuple[int, ...]


def orbit_paths(t: Term) -> List[Tuple[int, ...]]:
    """Addresses of the singleton leaves of ``t`` in left-to-right reading
    order (shuffle constituents in their canonical order)."""
    if isinstance(t, Singleton):
        return [()]
    if isinstance(t, Shuffle):
        return [
            (i,) + p
            for i, c in enumerate(t.constituents)
            for p in orbit_paths(c)
        ]
    return [(i,) + p for i, f in enumerate(t.factors) for p in orbit_paths(f)]


def one_orbits(t: Term) -> List[OrbitDescriptor]:
    """The 1-orbits of the denoted order.  For a normal-form term these are
    exactly the singleton leaves, one orbit per address."""
    if not is_normal(t):
        raise ValueError("one_orbits requires a term in normal form")
    return [OrbitDescriptor(i, p) for i, p in enumerate(orbit_paths(t))]


def subterm_at(t: Term, path: Sequence[int]) -> Term:
    for i in path:
        if isinstance(t, Singleton):
            raise ValueError(f"path {tuple(path)} leaves the term")
        t = (t.constituents if isinstance(t, Shuffle) else t.factors)[i]
    return t


def _down_word(t: Term, path: Sequence[int]) -> List[Term]:
    """Factor word of the points at or before a point in the leaf at
    ``path``: each level adds what precedes the path there (a shuffle
    itself, or a concatenation's earlier factors), then the leaf."""
    word: List[Term] = []
    for i in path:
        if isinstance(t, Shuffle):
            word.append(t)
            t = t.constituents[i]
        else:
            word += t.factors[:i]
            t = t.factors[i]
    word.append(t)
    return word


def _up_word(t: Term, path: Sequence[int]) -> List[Term]:
    """Factor word of the points strictly after a point in the leaf at
    ``path``, empty for none: what follows the path at each level (a
    shuffle itself, or a concatenation's later factors), deepest first."""
    parts = []
    for i in path:
        if isinstance(t, Shuffle):
            parts.append((t,))
            t = t.constituents[i]
        else:
            parts.append(t.factors[i + 1 :])
            t = t.factors[i]
    return [f for part in reversed(parts) for f in part]


def _later_points(t: Term, p, q) -> List[Tuple[Union[int, float], List[Term]]]:
    """The points of leaf ``q`` of ``t`` strictly above a point of leaf
    ``p``, deepest level first, as ``(count, connecting word)`` pairs: the
    count is 1 or ``math.inf``, and the word runs from just above the
    source to the target included.  Inside a shuffle they lie in the
    source's own copy of its constituent and in the dense set of later
    copies, where the word runs through the rest of the source's copy, the
    shuffle, and the target's copy up to the target."""
    later = []
    for d, (i, k) in enumerate(zip(p, q)):
        below_p, below_q = p[d + 1 :], q[d + 1 :]
        if isinstance(t, Shuffle):
            cs = t.constituents
            word = _up_word(cs[i], below_p) + [t] + _down_word(cs[k], below_q)
            later.append((math.inf, word))
        elif i < k:
            fs = t.factors
            dense = any(
                isinstance(subterm_at(fs[k], below_q[:e]), Shuffle)
                for e in range(len(below_q))
            )
            word = (
                _up_word(fs[i], below_p)
                + list(fs[i + 1 : k])
                + _down_word(fs[k], below_q)
            )
            later.append((math.inf if dense else 1, word))
        if i != k:
            break
        t = subterm_at(t, (i,))
    return later[::-1]


# ---------------------------------------------------------------------------
# materialization

# Most order pairs a sample may hold.  A FinPoset keeps a pair as one bit of
# an up-set mask and one of a down-set mask, so 2 * 10**6 pairs take 0.5 MB;
# `term sample Q(1) --size 2000` peaks at 3 MB traced and runs in 0.04 s on
# a 2-CPU Xeon.  Chains of up to 2 000 points (n(n - 1)/2 pairs) fit, and so
# does a unary spine's sample at depth 1 100 (at most 1 101 * 1 100 pairs).
_MAX_SAMPLE_PAIRS = 2 * 10**6


def _draws(t: Term) -> bool:
    """True iff sampling ``t`` draws a random number: some shuffle in it
    has two or more constituents (see :func:`_sample_points`)."""
    if isinstance(t, Singleton):
        return False
    if isinstance(t, Shuffle):
        return len(t.constituents) > 1 or _draws(t.constituents[0])
    return any(map(_draws, t.factors))


def _emit(t: Term, budget: int, rng: Optional[random.Random], first: int, out) -> None:
    """Append the leaf number of each point of a sample of ``t`` of exactly
    ``budget`` points when ``t`` is infinite (caller guarantees budget >=
    min_size).  Leaves are numbered in :func:`orbit_paths` order, ``t``'s
    first leaf being ``first``; a subterm's ``min_size`` is its number of
    leaves, so each child's first leaf is ``first`` plus the sizes of the
    children before it.  A singleton child is appended in place.  ``rng``
    may be None when no shuffle in ``t`` has two or more constituents."""
    if isinstance(t, Singleton):
        out.append(first)
        return
    if isinstance(t, Concat):
        sizes = [min_size(f) for f in t.factors]
        allocs = sizes.copy()
        infinite = [i for i, f in enumerate(t.factors) if not is_finite(f)]
        leftover = budget - sum(allocs)
        if infinite:
            share, rem = divmod(leftover, len(infinite))
            for k, i in enumerate(infinite):
                allocs[i] += share + (1 if k < rem else 0)
        for f, size, m in zip(t.factors, sizes, allocs):
            if f.__class__ is Singleton:
                out.append(first)
            else:
                _emit(f, m, rng, first, out)
            first += size
        return
    cs = t.constituents
    mins = [min_size(c) for c in cs]
    starts = list(itertools.accumulate(mins[:-1], initial=first))
    remaining = budget
    # each round places a smallest constituent, or the ones before it used
    # up the room, so every round places one
    while remaining >= min(mins):
        order = list(range(len(cs)))
        if len(order) > 1:
            rng.shuffle(order)
        for i in order:
            if mins[i] <= remaining:
                if cs[i].__class__ is Singleton:
                    out.append(starts[i])
                else:
                    _emit(cs[i], mins[i], rng, starts[i], out)
                remaining -= mins[i]


def materialize(t: Term, budget: int, seed: int = 0):
    """Build a finite sample of the denoted order.

    Returns ``(poset, annotations)``: a totally ordered :class:`FinPoset`
    over ids ``0..n-1`` in order, and a dict mapping each id to the
    :class:`OrbitDescriptor` of the leaf it came from.  The points of one
    leaf share one descriptor, which is safe as descriptors are frozen.

    Finite terms are realized exactly.  A shuffle cycles through fresh random
    arrangements of its full constituent set, so every constituent appears
    and (given enough budget) every pair appears in both relative orders.
    Raises :class:`BudgetError` when ``budget`` cannot fit one point of every
    leaf, or when the sample may hold more than ``_MAX_SAMPLE_PAIRS`` order
    pairs, and :class:`ValueError` when ``budget`` is negative.
    """
    if budget < 0:
        raise ValueError("the sample size must be >= 0")
    most = min_size(t) if is_finite(t) else budget
    if most * (most - 1) // 2 > _MAX_SAMPLE_PAIRS:
        raise BudgetError(
            f"a sample of {most} points may hold more than "
            f"{_MAX_SAMPLE_PAIRS} order pairs"
        )
    pts = _sample_points(t, budget, seed)
    n = len(pts)
    annotations, colour, irrational = {}, {}, []
    for i, (desc, tag) in enumerate(pts):
        annotations[i] = desc
        if tag != UNCOLOURED:
            if tag == IRRATIONAL:
                irrational.append(i)
            else:
                colour[i] = tag
    # a chain is a forest: each point's parent is the point before it
    poset = FinPoset._from_forest(range(-1, n - 1), colour, frozenset(irrational))
    return poset, annotations


def _sample_points(t: Term, budget: int, seed: int):
    """The points of :func:`materialize`'s sample in order, as
    ``(OrbitDescriptor, tag)`` pairs: one pair per leaf of ``t``, built once
    and shared by all the points of that leaf, as descriptors are frozen."""
    need = min_size(t)
    if budget < need:
        raise BudgetError(
            f"budget {budget} is below the minimum sample size {need}"
        )
    # ``Random.shuffle`` draws one number per index after the first, so it
    # draws nothing on one index, and ``_emit`` shuffles only orders of two
    # or more.  A term with no shuffle of two or more constituents draws
    # nothing, and takes the same points with no generator built; any other
    # term draws the same numbers from the one generator as if every order
    # were shuffled.
    rng = random.Random(seed) if _draws(t) else None
    leaves: List[int] = []
    _emit(t, budget, rng, 0, leaves)
    pairs = [
        (OrbitDescriptor(i, path), subterm_at(t, path).tag)
        for i, path in enumerate(orbit_paths(t))
    ]
    return list(map(pairs.__getitem__, leaves))
