"""Eventually periodic concatenations of terms, with a canonical form.

A sequence ``[p1, .., pm] * [q1, .., qk] w`` denotes the order
``p1 ^ .. ^ pm ^ (q1 ^ .. ^ qk) ^ (q1 ^ .. ^ qk) ^ ..`` — a finite prefix
followed by an order-type-omega repetition of a period.  ``[p1, .., pm]``
alone denotes the finite concatenation.

:func:`normalize_sequence` brings any such presentation to a canonical
:class:`NfSequence` with one of three tail kinds:

- ``"none"`` — the whole order is denoted by the (normal-form) prefix;
- ``"ones"`` — the prefix is followed by an endless run of uncoloured
  single points (a discrete tail);
- ``"periodic"`` — the prefix is followed by endless repetitions of a
  non-trivial period.

The only infinite presentations that collapse to ``"none"`` are those whose
repetition is absorbed by a shuffle: periods whose cyclic factor word
contains a flanked-shuffle collapse across the junction between copies.
The denoted order has a finite axiomatizable description exactly when the
tail is ``"none"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import ParseError
from .terms import (
    Shuffle,
    Singleton,
    Term,
    UNCOLOURED,
    _TermParser,
    _down_word,
    _redexes_at,
    _up_word,
    collapse_factors,
    concat,
    factors,
    normalize,
    orbit_paths,
    render_term,
    term_key,
)

__all__ = [
    "NfSequence",
    "normalize_sequence",
    "is_categorical_chain",
    "parse_sequence",
    "render_sequence",
    "seq_factors",
    "sequence_orbits",
]

_ONE = Singleton(UNCOLOURED)


@dataclass(frozen=True)
class NfSequence:
    """Canonical presentation of an eventually periodic concatenation.

    ``prefix`` and ``period`` are tuples of member terms: maximal finite
    stretches are merged into single factors, so members alternate between
    finite terms and shuffles, with no two finite members adjacent.
    """

    prefix: Tuple[Term, ...]
    tail: str  # "none" | "ones" | "periodic"
    period: Tuple[Term, ...] = field(default=())

    def __post_init__(self):
        if self.tail not in ("none", "ones", "periodic"):
            raise ValueError(f"unknown tail kind {self.tail!r}")
        if self.tail == "periodic" and not self.period:
            raise ValueError("periodic tail needs a period")
        if self.tail != "periodic" and self.period:
            raise ValueError("only a periodic tail carries a period")


def _members(word: Sequence[Term]) -> List[Term]:
    """Merge maximal runs of finite factors into single member terms."""
    out: List[Term] = []
    run: List[Term] = []
    for f in word:
        if isinstance(f, Shuffle):
            if run:
                out.append(concat(run))
                run = []
            out.append(f)
        else:
            run.append(f)
    if run:
        out.append(concat(run))
    return out


def _primitive_root(per: List[Term]) -> List[Term]:
    n = len(per)
    for d in range(1, n + 1):
        if n % d == 0 and per == per[:d] * (n // d):
            return per[:d]
    return per


def _period_redex(per: List[Term]) -> Optional[Tuple[int, int]]:
    """First flanked-shuffle collapse inside the infinite repetition of
    ``per``, located in the doubled word; start position is within the first
    copy."""
    doubled = per + per
    return next((r for i in range(len(per)) for r in _redexes_at(doubled, i)), None)


def _prefix_redex(pre: List[Term], per: List[Term]):
    """First collapse whose shuffle start lies in the prefix.  The word is
    extended by two period copies so redexes spanning the junction are
    seen."""
    word = pre + per + per
    return next((r for i in range(len(pre)) for r in _redexes_at(word, i)), None)


def _rotate_canonical(pre: List[Term], per: List[Term]):
    """Rotate the period to its canonical starting point, moving the
    rotation head into the prefix.  Periods containing a shuffle start at
    one; all-finite periods use the lexicographically least rotation."""
    starts = [i for i, f in enumerate(per) if isinstance(f, Shuffle)]
    if not starts:
        starts = list(range(len(per)))
    best = min(starts, key=lambda r: [term_key(f) for f in per[r:] + per[:r]])
    return pre + per[:best], per[best:] + per[:best]


def _periodic_pipeline(pre: List[Term], per: List[Term]):
    """Reduce an eventually periodic factor word to canonical form.

    Returns ``(pre, per)`` with ``per = None`` when the repetition was
    absorbed into the prefix (the shuffle flanking each junction swallows
    copy after copy, leaving a finite word).  Only the first loop can empty
    the period, and it never reads the prefix: whether the repetition is
    absorbed depends on the period alone.
    """
    # Measure: len(per).  A collapse (i, j) removes j - i factors of the
    # period, all of them when j - i = k; j - i > k cannot happen, as the
    # segment would then hold a copy of its own shuffle.  So the loop runs
    # at most len(per) times.
    per = _primitive_root(per)
    while (r := _period_redex(per)) is not None:
        i, j = r
        k = len(per)
        if j < k:
            per = per[: i + 1] + per[j + 1 :]
        else:
            pre = pre + per[: i + 1]
            per = per[j - k + 1 : i + 1]
            if not per:
                return pre, None
        per = _primitive_root(per)
    # From here the period's cyclic word is fixed and has no collapse.
    # Measure: e, the length of the shortest prefix after which the word
    # repeats the period.  Every collapse starts before e, and none raises
    # e; one that keeps e starts at e - 1 and ends in the periodic part, so
    # the next cannot start at e - 1 as well (it would repeat as a collapse
    # of the period).  e drops at least every second round, so the loop
    # runs at most 2 * len(pre) times.
    pre, per = _rotate_canonical(pre, per)
    while (r := _prefix_redex(pre, per)) is not None:
        i, j = r
        if j < len(pre):
            pre = pre[: i + 1] + pre[j + 1 :]
        else:
            m = (j - len(pre) + 1) % len(per)
            pre, per = _rotate_canonical(pre[: i + 1], per[m:] + per[:m])
    return pre, per


def normalize_sequence(
    prefix: Iterable[Term], period: Optional[Iterable[Term]] = None
) -> NfSequence:
    """Canonical form of ``prefix`` followed by endless repetitions of
    ``period`` (or of the finite ``prefix`` alone when ``period`` is None or
    empty)."""
    pre: List[Term] = []
    for t in prefix:
        pre.extend(factors(normalize(t)))
    per: Optional[List[Term]] = None
    if period is not None:
        per = []
        for t in period:
            per.extend(factors(normalize(t)))
        if not per:
            per = None
    if per is not None:
        pre = collapse_factors(pre)
        pre, per = _periodic_pipeline(pre, per)
    if per is None:
        if not pre:
            raise ValueError("empty sequence")
        word = collapse_factors(pre)
        return NfSequence(tuple(_members(word)), "none")
    # for the period [1] this strips every trailing 1
    while len(pre) >= len(per) and pre[-len(per) :] == per:
        del pre[-len(per) :]
    if per == [_ONE]:
        return NfSequence(tuple(_members(pre)), "ones")
    return NfSequence(tuple(_members(pre)), "periodic", tuple(_members(per)))


def is_categorical_chain(s: NfSequence) -> bool:
    """Does the denoted order have a finite description that pins it down
    among countable orders?  Exactly the sequences whose tail collapsed."""
    return s.tail == "none"


def seq_factors(s: NfSequence):
    """The sequence as a flat factor word: ``(prefix_factors, period_factors)``
    with ``period_factors = None`` for a tail-free sequence."""
    pre = [f for m in s.prefix for f in factors(m)]
    if s.tail == "none":
        return pre, None
    if s.tail == "ones":
        return pre, [_ONE]
    return pre, [f for m in s.period for f in factors(m)]


def sequence_orbits(s: NfSequence):
    """Point orbits of the denoted order that live in the prefix.

    Returns ``(orbits, tail_positions)`` where each orbit is a pair
    ``(down, up)``: ``down`` is the normal-form term of the points at or
    below the position, ``up`` the :class:`NfSequence` of the points
    strictly above (None when empty).  ``tail_positions`` is True when the
    sequence has a tail, whose positions form an unbounded family not
    enumerated here.
    """
    orbits = []
    pre, period = seq_factors(s)
    start = 0  # where the member's factors begin in the prefix word
    for member in s.prefix:
        before = pre[:start]
        start += len(factors(member))
        after = pre[start:]
        for path in orbit_paths(member):
            down = normalize(concat(before + _down_word(member, path)))
            up_word = _up_word(member, path) + after
            if up_word or period is not None:
                up = normalize_sequence(up_word, period)
            else:
                up = None
            orbits.append((down, up))
    return orbits, s.tail != "none"


def render_sequence(s: NfSequence) -> str:
    body = "[" + ", ".join(render_term(m) for m in s.prefix) + "]"
    if s.tail == "none":
        return body
    if s.tail == "ones":
        return body + " * [1] w"
    return body + " * [" + ", ".join(render_term(m) for m in s.period) + "] w"


def _parse_bracket_list(p: _TermParser) -> List[Term]:
    p.expect("[")
    items: List[Term] = []
    if p.peek() != "]":
        items.append(p.term())
        while p.peek() == ",":
            p.take()
            items.append(p.term())
    p.expect("]")
    return items


def parse_sequence(text: str, alphabet=None) -> NfSequence:
    """Parse ``[t1, .., tn]`` or ``[t1, .., tn] * [u1, .., uk] w`` and
    normalize."""
    p = _TermParser(text, alphabet)
    if p.peek() != "[":
        raise ParseError("a sequence starts with '['", column=p.here())
    prefix = _parse_bracket_list(p)
    period = None
    if p.peek() == "*":
        p.take()
        period = _parse_bracket_list(p)
        if p.peek() != "w":
            raise ParseError(
                "a periodic tail ends with the marker 'w'", column=p.here()
            )
        p.take()
    if p.peek() is not None:
        raise ParseError(
            f"unexpected {p.peek()!r} after sequence", column=p.here()
        )
    return normalize_sequence(prefix, period)
