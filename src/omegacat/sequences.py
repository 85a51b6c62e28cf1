"""Eventually periodic concatenations of terms, with a canonical form.

A sequence ``[p1, .., pm] * [q1, .., qk] w`` denotes the order
``p1 ^ .. ^ pm ^ (q1 ^ .. ^ qk) ^ (q1 ^ .. ^ qk) ^ ..`` — a finite prefix
followed by an order-type-omega repetition of a period.  ``[p1, .., pm]``
alone denotes the finite concatenation.

:func:`normalize_sequence` brings any such presentation to a canonical
:class:`NfSequence`: a collapsed prefix word and a period word, the period
empty when the whole order is denoted by the prefix.  The period ``[1]`` is
an endless run of uncoloured single points (a discrete tail).

The only infinite presentations whose period comes out empty are those
whose repetition is absorbed by a shuffle: periods whose cyclic factor word
contains a flanked-shuffle collapse across the junction between copies.
The denoted order has a finite axiomatizable description exactly when the
period is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .terms import (
    Shuffle,
    Term,
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
    "render_sequence",
    "sequence_orbits",
]


@dataclass(frozen=True)
class NfSequence:
    """Canonical presentation of an eventually periodic concatenation.

    ``prefix`` and ``period`` are collapsed factor words: tuples of
    singletons and shuffles.  An empty ``period`` means no tail; otherwise
    the prefix is followed by endless repetitions of the period.
    """

    prefix: Tuple[Term, ...]
    period: Tuple[Term, ...] = ()


def _display_members(word: Sequence[Term]) -> List[List[Term]]:
    """The members a sequence is shown with: each shuffle of ``word``
    alone, and each maximal run of finite factors together."""
    out: List[List[Term]] = []
    for f in word:
        if out and not isinstance(f, Shuffle) and not isinstance(out[-1][0], Shuffle):
            out[-1].append(f)
        else:
            out.append([f])
    return out


def _primitive_root(per: List[Term]) -> List[Term]:
    """The shortest word whose repetition is the nonempty ``per``: the loop
    returns at ``d = len(per)`` at the latest."""
    n = len(per)
    for d in range(1, n + 1):
        if n % d == 0 and per == per[:d] * (n // d):
            return per[:d]


def _first_redex(word: List[Term], n: int) -> Optional[Tuple[int, int]]:
    """First flanked-shuffle collapse of ``word`` whose shuffle starts
    before position ``n``.  For the infinite repetition of a period ``per``
    the word is ``per + per``, with ``n = len(per)``; for the collapses that
    start in a prefix ``pre`` it is ``pre + per + per``, with
    ``n = len(pre)``, so that collapses spanning the junction are seen."""
    return next((r for i in range(n) for r in _redexes_at(word, i)), None)


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
    while (r := _first_redex(per + per, len(per))) is not None:
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
    while (r := _first_redex(pre + per + per, len(pre))) is not None:
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
        return NfSequence(tuple(collapse_factors(pre)))
    # for the period [1] this strips every trailing 1
    while len(pre) >= len(per) and pre[-len(per) :] == per:
        del pre[-len(per) :]
    return NfSequence(tuple(pre), tuple(per))


def sequence_orbits(s: NfSequence):
    """Point orbits of the denoted order that live in the prefix, as pairs
    ``(down, up)``: ``down`` is the normal-form term of the points at or
    below the position, ``up`` the :class:`NfSequence` of the points
    strictly above (None when empty).  The positions of a period form an
    unbounded family, not enumerated here.
    """
    orbits = []
    pre = list(s.prefix)
    for i, f in enumerate(pre):
        before, after = pre[:i], pre[i + 1 :]
        for path in orbit_paths(f):
            down = normalize(concat(before + _down_word(f, path)))
            up_word = _up_word(f, path) + after
            if up_word or s.period:
                up = normalize_sequence(up_word, s.period)
            else:
                up = None
            orbits.append((down, up))
    return orbits


def _render_word(word: Sequence[Term]) -> str:
    members = _display_members(word)
    return "[" + ", ".join("^".join(map(render_term, m)) for m in members) + "]"


def render_sequence(s: NfSequence) -> str:
    if not s.period:
        return _render_word(s.prefix)
    return _render_word(s.prefix) + " * " + _render_word(s.period) + " w"
