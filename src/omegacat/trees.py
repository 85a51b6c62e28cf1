"""Finitely presented (possibly recursive) trees of coloured chains.

A tree specification is a finite set of named definitions.  Each definition
has a *spine* — a term denoting a coloured chain — plus attachment rules
that graft copies of (possibly the same) definitions above points of the
spine.  Attachment sites are either

- an *orbit site*: every point of the named spine orbit carries the given
  number of copies; or
- a *cut site*: a single new branch point is inserted at a cut of the spine
  (after a top-level factor, or above the whole spine) and the copies sit
  above it.  Cut points are flagged irrational; they show up in maximal
  chains as the reserved singleton ``I``.

The module computes the maximal-chain types of the denoted tree (normalized
eventually periodic concatenations), the table of realised chain-membership
predicates, and a three-part verdict: the tree is determined by its
first-order theory among countable trees iff the realised predicate family
is finite, every maximal-chain type is itself categorical (tail-free), and
there are only finitely many chain types.
"""

from __future__ import annotations

import math
import re
import warnings
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .errors import (
    BudgetError,
    ParseError,
    SpecError,
    SpecWarning,
)
from .posets import FinPoset, _components, _tree_view, maximal_chains
from .sequences import (
    NfSequence,
    _display_members,
    normalize_sequence,
    render_sequence,
    sequence_orbits,
)
from .terms import (
    IRRATIONAL,
    _MAX_SAMPLE_PAIRS,
    Concat,
    Shuffle,
    Singleton,
    Term,
    UNCOLOURED,
    _down_word,
    _later_points,
    _sample_points,
    _up_word,
    collapse_factors,
    concat,
    factors,
    is_finite,
    min_size,
    normalize,
    orbit_paths,
    parse_term,
    subterm_at,
)

OMEGA = math.inf

_I = Singleton(IRRATIONAL)

__all__ = [
    "OMEGA",
    "TreeDef",
    "TreeSpec",
    "RamTable",
    "ConditionReport",
    "Verdict",
    "parse_spec",
    "chain_types",
    "ramification_table",
    "check_categorical",
    "materialize_tree",
    "annotate_R",
    "two_orbit_equiv",
]


# ---------------------------------------------------------------------------
# specification data model


@dataclass(frozen=True)
class _Edge:
    src: str
    child: str
    site: tuple
    mult: Union[int, float]
    weight: Union[int, float]  # points at the site times mult
    word: Tuple[Term, ...]


@dataclass(frozen=True)
class TreeDef:
    """One definition, with each of its sites resolved once.

    ``attachments`` lists ``(site, multiplicity, child)`` in spec order,
    with a site written ``("orbit", i)`` or ``("cut", p)``: ``top`` is the
    cut after the last factor, and a degenerate cut is the orbit of the
    greatest point below it.  ``fs`` holds the spine's top-level factors,
    ``chain`` is the spine with a cut point after each of the
    ``cut_positions``, and ``sites`` maps every site to its leaf in
    ``chain``: orbit sites by index, then cut sites by position.  ``down``
    maps every site to the word of the points at or below one of its
    points, cut points of earlier positions included.  ``terminal_valid``
    says whether a copy's chain can end in its spine.  ``edges`` are the
    walk's edges, the attachments stably sorted into ``sites`` order.
    Spec order numbers a sample's points; site order is the order of the
    walk's edges, which picks the chain-family witness, so the witness does
    not depend on the order a spec lists its attachments in.
    """

    spine: Term
    attachments: Tuple[Tuple[tuple, Union[int, float], str], ...]
    fs: Tuple[Term, ...]
    cut_positions: Tuple[int, ...]
    chain: Concat
    sites: Dict[tuple, Tuple[int, ...]]
    down: Dict[tuple, Tuple[Term, ...]]
    terminal_valid: bool
    edges: Tuple[_Edge, ...]


@dataclass(frozen=True)
class TreeSpec:
    """A parsed specification, and the one analysis the checker, the table
    and the sampler read.

    ``reachable`` maps each definition the root reaches, in spec order, to
    its first nesting depth below the root.  Only these are walked, counted
    and sampled: unreachable definitions must not decide a verdict.
    ``_walks`` caches the chain walk from each definition (see
    :func:`_walk`).
    """

    definitions: Dict[str, TreeDef]
    root: str
    reachable: Dict[str, int]
    _walks: Dict[str, "_Walk"] = field(
        default_factory=dict, compare=False, repr=False
    )


@dataclass(frozen=True)
class RamTable:
    """Realised chain-membership predicates.

    ``realised`` holds triples-as-pairs ``(i, (m, n))``: some point lies on
    exactly ``i`` chains of type ``m`` (index into ``chain_types``) at orbit
    position ``n`` — ``i`` is exact, a natural number or infinity.  A cell
    whose count is finite and above ``cap`` appears in ``indeterminate``
    instead.  The cells cover the positions of each type's prefix;
    ``unbounded`` lists the types with a tail, whose points sit at
    unboundedly many positions (see :func:`check_categorical`).
    """

    chain_types: Tuple[NfSequence, ...]
    realised: Tuple[Tuple[Union[int, float], Tuple[int, int]], ...]
    cap: int
    indeterminate: Tuple[Tuple[int, int], ...]
    unbounded: Tuple[int, ...]


@dataclass(frozen=True)
class ConditionReport:
    name: str
    passed: bool
    witness: object


@dataclass(frozen=True)
class Verdict:
    categorical: bool
    condition_reports: Tuple[ConditionReport, ...]


# ---------------------------------------------------------------------------
# parsing


_RESERVED = {"root", "spine", "with", "at", "x", "orbit", "cut", "top", "omega"}

_DEF_RE = re.compile(r"([A-Za-z_]\w*)\s*=\s*spine\b(.*)\Z")
_ATTACH_RE = re.compile(
    r"\s*(\d+|omega)\s+x\s+([A-Za-z_]\w*)\s+at\s+"
    r"(orbit\s+\d+|cut\s+\d+|top)\s*\Z"
)


def _orbit_addresses(fs) -> List[Tuple[int, Tuple[int, ...]]]:
    """Orbit index -> (top-level factor ``j``, path inside ``fs[j]``)."""
    return [(j, tuple(p)) for j, f in enumerate(fs) for p in orbit_paths(f)]


def parse_spec(text: str) -> TreeSpec:
    """Parse a tree specification and resolve each definition once.

    Grammar (one clause per line, ``#`` comments allowed)::

        root NAME
        NAME = spine TERM [with MULT x NAME at SITE {, MULT x NAME at SITE}]

    where ``MULT`` is a positive integer or ``omega`` and ``SITE`` is
    ``orbit N``, ``cut N`` (after top-level factor ``N``) or ``top``.
    A cut whose lower part has a greatest point is degenerate: it is
    rewritten to the orbit of that point with a :class:`SpecWarning`.
    Every definition is validated and resolved into a :class:`TreeDef`,
    reachable from the root or not.
    """
    raw_defs: Dict[str, Tuple[Term, list]] = {}  # in spec order
    root: Optional[str] = None
    for ln, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "root":
            if len(parts) != 2:
                raise ParseError("expected 'root NAME'", line=ln)
            if root is not None:
                raise SpecError("the root is named twice")
            root = parts[1]
            continue
        m = _DEF_RE.match(line)
        if m is None:
            raise ParseError(
                "expected 'NAME = spine TERM [with ...]'", line=ln
            )
        name, rest = m.group(1), m.group(2)
        if name in _RESERVED:
            raise ParseError(f"{name!r} is a reserved word", line=ln)
        if name in raw_defs:
            raise SpecError(f"definition {name!r} appears twice")
        chunks = re.split(r"\bwith\b", rest, maxsplit=1)
        term_text = chunks[0].strip()
        if not term_text:
            raise ParseError("missing spine term", line=ln)
        try:
            spine = normalize(parse_term(term_text))
        except ParseError as e:
            raise ParseError(f"bad spine term: {e}", line=ln) from e
        clauses = []
        if len(chunks) == 2:
            for clause in chunks[1].split(","):
                am = _ATTACH_RE.match(clause)
                if am is None:
                    raise ParseError(
                        f"bad attachment clause {clause.strip()!r}", line=ln
                    )
                mult: Union[int, float]
                mult = OMEGA if am.group(1) == "omega" else int(am.group(1))
                if mult == 0:
                    raise SpecError("attachment multiplicity must be positive")
                bits = am.group(3).split()
                # ``top`` becomes a position once the factors are known
                site = ("cut", None) if bits == ["top"] else (bits[0], int(bits[1]))
                clauses.append((site, mult, am.group(2)))
        raw_defs[name] = (spine, clauses)
    if not raw_defs:
        raise ParseError("the specification has no definitions", line=1)
    if root is None:
        root = next(iter(raw_defs))
    if root not in raw_defs:
        raise SpecError(f"root {root!r} is not defined")

    definitions: Dict[str, TreeDef] = {}
    for name, (spine, clauses) in raw_defs.items():
        fs = factors(spine)
        k = len(fs)
        addresses = _orbit_addresses(fs)
        rules = set()
        atts = []
        for (kind, pos), mult, child in clauses:
            if child not in raw_defs:
                raise SpecError(
                    f"attachment in {name!r} names undefined child {child!r}"
                )
            if kind == "orbit":
                if not 0 <= pos < len(addresses):
                    raise SpecError(f"{name!r} has no spine orbit {pos}")
            else:
                if pos is None:
                    pos = k - 1
                elif not 0 <= pos <= k - 2:
                    raise SpecError(
                        f"{name!r} has no interior cut position {pos}"
                    )
                if isinstance(fs[pos], Singleton):
                    oi = addresses.index((pos, ()))
                    warnings.warn(
                        SpecWarning(
                            f"cut site in {name!r} sits right above a "
                            f"greatest point; using orbit {oi} instead"
                        )
                    )
                    kind, pos = "orbit", oi
            key = ((kind, pos), child)
            if key in rules:
                raise SpecError(
                    f"duplicate attachment rule in {name!r} for {child!r}"
                )
            rules.add(key)
            atts.append(((kind, pos), mult, child))
        definitions[name] = _resolve(name, spine, fs, addresses, tuple(atts))

    depth = {root: 0}
    todo = [root]
    for name in todo:  # breadth first: the list grows as it is read
        for _, _, child in definitions[name].attachments:
            if child not in depth:
                depth[child] = depth[name] + 1
                todo.append(child)
    reachable = {name: depth[name] for name in definitions if name in depth}
    return TreeSpec(definitions, root, reachable)


def _resolve(name: str, spine: Term, fs, addresses, attachments) -> TreeDef:
    """The :class:`TreeDef` of a definition whose attachments are checked."""
    cut_positions = tuple(
        sorted({pos for (kind, pos), _, _ in attachments if kind == "cut"})
    )
    slots: List[Term] = []
    slot_of = []  # factor -> its slot
    for j, f in enumerate(fs):
        slot_of.append(len(slots))
        slots += [f, _I] if j in cut_positions else [f]
    chain = Concat(tuple(slots))
    sites: Dict[tuple, Tuple[int, ...]] = {
        ("orbit", i): (slot_of[j],) + inner
        for i, (j, inner) in enumerate(addresses)
    }
    for p in cut_positions:
        sites[("cut", p)] = (slot_of[p] + 1,)
    down = {site: tuple(_down_word(chain, leaf)) for site, leaf in sites.items()}
    rank = list(sites).index
    edges = tuple(
        _Edge(
            src=name,
            child=child,
            site=site,
            mult=mult,
            weight=(OMEGA if isinstance(slots[sites[site][0]], Shuffle) else 1)
            * mult,
            word=down[site],
        )
        for site, mult, child in sorted(attachments, key=lambda a: rank(a[0]))
    )
    # a copy's chain ends in its spine only when nothing hangs above the
    # spine's greatest point
    top = (len(slots) - 1,)
    return TreeDef(
        spine=spine,
        attachments=attachments,
        fs=fs,
        cut_positions=cut_positions,
        chain=chain,
        sites=sites,
        down=down,
        terminal_valid=all(sites[site] != top for site, _, _ in attachments),
        edges=edges,
    )


# ---------------------------------------------------------------------------
# the pump-cut walk

# Most states one walk may push (a state met on several paths counts once
# per path).  The walk ends without it (see _walk); it bounds the work, which
# can grow exponentially with the number of definitions.  The walks of the
# perfbench specs push at most 8, and those of 9 000 random specs drawn as in
# tests/test_fuzz.py at most 14; going past this raises BudgetError instead
# of returning a family cut short.
_WALK_BUDGET = 100_000


@dataclass(frozen=True)
class _Lasso:
    """A walk ``pre`` followed by a ``cycle`` of edges back to the
    definition where the cycle starts.  ``cut`` marks a cycle whose endless
    repetition leaves a tail, so that pumping it gives ever longer words."""

    pre: Tuple[_Edge, ...]
    cycle: Tuple[_Edge, ...]
    type: NfSequence
    cut: bool


@dataclass
class _Walk:
    states: set
    terminals: set
    lassos: List[_Lasso]
    # the terminal and lasso types sorted by rendering, set once when the
    # walk ends: the callers read them many times and none writes the list
    types: Optional[List[NfSequence]] = None


def _word(edges) -> List[Term]:
    return [f for e in edges for f in e.word]


def _walk(spec: TreeSpec, start: str) -> _Walk:
    """All chains from a copy of ``start``, as one depth-first walk over
    states ``(definition, collapsed word below the copy)``.

    An edge ``e`` takes ``(d, w)`` to ``(e.child, collapse(w + e.word))``.
    A ``terminal_valid`` state yields the type of ``w`` plus its spine.  An
    edge back to a state on the path closes an absorbed cycle: the walk
    records the lasso and does not push it.  An edge into a definition on
    the path whose lasso from some earlier occurrence of that definition
    has a tail is a *cut*: pumping that cycle only lengthens the word, so
    the walk records the lasso and does not push it either.

    Termination.  Over the edge words, let L be the most factors of one,
    C the most factors of a shuffle constituent, and d the most shuffles
    nested strictly inside one shuffle; B = (d + 1)(C + 1).  Collapse is
    confluent (normal forms are canonical), so a state's word is the
    collapse of its path's edge words, and collapsing a word in parts or
    at once gives the same word.

    (A) Edge words are never empty and their factors are subterms of a
    normal spine, so a lasso's type has no tail exactly when the period loop
    of ``sequences._periodic_pipeline`` empties the cycle word.  That loop
    never reads the prefix: whether a cycle is absorbed is a property of the
    cycle word alone.

    (B) An absorbed word y collapses to at most B factors.  Let f be the
    shuffle left in the period the loop empties.  Going back through the
    loop's collapses and primitive roots, y's cyclic word is f G1 .. f Gm
    with each block Gi collapsing to a constituent of f or to nothing: every
    shuffle collapsed inside a block lies strictly inside f, so no collapse
    crosses an f.  Collapses keep that form, so u = collapse(y) has it too.
    A block lying inside u would give u the collapse f Gi f, so m = 1 and
    u = G2 f G1, with G1 G2 collapsing to a constituent.  Neither G1 nor
    G2 has a collapse, so each collapse of G1 G2 spans the shuffle the one
    before it kept: the kept shuffles nest strictly inside one another and
    inside f, at most d of them.  Each removes at most C + 1 factors, and
    the constituent left has at most C, so u has at most
    1 + C + d(C + 1) = B factors.

    Induction.  Let (n, w) be a pushed state and w_f the word at the
    path's first state of n.  The push was not a cut, so the cycle word y
    from there is absorbed by (A), and w = collapse(w_f + y) has at most
    |w_f| + B factors by (B).  A definition met for the first time adds
    one edge word to such a word, so every state word has at most
    |definitions| * (B + L) factors, each a factor of an edge word.  There
    are finitely many such states, so the search over paths that repeat
    no state ends.  It may still push exponentially many states, so
    ``_WALK_BUDGET`` bounds the work and raises :class:`BudgetError`
    rather than cut a family short.
    """
    if start in spec._walks:
        return spec._walks[start]
    first = (start, ())
    walk = _Walk(states={first}, terminals=set(), lassos=[])
    path = [first]  # states on the current path
    taken: List[_Edge] = []  # edges between them
    on_path = {first: 0}
    pushes = 0
    # each frame: the edges still to try from the state at that depth
    frames = [iter(_enter(spec, walk, first))]
    while frames:
        e = next(frames[-1], None)
        if e is None:
            frames.pop()
            del on_path[path.pop()]
            if taken:
                taken.pop()
            continue
        ctx = collapse_factors(list(path[-1][1]) + list(e.word))
        nxt = (e.child, tuple(ctx))
        if nxt in on_path:
            lasso = _close(taken, on_path[nxt], e)
            walk.lassos.append(_Lasso(*lasso, cut=False))
            continue
        cut = _cut(path, taken, e)
        if cut is not None:
            walk.lassos.append(_Lasso(*cut, cut=True))
            continue
        pushes += 1
        if pushes > _WALK_BUDGET:
            raise BudgetError(
                f"the chain walk from {start!r} pushed more than "
                f"{_WALK_BUDGET} states"
            )
        walk.states.add(nxt)
        on_path[nxt] = len(path)
        path.append(nxt)
        taken.append(e)
        frames.append(iter(_enter(spec, walk, nxt)))
    found = walk.terminals | {lasso.type for lasso in walk.lassos}
    walk.types = sorted(found, key=render_sequence)
    spec._walks[start] = walk
    return walk


def _close(taken: List[_Edge], i: int, e: _Edge):
    """The lasso that ``e`` closes back to the ``i``-th state of the path:
    ``(pre, cycle, type)``."""
    pre, cycle = tuple(taken[:i]), tuple(taken[i:]) + (e,)
    return pre, cycle, normalize_sequence(_word(pre), _word(cycle))


def _cut(path, taken: List[_Edge], e: _Edge):
    """The lasso of the cut ``e`` makes, or None: the first lasso back to an
    occurrence of ``e.child`` on the path, latest first, with a tail."""
    for i in reversed(range(len(path))):
        if path[i][0] == e.child:
            lasso = _close(taken, i, e)
            if lasso[2].period:
                return lasso
    return None


def _enter(spec: TreeSpec, walk: _Walk, state) -> Tuple[_Edge, ...]:
    """Record the terminal type of ``state``; return its edges."""
    name, ctx = state
    dfn = spec.definitions[name]
    if dfn.terminal_valid:
        walk.terminals.add(normalize_sequence(ctx + dfn.chain.factors))
    return dfn.edges


def chain_types(spec: TreeSpec) -> List[NfSequence]:
    """Normalized types of the maximal chains of the denoted tree, sorted by
    their rendering: the terminal and lasso types of the walk from the root.

    For an infinite family the list is the part the walk reaches: the
    chains that never go all the way round a cycle whose repetition leaves
    a tail, and for each such cycle the chain that repeats it forever.
    Going round it a finite number of times before leaving it gives the
    types left out (:func:`check_categorical` reports two of them)."""
    return _walk(spec, spec.root).types


# ---------------------------------------------------------------------------
# growth of the chain-type family


def _growth_pair(spec: TreeSpec, walk: _Walk):
    """Two distinct chain types witnessing an infinite family, or None.

    The family is infinite when some cut cycle can be left: going round it
    once or twice and then leaving it gives two types that differ in how
    often the tail-leaving word occurs.  A cycle is left from one of its
    definitions that is ``terminal_valid`` or has an edge off the cycle,
    followed by a chain type of that edge's child; the first way that
    tells the two types apart, in walk order, gives the witness.
    """
    for lasso in walk.lassos:
        if not lasso.cut:
            continue
        head, loop = _word(lasso.pre), _word(lasso.cycle)
        for j, e in enumerate(lasso.cycle):
            for out, per in _exits(spec, e.src, lasso.cycle):
                rest = _word(lasso.cycle[:j]) + out
                pair = {
                    normalize_sequence(head + loop * n + rest, per) for n in (1, 2)
                }
                if len(pair) == 2:
                    return tuple(sorted(pair, key=render_sequence))
    return None


def _exits(spec: TreeSpec, name: str, cycle):
    """Ways to finish a chain from a copy of ``name`` without taking an
    edge of ``cycle``, as ``(word, period)``.  No two edges are equal: the
    parser rejects a repeated (site, child) rule."""
    dfn = spec.definitions[name]
    if dfn.terminal_valid:
        yield list(dfn.chain.factors), ()
    for e in dfn.edges:
        if e not in cycle:
            for t in _walk(spec, e.child).types:
                yield list(e.word) + list(t.prefix), t.period


# ---------------------------------------------------------------------------
# chain counts


def _mul(a, b):
    """Product over the naturals and omega, with ``0 * omega = 0``."""
    return a * b if a and b else 0


def _seq_prepend(word, t: NfSequence) -> NfSequence:
    return normalize_sequence(list(word) + list(t.prefix), t.period)


def _counts(spec: TreeSpec) -> Dict[str, Dict[NfSequence, object]]:
    """Per definition, the number of maximal chains of each type in the
    denoted tree of that definition: a natural number or omega.

    A key is a definition and a type its walk found.  Chains that
    decompose through finitely many attachment steps give the linear
    system ``C = base + sum w * C[child]``: an edge ``e`` and a type ``t2``
    of its child make the key edge ``(name, e.word + t2) -> (e.child, t2)``
    of weight ``e.weight >= 1``, and a sum that leaves the walk's
    types raises.  Chains that keep descending forever are floored by the
    lassos of the walk from that definition (one per forced cycle,
    infinitely many as soon as a cycle step branches), joined by maximum,
    so degenerate overlaps under-approximate rather than double count.

    The least solution over the naturals and omega comes from one pass
    over the strongly connected components of the key graph, callees
    first.  Within a component, let ``a`` be a key's base plus its edges
    into solved components.  With no edge inside, a key is
    ``max(a, floor)``.  Otherwise every key lies on a cycle of weights
    ``>= 1`` and reaches every other, so one key with ``a > 0`` gains ``a``
    each time round and all are omega (the star ``a* = omega``).  With
    ``a = 0`` only the floors are positive: a single cycle of weight-1
    edges carries the largest floor round unchanged, while any other
    component doubles a positive value round some cycle, so it is omega.
    """
    types = {name: _walk(spec, name).types for name in spec.reachable}
    keys = [(name, t) for name, ts in types.items() for t in ts]
    index = {key: i for i, key in enumerate(keys)}
    base, floor = [0] * len(keys), [0] * len(keys)
    succ: List[List[Tuple[int, Union[int, float]]]] = [[] for _ in keys]
    for name in spec.reachable:
        dfn = spec.definitions[name]
        if dfn.terminal_valid:
            base[index[name, normalize_sequence(dfn.chain.factors)]] = 1
        for lasso in spec._walks[name].lassos:
            val = math.prod(e.weight for e in lasso.pre)
            if any(e.weight > 1 for e in lasso.cycle):
                val = OMEGA
            i = index[name, lasso.type]
            floor[i] = max(floor[i], val)
        for e in dfn.edges:
            for t2 in types[e.child]:
                i = index.get((name, _seq_prepend(e.word, t2)))
                if i is None:
                    raise SpecError(
                        "internal: a chain count escaped the walk's chain types"
                    )
                succ[i].append((index[e.child, t2], e.weight))

    comp = _components([[j for j, _ in out] for out in succ])
    groups: Dict[int, List[int]] = {}
    for i, c in enumerate(comp):
        groups.setdefault(c, []).append(i)
    count: List[Union[int, float]] = [0] * len(keys)
    for c in sorted(groups, reverse=True):
        group = groups[c]
        inner = [w for i in group for j, w in succ[i] if comp[j] == c]
        a = [
            base[i] + sum(_mul(w, count[j]) for j, w in succ[i] if comp[j] != c)
            for i in group
        ]
        val = max(floor[i] for i in group)
        if not inner:
            val = max(a[0], val)
        elif any(a) or (val and (len(inner) > len(group) or max(inner) > 1)):
            val = OMEGA
        for i in group:
            count[i] = val
    return {name: {t: count[index[name, t]] for t in ts} for name, ts in types.items()}


# ---------------------------------------------------------------------------
# realised predicate table


def _class_cells(spec, C, tindex, tpos, name, ctx, site):
    """Cell counts for the points of ``site`` in a copy of ``name`` whose
    word of points below the copy is ``ctx``.  A point in the tail of a
    type has no cell (the type is unbounded); any other point that matches
    no position of its type raises."""
    dfn = spec.definitions[name]
    leaf = dfn.sites[site]
    d_word = [*ctx, *dfn.down[site]]
    down_x = normalize(concat(d_word))
    options = []  # (count, connecting word, tail type or None)
    if dfn.terminal_valid:  # the spine strictly above the point
        options.append((1, _up_word(dfn.chain, leaf), None))
    for e in dfn.edges:
        if e.site == site:
            for t2, c2 in C[e.child].items():
                options.append((_mul(e.mult, c2), [], t2))
        for n, between in _later_points(dfn.chain, leaf, dfn.sites[e.site]):
            for t2, c2 in C[e.child].items():
                options.append((_mul(n * e.mult, c2), list(between), t2))

    cells: Dict[Tuple[int, int], object] = {}
    for cnt, link, t2 in options:
        if cnt == 0:
            continue
        if t2 is None:
            pre2: List[Term] = list(link)
            per2: Tuple[Term, ...] = ()
        else:
            pre2, per2 = list(link) + list(t2.prefix), t2.period
        full = normalize_sequence(d_word + pre2, per2)
        m = tindex.get(full)
        if m is None:
            raise SpecError(
                "internal: a composed chain type escaped the enumerated family"
            )
        up = normalize_sequence(pre2, per2) if (pre2 or per2) else None
        n_pos = tpos[m].get((down_x, up))
        if n_pos is not None:
            cells[(m, n_pos)] = cells.get((m, n_pos), 0) + cnt
        elif not full.period:
            raise SpecError("internal: a point matched no position of its chain type")
    return cells


def ramification_table(spec: TreeSpec, cap: int = 3) -> RamTable:
    """The realised chain-membership predicates of the denoted tree.

    Raises :class:`SpecError` when the chain-type family itself is infinite
    (then no finite table exists), and :class:`ValueError` when ``cap`` is
    negative."""
    if cap < 0:
        raise ValueError("cap must be >= 0")
    walk = _walk(spec, spec.root)
    if _growth_pair(spec, walk):
        raise SpecError("the family of maximal-chain types is not finite")
    types = walk.types
    tindex = {t: i for i, t in enumerate(types)}
    # per type, each (down, up) pair of its positions to the first position
    # that has it
    tpos = [{} for _ in types]
    for m, t in enumerate(types):
        for n_pos, orbit in enumerate(sequence_orbits(t)):
            tpos[m].setdefault(orbit, n_pos)
    C = _counts(spec)
    realised = set()
    indeterminate = set()
    # every result is a set, sorted below, so the states go in any order
    for name, ctx in walk.states:
        for site in spec.definitions[name].sites:
            cells = _class_cells(spec, C, tindex, tpos, name, ctx, site)
            for cell, cnt in cells.items():
                if cap < cnt < OMEGA:
                    indeterminate.add(cell)
                else:
                    realised.add((cnt, cell))
    return RamTable(
        chain_types=tuple(types),
        realised=tuple(
            sorted(realised, key=lambda e: (e[1], float(e[0])))
        ),
        cap=cap,
        indeterminate=tuple(sorted(indeterminate)),
        unbounded=tuple(i for i, t in enumerate(types) if t.period),
    )


# ---------------------------------------------------------------------------
# the categoricity verdict


def _report(name: str, failed: bool, witness) -> ConditionReport:
    return ConditionReport(name, not failed, witness if failed else None)


def check_categorical(spec: TreeSpec) -> Verdict:
    """Decide whether the denoted tree is determined by its first-order
    theory among countable trees.

    Three independently reported conditions, all required: the realised
    predicate family is finite; every maximal-chain type is itself
    categorical (no infinite tail); the chain-type family is finite.

    All three read one walk from the root over (definition, collapsed word)
    states.  The walk stops at a *cut*: an edge back into a definition on
    its path whose cycle, repeated forever, leaves a tail.  A cut's endless
    repetition is a chain type with a tail; the family is infinite when a
    cut cycle can be left, and going round it once or twice before leaving
    gives the two witness types.

    The predicate family is finite exactly when the chain-type family is
    finite and no type has a tail, so ``finite-ramification`` builds no
    table and its witness is the first type with a tail.  A tail-free type
    has only the positions of its prefix, so finitely many of them give
    finitely many cells.  A type with a tail is a lasso's type (a terminal
    type is a finite word), realised by the chain that descends round the
    lasso's cycle forever; write it as ``pre`` followed by endless copies of
    ``per``.  Fix a point of ``per`` and split ``per`` after it into ``s``
    and ``s2``.  The point's copy after ``pre + per * k`` has the down-type
    NF(``pre + s + (s2 + s) * k``), and these are pairwise distinct: were
    the ones for j < k equal, the normal form for j would absorb
    ``(s2 + s) * (k - j)`` (collapse is confluent), and so every later
    repetition, and the type, also ``pre + s`` followed by endless copies
    of ``s2 + s``, would have no tail.  So its points sit at unboundedly
    many positions.
    """
    walk = _walk(spec, spec.root)
    types = walk.types
    growth = _growth_pair(spec, walk)

    bad = next((t for t in types if t.period), None)
    r_chains = _report("chains-categorical", bad is not None, bad)
    r_family = _report("finite-chain-family", growth is not None, growth)
    if growth:
        r_ram = _report("finite-ramification", True, None)
    else:
        r_ram = _report("finite-ramification", bad is not None, bad)
    reports = (r_ram, r_chains, r_family)
    return Verdict(
        categorical=all(r.passed for r in reports), condition_reports=reports
    )


# ---------------------------------------------------------------------------
# materialization

def _copies(mult: Union[int, float], width: int) -> int:
    """How many copies a sample hangs at each point of an attachment site."""
    return max(2, width) if mult == OMEGA else int(mult)


def _check_sample_size(spec: TreeSpec, depth: int, width: int):
    """Raise :class:`BudgetError` before sampling when the sample may hold
    more than ``_MAX_SAMPLE_PAIRS`` order pairs.

    Bounds the points N and the height H of a copy of every reachable
    definition with ``d`` levels of nesting left, for d = 0, 1, ... up to
    ``depth``, saturating just above the limit.  A copy has at most
    ``max(min_size(spine), width)`` spine points, its cut points when
    d >= 1, and the copies of its children with d - 1 levels left; a
    sample of N points and height H holds at most N * H order pairs.  For
    d >= 1 each level's bounds are the same function of the level below,
    so once they repeat they stay, and the walk stops there.
    """
    cap = _MAX_SAMPLE_PAIRS + 1
    below: Dict[str, Tuple[int, int]] = {}
    for d in range(depth + 1):
        level = {}
        for name in spec.reachable:
            dfn = spec.definitions[name]
            pts = max(min_size(dfn.spine), width)
            kids = []
            if d >= 1:
                pts += len(dfn.cut_positions)
                kids = [
                    (_copies(mult, width),) + below[child]
                    for _, mult, child in dfn.attachments
                ]
            level[name] = (
                min(pts + sum(k * cn for k, cn, _ in kids), cap),
                min(pts + max((ch for _, _, ch in kids), default=0), cap),
            )
        n, h = level[spec.root]
        if n * h > _MAX_SAMPLE_PAIRS:
            raise BudgetError(
                f"a sample of depth {depth} and width {width} may hold more "
                f"than {_MAX_SAMPLE_PAIRS} order pairs"
            )
        if level == below:
            return
        below = level


def materialize_tree(
    spec: TreeSpec, depth: int, width: int, seed: int = 0
) -> FinPoset:
    """Build a finite sample of the denoted tree.

    ``depth`` bounds attachment nesting (copies at the deepest level render
    their spines only), ``width`` sizes the dense spine samples and the
    number of copies standing in for an ``omega`` multiplicity.  Sibling
    copies are rendered identically so the sample keeps the symmetry of the
    denoted tree.  Raises :class:`BudgetError` when some definition cannot
    be reached at all within ``depth``, or when the sample may hold more
    than ``_MAX_SAMPLE_PAIRS`` order pairs.

    Sibling copies share their seed, so a copy's whole subtree depends only
    on its key ``(definition, depth left, seed)``.  Each key's layout is
    built once per call and stamped for every copy at an offset; every
    point has at most one lower cover, so the sample is a parent array.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if width < 1:
        raise ValueError("width must be >= 1")
    deep = max(spec.reachable.values())
    if deep > depth:
        raise BudgetError(
            f"nesting needs depth {deep} but only {depth} is available"
        )
    _check_sample_size(spec, depth, width)

    def layout(key):
        """A copy's own points, numbered from 0: each one's parent (-1 for
        the lowest, which hangs above the copy's attachment point), the
        coloured and the irrational points, and the copies hung above
        them in spec order, as ``(key, their attachment point)``."""
        name, d, seedv = key
        dfn = spec.definitions[name]
        sp_seed = zlib.crc32(f"{seedv}|{name}|{d}|spine".encode())
        # a budget of at least min_size(spine) samples every orbit, so
        # ``at`` below holds the lowest sampled point of each orbit site
        budget = max(min_size(dfn.spine), width)
        pts = _sample_points(dfn.spine, budget, sp_seed)
        at: Dict[tuple, int] = {}  # site -> the point its copies hang above
        coloured: List[Tuple[int, str]] = []
        irrational: List[int] = []
        for g, (desc, tag) in enumerate(pts):
            at.setdefault(("orbit", desc.index), g)
            if tag == IRRATIONAL:
                irrational.append(g)
            elif tag != UNCOLOURED:
                coloured.append((g, tag))
        # ``_emit`` emits the factors in order, so the chain runs through
        # the points as numbered, each cut point, numbered after them, right
        # after the last point of its factor
        k = len(dfn.fs)
        fac = [desc.path[0] if k > 1 else 0 for desc, _ in pts]
        cuts = dfn.cut_positions if d >= 1 else ()
        up = [-1] * len(pts)
        top = -1  # the highest point chained so far
        for g, (j, after) in enumerate(zip(fac, fac[1:] + [k])):
            up[g], top = top, g
            if after != j and j in cuts:
                at[("cut", j)] = top = len(up)
                irrational.append(top)
                up.append(g)
        copies = []
        if d >= 1:
            for site, mult, child in dfn.attachments:
                child_seed = zlib.crc32(f"{seedv}|{child}|{d - 1}".encode())
                copy = ((child, d - 1, child_seed), at[site])
                copies += [copy] * _copies(mult, width)
        return up, coloured, irrational, copies

    layouts: Dict[tuple, tuple] = {}  # key -> its layout, built on first use
    parent: List[int] = []
    colour: Dict[int, str] = {}
    irrational: List[int] = []
    # (key, attachment point or -1 for none); popping the copies in order
    # numbers the points in pre-order
    stack = [((spec.root, depth, seed), -1)]
    while stack:
        key, attach = stack.pop()
        if key not in layouts:
            layouts[key] = layout(key)
        up, coloured, irr, copies = layouts[key]
        # stamp the layout at offset ``first``: one comprehension for the
        # parents and plain loops for the rest, as a sample has many copies
        first = len(parent)
        parent += [attach if u < 0 else first + u for u in up]
        for g, tag in coloured:
            colour[first + g] = tag
        for g in irr:
            irrational.append(first + g)
        for kid, at in reversed(copies):
            stack.append((kid, first + at))
    return FinPoset._from_forest(parent, colour, frozenset(irrational))


# ---------------------------------------------------------------------------
# annotations


def _word_key(word):
    return (
        len(word),
        tuple((c is not None, c or "", ir) for (c, ir) in word),
    )


def _member_table(t: NfSequence):
    """One row per member of ``t`` as it is shown (each shuffle alone, each
    run of finite factors together), prefix first and then period, and the
    index of the first period row.  A row is (finite?, the leaf label word
    of a finite member or the label -> first-leaf map of a dense one, base
    position)."""
    prefix = _display_members(t.prefix)
    rows = []
    base = 0
    for member in prefix + _display_members(t.period):
        tags = [subterm_at(f, q).tag for f in member for q in orbit_paths(f)]
        # each leaf's point label: (colour or None, irrational?)
        data = [
            (None if tag in (IRRATIONAL, UNCOLOURED) else tag, tag == IRRATIONAL)
            for tag in tags
        ]
        finite = all(map(is_finite, member))
        if not finite:  # each label to its first leaf
            data = {lab: data.index(lab) for lab in data}
        rows.append((finite, data, base))
        base += len(tags)
    return rows, len(prefix)


def _parse_chain_labels(labels, members, sparse: bool = False):
    """Assign an orbit position to every token of a chain label word, or
    None when the word is not a (possibly truncated) instance of the chain
    type whose :func:`_member_table` is ``members``.

    Finite members must appear in full, except at the end of the word where
    a sample may have been cut short.  A dense member absorbs one or more
    tokens drawn from its leaf labels, or also none when ``sparse``;
    matches are resolved leftmost-shortest.  Period members cycle, reusing
    their position block.  The search runs depth first over states (token,
    row), where the row index tells the prefix from the period; a state met
    again fails, as it failed before or is on the current path.
    """
    rows, period = members
    n_tokens = len(labels)

    def moves(ti, mi):
        """(token, row, positions taken) after each way row ``mi`` can
        absorb the tokens from ``ti`` on, in the order they are tried."""
        if mi == len(rows):  # with no period, this is the state itself
            yield ti, period, ()
            return
        finite, data, base = rows[mi]
        if finite:  # whole, or cut short by the end of the word
            end = min(ti + len(data), n_tokens)
            if all(labels[k] == data[k - ti] for k in range(ti, end)):
                yield end, mi + 1, range(base, base + end - ti)
            return
        if sparse:
            yield ti, mi + 1, ()
        c = 0
        while ti + c < n_tokens and labels[ti + c] in data:
            c += 1
            taken = (base + data[labels[k]] for k in range(ti, ti + c))
            yield ti + c, mi + 1, taken  # read only on the accepted path

    seen = {(0, 0)}
    stack = [(0, (), moves(0, 0))]  # (token, positions taken into it, moves)
    while stack and stack[-1][0] < n_tokens:
        for ti, mi, taken in stack[-1][2]:  # resumes where it stopped
            if ti == n_tokens or (ti, mi) not in seen:
                seen.add((ti, mi))
                stack.append((ti, taken, moves(ti, mi)))
                break
        else:
            stack.pop()
    return [n for _, taken, _ in stack for n in taken] if stack else None


def _chain_type(word, members):
    """The index of the first chain type (by its :func:`_member_table`) that
    the label word of a sampled maximal chain parses as, and its position
    assignment.  A chain that fits no type with every dense member holding
    a sampled point is parsed again letting them hold none: a sample can
    miss a dense stretch, as below the lowest sampled point of a shuffle."""
    for sparse in (False, True):
        for m, t in enumerate(members):
            assignment = _parse_chain_labels(word, t, sparse)
            if assignment is not None:
                return m, assignment
    raise SpecError(
        "internal: a sampled maximal chain parses as no chain type"
    )


def annotate_R(p: FinPoset, table: Optional[RamTable] = None):
    """Annotate every point with its realised chain-membership facts.

    Each point maps to a frozenset of pairs ``(i, (m, n))``: the point lies
    on exactly ``i`` maximal chains of type ``m`` at position ``n``.  With
    no table the types are the distinct chain label words of ``p`` itself
    and counts are exact; with a table the types come from the symbolic
    chain-type list and counts saturate to infinity beyond ``table.cap``,
    and a chain that parses as none of them raises :class:`SpecError`.
    """
    chains = maximal_chains(p)
    words = [tuple(p.label(x) for x in ch) for ch in chains]
    if table is None:
        distinct = sorted(set(words), key=_word_key)
        midx = {w: i for i, w in enumerate(distinct)}
        typed = [(midx[w], range(len(w))) for w in words]
        cap = OMEGA  # exact counts: nothing saturates
    else:
        members = [_member_table(t) for t in table.chain_types]
        typed = [_chain_type(w, members) for w in words]
        cap = table.cap
    counts: Dict[object, Dict[Tuple[int, int], int]] = {
        x: {} for x in p.elements
    }
    for ch, (m, positions) in zip(chains, typed):
        for x, n in zip(ch, positions):
            cell = (m, n)
            counts[x][cell] = counts[x].get(cell, 0) + 1
    return {
        x: frozenset(
            (i if i <= cap else OMEGA, cell) for cell, i in counts[x].items()
        )
        for x in p.elements
    }


# ---------------------------------------------------------------------------
# the two-orbit tester


def two_orbit_equiv(p: FinPoset, pair0, pair1, annotations=None):
    """Are two comparable pairs in the same automorphism orbit of ``p``?

    Returns ``(answer, trace)``.  On success the trace lists one entry
    ``(phase, a, b)`` per point of a full automorphism carrying ``pair0``
    to ``pair1``: the forced pinning of the base chains first, then the
    remaining matches by level parity.  Optional ``annotations`` must be
    automorphism-invariant, as :func:`annotate_R`'s are: they pre-filter
    the pairs' points, and the matching ignores them.
    """
    depth, order, code, kids = _tree_view(p)
    lower = p._lower
    bases = []
    for a, b in (pair0, pair1):
        if a not in p or b not in p:
            raise ValueError(f"unknown point in pair ({a!r}, {b!r})")
        # the base chain runs from the root up to b; in a tree it holds
        # exactly the points at or below b, each at its depth
        chain = [b]
        while lower[chain[-1]]:
            chain.append(lower[chain[-1]][0])
        chain.reverse()
        if depth[a] >= depth[b] or chain[depth[a]] != a:
            raise ValueError(
                "pairs must be strictly comparable, given bottom-up"
            )
        bases.append(chain)
    (x0, y0), (x1, y1) = pair0, pair1
    if annotations is not None:
        for a, b in ((x0, x1), (y0, y1)):
            if annotations.get(a) != annotations.get(b):
                return False, (("annotation-mismatch", a, b),)

    base0, base1 = bases
    if len(base0) != len(base1):
        return False, ()
    pin = dict(zip(base0, base1))
    if pin[x0] != x1:
        return False, ()
    # equal codes mark isomorphic labelled subtrees, so after pinning the
    # base chains any match of equal codes extends to an automorphism and
    # the matching needs no backtracking
    if any(code[a] != code[b] for a, b in pin.items()):
        return False, ()

    # A point's children off the base chain go, in code order, to its
    # image's children that are no pin targets.  Parents come first, and
    # every pair matched so far has equal codes, so a point and its image
    # have the same multiset of child codes; for a pinned point, its pinned
    # child and that child's target have equal codes (checked above), so
    # the two zipped lists hold the same codes in the same order.  The map
    # thus sends the children of every point one to one onto the children
    # of its image, keeping labels: starting from the root, it is a
    # bijection carrying covers onto covers, an automorphism, since the
    # order is the transitive closure of its covers.
    # A childless point's image has its code, so is childless too: there
    # is nothing to match above either.
    pinned_targets = set(base1)
    assign = dict(pin)
    for u in order:
        if kids[u]:
            free = [c for c in kids[assign[u]] if c not in pinned_targets]
            assign.update(zip([c for c in kids[u] if c not in pin], free))

    trace = tuple(("base", a, assign[a]) for a in base0) + tuple(
        ("even" if depth[v] % 2 == 0 else "odd", v, assign[v])
        for v in order
        if v not in pin
    )
    return True, trace
