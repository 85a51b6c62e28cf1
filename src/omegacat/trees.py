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
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .errors import (
    BudgetError,
    NotATreeError,
    ParseError,
    SpecError,
    SpecWarning,
)
from .posets import FinPoset, maximal_chains, node_key, validate_tree
from .sequences import (
    NfSequence,
    normalize_sequence,
    render_sequence,
    seq_factors,
    sequence_orbits,
)
from .terms import (
    IRRATIONAL,
    Shuffle,
    Singleton,
    Term,
    UNCOLOURED,
    _sample_points,
    collapse_factors,
    concat,
    factors,
    final_segment,
    initial_segment,
    is_finite,
    min_size,
    normalize,
    orbit_paths,
    parse_term,
    subterm_at,
    term_key,
)

OMEGA = math.inf

_I = Singleton(IRRATIONAL)

__all__ = [
    "OMEGA",
    "OrbitSite",
    "CutSite",
    "Attachment",
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
class OrbitSite:
    """Attachment at every point of spine orbit ``orbit``."""

    orbit: int


@dataclass(frozen=True)
class CutSite:
    """Attachment above a new branch point at a cut of the spine:
    after top-level factor ``position``, or ``"top"`` for above everything."""

    position: Union[int, str]


@dataclass(frozen=True)
class Attachment:
    site: Union[OrbitSite, CutSite]
    multiplicity: Union[int, float]
    child: str


@dataclass(frozen=True)
class TreeDef:
    spine: Term
    attachments: Tuple[Attachment, ...]


@dataclass(frozen=True)
class TreeSpec:
    definitions: Dict[str, TreeDef]
    root: str


@dataclass(frozen=True)
class RamTable:
    """Realised chain-membership predicates.

    ``realised`` holds triples-as-pairs ``(i, (m, n))``: some point lies on
    exactly ``i`` chains of type ``m`` (index into ``chain_types``) at orbit
    position ``n`` — ``i`` is exact up to ``cap``, or infinity.  Cells whose
    exact finite count exceeded ``cap`` appear in ``indeterminate``; a type
    whose tail region absorbs points at unboundedly many positions is listed
    in ``unbounded``.
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
    note: Optional[str]


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


def _orbit_addresses(spine: Term) -> List[Tuple[int, Tuple[int, ...]]]:
    """Orbit index -> (top-level factor, path inside the factor)."""
    fs = factors(spine)
    return [(j, tuple(p)) for j, f in enumerate(fs) for p in orbit_paths(f)]


def parse_spec(text: str) -> TreeSpec:
    """Parse a tree specification.

    Grammar (one clause per line, ``#`` comments allowed)::

        root NAME
        NAME = spine TERM [with MULT x NAME at SITE {, MULT x NAME at SITE}]

    where ``MULT`` is a positive integer or ``omega`` and ``SITE`` is
    ``orbit N``, ``cut N`` (after top-level factor ``N``) or ``top``.
    A cut whose lower part has a greatest point is degenerate: it is
    rewritten to the orbit of that point with a :class:`SpecWarning`.
    """
    raw_defs: Dict[str, Tuple[Term, list]] = {}
    order: List[str] = []
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
                sitebits = am.group(3).split()
                site: Union[OrbitSite, CutSite]
                if sitebits[0] == "top":
                    site = CutSite("top")
                elif sitebits[0] == "orbit":
                    site = OrbitSite(int(sitebits[1]))
                else:
                    site = CutSite(int(sitebits[1]))
                clauses.append((site, mult, am.group(2)))
        raw_defs[name] = (spine, clauses)
        order.append(name)
    if not order:
        raise ParseError("the specification has no definitions", line=1)
    if root is None:
        root = order[0]
    if root not in raw_defs:
        raise SpecError(f"root {root!r} is not defined")

    definitions: Dict[str, TreeDef] = {}
    for name in order:
        spine, clauses = raw_defs[name]
        fs = factors(spine)
        k = len(fs)
        addresses = _orbit_addresses(spine)
        rules = set()
        atts = []
        for site, mult, child in clauses:
            if child not in raw_defs:
                raise SpecError(
                    f"attachment in {name!r} names undefined child {child!r}"
                )
            if isinstance(site, OrbitSite):
                if not 0 <= site.orbit < len(addresses):
                    raise SpecError(
                        f"{name!r} has no spine orbit {site.orbit}"
                    )
            else:
                pos = k - 1 if site.position == "top" else site.position
                if site.position != "top" and not 0 <= pos <= k - 2:
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
                    site = OrbitSite(oi)
            key = (site, child)
            if key in rules:
                raise SpecError(
                    f"duplicate attachment rule in {name!r} for {child!r}"
                )
            rules.add(key)
            atts.append(Attachment(site, mult, child))
        definitions[name] = TreeDef(spine, tuple(atts))
    return TreeSpec(definitions, root)


# ---------------------------------------------------------------------------
# structural analysis: slots, sites, and the walk graph


@dataclass(frozen=True)
class _Edge:
    src: str
    child: str
    site: tuple
    mult: Union[int, float]
    npoints: Union[int, float]
    word: Tuple[Term, ...]
    uid: Tuple[str, int]


class _Info:
    def __init__(self, name: str, dfn: TreeDef):
        self.name = name
        self.spine = dfn.spine
        self.fs = factors(dfn.spine)
        k = len(self.fs)
        self.orbit_addr = _orbit_addresses(dfn.spine)
        self.cut_positions = sorted(
            {
                (k - 1 if a.site.position == "top" else a.site.position)
                for a in dfn.attachments
                if isinstance(a.site, CutSite)
            }
        )
        self.slots: List[tuple] = []
        self.slot_of_factor: Dict[int, int] = {}
        self.slot_of_cut: Dict[int, int] = {}
        for j in range(k):
            self.slot_of_factor[j] = len(self.slots)
            self.slots.append(("f", j))
            if j in self.cut_positions:
                self.slot_of_cut[j] = len(self.slots)
                self.slots.append(("c", j))
        self.sites: List[tuple] = [
            ("orbit", i) for i in range(len(self.orbit_addr))
        ] + [("cut", p) for p in self.cut_positions]
        self.att_by_site: Dict[tuple, List[Tuple[object, str]]] = {}
        for a in dfn.attachments:
            if isinstance(a.site, OrbitSite):
                key = ("orbit", a.site.orbit)
            else:
                key = (
                    "cut",
                    k - 1 if a.site.position == "top" else a.site.position,
                )
            self.att_by_site.setdefault(key, []).append(
                (a.multiplicity, a.child)
            )
        top_cut = (k - 1) in self.cut_positions
        top_orbit_attached = isinstance(self.fs[-1], Singleton) and (
            ("orbit", self.orbit_addr.index((k - 1, ()))) in self.att_by_site
        )
        self.terminal_valid = not top_cut and not top_orbit_attached
        self.terminal_word = [self._slot_term(s) for s in self.slots]
        self.edges: List[_Edge] = []

    def _slot_term(self, slot: tuple) -> Term:
        kind, v = slot
        return self.fs[v] if kind == "f" else _I

    def site_slot(self, site: tuple) -> int:
        kind, v = site
        if kind == "orbit":
            return self.slot_of_factor[self.orbit_addr[v][0]]
        return self.slot_of_cut[v]

    def site_npoints(self, site: tuple) -> Union[int, float]:
        kind, v = site
        if kind == "cut":
            return 1
        j, _ = self.orbit_addr[v]
        return OMEGA if isinstance(self.fs[j], Shuffle) else 1

    def aug_down(self, site: tuple) -> List[Term]:
        """Word of the points at or below one point of ``site`` (the point
        included), cut points of earlier positions included."""
        kind, v = site
        if kind == "cut":
            s = self.slot_of_cut[v]
            return [self._slot_term(t) for t in self.slots[: s + 1]]
        j, inner = self.orbit_addr[v]
        s = self.slot_of_factor[j]
        head = [self._slot_term(t) for t in self.slots[:s]]
        return head + list(factors(initial_segment(self.fs[j], inner)))

    def rest_above(self, site: tuple) -> List[Term]:
        """Word of the spine strictly above one point of ``site``."""
        kind, v = site
        if kind == "cut":
            s = self.slot_of_cut[v]
            return [self._slot_term(t) for t in self.slots[s + 1 :]]
        j, inner = self.orbit_addr[v]
        s = self.slot_of_factor[j]
        fin = final_segment(self.fs[j], inner)
        head = list(factors(fin)) if fin is not None else []
        return head + [self._slot_term(t) for t in self.slots[s + 1 :]]

    def above(self, frm: tuple, to: tuple):
        """How many points of site ``to`` lie strictly above a point of
        ``frm``, with the connecting word (strictly above the source, the
        target point included).  Returns ``(0, None)`` when none do."""
        sf, st = self.site_slot(frm), self.site_slot(to)
        if st < sf:
            return 0, None
        if st == sf:
            if to[0] == "cut" or frm[0] == "cut":
                return 0, None
            j, inner_t = self.orbit_addr[to[1]]
            if not isinstance(self.fs[j], Shuffle):
                return 0, None
            return OMEGA, list(factors(initial_segment(self.fs[j], inner_t)))
        if frm[0] == "cut":
            tail: List[Term] = []
        else:
            jf, inner_f = self.orbit_addr[frm[1]]
            fin = final_segment(self.fs[jf], inner_f)
            tail = list(factors(fin)) if fin is not None else []
        middle = [self._slot_term(t) for t in self.slots[sf + 1 : st]]
        if to[0] == "cut":
            return 1, tail + middle + [_I]
        jt, inner_t = self.orbit_addr[to[1]]
        head = list(factors(initial_segment(self.fs[jt], inner_t)))
        n = OMEGA if isinstance(self.fs[jt], Shuffle) else 1
        return n, tail + middle + head


class _Analysis:
    """The definitions reachable from the root, with their walk edges.
    Unreachable definitions are left out: they must not decide a verdict."""

    def __init__(self, spec: TreeSpec):
        self.root = spec.root
        reach = {spec.root}
        todo = [spec.root]
        while todo:
            for a in spec.definitions[todo.pop()].attachments:
                if a.child not in reach:
                    reach.add(a.child)
                    todo.append(a.child)
        self.infos: Dict[str, _Info] = {
            name: _Info(name, dfn)
            for name, dfn in spec.definitions.items()
            if name in reach
        }
        for name in sorted(self.infos):
            info = self.infos[name]
            for site in info.sites:
                for mult, child in info.att_by_site.get(site, ()):
                    info.edges.append(
                        _Edge(
                            src=name,
                            child=child,
                            site=site,
                            mult=mult,
                            npoints=info.site_npoints(site),
                            word=tuple(info.aug_down(site)),
                            uid=(name, len(info.edges)),
                        )
                    )


# ---------------------------------------------------------------------------
# chain types


def _explore(analysis: _Analysis, start: str, bound: int = 3):
    """Bounded walk enumeration from ``start``.

    Returns ``(terminal_types, lassos)``: the normalized types of walks that
    end at a definition whose spine chain is maximal, and for walks that
    close a cycle the pair ``(pre_edges, cycle_edges)``.
    """
    terminals = set()
    lassos: List[Tuple[Tuple[_Edge, ...], Tuple[_Edge, ...]]] = []

    def dfs(state, trail, taken, visits):
        info = analysis.infos[state]
        if info.terminal_valid:
            word = [f for e in taken for f in e.word] + info.terminal_word
            terminals.add(normalize_sequence(word))
        for e in info.edges:
            if e.child in trail:
                i = len(trail) - 1 - trail[::-1].index(e.child)
                lassos.append((tuple(taken[:i]), tuple(taken[i:]) + (e,)))
            if visits.get(e.child, 0) < bound:
                v2 = dict(visits)
                v2[e.child] = v2.get(e.child, 0) + 1
                dfs(e.child, trail + [e.child], taken + [e], v2)

    dfs(start, [start], [], {start: 1})
    return terminals, lassos


def _lasso_type(pre, cyc) -> NfSequence:
    return normalize_sequence(
        [f for e in pre for f in e.word], [f for e in cyc for f in e.word]
    )


def _type_list(analysis: _Analysis) -> List[NfSequence]:
    terminals, lassos = _explore(analysis, analysis.root)
    types = set(terminals)
    for pre, cyc in lassos:
        types.add(_lasso_type(pre, cyc))
    return sorted(types, key=render_sequence)


def chain_types(spec: TreeSpec) -> List[NfSequence]:
    """Normalized types of the maximal chains of the denoted tree, sorted by
    their rendering.  For recursions that keep producing new types this is a
    bounded sample of representatives."""
    return _type_list(_Analysis(spec))


# ---------------------------------------------------------------------------
# growth of the chain-type family


def _loops(analysis: _Analysis) -> List[Tuple[_Edge, ...]]:
    """Closed edge walks (visiting no definition more than twice)."""
    out: List[Tuple[_Edge, ...]] = []
    for start in sorted(analysis.infos):

        def dfs(state, taken, visits):
            for e in analysis.infos[state].edges:
                if e.child == start:
                    out.append(tuple(taken) + (e,))
                if visits.get(e.child, 0) < 2:
                    v2 = dict(visits)
                    v2[e.child] = v2.get(e.child, 0) + 1
                    dfs(e.child, taken + [e], v2)

        dfs(start, [], {start: 1})
    return out


def _completions(analysis: _Analysis, state: str):
    """A few ways to finish a chain from ``state``, as factor words
    ``(prefix, period-or-None)``."""
    terminals, lassos = _explore(analysis, state, bound=2)
    comps = [seq_factors(t) for t in sorted(terminals, key=render_sequence)]
    seen = set(terminals)
    for pre_e, cyc_e in lassos:
        pre = [f for e in pre_e for f in e.word]
        per = [f for e in cyc_e for f in e.word]
        t = normalize_sequence(pre, per)
        if t not in seen:
            seen.add(t)
            comps.append((pre, per))
        if len(comps) >= 4:
            break
    return comps[:4]


def _growth_pairs(analysis: _Analysis):
    """Pairs of distinct chain types witnessing that pumping some reachable
    cycle keeps producing new types (the family is infinite)."""
    pairs = set()
    comps: Dict[str, list] = {}
    # Every rotation of a returned walk is returned too (the visit bound
    # holds for all rotations or none), so each walk is pumped from its start.
    for loop in _loops(analysis):
        words = [f for e in loop for f in e.word]
        if normalize_sequence([], words).tail == "none":
            continue
        loop_ids = {e.uid for e in loop}
        exits = []
        info = analysis.infos[loop[0].src]
        if info.terminal_valid:
            exits.append((list(info.terminal_word), None))
        for e2 in info.edges:
            if e2.uid in loop_ids:
                continue
            if e2.child not in comps:
                comps[e2.child] = _completions(analysis, e2.child)
            for cpre, cper in comps[e2.child]:
                exits.append((list(e2.word) + list(cpre), cper))
        for xpre, xper in exits:
            ts = {normalize_sequence(words * n + xpre, xper) for n in (1, 2, 3)}
            if len(ts) > 1:
                a, b = sorted(ts, key=render_sequence)[:2]
                pairs.add((a, b))
    return sorted(
        pairs, key=lambda ab: (render_sequence(ab[0]), render_sequence(ab[1]))
    )


# ---------------------------------------------------------------------------
# saturating counts

# Count lattice: exact integers 0..cap, then cap+1 meaning "finite but more
# than cap (or not resolved)", then infinity.


def _lat(v, cap):
    if v == OMEGA:
        return OMEGA
    return v if v <= cap else cap + 1


def _sadd(a, b, cap):
    if a == OMEGA or b == OMEGA:
        return OMEGA
    s = a + b
    return s if s <= cap else cap + 1


def _smul(a, b, cap):
    if a == 0 or b == 0:
        return 0
    if a == OMEGA or b == OMEGA:
        return OMEGA
    m = a * b
    return m if m <= cap else cap + 1


def _edge_weight(e: _Edge, cap):
    return _smul(_lat(e.npoints, cap), _lat(e.mult, cap), cap)


def _seq_prepend(word, t: NfSequence) -> NfSequence:
    pre, per = seq_factors(t)
    return normalize_sequence(list(word) + pre, per)


def _counts(analysis: _Analysis, cap: int) -> Dict[str, Dict[NfSequence, object]]:
    """Per definition, the number of maximal chains of each type in the
    denoted tree of that definition, in the saturating lattice.

    Chains that decompose through finitely many attachment steps are counted
    by a least fixpoint; chains that keep descending forever are floored by
    their cycle structure (one per forced cycle, infinitely many as soon as
    a cycle step branches).  The two are joined by maximum, so degenerate
    overlaps under-approximate rather than double count.
    """
    base: Dict[str, Dict[NfSequence, object]] = {}
    floor: Dict[str, Dict[NfSequence, object]] = {}
    for name, info in analysis.infos.items():
        b: Dict[NfSequence, object] = {}
        if info.terminal_valid:
            t = normalize_sequence(info.terminal_word)
            b[t] = _sadd(b.get(t, 0), 1, cap)
        base[name] = b
        fl: Dict[NfSequence, object] = {}
        _, lassos = _explore(analysis, name)
        for pre, cyc in lassos:
            t = _lasso_type(pre, cyc)
            if all(_edge_weight(e, cap) == 1 for e in cyc):
                val = 1
            else:
                val = OMEGA
            for e in pre:
                val = _smul(val, _edge_weight(e, cap), cap)
            if fl.get(t, 0) < val:
                fl[t] = val
        floor[name] = fl

    C: Dict[str, Dict[NfSequence, object]] = {
        name: {} for name in analysis.infos
    }
    for _ in range(200):
        changed = False
        for name, info in analysis.infos.items():
            new = dict(base[name])
            for e in info.edges:
                w = _edge_weight(e, cap)
                for t2, c2 in C[e.child].items():
                    t = _seq_prepend(e.word, t2)
                    new[t] = _sadd(new.get(t, 0), _smul(w, c2, cap), cap)
            for t, v in floor[name].items():
                if new.get(t, 0) < v:
                    new[t] = v
            if new != C[name]:
                C[name] = new
                changed = True
        if not changed:
            return C
        if sum(len(d) for d in C.values()) > 500:
            raise SpecError("the chain count system did not close")
    raise SpecError("the chain count system did not stabilize")


# ---------------------------------------------------------------------------
# realised predicate table


def _contexts(analysis: _Analysis):
    """Distinct (definition, collapsed word below a copy) combinations
    reachable from the root, from walks visiting no definition > 3 times."""
    start = (analysis.root, ())
    seen = {start}
    todo = [(analysis.root, (), {analysis.root: 1})]
    while todo:
        state, ctx, visits = todo.pop()
        for e in analysis.infos[state].edges:
            if visits.get(e.child, 0) >= 3:
                continue
            ctx2 = tuple(collapse_factors(list(ctx) + list(e.word)))
            key = (e.child, ctx2)
            if key in seen:
                continue
            seen.add(key)
            v2 = dict(visits)
            v2[e.child] = v2.get(e.child, 0) + 1
            todo.append((e.child, ctx2, v2))
    return seen


def _class_cells(analysis, C, tindex, torbits, name, ctx, site, cap):
    """Cell counts for the points of ``site`` in a copy of ``name`` whose
    word of points below the copy is ``ctx``."""
    info = analysis.infos[name]
    d_word = list(ctx) + info.aug_down(site)
    down_x = normalize(concat(d_word))
    options = []  # (count, connecting word, tail type or None)
    if info.terminal_valid:
        options.append((1, info.rest_above(site), None))
    for mult, child in info.att_by_site.get(site, ()):
        for t2, c2 in C[child].items():
            options.append((_smul(_lat(mult, cap), c2, cap), [], t2))
    for to_site in info.sites:
        if to_site not in info.att_by_site:
            continue
        n, between = info.above(site, to_site)
        if not n:
            continue
        for mult, child in info.att_by_site[to_site]:
            w = _smul(_lat(n, cap), _lat(mult, cap), cap)
            for t2, c2 in C[child].items():
                options.append((_smul(w, c2, cap), list(between), t2))

    cells: Dict[Tuple[int, int], object] = {}
    unbounded = set()
    for cnt, link, t2 in options:
        if cnt == 0:
            continue
        if t2 is None:
            pre2: List[Term] = list(link)
            per2 = None
        else:
            tp, tq = seq_factors(t2)
            pre2, per2 = list(link) + tp, tq
        full = normalize_sequence(d_word + pre2, per2)
        m = tindex.get(full)
        if m is None:
            raise SpecError(
                "internal: a composed chain type escaped the enumerated family"
            )
        up = normalize_sequence(pre2, per2) if (pre2 or per2) else None
        entries, tailpos = torbits[m]
        for n_pos, (edown, eup) in enumerate(entries):
            if edown == down_x and eup == up:
                cells[(m, n_pos)] = _sadd(cells.get((m, n_pos), 0), cnt, cap)
                break
        else:
            if tailpos:
                unbounded.add(m)
            else:
                raise SpecError(
                    "internal: a point matched no position of its chain type"
                )
    return cells, unbounded


def ramification_table(spec: TreeSpec, cap: int = 3) -> RamTable:
    """The realised chain-membership predicates of the denoted tree.

    Raises :class:`SpecError` when the chain-type family itself is infinite
    (then no finite table exists)."""
    analysis = _Analysis(spec)
    if _growth_pairs(analysis):
        raise SpecError("the family of maximal-chain types is not finite")
    return _ram_table(analysis, _type_list(analysis), cap)


def _ram_table(analysis: _Analysis, types, cap: int) -> RamTable:
    tindex = {t: i for i, t in enumerate(types)}
    torbits = [sequence_orbits(t) for t in types]
    C = _counts(analysis, cap)
    realised = set()
    unbounded = set()
    indeterminate = set()
    ordered = sorted(
        _contexts(analysis),
        key=lambda dc: (dc[0], tuple(term_key(f) for f in dc[1])),
    )
    for name, ctx in ordered:
        for site in analysis.infos[name].sites:
            cells, unb = _class_cells(
                analysis, C, tindex, torbits, name, ctx, site, cap
            )
            unbounded |= unb
            for cell, cnt in cells.items():
                if cnt == 0:
                    continue
                if cnt == cap + 1:
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
        unbounded=tuple(sorted(unbounded)),
    )


# ---------------------------------------------------------------------------
# the categoricity verdict


def check_categorical(spec: TreeSpec) -> Verdict:
    """Decide whether the denoted tree is determined by its first-order
    theory among countable trees.

    Three independently reported conditions, all required: the realised
    predicate family is finite; every maximal-chain type is itself
    categorical (no infinite tail); the chain-type family is finite.
    """
    analysis = _Analysis(spec)
    types = _type_list(analysis)
    growth = _growth_pairs(analysis)

    bad_chains = [t for t in types if t.tail != "none"]
    r_chains = ConditionReport(
        name="chains-categorical",
        passed=not bad_chains,
        witness=bad_chains[0] if bad_chains else None,
        note=(
            "a maximal chain realises a type with an infinite tail"
            if bad_chains
            else None
        ),
    )
    r_family = ConditionReport(
        name="finite-chain-family",
        passed=not growth,
        witness=growth[0] if growth else None,
        note=(
            "pumping a reachable cycle keeps producing new chain types"
            if growth
            else None
        ),
    )
    if growth:
        r_ram = ConditionReport(
            name="finite-ramification",
            passed=False,
            witness=None,
            note=(
                "the chain-type family is infinite, so the realised "
                "predicate family cannot be finite"
            ),
        )
    else:
        table = _ram_table(analysis, types, 3)
        if table.unbounded:
            r_ram = ConditionReport(
                name="finite-ramification",
                passed=False,
                witness=table.chain_types[table.unbounded[0]],
                note=(
                    "points sit at unboundedly many positions inside a "
                    "chain-type tail"
                ),
            )
        else:
            r_ram = ConditionReport(
                name="finite-ramification",
                passed=True,
                witness=None,
                note=None,
            )
    reports = (r_ram, r_chains, r_family)
    return Verdict(
        categorical=all(r.passed for r in reports), condition_reports=reports
    )


# ---------------------------------------------------------------------------
# materialization


def materialize_tree(
    spec: TreeSpec, depth: int, width: int, seed: int = 0
) -> FinPoset:
    """Build a finite sample of the denoted tree.

    ``depth`` bounds attachment nesting (copies at the deepest level render
    their spines only), ``width`` sizes the dense spine samples and the
    number of copies standing in for an ``omega`` multiplicity.  Sibling
    copies are rendered identically so the sample keeps the symmetry of the
    denoted tree.  Raises :class:`BudgetError` when some definition cannot
    be reached at all within ``depth``.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if width < 1:
        raise ValueError("width must be >= 1")
    analysis = _Analysis(spec)
    dist = {spec.root: 0}
    todo = [spec.root]
    while todo:
        cur = todo.pop(0)
        for e in analysis.infos[cur].edges:
            if e.child not in dist:
                dist[e.child] = dist[cur] + 1
                todo.append(e.child)
    deep = max(dist.values())
    if deep > depth:
        raise BudgetError(
            f"nesting needs depth {deep} but only {depth} is available"
        )

    pairs: List[Tuple[int, int]] = []  # spine successors and attachments
    colour: Dict[int, str] = {}
    irrational = set()
    size = 0
    # (definition, depth left, seed, attachment point or None); popping the
    # children in order numbers the points in pre-order
    stack = [(spec.root, depth, seed, None)]
    while stack:
        name, d, seedv, attach = stack.pop()
        dfn = spec.definitions[name]
        info = analysis.infos[name]
        sp_seed = zlib.crc32(f"{seedv}|{name}|{d}|spine".encode())
        budget = max(min_size(dfn.spine), width)
        pts = _sample_points(dfn.spine, budget, sp_seed)
        first = size
        for g, (_, tag) in enumerate(pts, start=first):
            if tag == IRRATIONAL:
                irrational.add(g)
            elif tag != UNCOLOURED:
                colour[g] = tag
        size += len(pts)
        k = len(info.fs)
        als: List[int] = []
        cutg: Dict[int, int] = {}
        fac = [desc.path[0] if k > 1 else 0 for desc, _ in pts]
        for j in range(k):
            als.extend(first + i for i, f in enumerate(fac) if f == j)
            if d >= 1 and j in info.cut_positions:
                irrational.add(size)
                cutg[j] = size
                als.append(size)
                size += 1
        if attach is not None:
            pairs.append((attach, als[0]))
        pairs.extend(zip(als, als[1:]))
        if d == 0:
            continue
        children = []
        for att in dfn.attachments:
            if isinstance(att.site, OrbitSite):
                on_orbit = [
                    i for i, (desc, _) in enumerate(pts)
                    if desc.index == att.site.orbit
                ]
                if not on_orbit:
                    raise BudgetError(
                        "width too small to include an attachment orbit"
                    )
                ap = first + on_orbit[0]
            else:
                p = (
                    k - 1
                    if att.site.position == "top"
                    else att.site.position
                )
                ap = cutg[p]
            copies = (
                max(2, width)
                if att.multiplicity == OMEGA
                else int(att.multiplicity)
            )
            child_seed = zlib.crc32(f"{seedv}|{att.child}|{d - 1}".encode())
            children += [(att.child, d - 1, child_seed, ap)] * copies
        stack.extend(reversed(children))
    return FinPoset(range(size), pairs, colour=colour, irrational=irrational)


# ---------------------------------------------------------------------------
# annotations


def _word_key(word):
    return (
        len(word),
        tuple((c is not None, c or "", ir) for (c, ir) in word),
    )


def _leaf_label(tag: str):
    if tag == IRRATIONAL:
        return (None, True)
    if tag == UNCOLOURED:
        return (None, False)
    return (tag, False)


def _member_leaf_info(member: Term):
    paths = orbit_paths(member)
    labels = [_leaf_label(subterm_at(member, p).tag) for p in paths]
    if is_finite(member):
        return ("finite", labels)
    palette = {}
    for idx, lab in enumerate(labels):
        palette.setdefault(lab, idx)
    return ("shuffle", palette)


def _leaf_count(member: Term) -> int:
    return len(orbit_paths(member))


def _parse_chain_labels(labels, t: NfSequence):
    """Assign an orbit position of ``t`` to every token of a chain label
    word, or None when the word is not a (possibly truncated) instance.

    Finite members must appear in full, except at the end of the word where
    a sample may have been cut short.  A dense member absorbs one or more
    tokens drawn from its leaf labels; matches are resolved
    leftmost-shortest.  Tail members cycle, reusing their position block.
    """
    pre_members = list(t.prefix)
    if t.tail == "none":
        per_members: List[Term] = []
    elif t.tail == "ones":
        per_members = [Singleton(UNCOLOURED)]
    else:
        per_members = list(t.period)
    pre_info = [_member_leaf_info(m) for m in pre_members]
    per_info = [_member_leaf_info(m) for m in per_members]
    pre_base = [0]
    for m in pre_members:
        pre_base.append(pre_base[-1] + _leaf_count(m))
    per_base = [pre_base[-1]]
    for m in per_members:
        per_base.append(per_base[-1] + _leaf_count(m))
    n_tokens = len(labels)
    out = [None] * n_tokens
    dead = set()

    def solve(ti: int, phase: int, mi: int) -> bool:
        if ti == n_tokens:
            return True
        key = (ti, phase, mi)
        if key in dead:
            return False
        if phase == 0 and mi == len(pre_info):
            if not per_info:
                dead.add(key)
                return False
            if solve(ti, 1, 0):
                return True
            dead.add(key)
            return False
        if phase == 1 and mi == len(per_info):
            if solve(ti, 1, 0):
                return True
            dead.add(key)
            return False
        kind, data = (pre_info if phase == 0 else per_info)[mi]
        base = pre_base[mi] if phase == 0 else per_base[mi]
        if kind == "finite":
            word = data
            j = 0
            while (
                j < len(word)
                and ti + j < n_tokens
                and labels[ti + j] == word[j]
            ):
                j += 1
            if j == len(word):
                if solve(ti + j, phase, mi + 1):
                    for jj in range(j):
                        out[ti + jj] = base + jj
                    return True
            elif ti + j == n_tokens:
                for jj in range(j):
                    out[ti + jj] = base + jj
                return True
            dead.add(key)
            return False
        palette = data
        c = 0
        while ti + c < n_tokens and labels[ti + c] in palette:
            c += 1
            if solve(ti + c, phase, mi + 1):
                for cc in range(c):
                    out[ti + cc] = base + palette[labels[ti + cc]]
                return True
        if ti + c == n_tokens and c >= 1:
            for cc in range(c):
                out[ti + cc] = base + palette[labels[ti + cc]]
            return True
        dead.add(key)
        return False

    return out if solve(0, 0, 0) else None


def annotate_R(p: FinPoset, table: Optional[RamTable] = None):
    """Annotate every point with its realised chain-membership facts.

    Each point maps to a frozenset of pairs ``(i, (m, n))``: the point lies
    on exactly ``i`` maximal chains of type ``m`` at position ``n``.  With
    no table the types are the distinct chain label words of ``p`` itself
    and counts are exact; with a table the types come from the symbolic
    chain-type list and counts saturate to infinity beyond ``table.cap``.
    """
    chains = maximal_chains(p)
    counts: Dict[object, Dict[Tuple[int, int], int]] = {
        x: {} for x in p.elements
    }
    if table is None:
        words = {ch: tuple(p.label(x) for x in ch) for ch in chains}
        distinct = sorted(set(words.values()), key=_word_key)
        midx = {w: i for i, w in enumerate(distinct)}
        for ch in chains:
            m = midx[words[ch]]
            for n, x in enumerate(ch):
                cell = (m, n)
                counts[x][cell] = counts[x].get(cell, 0) + 1
        return {
            x: frozenset((i, cell) for cell, i in counts[x].items())
            for x in p.elements
        }
    for ch in chains:
        word = tuple(p.label(x) for x in ch)
        for m, t in enumerate(table.chain_types):
            assignment = _parse_chain_labels(word, t)
            if assignment is not None:
                for x, n in zip(ch, assignment):
                    cell = (m, n)
                    counts[x][cell] = counts[x].get(cell, 0) + 1
                break
    return {
        x: frozenset(
            (i if i <= table.cap else OMEGA, cell)
            for cell, i in counts[x].items()
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
    remaining matches by level parity.  Optional ``annotations`` (from
    :func:`annotate_R`) are used as an invariant filter.
    """
    report = validate_tree(p)
    if not report.ok:
        raise NotATreeError(f"not a tree: {report.violations[0]}")
    for a, b in (pair0, pair1):
        if a not in p._down or b not in p._down:
            raise ValueError(f"unknown point in pair ({a!r}, {b!r})")
        if not p.less(a, b):
            raise ValueError(
                "pairs must be strictly comparable, given bottom-up"
            )
    (x0, y0), (x1, y1) = pair0, pair1
    if annotations is not None:
        for a, b in ((x0, x1), (y0, y1)):
            if annotations.get(a) != annotations.get(b):
                return False, (("annotation-mismatch", a, b),)

    rank = {v: len(p.down(v)) for v in p.elements}
    base0 = sorted(p.down(y0) | {y0}, key=lambda v: rank[v])
    base1 = sorted(p.down(y1) | {y1}, key=lambda v: rank[v])
    if len(base0) != len(base1):
        return False, ()
    pin = dict(zip(base0, base1))
    if pin[x0] != x1:
        return False, ()

    # Aho-Hopcroft-Ullman codes: equal codes mark isomorphic labelled
    # subtrees, so after pinning the base chains any match of equal codes
    # extends to an automorphism and the matching needs no backtracking.
    code: Dict[object, int] = {}
    ids: Dict[tuple, int] = {}
    for v in sorted(p.elements, key=lambda v: -rank[v]):
        key = (
            p.label(v),
            None if annotations is None else annotations.get(v),
            tuple(sorted(code[c] for c in p._upper[v])),
        )
        code[v] = ids.setdefault(key, len(ids))
    if any(code[a] != code[b] for a, b in pin.items()):
        return False, ()

    # each unpinned child goes to the first free child of its image, in
    # node order, that is no pin target and has the same code
    pinned_targets = set(base1)
    assign = dict(pin)
    stack = [base0[0]]
    while stack:
        u = stack.pop()
        free: Dict[int, List[object]] = {}
        for c in p._upper[assign[u]]:
            if c not in pinned_targets:
                free.setdefault(code[c], []).append(c)
        for c in p._upper[u]:
            if c not in pin:
                assign[c] = free[code[c]].pop(0)
            stack.append(c)
    image = {(assign[a], assign[b]) for (a, b) in p.lt}
    if image != p.lt or len(set(assign.values())) != len(p.elements):
        return False, ()

    base_set = set(base0)
    trace = tuple(("base", a, assign[a]) for a in base0) + tuple(
        ("even" if rank[v] % 2 == 0 else "odd", v, assign[v])
        for v in sorted(
            (v for v in p.elements if v not in base_set),
            key=lambda v: (rank[v], node_key(v)),
        )
    )
    return True, trace
