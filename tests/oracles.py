"""Independent test oracles shared across the suite.

- random term generation with a seeded RNG
- fresh structural copies of terms, and the normal form computed afresh
  at every node, the reference for the normal forms ``terms.normalize``
  keeps on its nodes
- single-step random-order reduction (for confluence checks)
- the segments before and after a leaf as terms, rebuilt at every level
  of its address, and the later points of one leaf above another found by
  recursion on both addresses, the references for the one-descent words
  of ``terms._down_word``, ``terms._up_word`` and ``terms._later_points``
- the redex scan of the flanked-shuffle law, and collapse that rescans the
  word after every collapse, the references for the redexes that
  ``terms._redexes_at`` finds at each start and the one left-to-right pass
  of ``terms.collapse_factors``
- a sampled back-and-forth soundness check: finite samples of either side
  of a rewrite must embed in the other side's order (equivalent terms
  denote the same order, so a sound step can never fail this)
- brute-force order queries (closure, down/up sets, covers, meets, joins,
  tree validation) that rescan the relation for every answer, the
  reference for the stored sets of ``FinPoset``
- poset-file text with each node line joined from a list of its parts,
  the reference for the one f-string per line of ``posets.dump_poset``
- the cones above a tree point and the closure of a tuple under meets,
  which the package itself does not need
- the exhaustive catalogue of tree shapes (``all_trees``) and isomorphism
  testing with a witness (``is_isomorphic``, a search of
  ``posets._search``), which the package itself does not need either
- CFPO connecting sets, enumerated without a bound, and the paths
  assembled from them and maximal chains of the intervals between their
  members, the reference for the Hasse-diagram walk of ``cfpo.path``
- path completion that rebuilds the order and rescans every pair after
  each added point, the reference for the in-place extension of
  ``cfpo.path_completion``
- zigzag embedding by a recursive search restarted for every length and
  orientation, the reference for the one search per orientation of
  ``cfpo._zigzag`` and for ``cfpo.alt_rank``
- the recursive parse of a chain label word as a chain type, rebuilding
  the member leaf tables at each call, the reference for the search of
  ``trees._parse_chain_labels``
- periodic normalization as one loop that retries the period's collapses
  after every step, the reference for the two loops of
  ``sequences._periodic_pipeline``
- term samples drawn from a generator seeded for every term, shuffling
  single constituents too, the reference for ``terms._sample_points``,
  which seeds one only when a shuffle draws
- tree samples that sample every copy's spine anew with that sampler and
  close the order from its covering pairs, the reference for the per-key
  layouts and the forest constructor of ``trees.materialize_tree``
- chain counts by round-robin rounds in the lattice ``0..cap+1, omega``
  until nothing changes, the reference for the one pass over strongly
  connected components of ``trees._counts``
- subtree codes with a label call, a sort and a list copy per point, and
  the two-orbit matcher that visits every point, childless ones too, the
  references for the flat passes of ``posets._tree_view`` and
  ``trees.two_orbit_equiv``
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import dataclass
from functools import lru_cache
import math
from typing import Dict, List, Optional, Sequence, Tuple

from omegacat.errors import BudgetError, CycleError, SpecError
from omegacat.posets import (
    AUT_NODE_BOUND,
    FinPoset,
    _search,
    _tree_view,
    covers,
    maximal_chains,
    node_key,
)
from omegacat.sequences import (
    NfSequence,
    _first_redex,
    _primitive_root,
    _rotate_canonical,
    normalize_sequence,
)
from omegacat.terms import (
    IRRATIONAL,
    UNCOLOURED,
    Concat,
    OrbitDescriptor,
    Shuffle,
    Singleton,
    Term,
    applicable_rewrites,
    concat,
    factors,
    is_finite,
    materialize,
    min_size,
    orbit_paths,
    shuffle,
    subterm_at,
)
from omegacat.trees import (
    OMEGA,
    TreeSpec,
    _check_sample_size,
    _copies,
    _seq_prepend,
    _walk,
)


def random_term(rng: random.Random, depth: int, colours=("a", "b", "c")):
    """A random term of nesting depth at most ``depth``."""
    tags = ("1",) + tuple(colours)
    if depth <= 0 or rng.random() < 0.3:
        return Singleton(rng.choice(tags))
    if rng.random() < 0.5:
        k = rng.randint(1, 3)
        return shuffle([random_term(rng, depth - 1, colours) for _ in range(k)])
    k = rng.randint(2, 3)
    return concat([random_term(rng, depth - 1, colours) for _ in range(k)])


def rebuild(t: Term) -> Term:
    """A structural copy of ``t`` made of fresh nodes, which hold none of
    the facts that ``t``'s nodes may have stored."""
    if isinstance(t, Singleton):
        return Singleton(t.tag)
    if isinstance(t, Shuffle):
        return Shuffle(tuple(rebuild(c) for c in t.constituents))
    return Concat(tuple(rebuild(f) for f in t.factors))


def naive_normalize(t: Term) -> Term:
    """The normal form with no stored result: every node is normalised
    afresh, absorption is tested on the spot and the factor word collapses
    by rescanning."""
    if isinstance(t, Singleton):
        return t
    if isinstance(t, Shuffle):
        s = shuffle(naive_normalize(c) for c in t.constituents)
        cs = set(s.constituents)
        for c in s.constituents:
            if isinstance(c, Shuffle) and cs - {c} <= set(c.constituents):
                return c
        return s
    fs: List[Term] = []
    for f in t.factors:
        fs.extend(factors(naive_normalize(f)))
    return concat(naive_collapse_factors(fs))


def reduce_random(t, rng: random.Random, max_steps: int = 200):
    """Apply applicable rewrites in a random order until none remain."""
    for _ in range(max_steps):
        steps = applicable_rewrites(t)
        if not steps:
            return t
        t = rng.choice(steps)[1]
    raise AssertionError("reduction did not terminate")


def rewrite_trace(t, rng: random.Random, max_steps: int = 200):
    """Like reduce_random but yields every (before, after) step fired."""
    trace = []
    for _ in range(max_steps):
        steps = applicable_rewrites(t)
        if not steps:
            return t, trace
        nxt = rng.choice(steps)[1]
        trace.append((t, nxt))
        t = nxt
    raise AssertionError("reduction did not terminate")


def naive_initial_segment(t: Term, path: Sequence[int]) -> Term:
    """Term for the set of points at or before a point in the leaf at
    ``path``."""
    if isinstance(t, Singleton):
        return t
    if isinstance(t, Shuffle):
        return concat([t, naive_initial_segment(t.constituents[path[0]], path[1:])])
    j = path[0]
    sub = naive_initial_segment(t.factors[j], path[1:])
    return concat(list(t.factors[:j]) + [sub])


def naive_final_segment(t: Term, path: Sequence[int]) -> Optional[Term]:
    """Term for the set of points strictly after a point in the leaf at
    ``path``.  None denotes the empty segment."""
    if isinstance(t, Singleton):
        return None
    if isinstance(t, Shuffle):
        sub = naive_final_segment(t.constituents[path[0]], path[1:])
        return concat(([sub] if sub is not None else []) + [t])
    j = path[0]
    sub = naive_final_segment(t.factors[j], path[1:])
    parts = ([sub] if sub is not None else []) + list(t.factors[j + 1 :])
    return concat(parts) if parts else None


def _segment_word(t: Optional[Term]) -> List[Term]:
    return list(factors(t)) if t is not None else []


def naive_later_points(t: Term, p, q) -> list:
    """The ``(count, connecting word)`` pairs of the points of leaf ``q``
    strictly above a point of leaf ``p``, deepest level first, by recursion
    on both addresses."""
    if isinstance(t, Singleton):
        return []
    i, k = p[0], q[0]
    if isinstance(t, Shuffle):
        word = (
            _segment_word(naive_final_segment(t.constituents[i], p[1:]))
            + [t]
            + _segment_word(naive_initial_segment(t.constituents[k], q[1:]))
        )
        own = naive_later_points(t.constituents[i], p[1:], q[1:]) if i == k else []
        return own + [(math.inf, word)]
    if k <= i:
        return naive_later_points(t.factors[i], p[1:], q[1:]) if k == i else []
    target = t.factors[k]
    word = (
        _segment_word(naive_final_segment(t.factors[i], p[1:]))
        + list(t.factors[i + 1 : k])
        + _segment_word(naive_initial_segment(target, q[1:]))
    )
    dense = any(
        isinstance(subterm_at(target, q[1 : d + 1]), Shuffle) for d in range(len(q))
    )
    return [(math.inf if dense else 1, word)]


def naive_law4_redexes(fs) -> list:
    """Every redex ``(i, j)`` of the factor list, in increasing order: one
    scan over every start and every span a constituent allows."""
    out = []
    for i, f in enumerate(fs):
        if not isinstance(f, Shuffle):
            continue
        js = {i + 1}
        for c in f.constituents:
            js.add(i + 1 + len(factors(c)))
        for j in sorted(js):
            if j >= len(fs) or fs[j] != f:
                continue
            seg = fs[i + 1 : j]
            if not seg or concat(seg) in f.constituents:
                out.append((i, j))
    return out


def naive_collapse_factors(fs):
    """Apply flanked-shuffle collapses until none remain, rescanning the
    whole word for its first redex after every collapse."""
    fs = list(fs)
    while True:
        rs = naive_law4_redexes(fs)
        if not rs:
            return fs
        i, j = rs[0]
        fs = fs[: i + 1] + fs[j + 1 :]


def _leaf_the_label(t):
    """The (colour, irrational) pair a one-point sample of ``t`` carries."""
    if t.tag == "1":
        return (None, False)
    if t.tag == "I":
        return (None, True)
    return (t.tag, False)


def chain_embeds(labels, t) -> bool:
    """Decide exactly whether a finite coloured chain embeds into the
    countable order denoted by ``t``.

    ``labels`` is the bottom-to-top tuple of (colour, irrational) pairs.
    A singleton absorbs at most one matching point; a concatenation
    splits the chain into consecutive (possibly empty) parts, one per
    factor; a shuffle splits it into consecutive blocks, each embedded in
    some constituent (the dense mixture realises every such pattern).
    """
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def embeds(seg, term):
        if isinstance(term, Singleton):
            if not seg:
                return True
            return len(seg) == 1 and seg[0] == _leaf_the_label(term)
        if isinstance(term, Concat):
            parts = term.factors

            @lru_cache(maxsize=None)
            def split(i, j):
                if j == len(parts):
                    return i == len(seg)
                for k in range(i, len(seg) + 1):
                    if embeds(seg[i:k], parts[j]) and split(k, j + 1):
                        return True
                return False

            return split(0, 0)
        blocks = term.constituents

        @lru_cache(maxsize=None)
        def rest(i):
            if i == len(seg):
                return True
            for k in range(i + 1, len(seg) + 1):
                if any(embeds(seg[i:k], c) for c in blocks) and rest(k):
                    return True
            return False

        return rest(0)

    return embeds(tuple(labels), t)


def samples_agree(t1, t2, budget: int, seed: int) -> bool:
    """A sampled back-and-forth check between two terms.

    Every challenge point of a finite sample of one term must be
    answerable inside the other term's order, jointly with the rest of
    the sample; that is, each sample must embed in the opposing order.
    Both directions are checked.
    """
    p1, _ = materialize(t1, budget=budget, seed=seed)
    p2, _ = materialize(t2, budget=budget, seed=seed + 1)
    l1 = tuple(p1.label(x) for x in range(len(p1)))
    l2 = tuple(p2.label(x) for x in range(len(p2)))
    return chain_embeds(l1, t2) and chain_embeds(l2, t1)


# ---------------------------------------------------------------------------
# brute-force order queries


def poset_fields(p) -> dict:
    """Every stored field of a ``FinPoset``, to compare two builds of one
    order field for field."""
    return {s: getattr(p, s) for s in FinPoset.__slots__}


def leq(p, a, b) -> bool:
    return a == b or p.less(a, b)


def comparable(p, a, b) -> bool:
    return leq(p, a, b) or p.less(b, a)


def naive_bits(mask) -> list:
    """Positions of the set bits of ``mask``, lowest first, one shift and
    test per bit position."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def naive_closure(elements, pairs) -> frozenset:
    """Strict pairs of the transitive closure, by Warshall iteration.
    Raises CycleError naming the first node, in node order, on a cycle."""
    els = sorted(set(elements), key=node_key)
    succ = {x: {b for (a, b) in pairs if a == x} for x in els}
    changed = True
    while changed:
        changed = False
        for x in els:
            grow = set()
            for y in succ[x]:
                grow |= succ[y] - succ[x]
            if grow:
                succ[x] |= grow
                changed = True
    for x in els:
        if x in succ[x]:
            raise CycleError(f"cycle through node {x!r}")
    return frozenset((a, b) for a in els for b in succ[a])


def naive_down(p, x) -> frozenset:
    return frozenset(a for (a, b) in p.lt if b == x)


def naive_up(p, x) -> frozenset:
    return frozenset(b for (a, b) in p.lt if a == x)


def naive_covers(p) -> tuple:
    out = []
    for a, b in p.lt:
        if not any(p.less(a, c) and p.less(c, b) for c in p.elements):
            out.append((a, b))
    out.sort(key=lambda e: (node_key(e[0]), node_key(e[1])))
    return tuple(out)


def naive_dump_poset(p) -> str:
    """The poset-file text of ``p``, each node line joined from a list of
    its parts and the edges read from ``covers``: the reference for the
    one f-string per line of ``posets.dump_poset``."""
    lines = []
    for x in p.elements:
        opts = []
        if x in p.colour:
            opts.append(f"colour={p.colour[x]}")
        if x in p.irrational:
            opts.append("irrational")
        lines.append(" ".join(["node", str(x)] + opts))
    for a, b in covers(p):
        lines.append(f"edge {a} {b}")
    return "\n".join(lines) + "\n"


def naive_meet(p, x, y):
    common = [t for t in p.elements if leq(p, t, x) and leq(p, t, y)]
    for m in common:
        if all(leq(p, t, m) for t in common):
            return m
    return None


def naive_join(p, x, y):
    uppers = [t for t in p.elements if leq(p, x, t) and leq(p, y, t)]
    for m in uppers:
        if all(leq(p, m, t) for t in uppers):
            return m
    return None


def naive_validate_tree(p):
    """``(ok, violations)`` of the two tree axioms, in the order
    ``posets._tree_violations`` finds them."""
    bad = []
    els = p.elements
    for z in els:
        below = sorted(naive_down(p, z) | {z}, key=node_key)
        for x, y in itertools.combinations(below, 2):
            if not comparable(p, x, y):
                bad.append(("down-linearity", (x, y, z)))
    for x, y in itertools.combinations(els, 2):
        if not any(leq(p, t, x) and leq(p, t, y) for t in els):
            bad.append(("common-lower-bound", (x, y)))
    return not bad, tuple(bad)


# ---------------------------------------------------------------------------
# cones above a tree point and closure under meets, which nothing in the
# package needs; the tests read them


def cones_above(p: FinPoset, t) -> tuple:
    """Partition of the strict upper set of the tree point ``t`` into cones,
    ordered by first member, each in node order: one per upper cover of
    ``t``, its closed up-set.  Two points above ``t`` share a cone iff their
    meet lies strictly above ``t``.  Raises :class:`NotATreeError` unless
    ``p`` is a tree."""
    _tree_view(p)
    cones = [p._decode(p._up[p._pos[c]] | 1 << p._pos[c]) for c in p._upper[t]]
    return tuple(map(tuple, sorted(cones, key=lambda c: p._pos[c[0]])))


def ramification_order(p: FinPoset, t) -> int:
    return len(cones_above(p, t))


def complete_tuple(p: FinPoset, t: Sequence) -> tuple:
    """Close a tuple under meets; added points in ascending node order."""
    have = list(t)
    members = set(have)
    added = set()
    changed = True
    while changed:
        changed = False
        for x, y in itertools.combinations(sorted(members, key=node_key), 2):
            m = naive_meet(p, x, y)
            if m is None:
                raise ValueError(f"no meet of {x!r} and {y!r} in the poset")
            if m not in members:
                members.add(m)
                added.add(m)
                changed = True
    return tuple(have) + tuple(sorted(added, key=node_key))


# ---------------------------------------------------------------------------
# CFPO paths from connecting sets


@dataclass(frozen=True)
class ConnectingSet:
    """An alternating tuple of turning points linking two query points.

    ``directions[k]`` is ``"up"`` when ``nodes[k] < nodes[k+1]`` and
    ``"down"`` otherwise; interior nodes reverse direction, and nodes that
    are not neighbours in the tuple are incomparable.
    """

    nodes: Tuple
    directions: Tuple[str, ...]

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise ValueError("a connecting set needs at least two nodes")
        if len(self.directions) != len(self.nodes) - 1:
            raise ValueError("one direction per consecutive pair required")


def connecting_sets(p: FinPoset, a, b) -> List[ConnectingSet]:
    """All alternating tuples linking ``a`` to ``b`` in ``p``.

    Neighbouring members are strictly comparable, direction reverses at
    every interior member, and non-neighbours are incomparable (which
    forces all members distinct).  Run this on the path completion when
    interior turning points may be irrational.  Result is sorted by
    length, then by node order.  ``naive_paths`` reads it; ``cfpo.path``
    and ``cfpo.validate_cfpo`` walk the Hasse diagram instead.
    """
    for x in (a, b):
        if x not in p:
            raise ValueError(f"unknown node {x!r}")
    out: List[ConnectingSet] = []
    bound = 2 * len(p.elements)

    def extend(tup, dirs):
        if len(tup) >= bound:
            return
        last = tup[-1]
        for z in p.elements:
            if p.less(last, z):
                d = "up"
            elif p.less(z, last):
                d = "down"
            else:
                continue
            if dirs and d == dirs[-1]:
                continue
            if any(comparable(p, z, c) for c in tup[:-1]):
                continue
            if z == b:
                out.append(ConnectingSet(tup + (z,), dirs + (d,)))
            else:
                extend(tup + (z,), dirs + (d,))

    extend((a,), ())
    out.sort(
        key=lambda cs: (
            len(cs.nodes),
            tuple(node_key(x) for x in cs.nodes),
        )
    )
    return out


def naive_paths(p, a, b, limit: int = 2) -> list:
    """Distinct path node-sets between ``a`` and ``b``, at most ``limit``.

    For every connecting set, pick one maximal chain of the interval
    between each pair of neighbouring members; neighbouring chains must
    share exactly their common member and all others must be disjoint.
    A path is the union of such a choice.
    """
    found: list = []
    for cs in connecting_sets(p, a, b):
        segs = []
        for u, v in zip(cs.nodes, cs.nodes[1:]):
            lo, hi = (u, v) if p.less(u, v) else (v, u)
            sub = p.restrict((p.up(lo) | {lo}) & (p.down(hi) | {hi}))
            segs.append([frozenset(ch) for ch in maximal_chains(sub)])

        def assemble(k, chosen):
            if len(found) >= limit:
                return
            if k == len(segs):
                union = frozenset().union(*chosen)
                if union not in found:
                    found.append(union)
                return
            for seg in segs[k]:
                if all(
                    prev & seg == ({cs.nodes[k]} if i == k - 1 else set())
                    for i, prev in enumerate(chosen)
                ):
                    assemble(k + 1, chosen + [seg])

        assemble(0, [])
        if len(found) >= limit:
            break
    return found


# ---------------------------------------------------------------------------
# CFPO path completion by rebuild and rescan


def _first_missing_bound(p):
    """The bound set of the first pair, in node order, that has common
    upper bounds but no join (checked first) or common lower bounds but no
    meet, with True for a join; or None."""
    for x, y in itertools.combinations(p.elements, 2):
        uppers = [t for t in p.elements if leq(p, x, t) and leq(p, y, t)]
        if uppers and naive_join(p, x, y) is None:
            return uppers, True
        lowers = [t for t in p.elements if leq(p, t, x) and leq(p, t, y)]
        if lowers and naive_meet(p, x, y) is None:
            return lowers, False
    return None


def naive_path_completion(p):
    """Path completion one point at a time: adjoin the extremum missing for
    the first defective pair, between the bound set and the points on the
    far side of all of it, rebuild the order and rescan from the first
    pair.  Added points are irrational and named ``i0``, ``i1``, ...,
    skipping names already present."""
    cur, counter = p, 0
    while True:
        found = _first_missing_bound(cur)
        if found is None:
            return cur
        bound, is_join = found
        while f"i{counter}" in cur.elements:
            counter += 1
        name = f"i{counter}"
        if is_join:
            far = [t for t in cur.elements if all(leq(cur, t, u) for u in bound)]
            edges = [(t, name) for t in far] + [(name, u) for u in bound]
        else:
            far = [t for t in cur.elements if all(leq(cur, u, t) for u in bound)]
            edges = [(u, name) for u in bound] + [(name, t) for t in far]
        cur = FinPoset(
            cur.elements + (name,),
            list(cur.lt) + edges,
            colour=dict(cur.colour),
            irrational=set(cur.irrational) | {name},
        )


# ---------------------------------------------------------------------------
# zigzag embedding by a recursive search per length


def _tick(counter):
    if counter["left"] is None:
        return
    counter["left"] -= 1
    if counter["left"] < 0:
        raise BudgetError("embedding search budget exhausted")


def _naive_embed(p, length, reversed, counter):
    """Backtracking search for an induced copy of the zigzag on ``length``
    points, or of its reversal."""
    img = {}

    def place(i):
        if i == length:
            return True
        # position i is related to i - 1 only: the cone fixes that relation,
        # and z must be incomparable to (so distinct from) earlier images;
        # an even position lies above its neighbours unless reversed
        if i == 0:
            cands = p.elements
        else:
            cones = p._up if (i % 2 == 0) != reversed else p._down
            cands = p._decode(cones[p._pos[img[i - 1]]])
        for z in cands:
            _tick(counter)
            if any(comparable(p, z, img[j]) for j in range(i - 1)):
                continue
            img[i] = z
            if place(i + 1):
                return True
            del img[i]
        return False

    return dict(img) if place(0) else None


def naive_embeds_alt(p, length, reversed=False, budget=None):
    """An induced embedding of the zigzag on ``length`` points (reversed
    when ``reversed``) into ``p`` as a map from zigzag position to node, or
    None; at most ``budget`` candidates are tried (BudgetError beyond it).
    Comparabilities and incomparabilities are both preserved."""
    return _naive_embed(p, length, reversed, {"left": budget})


def naive_alt_rank(p, budget: int = 200_000) -> int:
    """Largest ``n`` whose zigzag embeds in either orientation: a new
    search for each length, the plain one first, sharing the budget."""
    if len(p) == 0:
        raise ValueError("the empty order has no zigzag rank")
    counter = {"left": budget}
    n = 1
    while n < len(p):
        try:
            found = _naive_embed(p, n + 1, False, counter) or _naive_embed(
                p, n + 1, True, counter
            )
        except BudgetError as e:
            raise BudgetError(
                f"zigzag-rank search budget exhausted; best lower bound {n}"
            ) from e
        if found is None:
            break
        n += 1
    return n


# ---------------------------------------------------------------------------
# chain label parsing by recursion


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


def _naive_members(word) -> List[Term]:
    """The members of a factor word: each shuffle alone, and each maximal
    run of singletons merged into one concatenation."""
    out: List[Term] = []
    for f in word:
        if isinstance(f, Singleton) and out and is_finite(out[-1]):
            out[-1] = concat([out[-1], f])
        else:
            out.append(f)
    return out


def naive_parse_chain_labels(labels, t: NfSequence, sparse: bool = False):
    """Assign an orbit position of ``t`` to every token of a chain label
    word, or None when the word is not a (possibly truncated) instance.

    Finite members must appear in full, except at the end of the word where
    a sample may have been cut short.  A dense member absorbs one or more
    tokens drawn from its leaf labels, or also none when ``sparse``;
    matches are resolved leftmost-shortest.  Tail members cycle, reusing
    their position block.
    """
    pre_members = _naive_members(t.prefix)
    per_members = _naive_members(t.period)
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
        # marked on entry: a key met again below itself consumed nothing
        dead.add(key)
        if phase == 0 and mi == len(pre_info):
            return bool(per_info) and solve(ti, 1, 0)
        if phase == 1 and mi == len(per_info):
            return solve(ti, 1, 0)
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
            return False
        palette = data
        if sparse and solve(ti, phase, mi + 1):
            return True
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
        return False

    return out if solve(0, 0, 0) else None


def naive_periodic_pipeline(pre: List[Term], per: List[Term]):
    """``(pre, per)`` in canonical form, ``per = None`` when absorbed: one
    loop that looks for a collapse of the period before every step."""
    while True:
        per = _primitive_root(per)
        r = _first_redex(per + per, len(per))
        if r is not None:
            i, j = r
            k = len(per)
            if j < k:
                per = per[: i + 1] + per[j + 1 :]
            else:
                pre = pre + per[: i + 1]
                per = per[j - k + 1 : i + 1]
                if not per:
                    return pre, None
            continue
        pre, per = _rotate_canonical(pre, per)
        r = _first_redex(pre + per + per, len(pre))
        if r is None:
            return pre, per
        i, j = r
        if j < len(pre):
            pre = pre[: i + 1] + pre[j + 1 :]
        else:
            m = (j - len(pre) + 1) % len(per)
            pre = pre[: i + 1]
            per = per[m:] + per[:m]


# ---------------------------------------------------------------------------
# term samples from a generator that is always seeded


def _naive_emit(t: Term, budget: int, rng: random.Random, path, out) -> None:
    """Append ``(path, tag)`` for each point of a ``budget``-point sample of
    ``t``: a concatenation splits what its infinite factors may take beyond
    their least sizes evenly, earlier ones first, and a shuffle places its
    constituents, each at its least size, in a freshly shuffled order per
    round while one still fits, shuffling a single constituent too."""
    if isinstance(t, Singleton):
        out.append((path, t.tag))
        return
    if isinstance(t, Concat):
        allocs = [min_size(f) for f in t.factors]
        infinite = [i for i, f in enumerate(t.factors) if not is_finite(f)]
        if infinite:
            share, rem = divmod(budget - sum(allocs), len(infinite))
            for k, i in enumerate(infinite):
                allocs[i] += share + (1 if k < rem else 0)
        for i, f in enumerate(t.factors):
            _naive_emit(f, allocs[i], rng, path + (i,), out)
        return
    cs = t.constituents
    mins = [min_size(c) for c in cs]
    remaining = budget
    while remaining >= min(mins):
        order = list(range(len(cs)))
        rng.shuffle(order)
        for i in order:
            if mins[i] <= remaining:
                _naive_emit(cs[i], mins[i], rng, path + (i,), out)
                remaining -= mins[i]


def naive_sample_points(t: Term, budget: int, seed: int) -> list:
    """The ``(OrbitDescriptor, tag)`` points of ``terms.materialize``'s
    sample of ``t``, from a generator seeded for every term, one descriptor
    built per point: the reference for ``terms._sample_points``, which
    seeds one only when a shuffle of two or more constituents draws."""
    if budget < min_size(t):
        raise BudgetError(
            f"budget {budget} is below the minimum sample size {min_size(t)}"
        )
    out: List[Tuple[Tuple[int, ...], str]] = []
    _naive_emit(t, budget, random.Random(seed), (), out)
    index = {p: i for i, p in enumerate(orbit_paths(t))}
    return [(OrbitDescriptor(index[path], path), tag) for path, tag in out]


# ---------------------------------------------------------------------------
# tree samples built copy by copy and closed from their pairs


def naive_materialize_tree(
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

    Samples every copy's spine anew and closes the order from its covering
    pairs: the reference for the layouts and the forest constructor of
    ``trees.materialize_tree``.
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
        sp_seed = zlib.crc32(f"{seedv}|{name}|{d}|spine".encode())
        # a budget of at least min_size(spine) samples every orbit, so
        # ``at`` below holds the lowest sampled point of each orbit site
        budget = max(min_size(dfn.spine), width)
        pts = naive_sample_points(dfn.spine, budget, sp_seed)
        first = size
        at: Dict[tuple, int] = {}  # site -> the point its copies hang above
        for g, (desc, tag) in enumerate(pts, start=first):
            at.setdefault(("orbit", desc.index), g)
            if tag == IRRATIONAL:
                irrational.add(g)
            elif tag != UNCOLOURED:
                colour[g] = tag
        size += len(pts)
        k = len(dfn.fs)
        als: List[int] = []
        fac = [desc.path[0] if k > 1 else 0 for desc, _ in pts]
        for j in range(k):
            als.extend(first + i for i, f in enumerate(fac) if f == j)
            if d >= 1 and j in dfn.cut_positions:
                irrational.add(size)
                at[("cut", j)] = size
                als.append(size)
                size += 1
        if attach is not None:
            pairs.append((attach, als[0]))
        pairs.extend(zip(als, als[1:]))
        if d == 0:
            continue
        children = []
        for site, mult, child in dfn.attachments:
            child_seed = zlib.crc32(f"{seedv}|{child}|{d - 1}".encode())
            copy = (child, d - 1, child_seed, at[site])
            children += [copy] * _copies(mult, width)
        stack.extend(reversed(children))
    return FinPoset(range(size), pairs, colour=colour, irrational=irrational)


# ---------------------------------------------------------------------------
# chain counts in the saturating lattice

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


def naive_counts(spec: TreeSpec, cap: int) -> Dict[str, dict]:
    """Per definition, the number of maximal chains of each type in the
    denoted tree of that definition, in the saturating lattice.

    Chains that decompose through finitely many attachment steps are counted
    by a least fixpoint; chains that keep descending forever are floored by
    the lassos of the walk from that definition.  The two are joined by
    maximum.  The rounds run until nothing changes: every key of a
    definition is a type its walk found (anything else raises), every entry
    lives in the finite lattice ``0..cap+1, omega``, and each change raises
    an entry, so the loop ends.  Where the least solution over the naturals
    and omega is finite this gives it, saturated at ``cap + 1``; on a cycle
    such as ``x = 1 + x`` it stops at ``cap + 1`` short of omega.
    """
    base: Dict[str, dict] = {}
    floor: Dict[str, dict] = {}
    keys: Dict[str, set] = {}
    for name in spec.reachable:
        dfn = spec.definitions[name]
        b: dict = {}
        if dfn.terminal_valid:
            b[normalize_sequence(dfn.chain.factors)] = _sadd(0, 1, cap)
        base[name] = b
        fl: dict = {}
        walk = _walk(spec, name)
        keys[name] = set(walk.types)
        for lasso in walk.lassos:
            weights = [_lat(e.weight, cap) for e in lasso.cycle]
            val = 1 if all(w == 1 for w in weights) else OMEGA
            for e in lasso.pre:
                val = _smul(val, _lat(e.weight, cap), cap)
            if fl.get(lasso.type, 0) < val:
                fl[lasso.type] = val
        floor[name] = fl

    C: Dict[str, dict] = {n: {} for n in spec.reachable}
    changed = True
    while changed:
        changed = False
        for name in spec.reachable:
            new = dict(base[name])
            for e in spec.definitions[name].edges:
                w = _lat(e.weight, cap)
                for t2, c2 in C[e.child].items():
                    t = _seq_prepend(e.word, t2)
                    new[t] = _sadd(new.get(t, 0), _smul(w, c2, cap), cap)
            for t, v in floor[name].items():
                if new.get(t, 0) < v:
                    new[t] = v
            if not keys[name].issuperset(new):
                raise SpecError(
                    "internal: a chain count escaped the walk's chain types"
                )
            if new != C[name]:
                C[name] = new
                changed = True
    return C


# ---------------------------------------------------------------------------
# subtree codes and the two-orbit matcher with a call, a sort and a copy
# per point


def naive_tree_view(p: FinPoset) -> tuple:
    """``(depth, order, code, kids)`` of the tree ``p``, as
    ``posets._tree_view`` gives them, built afresh on each call: each
    point's code numbers its key (label, child codes in code order) by
    first appearance, children before parents.  ``p`` must be a tree."""
    depth = {v: len(p.down(v)) for v in p.elements}
    order = sorted(p.elements, key=depth.__getitem__)
    code: dict = {}
    kids: dict = {}
    ids: dict = {}
    for v in reversed(order):
        # a stable sort of the covers, which are in node order
        kids[v] = sorted(p._upper[v], key=code.__getitem__)
        key = (p.label(v), tuple(code[c] for c in kids[v]))
        code[v] = ids.setdefault(key, len(ids))
    return depth, order, code, kids


def naive_two_orbit_equiv(p: FinPoset, pair0, pair1):
    """``(answer, trace)`` of ``trees.two_orbit_equiv`` with no
    annotations: pin the base chains from the root up to ``y0`` and
    ``y1``, then send each point's children off the base chain, in code
    order, to its image's children that are no pin targets, every point in
    turn, the childless ones too."""
    depth, order, code, kids = naive_tree_view(p)
    (x0, y0), (x1, y1) = pair0, pair1
    base0, base1 = [y0], [y1]
    for chain in (base0, base1):
        while p._lower[chain[-1]]:
            chain.append(p._lower[chain[-1]][0])
        chain.reverse()
    if len(base0) != len(base1):
        return False, ()
    pin = dict(zip(base0, base1))
    if pin[x0] != x1:
        return False, ()
    if any(code[a] != code[b] for a, b in pin.items()):
        return False, ()
    pinned_targets = set(base1)
    assign = dict(pin)
    for u in order:
        free = [c for c in kids[assign[u]] if c not in pinned_targets]
        assign.update(zip([c for c in kids[u] if c not in pin], free))
    trace = tuple(("base", a, assign[a]) for a in base0) + tuple(
        ("even" if depth[v] % 2 == 0 else "odd", v, assign[v])
        for v in order
        if v not in pin
    )
    return True, trace


# ---------------------------------------------------------------------------
# the catalogue of tree shapes and isomorphism testing, which nothing in the
# package needs; the tests read them


@lru_cache(maxsize=None)
def _forest_shapes(total: int, cap_nodes: int) -> tuple:
    """Multisets (sorted tuples) of rooted-tree shapes totalling ``total`` nodes."""
    if total == 0:
        return ((),)
    out = set()
    for size in range(1, min(total, cap_nodes) + 1):
        for shape in _tree_shapes(size):
            for rest in _forest_shapes(total - size, cap_nodes):
                out.add(tuple(sorted((shape,) + rest)))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _tree_shapes(n: int) -> tuple:
    """Canonical shapes (nested sorted tuples of child shapes) of rooted trees."""
    if n == 1:
        return ((),)
    return tuple(sorted(_forest_shapes(n - 1, n - 1)))


def _shape_to_poset(shape) -> FinPoset:
    pairs = []
    counter = itertools.count()

    def build(sh, ancestors):
        me = next(counter)
        pairs.extend((a, me) for a in ancestors)
        for child in sh:
            build(child, ancestors + [me])
        return me

    build(shape, [])
    n = next(counter)
    return FinPoset(range(n), pairs)


def all_trees(max_nodes: int) -> list:
    """Exhaustive catalogue of tree posets with 1..max_nodes nodes."""
    out = []
    for n in range(1, max_nodes + 1):
        for shape in _tree_shapes(n):
            out.append(_shape_to_poset(shape))
    return out


def is_isomorphic(a: FinPoset, b: FinPoset, bound: int = AUT_NODE_BOUND):
    """(flag, witness map a->b or None)."""
    if len(a) > bound or len(b) > bound:
        raise BudgetError(f"isomorphism search limited to {bound} nodes")
    found = _search(a, b, find_all=False)
    if found:
        return True, found[0]
    return False, None
