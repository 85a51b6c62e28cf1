"""Cycle-free partial orders on finite diagrams.

A partial order is cycle-free when any two points are linked by at most
one path, where a path is assembled from maximal chains between the
members of a *connecting set* — an alternating zigzag of turning points,
pairwise incomparable except between neighbours.  On a finite order those
chains are runs of covering pairs, so paths are found by walking the
Hasse diagram: a path is a walk along covers that repeats no node and
whose turning points form a connecting set.  Paths may pass through
*irrational* points that only exist in the path completion: the smallest
extension closing the order under meets of downward-bounded pairs and
joins of upward-bounded pairs.  An order is cycle-free exactly when the
Hasse diagram of its path completion is a forest.

The alternating zigzag on ``n`` points and its order reversal measure how
far an order is from a tree: the rank of an order is the largest zigzag
that embeds into it (preserving comparability and incomparability), and
ranked orders reduce to coloured trees for classification purposes.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List

from .errors import BudgetError
from .posets import (
    FinPoset,
    _bits,
    _common_bounds,
    _CoverPoset,
    _forest_view,
    _forks,
    node_key,
)

__all__ = [
    "AMBIGUOUS",
    "join",
    "path_completion",
    "path",
    "validate_cfpo",
    "alt",
    "alt_rank",
]

AMBIGUOUS = "ambiguous"

_MAX_COMPLETION_POINTS = 4096


def _require(p: FinPoset, *xs):
    for x in xs:
        if x not in p:
            raise ValueError(f"unknown node {x!r}")


def join(p: FinPoset, x, y):
    """Minimum of the common upper bounds of ``x`` and ``y``, or None
    when the pair is unbounded above or the bound set has no minimum."""
    _require(p, x, y)
    return _common_bounds(p, p._up, x, y)


# ---------------------------------------------------------------------------
# path completion


def _candidates(p: FinPoset, k: int):
    """The pairs ``(i, j)`` of positions of ``p``, ``i < j``, that can lack
    their join (``k = 0``) or their meet (``k = 1``): every such pair is
    among them.  For joins (meets are dual), say that the common upper
    bounds U of ``i`` and ``j`` are nonempty and form no point's closed
    up-cone.  Then:

    (a) U has two incomparable minimal points, so neither point's closed
        up-cone is a chain, and each holds a fork, a point with two or more
        upper covers (see ``_forks``): both points lie in the closed
        down-cone of a fork;
    (b) ``j`` is incomparable to ``i``: if ``i < j``, U is ``j``'s closed
        up-cone, and dually;
    (c) ``j`` lies in the closed down-cone of a maximal point above ``i``:
        any point of U lies below a maximal one.
    """
    els, pos = p.elements, p._pos
    own, far, cover = (p._up, p._down, p._upper) if k == 0 else (p._down, p._up, p._lower)
    shade = 0  # (a): the closed far cones of the forks
    for f in _bits(_forks(p, cover)):
        shade |= far[f] | 1 << f
    if not shade:
        return
    # (c): reach[i] is the OR of the closed far cones of the extremal points
    # beyond i, which is the OR of reach over i's covers; covers have
    # smaller cones, so they come first in this order
    reach = [0] * len(els)
    for i in sorted(range(len(els)), key=lambda i: own[i].bit_count()):
        r = 0 if cover[els[i]] else far[i] | 1 << i
        for c in cover[els[i]]:
            r |= reach[pos[c]]
        reach[i] = r
    for i in _bits(shade):
        # (b): not i, nothing comparable to it, nothing before it
        for j in _bits(reach[i] & shade & ~(own[i] | far[i] | (2 << i) - 1)):
            yield i, j


def path_completion(p: FinPoset) -> FinPoset:
    """Smallest extension of ``p`` with all forced meets and joins.

    Whenever two points have a common upper bound but no least one, the
    infimum of that bound set is adjoined (dually for lower bounds).  The
    new point sits above exactly the common lower bounds of the bound set
    and below the bound set itself; nothing else is related to it.  Points
    are added one at a time, each for the first defective pair in node
    order (a missing join before a missing meet) among the points so far,
    and extend the order in place, each point's covers kept current.  The
    completion keeps those covers as its own (``posets._CoverPoset``), and
    builds its up- and down-set masks with the one sweep of
    ``posets._masks`` only when a query first reads them: the path of a
    Hasse forest reads covers alone.  Added points are
    flagged irrational and named ``i0``, ``i1``, ... in the order they are
    added, skipping names already present.
    """
    els = list(p.elements)
    keys = [node_key(x) for x in els]
    # cones[0][i] / cones[1][i]: closed up- / down-cone of point i, as a bit
    # mask over positions.  A bound set has its extremum iff it is that
    # point's closed cone, and closed cones are distinct, so ``known``
    # decides a pair with one lookup.
    cones = tuple(
        [m | 1 << i for i, m in enumerate(strict)] for strict in (p._up, p._down)
    )
    known = (set(cones[0]), set(cones[1]))
    p_covers = (p._upper, p._lower)

    def defects(k, pairs):
        """Heap entries ``(key, key, k, position, position)`` of the pairs
        ``(i, j)``, ``i`` first in node order, that miss their join
        (``k = 0``) or meet (``k = 1``): for each bound set, only the first
        such pair in node order.

        That loses no defect.  For a join (meets are dual), an added point
        z lies above a pair exactly when z's bound set lies inside the
        pair's common upper bounds U, so pairs with equal U gain z together
        and keep equal U, and whether a pair misses its join depends on U
        alone.  So the first pair of each U, which the heap would pop before
        the others, stands for them all: mending it mends them all.
        """
        cone, seen, first = cones[k], known[k], {}
        for i, j in pairs:
            bound = cone[i] & cone[j]
            if bound and bound not in seen:
                entry = (keys[i], keys[j], k, i, j)
                if bound not in first or entry < first[bound]:
                    first[bound] = entry
        return list(first.values())

    # only candidate pairs can lack a join or meet (see _candidates), and a
    # pair lacking one of them is a candidate for that one
    heap = defects(0, _candidates(p, 0)) + defects(1, _candidates(p, 1))
    heapq.heapify(heap)
    # moved[0][t] / moved[1][t]: the upper / lower covers of point t, as
    # positions, for each point whose covers an added point changed
    moved = ({}, {})
    taken, counter = set(els), 0
    while heap:
        _, _, k, i, j = heapq.heappop(heap)
        bound = cones[k][i] & cones[k][j]
        if bound in known[k]:  # mended since it was queued
            continue
        if len(els) - len(p) == _MAX_COMPLETION_POINTS:
            raise BudgetError("path completion did not close")
        far = -1  # the points on the far side of the whole bound set
        for t in _bits(bound):
            far &= cones[1 - k][t]
        counter = next(c for c in itertools.count(counter) if f"i{c}" not in taken)
        z, name = len(els), f"i{counter}"
        taken.add(name)
        els.append(name)
        keys.append(node_key(name))
        # For a join, z enters the up-cones of the far side and the
        # down-cones of the bound set (dually for a meet).  No pair of old
        # points gets a new defect, so only the pairs with z are examined.
        # A pair not both below z keeps its common upper bounds U and its
        # status, as every up-cone that gains z then holds a point outside
        # U.  For a pair below z, U gains z; if U had a least point m, then
        # m lies below the bound set, so below z, and its cone gains z too;
        # if U had none, only z's new cone can match, when U is the bound
        # set: then the defect is mended.  Dually for meets.
        # For a join (dually for a meet), z's covers are the points of each
        # side whose cone towards z holds no other point of that side: the
        # maximal far points below z and the minimal bound points above.
        # Each of them drops its covers on z's other side, which now lie
        # beyond z, and gains z.  No other cover a < b changes, as z lies
        # between a and b only for a far point a and a bound point b.  If a
        # is not maximal, it lies below a far point a', and a' < b, as a'
        # lies below every bound point and is none (a point of both sides
        # would be the missing join): a was no cover of b.  Dually when b
        # is not minimal.
        for side, mask, own in ((k, far, bound), (1 - k, bound, far)):
            mine = []  # z's covers on this side
            for t in _bits(mask):
                if cones[side][t] & mask == 1 << t:
                    mine.append(t)
                    old = moved[side].get(t)
                    if old is None:
                        old = [p._pos[c] for c in p_covers[side][els[t]]]
                    moved[side][t] = [c for c in old if not own >> c & 1] + [z]
                known[side].remove(cones[side][t])
                cones[side][t] |= 1 << z
                known[side].add(cones[side][t])
            moved[1 - side][z] = mine
            cones[side].append(own | 1 << z)
            known[side].add(own | 1 << z)
        # A pair whose closed cone misses z's has an empty bound, so only the
        # points on the far side of some point of z's cone are paired with z.
        for side in (0, 1):
            near = 0
            for t in _bits(cones[side][z]):
                near |= cones[1 - side][t]
            pairs = [
                (t, z) if keys[t] < keys[z] else (z, t) for t in _bits(near & ~(1 << z))
            ]
            for entry in defects(side, pairs):
                heapq.heappush(heap, entry)
    if len(els) == len(p):
        return p
    order = sorted(range(len(els)), key=keys.__getitem__)
    upper, lower = (
        {
            els[t]: (
                [els[c] for c in sorted(moved[side][t], key=keys.__getitem__)]
                if t in moved[side]
                else p_covers[side][els[t]]
            )
            for t in order
        }
        for side in (0, 1)
    )
    return _CoverPoset._from_covers(
        [els[t] for t in order],
        lower,
        upper,
        dict(p.colour),
        p.irrational.union(els[len(p) :]),
    )


# ---------------------------------------------------------------------------
# paths


# Most walks ``_paths`` takes off its stack in one search, as ``alt_rank``
# tries at most 200 000 candidates: the walks of an order that is not
# cycle-free can be exponential in number.
_MAX_PATH_STEPS = 200_000


def _paths(p: FinPoset, a, b) -> List[frozenset]:
    """Distinct path node-sets between ``a`` and ``b``, at most two:
    walks from ``a`` along covering pairs that repeat no node, whose turning
    points (``a``, each change of direction, then ``b``) are incomparable
    to every earlier turning point except the one just before.  Raises
    :class:`BudgetError` after ``_MAX_PATH_STEPS`` walks."""
    pos, up, down = p._pos, p._up, p._down

    def near(x):  # the positions comparable to x, x included
        i = pos[x]
        return up[i] | down[i] | 1 << i

    found, near_b = set(), near(b)
    # each entry: the node, its heading, the last turning point so far and
    # the bit mask of the turning points before that one
    stack = [(a, None, a, 0, frozenset({a}))]
    left = _MAX_PATH_STEPS
    while stack:
        if not left:
            raise BudgetError(
                f"path search budget of {_MAX_PATH_STEPS} walks exhausted"
            )
        left -= 1
        x, heading, last, earlier, seen = stack.pop()
        for step, cover in enumerate((p._upper, p._lower)):  # 0 goes up, 1 down
            if heading in (None, step):
                turn, before = last, earlier
            elif near(x) & earlier:
                continue
            else:
                turn, before = x, earlier | 1 << pos[last]
            for y in cover[x]:
                if y in seen:
                    continue
                if y != b:
                    stack.append((y, step, turn, before, seen | {y}))
                elif not near_b & before:
                    found.add(seen | {b})
                    if len(found) == 2:
                        return list(found)
    return list(found)


def path(p: FinPoset, a, b):
    """The unique path between ``a`` and ``b`` as a frozenset of nodes,
    ``AMBIGUOUS`` when several distinct paths exist, or None when the two
    points cannot be linked.  Run on the path completion.

    Points in different components of the Hasse diagram have no walk
    between them.  Inside a tree component the path is the one simple
    walk, read from the parent pointers of :func:`_forest_view`: in a
    Hasse forest, ``x < y`` exactly when the forest path from ``x`` to
    ``y`` only goes up (a saturated chain from ``x`` to ``y`` is such a
    path, and there is one).  So turning points of the walk that are not
    neighbours on it, whose forest path turns, are incomparable, and the
    walk's turning points form a connecting set.  Only inside a component
    with a cycle are walks searched (:func:`_paths`)."""
    _require(p, a, b)
    if a == b:
        return frozenset({a})
    parent, comp, _, cyclic = _forest_view(p)
    i, j = p._pos[a], p._pos[b]
    if comp[i] != comp[j]:
        return None
    if comp[i] in cyclic:
        ps = _paths(p, a, b)
        return None if not ps else AMBIGUOUS if len(ps) > 1 else ps[0]
    line = [i]  # a and its ancestors, up to the root
    while parent[line[-1]] >= 0:
        line.append(parent[line[-1]])
    at = {x: k for k, x in enumerate(line)}
    out = []  # b's ancestors below the first one on the line
    while j not in at:
        out.append(j)
        j = parent[j]
    return frozenset(p.elements[x] for x in out + line[: at[j] + 1])


def validate_cfpo(p: FinPoset):
    """Check that every pair of original points has at most one path in
    the path completion.  Returns ``(True, None)`` or ``(False, pair)``
    with the first offending pair in node order.  The completion's forest
    view (:func:`omegacat.posets._forest_view`) decides it; the pairs are
    searched only for the witness, and only inside a component whose
    diagram has a cycle: points in different components have no path, and
    points in a tree component have one."""
    # A path repeats no node, so in a forest two points have at most one.
    # Conversely, say the Hasse diagram of the completion q has a cycle;
    # take one with the fewest turning points, 2k.  Of its two arcs between
    # two turning points, the short one has at most k + 1 of them, ends
    # included.  A walk of the diagram with the same ends as a short arc
    # bounds, with it, a cycle from where the two part to where they next
    # meet, turning only there or where one of them turns.  So when k > 1:
    # (a) turning points that are not neighbours on the cycle are
    #     incomparable, or a saturated chain between them would bound a
    #     cycle with at most k + 1 < 2k turning points;
    # (b) no point lies above a peak t and a turning point c other than t
    #     and its valleys, or the saturated chains from t and c up to a
    #     minimal such point (one turn, and they meet only there) would
    #     bound one with the short arc from t to c, which leaves t down, so
    #     that t is no turn: at most k + 1 again.
    # Every point of q lies between original points: an added point lies
    # below its bound set and above the far side, both nonempty and made of
    # earlier points (dually for meets).  If k = 1, the cycle is two
    # saturated chains from its valley r to its peak t; extended by chains
    # down from r and up from t to original points, they are two paths.
    # If k > 1, the peaks t, t' next to a valley v are incomparable by (a),
    # so "t v t'" and the rest of the cycle are two paths, one through v.
    # Extend both by saturated chains up from t and t' to original points
    # s and s': by (a) and (b) the chains miss the cycle (each point on it
    # lies below a peak) and each other, and s, s' are incomparable to the
    # turning points that are not their neighbours, so the walks remain two
    # paths, between s and s'.  The search below runs only on invalid input.
    q = path_completion(p)
    _, comp, _, cyclic = _forest_view(q)
    if not cyclic:
        return True, None
    inside = [x for x in p.elements if comp[q._pos[x]] in cyclic]
    return False, next(
        (x, y)
        for x, y in itertools.combinations(inside, 2)
        if path(q, x, y) == AMBIGUOUS
    )


# ---------------------------------------------------------------------------
# the alternating zigzag and its rank


def alt(n: int, reversed: bool = False) -> FinPoset:
    """The alternating zigzag on points ``0..n-1``: odd points sit below
    both neighbours (peaks at even positions).  ``reversed`` flips the
    order, which changes the shape when ``n`` is finite."""
    if n < 1:
        raise ValueError("the zigzag needs at least one point")
    pairs = []
    for i in range(1, n, 2):
        pairs.append((i, i - 1))
        if i + 1 < n:
            pairs.append((i, i + 1))
    if reversed:
        pairs = [(b, a) for (a, b) in pairs]
    return FinPoset(list(range(n)), pairs)


def _zigzag(p: FinPoset, reversed: bool, left):
    """The first longest induced zigzag of one orientation that a
    depth-first search meets, as positions, and the budget left: a unit per
    candidate tried, negative if it ran out.  The search stops at once when
    a zigzag takes every point of ``p``.

    Position ``i`` takes, in node order, the points of image ``i - 1``'s
    cone (up for even ``i`` unless ``reversed``) that are incomparable to
    the images before it.  That reads only earlier positions, so prefixes
    of zigzags are zigzags, and the search for ``n`` points alone walks
    this tree cut at depth ``n`` in the same order: it returns the first
    ``n``-point zigzag met here, and tries the same candidates if
    ``n = len(p)``."""
    near = [u | d | 1 << i for i, (u, d) in enumerate(zip(p._up, p._down))]
    img, best = [], []
    # per position i: its untried candidates, and near's OR over images before i - 1
    stack = [(iter(range(len(p))), 0)]
    while stack:
        i = len(stack) - 1
        cands, before = stack[-1]
        for z in cands:
            left -= 1
            if left < 0:
                return best, left
            if not before >> z & 1:
                break
        else:
            stack.pop()
            continue
        del img[i:]
        img.append(z)
        if i == len(best):
            best = img[:]
            if i + 1 == len(p):
                break
        cone = p._up if (i % 2 == 1) != reversed else p._down
        stack.append((iter(_bits(cone[z])), before | near[img[i - 1]] if i else 0))
    return best, left


def _forest_rank(p: FinPoset, q: FinPoset) -> int:
    """The zigzag rank of ``p`` when the Hasse diagram of its path
    completion ``q`` is a forest: the most turning points, both ends
    counted, on a path of that forest between points of ``p`` (a single
    point counts 1).  In a Hasse forest ``x < y`` exactly when the forest
    path from ``x`` to ``y`` only goes up (see :func:`path`).

    A path gives a zigzag.  Take such a path with turning points
    ``t_1 .. t_k``.  Neighbours are joined by monotone runs, so they are
    comparable, alternately below and above; others are incomparable, as
    the forest path between them turns.  An added turning point, say a
    peak ``t``, lies below a point ``s`` of ``p`` (every point of ``q``
    lies between points of ``p``; see :func:`validate_cfpo`), and the
    forest path up from ``t`` to ``s`` leaves ``t`` by an upper cover,
    where the path leaves it by lower ones.  Put ``s`` for ``t`` (for a
    valley, a point of ``p`` below it).  The forest path between two new
    points is then the segment between the old ones with such a run added
    at an end, going on in the direction the segment arrives in, so it
    turns exactly where the segment turns strictly inside.  So the new
    points form a zigzag of ``q`` on points of ``p``, and of ``p``, whose
    order ``q`` extends: the rank is at least ``k``.

    A zigzag gives a path.  Take a zigzag ``z_1 .. z_k`` of ``p``,
    ``k >= 3`` (one point, or two comparable ones, span a path).  The
    forest paths ``P_i`` from ``z_i`` to ``z_{i+1}`` are monotone,
    alternately up and down.  For ``1 < i < k`` let ``w_i`` be the last
    point, going out from ``z_i``, that ``P_{i-1}`` and ``P_i`` share, and
    let ``w_1 = z_1``, ``w_k = z_k``.  Along ``P_i``, ``w_i`` comes before
    ``w_{i+1}``: a point of ``P_i`` on both ``P_{i-1}`` and ``P_{i+1}``
    would lie above ``z_{i-1}`` and below ``z_{i+2}`` (or dually), which
    are incomparable, and ``w_2`` is comparable to ``z_3``, which ``z_1``
    is not (dually at the other end).  So the runs from ``w_i`` to
    ``w_{i+1}`` along ``P_i`` form a walk that changes direction at every
    inner ``w_i`` and, by the choice of ``w_i``, never steps back along the
    edge it came by.  In a forest such a walk repeats no node: it is the
    forest path from ``z_1`` to ``z_k``, and it has ``k`` turning points.

    One pass finds the most.  Root each tree at its breadth-first root
    (:func:`omegacat.posets._forest_view`).  ``half[x][d]`` is the most
    turning points, ``x`` not counted, on a path to ``x`` from a point of
    ``p`` among ``x`` and its descendants whose last step goes up
    (``d = 0``) or down (``d = 1``): 0 both ways at a point of ``p``, for
    the path of that point alone, and minus infinity at an added point
    until a child reaches it.  In reverse breadth-first order each point
    comes after its children.  A child ``c`` that steps to its parent
    ``v`` in direction ``d`` carries ``g``: its best half-path going on in
    direction ``d``, or turning at ``c``, which then counts (as does ``c``
    when the path starts there).  Joined at ``v`` with the half-path of an
    earlier child that arrived in direction ``e``, the path turns at ``v``
    exactly when ``e = d``, both arriving from the same side; a point of
    ``p`` ends the path there by its 0 for ``e = d``.  Every path has one
    point nearest the root, where its two halves are joined, so the pass
    meets each path's count."""
    parent, _, order, _ = _forest_view(q)
    els, upper = q.elements, q._upper
    missing = float("-inf")
    half = [[0, 0] if x in p else [missing, missing] for x in q.elements]
    best = 1
    for c in reversed(order):
        v = parent[c]
        if v >= 0:
            # v, a forest neighbour of c, lies above c iff it covers c
            d = 0 if els[v] in upper[els[c]] else 1
            g = max(half[c][d], half[c][1 - d] + 1)
            best = max(best, g + half[v][d] + 1, g + half[v][1 - d])
            half[v][d] = max(half[v][d], g)
    return best


def alt_rank(p: FinPoset, budget: int = 200_000) -> int:
    """Largest ``n`` such that the zigzag on ``n`` points (in either
    orientation) embeds into ``p``.  Raises ValueError on the empty order.

    When the Hasse diagram of the path completion is a forest, one pass
    over it gives the rank exactly (:func:`_forest_rank`).  Otherwise,
    and when the completion runs out of points to add, a search runs and
    raises BudgetError (reporting the longest zigzag found so far) when
    its budget runs out.  Its two searches share the budget, trying at
    most the candidates of those for ``n + 1`` points alone."""
    if len(p) == 0:
        raise ValueError("the empty order has no zigzag rank")
    try:
        q = path_completion(p)
    except BudgetError:
        q = None
    if q is not None and not _forest_view(q)[3]:
        return _forest_rank(p, q)
    n, left = 1, budget
    for reversed in (False, True):
        if n < len(p):  # the reversed search is skipped once n = len(p)
            best, left = _zigzag(p, reversed, left)
            n = max(n, len(best))
            if left < 0:
                raise BudgetError(
                    f"zigzag-rank search budget exhausted; best lower bound {n}"
                )
    return n
