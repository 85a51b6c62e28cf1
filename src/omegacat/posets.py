"""Finite labelled posets, their order queries, and brute-force oracles.

A :class:`FinPoset` stores a finite strict order, transitively closed, with
two optional node labels: a colour tag and an "irrational" flag.  It keeps
each element's strict down- and up-set, as int bit masks over element
positions, and its covers in each direction.  One routine,
:func:`_masks`, builds the masks of every poset, from any generating
relation: one Kahn order (Kahn 1962) and one OR sweep each way.  Only the
public constructor, and so :func:`load_poset`, builds them at once; a
sample or a path completion holds only its covers and builds its masks
when a query first reads them.  The queries on samples read covers
alone: the file format and DOT output, tree validation, the tree view
and maximal chains.  Tree validation of an order that is no tree, the
path completion, path search and zigzags of :mod:`omegacat.cfpo`, and the
oracles read the masks.

The reference oracles are deliberately brute force and deterministic:
exhaustive automorphism and orbit enumeration by backtracking
(``_search``/``_extend``, :func:`automorphisms`, :func:`orbits`).  The
fast paths elsewhere are tested against them, so they stay simple rather
than fast.  Default budgets (12 nodes for the automorphism search, 10**6
tuples for orbit enumeration) keep their worst cases at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import (
    BudgetError,
    CycleError,
    NotATreeError,
    ParseError,
)

__all__ = [
    "AUT_NODE_BOUND",
    "ORBIT_TUPLE_BUDGET",
    "node_key",
    "FinPoset",
    "OrbitReport",
    "automorphisms",
    "orbits",
    "covers",
    "maximal_chains",
    "load_poset",
    "dump_poset",
    "to_dot",
]

AUT_NODE_BOUND = 12
ORBIT_TUPLE_BUDGET = 10**6


def node_key(x):
    """Total order on node ids: ints first (numeric), then strings."""
    if isinstance(x, bool):  # bools are ints; keep them out of surprises
        return (0, int(x), "")
    if isinstance(x, int):
        return (0, x, "")
    return (1, 0, str(x))


_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _bits(mask) -> list:
    """Positions of the set bits of ``mask``, lowest first.

    With under one bit in eight set, one C-level ``find`` per set bit is
    cheaper; above that, ``compress`` reads every bit position in C.
    """
    digits = bin(mask)[:1:-1]
    if mask.bit_count() * 8 < len(digits):
        out, i = [], digits.find("1")
        while i >= 0:
            out.append(i)
            i = digits.find("1", i + 1)
        return out
    return list(itertools.compress(range(len(digits)), digits.encode().translate(_DIGITS)))


def _components(succ):
    """Each position's strongly connected component over ``succ``, numbered
    in topological order: an edge ``x -> y`` has ``comp[x] <= comp[y]``.

    One Kosaraju pass (Sharir 1981): a depth-first search over ``succ``
    lists the positions by finish time; searches over the reversed edges,
    started in reverse finish order, then each collect one component, a
    source of what is left first.
    """
    pred = [[] for _ in succ]
    for x, ys in enumerate(succ):
        for y in ys:
            pred[y].append(x)
    finished, seen = [], [False] * len(succ)
    for start in range(len(succ)):
        if seen[start]:
            continue
        seen[start] = True
        stack = [(start, iter(succ[start]))]
        while stack:
            x, kids = stack[-1]
            for y in kids:
                if not seen[y]:
                    seen[y] = True
                    stack.append((y, iter(succ[y])))
                    break
            else:
                stack.pop()
                finished.append(x)
    comp = [None] * len(succ)
    k = 0
    for root in reversed(finished):
        if comp[root] is None:
            comp[root] = k
            todo = [root]
            while todo:
                for y in pred[todo.pop()]:
                    if comp[y] is None:
                        comp[y] = k
                        todo.append(y)
            k += 1
    return comp


def _first_on_cycle(succ):
    """The first position, in node order, that can reach itself: the least
    position of a strongly connected component with an edge inside it."""
    comp = _components(succ)
    cyclic = {comp[x] for x, ys in enumerate(succ) for y in ys if comp[y] == comp[x]}
    return next(x for x in range(len(succ)) if comp[x] in cyclic)


def _masks(els, succ, pred) -> tuple:
    """``(down, up)``: the strict down- and up-set, as a bit mask over
    positions, of every position of ``succ``, any relation whose transitive
    closure is the order; ``pred`` lists its edges reversed, and ``els``
    names the positions.

    A position's strict down-set is the OR of ``down[c] | 1 << c`` over its
    predecessors ``c``, and dually for up-sets.  So Kahn's pass, which puts
    a position in the order once all its predecessors are, pushes each
    closed down-set to the successors as it goes; a position with one
    predecessor keeps the pushed int, shared with its siblings.  One pull
    against that order builds the up-sets.  A position the order misses
    lies on a cycle or above one: that raises :class:`CycleError`.
    """
    n = len(els)
    order, x = [], -1
    for _ in range(pred.count([])):  # the roots, each found by a scan in C
        x = pred.index([], x + 1)
        order.append(x)
    # the positions waiting for two or more predecessors, each with the
    # number of them not yet in the order
    waiting = {}
    if sum(map(len, pred)) > n - len(order):  # more edges than non-roots
        waiting = {x: len(ps) for x, ps in enumerate(pred) if len(ps) > 1}
    down = [0] * n
    for x in order:  # the list grows as it is read
        kids = succ[x]
        if kids:
            closed = down[x] | 1 << x
            if waiting and not waiting.keys().isdisjoint(kids):
                for c in kids:
                    if c in waiting:
                        down[c] |= closed
                        waiting[c] -= 1
                        if waiting[c]:
                            continue
                        del waiting[c]
                    else:
                        down[c] = closed
                    order.append(c)
            else:
                for c in kids:
                    down[c] = closed
                order += kids
    if len(order) < n:
        raise CycleError(f"cycle through node {els[_first_on_cycle(succ)]!r}")
    up = [0] * n
    for x in reversed(order):
        kids = succ[x]
        if kids:
            reach = 0
            for c in kids:  # most have one: skip the OR with 0
                reach = reach | up[c] | 1 << c if reach else up[c] | 1 << c
            up[x] = reach
    return down, up


def _cover_lists(els, succ, cone) -> dict:
    """Each node's covers in the direction of ``succ`` as a list in node
    order: the successors outside every other successor's strict mask in
    ``cone``, each once."""
    out = {}
    for x, kids in zip(els, succ):
        if len(kids) == 1:  # most nodes of a sparse order
            out[x] = [els[kids[0]]]
        elif kids:
            reach = 0
            for c in kids:
                reach |= cone[c]
            out[x] = [els[c] for c in sorted(set(kids)) if not reach >> c & 1]
        else:
            out[x] = []
    return out


class FinPoset:
    """A finite strict partial order with optional colour/irrational labels.

    ``pairs`` may be any relation whose transitive closure is the order,
    such as its covering pairs.  Elements are kept in a canonical sorted
    order.  The order is stored once per direction, as strict down- and
    up-sets, each an int bit mask over element positions built by
    :func:`_masks`, which rejects cycles, with the covers in each
    direction, each list in node order.  ``down``/``up`` decode a mask on
    each call, and ``lt``, the set of all strict pairs, is built on each
    access; they serve tests and oracles, not hot paths.

    Only the public constructor builds the masks at once.  The private
    builders set every other field with :meth:`_from_covers` and return a
    :class:`_CoverPoset`, which builds the masks on the first read of
    either, so a query that walks only the covers never builds them:
    :meth:`_from_forest` takes a parent array, as
    :func:`omegacat.trees.materialize_tree` builds it,
    :func:`omegacat.terms.materialize` gives the covers of a chain in
    closed form, and :func:`omegacat.cfpo.path_completion` keeps the covers
    of its completion.
    """

    # _pos: node -> bit position; _down/_up: strict masks; _lower/_upper: covers;
    # _tree, _forest: _tree_view's and _forest_view's results, safe to keep
    # as nothing writes the order or the labels
    __slots__ = (
        "elements", "colour", "irrational", "_pos", "_down", "_up", "_lower", "_upper",
        "_tree", "_forest",
    )

    def __init__(
        self,
        elements: Iterable,
        pairs: Iterable[tuple],
        colour: Mapping | None = None,
        irrational: Iterable | None = None,
    ):
        nodes = set(elements)
        # node_key orders a set of only ints (no bools) or only strs as
        # plain comparison does, which sorts without a key per node
        kinds = set(map(type, nodes))
        els = sorted(nodes, key=None if kinds in ({int}, {str}) else node_key)
        pos = {x: i for i, x in enumerate(els)}
        succ = [[] for _ in els]
        pred = [[] for _ in els]
        for a, b in pairs:
            if a not in pos or b not in pos:
                raise ParseError(f"edge references unknown node {a!r} or {b!r}")
            succ[pos[a]].append(pos[b])
            pred[pos[b]].append(pos[a])
        self._down, self._up = _masks(els, succ, pred)
        self._lower = _cover_lists(els, pred, self._down)
        self._upper = _cover_lists(els, succ, self._up)
        self.elements = tuple(els)
        self._pos = pos
        self._tree = self._forest = None
        self.colour = dict(colour or {})
        self.irrational = frozenset(irrational or ())
        for x in self.colour:
            if x not in pos:
                raise ParseError(f"colour given for unknown node {x!r}")
        for x in self.irrational:
            if x not in pos:
                raise ParseError(f"irrational flag for unknown node {x!r}")

    @classmethod
    def _from_covers(
        cls, elements: Sequence, lower: dict, upper: dict, colour: dict, irrational: frozenset
    ) -> "FinPoset":
        """The poset over ``elements``, in node order, whose covers are
        ``lower`` and ``upper``, node -> list of covers in node order, with
        its masks left unset.  The dicts and labels are kept, not copied.
        The covers must be those of an order; nothing is checked."""
        p = cls.__new__(cls)
        p.elements = tuple(elements)
        p._pos = dict(zip(p.elements, range(len(p.elements))))
        p._lower, p._upper = lower, upper
        p._tree = p._forest = None
        p.colour, p.irrational = colour, irrational
        return p

    @staticmethod
    def _from_forest(
        parent: Sequence[int],
        colour: dict | None = None,
        irrational: frozenset = frozenset(),
    ) -> "_CoverPoset":
        """The forest over positions ``0..n-1`` in which ``parent[v]`` is the
        lower cover of ``v``, or -1 for a root, as a :class:`_CoverPoset`:
        its covers are each point's parent, if any, and its children, and
        its masks are built on first read, equal field for field then to
        ``FinPoset(range(n), [(parent[v], v) ...], colour, irrational)``.

        A cycle of ``parent`` leaves points that no walk from the roots up
        the child lists reaches, and raises :class:`CycleError` as the
        public constructor does.  The labels must name positions; they are
        kept, not copied, and not checked.
        """
        n = len(parent)
        kids: list = [[] for _ in range(n + 1)]
        for v, u in enumerate(parent):
            kids[u].append(v)  # a root's -1 picks the spare last list
        lower = [[u] for u in parent]
        reached = kids.pop()
        for v in reached:
            lower[v] = []
        for v in reached:  # the list grows as it is read
            if kids[v]:
                reached += kids[v]
        if len(reached) < n:
            raise CycleError(f"cycle through node {_first_on_cycle(kids)!r}")
        return _CoverPoset._from_covers(
            range(n),
            dict(enumerate(lower)),
            dict(enumerate(kids)),
            {} if colour is None else colour,
            irrational,
        )

    def _decode(self, mask) -> list:
        """The nodes whose bits are set in ``mask``, in node order."""
        return [self.elements[i] for i in _bits(mask)]

    @property
    def lt(self) -> frozenset:
        """All strict pairs ``(a, b)`` with ``a < b``, built on each access."""
        return frozenset((a, b) for a in self.elements for b in self.up(a))

    # -- basic queries -----------------------------------------------------

    def __contains__(self, x) -> bool:
        return x in self._pos

    def less(self, a, b) -> bool:
        try:
            return self._up[self._pos[a]] >> self._pos[b] & 1 == 1
        except KeyError:  # a node not in the order
            return False

    def down(self, x) -> frozenset:
        """Strict lower set of ``x``."""
        return frozenset(self._decode(self._down[self._pos[x]]))

    def up(self, x) -> frozenset:
        """Strict upper set of ``x``."""
        return frozenset(self._decode(self._up[self._pos[x]]))

    def label(self, x) -> tuple:
        return (self.colour.get(x), x in self.irrational)

    def restrict(self, keep: Iterable) -> "FinPoset":
        keep = set(keep)
        return FinPoset(
            keep,
            [(a, b) for a in self.elements if a in keep for b in self.up(a) & keep],
            colour={x: c for x, c in self.colour.items() if x in keep},
            irrational=self.irrational & keep,
        )

    def __len__(self):
        return len(self.elements)

    def __repr__(self):  # read from the covers: a sample's masks stay unbuilt
        pairs = sum(map(len, self._upper.values()))
        return f"FinPoset({len(self.elements)} nodes, {pairs} covering pairs)"


class _CoverPoset(FinPoset):
    """A poset that holds only its covers, as a sample or a path completion
    does, built by :meth:`FinPoset._from_covers`; its masks are built on
    first read, equal field for field to the public constructor on its
    covers once they are.

    Only an unset slot falls through to ``__getattr__``, so later reads
    find the masks stored.  This is a subclass because a class that
    defines ``__getattr__`` loses the interpreter's fast path for every
    attribute read: on ``FinPoset`` itself it made each attribute read of
    every poset slower.
    """

    __slots__ = ()

    def __getattr__(self, name):
        """Build ``_down`` and ``_up`` with :func:`_masks` over the covers
        when either is first read."""
        if name not in ("_down", "_up"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        els, pos = self.elements, self._pos
        succ = [[pos[c] for c in self._upper[x]] for x in els]
        pred = [[pos[c] for c in self._lower[x]] for x in els]
        self._down, self._up = _masks(els, succ, pred)
        return self._down if name == "_down" else self._up


# -------------------------------------------------------------- validation


def _forks(p: FinPoset, covers: Mapping) -> int:
    """The positions, as a bit mask, of the points with two or more covers
    in ``covers`` (``p._lower`` or ``p._upper``).  A closed cone in that
    direction is a chain exactly when none of its members is such a fork:
    from a point with at most one cover at each step, every point beyond is
    reached along that one run of covers."""
    return sum(1 << t for t, x in enumerate(p.elements) if len(covers[x]) > 1)


def _tree_violations(p: FinPoset):
    """The violations of the two tree axioms, found lazily, so that callers
    needing only the first stop there: axiom 1 (downward linearity), any
    two elements below a common element are comparable; axiom 2, any two
    elements have a common lower bound."""
    els, lower = p.elements, p._lower
    # only nodes at or above a fork of lower covers have a closed down-set
    # that is not a chain, so only they can fail axiom 1; a forest, with no
    # such fork, is cleared by one count of the covers in C
    if max(map(len, lower.values()), default=0) > 1:
        up, down = p._up, p._down
        forks = _forks(p, lower)
        for z in range(len(els)):
            below = down[z] | 1 << z
            if below & forks:
                for x, y in itertools.combinations(_bits(below), 2):
                    if not (up[x] | down[x]) >> y & 1:
                        yield ("down-linearity", (els[x], els[y], els[z]))
    # a single minimal element, one with no lower cover, is a common lower
    # bound of every pair
    if list(lower.values()).count([]) != 1:
        down = p._down
        for x, y in itertools.combinations(range(len(els)), 2):
            if not (down[x] | 1 << x) & (down[y] | 1 << y):
                yield ("common-lower-bound", (els[x], els[y]))


def _tree_view(p: FinPoset) -> tuple:
    """``(depth, order, code, kids)`` of the tree ``p``, built once: each
    point's depth, the size of its strict down-set, counted by a walk up
    the covers from the root, so that a sample's masks are never built;
    the points by depth and then in node order; each point's
    Aho-Hopcroft-Ullman code over (label, sorted child codes), equal
    exactly for isomorphic labelled subtrees; and each point's children
    sorted by code, in node order within one code.
    Raises :class:`NotATreeError`, naming the first violation, on a
    non-tree."""
    if p._tree is None:
        violation = next(_tree_violations(p), None)
        if violation is not None:
            raise NotATreeError(f"not a tree: {violation}")
        colour, irrational, upper = p.colour, p.irrational, p._upper
        # a walk up from the root, the one point with no lower cover: each
        # point's children lie one above it
        lower = p._lower
        depth = dict.fromkeys(p.elements, 0)
        walk = [next(x for x in p.elements if not lower[x])] if p.elements else []
        for v in walk:  # the list grows as it is read
            cs = upper[v]
            if cs:
                d = depth[v] + 1
                for c in cs:
                    depth[c] = d
                walk += cs
        order = sorted(p.elements, key=depth.__getitem__)
        code: dict = {}
        kids: dict = {}
        ids: dict = {}
        for v in reversed(order):
            cs = upper[v]
            # a stable sort of two or more covers, which are in node order;
            # fewer are kept as the cover list itself, as nothing writes
            # the cover lists or these child lists, and their codes are
            # read with no call: most points have one child or none
            if len(cs) > 1:
                cs = sorted(cs, key=code.__getitem__)
                below = tuple(map(code.__getitem__, cs))
            elif cs:
                below = (code[cs[0]],)
            else:
                below = ()
            kids[v] = cs
            code[v] = ids.setdefault((colour.get(v), v in irrational, below), len(ids))
        p._tree = depth, order, code, kids
    return p._tree


def _forest_view(p: FinPoset) -> tuple:
    """``(parent, comp, order, cyclic)`` of the Hasse diagram of ``p``,
    covers taken in both directions, built once: each position's parent in
    a breadth-first search from the least position of its component (-1
    at that root), its component as that root, the positions in the
    order the search reached them, each after its parent, and the set of
    components that hold a cycle.  A cover that reaches a point already
    seen, other than the parent, closes a cycle: a tree component has only
    the covers the search followed."""
    if p._forest is None:
        els, pos = p.elements, p._pos
        parent, comp, order, cyclic = [-1] * len(els), [-1] * len(els), [], set()
        for root in range(len(els)):
            if comp[root] < 0:
                comp[root], queue = root, [root]
                for x in queue:  # breadth first: the list grows as it is read
                    for y in p._upper[els[x]] + p._lower[els[x]]:
                        j = pos[y]
                        if comp[j] < 0:
                            comp[j], parent[j] = root, x
                            queue.append(j)
                        elif j != parent[x]:
                            cyclic.add(root)
                order += queue
        p._forest = parent, comp, order, cyclic
    return p._forest


# -------------------------------------------------------------- search core


def _signature(p: FinPoset, x, invariants):
    sig = (p.colour.get(x), x in p.irrational, len(p.down(x)), len(p.up(x)))
    if invariants is not None:
        sig = sig + (invariants.get(x),)
    return sig


def _extend(p: FinPoset, q: FinPoset, order, images, sigs_q, sig_x, find_all, out):
    """Backtracking over maps of ``order`` into ``images`` that keep the
    signatures and the order both ways: append each to ``out``, stopping at
    the first unless ``find_all``.  The stack holds one iterator of untried
    images per point of ``order`` assigned so far, plus one."""
    assigned: dict = {}
    used: set = set()
    stack = [iter(images)]
    while stack:
        k = len(stack) - 1
        if k == len(order):
            out.append(dict(assigned))
            if not find_all:
                return
        else:
            x = order[k]
            for y in stack[-1]:
                if y not in used and sigs_q[y] == sig_x[x] and all(
                    p.less(u, x) == q.less(v, y) and p.less(x, u) == q.less(y, v)
                    for u, v in assigned.items()
                ):
                    assigned[x] = y
                    used.add(y)
                    stack.append(iter(images))
                    break
            if len(stack) > k + 1:
                continue
        stack.pop()
        if assigned:
            used.discard(assigned.popitem()[1])


def _search(p: FinPoset, q: FinPoset, find_all: bool, invariants_p=None, invariants_q=None):
    if len(p) != len(q):
        return []
    sig_p = {x: _signature(p, x, invariants_p) for x in p.elements}
    sig_q = {y: _signature(q, y, invariants_q) for y in q.elements}
    if sorted(sig_p.values(), key=repr) != sorted(sig_q.values(), key=repr):
        return []
    # most-constrained-first ordering: rare signatures first, then node id
    freq: dict = {}
    for s in sig_p.values():
        freq[s] = freq.get(s, 0) + 1
    order = sorted(p.elements, key=lambda x: (freq[sig_p[x]], node_key(x)))
    out: list = []
    _extend(p, q, order, q.elements, sig_q, sig_p, find_all, out)
    return out


def automorphisms(p: FinPoset, bound: int = AUT_NODE_BOUND, invariants=None) -> list:
    """All label- and order-preserving permutations, canonically sorted.

    ``invariants`` may map nodes to extra hashable labels that automorphisms
    must additionally preserve.  Raises BudgetError beyond ``bound`` nodes,
    and ValueError when ``bound`` is negative.
    """
    if bound < 0:
        raise ValueError("the node bound must be >= 0")
    if len(p) > bound:
        raise BudgetError(f"automorphism search limited to {bound} nodes, got {len(p)}")
    maps = _search(p, p, find_all=True, invariants_p=invariants, invariants_q=invariants)
    maps.sort(key=lambda f: tuple(node_key(f[x]) for x in p.elements))
    return maps


@dataclass(frozen=True)
class OrbitReport:
    arity: int
    orbits: tuple  # tuple of orbits; each orbit a sorted tuple of tuples
    count: int


def orbits(p: FinPoset, n: int, budget: int = ORBIT_TUPLE_BUDGET, bound: int = AUT_NODE_BOUND) -> OrbitReport:
    """Exhaustive n-tuple orbits under the full automorphism group.  Raises
    ValueError when ``n`` is negative."""
    if n < 0:
        raise ValueError("the tuple length n must be >= 0")
    total = len(p) ** n
    if total > budget:
        raise BudgetError(f"{total} tuples exceed budget {budget}")
    auts = automorphisms(p, bound=bound)
    seen = set()
    orbs = []
    for tup in itertools.product(p.elements, repeat=n):
        if tup in seen:
            continue
        orbit = {tuple(f[x] for x in tup) for f in auts}
        seen |= orbit
        orbs.append(tuple(sorted(orbit, key=lambda t: tuple(node_key(x) for x in t))))
    orbs.sort(key=lambda o: tuple(node_key(x) for x in o[0]))
    return OrbitReport(arity=n, orbits=tuple(orbs), count=len(orbs))


# -------------------------------------------------------------- chains


def covers(p: FinPoset) -> tuple:
    """The covering (Hasse) relation, sorted: ``b`` covers ``a`` when
    nothing lies strictly between.  Reads the covers that the constructor
    stored."""
    return tuple((a, b) for a in p.elements for b in p._upper[a])


def maximal_chains(p: FinPoset) -> tuple:
    """All maximal chains, each as a tuple from bottom to top, sorted."""
    chains = []
    for m in p.elements:
        if p._lower[m]:
            continue
        # depth-first along upper covers: walks[i] runs over those of chain[i]
        chain, walks = [m], [iter(p._upper[m])]
        while walks:
            for y in walks[-1]:
                chain.append(y)
                walks.append(iter(p._upper[y]))
                break
            else:
                walks.pop()
                if not p._upper[chain[-1]]:
                    chains.append(tuple(chain))
                chain.pop()
    chains.sort(key=lambda c: tuple(node_key(x) for x in c))
    return tuple(chains)


# -------------------------------------------------------------- file format


def load_poset(text: str) -> FinPoset:
    """Parse the line-based poset format.

    ``node <id> [colour=<tag>] [irrational]`` declares a node;
    ``edge <a> <b>`` declares a covering pair a < b.  '#' starts a comment.
    """
    nodes: set = set()
    colour: dict = {}
    irrational: set = set()
    edges: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "node":
            if len(parts) < 2:
                raise ParseError("node line needs an id", lineno)
            name = parts[1]
            if name in nodes:
                raise ParseError(f"duplicate node {name!r}", lineno)
            nodes.add(name)
            for opt in parts[2:]:
                if opt == "irrational":
                    irrational.add(name)
                elif opt.startswith("colour="):
                    colour[name] = opt.split("=", 1)[1]
                else:
                    raise ParseError(f"unknown node option {opt!r}", lineno)
        elif parts[0] == "edge":
            if len(parts) != 3:
                raise ParseError("edge line needs exactly two node ids", lineno)
            a, b = parts[1], parts[2]
            if a not in nodes or b not in nodes:
                raise ParseError(f"edge uses undeclared node {a!r} or {b!r}", lineno)
            edges.append((a, b))
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    return FinPoset(nodes, edges, colour=colour, irrational=irrational)


def dump_poset(p: FinPoset) -> str:
    """The poset-file text of ``p``: its nodes in node order, each with its
    labels, then its covering edges as :func:`covers` lists them."""
    colour, irrational, upper = p.colour, p.irrational, p._upper
    lines = [
        f"node {x}{f' colour={colour[x]}' if x in colour else ''}"
        f"{' irrational' if x in irrational else ''}"
        for x in p.elements
    ]
    lines += [f"edge {a} {b}" for a in p.elements for b in upper[a]]
    return "\n".join(lines) + "\n"


def _dot_quote(s: str) -> str:
    return '"' + str(s).replace('"', '\\"') + '"'


def to_dot(p: FinPoset, name: str = "poset") -> str:
    """DOT digraph over the covering relation; irrational nodes dashed."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for x in p.elements:
        attrs = []
        label = str(x)
        if x in p.colour:
            label += f":{p.colour[x]}"
        attrs.append(f"label={_dot_quote(label)}")
        if x in p.irrational:
            attrs.append("style=dashed")
        lines.append(f"  {_dot_quote(x)} [{', '.join(attrs)}];")
    for a, b in covers(p):
        lines.append(f"  {_dot_quote(a)} -> {_dot_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
