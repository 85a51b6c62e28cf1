"""Seeded input generators for the four workloads.

Each generator writes its input files into a work directory and returns
the operations of one round: the CLI arguments of each call and the check
its output must pass.  The same seed gives the same files and the same
operations.

Runs with different seeds must do comparable work, because the metrics of
runs with different seeds are compared.  So the make-up of a round (sizes,
counts, classes) is fixed, and where the cost of an operation depends
steeply on the shape of its input (spec attachment graphs, poset trees),
that shape is drawn from a stream of its own per slot, the same for every
seed.  The shape includes what sets the program's search order: the
sample seed of a tree sample and the node ids of a poset.  The seed draws
the rest: colours, definition names, respellings, terms and queries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import checks as C
from checks import INF, Att, Spec


@dataclass
class Op:
    kind: str
    argv: List[str]
    check: Callable[[int, str], object]


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _t(tag):
    return ("t", tag)


def _cat(*parts):
    return ("c", tuple(parts))


def _q(*tags_):
    return ("q", tuple(_t(x) for x in sorted(tags_)))


# ---------------------------------------------------------------------------
# verdicts

_COLOURS = ("1", "a", "b", "c", "d")


def _finite_spine(rng: random.Random):
    word = [rng.choice(_COLOURS) for _ in range(rng.randint(1, 3))]
    return _t(word[0]) if len(word) == 1 else _cat(*map(_t, word))


def _infinite_spine(rng: random.Random):
    x, y, z = rng.sample(_COLOURS, 3)
    shape = rng.randrange(7)
    if shape == 0:
        return _q(x)
    if shape == 1:
        return _q(x, y)
    if shape == 2:
        return _cat(_q(x), _t(y))
    if shape == 3:
        return _cat(_t(y), _q(x))
    if shape == 4:
        return _cat(_q(x), _q(y))
    if shape == 5:
        return _cat(_q(x), _t(y), _q(z))
    return _cat(_q(x, y), _t(z))


def _sites(spine) -> List[str]:
    """Attachment sites of a normal-form spine, leaving out cut sites that
    sit right above a single point (the parser rewrites those with a
    warning on stderr)."""
    fs = C.spine_factors(spine)
    out = [f"orbit {i}" for i in range(C.min_size(spine))]
    out += [f"cut {j}" for j in range(len(fs) - 1) if fs[j][0] == "q"]
    if fs[-1][0] == "q":
        out.append("top")
    return out


def _shape_rng(*slot) -> random.Random:
    """The shape stream of one slot of a round (string seeds are hashed
    with SHA-512, so this does not depend on ``PYTHONHASHSEED``)."""
    return random.Random(":".join(map(str, slot)))


def _recolour(t, perm: Dict[str, str]):
    """The term with every tag renamed by the bijection ``perm``; shuffle
    constituents are re-sorted, so the result is again in normal form."""
    kind, body = t
    if kind == "t":
        return _t(perm[body])
    if kind == "q":
        return _q(*(perm[c[1]] for c in body))
    return _cat(*(_recolour(p, perm) for p in body))


def _mult(rng: random.Random):
    return rng.choice((1, 1, 2, 3, INF))


def _spec(rng: random.Random, klass: str, ndefs: int, names: List[str]) -> Spec:
    """A spec of ``ndefs`` definitions, every one reachable from the first.
    ``acyclic``: attachments only point forward.  ``fincycle``: the first
    ``L`` definitions have finite spines and form a cycle.  ``shufcycle``:
    the same, but the first definition on the cycle has an infinite spine."""
    while True:
        spec = _draw_spec(rng, klass, ndefs, names)
        if C.reachable(spec) == set(spec.defs):
            return spec


def _draw_spec(rng, klass, ndefs, names) -> Spec:
    cyc = 0 if klass == "acyclic" else rng.randint(1, ndefs)
    spines = []
    for i in range(ndefs):
        if i < cyc and klass == "fincycle":
            spines.append(_finite_spine(rng))
        elif i == 0 and klass == "shufcycle":
            spines.append(_infinite_spine(rng))
        else:
            spines.append(
                _finite_spine(rng) if rng.random() < 0.4 else _infinite_spine(rng)
            )
    edges: List[Tuple[int, int]] = []
    for j in range(1, ndefs):
        edges.append((rng.randrange(j), j))
    if cyc:
        edges += [(i, i + 1) for i in range(cyc - 1)] + [(cyc - 1, 0)]
    for _ in range(rng.randint(0, 1)):
        i = rng.randrange(ndefs)
        if i + 1 < ndefs:
            edges.append((i, rng.randrange(i + 1, ndefs)))
    atts: Dict[int, List[Att]] = {i: [] for i in range(ndefs)}
    for i, j in edges:
        used = {(a.site, a.child) for a in atts[i]}
        free = [s for s in _sites(spines[i]) if (s, names[j]) not in used]
        if free and len(atts[i]) < 3:
            atts[i].append(Att(rng.choice(free), _mult(rng), names[j]))
    defs = {names[i]: (spines[i], tuple(atts[i])) for i in range(ndefs)}
    return Spec(defs, names[0])


def _respelt(spec: Spec, rng: random.Random, names: List[str]) -> Spec:
    """The same spec under new definition names, with a ``root`` line, the
    definitions in another order and ``Q(1)`` respelt as ``Q(1,1)`` or
    ``Q(1)^Q(1)``."""
    old = list(spec.defs)
    new = dict(zip(old, rng.sample(names, len(old))))
    order = old[:]
    rng.shuffle(order)
    defs, text = {}, {}
    for name in order:
        spine, atts = spec.defs[name]
        defs[new[name]] = (
            spine,
            tuple(Att(a.site, a.mult, new[a.child]) for a in atts),
        )
        spelt = C.render(spine)
        if "Q(1)" in spelt:
            spelt = spelt.replace("Q(1)", rng.choice(("Q(1,1)", "Q(1)^Q(1)")), 1)
        text[new[name]] = spelt
    return Spec(defs, new[spec.root], root_line=True, spine_text=text)


# Hand catalogue: spec text, expected ``tree check`` output, expected
# ``tree chains`` output.  Derived by hand from the definitions in the
# project README.
_YES = (
    "categorical: yes\n"
    "condition finite-ramification: pass\n"
    "condition chains-categorical: pass\n"
    "condition finite-chain-family: pass\n"
)
CATALOGUE = [
    ("dense", "T = spine Q(1) with omega x T at orbit 0\n", _YES, "[Q(1)]\n"),
    (
        "omega",
        "T = spine 1 with omega x T at orbit 0\n",
        "categorical: no — chain [] * [1] w is not a term\n"
        "condition finite-ramification: fail witness [] * [1] w\n"
        "condition chains-categorical: fail witness [] * [1] w\n"
        "condition finite-chain-family: pass\n",
        "[] * [1] w\n",
    ),
    ("Q1", "T = spine Q(1)\n", _YES, "[Q(1)]\n"),
    ("V", "R = spine 1 with 2 x L at orbit 0\nL = spine 1\n", _YES, "[1^1]\n"),
    ("coloured", "T = spine Q(a,b)^c\n", _YES, "[Q(a,b), c]\n"),
    ("coloured-shuffle", "T = spine a^Q(b)^c\n", _YES, "[a, Q(b), c]\n"),
    (
        "cut-top",
        "T = spine Q(1) with 2 x L at top\nL = spine 1\n",
        _YES,
        "[Q(1), I^1]\n",
    ),
    (
        "cut-inner",
        "T = spine Q(a)^Q(b) with omega x L at cut 0\nL = spine c\n",
        _YES,
        "[Q(a), I, Q(b)]\n[Q(a), I^c]\n",
    ),
]

_NAMES = ["A", "B", "C", "D", "E", "F", "G", "H", "T", "U"]
_ALIASES = ["Root", "Left", "Right", "Mid", "Up", "Down", "Node", "Leaf"]

# Generated specs per round: (class, number of definitions, how many).
VERDICT_MIX = [
    ("acyclic", 1, 6),
    ("acyclic", 2, 10),
    ("acyclic", 3, 10),
    ("fincycle", 1, 5),
    ("fincycle", 2, 7),
    ("fincycle", 3, 7),
    ("shufcycle", 1, 5),
    ("shufcycle", 2, 7),
    ("shufcycle", 3, 7),
]


def verdicts(seed: int, work: Path, call=None) -> List[Op]:
    rng = random.Random(seed)
    ops: List[Op] = []
    for tag, text, want_check, want_chains in CATALOGUE:
        f = _write(work / f"cat-{tag}.spec", text)
        ops.append(Op("check", ["tree", "check", f], _exact(want_check)))
        ops.append(Op("chains", ["tree", "chains", f], _exact(want_chains)))
    for klass, ndefs, count in VERDICT_MIX:
        for k in range(count):
            shape = _spec(
                _shape_rng("verdicts", klass, ndefs, k), klass, ndefs,
                rng.sample(_NAMES, ndefs),
            )
            perm = dict(zip(_COLOURS, rng.sample(_COLOURS, len(_COLOURS))))
            spec = Spec(
                {n: (_recolour(sp, perm), a) for n, (sp, a) in shape.defs.items()},
                shape.root,
            )
            variant = _respelt(spec, rng, _ALIASES)
            expected = C.expected_class(spec)
            stem = f"{klass}-{ndefs}-{k}"
            f = _write(work / f"{stem}.spec", spec.text())
            g = _write(work / f"{stem}-respelt.spec", variant.text())
            seen: dict = {}
            ops.append(Op("check", ["tree", "check", f], _base(expected, seen)))
            ops.append(Op("check", ["tree", "check", g], _variant(expected, seen)))
            ops.append(
                Op("chains", ["tree", "chains", f], _chains(spec, expected))
            )
            if expected == "yes":
                ops.append(Op("table", ["tree", "table", f], _table(spec)))
    return ops


def _exact(want: str):
    def check(code, out):
        if want.startswith("categorical:"):
            C.parse_check(code, out)
        else:
            C.expect(code == 0, f"exit {code}")
        C.expect(out == want, "differs from the hand-derived output")

    return check


def _base(klass: str, seen: dict):
    def check(code, out):
        seen["key"] = C.check_verdict(code, out, klass)

    return check


def _variant(klass: str, seen: dict):
    def check(code, out):
        key = C.check_verdict(code, out, klass)
        C.expect(key == seen.get("key"), "renaming or respelling changed the verdict")

    return check


def _chains(spec, klass):
    return lambda code, out: C.check_chains(code, out, spec, klass)


def _table(spec):
    return lambda code, out: C.check_table(code, out, spec)


# ---------------------------------------------------------------------------
# chain-samples

# Sizes of one round; every seed draws its terms afresh but keeps these.
# The cost grows as the cube of the size, so the median and p90 of the
# round are put inside runs of equal sizes (100 and 160): on a step
# between two sizes, host noise would flip a percentile from one to the
# other.
CHAIN_SIZES = [60] * 4 + [70] * 3 + [80] * 3 + [100] * 4 + [120, 130, 140, 150] + [160] * 5 + [200]


def _chain_term(rng: random.Random):
    x, y, z, w = rng.sample(_COLOURS, 4)
    return rng.choice(
        [
            _cat(_q(x, y), _t(z), _q(w)),
            _q(x, y, z),
            _cat(_t(x), _q(y, z), _t(w)),
            _cat(_q(x), _t(y), _q(z, w)),
            _cat(_q(x, y), _q(z)),
            _q(x),
        ]
    )


def chain_samples(seed: int, work: Path, call=None) -> List[Op]:
    rng = random.Random(seed)
    ops = []
    for size in CHAIN_SIZES:
        term = _chain_term(rng)
        argv = ["term", "sample", C.render(term), "--size", str(size)]
        argv += ["--seed", str(rng.randrange(1 << 16))]
        ops.append(Op("sample", argv, _chain_check(term, size)))
    return ops


def _chain_check(term, size):
    return lambda code, out: C.check_chain_sample(code, out, term, size)


# ---------------------------------------------------------------------------
# tree-orbits


def _orbit_specs(rng: random.Random) -> List[Tuple[str, Spec, int, int]]:
    """(stem, spec, depth, width) configurations of one round."""
    x, y, z, w = rng.sample(_COLOURS, 4)
    dense = Spec({"T": (_q(x), (Att("orbit 0", INF, "T"),))}, "T")
    mixed = Spec(
        {
            "A": (_q(x, y), (Att("orbit 0", INF, "B"), Att("orbit 1", 2, "A"))),
            "B": (_cat(_t(z), _q(w)), ()),
        },
        "A",
    )
    cut = Spec(
        {
            "A": (
                _cat(_q(x), _q(y)),
                (Att("cut 0", 2, "B"), Att("orbit 1", INF, "A")),
            ),
            "B": (_t(z), ()),
        },
        "A",
    )
    return [
        ("dense-3-2", dense, 3, 2),
        ("dense-4-2", dense, 4, 2),
        ("dense-3-3", dense, 3, 3),
        ("dense-4-3", dense, 4, 3),
        ("mixed-3-2", mixed, 3, 2),
        ("mixed-4-2", mixed, 4, 2),
        ("mixed-3-3", mixed, 3, 3),
        ("mixed-4-3", mixed, 4, 3),
        ("cut-3-2", cut, 3, 2),
        ("cut-4-2", cut, 4, 2),
        ("cut-3-3", cut, 3, 3),
    ]


ORBIT_QUERIES = 4  # orbit2 queries per sample, half of them same-orbit


def pair_orbits(t: C.Tree) -> Dict[tuple, int]:
    """Orbit key of every comparable pair ``(x, y)``, ``x`` below ``y``.
    A node's orbit is its parent's orbit plus its own subtree code (equal
    sibling subtrees can be swapped); the pair's orbit is the orbit of
    ``y`` with the depth of ``x``."""
    codes = C.subtree_codes(t, {}, {})
    oid: Dict[str, int] = {}
    table: Dict[tuple, int] = {}
    for v in t.order():
        p = t.parent[v]
        oid[v] = table.setdefault((oid.get(p), codes[v]), len(table))
    out = {}
    for y in t.nodes:
        anc = t.ancestors(y)
        for x in anc:
            out[(x, y)] = (oid[y], len(anc) - anc.index(x) - 1)
    return out


def tree_orbits(seed: int, work: Path, call) -> List[Op]:
    rng = random.Random(seed)
    ops = []
    for stem, spec, depth, width in _orbit_specs(rng):
        f = _write(work / f"{stem}.spec", spec.text())
        shape = ["--depth", str(depth), "--width", str(width)]
        shape += ["--seed", str(_shape_rng("orbits", stem).randrange(1 << 16))]
        size = C.sample_size(spec, depth, width)
        code, out = call(["tree", "sample", f] + shape)
        tree = C.read_tree(out)
        ops.append(Op("sample", ["tree", "sample", f] + shape, _sample_check(size)))
        keys = pair_orbits(tree)
        pairs = sorted(keys, key=lambda p: (int(p[0]), int(p[1])))
        for q in range(ORBIT_QUERIES):
            p0, p1 = _query(rng, pairs, keys, same=q % 2 == 0)
            argv = ["tree", "orbit2", f, *p0, *p1] + shape
            ops.append(Op("orbit2", argv, _orbit_check(tree, p0, p1)))
    return ops


def _query(rng, pairs, keys, same: bool):
    while True:
        p0 = rng.choice(pairs)
        if same:
            mates = [p for p in pairs if keys[p] == keys[p0] and p != p0]
        else:
            mates = [p for p in pairs if keys[p] != keys[p0]]
        if mates:
            return p0, rng.choice(mates)


def _sample_check(size):
    return lambda code, out: C.check_tree_sample(code, out, size)


def _orbit_check(tree, p0, p1):
    return lambda code, out: C.check_orbit2(code, out, tree, p0, p1)


# ---------------------------------------------------------------------------
# cfpo-paths


def _oriented_tree(rng: random.Random, n: int) -> List[Tuple[int, int]]:
    """A random tree on ``0..n-1`` with each edge pointing up or down."""
    out = []
    for v in range(1, n):
        u = rng.randrange(v)
        out.append((u, v) if rng.random() < 0.5 else (v, u))
    return out


def _rooted_tree(rng: random.Random, n: int) -> List[Tuple[int, int]]:
    """A random recursive tree on ``0..n-1``, every edge pointing up from
    the root 0."""
    return [(rng.randrange(v), v) for v in range(1, n)]


def _x_points(rng: random.Random, n: int, k: int):
    """A tree poset on ``0..n-1`` with ``k`` points that have two lower
    and two upper covers, pairwise more than two edges apart: a rooted
    tree of ``n - k`` points, and below each chosen point one extra
    minimal point.  Returns ``(edges, chosen)``.

    Zigzags in a rooted tree turn at most twice, so connecting sets stay
    few; an orientation drawn at random per edge makes some 80-point
    queries take minutes."""
    m = n - k
    while True:
        edges = _rooted_tree(rng, m)
        kids: Dict[int, set] = {v: set() for v in range(m)}
        nbrs: Dict[int, set] = {v: set() for v in range(m)}
        for a, b in edges:
            kids[a].add(b)
            nbrs[a].add(b)
            nbrs[b].add(a)
        cands = [v for v in range(1, m) if len(kids[v]) >= 2]
        rng.shuffle(cands)
        chosen: List[int] = []
        near = set()
        for v in cands:
            if v in near:
                continue
            chosen.append(v)
            ring = set(nbrs[v])
            for u in list(ring):
                ring |= nbrs[u]
            near |= ring | {v}
            if len(chosen) == k:
                return edges + [(m + i, v) for i, v in enumerate(chosen)], chosen


def _poset_text(names, keep, edges) -> str:
    lines = [f"node {names[v]}" for v in sorted(keep, key=lambda v: names[v])]
    lines += [f"edge {names[a]} {names[b]}" for a, b in edges]
    return "\n".join(lines) + "\n"


def _names(rng, n, prefix="n"):
    ids = list(range(n))
    rng.shuffle(ids)
    return {v: f"{prefix}{ids[v]}" for v in range(n)}


# (nodes, points removed) of the path posets of one round.  Sizes step
# evenly from 40 to 80 so that the cost of a path query, set by the poset,
# spreads without gaps: a percentile on a gap would move with host noise.
PATH_POSETS = [(40 + 40 * i // 23, 1 + i % 3) for i in range(24)]
VALIDATE_SIZES = [(10, False), (12, True), (14, False), (16, True), (18, False), (20, True)]
ZIGZAGS = [8, 12, 16, 24]
SMALL_POSETS = [6, 7, 8, 9]


def cfpo_paths(seed: int, work: Path, call=None) -> List[Op]:
    rng = random.Random(seed)
    ops: List[Op] = []
    for idx, (n, k) in enumerate(PATH_POSETS):
        srng = _shape_rng("path", idx)
        edges, removed = _x_points(srng, n, k)
        # Node ids set the order in which path_completion scans pairs, so
        # they are part of the shape.
        names = _names(srng, n)
        keep = [v for v in range(n) if v not in removed]
        kept_edges = [(a, b) for a, b in edges if a not in removed and b not in removed]
        for r in removed:
            lows = [a for a, b in edges if b == r]
            highs = [b for a, b in edges if a == r]
            kept_edges += [(a, b) for a in lows for b in highs]
        f = _write(work / f"path-{idx}.poset", _poset_text(names, keep, kept_edges))
        named = [(names[a], names[b]) for a, b in edges]
        gone = {names[r] for r in removed}
        fresh: Dict[str, str] = {}
        for r in removed:
            a, b = _path_query(rng, named, gone, names[r])
            ops.append(
                Op("path", ["cfpo", "path", f, a, b], _path_check(named, gone, a, b, fresh))
            )
    for idx, (n, diamond) in enumerate(VALIDATE_SIZES):
        srng = _shape_rng("validate", idx)
        edges, _ = _x_points(srng, n - 1 if diamond else n, 1)
        names = _names(srng, n)
        if diamond:
            r = _two_up(srng, edges)
            ups = [b for a, b in edges if a == r]
            a, b = srng.sample(ups, 2)
            edges = edges + [(a, n - 1), (b, n - 1)]
        text = _poset_text(names, range(n), edges)
        f = _write(work / f"validate-{idx}.poset", text)
        nodes = set(names.values())
        ops.append(
            Op("validate", ["poset", "validate", "--cfpo", f], _validate_check(nodes, diamond))
        )
    for idx, n in enumerate(ZIGZAGS):
        edges = [(i, i - 1) for i in range(1, n, 2)]
        edges += [(i, i + 1) for i in range(1, n - 1, 2)]
        if idx % 2:
            edges = [(b, a) for a, b in edges]
        # Node ids set the program's search order, and with it the cost.
        names = {v: f"z{v}" for v in range(n)}
        f = _write(work / f"zigzag-{idx}.poset", _poset_text(names, range(n), edges))
        ops.append(Op("alt-rank", ["cfpo", "alt-rank", f], _alt_check(n)))
    for idx, n in enumerate(SMALL_POSETS):
        edges = _small_order(rng, n)
        names = _names(rng, n, "s")
        f = _write(work / f"small-{idx}.poset", _poset_text(names, range(n), edges))
        rank = C.brute_alt_rank(list(range(n)), _closure(n, edges))
        ops.append(Op("alt-rank", ["cfpo", "alt-rank", f], _alt_check(rank)))
    return ops


def _path_query(rng, named, gone, r):
    """Two present points whose tree path passes through the removed point
    ``r`` and no other removed point, so that the fresh name under which
    ``r`` is restored is pinned down."""
    present = sorted({x for e in named for x in e} - gone)
    for _ in range(200):
        a, b = rng.sample(present, 2)
        path = C.tree_path(named, a, b)
        if r in path and len(gone & set(path)) == 1:
            return a, b
    return tuple(rng.sample([a if b == r else b for a, b in named if r in (a, b)], 2))


def _two_up(rng, edges) -> int:
    """A point with at least two upper covers (an ``_x_points`` tree has
    one)."""
    ups: Dict[int, int] = {}
    for a, _ in edges:
        ups[a] = ups.get(a, 0) + 1
    return rng.choice(sorted(v for v, k in ups.items() if k >= 2))


def _small_order(rng, n) -> List[Tuple[int, int]]:
    """A random order: a random oriented tree plus one extra relation."""
    edges = _oriented_tree(rng, n)
    a, b = rng.sample(range(n), 2)
    closure = _closure(n, edges)
    if (b, a) not in closure and (a, b) not in closure:
        edges.append((a, b))
    return edges


def _closure(n, edges) -> set:
    up: Dict[int, set] = {v: set() for v in range(n)}
    for a, b in edges:
        up[a].add(b)
    out = set()
    for v in range(n):
        todo = list(up[v])
        seen = set()
        while todo:
            w = todo.pop()
            if w not in seen:
                seen.add(w)
                todo.extend(up[w])
        out |= {(v, w) for w in seen}
    return out


def _path_check(named, gone, a, b, fresh):
    return lambda code, out: C.check_path(code, out, named, gone, a, b, fresh)


def _validate_check(nodes, diamond):
    return lambda code, out: C.check_validate(code, out, nodes, diamond)


def _alt_check(rank):
    return lambda code, out: C.check_alt_rank(code, out, rank)


WORKLOADS = {
    "verdicts": verdicts,
    "chain-samples": chain_samples,
    "tree-orbits": tree_orbits,
    "cfpo-paths": cfpo_paths,
}
