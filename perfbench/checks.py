"""Checks of ``omegacat`` CLI output, computed without ``omegacat``.

Nothing in this module imports the program under test.  Each check takes
the exit code and the captured stdout of one CLI call, plus what the
benchmark knows about the input it generated, and raises :class:`Wrong`
with a reason when the output is not correct.

Terms are modelled as nested tuples: ``("t", tag)`` for a single point,
``("c", parts)`` for an ordered sum and ``("q", constituents)`` for a dense
shuffle.  Tree specifications are modelled by :class:`Spec`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

INF = float("inf")
CAP = 3  # the default ``--cap`` of ``tree table``


class Wrong(Exception):
    """An output failed its check."""


def expect(cond: bool, reason: str) -> None:
    if not cond:
        raise Wrong(reason)


# ---------------------------------------------------------------------------
# terms


def render(t) -> str:
    kind, body = t
    if kind == "t":
        return body
    if kind == "c":
        return "^".join(render(p) for p in body)
    return "Q(" + ",".join(render(c) for c in body) + ")"


def parse(text: str):
    """Parse the term syntax (``a``, ``x^y``, ``Q(x, y)``) into tuples."""
    toks = re.findall(r"[A-Za-z_0-9]+|[\^(),]", text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def term():
        nonlocal pos
        parts = [factor()]
        while peek() == "^":
            pos += 1
            parts.append(factor())
        return parts[0] if len(parts) == 1 else ("c", tuple(parts))

    def factor():
        nonlocal pos
        tok = peek()
        if tok is None or tok in "^(),":
            raise ValueError(f"bad term {text!r}")
        pos += 1
        if tok != "Q":
            return ("t", tok)
        if peek() != "(":
            raise ValueError(f"bad term {text!r}")
        pos += 1
        cs = [term()]
        while peek() == ",":
            pos += 1
            cs.append(term())
        if peek() != ")":
            raise ValueError(f"bad term {text!r}")
        pos += 1
        return ("q", tuple(cs))

    t = term()
    if pos != len(toks):
        raise ValueError(f"bad term {text!r}")
    return t


def tags(t) -> set:
    kind, body = t
    if kind == "t":
        return {body}
    return set().union(*(tags(p) for p in body))


def _reach(t, word: Sequence[str], starts: set) -> set:
    """End positions ``j`` such that ``word[i:j]`` embeds into the order
    denoted by ``t`` for some ``i`` in ``starts``.  The empty piece always
    embeds, so ``starts`` is contained in the result."""
    kind, body = t
    if kind == "t":
        return starts | {
            i + 1 for i in starts if i < len(word) and word[i] == body
        }
    if kind == "c":
        for part in body:
            starts = _reach(part, word, starts)
        return starts
    # A dense shuffle holds, between any two of its points, a copy of every
    # constituent; a finite word embeds iff each letter occurs in some
    # constituent, one constituent copy per letter.
    alphabet = tags(t)
    out = set(starts)
    for i in starts:
        j = i
        while j < len(word) and word[j] in alphabet:
            j += 1
            out.add(j)
    return out


def embeds(word: Sequence[str], t) -> bool:
    """Does the finite coloured chain ``word`` (one tag per point, ``1`` for
    uncoloured) embed into the order denoted by ``t``?"""
    return len(word) in _reach(t, word, {0})


# ---------------------------------------------------------------------------
# poset files


@dataclass
class PosetText:
    nodes: List[str]
    colour: Dict[str, str]
    irrational: set
    edges: List[Tuple[str, str]]

    def label(self, x) -> tuple:
        return (self.colour.get(x), x in self.irrational)


def parse_poset(text: str) -> PosetText:
    nodes: List[str] = []
    colour: Dict[str, str] = {}
    irrational = set()
    edges = []
    for line in text.splitlines():
        parts = line.split()
        expect(bool(parts), "blank line in poset output")
        if parts[0] == "node":
            expect(len(parts) >= 2, f"bad node line {line!r}")
            x = parts[1]
            nodes.append(x)
            for opt in parts[2:]:
                if opt == "irrational":
                    irrational.add(x)
                elif opt.startswith("colour="):
                    colour[x] = opt[len("colour="):]
                else:
                    raise Wrong(f"bad node option {opt!r}")
        elif parts[0] == "edge":
            expect(len(parts) == 3, f"bad edge line {line!r}")
            edges.append((parts[1], parts[2]))
        else:
            raise Wrong(f"unexpected line {line!r}")
    expect(len(set(nodes)) == len(nodes), "duplicate node")
    known = set(nodes)
    for a, b in edges:
        expect(a in known and b in known, f"edge {a} {b} names unknown node")
    return PosetText(nodes, colour, irrational, edges)


# ---------------------------------------------------------------------------
# chain-samples


def check_chain_sample(code: int, out: str, term, size: int) -> None:
    """``term sample``: a chain of exactly ``size`` points whose label word
    embeds into ``term`` and uses every colour of ``term``."""
    expect(code == 0, f"exit {code}")
    p = parse_poset(out)
    expect(p.nodes == [str(i) for i in range(size)], "nodes are not 0..size-1")
    expect(
        sorted(p.edges) == sorted((str(i), str(i + 1)) for i in range(size - 1)),
        "covering edges do not form the chain 0 < 1 < ... < size-1",
    )
    expect(not p.irrational, "a term sample has an irrational point")
    word = [p.colour.get(x, "1") for x in p.nodes]
    expect(embeds(word, term), "the label sequence does not embed in the term")
    colours = tags(term) - {"1"}
    expect(colours <= set(word), "a colour of the term is missing")


# ---------------------------------------------------------------------------
# tree specifications


@dataclass(frozen=True)
class Att:
    site: str  # "orbit I", "cut J" or "top"
    mult: object  # int or INF
    child: str

    def text(self) -> str:
        m = "omega" if self.mult == INF else str(self.mult)
        return f"{m} x {self.child} at {self.site}"


@dataclass
class Spec:
    """A tree specification: definitions in file order, the first is the
    root unless ``root`` names another one."""

    defs: Dict[str, Tuple[object, Tuple[Att, ...]]]
    root: str
    root_line: bool = False
    spine_text: Dict[str, str] = field(default_factory=dict)

    def text(self) -> str:
        lines = [f"root {self.root}"] if self.root_line else []
        for name, (spine, atts) in self.defs.items():
            line = f"{name} = spine {self.spine_text.get(name, render(spine))}"
            if atts:
                line += " with " + ", ".join(a.text() for a in atts)
            lines.append(line)
        return "\n".join(lines) + "\n"


def spine_factors(t) -> tuple:
    return t[1] if t[0] == "c" else (t,)


def is_finite(t) -> bool:
    return t[0] == "t" or (t[0] == "c" and all(is_finite(p) for p in t[1]))


def leaves(t) -> List[str]:
    """Leaf tags in reading order: the spine orbits of a normal-form term
    whose shuffle constituents are listed in canonical order."""
    kind, body = t
    if kind == "t":
        return [body]
    return [x for p in body for x in leaves(p)]


def min_size(t) -> int:
    return len(leaves(t))


def _edges(spec: Spec):
    return {name: [a.child for a in atts] for name, (_, atts) in spec.defs.items()}


def reachable(spec: Spec) -> set:
    graph = _edges(spec)
    seen = {spec.root}
    todo = [spec.root]
    while todo:
        for w in graph[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def has_cycle(spec: Spec, within=None) -> bool:
    """Is there a cycle in the definition graph, using only definitions in
    ``within`` (all of them when None)?"""
    graph = _edges(spec)
    nodes = set(graph) if within is None else set(within)
    state: Dict[str, int] = {}
    for start in sorted(nodes):
        if start in state:
            continue
        stack = [(start, iter(graph[start]))]
        state[start] = 1
        while stack:
            v, it = stack[-1]
            for w in it:
                if w not in nodes:
                    continue
                if state.get(w) == 1:
                    return True
                if w not in state:
                    state[w] = 1
                    stack.append((w, iter(graph[w])))
                    break
            else:
                state[v] = 2
                stack.pop()
    return False


def expected_class(spec: Spec) -> str:
    """``yes`` for acyclic specs (every chain is a finite concatenation),
    ``no`` for specs with a cycle through finite spines only (pumping it
    gives a chain with an endless tail of finite blocks), else ``open``."""
    if not has_cycle(spec):
        return "yes"
    finite = [n for n, (sp, _) in spec.defs.items() if is_finite(sp)]
    return "no" if has_cycle(spec, finite) else "open"


_COND_RE = re.compile(r"condition (\S+): (pass|fail)(?: witness (.+))?\Z")
_CONDS = ("finite-ramification", "chains-categorical", "finite-chain-family")


def parse_check(code: int, out: str):
    """Split ``tree check`` output into ``(categorical, conditions)`` where
    conditions maps each name to ``(passed, witness)``; checks that the
    headline and exit code agree with the three condition lines."""
    lines = out.splitlines()
    expect(len(lines) == 4, "tree check prints four lines")
    conds = {}
    for line in lines[1:]:
        m = _COND_RE.match(line)
        expect(m is not None, f"bad condition line {line!r}")
        conds[m.group(1)] = (m.group(2) == "pass", m.group(3))
    expect(tuple(conds) == _CONDS, "conditions missing or out of order")
    passed = all(ok for ok, _ in conds.values())
    for ok, witness in conds.values():
        expect(not (ok and witness), "a passing condition has a witness")
    ram, chains, family = (conds[n] for n in _CONDS)
    if passed:
        expect(lines[0] == "categorical: yes", "headline disagrees: all pass")
        expect(code == 0, f"exit {code} for a categorical verdict")
        return True, conds
    if not chains[0]:
        reason = f"chain {chains[1]} is not a term"
    elif not family[0]:
        reason = f"the family of chain types is infinite ({family[1]})"
    elif ram[1] is not None:
        reason = f"a ramification count is unbounded along {ram[1]}"
    else:
        reason = "the ramification table is not finitely described"
    expect(lines[0] == f"categorical: no — {reason}", "headline disagrees")
    expect(code == 1, f"exit {code} for a negative verdict")
    return False, conds


def check_verdict(code: int, out: str, klass: str) -> tuple:
    """``tree check`` on a generated spec of class ``yes``, ``no`` or
    ``open`` (see :func:`expected_class`).  Returns the verdict key that
    equivalent respellings must reproduce."""
    cat, conds = parse_check(code, out)
    if klass == "yes":
        expect(cat, "an acyclic spec is judged not categorical")
    elif klass == "no":
        expect(not cat, "a finite-spine cycle is judged categorical")
        expect(
            not conds["chains-categorical"][0],
            "a finite-spine cycle passes chains-categorical",
        )
    return (cat,) + tuple(ok for ok, _ in conds.values())


_SEQ_RE = re.compile(r"\[[^\[\]]*\](?: \* \[[^\[\]]+\] w)?\Z")


def _check_type_lines(types: List[str], klass: str) -> None:
    expect(bool(types), "no chain types")
    for t in types:
        expect(_SEQ_RE.match(t) is not None, f"bad chain type {t!r}")
    expect(types == sorted(set(types)), "chain types not sorted and distinct")
    tails = [t for t in types if t.endswith(" w")]
    if klass == "yes":
        expect(not tails, "an acyclic spec has a chain type with a tail")
    elif klass == "no":
        expect(bool(tails), "a finite-spine cycle has no chain type with a tail")


def finite_chains(spec: Spec, name: Optional[str] = None):
    """Maximal chains of the tree of an acyclic spec whose spines are all
    finite, as ``{label word: number of chains}`` (INF for omega many).

    A chain runs up the spine to an attachment point and on into a child
    copy, or to the top of the spine when no copy sits on the top point."""
    name = spec.root if name is None else name
    spine, atts = spec.defs[name]
    word = tuple(leaves(spine))
    out: Dict[tuple, object] = {}
    if not any(a.site == f"orbit {len(word) - 1}" for a in atts):
        out[word] = 1
    for a in atts:
        i = int(a.site.split()[1])
        for w, n in finite_chains(spec, a.child).items():
            key = word[: i + 1] + w
            out[key] = out.get(key, 0) + a.mult * n
    return out


def _type_text(word) -> str:
    return "[" + "^".join(word) + "]"


def finite_table(spec: Spec) -> List[str]:
    """``tree table`` output of an acyclic spec with finite spines: the
    chain types, then every (count, type, position) that some point of the
    tree realises, counted on the unfolded tree."""
    types = sorted({_type_text(w) for w in finite_chains(spec)})
    index = {t: i for i, t in enumerate(types)}
    realised, indeterminate = set(), set()

    def visit(name: str, below: tuple) -> None:
        spine, atts = spec.defs[name]
        word = tuple(leaves(spine))
        above: Dict[tuple, object] = {}  # chains from just above point k
        for k in range(len(word) - 1, -1, -1):
            ups: Dict[tuple, object] = {}
            if k == len(word) - 1:
                if not any(a.site == f"orbit {k}" for a in atts):
                    ups[()] = 1
            else:
                for w, n in above.items():
                    ups[(word[k + 1],) + w] = n
            for a in atts:
                if a.site == f"orbit {k}":
                    for w, n in finite_chains(spec, a.child).items():
                        ups[w] = ups.get(w, 0) + a.mult * n
            above = ups
            prefix = below + word[: k + 1]
            cells: Dict[int, object] = {}
            for w, n in ups.items():
                m = index[_type_text(prefix + w)]
                cells[m] = cells.get(m, 0) + n
            for m, n in cells.items():
                cell = (m, len(prefix) - 1)
                if n == INF or n <= CAP:
                    realised.add((n, cell))
                else:
                    indeterminate.add(cell)
        for a in atts:
            i = int(a.site.split()[1])
            visit(a.child, below + word[: i + 1])

    visit(spec.root, ())
    lines = [f"cap: {CAP}"] + [f"type {i}: {t}" for i, t in enumerate(types)]
    for n, (m, pos) in sorted(realised, key=lambda e: (e[1], float(e[0]))):
        count = "omega" if n == INF else str(n)
        lines.append(f"cell type={m} pos={pos} count={count}")
    for m, pos in sorted(indeterminate):
        lines.append(f"indeterminate type={m} pos={pos} count=more-than-{CAP}")
    return lines


def all_finite(spec: Spec) -> bool:
    return all(is_finite(sp) for sp, _ in spec.defs.values())


def check_chains(code: int, out: str, spec: Spec, klass: str) -> None:
    """``tree chains``: well-formed, sorted, distinct types; no tail for an
    acyclic spec, some tail for a finite-spine cycle; for an acyclic spec
    with finite spines exactly the label words of its maximal chains."""
    expect(code == 0, f"exit {code}")
    lines = out.splitlines()
    _check_type_lines(lines, klass)
    if klass == "yes" and all_finite(spec):
        want = sorted({_type_text(w) for w in finite_chains(spec)})
        expect(lines == want, "chain types differ from the spec's chains")


_CELL_RE = re.compile(r"cell type=(\d+) pos=(\d+) count=(\d+|omega)\Z")
_INDET_RE = re.compile(
    rf"indeterminate type=(\d+) pos=(\d+) count=more-than-{CAP}\Z"
)


def check_table(code: int, out: str, spec: Spec) -> None:
    """``tree table`` on an acyclic spec: exact for finite spines; for
    others the types are tail-free and every cell is well-formed."""
    expect(code == 0, f"exit {code}")
    lines = out.splitlines()
    if all_finite(spec):
        expect(lines == finite_table(spec), "table differs from the unfolded tree")
        return
    expect(lines[:1] == [f"cap: {CAP}"], "missing cap line")
    types = []
    rest = lines[1:]
    while rest and rest[0].startswith("type "):
        head, _, body = rest.pop(0).partition(": ")
        expect(head == f"type {len(types)}", "type lines out of order")
        types.append(body)
    _check_type_lines(types, "yes")
    cells = []
    for line in rest:
        m = _CELL_RE.match(line)
        if m is None:
            expect(_INDET_RE.match(line) is not None, f"bad table line {line!r}")
            continue
        count = INF if m.group(3) == "omega" else int(m.group(3))
        expect(1 <= count <= CAP or count == INF, f"bad count in {line!r}")
        expect(int(m.group(1)) < len(types), f"unknown type in {line!r}")
        cells.append(((int(m.group(1)), int(m.group(2))), count))
    expect(bool(cells), "no realised cells")
    expect(cells == sorted(cells), "cells out of order")


# ---------------------------------------------------------------------------
# tree-orbits


@dataclass
class Tree:
    """A rooted tree read from a poset file: parent links and labels."""

    nodes: List[str]
    parent: Dict[str, Optional[str]]
    children: Dict[str, List[str]]
    label: Dict[str, tuple]
    root: str

    def ancestors(self, x) -> List[str]:
        out = []
        while self.parent[x] is not None:
            x = self.parent[x]
            out.append(x)
        return out

    def order(self) -> List[str]:
        """Nodes in breadth-first order from the root."""
        out = [self.root]
        for v in out:
            out.extend(self.children[v])
        return out


def read_tree(out: str) -> Tree:
    p = parse_poset(out)
    parent: Dict[str, Optional[str]] = {x: None for x in p.nodes}
    children: Dict[str, List[str]] = {x: [] for x in p.nodes}
    for a, b in p.edges:
        expect(parent[b] is None, f"node {b} has two lower covers")
        parent[b] = a
        children[a].append(b)
    roots = [x for x in p.nodes if parent[x] is None]
    expect(len(roots) == 1, f"{len(roots)} minimal points, a tree has one")
    t = Tree(p.nodes, parent, children, {x: p.label(x) for x in p.nodes}, roots[0])
    expect(len(t.order()) == len(p.nodes), "covering edges are not connected")
    return t


def sample_size(spec: Spec, depth: int, width: int, name=None) -> int:
    """Points of ``tree sample --depth --width`` by the sampling rules: a
    finite spine is drawn exactly, an infinite one with ``max(min size,
    width)`` points; at depth >= 1 each distinct cut site adds one branch
    point and each attachment adds its copies (``max(2, width)`` for
    omega) of the child sampled at one depth less."""
    name = spec.root if name is None else name
    spine, atts = spec.defs[name]
    n = min_size(spine) if is_finite(spine) else max(min_size(spine), width)
    if depth == 0:
        return n
    n += len({a.site for a in atts if not a.site.startswith("orbit")})
    for a in atts:
        copies = max(2, width) if a.mult == INF else a.mult
        n += copies * sample_size(spec, depth - 1, width, a.child)
    return n


def check_tree_sample(code: int, out: str, size: int) -> None:
    expect(code == 0, f"exit {code}")
    t = read_tree(out)
    expect(len(t.nodes) == size, f"{len(t.nodes)} points, expected {size}")


def subtree_codes(t: Tree, marks: dict, table: Dict[tuple, int]) -> Dict[str, int]:
    """Canonical integer codes of every subtree (Aho-Hopcroft-Ullman):
    with one shared ``table``, equal codes iff the subtrees are isomorphic
    with labels and marks kept."""
    code: Dict[str, int] = {}
    for v in reversed(t.order()):
        key = (t.label[v], marks.get(v), tuple(sorted(code[c] for c in t.children[v])))
        code[v] = table.setdefault(key, len(table))
    return code


def same_orbit(t: Tree, pair0, pair1) -> bool:
    """Is there a label-preserving automorphism carrying pair0 to pair1?
    Automorphisms of a rooted tree fix the root, so this is equality of the
    canonical codes of the tree with both points of a pair marked."""
    table: Dict[tuple, int] = {}
    codes = [
        subtree_codes(t, {x: "x", y: "y"}, table)[t.root] for x, y in (pair0, pair1)
    ]
    return codes[0] == codes[1]


def check_orbit2(code: int, out: str, t: Tree, pair0, pair1) -> None:
    lines = out.splitlines()
    if not same_orbit(t, pair0, pair1):
        expect(code == 1 and lines == ["inequivalent"], "expected inequivalent")
        return
    expect(code == 0 and lines[:1] == ["equivalent"], "expected equivalent")
    f: Dict[str, str] = {}
    for line in lines[1:]:
        parts = line.split()
        expect(
            len(parts) == 4 and parts[0] in ("base", "even", "odd") and parts[2] == "->",
            f"bad trace line {line!r}",
        )
        expect(parts[1] not in f, f"{parts[1]} mapped twice")
        f[parts[1]] = parts[3]
    expect(set(f) == set(t.nodes), "the trace is not defined on every point")
    expect(sorted(f.values()) == sorted(t.nodes), "the trace is not a bijection")
    for x in t.nodes:
        expect(t.label[x] == t.label[f[x]], f"label of {x} not preserved")
        px = t.parent[x]
        expect(
            (px is None and t.parent[f[x]] is None)
            or (px is not None and t.parent[f[x]] == f[px]),
            f"covering edge below {x} not preserved",
        )
    expect(
        (f[pair0[0]], f[pair0[1]]) == tuple(pair1), "the trace misses pair 1"
    )


# ---------------------------------------------------------------------------
# cfpo-paths


def tree_path(edges: Sequence[Tuple[str, str]], a: str, b: str) -> List[str]:
    """Breadth-first path from ``a`` to ``b`` in the undirected graph."""
    adj: Dict[str, List[str]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    prev = {a: None}
    queue = [a]
    for u in queue:
        for v in sorted(adj.get(u, ())):
            if v not in prev:
                prev[v] = u
                queue.append(v)
    expect(b in prev, f"{b} unreachable from {a}")
    path = [b]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1]


_FRESH_RE = re.compile(r"i(\d+)\Z")


def check_path(code: int, out: str, edges, removed, a, b, names: dict) -> None:
    """``cfpo path`` on a poset whose Hasse diagram is a tree with the
    points ``removed`` left out.  The path must be the tree path with each
    removed point on it restored under a fresh name ``i<k>``, ``k`` below
    the number removed.  ``names`` carries the removed point -> fresh name
    bijection between the queries of one poset."""
    expect(code == 0, f"exit {code}")
    got = out.split()
    expect(out == " ".join(got) + "\n", "path is not one line")
    expect(got == sorted(set(got)), "path nodes not sorted and distinct")
    path = tree_path(edges, a, b)
    gone = [x for x in path if x in removed]
    fresh = [x for x in got if _FRESH_RE.match(x)]
    expect(
        sorted(set(got) - set(fresh)) == sorted(set(path) - set(removed)),
        "path differs from the tree path",
    )
    expect(len(fresh) == len(gone), "restored points differ from removed ones")
    for x in fresh:
        expect(int(_FRESH_RE.match(x).group(1)) < len(removed), f"extra point {x}")
    if len(gone) == 1:
        r, x = gone[0], fresh[0]
        expect(names.setdefault(r, x) == x, f"{r} restored as two names")
        expect(
            [k for k, v in names.items() if v == x] == [r],
            f"{x} restores two removed points",
        )


def check_validate(code: int, out: str, nodes, diamond: bool) -> None:
    """``poset validate --cfpo``: a tree with points removed is cycle-free;
    an inserted diamond makes two paths between some pair."""
    if not diamond:
        expect(code == 0 and out == "ok\n", "a tree poset is rejected")
        return
    m = re.match(r"not cycle-free: pair (\S+) (\S+)\n\Z", out)
    expect(code == 1 and m is not None, "a diamond is accepted")
    x, y = m.groups()
    expect(x in nodes and y in nodes and x < y, "bad witness pair")


def is_zigzag(seq, less) -> bool:
    """Alternating up/down steps between neighbours; all other pairs
    incomparable."""
    for i in range(len(seq) - 1):
        up = less(seq[i], seq[i + 1])
        if not up and not less(seq[i + 1], seq[i]):
            return False
        if i and up == less(seq[i - 1], seq[i]):
            return False
    for i in range(len(seq)):
        for j in range(i + 2, len(seq)):
            if less(seq[i], seq[j]) or less(seq[j], seq[i]):
                return False
    return True


def brute_alt_rank(nodes, order_pairs) -> int:
    """Longest zigzag induced in the order, by trying every sequence that
    extends a zigzag by one point."""
    lt = set(order_pairs)

    def less(x, y):
        return (x, y) in lt

    best = 1
    todo = [(x,) for x in nodes]
    while todo:
        seq = todo.pop()
        best = max(best, len(seq))
        for z in nodes:
            if z not in seq and is_zigzag(seq + (z,), less):
                todo.append(seq + (z,))
    return best


def check_alt_rank(code: int, out: str, rank: int) -> None:
    expect(code == 0, f"exit {code}")
    expect(out == f"{rank}\n", f"rank {out.strip()!r}, expected {rank}")
