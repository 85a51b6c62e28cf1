"""Tests for the finite-poset core: tree validation, meets, cones,
brute-force automorphism/orbit oracles, and the poset file format.

Expected values are frozen: tiny cases are worked by hand, and the
automorphism/orbit machinery is cross-checked against an independent
permutation-filter oracle defined in this file.
"""

from __future__ import annotations

import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omegacat.cfpo import join
from omegacat.errors import BudgetError, CycleError, NotATreeError, ParseError
from omegacat.posets import (
    FinPoset,
    _bits,
    _components,
    all_trees,
    automorphisms,
    covers,
    dump_poset,
    is_isomorphic,
    load_poset,
    maximal_chains,
    meet,
    node_key,
    orbits,
    to_dot,
    validate_tree,
)
from omegacat.terms import materialize, min_size

from oracles import (
    complete_tuple,
    cones_above,
    naive_bits,
    naive_closure,
    naive_covers,
    naive_down,
    naive_dump_poset,
    naive_join,
    naive_meet,
    naive_up,
    naive_validate_tree,
    poset_fields,
    ramification_order,
    random_term,
)


# ---------------------------------------------------------------- fixtures


def chain(n, colours=None):
    els = list(range(n))
    pairs = [(i, j) for i in els for j in els if i < j]
    return FinPoset(els, pairs, colour=colours or {})


def v_poset():
    # r below two incomparable leaves a, b
    return FinPoset(["a", "b", "r"], [("r", "a"), ("r", "b")])


def n_poset():
    # a < b, c < b, c < d  (the classic N shape)
    return FinPoset(["a", "b", "c", "d"], [("a", "b"), ("c", "b"), ("c", "d")])


def antichain(n):
    return FinPoset(list(range(n)), [])


def bowtie():
    # a, b both below x and y; a || b, x || y
    return FinPoset(
        ["a", "b", "x", "y"],
        [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")],
    )


def leg_poset():
    # 3-chain 0 < 1 < 2 with an extra leaf 3 above 0
    return FinPoset([0, 1, 2, 3], [(0, 1), (1, 2), (0, 3)])


def brute_automorphisms(p):
    """Independent oracle: filter all |p|! permutations."""
    els = list(p.elements)
    out = []
    for perm in itertools.permutations(els):
        f = dict(zip(els, perm))
        if any(p.colour.get(x) != p.colour.get(f[x]) for x in els):
            continue
        if any((x in p.irrational) != (f[x] in p.irrational) for x in els):
            continue
        if all(((f[x], f[y]) in p.lt) == ((x, y) in p.lt) for x in els for y in els):
            out.append(f)
    return out


# ---------------------------------------------------------------- structure


def test_transitive_closure_and_elements_are_canonical():
    p = FinPoset([2, 0, 1], [(0, 1), (1, 2)])
    assert p.elements == (0, 1, 2)
    assert (0, 2) in p.lt  # closed transitively
    # ints numerically, then strs, whether or not the two kinds mix
    assert FinPoset([10, 9, -1], []).elements == (-1, 9, 10)
    assert FinPoset(["b", "a10", "a9"], []).elements == ("a10", "a9", "b")
    assert FinPoset(["b", 10, True, "a", 2], []).elements == (True, 2, 10, "a", "b")


def test_cycle_rejected():
    with pytest.raises(CycleError):
        FinPoset([0, 1], [(0, 1), (1, 0)])


def test_cycle_at_the_end_of_a_long_path_is_named_in_linear_time():
    names = [f"v{i:05d}" for i in range(20_000)]
    edges = list(zip(names, names[1:])) + [(names[-1], names[-2])]
    start = time.perf_counter()
    with pytest.raises(CycleError, match="cycle through node 'v19998'"):
        FinPoset(names, edges)
    assert time.perf_counter() - start < 1.0


def test_validate_tree_accepts_chains_and_v():
    assert validate_tree(chain(4)).ok
    assert validate_tree(v_poset()).ok
    assert validate_tree(FinPoset([0], [])).ok


def test_validate_tree_rejects_n_poset_with_witnesses():
    rep = validate_tree(n_poset())
    assert not rep.ok
    kinds = {v[0] for v in rep.violations}
    assert "down-linearity" in kinds  # a, c below b but a || c
    assert "common-lower-bound" in kinds  # a, d share no lower bound


def test_validate_tree_rejects_antichain():
    rep = validate_tree(antichain(2))
    assert not rep.ok
    assert {v[0] for v in rep.violations} == {"common-lower-bound"}


@st.composite
def digraphs(draw, acyclic: bool):
    """Up to 10 nodes named by a random permutation, so that node order is
    no topological order.  Acyclic graphs only point up a hidden ranking;
    the others may have cycles and self-loops."""
    n = draw(st.integers(0, 10))
    names = draw(st.permutations(range(n)))
    pairs = [(i, j) for i in range(n) for j in range(n) if i < j or not acyclic]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=25)) if pairs else []
    return names, [(names[i], names[j]) for i, j in edges]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(digraphs(acyclic=True), st.sets(st.integers(0, 9)))
def test_order_queries_match_brute_force_on_random_dags(graph, keep):
    names, edges = graph
    p = FinPoset(names, edges)
    closure = naive_closure(names, edges)
    assert p.lt == closure
    for x in list(p.elements) + [-1]:  # -1 names no point
        assert (x in p) == (x != -1)
        for y in list(p.elements) + [-1]:
            assert p.less(x, y) == ((x, y) in closure)
            assert p.leq(x, y) == (x == y or (x, y) in closure)
            assert p.comparable(x, y) == (
                x == y or (x, y) in closure or (y, x) in closure
            )
    keep = {x for x in keep if x in p} | {-1}
    q = p.restrict(keep)
    assert set(q.elements) == keep
    assert q.lt == {(a, b) for (a, b) in closure if a in keep and b in keep}
    for x in p.elements:
        assert p.down(x) == naive_down(p, x)
        assert p.up(x) == naive_up(p, x)
        assert meet(p, x, -1) is None
    assert covers(p) == naive_covers(p)
    assert FinPoset(names, covers(p)).lt == p.lt
    for x in p.elements:
        for y in p.elements:
            assert meet(p, x, y) == naive_meet(p, x, y)
            assert join(p, x, y) == naive_join(p, x, y)
    rep = validate_tree(p)
    assert (rep.ok, rep.violations) == naive_validate_tree(p)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(digraphs(acyclic=False))
def test_cycle_error_names_the_first_node_on_a_cycle(graph):
    names, edges = graph

    def outcome(build):
        try:
            return build()
        except CycleError as e:
            return str(e)

    assert outcome(lambda: FinPoset(names, edges).lt) == outcome(
        lambda: naive_closure(names, edges)
    )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(digraphs(acyclic=False))
def test_components_are_the_mutual_reachability_classes_in_topological_order(
    graph,
):
    names, edges = graph
    succ = [[] for _ in names]
    for x, y in edges:
        succ[x].append(y)
    reach = [{x} for x in range(len(names))]  # reflexive-transitive closure
    for x in range(len(names)):
        todo = [x]
        while todo:
            for y in succ[todo.pop()]:
                if y not in reach[x]:
                    reach[x].add(y)
                    todo.append(y)
    comp = _components(succ)
    assert sorted(set(comp)) == list(range(len(set(comp))))
    for x in range(len(names)):
        for y in range(len(names)):
            assert (comp[x] == comp[y]) == (y in reach[x] and x in reach[y])
    assert all(comp[x] <= comp[y] for x, y in edges)


def test_cycle_error_messages_of_both_constructors():
    def message(build):
        with pytest.raises(CycleError) as e:
            build()
        return str(e.value)

    assert message(lambda: FinPoset([0, 1, 2], [(0, 1), (1, 2), (2, 1)])) == (
        "cycle through node 1"
    )
    assert message(lambda: FinPoset(["a", "b"], [("b", "b")])) == (
        "cycle through node 'b'"
    )
    assert message(lambda: FinPoset._from_forest([-1, 2, 1])) == (
        "cycle through node 1"
    )
    assert message(lambda: FinPoset._from_forest([3, -1, 1, 2, 4])) == (
        "cycle through node 4"
    )


@st.composite
def redundant_dags(draw):
    """An acyclic digraph whose edge list also repeats some of its edges
    and holds some pairs of its closure that are no covers, shuffled."""
    names, edges = draw(digraphs(acyclic=True))
    closure = sorted(naive_closure(names, edges))
    extra = draw(st.lists(st.sampled_from(edges + closure), max_size=15)) if edges else []
    return names, draw(st.permutations(edges + extra))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(redundant_dags())
@example(([2, 0, 1], [(0, 2), (0, 1), (1, 2), (0, 1), (0, 2)]))
def test_stored_masks_and_covers_match_brute_force_with_redundant_edges(graph):
    names, edges = graph
    p = FinPoset(names, edges)
    closure = naive_closure(names, edges)
    hasse = naive_covers(p)
    bit = {x: 1 << i for i, x in enumerate(p.elements)}
    for i, x in enumerate(p.elements):
        assert p._up[i] == sum(bit[b] for a, b in closure if a == x)
        assert p._down[i] == sum(bit[a] for a, b in closure if b == x)
        assert p._upper[x] == [b for a, b in hasse if a == x]
        assert p._lower[x] == sorted((a for a, b in hasse if b == x), key=node_key)
    assert list(p._upper) == list(p._lower) == list(p.elements)


def random_mask(seed, width, density):
    rng = random.Random(seed)
    return sum(1 << i for i in range(width) if rng.random() < density)


MASKS = {
    "zero": 0,
    "one": 1,
    "top-of-80": 1 << 79,
    "4-bit": 0b1011,
    "full-80": (1 << 80) - 1,
    "alternating-80": int("01" * 40, 2),
    "sparse-200": random_mask(1, 200, 0.05),
    "half-200": random_mask(2, 200, 0.5),
    "12-of-4000": sum(1 << i for i in random.Random(3).sample(range(3999), 11)) | 1 << 3999,
    "tenth-4000": random_mask(4, 4000, 0.1),
    "dense-4000": random_mask(5, 4000, 0.9),
    "full-4000": (1 << 4000) - 1,
}


@pytest.mark.parametrize("mask", MASKS.values(), ids=MASKS)
def test_bits_decode_like_the_naive_loop(mask):
    assert _bits(mask) == naive_bits(mask)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 600), st.integers(0, 2**600))
def test_bits_decode_random_masks_like_the_naive_loop(shift, mask):
    # the shift makes long masks with few bits set
    assert _bits(mask << shift) == naive_bits(mask << shift)
    assert _bits(1 << shift | 1) == naive_bits(1 << shift | 1)


@st.composite
def parent_arrays(draw, least: int = 0):
    """A forest of up to 30 points as a parent array, -1 for a root.  Each
    point in a hidden order hangs below an earlier one or starts a new
    root; a random permutation names the points, so that children may be
    numbered below their parents."""
    n = draw(st.integers(least, 30))
    names = draw(st.permutations(range(n)))
    rng = draw(st.randoms(use_true_random=False))
    parent = [-1] * n
    for i in range(1, n):
        j = rng.randrange(-1, i)
        if j >= 0:
            parent[names[i]] = names[j]
    return parent


def parent_pairs(parent):
    return [(u, v) for v, u in enumerate(parent) if u >= 0]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(parent_arrays(), st.data())
def test_forest_constructor_equals_the_closure_of_its_parent_pairs(parent, data):
    points = st.integers(0, len(parent) - 1) if parent else st.nothing()
    colour = data.draw(st.dictionaries(points, st.sampled_from("ab")))
    irrational = data.draw(st.sets(points))
    want = FinPoset(range(len(parent)), parent_pairs(parent), colour, irrational)
    got = FinPoset._from_forest(parent, colour, irrational)
    assert poset_fields(got) == poset_fields(want)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(parent_arrays())
def test_forest_siblings_share_one_down_mask(parent):
    # a point with one lower cover keeps the closed mask its cover pushed,
    # one int for all the siblings, which keeps a wide sample small
    p = FinPoset._from_forest(parent)
    for kids in p._upper.values():
        assert all(p._down[c] is p._down[kids[0]] for c in kids)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(parent_arrays(least=2), st.data())
def test_validate_tree_of_a_forest_with_two_or_more_roots_matches_the_oracle(parent, data):
    # cutting a point off its parent leaves two or more roots (a forest of
    # two or more points with no parent has them already), so the points
    # of different trees have no common lower bound
    hung = [v for v, u in enumerate(parent) if u >= 0]
    if hung:
        parent[data.draw(st.sampled_from(hung))] = -1
    assert parent.count(-1) >= 2
    p = FinPoset._from_forest(parent)
    rep = validate_tree(p)
    assert not rep.ok
    assert (rep.ok, rep.violations) == naive_validate_tree(p)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(parent_arrays(least=1), st.data())
def test_forest_constructor_rejects_a_cycle_as_the_public_one_does(parent, data):
    # moving a point below itself or a point above it closes a cycle
    v = data.draw(st.integers(0, len(parent) - 1))
    above = FinPoset._from_forest(parent).up(v)
    parent[v] = data.draw(st.sampled_from([v] + sorted(above)))
    with pytest.raises(CycleError) as want:
        FinPoset(range(len(parent)), parent_pairs(parent))
    with pytest.raises(CycleError) as got:
        FinPoset._from_forest(parent)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------- meet / cones


def test_meet_in_v_and_chain():
    p = v_poset()
    assert meet(p, "a", "b") == "r"
    assert meet(p, "r", "a") == "r"
    assert meet(p, "a", "a") == "a"
    c = chain(3)
    assert meet(c, 0, 2) == 0


def test_meet_absent_in_bowtie():
    assert meet(bowtie(), "x", "y") is None  # {a, b} has no maximum


def test_cones_and_ramification_order():
    p = leg_poset()
    assert cones_above(p, 0) == ((1, 2), (3,))
    assert ramification_order(p, 0) == 2
    assert ramification_order(p, 1) == 1
    assert ramification_order(p, 2) == 0


def test_cones_rejects_non_tree():
    with pytest.raises(NotATreeError):
        cones_above(bowtie(), "a")
    # two minima below the chain 2 < 3 < 4: the pairs above 2 have meets
    p = FinPoset(range(5), [(0, 2), (1, 2), (2, 3), (3, 4)])
    with pytest.raises(NotATreeError):
        cones_above(p, 2)


# ---------------------------------------------------------------- automorphisms


def test_automorphism_counts_frozen():
    assert len(automorphisms(antichain(3))) == 6
    assert len(automorphisms(chain(3))) == 1
    assert len(automorphisms(v_poset())) == 2
    star = FinPoset(list(range(4)), [(0, 1), (0, 2), (0, 3)])
    assert len(automorphisms(star)) == 6


def test_automorphisms_respect_colour_and_irrational():
    p = FinPoset(["a", "b", "r"], [("r", "a"), ("r", "b")], colour={"a": "red"})
    assert len(automorphisms(p)) == 1
    q = FinPoset(["a", "b", "r"], [("r", "a"), ("r", "b")], irrational={"a"})
    assert len(automorphisms(q)) == 1


def test_automorphisms_match_permutation_oracle_on_random_posets():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        els = list(range(n))
        pairs = [(i, j) for i in els for j in els if i < j and rng.random() < 0.4]
        try:
            p = FinPoset(els, pairs)
        except CycleError:  # pragma: no cover - pairs above are acyclic
            continue
        got = automorphisms(p)
        want = brute_automorphisms(p)
        assert len(got) == len(want)
        assert {tuple(sorted(f.items())) for f in got} == {
            tuple(sorted(f.items())) for f in want
        }


def test_automorphisms_form_a_group():
    for p in (v_poset(), leg_poset(), antichain(3)):
        auts = automorphisms(p)
        keys = {tuple(sorted(f.items())) for f in auts}
        for f in auts:
            for g in auts:
                comp = {x: g[f[x]] for x in p.elements}
                assert tuple(sorted(comp.items())) in keys


def test_automorphism_node_bound():
    with pytest.raises(BudgetError):
        automorphisms(antichain(13))
    assert len(automorphisms(antichain(4), bound=20)) == 24


# ---------------------------------------------------------------- orbits


def test_orbit_report_v():
    rep1 = orbits(v_poset(), 1)
    assert rep1.count == 2
    assert rep1.orbits == ((("a",), ("b",)), (("r",),))
    rep2 = orbits(v_poset(), 2)
    assert rep2.count == 5  # (a,a)/(b,b); (a,b)/(b,a); (a,r)/(b,r); (r,a)/(r,b); (r,r)


def test_orbits_chain_all_singletons():
    rep = orbits(chain(3), 2)
    assert rep.count == 9  # rigid: every tuple its own orbit


def test_orbits_budget():
    with pytest.raises(BudgetError):
        orbits(antichain(10), 7, budget=10**6)


# ---------------------------------------------------------------- completion


def test_complete_tuple_adds_meet():
    p = leg_poset()
    assert complete_tuple(p, (3, 2)) == (3, 2, 0)
    assert complete_tuple(p, (3, 2, 0)) == (3, 2, 0)  # idempotent
    assert complete_tuple(p, (1, 2)) == (1, 2)  # already closed


def test_complete_tuple_every_tuple_completes_in_catalogue():
    for p in all_trees(5):
        for tup in itertools.product(p.elements, repeat=2):
            c = complete_tuple(p, tup)
            assert set(tup) <= set(c)
            # closed under meet
            for x, y in itertools.combinations(c, 2):
                assert meet(p, x, y) in c


# ---------------------------------------------------------------- isomorphism


def test_is_isomorphic_basic():
    ok, wit = is_isomorphic(chain(3), FinPoset(["x", "y", "z"], [("z", "y"), ("y", "x")]))
    assert ok
    assert wit == {0: "z", 1: "y", 2: "x"}
    ok, wit = is_isomorphic(chain(3), v_poset())
    assert not ok and wit is None


def test_is_isomorphic_respects_labels():
    a = FinPoset([0], [], colour={0: "red"})
    b = FinPoset([0], [])
    assert not is_isomorphic(a, b)[0]
    c = FinPoset([0], [], irrational={0})
    assert not is_isomorphic(b, c)[0]


# ---------------------------------------------------------------- chains


def test_maximal_chains():
    assert maximal_chains(v_poset()) == ((("r", "a"), ("r", "b")))
    assert maximal_chains(chain(4)) == (((0, 1, 2, 3),))
    p = leg_poset()
    assert maximal_chains(p) == ((0, 1, 2), (0, 3))


def test_a_long_chain_stores_its_order_as_bit_masks():
    # 605 550 pairs, held as one bit in an up-set mask and one in a
    # down-set mask: about 1 MB with the covers and the position map;
    # as frozenset up- and down-sets they took about 53 MB
    tracemalloc.start()
    try:
        p = FinPoset(range(1101), [(i, i + 1) for i in range(1100)])
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(p.up(0)) == len(p.down(1100)) == 1100
    assert held < 4 * 2**20


def test_maximal_chains_of_a_chain_longer_than_the_recursion_limit():
    p = FinPoset(range(1100), [(i, i + 1) for i in range(1099)])
    assert maximal_chains(p) == (tuple(range(1100)),)


# ---------------------------------------------------------------- catalogue


def test_catalogue_counts_match_hand_enumeration():
    # rooted-tree shape counts for 1..7 nodes, first four checked by hand:
    # 1 node: point; 2: edge; 3: chain, cherry; 4: chain4, Y, cherry+stem, claw
    assert [len(all_trees(n)) - len(all_trees(n - 1)) for n in range(1, 8)] == [
        1, 1, 2, 4, 9, 20, 48,
    ]


def test_catalogue_members_are_valid_and_distinct():
    trees = all_trees(5)
    for p in trees:
        assert validate_tree(p).ok
    for a, b in itertools.combinations(trees, 2):
        if len(a.elements) == len(b.elements):
            assert not is_isomorphic(a, b)[0]


# ---------------------------------------------------------------- file format


POSET_TEXT = """\
# tiny example
node r
node a colour=red
node b irrational
edge r a
edge r b
"""


def test_load_poset_round_trip():
    p = load_poset(POSET_TEXT)
    assert p.elements == ("a", "b", "r")
    assert p.colour == {"a": "red"}
    assert p.irrational == frozenset({"b"})
    assert ("r", "a") in p.lt
    q = load_poset(dump_poset(p))
    assert q.elements == p.elements and q.lt == p.lt
    assert q.colour == p.colour and q.irrational == p.irrational


def test_load_poset_errors():
    with pytest.raises(ParseError):
        load_poset("node a\nedge a b\n")  # unknown node b
    with pytest.raises(ParseError):
        load_poset("nod a\n")
    with pytest.raises(ParseError):
        load_poset("node a\nnode a\n")  # duplicate
    with pytest.raises(CycleError):
        load_poset("node a\nnode b\nedge a b\nedge b a\n")


def test_edges_are_covering_relation_on_dump():
    p = chain(3)
    text = dump_poset(p)
    assert "edge 0 1" in text and "edge 1 2" in text and "edge 0 2" not in text


def test_dump_equals_the_list_and_join_dump_on_term_samples():
    # chains of coloured, uncoloured ("1") and irrational ("I") points
    rng = random.Random(20261021)
    tags = set()
    for i in range(300):
        term = random_term(rng, 3, colours=("a", "b", "I"))
        p, _ = materialize(term, budget=min_size(term) + i % 17, seed=i)
        assert dump_poset(p) == naive_dump_poset(p), term
        tags |= {p.label(x) for x in p.elements}
    assert {(None, False), (None, True), ("a", False)} <= tags


@pytest.mark.parametrize(
    "text",
    [
        POSET_TEXT,
        "node r irrational colour=red\nnode s\nedge r s\n",
        "node 1 colour=c irrational\nnode 2 colour= \nnode 3 irrational\n"
        "edge 1 2\nedge 1 3\nedge 2 3\n",
    ],
)
def test_dump_equals_the_list_and_join_dump_on_loaded_files(text):
    # one node in each file after the first has both a colour and the
    # irrational flag
    p = load_poset(text)
    assert dump_poset(p) == naive_dump_poset(p)


def test_covers():
    assert covers(chain(3)) == ((0, 1), (1, 2))


def test_dot_output_marks_irrational_dashed():
    p = load_poset(POSET_TEXT)
    dot = to_dot(p)
    assert dot.startswith("digraph")
    assert "dashed" in dot
    # deterministic
    assert dot == to_dot(load_poset(POSET_TEXT))
