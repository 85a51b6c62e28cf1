"""Tests for the cycle-free partial order machinery: joins, path
completion, connecting sets, path uniqueness, the alternating zigzag
family, and zigzag rank.

Expected values are frozen: small cases are worked by hand from the
definitions (bound sets, alternation and incomparability clauses, chain
assemblies), and orbit claims are cross-checked against the brute-force
automorphism oracle of the poset core.
"""

from __future__ import annotations

import itertools
import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omegacat import cfpo
from omegacat.cfpo import (
    AMBIGUOUS,
    _candidates,
    _forest_rank,
    _forest_view,
    _zigzag,
    alt,
    alt_rank,
    path,
    path_completion,
    validate_cfpo,
)
from omegacat.errors import BudgetError
from omegacat.posets import FinPoset, covers, orbits
from oracles import (
    ConnectingSet,
    all_trees,
    connecting_sets,
    leq,
    naive_alt_rank,
    naive_covers,
    naive_embeds_alt,
    naive_join,
    naive_meet,
    naive_path_completion,
    naive_paths,
    poset_fields,
)


# ---------------------------------------------------------------- fixtures


def chain(n):
    els = list(range(n))
    return FinPoset(els, [(i, j) for i in els for j in els if i < j])


def antichain(n):
    return FinPoset(list(range(n)), [])


def v_poset():
    return FinPoset(["a", "b", "r"], [("r", "a"), ("r", "b")])


def lam_poset():
    return FinPoset(["a", "b", "t"], [("a", "t"), ("b", "t")])


def n_poset():
    return FinPoset(["a", "b", "c", "d"], [("a", "b"), ("c", "b"), ("c", "d")])


def diamond():
    return FinPoset(
        ["a", "b", "r", "t"],
        [("r", "a"), ("r", "b"), ("a", "t"), ("b", "t")],
    )


def bowtie():
    return FinPoset(
        ["a", "b", "x", "y"],
        [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")],
    )


def disjoint_chains():
    return FinPoset([0, 1, 2, 3], [(0, 1), (2, 3)])


def oriented_tree(seed, n):
    """Edges of a random tree on ``0..n-1``, each pointing up or down at
    random: the covering pairs of the order they generate."""
    rng = random.Random(seed)
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
    return edges


@st.composite
def small_dags(draw, max_nodes=8):
    """Up to ``max_nodes`` nodes named by a random permutation, with edges
    pointing up a hidden ranking."""
    n = draw(st.integers(1, max_nodes))
    names = draw(st.permutations(range(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=16)) if pairs else []
    return FinPoset(names, [(names[i], names[j]) for i, j in edges])


def natural_posets(max_points):
    """Every order on ``1..max_points`` points whose node order extends it,
    once each: 407 orders for 5 points, which covers every order on at
    most 5 points up to isomorphism."""
    seen = set()
    for n in range(1, max_points + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            p = FinPoset(range(n), [e for k, e in enumerate(pairs) if mask >> k & 1])
            if (n, p.lt) not in seen:
                seen.add((n, p.lt))
                yield p


def with_examples(inputs):
    """Add each of ``inputs`` as an explicit example of a hypothesis test."""

    def add(test):
        for x in inputs:
            test = example(x)(test)
        return test

    return add


def hasse_is_forest(p):
    """Union-find over the brute-force covers: False at the first one that
    closes a cycle of the undirected Hasse diagram."""
    root = {x: x for x in p.elements}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for a, b in naive_covers(p):
        if find(a) == find(b):
            return False
        root[find(a)] = find(b)
    return True


def same_shape(p, q):
    return tuple(p.elements) == tuple(q.elements) and set(p.lt) == set(q.lt)


# ---------------------------------------------------------------- join
# hand-worked joins of the oracle that the completion oracle reads


def test_join_on_chain_is_upper_point():
    p = chain(2)
    assert naive_join(p, 0, 1) == 1
    assert naive_join(p, 1, 0) == 1


def test_join_of_point_with_itself():
    assert naive_join(chain(3), 1, 1) == 1


def test_join_lambda_shape():
    assert naive_join(lam_poset(), "a", "b") == "t"


def test_join_antichain_absent():
    assert naive_join(antichain(3), 0, 1) is None


def test_join_bowtie_absent_two_minimal_uppers():
    assert naive_join(bowtie(), "a", "b") is None


# ------------------------------------------------------- path completion


def test_completion_fixes_trees():
    for p in all_trees(5):
        assert same_shape(path_completion(p), p)


def test_completion_fixes_n_poset():
    p = n_poset()
    assert same_shape(path_completion(p), p)


def test_completion_fixes_diamond():
    p = diamond()
    assert same_shape(path_completion(p), p)


def test_completion_fixes_disjoint_chains():
    p = disjoint_chains()
    assert same_shape(path_completion(p), p)


def test_completion_fixes_alternating_poset():
    for n in (2, 4, 6):
        assert same_shape(path_completion(alt(n)), alt(n))


def test_completion_bowtie_adds_one_irrational_centre():
    p = bowtie()
    q = path_completion(p)
    new = set(q.elements) - set(p.elements)
    assert new == {"i0"}
    assert set(q.irrational) == {"i0"}
    assert q.down("i0") == {"a", "b"}
    assert q.up("i0") == {"x", "y"}
    assert set(q.lt) == set(p.lt) | {
        ("a", "i0"),
        ("b", "i0"),
        ("i0", "x"),
        ("i0", "y"),
    }


def test_completion_fresh_ids_skip_existing_names():
    p = FinPoset(
        ["i0", "b", "x", "y"],
        [("i0", "x"), ("i0", "y"), ("b", "x"), ("b", "y")],
    )
    q = path_completion(p)
    assert set(q.elements) - set(p.elements) == {"i1"}


def test_completion_shared_bound_set_adds_single_point():
    bottoms = ["p", "q", "r", "s"]
    tops = ["c", "d"]
    p = FinPoset(bottoms + tops, [(b, t) for b in bottoms for t in tops])
    q = path_completion(p)
    new = set(q.elements) - set(p.elements)
    assert len(new) == 1
    (m,) = new
    assert q.down(m) == set(bottoms)
    assert q.up(m) == set(tops)


def test_completion_idempotent():
    for p in (bowtie(), diamond(), v_poset(), disjoint_chains()):
        q = path_completion(p)
        assert same_shape(path_completion(q), q)


def test_completion_budget_counts_added_points(monkeypatch):
    monkeypatch.setattr("omegacat.cfpo._MAX_COMPLETION_POINTS", 1)
    assert set(path_completion(bowtie()).elements) == {"a", "b", "x", "y", "i0"}
    # two disjoint bowties need one centre each
    edges = [(a, x) for a in "ab" for x in "xy"]
    edges += [(c, u) for c in "cd" for u in "uv"]
    two = FinPoset("abcdxyuv", edges)
    assert len(naive_path_completion(two)) == 10
    with pytest.raises(BudgetError):
        path_completion(two)


def masks_built(p):
    """The names of ``p``'s masks that are set, read from the slots past
    ``_CoverPoset.__getattr__``, which would build them."""
    built = []
    for name in ("_down", "_up"):
        try:
            vars(FinPoset)[name].__get__(p, FinPoset)
        except AttributeError:
            continue
        built.append(name)
    return built


def same_completion(p):
    # every stored field, covers included, in both read orders: the
    # completion is built from its covers and builds its masks on first read
    want = naive_path_completion(p)
    assert poset_fields(path_completion(p)) == poset_fields(want)
    q = path_completion(p)
    lazy = len(q) > len(p)
    assert masks_built(q) == ([] if lazy else ["_down", "_up"])
    # the forest view and the paths in tree components read covers alone
    _, comp, _, cyclic = _forest_view(q)
    tree_points = [x for x in q.elements if comp[q._pos[x]] not in cyclic]
    for a, b in itertools.islice(itertools.combinations(tree_points, 2), 300):
        assert path(q, a, b) == path(want, a, b)
    assert masks_built(q) == ([] if lazy else ["_down", "_up"])
    _forest_view(want)
    assert poset_fields(q) == poset_fields(want)
    assert masks_built(q) == ["_down", "_up"]
    assert not hasattr(q, "nope")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(small_dags())
def test_completion_matches_rebuild_oracle(p):
    same_completion(p)


@pytest.mark.parametrize("n, prob", [(20, 0.3), (30, 0.2), (40, 0.15)])
def test_completion_matches_rebuild_oracle_on_random_dags(n, prob):
    # names i0 and i2 collide with fresh ids; some points carry colours
    rng = random.Random(n)
    names = list(range(n))
    for v, name in zip(rng.sample(range(n), 2), ("i0", "i2")):
        names[v] = name
    edges = [
        (names[i], names[j])
        for i, j in itertools.combinations(range(n), 2)
        if rng.random() < prob
    ]
    colour = {x: rng.choice("ab") for x in names if rng.random() < 0.2}
    p = FinPoset(names, edges, colour=colour)
    assert len(path_completion(p)) > n
    same_completion(p)


def x_point_tree(seed, n, k):
    """The shape of the benchmark's path posets: a random rooted tree on
    ``n - k`` points, every edge pointing up from the root, in which ``k``
    forks pairwise more than two edges apart get an extra minimal point
    below their children, which makes them X-points (two lower and two
    upper covers), and are then removed, so that the parent and the extra
    point lie below the children.  Names interleave ``i<k>``, other strings
    and ints, so fresh names must skip some."""
    rng = random.Random(seed)
    m = n - k
    while True:
        parent = {v: rng.randrange(v) for v in range(1, m)}
        nbrs = {v: set() for v in range(m)}
        for v, u in parent.items():
            nbrs[u].add(v)
            nbrs[v].add(u)
        forks = [v for v in range(1, m) if len(nbrs[v]) > 2]
        rng.shuffle(forks)
        chosen, near = [], set()
        for v in forks:
            if v not in near and len(chosen) < k:
                chosen.append(v)
                near |= {v} | nbrs[v] | {w for u in nbrs[v] for w in nbrs[u]}
        if len(chosen) == k:
            break
    edges = [(u, v) for v, u in parent.items() if u not in chosen and v not in chosen]
    for extra, r in enumerate(chosen, start=m):
        edges += [(low, v) for low in (parent[r], extra) for v in nbrs[r] - {parent[r]}]
    ids = rng.sample(range(n), n)
    names = {v: (f"i{i}", f"h{i}", f"j{i}", i)[i % 4] for v, i in enumerate(ids)}
    keep = [names[v] for v in range(n) if v not in chosen]
    return FinPoset(keep, [(names[a], names[b]) for a, b in edges])


@pytest.mark.parametrize("n, k", [(40, 1), (60, 3), (90, 2), (120, 1)])
def test_completion_matches_rebuild_oracle_on_x_point_trees(n, k):
    p = x_point_tree(n, n, k)
    assert len(path_completion(p)) == len(p) + k
    same_completion(p)


def all_pairs_defects(p):
    """``(k, i, j)`` for each pair of positions ``i < j`` lacking its join
    (``k = 0``) or meet (``k = 1``): the pairs with common bounds that form
    no point's closed cone, found by testing every pair."""
    out = set()
    for k, strict in enumerate((p._up, p._down)):
        cones = [m | 1 << i for i, m in enumerate(strict)]
        for i, j in itertools.combinations(range(len(p)), 2):
            if (bound := cones[i] & cones[j]) and bound not in cones:
                out.add((k, i, j))
    return out


def candidates(p):
    found = [(k, i, j) for k in (0, 1) for i, j in _candidates(p, k)]
    assert len(found) == len(set(found))
    assert all(i < j for _, i, j in found)
    return set(found)


@settings(derandomize=True, max_examples=300, deadline=None)
@with_examples([bowtie(), diamond(), n_poset(), alt(6), alt(5, True)])
@given(small_dags())
def test_candidates_hold_every_defect(p):
    assert all_pairs_defects(p) <= candidates(p)


@pytest.mark.parametrize("seed", range(12))
def test_candidates_hold_every_defect_on_random_dags(seed):
    rng = random.Random(seed)
    n = rng.randint(20, 60)
    prob = rng.choice([0.03, 0.06, 0.1, 0.2])
    names = rng.sample(range(n), n)
    edges = [
        (names[i], names[j])
        for i, j in itertools.combinations(range(n), 2)
        if rng.random() < prob
    ]
    p = FinPoset(names, edges)
    assert all_pairs_defects(p) <= candidates(p)


def test_completion_of_a_large_tree_scans_only_candidate_pairs():
    # A heap-shaped rooted tree on 0..3999 whose fork 1998, just below the
    # leaves 3997 and 3998, is an X-point through an extra minimal point
    # 4000 and is removed.  Testing all 8 million pairs took seconds.
    r, e = 1998, 4000
    edges = [((v - 1) // 2, v) for v in range(1, e) if r not in ((v - 1) // 2, v)]
    edges += [(low, c) for low in ((r - 1) // 2, e) for c in (2 * r + 1, 2 * r + 2)]
    p = FinPoset([v for v in range(e + 1) if v != r], edges)
    start = time.perf_counter()
    q = path_completion(p)
    assert set(q.elements) - set(p.elements) == {"i0"}
    assert validate_cfpo(p) == (True, None)
    assert time.perf_counter() - start < 2.0


# ------------------------------------------------------- connecting sets


def test_connecting_sets_chain_single_pair():
    p = chain(3)
    assert connecting_sets(p, 0, 2) == [ConnectingSet((0, 2), ("up",))]
    assert connecting_sets(p, 2, 0) == [ConnectingSet((2, 0), ("down",))]


def test_connecting_sets_v_shape_forced_turn():
    p = v_poset()
    assert connecting_sets(p, "a", "b") == [
        ConnectingSet(("a", "r", "b"), ("down", "up"))
    ]


def test_connecting_sets_diamond_endpoints_only():
    # r and t are comparable, so any longer tuple breaks the non-adjacent
    # incomparability clause; only the 2-tuple survives.
    p = diamond()
    assert connecting_sets(p, "r", "t") == [ConnectingSet(("r", "t"), ("up",))]


def test_connecting_sets_diamond_two_turns_for_side_pair():
    p = diamond()
    assert connecting_sets(p, "a", "b") == [
        ConnectingSet(("a", "r", "b"), ("down", "up")),
        ConnectingSet(("a", "t", "b"), ("up", "down")),
    ]


def test_connecting_sets_alternating_poset_full_zigzag():
    p = alt(5)
    assert connecting_sets(p, 0, 4) == [
        ConnectingSet((0, 1, 2, 3, 4), ("down", "up", "down", "up"))
    ]


def test_connecting_sets_disconnected_pair_empty():
    assert connecting_sets(disjoint_chains(), 0, 2) == []


def test_connecting_sets_unknown_id():
    with pytest.raises(ValueError):
        connecting_sets(chain(2), 0, "zzz")


# ----------------------------------------------------------------- path


def test_path_chain():
    assert path(chain(3), 0, 2) == frozenset({0, 1, 2})


def test_path_v_shape():
    assert path(v_poset(), "a", "b") == frozenset({"a", "b", "r"})


def test_path_same_point():
    assert path(chain(3), 1, 1) == frozenset({1})


def test_path_diamond_ambiguous():
    p = diamond()
    assert path(p, "r", "t") == AMBIGUOUS
    assert path(p, "a", "b") == AMBIGUOUS


def test_path_search_counts_its_walks_against_a_budget(monkeypatch):
    # the search takes r, b and a off its stack and finds the diamond's two
    # paths from r to t; a path in a tree component searches no walk
    monkeypatch.setattr(cfpo, "_MAX_PATH_STEPS", 3)
    assert path(diamond(), "r", "t") == AMBIGUOUS
    assert path(chain(400), 0, 399) == frozenset(range(400))
    monkeypatch.setattr(cfpo, "_MAX_PATH_STEPS", 2)
    with pytest.raises(BudgetError, match="path search budget of 2 walks exhausted"):
        path(diamond(), "r", "t")
    with pytest.raises(BudgetError):
        validate_cfpo(diamond())


def test_path_disconnected_none():
    assert path(disjoint_chains(), 0, 2) is None


def test_path_alternating_poset():
    assert path(alt(5), 0, 4) == frozenset({0, 1, 2, 3, 4})


def test_path_symmetric():
    for p, a, b in [
        (chain(3), 0, 2),
        (v_poset(), "a", "b"),
        (diamond(), "r", "t"),
        (disjoint_chains(), 0, 2),
    ]:
        assert path(p, a, b) == path(p, b, a)


def test_path_through_completion_centre():
    q = path_completion(bowtie())
    assert path(q, "a", "b") == frozenset({"a", "i0", "b"})
    assert path(q, "x", "y") == frozenset({"x", "i0", "y"})
    assert path(q, "a", "x") == frozenset({"a", "i0", "x"})


def test_path_on_trees_matches_meet_segments():
    for p in all_trees(5):
        for x, y in itertools.combinations(p.elements, 2):
            m = naive_meet(p, x, y)
            expected = frozenset(
                z
                for z in p.elements
                if leq(p, m, z) and (leq(p, z, x) or leq(p, z, y))
            )
            assert path(p, x, y) == expected
            assert path(p, y, x) == expected


def test_path_on_oriented_tree_is_the_tree_path():
    # Such an order has many connecting sets between far-apart points;
    # its paths are still the undirected paths of the Hasse tree.
    edges = oriented_tree(80, 80)
    p = FinPoset(range(80), edges)
    nbrs = {x: set() for x in range(80)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    rng = random.Random(80)
    for _ in range(60):
        a, b = rng.sample(range(80), 2)
        parent, todo = {a: None}, [a]
        while todo:
            x = todo.pop()
            for y in nbrs[x] - parent.keys():
                parent[y] = x
                todo.append(y)
        expected, x = set(), b
        while x is not None:
            expected.add(x)
            x = parent[x]
        assert path(p, a, b) == expected


@settings(derandomize=True, max_examples=120, deadline=None)
@with_examples(natural_posets(5))
@given(small_dags())
def test_path_and_validate_match_connecting_set_oracle(p):
    # validate_cfpo holds exactly when the completion's Hasse diagram is a
    # forest (the converse is argued at validate_cfpo)
    q = path_completion(p)
    assert validate_cfpo(p)[0] == hasse_is_forest(q)
    for a, b in itertools.product(q.elements, repeat=2):
        ps = [frozenset({a})] if a == b else naive_paths(q, a, b)
        expected = None if not ps else AMBIGUOUS if len(ps) > 1 else ps[0]
        assert path(q, a, b) == expected
    bad = [
        (x, y)
        for x, y in itertools.combinations(p.elements, 2)
        if len(naive_paths(q, x, y)) > 1
    ]
    assert validate_cfpo(p) == ((False, bad[0]) if bad else (True, None))


# --------------------------------------------------------- validate_cfpo


def test_validate_trees_are_cfpos():
    for p in all_trees(5):
        assert validate_cfpo(p) == (True, None)


def test_validate_diamond_rejected_with_first_pair():
    assert validate_cfpo(diamond()) == (False, ("a", "b"))


def test_validate_bowtie_is_cfpo():
    assert validate_cfpo(bowtie()) == (True, None)


def test_validate_alternating_posets():
    for n in (2, 5, 8, 12):
        assert validate_cfpo(alt(n)) == (True, None)


def test_validate_disjoint_chains():
    assert validate_cfpo(disjoint_chains()) == (True, None)


def test_validate_oriented_tree_takes_one_forest_check():
    # A walk search per pair takes seconds on this order (12 720 pairs); the
    # forest check on the completion's Hasse diagram needs none.
    p = FinPoset(range(160), oriented_tree(160, 160))
    start = time.perf_counter()
    assert validate_cfpo(p) == (True, None)
    assert time.perf_counter() - start < 0.1


def test_validate_searches_the_witness_only_in_components_with_a_cycle():
    # The walk search over the 12 720 pairs of the tree takes seconds; no
    # pair of the tree component can have two paths, nor a pair that spans
    # two components, so only the diamond's pairs are searched.
    diamond = [(160, 161), (160, 162), (161, 163), (162, 163)]
    p = FinPoset(range(164), oriented_tree(160, 160) + diamond)
    start = time.perf_counter()
    assert validate_cfpo(p) == (False, (160, 163))
    assert time.perf_counter() - start < 0.1


def test_the_witness_search_stops_at_its_budget():
    # the 31st of 40 random orders of 22-30 points (each pair i < j an edge
    # with probability 0.2, drawn from Random(11)) is not cycle-free, and
    # its witness search runs through exponentially many walks
    rng = random.Random(11)
    for _ in range(31):
        n = rng.randint(22, 30)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2]
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="path search budget of 200000 walks"):
        validate_cfpo(FinPoset(range(n), edges))
    assert time.perf_counter() - start < 2


# ------------------------------------------------------------------ alt


def test_alt_single_point():
    p = alt(1)
    assert p.elements == (0,)
    assert set(p.lt) == set()


def test_alt_two_points_first_above_second():
    assert set(alt(2).lt) == {(1, 0)}
    assert set(alt(2, reversed=True).lt) == {(0, 1)}


def test_alt_three_points_valley():
    assert set(alt(3).lt) == {(1, 0), (1, 2)}
    assert set(alt(3, reversed=True).lt) == {(0, 1), (2, 1)}


def test_alt_five_points_frozen_relation():
    assert set(alt(5).lt) == {(1, 0), (1, 2), (3, 2), (3, 4)}


def test_alt_rejects_nonpositive():
    with pytest.raises(ValueError):
        alt(0)
    with pytest.raises(ValueError):
        alt(-2)


# ----------------------------------------------------------- embeddings


def zigzag(p, reversed=False, budget=math.inf):
    """The longest zigzag that ``alt_rank``'s search of one orientation
    finds first, as nodes, and whether its budget ran out."""
    best, left = _zigzag(p, reversed, budget)
    return [p.elements[z] for z in best], left < 0


def test_embeds_two_pattern_in_chain():
    assert zigzag(chain(2)) == ([1, 0], False)
    assert zigzag(chain(2), reversed=True) == ([0, 1], False)


def test_embeds_none_in_antichain():
    assert zigzag(antichain(3)) == ([0], False)


def test_embeds_three_pattern_in_v():
    assert zigzag(v_poset()) == (["a", "r", "b"], False)


def test_embeds_budget_exhausted():
    assert zigzag(alt(8), budget=2)[1]


# ------------------------------------------------------------- alt_rank


def test_alt_rank_self():
    for n in range(1, 9):
        assert alt_rank(alt(n)) == n


def test_alt_rank_reversed_self():
    for n in (2, 3, 6):
        assert alt_rank(alt(n, reversed=True)) == n


def test_alt_rank_chain_is_two():
    assert alt_rank(chain(5)) == 2
    assert alt_rank(chain(2)) == 2


def test_alt_rank_single_point_and_antichain():
    assert alt_rank(chain(1)) == 1
    assert alt_rank(antichain(4)) == 1


def test_alt_rank_v_shape():
    assert alt_rank(v_poset()) == 3


def test_alt_rank_n_poset_is_zigzag_of_four():
    assert alt_rank(n_poset()) == 4


def test_alt_rank_bowtie():
    assert alt_rank(bowtie()) == 3


def test_alt_rank_diamond():
    assert alt_rank(diamond()) == 3


def test_alt_rank_monotone_under_restriction():
    big = alt(8)
    full = alt_rank(big)
    assert alt_rank(big.restrict([0, 1, 2])) == 3
    assert alt_rank(big.restrict([2, 3, 4, 5])) == 4
    assert alt_rank(big.restrict([0, 2, 4])) == 1
    for keep in ([0, 1, 2], [2, 3, 4, 5], [0, 2, 4]):
        assert alt_rank(big.restrict(keep)) <= full


def test_alt_rank_empty_rejected():
    with pytest.raises(ValueError):
        alt_rank(FinPoset([], []))


def alt_beside_diamond(n):
    """``alt(n)`` and, after it in node order, a diamond: not cycle-free, so
    ``alt_rank`` searches it under its budget, with the candidates of
    ``alt(n)`` first."""
    d = [(n, n + 1), (n, n + 2), (n + 1, n + 3), (n + 2, n + 3)]
    return FinPoset(range(n + 4), covers(alt(n)) + tuple(d))


def test_alt_rank_budget():
    with pytest.raises(BudgetError):
        alt_rank(alt_beside_diamond(10), budget=5)


def is_induced_zigzag(p, emb, n, reversed):
    """``emb`` maps the positions of the zigzag on ``n`` points injectively
    to nodes, and ``emb[i]`` lies below ``emb[j]`` exactly when position
    ``i`` is a valley next to ``j`` (odd positions are valleys unless
    ``reversed``)."""
    if sorted(emb) != list(range(n)) or len(set(emb.values())) != n:
        return False
    return all(
        p.less(emb[i], emb[j]) == (abs(i - j) == 1 and (i % 2 == 1) != reversed)
        for i in range(n)
        for j in range(n)
    )


def test_alt_rank_on_oriented_tree_within_budget():
    p = FinPoset(range(30), oriented_tree(0, 30))
    r = alt_rank(p)
    assert any(
        (emb := naive_embeds_alt(p, r, rev)) is not None
        and is_induced_zigzag(p, emb, r, rev)
        for rev in (False, True)
    )
    assert naive_embeds_alt(p, r + 1, False) is None
    assert naive_embeds_alt(p, r + 1, True) is None


def attempt(f, *args):
    try:
        return f(*args)
    except BudgetError as e:
        return str(e)


@pytest.mark.parametrize("seed", range(3))
def test_zigzag_search_matches_the_search_per_length(seed):
    # one search per orientation finds first the longest zigzag that a
    # search for that length alone returns, trying the same candidates as
    # the search for as many points as the order has, and never more
    # candidates than the searches per length for the rank
    rng = random.Random(seed)
    for _ in range(150):
        n = rng.randint(1, 12)
        names, prob = rng.sample(range(n), n), rng.random() * 0.6
        edges = [
            (names[i], names[j])
            for i, j in itertools.combinations(range(n), 2)
            if rng.random() < prob
        ]
        p = FinPoset(names, edges)
        assert alt_rank(p) == naive_alt_rank(p)
        for reversed in (False, True):
            best, _ = zigzag(p, reversed)
            want = naive_embeds_alt(p, len(best), reversed)
            assert want == dict(enumerate(best))
            assert naive_embeds_alt(p, len(best) + 1, reversed) is None
        reversed, budget = rng.random() < 0.5, rng.randrange(40)
        ran_out = isinstance(attempt(naive_embeds_alt, p, n, reversed, budget), str)
        assert zigzag(p, reversed, budget)[1] == ran_out
        if isinstance(naive := attempt(naive_alt_rank, p, budget), int):
            assert alt_rank(p, budget) == naive


def test_zigzag_search_reaches_1100_points():
    p = alt(1100)
    assert zigzag(p) == (list(range(1100)), False)
    assert alt_rank(p) == 1100


def test_alt_rank_budget_reports_the_longest_zigzag_found():
    # the 5 candidates 0, 1, 0, 2, 1 place 0, 1 and 2 of alt(10), the
    # second 0 and 1 being images already; the 6th is over budget
    with pytest.raises(BudgetError, match="best lower bound 3$"):
        alt_rank(alt_beside_diamond(10), budget=5)


def forest_rank_is_the_rank(p):
    """On an order whose completion's Hasse diagram is a forest, the pass
    over that forest gives the search oracle's rank, and ``alt_rank``
    takes it."""
    q = path_completion(p)
    assert hasse_is_forest(q)
    assert alt_rank(p) == _forest_rank(p, q) == naive_alt_rank(p, budget=10**7)


@settings(derandomize=True, max_examples=150, deadline=None)
@with_examples([p for p in natural_posets(5) if hasse_is_forest(path_completion(p))])
@given(small_dags())
def test_forest_rank_matches_the_search_oracle(p):
    if hasse_is_forest(path_completion(p)):
        forest_rank_is_the_rank(p)


@pytest.mark.parametrize("n", range(1, 15))
def test_forest_rank_matches_the_search_oracle_on_oriented_trees(n):
    for seed in range(30):
        forest_rank_is_the_rank(FinPoset(range(n), oriented_tree(seed, n)))


def test_alt_rank_of_a_120_node_oriented_tree_is_exact():
    # the search ran out of its default budget here with lower bound 8
    assert alt_rank(FinPoset(range(120), oriented_tree(0, 120))) == 9


def test_alt_rank_searches_when_the_completion_runs_out(monkeypatch):
    # the bowtie's completion needs one point; with none allowed, the
    # search runs on the bowtie itself
    monkeypatch.setattr("omegacat.cfpo._MAX_COMPLETION_POINTS", 0)
    assert alt_rank(bowtie()) == 3


def test_path_queries_on_one_completion_build_the_forest_once(monkeypatch):
    builds = []
    real = cfpo._forest_view

    def counted(p):
        if p._forest is None:
            builds.append(p)
        return real(p)

    monkeypatch.setattr(cfpo, "_forest_view", counted)
    q = path_completion(x_point_tree(60, 60, 3))
    rng = random.Random(0)
    for _ in range(50):
        assert path(q, *rng.sample(q.elements, 2)) not in (None, AMBIGUOUS)
    assert builds == [q]


# ------------------------------------- pairs at different path lengths


def test_zigzag_pairs_of_distinct_span_in_distinct_orbits():
    p = alt(6)
    rep = orbits(p, 2)

    def class_of(t):
        for i, orb in enumerate(rep.orbits):
            if t in orb:
                return i
        raise AssertionError(f"{t} missing from orbit report")

    assert class_of((0, 2)) != class_of((0, 4))
