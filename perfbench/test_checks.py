"""Tests of the benchmark's own output checks, with negative controls.

Run from the repository root with ``python3 -m pytest perfbench``.  The
expected values come from hand derivations, and the orbit test is
compared with a brute-force search over all permutations.
"""

import itertools
import random

import pytest

import checks as C
from checks import INF, Att, Spec, Wrong
from workloads import pair_orbits


def wrong(fn, *args):
    with pytest.raises(Wrong):
        fn(*args)


# ---------------------------------------------------------------- chains


def chain_text(word):
    lines = [
        f"node {i}" + ("" if tag == "1" else f" colour={tag}")
        for i, tag in enumerate(word)
    ]
    lines += [f"edge {i} {i + 1}" for i in range(len(word) - 1)]
    return "\n".join(lines) + "\n"


def test_embedding_decisions():
    t = C.parse("Q(a,b)^c^Q(1)")
    assert C.embeds(list("abbac11"), t)
    assert C.embeds(list("c"), t)
    assert not C.embeds(list("cab"), t)  # c lies above every a and b
    assert not C.embeds(list("acc"), t)  # only one c point
    assert not C.embeds(list("d"), t)
    assert C.embeds(list("1a1"), C.parse("1^Q(a)^1"))
    assert not C.embeds(list("11a"), C.parse("1^Q(a)^1"))


def test_chain_sample_accepts_a_faithful_sample():
    t = C.parse("Q(a,b)^c^Q(1)")
    C.check_chain_sample(0, chain_text(list("abbac11")), t, 7)


@pytest.mark.parametrize(
    "word, size",
    [
        ("abbc11a", 7),  # order not realisable
        ("aaac111", 7),  # colour b missing
        ("abbac1", 7),  # one point short
        ("abbadc1", 7),  # colour not in the term
    ],
)
def test_chain_sample_rejects(word, size):
    wrong(C.check_chain_sample, 0, chain_text(list(word)), C.parse("Q(a,b)^c^Q(1)"), size)


def test_chain_sample_rejects_a_non_chain_and_an_error_exit():
    t = C.parse("Q(a)")
    text = chain_text(list("aaa")).replace("edge 1 2", "edge 0 2")
    wrong(C.check_chain_sample, 0, text, t, 3)
    wrong(C.check_chain_sample, 2, chain_text(list("aaa")), t, 3)


# ---------------------------------------------------------------- verdicts

YES = (
    "categorical: yes\n"
    "condition finite-ramification: pass\n"
    "condition chains-categorical: pass\n"
    "condition finite-chain-family: pass\n"
)
OMEGA_NO = (
    "categorical: no — chain [] * [1] w is not a term\n"
    "condition finite-ramification: fail witness [] * [1] w\n"
    "condition chains-categorical: fail witness [] * [1] w\n"
    "condition finite-chain-family: pass\n"
)


def spec(text_defs, root=None):
    defs = {}
    for name, spine, atts in text_defs:
        defs[name] = (C.parse(spine), tuple(Att(*a) for a in atts))
    return Spec(defs, root or text_defs[0][0])


V = spec([("R", "1", [("orbit 0", 2, "L")]), ("L", "1", [])])
OMEGA = spec([("T", "1", [("orbit 0", INF, "T")])])
DENSE = spec([("T", "Q(1)", [("orbit 0", INF, "T")])])


def test_spec_classes():
    assert C.expected_class(V) == "yes"
    assert C.expected_class(OMEGA) == "no"
    assert C.expected_class(DENSE) == "open"
    two = spec(
        [("A", "Q(a)", [("orbit 0", 1, "B")]), ("B", "a^b", [("orbit 1", 2, "A")])]
    )
    assert C.expected_class(two) == "open"
    fin = spec([("A", "a", [("orbit 0", 1, "B")]), ("B", "b", [("orbit 0", 2, "A")])])
    assert C.expected_class(fin) == "no"


def test_verdict_consistency():
    assert C.check_verdict(0, YES, "yes") == (True, True, True, True)
    assert C.check_verdict(1, OMEGA_NO, "no") == (False, False, False, True)


@pytest.mark.parametrize(
    "code, out, klass",
    [
        (1, YES, "open"),  # exit code disagrees
        (0, YES.replace("ramification: pass", "ramification: fail"), "open"),
        (1, OMEGA_NO.replace("chain [] * [1] w", "chain [1]", 1), "open"),
        (1, OMEGA_NO, "yes"),  # an acyclic spec judged no
        (0, YES, "no"),  # a finite-spine cycle judged yes
        (1, OMEGA_NO.replace("\ncondition finite-chain-family: pass", ""), "open"),
    ],
)
def test_verdict_rejects(code, out, klass):
    wrong(C.check_verdict, code, out, klass)


def test_finite_chains_and_table_of_the_v_spec():
    C.check_chains(0, "[1^1]\n", V, "yes")
    table = "cap: 3\ntype 0: [1^1]\ncell type=0 pos=0 count=2\ncell type=0 pos=1 count=1\n"
    C.check_table(0, table, V)
    wrong(C.check_chains, 0, "[1]\n", V, "yes")
    wrong(C.check_table, 0, table.replace("count=2", "count=1"), V)


def test_finite_table_with_omega_and_overflow():
    s = spec(
        [
            ("R", "1^c", [("orbit 0", INF, "L"), ("orbit 1", 2, "M")]),
            ("L", "a^b", []),
            ("M", "1", [("orbit 0", 2, "N")]),
            ("N", "d", []),
        ]
    )
    # chains: 1 a b (omega many), 1 c 1 d (4 = 2 x 2 of them)
    assert C.finite_chains(s) == {tuple("1ab"): INF, tuple("1c1d"): 4}
    assert C.finite_table(s) == [
        "cap: 3",
        "type 0: [1^a^b]",
        "type 1: [1^c^1^d]",
        "cell type=0 pos=0 count=omega",
        "cell type=0 pos=1 count=1",
        "cell type=0 pos=2 count=1",
        "cell type=1 pos=2 count=2",
        "cell type=1 pos=3 count=1",
        "indeterminate type=1 pos=0 count=more-than-3",
        "indeterminate type=1 pos=1 count=more-than-3",
    ]


def test_chains_of_cyclic_specs_need_a_tail():
    C.check_chains(0, "[] * [1] w\n", OMEGA, "no")
    wrong(C.check_chains, 0, "[1]\n", OMEGA, "no")
    wrong(C.check_chains, 0, "[b]\n[a]\n", DENSE, "open")  # not sorted


# ---------------------------------------------------------------- trees


def test_sample_sizes():
    assert C.sample_size(V, 1, 2) == 3
    assert C.sample_size(DENSE, 4, 3) == 363
    assert C.sample_size(DENSE, 3, 2) == 30
    cut = spec([("T", "Q(1)", [("top", 2, "L")]), ("L", "1", [])])
    assert C.sample_size(cut, 1, 3) == 3 + 1 + 2


V_SAMPLE = "node 0\nnode 1\nnode 2\nedge 0 1\nedge 0 2\n"


def test_tree_sample_check():
    C.check_tree_sample(0, V_SAMPLE, 3)
    wrong(C.check_tree_sample, 0, V_SAMPLE, 4)
    wrong(C.check_tree_sample, 0, "node 0\nnode 1\nnode 2\nedge 0 1\n", 3)
    wrong(C.check_tree_sample, 0, V_SAMPLE + "edge 1 2\n", 3)


def test_orbit2_check():
    t = C.read_tree(V_SAMPLE)
    good = "equivalent\nbase 0 -> 0\nbase 1 -> 2\nodd 2 -> 1\n"
    C.check_orbit2(0, good, t, ("0", "1"), ("0", "2"))
    wrong(C.check_orbit2, 1, "inequivalent\n", t, ("0", "1"), ("0", "2"))
    identity = "equivalent\nbase 0 -> 0\nbase 1 -> 1\nodd 2 -> 2\n"
    wrong(C.check_orbit2, 0, identity, t, ("0", "1"), ("0", "2"))
    coloured = C.read_tree(V_SAMPLE.replace("node 2", "node 2 colour=a"))
    C.check_orbit2(1, "inequivalent\n", coloured, ("0", "1"), ("0", "2"))
    wrong(C.check_orbit2, 0, good, coloured, ("0", "1"), ("0", "2"))


def random_tree(rng, n):
    lines = [f"node {v}" + (" colour=a" if rng.random() < 0.3 else "") for v in range(n)]
    lines += [f"edge {rng.randrange(v)} {v}" for v in range(1, n)]
    return C.read_tree("\n".join(lines) + "\n")


def brute_same_orbit(t, p0, p1):
    for perm in itertools.permutations(t.nodes):
        f = dict(zip(t.nodes, perm))
        if (f[p0[0]], f[p0[1]]) != p1:
            continue
        if all(t.label[x] == t.label[f[x]] for x in t.nodes) and all(
            (t.parent[x] is None and t.parent[f[x]] is None)
            or (t.parent[x] is not None and t.parent[f[x]] == f[t.parent[x]])
            for x in t.nodes
        ):
            return True
    return False


def test_orbit_codes_agree_with_brute_force():
    rng = random.Random(5)
    for _ in range(12):
        t = random_tree(rng, rng.randint(3, 7))
        keys = pair_orbits(t)
        for p0, p1 in itertools.product(sorted(keys), repeat=2):
            want = brute_same_orbit(t, p0, p1)
            assert C.same_orbit(t, p0, p1) == want
            assert (keys[p0] == keys[p1]) == want


# ---------------------------------------------------------------- cfpo

# r has lower covers l1, l2 and upper covers u1, u2; x hangs above u1.
EDGES = [("l1", "r"), ("l2", "r"), ("r", "u1"), ("r", "u2"), ("u1", "x")]


def test_path_check():
    names = {}
    C.check_path(0, "i0 l1 u1 x\n", EDGES, {"r"}, "l1", "x", names)
    assert names == {"r": "i0"}
    C.check_path(0, "u1 x\n", EDGES, {"r"}, "x", "u1", names)
    wrong(C.check_path, 0, "l1 u1 x\n", EDGES, {"r"}, "l1", "x", {})  # r lost
    wrong(C.check_path, 0, "i0 l1 u1 u2 x\n", EDGES, {"r"}, "l1", "x", {})
    wrong(C.check_path, 0, "i1 l1 u1 x\n", EDGES, {"r"}, "l1", "x", {})  # extra point
    wrong(C.check_path, 0, "x u1\n", EDGES, {"r"}, "x", "u1", {})  # unsorted
    wrong(C.check_path, 0, "i3 l2 u2\n", EDGES, {"r"}, "l2", "u2", {"r": "i0"})


def test_validate_check():
    nodes = {"a", "b", "r", "t"}
    C.check_validate(0, "ok\n", nodes, False)
    C.check_validate(1, "not cycle-free: pair a b\n", nodes, True)
    wrong(C.check_validate, 0, "ok\n", nodes, True)
    wrong(C.check_validate, 1, "not cycle-free: pair a b\n", nodes, False)
    wrong(C.check_validate, 1, "not cycle-free: pair b a\n", nodes, True)
    wrong(C.check_validate, 1, "not cycle-free: pair a z\n", nodes, True)


def zigzag(n):
    pairs = [(i, i - 1) for i in range(1, n, 2)] + [(i, i + 1) for i in range(1, n - 1, 2)]
    return list(range(n)), pairs


def test_brute_alt_rank():
    assert C.brute_alt_rank(*zigzag(7)) == 7
    assert C.brute_alt_rank([0, 1, 2], [(0, 1), (1, 2), (0, 2)]) == 2  # chain
    assert C.brute_alt_rank([0, 1, 2], []) == 1  # antichain
    # the N: a < b > c < d with a, d incomparable to the far ends
    assert C.brute_alt_rank("abcd", [("a", "b"), ("c", "b"), ("c", "d")]) == 4
    # the diamond has only zigzags of three points
    diamond = [("r", "a"), ("r", "b"), ("a", "t"), ("b", "t"), ("r", "t")]
    assert C.brute_alt_rank("rabt", diamond) == 3


def test_alt_rank_check():
    C.check_alt_rank(0, "5\n", 5)
    wrong(C.check_alt_rank, 0, "4\n", 5)
    wrong(C.check_alt_rank, 3, "", 5)
