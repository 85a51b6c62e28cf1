"""Tests for the linear-order term algebra: parsing, the canonical normal
form under the four isomorphism laws, orbit descriptors, and seeded
materialization of finite samples.

Golden normalization verdicts are frozen from hand derivations; sampled
order-isomorphism is cross-checked by the back-and-forth oracle in
oracles.py during fuzzing.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random

import pytest

from omegacat import posets
from omegacat.errors import BudgetError, ParseError
from omegacat.posets import FinPoset
from omegacat.terms import (
    IRRATIONAL,
    UNCOLOURED,
    Concat,
    Shuffle,
    Singleton,
    _chain,
    _down_word,
    _draws,
    _emit,
    _later_points,
    _redexes_at,
    _sample_points,
    _up_word,
    applicable_rewrites,
    collapse_factors,
    concat,
    equivalent,
    factors,
    is_finite,
    is_normal,
    materialize,
    min_size,
    normalize,
    one_orbits,
    orbit_paths,
    parse_term,
    render_term,
    shuffle,
    subterm_at,
    term_key,
)

from oracles import (
    _naive_emit,
    naive_collapse_factors,
    naive_final_segment,
    naive_initial_segment,
    naive_later_points,
    naive_law4_redexes,
    naive_normalize,
    naive_sample_points,
    naive_validate_tree,
    poset_fields,
    random_term,
    rebuild,
    reduce_random,
)


ONE = Singleton("1")


def t(text):
    return parse_term(text)


def sample_points(term, budget, seed):
    """``_sample_points``'s sample as one ``(OrbitDescriptor, tag)`` row per
    point, the form of ``naive_sample_points``."""
    leaves, table = _sample_points(term, budget, seed)
    return [table[i] for i in leaves]


# ---------------------------------------------------------------- structure


def test_concat_flattens_and_collapses():
    assert concat([ONE]) is ONE
    c = concat([concat([ONE, ONE]), ONE])
    assert isinstance(c, Concat) and len(c.factors) == 3


def test_shuffle_dedups_and_sorts():
    s = shuffle([Singleton("b"), Singleton("a"), Singleton("b")])
    assert s.constituents == (Singleton("a"), Singleton("b"))
    assert render_term(s) == "Q(a,b)"


def test_terms_keep_their_value_contract():
    x = t("Q(a)^b")
    assert repr(x) == (
        "Concat(factors=(Shuffle(constituents=(Singleton(tag='a'),)), "
        "Singleton(tag='b')))"
    )
    a = Shuffle(constituents=(Singleton(tag="a"),))
    assert Concat(factors=(a, Singleton(tag="b"))) == x
    for node, field in ((x, "factors"), (x.factors[0], "constituents"), (ONE, "tag")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, field, None)
    # equal terms built apart, one of them after computing its facts
    normalize(x), render_term(x), term_key(x), min_size(x), is_finite(x)
    for y in (rebuild(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert y is not x and y == x and hash(y) == hash(x)
    assert x != t("Q(a)^c") and x != ONE and x != "Q(a)^b"
    assert repr(normalize(x)) == repr(x)
    assert not is_normal(Shuffle(()))


def test_term_total_order():
    terms = [t("Q(1)"), ONE, t("1^1"), t("Q(a)")]
    ranked = sorted(terms, key=term_key)
    assert ranked[0] == ONE  # singletons before shuffles before concats
    assert isinstance(ranked[-1], Concat)


# ---------------------------------------------------------------- parsing


def test_parse_render_round_trip():
    for text in ["1", "a", "Q(1)", "Q(a,b)", "1^Q(1)", "Q(a,1^1)", "Q(a,Q(b))"]:
        assert render_term(t(text)) == text


def test_parse_is_whitespace_insensitive():
    assert t(" Q( a , b ) ^ 1 ") == t("Q(a,b)^1")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        t("Q(")
    with pytest.raises(ParseError):
        t("1 ^")
    with pytest.raises(ParseError):
        t("Q")  # bare Q is reserved
    with pytest.raises(ParseError):
        t("Q(a,,b)")
    with pytest.raises(ParseError):
        t("")


@pytest.mark.parametrize(
    "nest",
    [
        lambda n: "Q(" * n + "a" + ")" * n,  # shuffles only
        lambda n: "Q(a^" * (n // 2) + "b" + ")" * (n // 2),  # both alternate
        lambda n: "Q(" * (n // 2) + "b" + ")^a" * (n // 2),  # first factors
        lambda n: "a^" + "Q(" * (n - 1) + "b" + ")" * (n - 1),
    ],
)
def test_parse_counts_shuffles_and_concatenations_as_nesting(nest):
    assert render_term(parse_term(nest(200))) == nest(200)
    with pytest.raises(ParseError, match="nested deeper than 200"):
        parse_term(nest(202))


def test_random_terms_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        x = random_term(rng, depth=4, colours=("a", "b"))
        assert parse_term(render_term(x)) == x


# ---------------------------------------------------------------- normalize


def test_golden_normal_forms():
    # the four frozen rewrite-law verdicts
    assert render_term(normalize(t("Q(1,1)"))) == "Q(1)"
    assert render_term(normalize(t("Q(1,Q(1))"))) == "Q(1)"
    assert render_term(normalize(t("Q(1)^Q(1)"))) == "Q(1)"
    assert render_term(normalize(t("Q(1)^1^Q(1)"))) == "Q(1)"


def test_more_normal_forms_by_hand():
    cases = [
        ("Q(a,b)", "Q(a,b)"),  # already normal
        ("Q(a,Q(a,b))", "Q(a,b)"),  # nested shuffle absorbs its superset
        ("Q(b,Q(a))", "Q(b,Q(a))"),  # b not among inner constituents: stays
        ("Q(Q(a))", "Q(a)"),
        ("1^1", "1^1"),
        ("Q(a)^b^Q(a)", "Q(a)^b^Q(a)"),  # separator not a constituent: stays
        ("Q(a)^a^Q(a)", "Q(a)"),
        ("Q(a)^a", "Q(a)^a"),  # no flanking shuffle on the right
        ("Q(1^1)^1^1^Q(1^1)", "Q(1^1)"),  # separator spans two factors
        ("Q(1)^Q(Q(1))", "Q(1)"),  # inner normalization first, then collapse
        ("Q(a)^Q(a)^Q(a)", "Q(a)"),
        ("Q(a)^a^Q(a)^b^Q(a)", "Q(a)^b^Q(a)"),
    ]
    for src, want in cases:
        assert render_term(normalize(t(src))) == want, src


def test_normalize_idempotent_on_random_terms():
    rng = random.Random(23)
    for _ in range(300):
        x = random_term(rng, depth=4, colours=("a", "b", "c"))
        nx = normalize(x)
        assert normalize(rebuild(nx)) == nx


def test_is_normal_matches_normalize_fixpoint():
    rng = random.Random(29)
    for _ in range(300):
        x = random_term(rng, depth=4, colours=("a", "b"))
        assert is_normal(x) == (normalize(x) == x)
        assert is_normal(rebuild(normalize(x)))


def test_normalize_equals_the_normal_form_computed_afresh():
    # terms share subterms, so stored normal forms are read as well as
    # made; each copy starts with none
    rng = random.Random(37)
    pool = []
    for _ in range(400):
        x = random_term(rng, depth=4, colours=("a", "b", "c"))
        if pool and rng.random() < 0.5:
            x = concat([x, rng.choice(pool)])
        pool.append(x)
        assert normalize(x) == naive_normalize(rebuild(x))
        assert normalize(rebuild(x)) == naive_normalize(rebuild(x))
    # hand-built nodes that the smart constructors never make
    a, b = Singleton("a"), Singleton("b")
    for x in (Concat((a,)), Concat((Concat((a, b)), a)), Shuffle((b, a, b))):
        assert normalize(x) == naive_normalize(rebuild(x)) != x


def test_a_value_normalize_rejects_is_not_normal():
    assert not is_normal(Shuffle(()))
    assert not is_normal(Shuffle((Shuffle(()),)))


def test_equivalent():
    assert equivalent(t("Q(1)^1^Q(1)"), t("Q(1,1)"))
    assert not equivalent(t("Q(1)"), t("1^Q(1)"))


# ---------------------------------------------------------------- rewriting


def test_applicable_rewrites_enumerates_redexes():
    steps = applicable_rewrites(t("Q(1)^1^Q(1)"))
    assert any(render_term(res) == "Q(1)" for _, res in steps)
    assert applicable_rewrites(t("Q(a,b)")) == []


def test_collapse_factors_equals_the_rescanning_collapse():
    # words over a few shuffles and their constituents, so that collapses
    # overlap, nest and chain across one another
    pool = [
        factors(normalize(t(x)))
        for x in ("Q(a,b)", "Q(a,b^c)", "Q(a,Q(a,b)^c)", "Q(b^c)", "a", "b", "c", "b^c", "Q(a,b)^c")
    ]
    rng = random.Random(21)
    collapsed = 0
    for _ in range(3000):
        word = [f for _ in range(rng.randint(0, 14)) for f in rng.choice(pool)]
        redexes = [r for i in range(len(word)) for r in _redexes_at(word, i)]
        assert redexes == naive_law4_redexes(word), word
        got = collapse_factors(word)
        assert got == naive_collapse_factors(word), word
        assert naive_law4_redexes(got) == []
        collapsed += len(got) < len(word)
    assert collapsed > 500


def test_random_rule_orders_reach_the_same_normal_form():
    rng = random.Random(31)
    for _ in range(40):
        x = random_term(rng, depth=4, colours=("a", "b"))
        want = normalize(x)
        for _ in range(10):
            assert reduce_random(x, rng) == want


# ---------------------------------------------------------------- orbits


def test_one_orbit_counts_frozen():
    assert len(one_orbits(t("Q(1)"))) == 1
    assert len(one_orbits(t("Q(a,b)"))) == 2
    assert len(one_orbits(t("1^Q(1)"))) == 2
    assert len(one_orbits(t("Q(a)^a"))) == 2
    assert len(one_orbits(t("Q(a,a^a)"))) == 3  # lone a; pair-first; pair-second


def test_one_orbit_descriptor_paths():
    descs = one_orbits(t("1^Q(1)"))
    assert [d.index for d in descs] == [0, 1]
    assert [d.path for d in descs] == [(0,), (1, 0)]


def test_one_orbits_requires_normal_form():
    with pytest.raises(ValueError):
        one_orbits(t("Q(1)^Q(1)"))


def test_one_orbits_on_finite_terms_is_one_per_point():
    x = t("a^b^a")
    assert len(one_orbits(x)) == 3


def check_segment_words(x) -> int:
    """Assert that the one-descent words of ``x`` equal the factors of the
    term segments at every leaf, and its later points those of the
    recursive search, in order, at every pair of leaves; return how many
    pairs had later points."""
    leaves = orbit_paths(x)
    found = 0
    for p in leaves:
        down = naive_initial_segment(x, p)
        up = naive_final_segment(x, p)
        assert _down_word(x, p) == list(factors(down)), (x, p)
        assert _up_word(x, p) == (list(factors(up)) if up is not None else []), (x, p)
        for q in leaves:
            later = _later_points(x, p, q)
            assert later == naive_later_points(x, p, q), (x, p, q)
            found += bool(later)
    return found


def test_segment_words_equal_the_term_segments():
    # as built, shuffles may hold concatenations and shuffles of one
    # constituent; normalised, they may not
    rng = random.Random(17)
    pairs = concat_constituents = 0
    for _ in range(150):
        raw = random_term(rng, depth=4)
        concat_constituents += any(
            isinstance(subterm_at(raw, p[:d]), Shuffle)
            and isinstance(subterm_at(raw, p[: d + 1]), Concat)
            for p in orbit_paths(raw)
            for d in range(len(p))
        )
        for x in (raw, normalize(raw)):
            pairs += check_segment_words(x)
    assert concat_constituents > 40
    assert pairs > 20000


# ---------------------------------------------------------------- materialize


def test_materialize_finite_exact():
    p, ann = materialize(t("1^1"), budget=2, seed=0)
    assert len(p) == 2 and naive_validate_tree(p)[0]
    assert p.lt == frozenset({(0, 1)})
    assert ann[0].index == 0 and ann[1].index == 1


def test_materialize_finite_budget_too_small():
    with pytest.raises(BudgetError):
        materialize(t("1^1^1"), budget=2, seed=0)
    with pytest.raises(BudgetError):
        materialize(t("Q(a,b)"), budget=1, seed=0)


def test_materialize_shuffle_interdense():
    p, ann = materialize(t("Q(a,b)"), budget=8, seed=5)
    assert len(p) == 8
    seqcols = [p.colour.get(i) for i in range(8)]
    assert set(seqcols) == {"a", "b"}
    # alternation: some colour recurs around the other
    text = "".join(c for c in seqcols)
    assert "aba" in text.replace("bb", "b").replace("aa", "a") or "bab" in text.replace(
        "bb", "b"
    ).replace("aa", "a")


def test_materialize_every_pair_alternates_at_triple_budget():
    x = t("Q(a,b,c)")
    p, _ = materialize(x, budget=9, seed=3)
    cols = [p.colour.get(i) for i in range(len(p))]
    for u, v in [("a", "b"), ("a", "c"), ("b", "c")]:
        word = [c for c in cols if c in (u, v)]
        # collapse repeats; alternation means length >= 3 after collapsing
        collapsed = [word[0]] + [c for i, c in enumerate(word[1:], 1) if c != word[i - 1]]
        assert len(collapsed) >= 3, (u, v, cols)


def test_materialize_deterministic():
    a = materialize(t("Q(a,b)"), budget=10, seed=42)
    b = materialize(t("Q(a,b)"), budget=10, seed=42)
    assert a[0].colour == b[0].colour and a[1] == b[1]


def test_materialize_concat_splits_budget():
    p, ann = materialize(t("1^Q(1)"), budget=6, seed=1)
    assert len(p) == 6
    assert ann[0].index == 0  # the initial singleton
    assert all(ann[i].index == 1 for i in range(1, 6))


def test_materialize_marks_irrational_singletons():
    p, _ = materialize(t("1^I^Q(1)"), budget=5, seed=2)
    assert p.irrational == frozenset({1})


def test_materialize_equals_the_closure_of_its_successor_pairs():
    # the chain is built as a forest, each point the parent of the next
    for term in (t("Q(1)"), t("Q(a,I)^b^Q(1)")):
        for size in range(min_size(term), 301):
            p, _ = materialize(term, budget=size, seed=size)
            tags = [tag for _, tag in sample_points(term, size, size)]
            n = len(tags)
            want = FinPoset(
                range(n),
                [(i, i + 1) for i in range(n - 1)],
                colour={
                    i: c for i, c in enumerate(tags) if c not in (IRRATIONAL, UNCOLOURED)
                },
                irrational={i for i, c in enumerate(tags) if c == IRRATIONAL},
            )
            assert poset_fields(p) == poset_fields(want), (term, size)


def test_sample_points_equal_the_always_seeded_oracle():
    # single-constituent shuffles, alone and around or inside shuffles
    # that draw, shuffles of finite constituents and finite terms, then
    # 2 000 random terms, each at two budgets and two seeds
    terms = [
        t(x)
        for x in (
            "Q(d)", "b", "b^Q(c)", "Q(d)^Q(a)", "Q(a,d)", "Q(Q(a,b))",
            "Q(Q(a))^Q(b,c)", "Q(a^b)", "Q(a^b,c^Q(d))", "a^b^c",
        )
    ]
    rng = random.Random(20261020)
    terms += [random_term(rng, 4) for _ in range(2000)]
    lone = 0
    for i, term in enumerate(terms):
        least = min_size(term)
        for budget in (least, least + 1 + i % 13):
            for seed in (i, i * 7919 + 1):
                got = sample_points(term, budget, seed)
                assert got == naive_sample_points(term, budget, seed), (term, budget)
        lone += not _draws(term) and not is_finite(term)
    # random terms with shuffles that draw nothing are common
    assert lone >= 100
    # the six chain shapes of perfbench's chain-samples workload, at its
    # sizes and up to the largest chain a sample may hold
    for x in (
        "Q(a,b)^c^Q(d)", "Q(1,a,b)", "a^Q(b,c)^1", "Q(c)^1^Q(a,d)", "Q(b,d)^Q(a)", "Q(1)",
    ):
        for budget in (60, 70, 160, 200, 2000):
            for seed in (budget, 40503):
                got = sample_points(t(x), budget, seed)
                assert got == naive_sample_points(t(x), budget, seed), (x, budget)


@pytest.mark.parametrize(
    "text, budgets",
    [
        ("Q(1)", (1, 2, 7)),  # one singleton constituent: no draw
        ("Q(a,b,c)", (3, 4, 5, 30, 31, 32)),  # 3k, 3k + 1 and 3k + 2
        ("Q(a,b^c)", (3, 4, 5, 10, 11)),  # unequal least sizes
        ("Q(a^b)", (2, 3, 9)),  # one constituent that is no singleton
    ],
)
def test_emit_draws_what_the_oracle_draws(text, budgets):
    # the same leaves, and the generator left in the same state, so the
    # same numbers were drawn in the same order
    term = t(text)
    index = {path: i for i, path in enumerate(orbit_paths(term))}
    for budget in budgets:
        for seed in (0, 7, 40503):
            rng, naive_rng = random.Random(seed), random.Random(seed)
            leaves, points = [], []
            _emit(term, budget, rng, 0, leaves)
            _naive_emit(term, budget, naive_rng, (), points)
            assert leaves == [index[path] for path, _ in points], (text, budget, seed)
            assert leaves == [
                desc.index for desc, _ in naive_sample_points(term, budget, seed)
            ], (text, budget, seed)
            assert rng.getstate() == naive_rng.getstate(), (text, budget, seed)


def test_emit_leaves_the_generator_as_the_oracle_does_on_random_terms():
    rng = random.Random(20261022)
    for i in range(500):
        term = random_term(rng, 4)
        budget = min_size(term) + i % 17
        ours, naive = random.Random(i), random.Random(i)
        _emit(term, budget, ours, 0, [])
        _naive_emit(term, budget, naive, (), [])
        assert ours.getstate() == naive.getstate(), (term, budget)


@pytest.mark.parametrize("n", [0, 1, 2, 200])
def test_the_chain_equals_the_forest_of_its_predecessors(monkeypatch, n):
    # the chain's covers come from ranges, and equal those of the forest in
    # which each point's parent is the point before; its masks, once read,
    # equal the public constructor's on the chain's pairs
    colour = {i: "ab"[i % 2] for i in range(0, n, 3)}
    irrational = frozenset(range(n - 1, -1, -5))
    forest = FinPoset._from_forest(range(-1, n - 1), colour, irrational)
    sweeps = []
    real = posets._masks
    monkeypatch.setattr(posets, "_masks", lambda *a: sweeps.append(a) or real(*a))
    chain = _chain(n, colour, irrational)
    assert type(chain) is type(forest)
    for field in ("elements", "_pos", "_lower", "_upper", "colour", "irrational"):
        assert getattr(chain, field) == getattr(forest, field), (n, field)
    assert sweeps == []
    want = FinPoset(range(n), [(i, i + 1) for i in range(n - 1)], colour, irrational)
    assert poset_fields(chain) == poset_fields(want)


def test_the_points_of_one_leaf_share_one_descriptor():
    # one frozen descriptor per leaf, however many points the leaf samples
    for x in ("Q(a,b)^c^Q(d)", "a^Q(b,c)^d", "Q(a,I)^b^Q(1)"):
        term = t(x)
        _, ann = materialize(term, budget=200, seed=7)
        assert len({id(d) for d in ann.values()}) == len(one_orbits(term)), x
        assert set(ann.values()) == set(one_orbits(term)), x


@pytest.mark.parametrize(
    "text, built", [("Q(d)", 0), ("b", 0), ("b^Q(c)", 0), ("Q(d)^Q(a)", 0), ("Q(a,d)", 1)]
)
def test_a_spine_seeds_a_generator_only_when_a_shuffle_draws(monkeypatch, text, built):
    seeds = []

    class Counted(random.Random):
        def __init__(self, seed):
            seeds.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(random, "Random", Counted)
    _sample_points(t(text), 12, 7)
    assert len(seeds) == built
