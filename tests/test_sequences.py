"""Tests for eventually periodic sequences of terms: normalization with
junction collapse, the all-ones tail, canonical periodic presentation,
and the chain-categoricity test (no tail survives).
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_periodic_pipeline

from omegacat.sequences import (
    NfSequence,
    _display_members,
    _periodic_pipeline,
    normalize_sequence,
    render_sequence,
)
from omegacat.terms import (
    Concat,
    collapse_factors,
    is_finite,
    is_normal,
    normalize,
    parse_term,
    render_term,
)


def t(text):
    return parse_term(text)


def norm(prefix, period=None):
    return normalize_sequence([t(x) for x in prefix], [t(x) for x in period] if period is not None else None)


# -------------------------------------------------------------- golden cases


def test_shuffle_period_collapses_into_prefix():
    s = norm(["Q(1)"], ["Q(1)"])
    assert s.period == ()
    assert [render_term(m) for m in s.prefix] == ["Q(1)"]


def test_all_ones_tail():
    s = norm([], ["1"])
    assert s == NfSequence((), (t("1"),))
    assert norm([], ["1", "1"]) == s  # primitive root
    assert norm(["1", "1"], ["1"]) == s  # leading ones absorbed into the tail


def test_junction_collapse_gives_finite_sequence():
    s = norm(["1^Q(1)"], ["1^Q(1)"])
    assert s.period == ()
    assert [render_term(m) for m in s.prefix] == ["1", "Q(1)"]


def test_irreducible_period_stays_periodic():
    s = norm([], ["1^1^Q(a)"])
    assert [render_term(f) for f in s.prefix] == ["1", "1"]
    assert [render_term(f) for f in s.period] == ["Q(a)", "1", "1"]


def test_idempotent_but_noncollapsing_period():
    # period Q(a)^b^Q(a): the doubled word collapses back onto itself, yet the
    # omega power is (Q(a)^b)^omega, which keeps a genuine periodic tail.
    s = norm([], ["Q(a)^b^Q(a)"])
    assert s.prefix == ()
    assert [render_term(f) for f in s.period] == ["Q(a)", "b"]


def test_singleton_coloured_period_stays():
    s = norm([], ["a"])
    assert s == NfSequence((), (t("a"),))


def test_rotated_presentations_normalize_identically():
    a = norm(["b"], ["Q(a)^b"])
    b = norm([], ["b^Q(a)"])
    assert a == b


FACTORS = [t(x) for x in "1 a b Q(1) Q(a) Q(b) Q(1,a) Q(a,b) Q(1,a,b)".split()]


def collapses_for_every_rotation_or_none(word):
    collapsed = {
        not normalize_sequence([], word[i:] + word[:i]).period
        for i in range(len(word))
    }
    return len(collapsed) == 1


def test_collapse_of_a_period_is_invariant_under_rotation():
    # The growth search pumps each closed walk from its first definition
    # only; that relies on every rotation of a walk's word collapsing
    # (an empty period) or none of them.
    for n in range(1, 4):
        for word in itertools.product(FACTORS, repeat=n):
            assert collapses_for_every_rotation_or_none(word), word


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(FACTORS), min_size=4, max_size=6))
def test_collapse_of_a_long_period_is_invariant_under_rotation(word):
    assert collapses_for_every_rotation_or_none(tuple(word))


def test_a_period_of_200_collapses_needs_no_step_limit():
    # each adjacent pair Q(ci)^Q(ci) collapses: 200 collapses in one period
    shuffles = [t(f"Q(c{i})") for i in range(200)]
    s = normalize_sequence([t("a")], [q for q in shuffles for _ in range(2)])
    assert s == NfSequence((t("a"),), tuple(shuffles))


# normal single factors: nested shuffles and concatenated constituents
PIPELINE_FACTORS = [
    normalize(t(x))
    for x in (
        "1 a b Q(1) Q(a) Q(b) Q(1,a) Q(a,b) Q(a^b) Q(a,b^a) Q(Q(a),b) "
        "Q(1,Q(a)^b) Q(Q(a)^a,b)"
    ).split()
]


def test_two_loop_pipeline_matches_the_one_loop_reference():
    rng = random.Random(14)
    absorbed = 0
    for _ in range(20_000):
        pre = rng.choices(PIPELINE_FACTORS, k=rng.randint(0, 8))
        per = rng.choices(PIPELINE_FACTORS, k=rng.randint(1, 8))
        pre = collapse_factors(pre)  # as normalize_sequence passes it
        got = _periodic_pipeline(pre, per)
        assert got == naive_periodic_pipeline(pre, per), (pre, per)
        absorbed += got[1] is None
    assert absorbed > 1_000


def test_finite_sequences_merge_finite_runs():
    s = norm(["1", "1", "Q(1)", "1"], None)
    assert s == NfSequence((t("1"), t("1"), t("Q(1)"), t("1")))
    assert render_sequence(s) == "[1^1, Q(1), 1]"
    assert _display_members(s.prefix) == [[t("1"), t("1")], [t("Q(1)")], [t("1")]]


def test_empty_sequence_rejected():
    with pytest.raises(ValueError):
        normalize_sequence([], None)


# -------------------------------------------------------------- properties


def test_members_are_normal_and_no_adjacent_finite_members():
    # the words hold normal factors, no concatenation; the display members
    # split each word into shuffles alone and maximal runs of finite factors
    cases = [
        (["1", "1", "Q(a)"], None),
        ([], ["1^1^Q(a)"]),
        (["Q(1)"], ["1^Q(1)"]),
        (["a", "b"], ["Q(a,b)"]),
        (["a^Q(a)^Q(b)^b^c"], ["Q(c)^1^a^Q(a)"]),
    ]
    for prefix, period in cases:
        s = norm(prefix, period)
        for word in (s.prefix, s.period):
            assert all(is_normal(f) and not isinstance(f, Concat) for f in word)
            members = _display_members(word)
            assert [f for m in members for f in m] == list(word)
            for m in members:
                assert all(map(is_finite, m)) or len(m) == 1
            for x, y in zip(members, members[1:]):
                assert not (is_finite(x[-1]) and is_finite(y[0]))


def test_is_categorical_chain():
    # a chain type is categorical exactly when no period is left
    assert norm(["Q(1)"], None).period == ()
    assert norm(["Q(1)"], ["1^Q(1)"]).period == ()
    assert norm([], ["1"]).period
    assert norm([], ["1^1^Q(a)"]).period


# -------------------------------------------------------------- rendering


def test_render_formats():
    assert render_sequence(norm(["1", "Q(1)"], None)) == "[1, Q(1)]"
    assert render_sequence(norm([], ["1"])) == "[] * [1] w"
