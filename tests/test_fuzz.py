"""Random-spec fuzzing of the categoricity checker at a fixed seed.

Specs have one to three definitions with random spines of nesting depth
two, cut sites anywhere (including the degenerate ones the parser
rewrites) and definitions the root may not reach.  Every spec must be
checked without an error; the verdict must not change under renaming,
respelling ``Q(1)`` or adding a definition nothing reaches; and for a
categorical spec every maximal chain of a small sample must parse as one
of the symbolic chain types, with the same positions as the recursive
reference parser.  The exact chain counts agree with the saturating
round-robin oracle up to its cap.  Random factor words check step (B) of
the chain walk's termination proof.
"""

import random
import re
import warnings

from oracles import naive_counts, naive_parse_chain_labels, random_term

from omegacat.errors import BudgetError, SpecError
from omegacat.posets import maximal_chains
from omegacat.sequences import normalize_sequence
from omegacat.terms import (
    Shuffle,
    Singleton,
    collapse_factors,
    factors,
    normalize,
    orbit_paths,
    parse_term,
    render_term,
)
from omegacat.trees import (
    OMEGA,
    _counts,
    _member_table,
    _parse_chain_labels,
    annotate_R,
    check_categorical,
    materialize_tree,
    parse_spec,
    ramification_table,
)

NAMES = ("A", "B", "C")
SPECS = 150


def random_definition(rng, name, targets):
    spine = normalize(random_term(rng, 2, colours=("a", "b")))
    k = len(factors(spine))
    sites = [f"orbit {i}" for i in range(len(orbit_paths(spine)))]
    sites += [f"cut {j}" for j in range(k - 1)] + ["top"]
    rules = {
        (rng.choice(sites), rng.choice(targets))
        for _ in range(rng.randint(0, 2))
    }
    clauses = [
        f"{rng.choice(('1', '2', 'omega'))} x {child} at {site}"
        for site, child in sorted(rules)
    ]
    with_part = " with " + ", ".join(clauses) if clauses else ""
    return f"{name} = spine {render_term(spine)}{with_part}\n"


def parse(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return parse_spec(text)


def parsing(draw):
    """The first text ``draw()`` returns that parses: a degenerate cut the
    parser rewrites may duplicate another rule of its definition."""
    while True:
        text = draw()
        try:
            parse(text)
        except SpecError:
            continue
        return text


def random_spec_text(rng):
    def draw():
        names = NAMES[: rng.randint(1, 3)]
        return "".join(random_definition(rng, n, names) for n in names)

    return parsing(draw)


def renamed(text):
    fresh = {"A": "Root", "B": "Mid", "C": "Leaf"}
    return re.sub(r"\b[ABC]\b", lambda m: fresh[m.group(0)], text)


def respelt(text, rng):
    return text.replace("Q(1)", rng.choice(("Q(1,1)", "Q(1)^Q(1)")))


def with_unreachable(text, rng):
    names = re.findall(r"^(\w+) =", text, re.M) + ["Z"]
    return parsing(lambda: text + random_definition(rng, "Z", names))


def test_random_specs_check_without_error_and_keep_their_verdicts():
    rng = random.Random(20261018)
    categorical = 0
    for _ in range(SPECS):
        text = random_spec_text(rng)
        spec = parse(text)
        verdict = check_categorical(spec)
        for variant in (
            renamed(text),
            respelt(text, rng),
            with_unreachable(text, rng),
        ):
            assert check_categorical(parse(variant)) == verdict, variant
        if verdict.categorical:
            categorical += 1
            table = ramification_table(spec)
            sample = materialize_tree(spec, depth=2, width=2)
            # raises SpecError when a chain parses as no chain type
            annotate_R(sample, table=table)
    # both verdicts occur often enough for the checks above to mean much
    assert SPECS // 4 < categorical < 3 * SPECS // 4


def test_finite_ramification_report_matches_the_table():
    # finite-ramification fails exactly with one of the other two
    # conditions and agrees with the table, which lists the tailed types as
    # unbounded; the down-types NF(pre + per * k) that make them unbounded
    # are distinct.  finite-chain-family fails only with chains-categorical,
    # as a cut lasso's type has a tail and is listed, so the headline of
    # ``tree check`` always names a chain
    rng = random.Random(20261021)
    tailed = 0
    for _ in range(SPECS):
        spec = parse(random_spec_text(rng))
        ram, chains, family = check_categorical(spec).condition_reports
        assert ram.passed == (chains.passed and family.passed)
        if not family.passed:
            assert (ram.passed, ram.witness, chains.passed) == (False, None, False)
            continue
        table = ramification_table(spec)
        types, unbounded = table.chain_types, table.unbounded
        assert all(types[m].period for m in unbounded)
        assert ram.passed == (not unbounded)
        assert ram.witness == (types[unbounded[0]] if unbounded else None)
        for m in unbounded:
            pre, per = list(types[m].prefix), list(types[m].period)
            downs = {normalize_sequence(pre + per * k) for k in range(1, 7)}
            assert len(downs) == 6, types[m]
        tailed += not chains.passed
    assert tailed > SPECS // 10


def test_chain_counts_agree_with_the_saturating_rounds():
    # the oracle's rounds saturate at cap + 1, which on a cycle such as
    # x = 1 + x they reach short of omega: a count the oracle gives as at
    # most the cap (or omega) is exact, and cap + 1 means above the cap.
    # Both raise on the same specs, those whose walk lists only part of an
    # infinite family
    rng = random.Random(20261022)
    above = {"finite": 0, "omega": 0}
    for _ in range(SPECS):
        spec = parse(random_spec_text(rng))
        try:
            new = _counts(spec)
        except SpecError as e:
            assert "escaped the walk's chain types" in str(e)
            new = None
        for cap in (0, 3, 20):
            try:
                old = naive_counts(spec, cap)
            except SpecError:
                assert new is None
                continue
            assert new is not None
            assert old.keys() == new.keys()
            for name, counts in old.items():
                assert counts.keys() == new[name].keys()
                for t, was in counts.items():
                    now = new[name][t]
                    if was <= cap or was == OMEGA:
                        assert now == was, (spec, name, t, cap)
                    else:
                        assert was == cap + 1 and now > cap, (spec, name, t, cap)
                        above["omega" if now == OMEGA else "finite"] += 1
    assert min(above.values()) > 0, above


def test_chain_parse_matches_the_recursive_parser():
    rng = random.Random(20261019)
    parsed = 0
    for _ in range(SPECS):
        spec = parse(random_spec_text(rng))
        if not check_categorical(spec).categorical:
            continue
        types = ramification_table(spec).chain_types
        tables = [_member_table(t) for t in types]
        for depth, width in ((1, 2), (2, 2), (2, 3)):
            try:
                sample = materialize_tree(spec, depth=depth, width=width)
            except BudgetError:  # the spec nests deeper than ``depth``
                continue
            for chain in maximal_chains(sample):
                word = tuple(sample.label(x) for x in chain)
                i = rng.randrange(len(word) + 1)
                j = rng.randrange(i, len(word) + 1)
                for w in (word, word[i:j]):
                    for t, members in zip(types, tables):
                        for sparse in (False, True):
                            expected = naive_parse_chain_labels(w, t, sparse)
                            got = _parse_chain_labels(w, members, sparse)
                            assert got == expected, (w, t, sparse)
                            parsed += got is not None
    assert parsed > 1000


# normal single factors, shuffles nested up to three deep
WORD_FACTORS = [
    normalize(parse_term(x))
    for x in (
        "1 a b Q(1) Q(a) Q(b) Q(a,b) Q(a^b) Q(a,b^a) Q(b,Q(a)) Q(1,Q(a)^b) "
        "Q(Q(a)^a,b) Q(a,Q(b,Q(a)))"
    ).split()
]


def nesting(t):
    """Most shuffles nested one inside another in ``t``."""
    if isinstance(t, Singleton):
        return 0
    if isinstance(t, Shuffle):
        return 1 + max(nesting(c) for c in t.constituents)
    return max(nesting(f) for f in t.factors)


def test_absorbed_words_collapse_to_boundedly_many_factors():
    # step (B) at trees._walk: a word whose endless repetition a shuffle
    # absorbs collapses to at most (d + 1)(C + 1) factors, d counting the
    # shuffles nested strictly inside one of its shuffles and C the most
    # factors of a shuffle constituent
    rng = random.Random(20261020)
    absorbed = 0
    for _ in range(10_000):
        word = rng.choices(WORD_FACTORS, k=rng.randint(1, 10))
        if normalize_sequence([], word).period:
            continue
        absorbed += 1
        shuffles = [f for f in word if isinstance(f, Shuffle)]
        d = max(nesting(f) for f in shuffles) - 1
        c = max(len(factors(x)) for f in shuffles for x in f.constituents)
        assert len(collapse_factors(word)) <= (d + 1) * (c + 1), word
    assert absorbed > 500
