"""Acceptance gate: ten end-to-end guarantees, one test per criterion.

Each test prints a single ``criterion NN <name>: pass`` (or ``fail``)
line, so a verbose run yields one verdict line per criterion on top of
the pytest result line.  Oracles come from ``tests/oracles.py`` and the
brute-force poset machinery; runtime ceilings are asserted where a
criterion carries one.
"""

import random
import time
from contextlib import contextmanager

import pytest

from omegacat.cfpo import AMBIGUOUS, alt, alt_rank, path, path_completion, validate_cfpo
from omegacat.posets import (
    FinPoset,
    automorphisms,
    orbits,
)
from omegacat.sequences import NfSequence
from omegacat.terms import (
    applicable_rewrites,
    materialize,
    min_size,
    normalize,
    one_orbits,
    parse_term,
    render_term,
)
from omegacat.trees import (
    annotate_R,
    check_categorical,
    materialize_tree,
    parse_spec,
    two_orbit_equiv,
)
from oracles import (
    all_trees,
    chain_embeds,
    random_term,
    rebuild,
    reduce_random,
    samples_agree,
)

DENSE = "T = spine Q(1) with omega x T at orbit 0\n"
OMEGA_SPEC = "T = spine 1 with omega x T at orbit 0\n"
Q1 = "T = spine Q(1)\n"


@contextmanager
def verdict(name):
    try:
        yield
    except BaseException:
        print(f"criterion {name}: fail")
        raise
    print(f"criterion {name}: pass")


def is_automorphism(p, phi):
    elements = sorted(p.elements, key=repr)
    if sorted(phi, key=repr) != elements or sorted(phi.values(), key=repr) != elements:
        return False
    if any(p.label(x) != p.label(phi[x]) for x in p.elements):
        return False
    return {(phi[a], phi[b]) for (a, b) in p.lt} == set(p.lt)


def one_orbit_partition(elements, auts):
    parts, seen = set(), set()
    for x in elements:
        if x in seen:
            continue
        orb = frozenset(f[x] for f in auts)
        seen |= orb
        parts.add(orb)
    return parts


def orbit_class_map(report):
    cls = {}
    for i, orbit in enumerate(report.orbits):
        for tup in orbit:
            cls[tup] = i
    return cls


def test_criterion_01_rewrite_soundness():
    with verdict("01 rewrite-soundness"):
        start = time.monotonic()
        rng = random.Random(20260823)
        checked = 0
        for i in range(500):
            cur = random_term(rng, depth=4, colours=("a", "b", "c"))
            walk = random.Random(i)
            for _ in range(40):
                steps = applicable_rewrites(cur)
                if not steps:
                    break
                for j, (_rule, nxt) in enumerate(steps):
                    budget = max(8, min_size(cur), min_size(nxt))
                    assert samples_agree(cur, nxt, budget=budget, seed=1000 * i + j), (
                        cur,
                        nxt,
                    )
                    checked += 1
                cur = walk.choice(steps)[1]
        assert checked > 0
        assert time.monotonic() - start < 60.0


def test_criterion_02_confluence_and_idempotence():
    with verdict("02 confluence-idempotence"):
        rng = random.Random(424242)
        for _ in range(100):
            t = random_term(rng, depth=4, colours=("a", "b", "c"))
            want = normalize(t)
            # a fresh copy, so that normalize works rather than reading
            # the normal form it stored on want
            assert normalize(rebuild(want)) == want
            for k in range(1000):
                assert reduce_random(t, random.Random(k)) == want


def test_criterion_03_golden_normal_forms():
    with verdict("03 golden-normal-forms"):
        for text in ("Q(1,1)", "Q(1,Q(1))", "Q(1)^Q(1)", "Q(1)^1^Q(1)"):
            assert render_term(normalize(parse_term(text))) == "Q(1)"


def test_criterion_04_orbit_oracle_agreement():
    with verdict("04 orbit-oracle-agreement"):
        start = time.monotonic()

        # finite terms: every point of a finite chain is its own orbit,
        # and the materialized annotations say exactly that
        for text in ("1", "a", "a^b", "a^a", "1^a^1", "a^b^a^b", "1^1^1^1^1^1^1"):
            t = normalize(parse_term(text))
            n = min_size(t)
            p, ann = materialize(t, n, seed=3)
            assert orbits(p, 1).count == len(p) == n == len(one_orbits(t))
            assert len({ann[x].index for x in p.elements}) == n

        # catalogue: annotations constant on brute-force 1-orbits, and the
        # two-orbit tester agrees with brute-force 2-orbits on every
        # comparable pair of comparable pairs
        for n in range(1, 8):
            for p in all_trees(n):
                ann = annotate_R(p)
                for orbit in orbits(p, 1).orbits:
                    assert len({ann[x] for (x,) in orbit}) == 1
                cls = orbit_class_map(orbits(p, 2))
                pairs = [
                    (x, y) for x in p.elements for y in p.elements if p.less(x, y)
                ]
                for q0 in pairs:
                    for q1 in pairs:
                        ok, trace = two_orbit_equiv(p, q0, q1, annotations=ann)
                        assert ok is (cls[q0] == cls[q1]), (p.lt, q0, q1)
                        if ok:
                            phi = {a: b for _, a, b in trace}
                            assert is_automorphism(p, phi)
                            assert phi[q0[0]] == q1[0] and phi[q0[1]] == q1[1]
        assert time.monotonic() - start < 120.0


def test_criterion_05_annotation_preserves_symmetry():
    with verdict("05 annotation-preserves-symmetry"):
        for n in range(1, 8):
            for p in all_trees(n):
                ann = annotate_R(p)
                classes = sorted({ann[x] for x in p.elements}, key=sorted)
                inv = {x: classes.index(ann[x]) for x in p.elements}
                plain = automorphisms(p)
                refined = automorphisms(p, invariants=inv)
                assert plain == refined
                assert one_orbit_partition(p.elements, plain) == one_orbit_partition(
                    p.elements, refined
                )


def test_criterion_06_flagged_points_preserve_symmetry():
    with verdict("06 flagged-points-preserve-symmetry"):
        spines = ["Q(1)^c", "Q(a)^b^Q(c)", "Q(a,b)", "Q(1)"]
        children = ["1", "1^1", "Q(1)"]
        rng = random.Random(99)
        for seed in range(20):
            spine = rng.choice(spines)
            child = rng.choice(children)
            mult = rng.randint(2, 3)
            site = "cut 0" if "^" in spine else "top"
            text = f"T = spine {spine} with {mult} x L at {site}\nL = spine {child}\n"
            p = materialize_tree(
                parse_spec(text), depth=rng.randint(1, 2), width=2, seed=seed
            )
            flagged = [x for x in p.elements if p.label(x)[1]]
            assert flagged, text
            colours = {
                x: p.label(x)[0] for x in p.elements if p.label(x)[0] is not None
            }
            stripped = FinPoset(p.elements, list(p.lt), colour=colours)
            auts_p = automorphisms(p, bound=len(p))
            auts_s = automorphisms(stripped, bound=len(p))
            assert len(auts_p) == len(auts_s), text
            assert one_orbit_partition(p.elements, auts_p) == one_orbit_partition(
                p.elements, auts_s
            ), text


def test_criterion_07_checker_verdicts():
    with verdict("07 checker-verdicts"):
        cases = [(DENSE, True), (OMEGA_SPEC, False), (Q1, True)]
        for text, want in cases:
            variants = [text, text.replace("T", "U")]
            if "Q(1)" in text.split("\n")[0]:
                for spelling in ("Q(1,1)", "Q(1)^Q(1)", "Q(1)^1^Q(1)"):
                    variants.append(text.replace("Q(1)", spelling, 1))
            for variant in variants:
                v = check_categorical(parse_spec(variant))
                assert v.categorical is want, variant
                if not want:
                    witness = v.condition_reports[1].witness
                    assert witness == NfSequence((), (parse_term("1"),))


def test_criterion_08_back_and_forth_at_sample_scale():
    with verdict("08 back-and-forth-at-scale"):
        p = materialize_tree(parse_spec(DENSE), depth=4, width=3, seed=11)
        ann = annotate_R(p)
        lt = set(p.lt)
        pairs = [(x, y) for x in p.elements for y in p.elements if p.less(x, y)]
        groups = {}
        for q in pairs:
            groups.setdefault((ann[q[0]], ann[q[1]]), []).append(q)

        def check(q0, q1):
            ok, trace = two_orbit_equiv(p, q0, q1, annotations=ann)
            assert ok, (q0, q1)
            phi = {a: b for _, a, b in trace}
            assert phi[q0[0]] == q1[0] and phi[q0[1]] == q1[1]
            assert {(phi[a], phi[b]) for (a, b) in lt} == lt
            assert all(p.label(x) == p.label(phi[x]) for x in p.elements)

        # every pair is equivalent to its class representative, which
        # chains into equivalence of every two same-annotation pairs;
        # random same-class pairs are then checked directly as well
        for members in groups.values():
            for other in members[1:]:
                check(members[0], other)
        rng = random.Random(7)
        rich = [g for g in groups.values() if len(g) >= 2]
        for _ in range(150):
            members = rng.choice(rich)
            q0, q1 = rng.sample(members, 2)
            check(q0, q1)

        # rigid chains: pairs at different distances are never equivalent
        chain = materialize_tree(
            parse_spec("T = spine 1^1^1^1^1^1\n"), depth=1, width=2, seed=0
        )
        cpairs = [
            (x, y) for x in chain.elements for y in chain.elements if chain.less(x, y)
        ]
        for q0 in cpairs:
            for q1 in cpairs:
                if q1[1] - q1[0] != q0[1] - q0[0]:
                    ok, _ = two_orbit_equiv(chain, q0, q1)
                    assert not ok, (q0, q1)


def test_criterion_09_cfpo_suite():
    with verdict("09 cfpo-suite"):
        start = time.monotonic()
        for n in range(1, 13):
            assert alt_rank(alt(n)) == n
        diamond = FinPoset(
            ["a", "b", "r", "t"],
            [("r", "a"), ("r", "b"), ("a", "t"), ("b", "t")],
        )
        ok, witness = validate_cfpo(diamond)
        assert ok is False and witness is not None
        for n in range(1, 9):
            z = alt(n)
            q = path_completion(z)
            cls = orbit_class_map(orbits(z, 2))
            plen = {}
            for a in z.elements:
                for b in z.elements:
                    r = path(q, a, b)
                    assert r is not None and r is not AMBIGUOUS
                    plen[(a, b)] = len(r)
            tuples = list(plen)
            for i, t1 in enumerate(tuples):
                for t2 in tuples[i + 1 :]:
                    if plen[t1] != plen[t2]:
                        assert cls[t1] != cls[t2], (n, t1, t2)
        assert time.monotonic() - start < 60.0


def test_criterion_10_cli_determinism(capsys, tmp_path):
    with verdict("10 cli-determinism"):
        from omegacat.cli import main

        dense = tmp_path / "dense.spec"
        dense.write_text(DENSE)
        vspec = tmp_path / "v.spec"
        vspec.write_text("R = spine 1 with 2 x L at orbit 0\nL = spine 1\n")
        chain = tmp_path / "chain3.poset"
        chain.write_text("node 0\nnode 1\nnode 2\nedge 0 1\nedge 1 2\n")
        vposet = tmp_path / "v.poset"
        vposet.write_text("node a\nnode b\nnode r\nedge r a\nedge r b\n")
        from omegacat.posets import dump_poset

        alt6 = tmp_path / "alt6.poset"
        alt6.write_text(dump_poset(alt(6)))

        commands = [
            ("term", "sample", "Q(a,b)", "--size", "8", "--seed", "3"),
            ("term", "sample", "Q(a,b,c)^1", "--size", "9", "--seed", "4",
             "--format", "dot"),
            ("term", "normalize", "Q(1)^1^Q(1)"),
            ("tree", "sample", str(dense), "--depth", "3", "--width", "2",
             "--seed", "5"),
            ("tree", "check", str(dense)),
            ("tree", "table", str(vspec)),
            ("tree", "chains", str(vspec)),
            ("poset", "orbits", str(chain), "-n", "2"),
            ("poset", "auts", str(vposet)),
            ("cfpo", "alt-rank", str(alt6)),
            ("cfpo", "path", str(vposet), "a", "b"),
        ]
        for argv in commands:
            code1 = main(list(argv))
            first = capsys.readouterr()
            code2 = main(list(argv))
            second = capsys.readouterr()
            assert code1 == code2, argv
            assert first.out.encode() == second.out.encode(), argv
            assert first.err == second.err == "", argv


def test_sampling_oracle_rejects_distinct_orders():
    # negative controls for the criterion-01 oracle itself
    for left, right in [
        ("a^b", "b^a"),
        ("a^a^a", "a^a"),
        ("Q(a,b)", "Q(a,c)"),
        ("a^Q(b)", "Q(b)^a"),
        ("Q(a)^b", "Q(a)"),
        ("a", "1"),
    ]:
        tl = normalize(parse_term(left))
        tr = normalize(parse_term(right))
        assert not samples_agree(tl, tr, budget=8, seed=5)


def test_sampling_oracle_embedding_is_exact_on_small_chains():
    # hand-frozen embedding verdicts for the oracle's chain test
    a, b = ("a", False), ("b", False)
    one = (None, False)
    q_ab = normalize(parse_term("Q(a,b)"))
    assert chain_embeds((a, b, a, b), q_ab)
    assert not chain_embeds((a, one), q_ab)
    cat = normalize(parse_term("a^Q(b)"))
    assert chain_embeds((a, b, b), cat)
    assert not chain_embeds((b, a), cat)
    assert chain_embeds((), normalize(parse_term("1")))
    assert not chain_embeds((a, a), normalize(parse_term("a")))
