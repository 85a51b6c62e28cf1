"""Command line interface: golden outputs, exit codes, error channel
discipline, and byte-level determinism.

Expected strings are frozen from hand derivations; the underlying
semantics (normal forms, verdicts, orbit counts, ranks) are pinned
independently in the per-module test files, so these tests freeze the
presentation layer on top of already-verified values.
"""

import random
import subprocess
import sys
import time

import pytest
from test_cfpo import oriented_tree, x_point_tree

from omegacat import posets, trees
from omegacat.cfpo import alt
from omegacat.cli import build_parser, main
from omegacat.posets import FinPoset, dump_poset, load_poset, validate_tree

Q1 = "T = spine Q(1)\n"
OMEGA_SPEC = "T = spine 1 with omega x T at orbit 0\n"
DENSE = "T = spine Q(1) with omega x T at orbit 0\n"
VSPEC = "R = spine 1 with 2 x L at orbit 0\nL = spine 1\n"
CHAIN3_SPEC = "T = spine 1^1^1\n"
FIRST_PASS = (
    "A = spine Q(a^Q(b))^a with 1 x B at orbit 2\n"
    "B = spine Q(b)^Q(a^Q(b))^c with 1 x B at orbit 3\n"
)
# the root R does not reach the ladder below it, whose walk would take
# 2^39 paths
UNREACHABLE_LADDER = (
    "root R\nR = spine Q(a)^b\n"
    + "".join(
        f"D{i} = spine a^b with 1 x D{i + 1} at orbit 0, 1 x D{i + 1} at orbit 1\n"
        for i in range(39)
    )
    + "D39 = spine a^b\n"
)
# a chain climbs into k = 0, 1, 2, ... copies before it goes up a spine,
# and each passage Q(a)^a^Q(a) collapses to Q(a)
SELF_LOOP = "T = spine Q(a)^a^b with 1 x T at orbit 1\n"

CHAIN3_POSET = "node 0\nnode 1\nnode 2\nedge 0 1\nedge 1 2\n"
V_POSET = "node a\nnode b\nnode r\nedge r a\nedge r b\n"
DIAMOND_POSET = (
    "node a\nnode b\nnode r\nnode t\n"
    "edge r a\nedge r b\nedge a t\nedge b t\n"
)
BOWTIE_POSET = (
    "node a\nnode b\nnode x\nnode y\n"
    "edge a x\nedge a y\nedge b x\nedge b y\n"
)
DISJOINT_POSET = "node 0\nnode 1\nnode 2\nnode 3\nedge 0 1\nedge 2 3\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


# ---------------------------------------------------------------------------
# term subcommands


def test_term_normalize_golden(capsys):
    code, out, err = run(capsys, "term", "normalize", "Q(1,1)")
    assert (code, out, err) == (0, "Q(1)\n", "")


@pytest.mark.parametrize(
    "expr", ["Q(1,1)", "Q(1,Q(1))", "Q(1)^Q(1)", "Q(1)^1^Q(1)"]
)
def test_term_normalize_collapses_to_q1(capsys, expr):
    code, out, _ = run(capsys, "term", "normalize", expr)
    assert code == 0
    assert out == "Q(1)\n"


def test_term_normalize_fixed_point(capsys):
    code, out, _ = run(capsys, "term", "normalize", "a^b")
    assert (code, out) == (0, "a^b\n")


def test_term_normalize_parse_error(capsys):
    code, out, err = run(capsys, "term", "normalize", "Q(")
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse:")
    assert err.count("\n") == 1 and err.endswith("\n")


def nested(levels):
    """Shuffles nested ``levels`` deep, alternating colours so that the
    term is its own normal form."""
    return "".join(f"Q({'ab'[i % 2]}," for i in range(levels)) + "c" + ")" * levels


def test_term_normalize_nesting_limit_is_a_parse_error(capsys):
    code, out, err = run(capsys, "term", "normalize", nested(1000))
    assert (code, out) == (2, "")
    assert err.startswith("error: parse:")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_term_normalize_at_the_nesting_limit(capsys):
    code, out, err = run(capsys, "term", "normalize", nested(200))
    assert (code, out, err) == (0, nested(200) + "\n", "")


def test_term_eq_at_the_nesting_limit_with_concatenations(capsys):
    # 100 shuffles, each around a concatenation: 200 levels, where about
    # 330 overflow the recursion limit
    expr = "Q(a^" * 100 + "b" + ")" * 100
    assert run(capsys, "term", "eq", expr, expr) == (0, "equivalent\n", "")


def test_term_eq_equivalent(capsys):
    code, out, _ = run(capsys, "term", "eq", "Q(1)^Q(1)", "Q(1)")
    assert (code, out) == (0, "equivalent\n")


def test_term_eq_distinct(capsys):
    code, out, _ = run(capsys, "term", "eq", "Q(1)", "Q(a)")
    assert (code, out) == (1, "distinct\n")


def test_term_orbits_golden(capsys):
    code, out, _ = run(capsys, "term", "orbits", "Q(a,b)^1")
    assert code == 0
    assert out == (
        "orbit 0: path=0.0 leaf=a\n"
        "orbit 1: path=0.1 leaf=b\n"
        "orbit 2: path=1 leaf=1\n"
    )


def test_term_orbits_singleton(capsys):
    code, out, _ = run(capsys, "term", "orbits", "1")
    assert (code, out) == (0, "orbit 0: path=() leaf=1\n")


def test_term_sample_is_a_coloured_chain(capsys):
    code, out, err = run(
        capsys, "term", "sample", "Q(a,b)", "--size", "6", "--seed", "1"
    )
    assert code == 0 and err == ""
    p = load_poset(out)
    assert len(p) == 6
    for x in p.elements:
        for y in p.elements:
            assert p.comparable(x, y)
    colours = {p.label(x)[0] for x in p.elements}
    assert colours == {"a", "b"}


def test_term_sample_deterministic(capsys):
    a = run(capsys, "term", "sample", "Q(a,b)", "--size", "6", "--seed", "1")
    b = run(capsys, "term", "sample", "Q(a,b)", "--size", "6", "--seed", "1")
    assert a == b
    assert a[1].encode() == b[1].encode()


def test_term_sample_budget_error(capsys):
    code, out, err = run(capsys, "term", "sample", "1^1", "--size", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("error: budget:")
    assert err.count("\n") == 1


def test_term_sample_negative_size_is_a_value_error(capsys):
    # a size of 0 is still a budget too small for one point (exit 3)
    code, out, err = run(capsys, "term", "sample", "Q(1)", "--size", "-3")
    assert (code, out) == (2, "")
    assert err == "error: value: the sample size must be >= 0\n"
    code, out, err = run(capsys, "term", "sample", "Q(1)", "--size", "0")
    assert (code, out) == (3, "")
    assert err.startswith("error: budget:")


def test_term_sample_too_large_to_hold_is_a_budget_error(capsys):
    # a chain of a million points would hold 5 * 10**11 order pairs
    start = time.perf_counter()
    code, out, err = run(capsys, "term", "sample", "Q(1)", "--size", "1000000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("error: budget:") and err.count("\n") == 1


def test_term_sample_budget_boundary(capsys):
    # 2 000 points hold 1 999 000 order pairs, within _MAX_SAMPLE_PAIRS;
    # 2 001 points would hold 2 001 000
    code, out, err = run(capsys, "term", "sample", "Q(1)", "--size", "2000")
    assert (code, err) == (0, "")
    assert sum(line.startswith("node ") for line in out.splitlines()) == 2000
    code, out, err = run(capsys, "term", "sample", "Q(1)", "--size", "2001")
    assert (code, out) == (3, "")
    assert err.startswith("error: budget:") and err.count("\n") == 1


def test_term_sample_has_no_records_format(capsys):
    code, out, err = run(capsys, "term", "sample", "1", "--format", "records")
    assert (code, out) == (2, "")
    assert err.startswith(
        "error: usage: argument --format: invalid choice: 'records'"
    )


def test_term_sample_dot_format(capsys):
    code, out, _ = run(
        capsys, "term", "sample", "1^1", "--size", "2", "--format", "dot"
    )
    assert code == 0
    assert out.startswith("digraph")
    assert "->" in out


# ---------------------------------------------------------------------------
# tree subcommands


def test_tree_check_dense_golden(capsys, files):
    f = files("dense.spec", DENSE)
    code, out, err = run(capsys, "tree", "check", f)
    assert code == 0 and err == ""
    assert out == (
        "categorical: yes\n"
        "condition finite-ramification: pass\n"
        "condition chains-categorical: pass\n"
        "condition finite-chain-family: pass\n"
    )


def test_tree_check_omega_golden(capsys, files):
    f = files("omega.spec", OMEGA_SPEC)
    code, out, err = run(capsys, "tree", "check", f)
    assert code == 1 and err == ""
    assert out == (
        "categorical: no — chain [] * [1] w is not a term\n"
        "condition finite-ramification: fail witness [] * [1] w\n"
        "condition chains-categorical: fail witness [] * [1] w\n"
        "condition finite-chain-family: pass\n"
    )


def test_tree_check_single_q_yes(capsys, files):
    f = files("q1.spec", Q1)
    code, out, _ = run(capsys, "tree", "check", f)
    assert code == 0
    assert out.startswith("categorical: yes\n")


def test_tree_check_ignores_unreachable_definitions(capsys, files):
    # B alone makes the chain count system diverge; it must not matter
    f = files("unreachable.spec", "A = spine Q(1)\nB = spine Q(1)^1 with 2 x B at cut 0\n")
    code, out, err = run(capsys, "tree", "check", f)
    assert (code, err) == (0, "")
    assert out.startswith("categorical: yes\n")
    assert out == run(capsys, "tree", "check", files("q1.spec", Q1))[1]


@pytest.mark.parametrize(
    "command, want",
    [
        (
            "check",
            "categorical: yes\n"
            "condition finite-ramification: pass\n"
            "condition chains-categorical: pass\n"
            "condition finite-chain-family: pass\n",
        ),
        ("chains", "[Q(a), b]\n"),
        (
            "table",
            "cap: 3\n"
            "type 0: [Q(a), b]\n"
            "cell type=0 pos=0 count=1\n"
            "cell type=0 pos=1 count=1\n",
        ),
    ],
)
def test_an_unreachable_ladder_is_never_walked(capsys, files, command, want):
    f = files("ladder.spec", UNREACHABLE_LADDER)
    start = time.perf_counter()
    assert run(capsys, "tree", command, f) == (0, want, "")
    assert time.perf_counter() - start < 1


def test_tree_check_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "tree", "check", str(tmp_path / "nope.spec"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: io:")
    assert err.count("\n") == 1


def test_tree_check_dangling_child_is_spec_error(capsys, files):
    f = files("bad.spec", "T = spine 1 with 2 x U at orbit 0\n")
    code, out, err = run(capsys, "tree", "check", f)
    assert code == 2
    assert out == ""
    assert err.startswith("error: spec:")


def test_tree_chains_golden(capsys, files):
    f = files("q1.spec", Q1)
    code, out, _ = run(capsys, "tree", "chains", f)
    assert (code, out) == (0, "[Q(1)]\n")


def test_tree_chains_v(capsys, files):
    f = files("v.spec", VSPEC)
    code, out, _ = run(capsys, "tree", "chains", f)
    assert (code, out) == (0, "[1^1]\n")


FINITE_RUNS = (
    "A = spine 1^1^Q(a) with 1 x B at orbit 1\n"
    "B = spine b^c^Q(d)^e with 1 x B at orbit 3, 1 x C at orbit 0\n"
    "C = spine f^g\n"
)


def test_tree_chains_and_check_show_finite_runs_as_one_member(capsys, files):
    # runs of finite factors print as one member, in a prefix, in a period
    # and in both types of the family witness
    f = files("runs.spec", FINITE_RUNS)
    code, out, err = run(capsys, "tree", "chains", f)
    assert (code, err) == (0, "")
    assert out == (
        "[1^1, Q(a)]\n"
        "[1^1^b^c] * [Q(d), e^b^c] w\n"
        "[1^1^b^f^g]\n"
    )
    code, out, err = run(capsys, "tree", "check", f)
    assert (code, err) == (1, "")
    assert out == (
        "categorical: no — chain [1^1^b^c] * [Q(d), e^b^c] w is not a term\n"
        "condition finite-ramification: fail\n"
        "condition chains-categorical: fail witness "
        "[1^1^b^c] * [Q(d), e^b^c] w\n"
        "condition finite-chain-family: fail witness "
        "[1^1^b^c, Q(d), e^b^c, Q(d), e^b^f^g] vs [1^1^b^c, Q(d), e^b^f^g]\n"
    )


def test_tree_table_v_golden(capsys, files):
    f = files("v.spec", VSPEC)
    code, out, _ = run(capsys, "tree", "table", f)
    assert code == 0
    assert out == (
        "cap: 3\n"
        "type 0: [1^1]\n"
        "cell type=0 pos=0 count=2\n"
        "cell type=0 pos=1 count=1\n"
    )


def test_tree_table_dense_reports_omega(capsys, files):
    f = files("dense.spec", DENSE)
    code, out, _ = run(capsys, "tree", "table", f)
    assert code == 0
    assert "cell type=0 pos=0 count=omega\n" in out


@pytest.mark.parametrize("cap", ["3", "20"])
def test_tree_table_counts_a_cycle_of_weight_one_as_omega(capsys, files, cap):
    # the count x of the type through the root's Q(a) solves x = 1 + x
    f = files("loop.spec", SELF_LOOP)
    code, out, err = run(capsys, "tree", "table", f, "--cap", cap)
    assert (code, err) == (0, "")
    assert out == (
        f"cap: {cap}\n"
        "type 0: [Q(a), a^b]\n"
        "type 1: [Q(a)]\n"
        "cell type=0 pos=0 count=omega\n"
        "cell type=0 pos=1 count=1\n"
        "cell type=0 pos=2 count=1\n"
        "cell type=1 pos=0 count=1\n"
    )


def ladder(m, parent_first):
    """``D<i> = spine a^b with 2 x D<i+1> at orbit 1``, rooted at D0."""
    lines = [f"D{i} = spine a^b with 2 x D{i + 1} at orbit 1\n" for i in range(m - 1)]
    lines.append(f"D{m - 1} = spine a^b\n")
    return "root D0\n" + "".join(lines if parent_first else lines[::-1])


def test_tree_table_prepends_each_child_type_once(capsys, files, monkeypatch):
    # the count system is built once, whatever order the spec lists its
    # definitions in: one prepend per (edge, child type) pair
    prepend = trees._seq_prepend
    calls = []

    def counted(word, t):
        calls.append(1)
        return prepend(word, t)

    monkeypatch.setattr(trees, "_seq_prepend", counted)
    m = 30
    outs = []
    for parent_first in (True, False):
        text = ladder(m, parent_first)
        spec = trees.parse_spec(text)
        pairs = sum(
            len(trees._walk(spec, e.child).types)
            for name in spec.reachable
            for e in spec.definitions[name].edges
        )
        assert pairs == m - 1
        calls.clear()
        code, out, err = run(capsys, "tree", "table", files("ladder.spec", text))
        assert (code, err) == (0, "")
        assert len(calls) == pairs
        outs.append(out)
    assert outs[0] == outs[1]


def test_tree_table_negative_cap_is_a_value_error(capsys, files):
    f = files("v.spec", VSPEC)
    code, out, err = run(capsys, "tree", "table", f, "--cap", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("error: value:") and err.count("\n") == 1


def test_tree_table_omega_reports_unbounded(capsys, files):
    f = files("omega.spec", OMEGA_SPEC)
    code, out, _ = run(capsys, "tree", "table", f)
    assert code == 0
    assert "unbounded type=0\n" in out
    # the walk's one pass round B's loop lies in the type's prefix
    f = files("first_pass.spec", FIRST_PASS)
    code, out, _ = run(capsys, "tree", "table", f)
    assert code == 0
    assert "unbounded type=0\n" in out
    code, out, _ = run(capsys, "tree", "check", f)
    assert code == 1
    assert (
        "condition finite-ramification: fail witness "
        "[Q(a^Q(b)), c] * [Q(b), Q(a^Q(b)), c] w\n"
    ) in out


def test_tree_sample_v_golden(capsys, files):
    f = files("v.spec", VSPEC)
    code, out, err = run(
        capsys, "tree", "sample", f, "--depth", "1", "--width", "2"
    )
    assert code == 0 and err == ""
    assert out == "node 0\nnode 1\nnode 2\nedge 0 1\nedge 0 2\n"


def test_tree_sample_hangs_copies_in_spec_order(capsys, files):
    # the attachments are listed out of site order: the copy of L at the
    # top cut (point 3) is numbered before the two copies of M at orbit 0
    f = files("order.spec", (
        "T = spine 1^Q(a) with 1 x L at top, 2 x M at orbit 0\n"
        "L = spine b\n"
        "M = spine c\n"
    ))
    code, out, err = run(
        capsys, "tree", "sample", f, "--depth", "1", "--width", "3"
    )
    assert (code, err) == (0, "")
    assert out == (
        "node 0\nnode 1 colour=a\nnode 2 colour=a\nnode 3 irrational\n"
        "node 4 colour=b\nnode 5 colour=c\nnode 6 colour=c\n"
        "edge 0 1\nedge 0 5\nedge 0 6\nedge 1 2\nedge 2 3\nedge 3 4\n"
    )


def test_tree_sample_deterministic(capsys, files):
    f = files("dense.spec", DENSE)
    argv = ("tree", "sample", f, "--depth", "2", "--width", "2", "--seed", "5")
    a = run(capsys, *argv)
    b = run(capsys, *argv)
    assert a == b and a[0] == 0
    assert a[1].encode() == b[1].encode()


def test_tree_sample_dot_format(capsys, files):
    f = files("v.spec", VSPEC)
    code, out, _ = run(
        capsys, "tree", "sample", f, "--depth", "1", "--width", "2",
        "--format", "dot",
    )
    assert code == 0
    assert out.startswith("digraph")


def test_tree_sample_deeper_than_the_recursion_limit(capsys, files):
    f = files("unary.spec", "T = spine 1 with 1 x T at orbit 0\n")
    code, out, err = run(
        capsys, "tree", "sample", f, "--depth", "1100", "--width", "1"
    )
    assert (code, err) == (0, "")
    assert out.count("node ") == 1101
    assert out.endswith("edge 1099 1100\n")


def test_tree_check_spine_nesting_limit_is_a_parse_error(capsys, files):
    f = files("deep.spec", "T = spine " + "Q(" * 1000 + "1" + ")" * 1000 + "\n")
    code, out, err = run(capsys, "tree", "check", f)
    assert (code, out) == (2, "")
    assert err.startswith("error: parse:")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "spec, size",
    [
        (OMEGA_SPEC, ("--depth", "40", "--width", "3")),  # 3**40 copies
        (
            "T = spine 1 with 1 x T at orbit 0\n",
            ("--depth", "1000000", "--width", "1"),
        ),
    ],
)
def test_tree_sample_too_large_to_hold_is_a_budget_error(capsys, files, spec, size):
    f = files("big.spec", spec)
    start = time.perf_counter()
    code, out, err = run(capsys, "tree", "sample", f, *size)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("error: budget:") and err.count("\n") == 1


def test_tree_sample_depth_budget(capsys, files):
    f = files("v.spec", VSPEC)
    code, out, err = run(capsys, "tree", "sample", f, "--depth", "0")
    assert code == 3
    assert err.startswith("error: budget:")


def test_tree_orbit2_v_golden(capsys, files):
    f = files("v.spec", VSPEC)
    code, out, err = run(
        capsys, "tree", "orbit2", f, "0", "1", "0", "2",
        "--depth", "1", "--width", "2",
    )
    assert code == 0 and err == ""
    assert out == "equivalent\nbase 0 -> 0\nbase 1 -> 2\nodd 2 -> 1\n"


def test_tree_orbit2_rigid_chain_inequivalent(capsys, files):
    f = files("chain3.spec", CHAIN3_SPEC)
    code, out, _ = run(capsys, "tree", "orbit2", f, "0", "1", "0", "2")
    assert (code, out) == (1, "inequivalent\n")


def test_tree_orbit2_identity(capsys, files):
    f = files("chain3.spec", CHAIN3_SPEC)
    code, out, _ = run(capsys, "tree", "orbit2", f, "1", "2", "1", "2")
    assert code == 0
    assert out.splitlines()[0] == "equivalent"


# ---------------------------------------------------------------------------
# poset subcommands


def test_poset_validate_tree_ok(capsys, files):
    f = files("chain3.poset", CHAIN3_POSET)
    code, out, _ = run(capsys, "poset", "validate", "--tree", f)
    assert (code, out) == (0, "ok\n")


def test_poset_validate_tree_rejects_diamond(capsys, files):
    f = files("diamond.poset", DIAMOND_POSET)
    code, out, _ = run(capsys, "poset", "validate", "--tree", f)
    assert code == 1
    assert out.startswith("not a tree:")


def test_poset_validate_cfpo_rejects_diamond(capsys, files):
    f = files("diamond.poset", DIAMOND_POSET)
    code, out, _ = run(capsys, "poset", "validate", "--cfpo", f)
    assert (code, out) == (1, "not cycle-free: pair a b\n")


def test_poset_validate_cfpo_ok(capsys, files):
    f = files("v.poset", V_POSET)
    code, out, _ = run(capsys, "poset", "validate", "--cfpo", f)
    assert (code, out) == (0, "ok\n")


def test_poset_validate_requires_mode(capsys, files):
    f = files("v.poset", V_POSET)
    code, out, err = run(capsys, "poset", "validate", f)
    assert code == 2
    assert err.startswith("error: usage:")


def test_poset_orbits_chain_golden(capsys, files):
    f = files("chain3.poset", CHAIN3_POSET)
    code, out, _ = run(capsys, "poset", "orbits", f, "-n", "1")
    assert code == 0
    assert out == "3 orbits\norbit 0: 0\norbit 1: 1\norbit 2: 2\n"


def test_poset_orbits_pairs_on_rigid_chain(capsys, files):
    f = files("chain3.poset", CHAIN3_POSET)
    code, out, _ = run(capsys, "poset", "orbits", f, "-n", "2")
    assert code == 0
    assert out.splitlines()[0] == "9 orbits"


def test_poset_orbits_budget(capsys, files):
    f = files("chain3.poset", CHAIN3_POSET)
    code, out, err = run(
        capsys, "poset", "orbits", f, "-n", "1", "--budget-nodes", "2"
    )
    assert code == 3
    assert err.startswith("error: budget:")


def test_poset_orbits_negative_arity_is_a_value_error(capsys, files):
    f = files("chain3.poset", CHAIN3_POSET)
    code, out, err = run(capsys, "poset", "orbits", f, "-n", "-1")
    assert (code, out) == (2, "")
    assert err == "error: value: the tuple length n must be >= 0\n"


def test_poset_auts_negative_node_bound_is_a_value_error(capsys, files):
    f = files("chain3.poset", CHAIN3_POSET)
    code, out, err = run(capsys, "poset", "auts", f, "--budget-nodes", "-1")
    assert (code, out) == (2, "")
    assert err == "error: value: the node bound must be >= 0\n"


def test_poset_auts_chain_golden(capsys, files):
    f = files("chain3.poset", CHAIN3_POSET)
    code, out, _ = run(capsys, "poset", "auts", f)
    assert (code, out) == (0, "1 automorphisms\n0->0 1->1 2->2\n")


def test_poset_auts_v_golden(capsys, files):
    f = files("v.poset", V_POSET)
    code, out, _ = run(capsys, "poset", "auts", f)
    assert code == 0
    assert out == "2 automorphisms\na->a b->b r->r\na->b b->a r->r\n"


def test_poset_auts_and_orbits_on_a_1200_point_chain(capsys, files):
    # the automorphism search goes 1 200 points deep, which recursion
    # could not reach
    text = "".join(f"node {v}\n" for v in range(1200))
    text += "".join(f"edge {v} {v + 1}\n" for v in range(1199))
    f = files("chain1200.poset", text)
    code, out, err = run(capsys, "poset", "auts", f, "--budget-nodes", "2000")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "1 automorphisms"
    code, out, err = run(
        capsys, "poset", "orbits", f, "-n", "1", "--budget-nodes", "2000"
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "1200 orbits"


# ---------------------------------------------------------------------------
# cfpo subcommands


def test_cfpo_alt_rank_golden(capsys, files):
    f = files("alt6.poset", dump_poset(alt(6)))
    code, out, _ = run(capsys, "cfpo", "alt-rank", f)
    assert (code, out) == (0, "6\n")


def test_cfpo_alt_rank_of_a_1100_point_zigzag(capsys, files):
    f = files("alt1100.poset", dump_poset(alt(1100)))
    code, out, err = run(capsys, "cfpo", "alt-rank", f)
    assert (code, out, err) == (0, "1100\n", "")


def test_cfpo_alt_rank_of_a_120_node_oriented_tree(capsys, files):
    # a cycle-free order: its rank is read off the completion's Hasse
    # forest, where the search ran out of its budget
    f = files("otree120.poset", dump_poset(FinPoset(range(120), oriented_tree(0, 120))))
    code, out, err = run(capsys, "cfpo", "alt-rank", f)
    assert (code, out, err) == (0, "9\n", "")


def test_cfpo_alt_rank_chain(capsys, files):
    f = files("chain3.poset", CHAIN3_POSET)
    code, out, _ = run(capsys, "cfpo", "alt-rank", f)
    assert (code, out) == (0, "2\n")


def test_cfpo_path_diamond_ambiguous(capsys, files):
    f = files("diamond.poset", DIAMOND_POSET)
    code, out, _ = run(capsys, "cfpo", "path", f, "r", "t")
    assert (code, out) == (1, "ambiguous (not a CFPO)\n")


def test_cfpo_path_v_golden(capsys, files):
    f = files("v.poset", V_POSET)
    code, out, _ = run(capsys, "cfpo", "path", f, "a", "b")
    assert (code, out) == (0, "a b r\n")


def test_cfpo_path_chain(capsys, files):
    f = files("chain3.poset", CHAIN3_POSET)
    code, out, _ = run(capsys, "cfpo", "path", f, "0", "2")
    assert (code, out) == (0, "0 1 2\n")


def test_cfpo_path_disconnected(capsys, files):
    f = files("disjoint.poset", DISJOINT_POSET)
    code, out, _ = run(capsys, "cfpo", "path", f, "0", "2")
    assert (code, out) == (1, "no path\n")


def test_cfpo_path_through_completion_point(capsys, files):
    f = files("bowtie.poset", BOWTIE_POSET)
    code, out, _ = run(capsys, "cfpo", "path", f, "a", "x")
    assert (code, out) == (0, "a i0 x\n")


# the benchmark's path-poset shape: a 57-point rooted tree whose three
# removed X-points the completion restores as i1, i2 and i3
X_POSET = dump_poset(x_point_tree(60, 60, 3))
# with a diamond: 39 and h37, two upper covers of 47, get a common top
X_DIAMOND_POSET = X_POSET + "node top\nedge 39 top\nedge h37 top\n"


def mask_calls(monkeypatch):
    calls = []
    real = posets._masks

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(posets, "_masks", counted)
    return calls


@pytest.mark.parametrize(
    "argv, want",
    [
        (("cfpo", "path", "X", "h9", "i44"), (0, "h9 i1 i44\n")),
        (("cfpo", "path", "X", "h9", "j42"), (0, "h9 i1 i24 i3 i44 j42 j54\n")),
        (("poset", "validate", "--cfpo", "X"), (0, "ok\n")),
        (("cfpo", "alt-rank", "X"), (0, "5\n")),
    ],
)
def test_cfpo_queries_on_a_forest_completion_build_no_closure(
    capsys, files, monkeypatch, argv, want
):
    # load_poset builds its masks with one call; the completion, a forest,
    # is read through its covers alone, so its masks are never built
    f = files("x.poset", X_POSET)
    calls = mask_calls(monkeypatch)
    assert run(capsys, *(f if a == "X" else a for a in argv)) == (*want, "")
    assert len(calls) == 1


@pytest.mark.parametrize(
    "text, argv, want, sweeps",
    [
        (DIAMOND_POSET, ("poset", "validate", "--cfpo"), (1, "not cycle-free: pair a b\n"), 1),
        (X_DIAMOND_POSET, ("poset", "validate", "--cfpo"), (1, "not cycle-free: pair 11 top\n"), 2),
    ],
)
def test_cfpo_masks_of_a_completion_are_built_once_on_first_read(
    capsys, files, monkeypatch, text, argv, want, sweeps
):
    # the diamond completes to itself, whose masks load_poset built; the
    # other gains points, and the witness search reads the completion's
    # masks, built by one more call however often read
    f = files("in.poset", text)
    calls = mask_calls(monkeypatch)
    assert run(capsys, *argv, f) == (*want, "")
    assert len(calls) == sweeps


CUT_SPEC = "A = spine Q(d)^Q(a) with 2 x B at cut 0, omega x A at orbit 1\nB = spine b\n"
# the 7-point sample of DENSE at depth 2, width 1: 0 below 1 and 4, each
# below two leaves, 2 and 3 above 1, 5 and 6 above 4
DENSE_2_1 = ("--depth", "2", "--width", "1")


@pytest.mark.parametrize(
    "argv, want",
    [
        (
            ("term", "sample", "Q(a,b)^c^Q(1)", "--size", "7", "--seed", "3"),
            (
                0,
                "node 0 colour=b\nnode 1 colour=a\nnode 2 colour=b\nnode 3 colour=a\n"
                "node 4 colour=c\nnode 5\nnode 6\n"
                "edge 0 1\nedge 1 2\nedge 2 3\nedge 3 4\nedge 4 5\nedge 5 6\n",
            ),
        ),
        (
            ("term", "sample", "Q(a,b)^I^Q(c)", "--size", "5", "--format", "dot"),
            (
                0,
                'digraph poset {\n  rankdir=BT;\n  "0" [label="0:a"];\n  "1" [label="1:b"];\n'
                '  "2" [label="2:a"];\n  "3" [label="3", style=dashed];\n  "4" [label="4:c"];\n'
                '  "0" -> "1";\n  "1" -> "2";\n  "2" -> "3";\n  "3" -> "4";\n}\n',
            ),
        ),
        (
            ("tree", "sample", "CUT", "--depth", "1", "--width", "1"),
            (
                0,
                "node 0 colour=d\nnode 1 colour=a\nnode 2 irrational\nnode 3 colour=b\n"
                "node 4 colour=b\nnode 5 colour=d\nnode 6 colour=a\nnode 7 colour=d\n"
                "node 8 colour=a\n"
                "edge 0 2\nedge 1 5\nedge 1 7\nedge 2 1\nedge 2 3\nedge 2 4\nedge 5 6\n"
                "edge 7 8\n",
            ),
        ),
        (
            ("tree", "orbit2", "DENSE", "0", "2", "0", "5", *DENSE_2_1),
            (
                0,
                "equivalent\nbase 0 -> 0\nbase 1 -> 4\nbase 2 -> 5\nodd 4 -> 1\n"
                "even 3 -> 6\neven 5 -> 2\neven 6 -> 3\n",
            ),
        ),
        (
            ("tree", "orbit2", "CUT", "2", "4", "2", "3", "--depth", "1", "--width", "1"),
            (
                0,
                "equivalent\nbase 0 -> 0\nbase 2 -> 2\nbase 4 -> 3\neven 1 -> 1\n"
                "even 3 -> 4\nodd 5 -> 5\nodd 7 -> 7\neven 6 -> 6\neven 8 -> 8\n",
            ),
        ),
        (("tree", "orbit2", "DENSE", "0", "1", "1", "2", *DENSE_2_1), (1, "inequivalent\n")),
    ],
    ids=["term-text", "term-dot", "tree-sample", "orbit2-dense", "orbit2-cut", "orbit2-inequivalent"],
)
def test_sample_commands_build_no_masks(capsys, files, monkeypatch, argv, want):
    # a sample holds only its covers, and printing it, validating it as a
    # tree and matching two of its pairs read nothing else
    spec = {"DENSE": files("dense.spec", DENSE), "CUT": files("cut.spec", CUT_SPEC)}
    calls = mask_calls(monkeypatch)
    assert run(capsys, *(spec.get(a, a) for a in argv)) == (*want, "")
    assert len(calls) == 0


@pytest.mark.parametrize(
    "text, want",
    [
        (V_POSET, (0, "ok\n")),
        (DISJOINT_POSET, (1, "not a tree: ('common-lower-bound', ('0', '2'))\n")),
        (DIAMOND_POSET, (1, "not a tree: ('down-linearity', ('a', 'b', 't'))\n")),
    ],
    ids=["v", "disjoint", "diamond"],
)
def test_a_loaded_poset_builds_its_masks_once(capsys, files, monkeypatch, text, want):
    # load_poset builds the masks at once, and tree validation, which
    # reads them on a non-forest or a forest of two or more roots, adds none
    f = files("in.poset", text)
    calls = mask_calls(monkeypatch)
    assert run(capsys, "poset", "validate", "--tree", f) == (*want, "")
    assert len(calls) == 1


def test_cfpo_path_unknown_node(capsys, files):
    f = files("chain3.poset", CHAIN3_POSET)
    code, out, err = run(capsys, "cfpo", "path", f, "0", "zz")
    assert code == 2
    assert err.startswith("error: value:")


def test_cfpo_path_completion_budget_is_exit_3(capsys, files, monkeypatch):
    # the bowtie needs one added point; a limit of none leaves it open
    monkeypatch.setattr("omegacat.cfpo._MAX_COMPLETION_POINTS", 0)
    f = files("bowtie.poset", BOWTIE_POSET)
    code, out, err = run(capsys, "cfpo", "path", f, "a", "x")
    assert (code, out) == (3, "")
    assert err.startswith("error: budget:")
    assert err.count("\n") == 1


def test_cfpo_path_search_budget_is_exit_3(capsys, files, monkeypatch):
    # the diamond's two paths from r to t take three walks to find, and
    # so do those of its witness pair a b; a budget of two stops both
    f = files("diamond.poset", DIAMOND_POSET)
    monkeypatch.setattr("omegacat.cfpo._MAX_PATH_STEPS", 3)
    assert run(capsys, "cfpo", "path", f, "r", "t")[:2] == (1, "ambiguous (not a CFPO)\n")
    monkeypatch.setattr("omegacat.cfpo._MAX_PATH_STEPS", 2)
    for argv in (("cfpo", "path", f, "r", "t"), ("poset", "validate", "--cfpo", f)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == "error: budget: path search budget of 2 walks exhausted\n"


def test_a_ring_of_200_definitions_is_checked(capsys, files):
    # the cycle word collapses once at every junction: 200 collapses
    m = 200
    text = "".join(
        f"D{i} = spine Q(c{(i - 1) % m})^Q(c{i}) with 1 x D{(i + 1) % m} at orbit 1\n"
        for i in range(m)
    )
    f = files("ring.spec", text)
    code, out, err = run(capsys, "tree", "check", f)
    assert (code, err) == (1, "")
    assert out.startswith("categorical: no — ")


def nested_spine(levels):
    """``Q(b,Q(a,...Q(a,c)...))``, shuffles nested ``levels - 1`` deep
    around ``c``: a term that is its own normal form."""
    term = "c"
    for i in range(levels - 1):
        term = f"Q({'ab'[i % 2]},{term})"
    return term


@pytest.mark.parametrize("levels", [48, 200])
def test_tree_table_on_a_deep_spine(capsys, files, levels):
    # one chain type, with one point of each of its orbits on a chain;
    # every normalisation there reads the nodes' stored normal forms
    term = nested_spine(levels)
    f = files("spine.spec", f"T = spine {term}\n")
    start = time.monotonic()
    code, out, err = run(capsys, "tree", "table", f)
    assert (code, err) == (0, "")
    assert out == f"cap: 3\ntype 0: [{term}]\n" + "".join(
        f"cell type=0 pos={i} count=1\n" for i in range(levels)
    )
    assert time.monotonic() - start < 5.0


def test_chain_walk_budget_is_exit_3(capsys, files, monkeypatch):
    # the dense spec's walk pushes one state below the root
    monkeypatch.setattr("omegacat.trees._WALK_BUDGET", 0)
    f = files("dense.spec", DENSE)
    code, out, err = run(capsys, "tree", "chains", f)
    assert (code, out) == (3, "")
    assert err.startswith("error: budget:")
    assert err.count("\n") == 1


def test_poset_validate_tree_prints_the_first_violation(capsys, files):
    rng = random.Random(5)
    checked = 0
    for _ in range(60):
        n = rng.randint(2, 7)
        edges = [(a, b) for b in range(n) for a in range(b) if rng.random() < 0.3]
        text = "".join(f"node {i}\n" for i in range(n))
        text += "".join(f"edge {a} {b}\n" for a, b in edges)
        report = validate_tree(load_poset(text))
        if report.ok:
            continue
        checked += 1
        code, out, _ = run(capsys, "poset", "validate", "--tree", files("p.poset", text))
        assert (code, out) == (1, f"not a tree: {report.violations[0]}\n")
    assert checked > 30


# ---------------------------------------------------------------------------
# the error contract: exit 2, nothing on stdout, one ``error:`` line


# (id, command, the text of its input file or None, the line after "error: ")
FAILURES = [
    ("bare-root", "tree check", "root\n", "parse: expected 'root NAME' at line 1"),
    ("root-twice", "tree check", "root T\nroot T\n" + Q1, "spec: the root is named twice"),
    (
        "reserved-name",
        "tree check",
        "spine = spine 1\n",
        "parse: 'spine' is a reserved word at line 1",
    ),
    ("no-spine", "tree check", "T = spine\n", "parse: missing spine term at line 1"),
    (
        "bad-site",
        "tree check",
        "T = spine 1 with 1 x T at nowhere\n",
        "parse: bad attachment clause '1 x T at nowhere' at line 1",
    ),
    (
        "zero-multiplicity",
        "tree check",
        "T = spine 1 with 0 x T at orbit 0\n",
        "spec: attachment multiplicity must be positive",
    ),
    (
        "no-definitions",
        "tree check",
        "# nothing\n\n",
        "parse: the specification has no definitions at line 1",
    ),
    ("undefined-root", "tree check", "root U\n" + Q1, "spec: root 'U' is not defined"),
    (
        "top-as-cut",
        "tree check",
        "T = spine 1^1 with 1 x T at cut 1\n",
        "spec: 'T' has no interior cut position 1",
    ),
    (
        "node-without-id",
        "poset validate --tree",
        "node\n",
        "parse: node line needs an id at line 1",
    ),
    (
        "node-option",
        "poset validate --tree",
        "node a bogus\n",
        "parse: unknown node option 'bogus' at line 1",
    ),
    (
        "edge-arity",
        "poset validate --tree",
        "node a\nedge a\n",
        "parse: edge line needs exactly two node ids at line 2",
    ),
    ("character", "term normalize a$b", None, "parse: unexpected character '$'"),
    ("unclosed", "term normalize Q(a", None, "parse: expected ')'"),
    ("trailing", "term normalize a)", None, "parse: unexpected ')' after term"),
    ("bracket", "term normalize a[b", None, "parse: unexpected character '['"),
    ("star", "term normalize a*b", None, "parse: unexpected character '*'"),
    ("close-bracket", "term normalize Q(a]", None, "parse: unexpected character ']'"),
    ("depth", "tree sample --depth -1", VSPEC, "value: depth must be >= 0"),
    ("width", "tree sample --width 0", VSPEC, "value: width must be >= 1"),
    ("unknown-point", "tree orbit2 0 999 0 1", VSPEC, "value: unknown point in pair (0, 999)"),
]


@pytest.mark.parametrize(
    "command, text, message", [f[1:] for f in FAILURES], ids=[f[0] for f in FAILURES]
)
def test_each_failure_prints_one_error_line(capsys, files, command, text, message):
    argv = command.split()
    if text is not None:  # the input file is the first positional argument
        argv[2:2] = [files("input", text)]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# usage and process-level behaviour


def test_no_arguments_is_usage_error(capsys):
    code, out, err = run(capsys)
    assert code == 2
    assert err.startswith("error: usage:")
    assert err.count("\n") == 1


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, "term", "bogus")
    assert code == 2
    assert err.startswith("error: usage:")


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "usage" in out.lower()


# each command's positional arguments, on the files ``routed_files`` writes
COMMAND_ARGS = {
    ("term", "normalize"): ["Q(1)^1^Q(1)"],
    ("term", "eq"): ["Q(1,1)", "Q(1)"],
    ("term", "orbits"): ["a^Q(b)"],
    ("term", "sample"): ["Q(a,b)"],
    ("tree", "check"): ["{spec}"],
    ("tree", "chains"): ["{spec}"],
    ("tree", "table"): ["{spec}"],
    ("tree", "sample"): ["{spec}"],
    ("tree", "orbit2"): ["{spec}", "0", "1", "0", "2"],
    ("poset", "validate"): ["{poset}"],
    ("poset", "orbits"): ["{poset}"],
    ("poset", "auts"): ["{poset}"],
    ("cfpo", "alt-rank"): ["{poset}"],
    ("cfpo", "path"): ["{poset}", "a", "b"],
}


def test_every_command_is_routed():
    assert set(build_parser().commands) == set(COMMAND_ARGS)


def _routed_and_nested(capsys, monkeypatch, argv):
    """``main``'s (exit, stdout, stderr) with the command table, and with
    it emptied so that every line goes through nested parsing."""
    routed = run(capsys, *argv)
    with monkeypatch.context() as m:
        m.setattr(build_parser(), "commands", {})
        nested = run(capsys, *argv)
    return routed, nested


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS), ids="-".join)
def test_routing_matches_nested_parsing(capsys, monkeypatch, files, command):
    names = {"spec": files("v.spec", VSPEC), "poset": files("v.poset", V_POSET)}
    args = [a.format(**names) for a in COMMAND_ARGS[command]]
    tails = [
        [],
        ["-h"],
        args[:-1],  # a positional missing
        args + ["extra"],
        args + ["--bogus"],
        args + ["--seed", "x"],
        args + ["--format", "bad"],
        ["--"],
        ["--", *args],
        args,
    ]
    for tail in tails:
        argv = [*command, *tail]
        routed, nested = _routed_and_nested(capsys, monkeypatch, argv)
        assert routed == nested, argv


@pytest.mark.parametrize("argv", [[], ["tree"], ["tree", "nope"], ["nope"]])
def test_lines_without_a_command_are_parsed_whole(capsys, monkeypatch, argv):
    routed, nested = _routed_and_nested(capsys, monkeypatch, argv)
    assert routed == nested
    assert routed[0] == 2


def test_routed_usage_errors_and_help(capsys, files):
    spec = files("omega.spec", OMEGA_SPEC)
    assert run(capsys, "tree", "check", spec, "--bogus") == (
        2, "", "error: usage: unrecognized arguments: --bogus\n"
    )
    code, out, err = run(capsys, "tree", "check", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: omegacat tree check")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "omegacat.cli", "term", "normalize", "Q(1,1)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "Q(1)\n"
    assert proc.stderr == ""
