"""The ``omegacat`` command line tool.

Subcommand groups mirror the library modules:

- ``term``   normalize / compare / orbit-list / sample linear-order terms
- ``tree``   check, describe, and sample recursive tree specifications
- ``poset``  validate finite posets and run the brute-force orbit oracle
- ``cfpo``   path queries and alternation rank for cycle-free orders

Conventions: results go to stdout; every failure is a single
``error: <kind>: <message>`` line on stderr.  Exit codes: 0 for success,
1 for a negative verdict (not equivalent, not categorical, not valid,
no unique path), 2 for usage/parse/value errors, 3 for exhausted
budgets.  All output is deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .cfpo import AMBIGUOUS, alt_rank, path, path_completion, validate_cfpo
from .errors import (
    BudgetError,
    CycleError,
    MeetAbsentError,
    NotATreeError,
    ParseError,
    SpecError,
)
from .posets import (
    AUT_NODE_BOUND,
    FinPoset,
    _tree_violations,
    automorphisms,
    dump_poset,
    load_poset,
    node_key,
    orbits,
    to_dot,
)
from .sequences import NfSequence, render_sequence
from .terms import (
    equivalent,
    materialize,
    normalize,
    one_orbits,
    parse_term,
    render_term,
    subterm_at,
)
from .trees import (
    OMEGA,
    chain_types,
    check_categorical,
    materialize_tree,
    parse_spec,
    ramification_table,
    two_orbit_equiv,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports problems through ``_UsageError``
    instead of printing its own message and exiting."""

    def error(self, message):
        raise _UsageError(message)


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _fail(kind: str, exc: BaseException, code: int) -> int:
    message = str(exc).splitlines()[0] if str(exc) else kind
    sys.stderr.write(f"error: {kind}: {message}\n")
    return code


def _read_file(name: str) -> str:
    with open(name, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit_poset(p: FinPoset, fmt: str) -> None:
    if fmt == "dot":
        _emit(to_dot(p))
    else:
        _emit(dump_poset(p))


def _count_text(count) -> str:
    return "omega" if count == OMEGA else str(count)


def _render_witness(witness) -> str:
    if isinstance(witness, NfSequence):
        return render_sequence(witness)
    if isinstance(witness, tuple):
        return " vs ".join(_render_witness(w) for w in witness)
    return str(witness)


# ---------------------------------------------------------------------------
# term


def _cmd_term_normalize(args) -> int:
    t = normalize(parse_term(args.expr))
    _emit(render_term(t) + "\n")
    return 0


def _cmd_term_eq(args) -> int:
    a = parse_term(args.left)
    b = parse_term(args.right)
    if equivalent(a, b):
        _emit("equivalent\n")
        return 0
    _emit("distinct\n")
    return 1


def _cmd_term_orbits(args) -> int:
    t = normalize(parse_term(args.expr))
    for d in one_orbits(t):
        where = ".".join(str(i) for i in d.path) if d.path else "()"
        leaf = render_term(subterm_at(t, d.path))
        _emit(f"orbit {d.index}: path={where} leaf={leaf}\n")
    return 0


def _cmd_term_sample(args) -> int:
    t = normalize(parse_term(args.expr))
    p, _ = materialize(t, args.size, seed=args.seed)
    _emit_poset(p, args.format)
    return 0


# ---------------------------------------------------------------------------
# tree


def _check_headline(verdict) -> str:
    if verdict.categorical:
        return "categorical: yes"
    # finite-ramification fails only where one of the other two fails, and
    # finite-chain-family only with chains-categorical: its witness goes
    # round a cut cycle, whose endless repetition is a listed type with a
    # tail
    chains = verdict.condition_reports[1]
    return f"categorical: no — chain {_render_witness(chains.witness)} is not a term"


def _cmd_tree_check(args) -> int:
    spec = parse_spec(_read_file(args.file))
    verdict = check_categorical(spec)
    _emit(_check_headline(verdict) + "\n")
    for report in verdict.condition_reports:
        if report.passed:
            _emit(f"condition {report.name}: pass\n")
        elif report.witness is not None:
            _emit(
                f"condition {report.name}: fail witness "
                f"{_render_witness(report.witness)}\n"
            )
        else:
            _emit(f"condition {report.name}: fail\n")
    return 0 if verdict.categorical else 1


def _cmd_tree_chains(args) -> int:
    spec = parse_spec(_read_file(args.file))
    for t in chain_types(spec):
        _emit(render_sequence(t) + "\n")
    return 0


def _cmd_tree_table(args) -> int:
    spec = parse_spec(_read_file(args.file))
    table = ramification_table(spec, cap=args.cap)
    _emit(f"cap: {table.cap}\n")
    for i, t in enumerate(table.chain_types):
        _emit(f"type {i}: {render_sequence(t)}\n")
    for count, (m, n) in table.realised:
        _emit(f"cell type={m} pos={n} count={_count_text(count)}\n")
    for m, n in table.indeterminate:
        _emit(f"indeterminate type={m} pos={n} count=more-than-{table.cap}\n")
    for m in table.unbounded:
        _emit(f"unbounded type={m}\n")
    return 0


def _cmd_tree_sample(args) -> int:
    spec = parse_spec(_read_file(args.file))
    p = materialize_tree(spec, depth=args.depth, width=args.width, seed=args.seed)
    _emit_poset(p, args.format)
    return 0


def _cmd_tree_orbit2(args) -> int:
    spec = parse_spec(_read_file(args.file))
    p = materialize_tree(spec, depth=args.depth, width=args.width, seed=args.seed)
    ok, trace = two_orbit_equiv(p, (args.x0, args.y0), (args.x1, args.y1))
    if not ok:
        _emit("inequivalent\n")
        return 1
    _emit("equivalent\n")
    for phase, a, b in trace:
        _emit(f"{phase} {a} -> {b}\n")
    return 0


# ---------------------------------------------------------------------------
# poset


def _cmd_poset_validate(args) -> int:
    p = load_poset(_read_file(args.file))
    if args.tree:
        violation = next(_tree_violations(p), None)
        if violation is None:
            _emit("ok\n")
            return 0
        _emit(f"not a tree: {violation}\n")
        return 1
    ok, witness = validate_cfpo(p)
    if ok:
        _emit("ok\n")
        return 0
    _emit(f"not cycle-free: pair {witness[0]} {witness[1]}\n")
    return 1


def _cmd_poset_orbits(args) -> int:
    p = load_poset(_read_file(args.file))
    report = orbits(p, args.n, bound=args.budget_nodes)
    _emit(f"{report.count} orbits\n")
    for i, cls in enumerate(report.orbits):
        members = " ".join(",".join(str(x) for x in tup) for tup in cls)
        _emit(f"orbit {i}: {members}\n")
    return 0


def _cmd_poset_auts(args) -> int:
    p = load_poset(_read_file(args.file))
    auts = automorphisms(p, bound=args.budget_nodes)
    _emit(f"{len(auts)} automorphisms\n")
    for f in auts:
        _emit(" ".join(f"{x}->{f[x]}" for x in p.elements) + "\n")
    return 0


# ---------------------------------------------------------------------------
# cfpo


def _cmd_cfpo_alt_rank(args) -> int:
    p = load_poset(_read_file(args.file))
    _emit(f"{alt_rank(p)}\n")
    return 0


def _cmd_cfpo_path(args) -> int:
    p = load_poset(_read_file(args.file))
    q = path_completion(p)
    result = path(q, args.a, args.b)
    if result is AMBIGUOUS:
        _emit("ambiguous (not a CFPO)\n")
        return 1
    if result is None:
        _emit("no path\n")
        return 1
    _emit(" ".join(str(x) for x in sorted(result, key=node_key)) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_seed(sp) -> None:
    sp.add_argument("--seed", type=int, default=0)


def _add_format(sp) -> None:
    sp.add_argument(
        "--format", choices=("text", "records", "dot"), default="text"
    )


def _add_sample_shape(sp) -> None:
    _add_seed(sp)
    sp.add_argument("--depth", type=int, default=2)
    sp.add_argument("--width", type=int, default=3)


@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="omegacat",
        description="Classification tools for categorical orders and trees.",
    )
    groups = parser.add_subparsers(dest="group", required=True, parser_class=_Parser)

    term = groups.add_parser("term", help="linear-order term algebra")
    tsub = term.add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    sp = tsub.add_parser("normalize", help="print the canonical normal form")
    sp.add_argument("expr")
    sp.set_defaults(func=_cmd_term_normalize)
    sp = tsub.add_parser("eq", help="decide equivalence of two terms")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.set_defaults(func=_cmd_term_eq)
    sp = tsub.add_parser("orbits", help="list the one-element orbits")
    sp.add_argument("expr")
    sp.set_defaults(func=_cmd_term_orbits)
    sp = tsub.add_parser("sample", help="materialize a finite sample")
    sp.add_argument("expr")
    sp.add_argument("--size", type=int, default=8)
    _add_seed(sp)
    _add_format(sp)
    sp.set_defaults(func=_cmd_term_sample)

    tree = groups.add_parser("tree", help="recursive tree specifications")
    rsub = tree.add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    sp = rsub.add_parser("check", help="run the categoricity checker")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_tree_check)
    sp = rsub.add_parser("chains", help="list the maximal-chain types")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_tree_chains)
    sp = rsub.add_parser("table", help="print the ramification table")
    sp.add_argument("file")
    sp.add_argument("--cap", type=int, default=3)
    sp.set_defaults(func=_cmd_tree_table)
    sp = rsub.add_parser("sample", help="materialize a finite sample")
    sp.add_argument("file")
    _add_sample_shape(sp)
    _add_format(sp)
    sp.set_defaults(func=_cmd_tree_sample)
    sp = rsub.add_parser(
        "orbit2", help="test two comparable pairs for orbit equivalence"
    )
    sp.add_argument("file")
    sp.add_argument("x0", type=int)
    sp.add_argument("y0", type=int)
    sp.add_argument("x1", type=int)
    sp.add_argument("y1", type=int)
    _add_sample_shape(sp)
    sp.set_defaults(func=_cmd_tree_orbit2)

    poset = groups.add_parser("poset", help="finite poset files")
    psub = poset.add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    sp = psub.add_parser("validate", help="check tree or cycle-free axioms")
    sp.add_argument("file")
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--tree", action="store_true")
    mode.add_argument("--cfpo", action="store_true")
    sp.set_defaults(func=_cmd_poset_validate)
    sp = psub.add_parser("orbits", help="brute-force n-tuple orbits")
    sp.add_argument("file")
    sp.add_argument("-n", type=int, default=1, dest="n")
    sp.add_argument(
        "--budget-nodes", type=int, default=AUT_NODE_BOUND,
        dest="budget_nodes",
    )
    sp.set_defaults(func=_cmd_poset_orbits)
    sp = psub.add_parser("auts", help="list all automorphisms")
    sp.add_argument("file")
    sp.add_argument(
        "--budget-nodes", type=int, default=AUT_NODE_BOUND,
        dest="budget_nodes",
    )
    sp.set_defaults(func=_cmd_poset_auts)

    cfpo = groups.add_parser("cfpo", help="cycle-free partial orders")
    csub = cfpo.add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    sp = csub.add_parser("alt-rank", help="longest embedded zigzag")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_cfpo_alt_rank)
    sp = csub.add_parser("path", help="the unique path between two points")
    sp.add_argument("file")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(func=_cmd_cfpo_path)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        return _fail("usage", exc, 2)
    except SystemExit as exc:  # --help prints and exits
        code = exc.code
        return 0 if code in (0, None) else int(code)
    try:
        return args.func(args)
    except ParseError as exc:
        return _fail("parse", exc, 2)
    except SpecError as exc:
        return _fail("spec", exc, 2)
    except BudgetError as exc:
        return _fail("budget", exc, 3)
    except (CycleError, NotATreeError, MeetAbsentError, ValueError) as exc:
        return _fail("value", exc, 2)
    except OSError as exc:
        return _fail("io", exc, 2)


if __name__ == "__main__":
    sys.exit(main())
