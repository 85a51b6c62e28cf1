"""The ``omegacat`` command line tool.

Subcommand groups mirror the library modules:

- ``term``   normalize / compare / orbit-list / sample linear-order terms
- ``tree``   check, describe, and sample recursive tree specifications
- ``poset``  validate finite posets and run the brute-force orbit oracle
- ``cfpo``   path queries and alternation rank for cycle-free orders

Conventions: results go to stdout; every failure is a single
``error: <kind>: <message>`` line on stderr.  A spec accepted after an
adjustment adds one ``warning: spec: <message>`` line per distinct
message, unless the command fails.  Exit codes: 0 for success,
1 for a negative verdict (not equivalent, not categorical, not valid,
no unique path), 2 for usage/parse/value errors, 3 for exhausted
budgets.  All output is deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings

from .cfpo import AMBIGUOUS, alt_rank, path, path_completion, validate_cfpo
from .errors import (
    BudgetError,
    CycleError,
    NotATreeError,
    ParseError,
    SpecError,
    SpecWarning,
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
    """A witness is one chain type or a pair of them."""
    if isinstance(witness, NfSequence):
        return render_sequence(witness)
    return " vs ".join(map(render_sequence, witness))


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
    lines = ["equivalent"] + [f"{phase} {a} -> {b}" for phase, a, b in trace]
    _emit("\n".join(lines) + "\n")
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
    sp.add_argument("--format", choices=("text", "dot"), default="text")


def _add_sample_shape(sp) -> None:
    _add_seed(sp)
    sp.add_argument("--depth", type=int, default=2)
    sp.add_argument("--width", type=int, default=3)


def _add_node_budget(sp) -> None:
    sp.add_argument(
        "--budget-nodes", type=int, default=AUT_NODE_BOUND,
        dest="budget_nodes",
    )


@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The CLI parser, built once per process; parsing leaves it unchanged.

    Its ``commands`` maps each ``(group, command)`` pair to that command's
    own parser, the one nested parsing would hand the rest of the line.
    """
    parser = _Parser(
        prog="omegacat",
        description="Classification tools for categorical orders and trees.",
    )
    parser.commands = {}
    groups = parser.add_subparsers(dest="group", required=True, parser_class=_Parser)

    def group(name, help):
        sub = groups.add_parser(name, help=help).add_subparsers(
            dest="cmd", required=True, parser_class=_Parser
        )

        def command(cmd, help, func):
            sp = sub.add_parser(cmd, help=help)
            sp.set_defaults(func=func)
            parser.commands[name, cmd] = sp
            return sp

        return command

    command = group("term", "linear-order term algebra")
    sp = command("normalize", "print the canonical normal form", _cmd_term_normalize)
    sp.add_argument("expr")
    sp = command("eq", "decide equivalence of two terms", _cmd_term_eq)
    sp.add_argument("left")
    sp.add_argument("right")
    sp = command("orbits", "list the one-element orbits", _cmd_term_orbits)
    sp.add_argument("expr")
    sp = command("sample", "materialize a finite sample", _cmd_term_sample)
    sp.add_argument("expr")
    sp.add_argument("--size", type=int, default=8)
    _add_seed(sp)
    _add_format(sp)

    command = group("tree", "recursive tree specifications")
    sp = command("check", "run the categoricity checker", _cmd_tree_check)
    sp.add_argument("file")
    sp = command("chains", "list the maximal-chain types", _cmd_tree_chains)
    sp.add_argument("file")
    sp = command("table", "print the ramification table", _cmd_tree_table)
    sp.add_argument("file")
    sp.add_argument("--cap", type=int, default=3)
    sp = command("sample", "materialize a finite sample", _cmd_tree_sample)
    sp.add_argument("file")
    _add_sample_shape(sp)
    _add_format(sp)
    sp = command(
        "orbit2", "test two comparable pairs for orbit equivalence", _cmd_tree_orbit2
    )
    sp.add_argument("file")
    sp.add_argument("x0", type=int)
    sp.add_argument("y0", type=int)
    sp.add_argument("x1", type=int)
    sp.add_argument("y1", type=int)
    _add_sample_shape(sp)

    command = group("poset", "finite poset files")
    sp = command("validate", "check tree or cycle-free axioms", _cmd_poset_validate)
    sp.add_argument("file")
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--tree", action="store_true")
    mode.add_argument("--cfpo", action="store_true")
    sp = command("orbits", "brute-force n-tuple orbits", _cmd_poset_orbits)
    sp.add_argument("file")
    sp.add_argument("-n", type=int, default=1, dest="n")
    _add_node_budget(sp)
    sp = command("auts", "list all automorphisms", _cmd_poset_auts)
    sp.add_argument("file")
    _add_node_budget(sp)

    command = group("cfpo", "cycle-free partial orders")
    sp = command("alt-rank", "longest embedded zigzag", _cmd_cfpo_alt_rank)
    sp.add_argument("file")
    sp = command("path", "the unique path between two points", _cmd_cfpo_path)
    sp.add_argument("file")
    sp.add_argument("a")
    sp.add_argument("b")

    return parser


def _parse(argv) -> argparse.Namespace:
    """Parse ``argv`` with the command's own parser when it starts with a
    ``(group, command)`` pair, and with the whole parser otherwise.

    Both give the same output.  Nested parsing hands the rest of the line
    to that same parser object, so help and the messages for missing or
    ill-typed arguments come from it either way; what it leaves over, the
    whole parser reports as ``unrecognized arguments: ...``, as the
    command's own ``parse_args`` does.  ``_Parser.error`` raises each
    message as ``_UsageError``, and ``main`` prints only the message, not
    the usage line of the parser that raised it.  The namespace lacks only
    ``group`` and ``cmd``, which no command reads.
    """
    argv = list(argv)
    parser = build_parser()
    leaf = parser.commands.get(tuple(argv[:2]))
    if leaf is None:
        return parser.parse_args(argv)
    return leaf.parse_args(argv[2:])


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        return _fail("usage", exc, 2)
    except SystemExit as exc:  # --help prints and exits
        code = exc.code
        return 0 if code in (0, None) else int(code)
    with warnings.catch_warnings(record=True) as caught:
        # each distinct message once, whatever -W or PYTHONWARNINGS say
        warnings.simplefilter("default", SpecWarning)
        try:
            code = args.func(args)
        except ParseError as exc:
            code = _fail("parse", exc, 2)
        except SpecError as exc:
            code = _fail("spec", exc, 2)
        except BudgetError as exc:
            code = _fail("budget", exc, 3)
        except (CycleError, NotATreeError, ValueError) as exc:
            code = _fail("value", exc, 2)
        except OSError as exc:
            code = _fail("io", exc, 2)
    # a spec warning is one line, and a failure's error line stands alone
    for w in caught:
        if not issubclass(w.category, SpecWarning):
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        elif code < 2:
            sys.stderr.write(f"warning: spec: {w.message}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
