"""End-to-end benchmark of the ``omegacat`` command line tool.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 20 --trace 0

Each operation is one in-process call of ``omegacat.cli.main(argv)`` with
stdout and stderr captured, on input files generated from ``--seed``.
Operations run one at a time in this single process (a closed loop with
one client), in whole rounds of the workload's operation list, until
``--seconds`` have passed and at least ``MIN_OPS`` operations completed.
Every output is checked by ``checks.py``, which does not use the program.
Times are scaled to a reference host speed, measured between operations
with ``hostspeed.py``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
loop with every public function of the package wrapped and prints the
per-layer metrics, per round.  The last line of stdout is one JSON object;
details go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from checks import Wrong  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 110  # so that at least ten operations lie beyond p90
SETUP_REPEATS = 7
SPEED_EVERY_S = 0.2  # host speed is sampled between operations this often
SPEED_WINDOW = 2  # an operation is scaled by this many samples on each side

PER_LAYER = [
    "cli.self_s",
    "terms.normalize.calls",
    "terms.parse_term.calls",
    "terms.materialize.self_s",
    "terms.materialize.points",
    "sequences.normalize_sequence.calls",
    "sequences.normalize_sequence.s",
    "posets.FinPoset.calls",
    "posets.FinPoset.s",
    "posets.FinPoset.pairs",
    "posets.covers.s",
    "posets.validate_tree.s",
    "posets.maximal_chains.s",
    "posets.restrict.calls",
    "posets.load_poset.s",
    "posets.dump_poset.s",
    "trees.parse_spec.s",
    "trees.chain_types.s",
    "trees.ramification_table.s",
    "trees.check_categorical.self_s",
    "trees.materialize_tree.self_s",
    "trees.materialize_tree.nodes",
    "trees.two_orbit_equiv.self_s",
    "cfpo.path_completion.self_s",
    "cfpo.path_completion.added",
    "cfpo.path.s",
    "cfpo.connecting_sets.calls",
    "cfpo.validate_cfpo.s",
    "cfpo.alt_rank.s",
]


def unit_of(metric: str) -> str:
    return "s" if metric.endswith(".s") or metric.endswith("self_s") else "count"


def import_cli():
    src = ROOT / "src"
    if not (src / "omegacat" / "cli.py").is_file():
        raise SystemExit(f"error: no omegacat sources under {src}")
    sys.path.insert(0, str(src))
    import omegacat.cli

    return omegacat.cli


def call(cli, argv):
    """One CLI call: ``(exit code, stdout, stderr, seconds)``.  An exception
    escaping ``main`` is reported as exit code None with its traceback
    summary on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a stop
            code = None
            err.write(f"{type(exc).__name__}: {exc}\n")
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def setup(workload: str, seed: int, work: Path):
    cli = import_cli()
    work.mkdir(parents=True)
    ops = WORKLOADS[workload](seed, work, lambda argv: call(cli, argv)[:2])
    return cli, ops


def time_setups(args, base: Path):
    """Wall times of fresh processes that start the interpreter, import
    the CLI and generate and write this workload's inputs, and host speed
    samples taken between them."""
    times, speed = [], []
    for i in range(SETUP_REPEATS):
        speed.append(hostspeed.measure())
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--setup-only", str(base / f"setup-{i}"),
        ]
        start = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        # A blocking wait returns when the child exits; Popen.wait(timeout)
        # polls every 50 ms and would round the times to that step.
        watchdog = threading.Timer(120, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"error: set-up exited with {code}")
    return times, speed


def run_loop(cli, ops, seconds: float, tracer=None):
    """Whole rounds of ``ops`` until ``seconds`` passed and MIN_OPS done."""
    round_ends = []
    attempted = failed = wrong = rounds = 0
    verified = {}  # op index -> (code, stdout) that passed its check
    reasons = []
    speed = [hostspeed.measure()]  # reference times, between operations
    last_sample = time.perf_counter()
    ops_done = []  # (op index, seconds, index of the speed sample before it)
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            if time.perf_counter() - last_sample >= SPEED_EVERY_S:
                speed.append(hostspeed.measure())
                last_sample = time.perf_counter()
            code, out, err, elapsed = call(cli, op.argv)
            attempted += 1
            reason = None
            if code is None or code >= 2 or err:
                reason = f"exit {code}: {err.strip()[:200]}"
            elif verified.get(i) != (code, out):
                try:
                    op.check(code, out)
                    verified[i] = (code, out)
                except Wrong as exc:
                    reason = f"wrong output: {exc}"
                    wrong += 1
            if reason is None:
                ops_done.append((i, elapsed, len(speed) - 1))
            else:
                failed += 1
                if len(reasons) < 20:
                    reasons.append(f"{' '.join(op.argv)}: {reason}")
        rounds += 1
        round_ends.append(len(ops_done))
        if tracer is not None:
            tracer.record = False
        wall = time.perf_counter() - start
        if wall >= seconds and len(ops_done) >= MIN_OPS:
            break
    speed.append(hostspeed.measure())
    # Each operation's time, scaled to the reference host by the speed
    # samples on both sides of it.
    latencies, kinds, raw = [], [], []
    for i, elapsed, k in ops_done:
        window = speed[max(0, k - SPEED_WINDOW + 1): k + SPEED_WINDOW + 1]
        latencies.append(elapsed * hostspeed.scale(window))
        kinds.append(ops[i].kind)
        raw.append(elapsed)
    bounds = [0] + round_ends
    round_rates = [
        (b - a) / sum(latencies[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a
    ]
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "rounds": rounds,
        "latencies": latencies,
        "kinds": kinds,
        "round_rates": round_rates,
        "raw_latencies": raw,
        "speed_samples": speed,
        "reasons": reasons,
    }


def end_to_end(res, setup_times, setup_speed) -> dict:
    lat = res["latencies"]
    # A set-up runs in a child process, on whichever CPU it gets, and its
    # time does not follow the speed samples taken next to it (correlation
    # -0.12 over 30 set-ups); between runs it follows the host's state.
    # So it is scaled by the median speed of the whole run.
    setup_s = statistics.median(setup_times) * hostspeed.scale(
        setup_speed + res["speed_samples"]
    )
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        # per round, completed operations over the time spent in them;
        # the median over rounds keeps a slow spell of the host out
        "ops_per_s": {"value": statistics.median(res["round_rates"]), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "op_p90_ms": {
            "value": statistics.quantiles(lat, n=10)[8] * 1e3,
            "unit": "ms",
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }


def per_layer(res, tracer) -> dict:
    """Per-layer metrics per round.  The ``cli`` layer's own time is the
    self time of ``cli.main``: argument parsing, file reading, output."""
    rounds = res["rounds"]
    return {
        m: {
            "value": tracer.value(m.replace("cli.", "cli.main.", 1)) / rounds,
            "unit": unit_of(m),
        }
        for m in PER_LAYER
    }


def details(res, tracer, setup_times) -> dict:
    by_kind = {}
    for kind, t in zip(res["kinds"], res["latencies"]):
        by_kind.setdefault(kind, []).append(t)
    out = {
        "rounds": res["rounds"],
        "ops_per_round": res["attempted"] // res["rounds"],
        "busy_s_per_round": sum(res["latencies"]) / res["rounds"],
        "median_ms_by_kind": {
            k: statistics.median(v) * 1e3 for k, v in sorted(by_kind.items())
        },
        "raw_median_ms": statistics.median(res["raw_latencies"]) * 1e3,
        "setup_times": setup_times,
        "speed_samples": res["speed_samples"],
        "failures": res["reasons"],
        "round_rates": res["round_rates"],
    }
    if tracer is not None:
        out["spans_first_round"] = tracer.spans
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only is not None:
        setup(args.workload, args.seed, args.setup_only)
        return 0

    import_cli()  # fail early, before any child process, without sources
    base = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times, setup_speed = [], []
        if not args.trace:
            setup_times, setup_speed = time_setups(args, base)
        cli, ops = setup(args.workload, args.seed, base / "run")
        tracer = None
        if args.trace:
            from layers import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            res = run_loop(cli, ops, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(base, ignore_errors=True)

    if tracer:
        metrics = per_layer(res, tracer)
    else:
        metrics = end_to_end(res, setup_times, setup_speed)
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(outdir / name, "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, **details(res, tracer, setup_times)}, fh)
    for line in res["reasons"]:
        print(f"failed: {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": res["wrong"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
