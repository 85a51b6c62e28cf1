"""The README quick tour and the demo scripts, run as documented.

Each ``$ omegacat ...`` line of the README's "Quick tour" console block
runs through the CLI in-process, in a directory holding the files the
README describes, and must print exactly the lines that follow it.  Each
script in ``demos/`` must run to completion and print exactly the bytes
pinned by their SHA-256 below.
"""

import hashlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from omegacat.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the SHA-256 of each demo's stdout: every number and order they print is
# fixed, whatever the hash seed
DEMO_STDOUT_SHA256 = {
    "01_terms_and_normal_forms.py": "3e237722e18cc29b011f155029953c63ae727ca65a67a010a99e5ddc95b349ee",
    "02_trees_and_categoricity.py": "715ffeb83a9b746f54fcae5ebda5ed3eb78879cdcf03ab4bb00cf8aebb4c1045",
    "03_cycle_free_orders.py": "c23734a4635cb7d66c00241fe6bdf4de56e273b0215758645d5dfe0eafc3486b",
}


def quick_tour():
    """The ``(argv, expected stdout)`` pairs of the quick tour block."""
    tour = README.split("## Quick tour", 1)[1]
    block = tour.split("```console\n", 1)[1].split("```", 1)[0]
    runs = []
    for line in block.splitlines():
        if line.startswith("$ "):
            argv = shlex.split(line[2:])
            assert argv[0] == "omegacat"
            runs.append((argv[1:], []))
        else:
            runs[-1][1].append(line)
    return [(argv, "".join(out + "\n" for out in lines)) for argv, lines in runs]


def test_quick_tour_prints_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    specs = dict(re.findall(r"`(\w+\.spec)` is `([^`]+)`", README))
    assert set(specs) == {"dense.spec", "omega.spec"}
    for name, text in specs.items():
        (tmp_path / name).write_text(text + "\n")
    # a root r below two leaves a, b
    (tmp_path / "v.poset").write_text(
        "node a\nnode b\nnode r\nedge r a\nedge r b\n"
    )
    monkeypatch.chdir(tmp_path)
    runs = quick_tour()
    assert len(runs) == 6
    for argv, expected in runs:
        main(argv)
        out, err = capsys.readouterr()
        assert (argv, out, err) == (argv, expected, "")


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo.name]
