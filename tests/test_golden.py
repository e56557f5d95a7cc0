"""Golden outputs: the CLI must reproduce the committed files byte for byte.

The files under ``tests/data/`` pin every output byte of ``scan``, ``power``
and ``simulate`` on small seeded inputs: all scan row classes in both
continuity-correction directions, the three power axes with prevalence
misspecification and LD-infeasible points, and both simulation modes with
delta-weighted tests. ``simulate`` output is compared without its
``wall_time_s`` field, the only one that varies between runs. This file
needs only the runtime dependencies, numpy and click, and checks that the
CLI imports no scipy module.

Regenerate the files (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from alleletest import cli
from alleletest.cli import main

DATA = Path(__file__).resolve().parent / "data"
COUNTS = "golden_counts.tsv"

POWER_BASE = ["power", "--p1", "0.25", "--pen", "0.4,0.25,0.1", "--r", "2000", "--s", "1500",
              "--alpha", "1e-8"]
SIM_BASE = ["simulate", "--p1", "0.2", "--pen", "0.6,0.35,0.1", "--r", "200", "--s", "300",
            "--pi-hat", "0.1", "--reps", "70000", "--seed", "11", "--alphas", "1e-2,1e-3,1e-4",
            "--deltas", "0,0.4,1"]

# output file -> CLI arguments; {counts} and {out} are filled in per run
CASES = {
    "scan_toward_zero.tsv": ["scan", "--counts", "{counts}", "--pi-hat", "0.15",
                             "--direction", "toward_zero", "--out", "{out}"],
    "scan_away_from_zero.tsv": ["scan", "--counts", "{counts}", "--pi-hat", "0.15",
                                "--direction", "away_from_zero", "--ci-level", "0.99",
                                "--out", "{out}"],
    "power_q1.csv": POWER_BASE + ["--axis", "q1", "--delta", "0.5", "--sweep", "0.001:0.999:60",
                                  "--pi-hats", "0.05,0.1,0.2", "--out", "{out}"],
    "power_q1_default.csv": POWER_BASE + ["--axis", "q1", "--delta", "0.3",
                                          "--delta-weight", "0.3", "--out", "{out}"],
    "power_delta.csv": POWER_BASE + ["--axis", "delta", "--q1", "0.1", "--sweep", "-0.3:0.7:26",
                                     "--pi-hats", "0.1,0.3", "--out", "{out}"],
    "power_delta_weight.csv": POWER_BASE + ["--axis", "delta_weight", "--q1", "0.2",
                                            "--delta", "0.3", "--pi-hats", "0.07",
                                            "--out", "{out}"],
    "simulate_allele.json": SIM_BASE + ["--q1", "0.01", "--mode", "allele", "--out-json", "{out}"],
    "simulate_genotype.json": SIM_BASE + ["--q1", "0.1", "--delta", "0.3", "--mode", "genotype",
                                          "--power", "--workers", "2", "--out-json", "{out}"],
}


def _run(name: str, out: Path, counts: Path = DATA / COUNTS) -> str:
    argv = [a.format(counts=counts, out=out) for a in CASES[name]]
    assert main(argv) == 0
    text = out.read_text(encoding="utf-8")
    if name.endswith(".json"):
        payload = json.loads(text)
        del payload["wall_time_s"]
        text = json.dumps(payload, indent=2) + "\n"
    return text


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(name, tmp_path, capsys):
    expected = (DATA / name).read_text(encoding="utf-8")
    assert _run(name, tmp_path / name) == expected


@pytest.mark.parametrize("name", ["scan_toward_zero.tsv", "scan_away_from_zero.tsv"])
def test_scan_output_does_not_depend_on_block_size(name, tmp_path, monkeypatch, capsys):
    # 299 rows make 42 blocks of 7 and a last block of 5
    monkeypatch.setattr(cli, "BLOCK_ROWS", 7)
    expected = (DATA / name).read_text(encoding="utf-8")
    assert _run(name, tmp_path / name) == expected


@pytest.mark.parametrize("name", ["scan_toward_zero.tsv", "scan_away_from_zero.tsv"])
def test_scan_output_does_not_depend_on_byte_order_mark(name, tmp_path, capsys):
    counts = tmp_path / COUNTS
    counts.write_bytes(b"\xef\xbb\xbf" + (DATA / COUNTS).read_bytes())
    expected = (DATA / name).read_text(encoding="utf-8")
    assert _run(name, tmp_path / name, counts) == expected


def test_cli_imports_no_scipy(tmp_path):
    # The runtime dependencies are numpy and click; scipy is for the tests.
    argvs = [[a.format(counts=DATA / COUNTS, out=tmp_path / name) for a in CASES[name]]
             for name in ("scan_toward_zero.tsv", "power_q1.csv")]
    code = (
        "import sys\n"
        "from alleletest.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    run_fresh("-c", code)


def test_cli_imports_no_thread_pool():
    # Simulate starts its worker threads itself; no pool, and so none of the
    # modules a pool brings in, is loaded.
    run_fresh(
        "-c",
        "import sys\n"
        "import alleletest.cli\n"
        "loaded = [m for m in ('concurrent.futures', 'logging', 'queue') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # power and sim (with _binomial) are imported by the commands that run
    # them; importing the CLI, scan and model load none of the three.
    scan, power = ([a.format(counts=DATA / COUNTS, out=tmp_path / name) for a in CASES[name]]
                   for name in ("scan_toward_zero.tsv", "power_q1.csv"))
    model = ["model", "--p1", "0.2", "--pen", "0.6,0.35,0.1", "--q1", "0.1", "--delta", "0.3"]
    simulate = SIM_BASE[:SIM_BASE.index("--reps")] + ["--reps", "1000", "--q1", "0.1",
                                                      "--out-json", str(tmp_path / "sim.json")]
    lazy = ["alleletest.power", "alleletest.sim", "alleletest._binomial"]
    steps = [(scan, []), (model, []), (power, lazy[:1]), (simulate, lazy)]
    run_fresh(
        "-c",
        "import sys\n"
        "from alleletest.cli import main\n"
        f"loaded = lambda: [m for m in {lazy!r} if m in sys.modules]\n"
        "assert loaded() == [], loaded()\n"
        f"for argv, expected in {steps!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "    assert loaded() == expected, (argv[0], loaded())\n"
    )


def run_fresh(*args: str, status: int = 0) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that imports this checkout's
    package, and check that it exits with ``status``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == status, proc.stderr
    return proc


def golden_counts(seed: int = 20260417) -> str:
    """Counts table covering every scan row class, from a fixed seed."""
    import numpy as np

    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(220):
        r = int(math.exp(rng.uniform(0.0, math.log(3000))))
        s = int(math.exp(rng.uniform(0.0, math.log(3000))))
        q = float(rng.beta(0.6, 3.0))
        shift = float(rng.choice([1.0, 1.0, 0.6, 1.7]))
        r1 = int(rng.binomial(2 * r, min(q * shift, 1.0)))
        s1 = int(rng.binomial(2 * s, q))
        rows.append((r1, 2 * r - r1, s1, 2 * s - s1))
    corners = [
        (290, 1710, 184, 1816),  # worked example
        (300, 1700, 300, 1700),  # tied frequencies: t == w == 0
        (100, 900, 200, 1800),  # tied frequencies, unequal groups
        (999, 1001, 998, 1000),  # |difference| below the continuity shift
        (998, 1000, 999, 1001),  # the same, opposite sign
        (1200, 800, 800, 1200),  # q_hat > 1: U takes T
        (1, 1, 1, 3),  # one case
        (3, 1, 1, 1),  # one control
        (1, 1, 1, 1),
        (123456, 876544, 98765, 901235),  # large groups
        (0, 2000, 5, 1995),  # no case copy of M1: undefined ratio
        (0, 40, 0, 60),  # monomorphic, only M2
        (40, 0, 60, 0),  # monomorphic, only M1
        (2000, 0, 1990, 10),  # cases all M1
        (7, 93, 0, 100),  # controls without M1
        (7, 93, 100, 0),  # controls all M1
        (0, 10, 20, 0),  # degenerate on both sides, not monomorphic
    ]
    rows += corners + rows[:10] + corners  # repeated tables under new ids: rank ties
    rows += [(r2, r1, s2, s1) for r1, r2, s1, s2 in corners]  # allele labels swapped
    rows += [(s1, s2, r1, r2) for r1, r2, s1, s2 in corners]  # groups swapped
    lines = ["# golden scan input: random tables, then hand-picked corner cases",
             "marker_id\tcase_m1\tcase_m2\tctrl_m1\tctrl_m2"]
    for i, row in enumerate(rows):
        if i == 100:
            lines += ["", "# mid-table comment"]
        lines.append("g%04d\t%d\t%d\t%d\t%d" % (i, *row))
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    (DATA / COUNTS).write_text(golden_counts(), encoding="utf-8")
    scratch = DATA / "_out.tmp"
    for case in sorted(CASES):
        (DATA / case).write_text(_run(case, scratch), encoding="utf-8")
    scratch.unlink()
    sys.exit(0)
