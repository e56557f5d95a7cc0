"""Benchmark of the alleletest CLI on seeded scan, simulate and power workloads.

Usage, from the repository root:

    python3 bench/run.py --workload scan --seed 1 --seconds 25 --trace 0

``--workload`` is ``scan``, ``simulate``, ``power`` or ``all``. With
``--trace 0`` it reports the end-to-end metrics of the workload: the
throughput of the fastest of the warm in-process ``alleletest.cli.main``
calls it makes for ``--seconds``, the cold start of a fresh interpreter and
the peak memory of one fresh-process run. With ``--trace 1`` it reports the per-layer metrics instead, from
separate traced calls of all three workloads. Every output is checked; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and the exit code is non-zero when any check
failed. See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import re
import select
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads

ROOT = workloads.ROOT
WORK = ROOT / ".bench_work"
SETUP_RUNS = 9
MIN_CALLS = 3
CHILD_TIMEOUT_S = 120
# Starts the CLI as its console script does, and reports the process's peak
# resident set on stderr at exit. VmHWM counts only this program image: the
# child's ru_maxrss would also hold the benchmark's own peak, which a
# vfork-and-exec child inherits.
ENTRY = (
    "import atexit, sys; "
    "atexit.register(lambda: sys.stderr.write("
    "[l for l in open('/proc/self/status') if l.startswith('VmHWM:')][0])); "
    "from alleletest.cli import entry; sys.argv[0] = 'alleletest'; entry()"
)
# Per workload: the metric for the part of a cli.main call that lies outside
# the traced layer spans nested in it, and those spans.
REST = {
    "scan": ("cli.scan_rest_s", ("cli.parse_s", "stats.evaluate_s")),
    "simulate": ("cli.sim_rest_s", ("sim.estimate_s",)),
    "power": ("cli.power_rest_s", ("power.grid_s",)),
}
REQUIRED = ("src/alleletest/cli.py", "tests/oracles.py", "BENCHMARK.json")


class Tally:
    """Attempted and failed CLI runs, with the reasons for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args: list[str]) -> tuple[float, int, str]:
    """Run ``python <args>`` to completion: wall seconds, exit code, stderr."""
    with tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=program_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        fd = os.pidfd_open(proc.pid)  # readable when the child exits, so the wall time is exact
        try:
            exited = select.select([fd], [], [], CHILD_TIMEOUT_S)[0]
        finally:
            os.close(fd)
        wall = time.perf_counter() - start
        if not exited:
            proc.kill()
        proc.wait()
        err.seek(0)
        message = err.read().decode(errors="replace")
    if not exited:
        message = f"timed out after {CHILD_TIMEOUT_S} s\n{message}"
    return wall, proc.returncode, message


def call_cli(wl) -> tuple[float, int | None, str]:
    """One warm in-process ``cli.main`` call of the workload: seconds, exit code, stderr."""
    from alleletest import cli

    wl.out_path.unlink(missing_ok=True)
    gc.collect()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(wl.argv))
        except Exception:
            code = None
            elapsed = time.perf_counter() - start
            err.write(traceback.format_exc())
        else:
            elapsed = time.perf_counter() - start
    return elapsed, code, err.getvalue()


def verify(wl, code, stderr: str, reference: str | None) -> tuple[list[str], str | None]:
    """Problems with one run's output, and its digest.

    Without a reference digest the output gets the workload's full check;
    with one it must hash the same as the first, fully checked, output.
    """
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[-500:]}"], None
    try:
        text = wl.read_output()
        digest = wl.digest(text)
        if reference is None:
            return wl.check(text), digest
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"output could not be read or parsed: {exc!r}"], None
    if digest != reference:
        return [f"output digest {digest[:12]} differs from the first run's {reference[:12]}"], digest
    return [], digest


def end_to_end(name: str, seed: int, seconds: float, tally: Tally, record: dict) -> dict:
    wl = workloads.prepare(name, seed, WORK)
    run_child(["-c", "import alleletest.cli"])  # leaves byte code cached, as after an install
    setup = [run_child(["-c", "import alleletest.cli"])[0] for _ in range(SETUP_RUNS)]
    wl.out_path.unlink(missing_ok=True)
    _, code, err = run_child(["-c", ENTRY, *wl.argv])
    problems, reference = verify(wl, code, err, None)
    hwm = re.search(r"^VmHWM:\s+(\d+) kB$", err, re.M)
    if hwm is None:
        problems.append("the fresh-process run reported no VmHWM")
    tally.add(f"{name} fresh-process run", problems)
    times = []
    start = time.perf_counter()
    while len(times) < MIN_CALLS or time.perf_counter() - start < seconds:
        elapsed, code, err = call_cli(wl)
        tally.add(f"{name} call {len(times) + 1}", verify(wl, code, err, reference)[0])
        times.append(elapsed)
    record["inputs"][name] = wl.inputs
    record["calls_s"][name] = times
    record["setup_runs_s"][name] = setup
    return {
        # The fastest call: on a shared host, calls run in stretches of an
        # uncontended and a contended speed, and the median of a run follows
        # how long the contended stretches lasted. Contention only adds time.
        "items_per_s": wl.items / min(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": int(hwm.group(1)) / 1024.0 if hwm else 0.0,  # 0 only on a failed run
    }


def traced(seed: int, seconds: float, tally: Tally, record: dict) -> dict:
    """Per-layer metrics: each workload's layer values, summed over the three."""
    import tracing

    metrics = tracing.import_breakdown(program_env())
    for name in workloads.WORKLOADS:
        wl = workloads.prepare(name, seed, WORK)
        elapsed, code, err = call_cli(wl)  # warm-up, fully checked
        problems, reference = verify(wl, code, err, None)
        tally.add(f"{name} warm-up call", problems)
        plain, walls, calls = [], [], []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < seconds / len(workloads.WORKLOADS):
            elapsed, code, err = call_cli(wl)
            tally.add(f"{name} untraced call", verify(wl, code, err, reference)[0])
            plain.append(elapsed)
            with tracing.Tracer() as tracer:
                elapsed, code, err = call_cli(wl)
            tally.add(f"{name} traced call", verify(wl, code, err, reference)[0])
            walls.append(elapsed)
            rest, inner = REST[name]
            tracer.values[rest] = elapsed - sum(tracer.values[k] for k in inner)
            calls.append(tracer.values)
        keys = [*tracing.layer_names(), REST[name][0]]
        layer = {k: statistics.median(v.get(k, 0.0) for v in calls) for k in keys}
        if name == "simulate":
            text = wl.read_output()
            floor, blocks, degenerate = tracing.draw_floor(text, workloads.SIM_DESIGN["q1"])
            reported = json.loads(text)["degenerate_replicates"]
            tally.add("simulate draw replay", [] if degenerate == reported else [
                f"replayed draws give {degenerate} degenerate replicates, the result {reported}"
            ])
            layer["sim.draw_floor_s"] = floor
            layer["sim.non_draw_s"] = layer["sim.estimate_s"] - floor
            layer["sim.blocks"] = blocks
            layer["sim.degenerate_replicates"] = reported
        layer["cli.output_bytes"] = wl.out_path.stat().st_size
        for key, value in layer.items():
            metrics[key] = metrics.get(key, 0.0) + value
        metrics[f"trace.{name}_overhead_s"] = statistics.median(walls) - statistics.median(plain)
        record["inputs"][name] = wl.inputs
        record["calls_s"][name] = {"untraced": plain, "traced": walls}
        record["layers"][name] = layer
    return metrics


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass  # no git program; src_sha256 still identifies the code
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": importlib.metadata.version("click"),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def loadavg() -> list[float]:
    return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} lacks {', '.join(missing)}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import alleletest

    if Path(alleletest.__file__).resolve().parent != ROOT / "src" / "alleletest":
        print(f"error: imported alleletest from {alleletest.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_record(), "loadavg_start": loadavg(),
        "inputs": {}, "calls_s": {}, "setup_runs_s": {}, "layers": {},
    }
    tally = Tally()
    if args.trace:
        metrics = traced(args.seed, args.seconds, tally, record)
        expected = {m["name"] for m in declared["per_layer"]}
    else:
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        metrics = {}
        for name in names:
            for key, value in end_to_end(name, args.seed, args.seconds, tally, record).items():
                metrics[key if len(names) == 1 else f"{name}.{key}"] = value
        expected = {m["name"] for m in declared["end_to_end"]}
        if len(names) > 1:
            expected = {f"{n}.{k}" for n in names for k in expected}
    record["loadavg_end"] = loadavg()
    if set(metrics) != expected:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(expected)}")

    def unit(key: str) -> str:
        return units[key] if key in units else units[key.split(".", 1)[1]]

    for key in sorted(metrics):
        print(f"{key:34s} {metrics[key]:>16.6f} {unit(key)}")
    print(f"{'failures':34s} {tally.failed:>9d} of {tally.attempted} runs ({tally.failed / tally.attempted:.1%})")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print("record " + json.dumps(record))
    correct = tally.failed == 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
