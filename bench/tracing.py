"""Per-layer measurement from outside the program.

``Tracer`` swaps public functions of the ``alleletest`` modules for timing
and counting wrappers at the names the callers look them up under, and puts
the originals back on exit. Nothing inside ``src/`` is changed. The import
breakdown comes from ``python -X importtime`` in a fresh interpreter, and
the simulate draw floor from replaying the engine's documented random
streams.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

from alleletest import cli, power, sim, stats
from alleletest.model import FeasibilityError

# (modules patched, function name, span metric or None, count metric or None)
WRAPS = (
    ((cli,), "parse_counts_file", "cli.parse_s", None),
    ((cli,), "evaluate_counts", "stats.evaluate_s", "stats.evaluate_calls"),
    ((stats,), "p_value", None, "stats.p_value_calls"),
    ((stats, power, sim), "two_sided_critical_value", None, "stats.critical_value_calls"),
    ((cli, power), "population_summary", "model.summary_s", "model.summary_calls"),
    ((power,), "power_grid", "power.grid_s", None),
    ((power,), "power_t", None, "power.fn_calls"),
    ((power,), "power_w", None, "power.fn_calls"),
    ((power,), "power_w_delta", None, "power.fn_calls"),
    ((power,), "power_u", None, "power.fn_calls"),
    ((sim,), "estimate_type1", "sim.estimate_s", None),
)
INFEASIBLE = "model.infeasible_points"
IMPORT_PACKAGES = ("scipy", "numpy", "click")
IMPORT_RUNS = 3


class Tracer:
    """Context manager that times and counts calls into the program's layers."""

    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span, count):
        values, clock = self.values, time.perf_counter

        def counted(*args, **kwargs):
            values[count] += 1
            return fn(*args, **kwargs)

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            except FeasibilityError:  # only population_summary raises it
                values[INFEASIBLE] += 1
                raise
            finally:
                values[span] += clock() - start
                if count:
                    values[count] += 1

        return timed if span else counted

    def __enter__(self) -> "Tracer":
        for modules, name, span, count in WRAPS:
            for module in modules:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self._wrap(original, span, count))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()


def layer_names() -> list[str]:
    """Every metric a Tracer can produce, spans and counts alike."""
    names = {INFEASIBLE}
    for _, _, span, count in WRAPS:
        names.update(n for n in (span, count) if n)
    return sorted(names)


def import_breakdown(env: dict) -> dict[str, float]:
    """Median self import time per top-level package of ``import alleletest.cli``."""
    samples = defaultdict(list)
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import alleletest.cli"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        totals = defaultdict(float)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
            if m:
                seconds = int(m.group(1)) * 1e-6
                totals["total"] += seconds
                totals[m.group(2).split(".")[0]] += seconds
        samples["import.total_s"].append(totals["total"])
        for pkg in IMPORT_PACKAGES:
            samples[f"import.{pkg}_s"].append(totals[pkg])
        samples["import.alleletest_self_s"].append(totals["alleletest"])
    return {k: statistics.median(v) for k, v in samples.items()}


def draw_floor(result_text: str, q1: float) -> tuple[float, int, int]:
    """Time to redo only the binomial draws of a type-I simulate result.

    Replays the engine's streams as its ``rng`` field describes them: one
    Philox generator per block, keyed by ``(seed, block)``, drawing the case
    then the control M1 counts. Returns the seconds taken, the block count
    and the degenerate replicates among the replayed draws, which must equal
    the result's own count.
    """
    payload = json.loads(result_text)
    m = re.fullmatch(r"philox4x64 keyed by \(seed, block\), block size (\d+)", payload["rng"])
    if m is None:
        raise ValueError(f"unrecognised rng description {payload['rng']!r}")
    block = int(m.group(1))
    reps, seed = payload["replications"], payload["seed"]
    n1, n0 = 2 * payload["r_cases"], 2 * payload["s_controls"]
    mask = (1 << 64) - 1
    blocks = -(-reps // block)
    degenerate = 0
    elapsed = 0.0
    for b in range(blocks):
        start = time.perf_counter()
        gen = np.random.Generator(np.random.Philox(key=np.array([seed & mask, b], dtype=np.uint64)))
        size = min(block, reps - b * block)
        r1 = gen.binomial(n1, q1, size=size)
        s1 = gen.binomial(n0, q1, size=size)
        elapsed += time.perf_counter() - start
        degenerate += int(np.count_nonzero((r1 == 0) | (r1 == n1) | (s1 == 0) | (s1 == n0)))
    return elapsed, blocks, degenerate
