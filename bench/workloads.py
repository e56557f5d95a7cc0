"""Seeded inputs, CLI argument lists and output checks for the three workloads.

Every input is generated here from the workload seed; the program under test
only sees the generated files and its argv. Each check returns a list of
problems (empty when the output is correct) and recomputes what it compares
against without calling library code: row classes come from the generator,
statistics and null rejection rates from ``tests/oracles.py``, LD feasibility
from the closed-form bounds.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scan", "simulate", "power")

# Sizes of the measured workloads; tests patch in smaller ones. One call takes
# about a second or less, so that a run makes enough calls for its fastest
# one to fall in a stretch where the host's other load leaves the CPU alone.
SCAN_MARKERS = 25_000
SIM_REPLICATIONS = 1 << 20
POWER_GRID = 2_000

SCAN_PI_HAT = 0.1
SCAN_ORACLE_SAMPLE = 200
# Null design of the simulate workload: a rare marker (q1 = 0.01) in 500
# cases and 500 controls, where W is strongly inflated and about 90
# replicates per 2^20 are degenerate.
SIM_DESIGN = {"p1": 0.2, "pen": "0.6,0.35,0.1", "q1": 0.01, "r": 500, "s": 500, "pi_hat": 0.1}
SIM_DELTAS = (0.0, 0.4, 1.0)
SIM_ALPHAS = (1e-2, 1e-3, 1e-4)
SIM_TESTS = 4 + 2 * len(SIM_DELTAS)  # T, W, W_cor, U; W_delta and W_cor_delta per weight
POWER_DELTA = 0.5
POWER_P1 = 0.25
POWER_PI_HATS = (0.05, 0.1, 0.2)
POWER_ALPHA = 1e-8
POWER_SAMPLE = 2000  # cases, and controls
POWER_TESTS = ("T", "W", "W_delta", "U")
# Closest an axis point may sit to an LD bound and still have its
# feasibility flag checked; the program itself allows 1e-12 of slack.
BOUND_MARGIN = 1e-9
MAX_PROBLEMS = 5


def load_oracles():
    """Import ``tests/oracles.py`` by path, so it is not mixed with the tests."""
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag])))


@dataclass
class Workload:
    """One prepared workload: the CLI call, where it writes, and how to check it."""

    name: str
    argv: list[str]
    out_path: Path
    items: int
    inputs: dict
    expected: object

    def read_output(self) -> str:
        return self.out_path.read_text(encoding="utf-8")

    def digest(self, text: str) -> str:
        """Hash of the output; the simulate JSON drops its wall-clock field."""
        if self.name == "simulate":
            payload = json.loads(text)
            payload.pop("wall_time_s", None)
            text = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    def check(self, text: str) -> list[str]:
        checker = {"scan": check_scan, "simulate": check_simulate, "power": check_power}
        return checker[self.name](text, self.expected)[:MAX_PROBLEMS]


def prepare(name: str, seed: int, work: Path) -> Workload:
    """Generate the inputs of workload ``name`` for ``seed`` under ``work``."""
    make = {"scan": prepare_scan, "simulate": prepare_simulate, "power": prepare_power}
    return make[name](seed, work)


# ---------------------------------------------------------------- scan


@dataclass
class ScanExpected:
    marker_ids: list[str]
    counts: np.ndarray  # (n, 4): case_m1, case_m2, ctrl_m1, ctrl_m2
    flags: list[str]
    sample: list[int]
    pi_hat: float
    oracles: object


def generate_counts(seed: int, n_markers: int) -> tuple[str, np.ndarray]:
    """Counts table text and its (n, 4) count matrix for ``seed``.

    Group sizes are log-uniform over 50..5000 individuals and marker
    frequencies are beta(0.5, 4) (skewed rare). One marker in fifty carries
    a case/control frequency shift. Fixed shares of rows are then forced
    monomorphic (2%), degenerate with no case copy of M1 (1%, flagged
    ``undefined_ratio``) and degenerate in the controls only (1%), on top of
    the rows that sampling already leaves degenerate.
    """
    rng = _rng(seed, "scan")
    n = n_markers
    cases = np.exp(rng.uniform(math.log(50), math.log(5000), n)).astype(np.int64)
    ctrls = np.exp(rng.uniform(math.log(50), math.log(5000), n)).astype(np.int64)
    maf = np.clip(rng.beta(0.5, 4.0, n), 5e-4, 0.5)
    shifted = rng.random(n) < 0.02
    case_freq = np.where(shifted, np.minimum(maf * 1.5, 0.99), maf)
    r1 = rng.binomial(2 * cases, case_freq)
    s1 = rng.binomial(2 * ctrls, maf)
    kind = rng.choice(4, size=n, p=[0.96, 0.02, 0.01, 0.01])
    mono = kind == 1
    flip = mono & (rng.random(n) < 0.5)  # half carry only M1, half only M2
    r1[mono] = 0
    s1[mono] = 0
    r1[flip] = 2 * cases[flip]
    s1[flip] = 2 * ctrls[flip]
    no_case = kind == 2
    r1[no_case] = 0
    s1[no_case] = np.clip(s1[no_case], 1, 2 * ctrls[no_case] - 1)
    ctrl_only = kind == 3
    s1[ctrl_only] = 0
    r1[ctrl_only] = np.clip(r1[ctrl_only], 1, 2 * cases[ctrl_only] - 1)
    counts = np.stack([r1, 2 * cases - r1, s1, 2 * ctrls - s1], axis=1)
    lines = ["marker_id\tcase_m1\tcase_m2\tctrl_m1\tctrl_m2"]
    lines.extend(
        f"m{i:07d}\t{a}\t{b}\t{c}\t{d}" for i, (a, b, c, d) in enumerate(counts.tolist())
    )
    return "\n".join(lines) + "\n", counts


def classify(counts: np.ndarray) -> list[str]:
    """Expected ``flags`` cell per row, from the counts alone."""
    r1, r2, s1, s2 = counts.T
    mono = (r1 + s1 == 0) | (r2 + s2 == 0)
    degenerate = ~mono & ((r1 == 0) | (r2 == 0) | (s1 == 0) | (s2 == 0))
    flags = np.full(len(counts), "ok", dtype=object)
    flags[mono] = "monomorphic"
    flags[degenerate] = "degenerate"
    flags[degenerate & (r1 == 0)] = "degenerate;undefined_ratio"
    return flags.tolist()


def prepare_scan(seed: int, work: Path) -> Workload:
    n = SCAN_MARKERS
    text, counts = generate_counts(seed, n)
    counts_path = work / "scan_counts.tsv"
    counts_path.write_text(text, encoding="utf-8")
    flags = classify(counts)
    ok_rows = [i for i, f in enumerate(flags) if f == "ok"]
    pick = _rng(seed, "scan-sample").permutation(len(ok_rows))[:SCAN_ORACLE_SAMPLE]
    mix = {
        "ok": len(ok_rows),
        "monomorphic": flags.count("monomorphic"),
        "degenerate": flags.count("degenerate") + flags.count("degenerate;undefined_ratio"),
        "undefined_ratio": flags.count("degenerate;undefined_ratio"),
    }
    out = work / "scan_out.tsv"
    return Workload(
        name="scan",
        argv=["scan", "--counts", str(counts_path), "--pi-hat", repr(SCAN_PI_HAT), "--out", str(out)],
        out_path=out,
        items=n,
        inputs={"markers": n, "rows": mix, "counts_sha256": hashlib.sha256(text.encode()).hexdigest()},
        expected=ScanExpected(
            marker_ids=[f"m{i:07d}" for i in range(n)],
            counts=counts,
            flags=flags,
            sample=sorted(ok_rows[j] for j in pick),
            pi_hat=SCAN_PI_HAT,
            oracles=load_oracles(),
        ),
    )


def _close(value: float, exact: float) -> bool:
    """Agreement at rel 1e-12, absolute below magnitude 1 (as the test suite)."""
    return abs(value - exact) <= 1e-12 * max(1.0, abs(exact))


def check_scan(text: str, exp: ScanExpected) -> list[str]:
    lines = text.split("\n")
    if lines[-1] != "":
        return ["output does not end with a newline"]
    header = lines[0].split("\t")
    needed = ("marker_id", "t", "w", "q_hat", "flags", "w_abs_rank")
    if any(c not in header for c in needed):
        return [f"header {header} lacks one of {needed}"]
    col = {name: header.index(name) for name in needed}
    if len(lines) - 2 != len(exp.marker_ids):
        return [f"{len(lines) - 2} rows for {len(exp.marker_ids)} input markers"]
    sampled = set(exp.sample)
    kept = {}
    problems = []
    ranked = []
    for i, line in enumerate(lines[1:-1]):
        row = line.split("\t")
        if len(row) != len(header):
            problems.append(f"row {i}: {len(row)} cells for {len(header)} columns")
            continue
        if row[col["marker_id"]] != exp.marker_ids[i]:
            problems.append(f"row {i}: marker {row[col['marker_id']]!r}, expected {exp.marker_ids[i]!r}")
        if row[col["flags"]] != exp.flags[i]:
            problems.append(f"row {i}: flags {row[col['flags']]!r}, expected {exp.flags[i]!r}")
        has_w, rank = row[col["w"]] != "", row[col["w_abs_rank"]]
        if has_w != (exp.flags[i] == "ok") or (rank != "") != has_w:
            problems.append(f"row {i}: w {row[col['w']]!r} and rank {rank!r} for flags {exp.flags[i]!r}")
        elif has_w:
            ranked.append((int(rank), abs(float(row[col["w"]])), i))
            if i in sampled:
                kept[i] = row
    ranked.sort()
    if [r for r, _, _ in ranked] != list(range(1, len(ranked) + 1)):
        problems.append("w_abs_rank is not a permutation of 1..#non-degenerate rows")
    for (_, w_hi, i_hi), (_, w_lo, i_lo) in zip(ranked, ranked[1:]):
        if w_lo > w_hi:
            problems.append(f"row {i_lo} ranks below row {i_hi} with a larger |w|")
            break
    o = exp.oracles
    for i, row in kept.items():
        r1, r2, s1, s2 = (int(v) for v in exp.counts[i])
        for name, exact in (
            ("t", o.exact_t(r1, r2, s1, s2)),
            ("w", o.exact_w_delta(r1, r2, s1, s2, exp.pi_hat)),
            ("q_hat", o.exact_q_hat_delta(r1, r2, s1, s2, exp.pi_hat)),
        ):
            if not _close(float(row[col[name]]), exact):
                problems.append(f"row {i}: {name} {row[col[name]]} vs exact {exact!r}")
    return problems


# ------------------------------------------------------------ simulate


@dataclass
class SimExpected:
    replications: int
    exact: dict  # alpha -> oracle rejection probabilities by label


def prepare_simulate(seed: int, work: Path) -> Workload:
    reps = SIM_REPLICATIONS
    d = SIM_DESIGN
    oracles = load_oracles()
    exact = {
        a: oracles.exact_null_rejection(
            d["r"], d["s"], d["q1"], d["pi_hat"], oracles.bisect_two_sided_z(a), SIM_DELTAS
        )
        for a in SIM_ALPHAS
    }
    out = work / "simulate_out.json"
    argv = [
        "simulate", "--type1", "--mode", "allele", "--workers", "1",
        "--p1", repr(d["p1"]), "--pen", d["pen"], "--q1", repr(d["q1"]),
        "--r", str(d["r"]), "--s", str(d["s"]), "--pi-hat", repr(d["pi_hat"]),
        "--reps", str(reps), "--seed", str(seed),
        "--deltas", ",".join(repr(x) for x in SIM_DELTAS),
        "--alphas", ",".join(repr(a) for a in SIM_ALPHAS),
        "--out-json", str(out),
    ]
    return Workload(
        name="simulate",
        argv=argv,
        out_path=out,
        items=reps,
        inputs={"replications": reps, "seed": seed, **d},
        expected=SimExpected(replications=reps, exact=exact),
    )


def _within_4se(count: int, n: int, p: float) -> bool:
    return abs(count / n - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)


def check_simulate(text: str, exp: SimExpected) -> list[str]:
    payload = json.loads(text)
    n = exp.replications
    if payload.get("replications") != n or payload.get("kind") != "type1":
        return [f"result is {payload.get('kind')!r} over {payload.get('replications')!r} replications"]
    cells = payload["cells"]
    if len(cells) != SIM_TESTS * len(SIM_ALPHAS):
        return [f"{len(cells)} cells, expected {SIM_TESTS * len(SIM_ALPHAS)}"]
    problems = []
    for c in cells:
        dw = c["delta_weight"]
        label = c["test"] if dw is None else f"{c['test']}[{dw:g}]"
        p = exp.exact[c["alpha"]][label]
        if c["rejections"] != round(c["fraction"] * n) or not _within_4se(c["rejections"], n, p):
            problems.append(
                f"{label} at alpha {c['alpha']:g}: {c['rejections']} rejections, "
                f"fraction {c['fraction']!r}, exact {p:.6g}"
            )
    p_deg = exp.exact[SIM_ALPHAS[0]]["degenerate"]
    if not _within_4se(payload["degenerate_replicates"], n, p_deg):
        problems.append(f"{payload['degenerate_replicates']} degenerate replicates, exact share {p_deg:.6g}")
    return problems


# --------------------------------------------------------------- power


@dataclass
class PowerExpected:
    p1: float
    grid: list[float]
    pi_hats: tuple[float, ...]


def feasible_delta(p1: float, q1: float, delta: float) -> bool | None:
    """Whether ``delta`` is an admissible LD correlation; None on a bound.

    An allele-frequency odds ratio ``x`` between marker and causal variant
    bounds the correlation by ``min(sqrt(x), 1/sqrt(x))`` above and by
    ``-min(sqrt(y), 1/sqrt(y))`` below, with ``y = p1*q1/(p2*q2)``.
    """
    x = (q1 / (1.0 - q1)) / (p1 / (1.0 - p1))
    y = (q1 * p1) / ((1.0 - q1) * (1.0 - p1))
    hi = min(math.sqrt(x), 1.0 / math.sqrt(x))
    lo = -min(math.sqrt(y), 1.0 / math.sqrt(y))
    if min(abs(delta - hi), abs(delta - lo)) < BOUND_MARGIN:
        return None
    return lo <= delta <= hi


def prepare_power(seed: int, work: Path) -> Workload:
    n = POWER_GRID
    rng = _rng(seed, "power")
    # p1 is fixed so that every seed leaves the same half of the q1 axis
    # LD-infeasible at delta 0.5, and so does the same work; the seed draws
    # the genotype risks.
    p1 = POWER_P1
    pen22 = round(float(rng.uniform(0.05, 0.15)), 6)
    pen12 = round(pen22 + float(rng.uniform(0.1, 0.2)), 6)
    pen11 = round(pen12 + float(rng.uniform(0.1, 0.2)), 6)
    lo, hi = 0.001, 0.999
    grid = [float(v) for v in np.linspace(lo, hi, n)]
    out = work / "power_out.csv"
    argv = [
        "power", "--p1", repr(p1), "--pen", f"{pen11!r},{pen12!r},{pen22!r}",
        "--axis", "q1", "--sweep", f"{lo!r}:{hi!r}:{n}", "--delta", repr(POWER_DELTA),
        "--pi-hats", ",".join(repr(p) for p in POWER_PI_HATS), "--alpha", repr(POWER_ALPHA),
        "--r", str(POWER_SAMPLE), "--s", str(POWER_SAMPLE), "--out", str(out),
    ]
    infeasible = sum(feasible_delta(p1, q, POWER_DELTA) is False for q in grid)
    return Workload(
        name="power",
        argv=argv,
        out_path=out,
        items=n * len(POWER_PI_HATS),
        inputs={"p1": p1, "pen": [pen11, pen12, pen22], "grid": n, "infeasible_share": infeasible / n},
        expected=PowerExpected(p1=p1, grid=grid, pi_hats=POWER_PI_HATS),
    )


def check_power(text: str, exp: PowerExpected) -> list[str]:
    lines = text.split("\n")
    if lines[0] != "axis,test,variant,power,feasible" or lines[-1] != "":
        return ["missing CSV header or trailing newline"]
    rows = [line.split(",") for line in lines[1:-1]]
    points = [(q, pi) for q in exp.grid for pi in exp.pi_hats]
    if len(rows) != len(POWER_TESTS) * len(points):
        return [f"{len(rows)} rows for {len(points)} points (4 rows each)"]
    problems = []
    for k, (q1, pi_hat) in enumerate(points):
        group = rows[4 * k : 4 * k + 4]
        where = f"point {k} (q1={q1!r}, pi_hat={pi_hat!r})"
        if any(len(r) != 5 for r in group):
            problems.append(f"{where}: malformed row")
            continue
        if [r[1] for r in group] != list(POWER_TESTS) or any(float(r[0]) != q1 for r in group):
            problems.append(f"{where}: rows {[r[:2] for r in group]}")
        if float(group[1][2]) != pi_hat:
            problems.append(f"{where}: W variant {group[1][2]!r}")
        flags = {r[4] for r in group}
        if len(flags) != 1 or flags - {"0", "1"}:
            problems.append(f"{where}: feasible flags {sorted(flags)}")
            continue
        feasible = flags == {"1"}
        expected = feasible_delta(exp.p1, q1, POWER_DELTA)
        if expected is not None and expected != feasible:
            problems.append(f"{where}: feasible={feasible}, LD bounds say {expected}")
        for r in group:
            if feasible and not (r[3] != "" and 0.0 <= float(r[3]) <= 1.0):
                problems.append(f"{where}: {r[1]} power {r[3]!r} outside [0, 1]")
            elif not feasible and r[3] != "":
                problems.append(f"{where}: infeasible point has {r[1]} power {r[3]!r}")
    return problems
