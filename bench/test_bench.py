"""Tests of the benchmark itself: input generation, output checks, both run modes.

Run from the repository root with ``python -m pytest bench -q``.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from alleletest import cli  # noqa: E402


def _run(wl):
    assert cli.main(list(wl.argv)) == 0
    return wl.read_output()


def _rows(text):
    lines = text.split("\n")
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:-1]]


def _join(header, rows):
    return "\n".join(["\t".join(header)] + ["\t".join(r) for r in rows]) + "\n"


def test_generator_is_deterministic_per_seed():
    text, counts = workloads.generate_counts(7, 5000)
    again, _ = workloads.generate_counts(7, 5000)
    other, _ = workloads.generate_counts(8, 5000)
    assert text == again
    assert text != other
    flags = workloads.classify(counts)
    for kind in ("ok", "monomorphic", "degenerate", "degenerate;undefined_ratio"):
        assert flags.count(kind) > 0


def _prepare(name, seed, work, constant, size):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, constant, size)
        return workloads.prepare(name, seed, work)


@pytest.fixture(scope="module")
def scan(tmp_path_factory):
    wl = _prepare("scan", 3, tmp_path_factory.mktemp("scan"), "SCAN_MARKERS", 3000)
    return wl, _run(wl)


def test_scan_check_accepts_program_output(scan):
    wl, text = scan
    assert wl.check(text) == []


def test_scan_check_rejects_wrong_flag(scan):
    wl, text = scan
    header, rows = _rows(text)
    i = wl.expected.flags.index("monomorphic")
    rows[i][header.index("flags")] = "ok"
    assert wl.check(_join(header, rows))


def test_scan_check_rejects_swapped_ranks(scan):
    wl, text = scan
    header, rows = _rows(text)
    col = header.index("w_abs_rank")
    first = next(r for r in rows if r[col] == "1")
    second = next(r for r in rows if r[col] == "2")
    first[col], second[col] = "2", "1"
    assert wl.check(_join(header, rows))


def test_scan_check_rejects_inexact_statistic(scan):
    wl, text = scan
    header, rows = _rows(text)
    row = rows[wl.expected.sample[0]]
    col = header.index("t")
    row[col] = repr(float(row[col]) * (1 + 1e-9))
    assert wl.check(_join(header, rows))


def test_scan_check_rejects_missing_row(scan):
    wl, text = scan
    header, rows = _rows(text)
    assert wl.check(_join(header, rows[:-1]))


@pytest.fixture(scope="module")
def simulate(tmp_path_factory):
    wl = _prepare("simulate", 5, tmp_path_factory.mktemp("sim"), "SIM_REPLICATIONS", 1 << 17)
    return wl, _run(wl)


def test_simulate_check_accepts_program_output(simulate):
    wl, text = simulate
    assert wl.check(text) == []


def test_simulate_check_rejects_shifted_cell(simulate):
    wl, text = simulate
    payload = json.loads(text)
    cell = payload["cells"][0]
    cell["rejections"] += int(10 * (cell["rejections"] or 1) ** 0.5) + 10
    cell["fraction"] = cell["rejections"] / payload["replications"]
    assert wl.check(json.dumps(payload))


def test_simulate_digest_ignores_wall_time_only(simulate):
    wl, text = simulate
    assert wl.digest(_run(wl)) == wl.digest(text)
    payload = json.loads(text)
    payload["cells"][0]["rejections"] += 1
    assert wl.digest(json.dumps(payload)) != wl.digest(text)


@pytest.fixture(scope="module")
def power(tmp_path_factory):
    wl = _prepare("power", 11, tmp_path_factory.mktemp("power"), "POWER_GRID", 300)
    return wl, _run(wl)


def _power_rows(text):
    lines = text.split("\n")
    return lines[0], [line.split(",") for line in lines[1:-1]]


def _power_join(header, rows):
    return "\n".join([header] + [",".join(r) for r in rows]) + "\n"


def test_power_check_accepts_program_output(power):
    wl, text = power
    assert wl.check(text) == []
    feasible = [r[4] for r in _power_rows(text)[1]]
    assert "0" in feasible and "1" in feasible


def test_power_check_rejects_power_above_one(power):
    wl, text = power
    header, rows = _power_rows(text)
    row = next(r for r in rows if r[4] == "1")
    row[3] = "1.5"
    assert wl.check(_power_join(header, rows))


def test_power_check_rejects_wrong_feasible_flag(power):
    wl, text = power
    header, rows = _power_rows(text)
    k = next(i for i, r in enumerate(rows) if r[4] == "0") // 4
    for r in rows[4 * k : 4 * k + 4]:
        r[3], r[4] = "0.5", "1"
    assert wl.check(_power_join(header, rows))


def test_power_check_rejects_missing_row(power):
    wl, text = power
    header, rows = _power_rows(text)
    assert wl.check(_power_join(header, rows[:-1]))


def test_traced_run_reports_every_layer_metric_nonnegative(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(workloads, "SCAN_MARKERS", 2000)
    monkeypatch.setattr(workloads, "SIM_REPLICATIONS", 1 << 17)
    monkeypatch.setattr(workloads, "POWER_GRID", 200)
    tally = run.Tally()
    record = {"inputs": {}, "calls_s": {}, "layers": {}}
    metrics = run.traced(1, 0.1, tally, record)
    assert tally.failed == 0, tally.problems
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    for name in ("cli.scan_rest_s", "cli.power_rest_s", "cli.sim_rest_s", "sim.non_draw_s"):
        assert metrics[name] >= 0.0, name


def test_end_to_end_reports_every_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(workloads, "POWER_GRID", 200)
    tally = run.Tally()
    record = {"inputs": {}, "calls_s": {}, "setup_runs_s": {}}
    metrics = run.end_to_end("power", 1, 0.1, tally, record)
    assert tally.failed == 0, tally.problems
    assert tally.attempted >= 1 + run.MIN_CALLS
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["end_to_end"]}
    assert all(value > 0 for value in metrics.values())
