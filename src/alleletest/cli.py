"""Command-line frontend: model inspection, marker scans, power curves, simulation.

Exit codes: 0 success, 1 usage or validation problem, 2 I/O failure,
3 infeasible population model.
"""

from __future__ import annotations

import json
import sys
from typing import IO, Iterator

import click
import numpy as np

from . import power as power_mod
from . import sim as sim_mod
from .model import (
    DegeneratePrevalenceError,
    DesignConstants,
    FeasibilityError,
    MarkerSpec,
    PenetranceModel,
    delta_bounds,
    population_summary,
    q_term,
)
from .stats import (
    CORRECTION_DIRECTIONS,
    MAX_ALLELE_TOTAL,
    AlleleCounts,
    report_arrays,
    report_rows,
)
from .stats import evaluate_counts  # noqa: F401 (bench/tracing.py wraps it)

__all__ = [
    "CountsFileError",
    "parse_counts_file",
    "cli",
    "main",
    "entry",
    "SCAN_COLUMNS",
]

COUNTS_HEADER = ("marker_id", "case_m1", "case_m2", "ctrl_m1", "ctrl_m2")

SCAN_COLUMNS = (
    "marker_id",
    "q_hat_ctrl",
    "q_hat_case",
    "t",
    "p_t",
    "w",
    "p_w",
    "w_cor",
    "u",
    "p_u",
    "q_hat",
    "effect_ratio",
    "ci_lo",
    "ci_hi",
    "flags",
    "w_abs_rank",
)

# Largest number of power points (grid coordinates times pi-hats), 500 times
# the benchmark's power grid; it bounds the memory a sweep can ask for before
# anything is allocated.
MAX_SWEEP_POINTS = 10**6

LOCALITY_NOTE = (
    "note: p-values rank markers only locally -- markers tied to different "
    "causal variants share no common effect scale and are not comparable."
)


class CountsFileError(ValueError):
    """Malformed marker counts file; carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def parse_counts_file(path: str) -> tuple[list[str], np.ndarray]:
    """Parse a marker counts table into its marker ids and an ``(n, 4)`` int64
    array of ``case_m1 case_m2 ctrl_m1 ctrl_m2`` counts.

    Whitespace-separated columns ``marker_id case_m1 case_m2 ctrl_m1
    ctrl_m2``; ``#`` starts a comment line; the header row is required and
    validated. Counts are read by ``int()``. Duplicate marker ids, negative
    counts, odd group totals and totals above ``stats.MAX_ALLELE_TOTAL`` are
    rejected at the first offending line, with the messages of
    :class:`~alleletest.stats.AlleleCounts`.
    """
    ids: list[str] = []
    values: list[int] = []
    line_nos: list[int] = []
    seen: set[str] = set()
    header_seen = False
    error = None
    with open(path, "rt", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if not header_seen:
                if tuple(fields) != COUNTS_HEADER:
                    raise CountsFileError(
                        f"expected header {' '.join(COUNTS_HEADER)!r}, got {line!r}",
                        line_no,
                    )
                header_seen = True
                continue
            if len(fields) != 5:
                error = CountsFileError(
                    f"expected 5 fields, got {len(fields)}: {line!r}", line_no
                )
                break
            marker_id = fields[0]
            if marker_id in seen:
                error = CountsFileError(f"duplicate marker_id {marker_id!r}", line_no)
                break
            seen.add(marker_id)
            try:
                values.extend([int(fields[1]), int(fields[2]), int(fields[3]), int(fields[4])])
            except ValueError:
                error = CountsFileError(f"non-integer count in {line!r}", line_no)
                break
            ids.append(marker_id)
            line_nos.append(line_no)
    try:
        counts = np.array(values, dtype=np.int64).reshape(-1, 4)
    except OverflowError:  # such a count is out of range: clamp it, keeping its sign
        bounded = [min(max(v, -1), MAX_ALLELE_TOTAL + 1) for v in values]
        counts = np.array(bounded, dtype=np.int64).reshape(-1, 4)
    bad = np.flatnonzero(_out_of_range(counts))
    if bad.size:  # a range error comes before any error on a later line
        i = int(bad[0])
        try:
            AlleleCounts(*values[4 * i : 4 * i + 4])
        except ValueError as exc:
            raise CountsFileError(str(exc), line_nos[i]) from None
    if error is not None:
        raise error
    if not header_seen:
        raise CountsFileError("empty counts file (header row is required)")
    if not ids:
        raise CountsFileError("no marker rows found after the header")
    return ids, counts


def _out_of_range(counts: np.ndarray) -> np.ndarray:
    """Mask of the ``(n, 4)`` count rows that :class:`AlleleCounts` rejects."""
    # Each count is bounded before the totals are summed, so no sum can wrap.
    bounded = np.clip(counts, -1, MAX_ALLELE_TOTAL + 1)
    totals = bounded[:, 0::2] + bounded[:, 1::2]
    return (
        (bounded < 0).any(axis=1)
        | ((totals < 2) | (totals % 2 == 1) | (totals > MAX_ALLELE_TOTAL)).any(axis=1)
    )


def _use_config(ctx: click.Context, param: click.Parameter, value: str | None):
    """Load per-command defaults from a JSON file (flags still win)."""
    if value:
        with open(value, "rt", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise click.UsageError("config file must hold a JSON object")
        ctx.default_map = {**loaded, **(ctx.default_map or {})}
    return value


def _config_option(fn):
    return click.option(
        "--config",
        type=click.Path(exists=True, dir_okay=False),
        is_eager=True,
        expose_value=False,
        callback=_use_config,
        help="JSON file supplying defaults for any long option (keys use underscores).",
    )(fn)


def _parse_pen(text: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise click.UsageError("--pen expects three comma-separated risks: pen11,pen12,pen22")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError:
        raise click.UsageError(f"--pen values must be numbers, got {text!r}") from None


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise click.UsageError(f"{flag} values must be numbers, got {text!r}") from None


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.17g}"


def _open_out(path: str) -> IO[str]:
    if path == "-":
        return sys.stdout
    return open(path, "wt", encoding="utf-8")


def _close_out(handle: IO[str]) -> None:
    if handle is not sys.stdout:
        handle.close()


@click.group()
def cli():
    """Allele-based case-control association toolkit.

    Frequency-comparison tests with classic and prevalence-based
    standardization, their asymptotic power, and Monte Carlo calibration.
    """


@cli.command("model")
@click.option("--p1", type=float, required=True, help="Causal risk-allele frequency.")
@click.option("--pen", required=True, help="Genotype risks pen11,pen12,pen22.")
@click.option("--q1", type=float, required=True, help="Marker M1 allele frequency.")
@click.option("--delta", type=float, default=0.0, show_default=True, help="LD correlation between marker and causal variant.")
@click.option("--r", type=int, default=1, show_default=True, help="Planned case count (with --s it fixes the sampling fraction entering Q).")
@click.option("--s", type=int, default=1, show_default=True, help="Planned control count.")
@_config_option
def model_cmd(p1, pen, q1, delta, r, s):
    """Print the derived population quantities as JSON."""
    pens = _parse_pen(pen)
    model = PenetranceModel(p1=p1, pen11=pens[0], pen12=pens[1], pen22=pens[2])
    marker = MarkerSpec(q1=q1, delta=delta)
    design = DesignConstants(r_cases=r, s_controls=s)
    summary = population_summary(model, marker)
    lo, hi = delta_bounds(p1, q1)
    haps = summary.haplotypes
    payload = {
        "p1": p1,
        "q1": q1,
        "delta": delta,
        "prevalence": summary.prevalence,
        "p1_case": summary.p1_case,
        "p1_ctrl": summary.p1_ctrl,
        "q1_case": summary.q1_case,
        "q1_ctrl": summary.q1_ctrl,
        "b": summary.b,
        "lam": design.lam,
        "q": q_term(summary, design.lam),
        "haplotypes": {"a1m1": haps[0], "a1m2": haps[1], "a2m1": haps[2], "a2m2": haps[3]},
        "delta_bounds": [lo, hi],
    }
    click.echo(json.dumps(payload, indent=2))


# Markers per formatted block. Each block is one write, so the formatted text
# and the Python floats held at any time do not grow with the file.
SCAN_BLOCK_ROWS = 4096
_OK_ROW = "%s" + "\t%.17g" * 13 + "\tok\t%d\n"


def _scan_blocks(
    ids: list[str], counts: np.ndarray, pi_hat: float, ci_level: float, direction: str
) -> Iterator[str]:
    r1, r2, s1, s2 = counts.T
    arrays, z = report_arrays(
        r1, r1 + r2, s1, s1 + s2, pi_hat, ci_level=ci_level, direction=direction
    )
    ranked = np.flatnonzero(~arrays.degenerate)
    ranked = ranked[np.argsort(-np.abs(arrays.w[ranked]), kind="stable")]
    rank = np.zeros(len(ids), dtype=np.int64)
    rank[ranked] = np.arange(1, ranked.size + 1)
    yield "\t".join(SCAN_COLUMNS) + "\n"
    for start in range(0, len(ids), SCAN_BLOCK_ROWS):
        stop = start + SCAN_BLOCK_ROWS
        lines = []
        for marker_id, (*cells, flags), pos in zip(
            ids[start:stop], report_rows(arrays, z, start, stop), rank[start:stop].tolist()
        ):
            if flags:  # degenerate: empty cells for what is undefined, no rank
                lines.append("\t".join([marker_id, *map(_fmt, cells), ";".join(flags), "\n"]))
            else:
                lines.append(_OK_ROW % (marker_id, *cells, pos))
        yield "".join(lines)


@cli.command("scan")
@click.option("--counts", "counts_path", required=True, type=click.Path(), help="Input marker counts table.")
@click.option("--pi-hat", type=float, required=True, help="External disease prevalence estimate (required for W and U).")
@click.option("--out", default="-", show_default=True, help="Output TSV path, or - for stdout.")
@click.option("--ci-level", type=float, default=0.95, show_default=True, help="Effect-ratio confidence level.")
@click.option("--direction", type=click.Choice(CORRECTION_DIRECTIONS), default="toward_zero", show_default=True, help="Continuity-correction direction for W_cor.")
@click.option("--warn-locality/--no-warn-locality", default=True, show_default=True, help="Print the local-ranking reminder to stderr.")
@_config_option
def scan_cmd(counts_path, pi_hat, out, ci_level, direction, warn_locality):
    """Scan a counts table: one row of statistics and p-values per marker."""
    ids, counts = parse_counts_file(counts_path)
    blocks = _scan_blocks(ids, counts, pi_hat, ci_level, direction)
    header = next(blocks)  # checks the arguments before the output is opened
    handle = _open_out(out)
    try:
        handle.write(header)
        for block in blocks:
            handle.write(block)
    finally:
        _close_out(handle)
    if warn_locality:
        click.echo(LOCALITY_NOTE, err=True)
    click.echo(f"scanned {len(ids)} markers", err=True)


def _check_point_count(n: int) -> None:
    if n > MAX_SWEEP_POINTS:
        raise click.UsageError(
            f"a power sweep allows at most {MAX_SWEEP_POINTS} points "
            f"(grid coordinates times pi-hats), got {n}"
        )


def _default_grid(axis: str, p1: float, q1: float | None) -> list[float]:
    if axis == "q1":
        return list(np.linspace(0.01, 0.99, 99))
    if axis == "delta":
        lo, hi = delta_bounds(p1, q1)
        return list(np.linspace(lo, hi, 41))
    return list(np.linspace(0.0, 1.0, 11))


@cli.command("power")
@click.option("--p1", type=float, required=True, help="Causal risk-allele frequency.")
@click.option("--pen", required=True, help="Genotype risks pen11,pen12,pen22.")
@click.option("--q1", type=float, default=None, help="Marker frequency (fixed; required unless it is the axis).")
@click.option("--delta", type=float, default=None, help="LD correlation (fixed; required unless it is the axis).")
@click.option("--delta-weight", type=float, default=None, help="Fixed mixing weight for the weighted statistic (defaults to the true prevalence).")
@click.option("--r", type=int, required=True, help="Case count.")
@click.option("--s", type=int, required=True, help="Control count.")
@click.option("--alpha", type=float, required=True, help="Significance level.")
@click.option("--axis", type=click.Choice(power_mod.GRID_AXES), default="q1", show_default=True, help="Coordinate to sweep.")
@click.option("--values", default=None, help="Comma-separated axis values (overrides the default grid).")
@click.option("--sweep", default=None, help="Axis range lo:hi:n (overrides the default grid).")
@click.option("--pi-hats", default=None, help="Comma-separated prevalence estimates for misspecification curves.")
@click.option("--out", default="-", show_default=True, help="Output CSV path, or - for stdout.")
@_config_option
def power_cmd(p1, pen, q1, delta, delta_weight, r, s, alpha, axis, values, sweep, pi_hats, out):
    """Evaluate asymptotic power curves; emits CSV data for plotting."""
    pens = _parse_pen(pen)
    model = PenetranceModel(p1=p1, pen11=pens[0], pen12=pens[1], pen22=pens[2])
    design = DesignConstants(r_cases=r, s_controls=s)
    if axis != "q1" and q1 is None:
        raise click.UsageError("--q1 is required when it is not the sweep axis")
    if axis != "delta" and delta is None:
        raise click.UsageError("--delta is required when it is not the sweep axis")
    if values is not None and sweep is not None:
        raise click.UsageError("--values and --sweep are mutually exclusive")
    if values is not None:
        grid = list(_parse_float_list(values, "--values"))
    elif sweep is not None:
        parts = sweep.split(":")
        if len(parts) != 3:
            raise click.UsageError("--sweep expects lo:hi:n")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise click.UsageError(f"--sweep expects numbers lo:hi:n, got {sweep!r}") from None
        if n < 1:
            raise click.UsageError("--sweep needs at least one point")
        _check_point_count(n)  # before the grid is allocated
        grid = list(np.linspace(lo, hi, n))
    else:
        grid = _default_grid(axis, p1, q1)
    if axis == "delta_weight":
        # The fixed marker must itself be feasible before sweeping weights.
        population_summary(model, MarkerSpec(q1=q1, delta=delta))
    pi_hat_values = None
    if pi_hats is not None:
        pi_hat_values = list(_parse_float_list(pi_hats, "--pi-hats"))
    _check_point_count(len(grid) * max(1, len(pi_hat_values or ())))
    points = power_mod.power_grid(
        model,
        design,
        axis=axis,
        values=grid,
        alpha=alpha,
        q1=q1,
        delta=delta,
        delta_weight=delta_weight,
        pi_hat_values=pi_hat_values,
    )
    handle = _open_out(out)
    try:
        handle.write("axis,test,variant,power,feasible\n")
        for pt in points:
            coord = f"{getattr(pt, axis):.17g}"
            feasible = "1" if pt.feasible else "0"
            handle.write(
                f"{coord},T,,{_fmt(pt.power_t)},{feasible}\n"
                f"{coord},W,{pt.pi_hat:.17g},{_fmt(pt.power_w)},{feasible}\n"
                f"{coord},W_delta,{pt.delta_weight:.17g},{_fmt(pt.power_w_delta)},{feasible}\n"
                f"{coord},U,,{_fmt(pt.power_u)},{feasible}\n"
            )
    finally:
        _close_out(handle)


@cli.command("simulate")
@click.option("--p1", type=float, required=True, help="Causal risk-allele frequency.")
@click.option("--pen", required=True, help="Genotype risks pen11,pen12,pen22.")
@click.option("--q1", type=float, required=True, help="Marker M1 allele frequency.")
@click.option("--delta", type=float, default=0.0, show_default=True, help="LD correlation (must be 0 under --type1).")
@click.option("--r", type=int, required=True, help="Case count.")
@click.option("--s", type=int, required=True, help="Control count.")
@click.option("--pi-hat", type=float, required=True, help="Prevalence estimate used by W and U.")
@click.option("--reps", type=int, required=True, help="Number of replications.")
@click.option("--seed", type=int, default=0, show_default=True, help="Random seed (64-bit).")
@click.option("--mode", type=click.Choice(sim_mod.MODES), default="allele", show_default=True, help="Sampling mode.")
@click.option("--alphas", default="1e-3", show_default=True, help="Comma-separated significance levels.")
@click.option("--deltas", default="", help="Comma-separated mixing weights for the weighted tests.")
@click.option("--tests", default=None, help="Comma-separated subset of T,W,W_cor,U,W_delta,W_cor_delta.")
@click.option("--workers", type=int, default=1, show_default=True, help="Worker threads (does not affect results).")
@click.option("--type1/--power", "type1", default=True, help="Estimate type I error (default) or power.")
@click.option("--out-json", default=None, type=click.Path(), help="Write the JSON result here instead of stdout.")
@click.option("--out-tsv", default=None, type=click.Path(), help="Also write the long-format TSV table here.")
@_config_option
def simulate_cmd(p1, pen, q1, delta, r, s, pi_hat, reps, seed, mode, alphas, deltas, tests, workers, type1, out_json, out_tsv):
    """Run the Monte Carlo engine and emit rejection-fraction tables."""
    pens = _parse_pen(pen)
    model = PenetranceModel(p1=p1, pen11=pens[0], pen12=pens[1], pen22=pens[2])
    marker = MarkerSpec(q1=q1, delta=delta)
    design = DesignConstants(r_cases=r, s_controls=s)
    alpha_values = _parse_float_list(alphas, "--alphas")
    delta_weights = _parse_float_list(deltas, "--deltas")
    if tests is None:
        test_list = sim_mod.BASE_TESTS + (sim_mod.DELTA_TESTS if delta_weights else ())
    else:
        test_list = tuple(t.strip() for t in tests.split(",") if t.strip())
    config = sim_mod.SimConfig(
        model=model,
        marker=marker,
        design=design,
        pi_hat=pi_hat,
        replications=reps,
        alphas=alpha_values,
        delta_weights=delta_weights,
        tests=test_list,
        mode=mode,
        seed=seed,
    )
    if type1:
        result = sim_mod.estimate_type1(config, workers=workers)
    else:
        result = sim_mod.estimate_power(config, workers=workers)
    if out_json:
        with open(out_json, "wt", encoding="utf-8") as fh:
            fh.write(result.to_json() + "\n")
    else:
        click.echo(result.to_json())
    if out_tsv:
        with open(out_tsv, "wt", encoding="utf-8") as fh:
            fh.write(result.to_tsv())


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, prog_name="alleletest", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        exc.show()
        return 1
    except (FeasibilityError, DegeneratePrevalenceError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except (CountsFileError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except click.ClickException as exc:
        exc.show()
        return int(exc.exit_code)
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
