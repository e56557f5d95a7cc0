"""Command-line frontend: model inspection, marker scans, power curves, simulation.

Exit codes: 0 success, 1 usage or validation problem, 2 I/O failure,
3 infeasible population model.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from array import array
from itertools import islice, repeat
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
    REPORT_FLAGS,
    AlleleCounts,
    report_arrays,
    report_columns,
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


# Markers per block of the scan, and power points per block of the power CSV
# (or one coordinate where it has more pi-hats): the parse reads, the kernel
# runs on and the rows are formatted for one block at a time, so the
# temporaries, the Python ints and the text held at any time do not grow with
# the input. The scan's formatter temporaries take about 3 KiB a marker.
BLOCK_ROWS = 512

# A canonical counts file's first line, and the bytes its rows may hold: tab,
# LF and printable ASCII but space and "#". Of these, str.split splits at tab
# and LF alone, and text mode ends lines at LF alone.
_CANONICAL_HEADER = ("\t".join(COUNTS_HEADER) + "\n").encode()
_CANONICAL_BYTES = bytes([9, 10, *range(0x21, 0x7F)]).replace(b"#", b"")


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

    Whitespace-separated UTF-8 columns ``marker_id case_m1 case_m2 ctrl_m1
    ctrl_m2``, after an optional byte-order mark; ``#`` starts a comment line;
    the header row is required and validated. Counts are read by ``int()``.
    Duplicate marker ids, negative counts, odd group totals and totals above
    ``stats.MAX_ALLELE_TOTAL`` are rejected with the messages of
    :class:`~alleletest.stats.AlleleCounts`, at the first offending line.

    A canonical file (the header, then rows of an ASCII id and four digit
    counts, tab-separated, each ending in LF) is read in numpy, one block of
    ``BLOCK_ROWS`` lines at a time. Any other file, or one with an invalid row,
    is read again from its start by the row loop, which words the errors.
    """
    return _parse_canonical(path) or _parse_rows(path)


def _parse_canonical(path: str) -> tuple[list[str], np.ndarray] | None:
    """The ids and counts of a canonical, valid counts file; else None."""
    ids: list[str] = []
    packed = array("q")  # four counts per row
    with open(path, "rb") as fh:
        if fh.readline() != _CANONICAL_HEADER:
            return None
        while lines := list(islice(fh, BLOCK_ROWS)):
            block = _canonical_block(b"".join(lines), len(lines))
            if block is None:
                return None
            ids += block[0]
            packed.frombytes(block[1].tobytes())
    # Two equal hashes, of a duplicate id or not, leave the file to the row
    # loop; sorted hashes take a fraction of the memory of a set of the ids.
    hashes = np.sort(np.fromiter(map(hash, ids), dtype=np.int64, count=len(ids)))
    if not ids or (hashes[1:] == hashes[:-1]).any():
        return None
    return ids, np.frombuffer(packed, dtype=np.int64).reshape(-1, 4)


def _canonical_block(block: bytes, n: int) -> tuple[list[str], np.ndarray] | None:
    """The ids and ``(n, 4)`` counts of ``n`` lines, if each is an id of
    ``_CANONICAL_BYTES``, four times a tab and a count of 1-18 digits, and LF,
    and every group total is valid; else None. Text mode, ``str.split`` and
    ``int()`` read such lines as these ids and counts."""
    if block.translate(None, _CANONICAL_BYTES):
        return None
    codes = np.frombuffer(block, dtype=np.uint8)
    cuts = np.flatnonzero(codes <= 10)  # the tabs and LFs
    # The n lines hold at most n LFs, so if every fifth of 5n cuts is one,
    # each line ends in an LF and holds exactly four tabs.
    if cuts.size != 5 * n or (codes[cuts[4::5]] != 10).any():
        return None
    widths = np.diff(cuts, prepend=-1).reshape(n, 5)  # each field and its cut
    if (widths < 2).any() or (widths[:, 1:] > 19).any():
        return None
    # Each id runs from its line's start to its first tab. The ids blanked
    # leave the counts, which must be digits, and the counts blanked the ids.
    edges = np.zeros(codes.size, dtype=np.int8)
    edges[0] = 1
    edges[cuts[4:-1:5] + 1] = 1
    edges[cuts[::5]] = -1
    in_id = np.cumsum(edges, dtype=np.int8).view(bool)
    cells, names = codes.copy(), codes.copy()
    cells[in_id] = names[~in_id] = ord(" ")
    cells = cells.tobytes()
    if cells.translate(None, b"0123456789\t\n "):
        return None
    counts = np.fromstring(cells, dtype=np.int64, sep=" ").reshape(n, 4)
    totals = counts[:, 0::2] + counts[:, 1::2]
    if ((totals % 2 != 0) | (totals < 2) | (totals > MAX_ALLELE_TOTAL)).any():
        return None
    return names.tobytes().decode("ascii").split(), counts


def _parse_rows(path: str) -> tuple[list[str], np.ndarray]:
    """The row loop: each row is checked and its counts packed as it is read."""
    ids: list[str] = []
    seen: set[str] = set()
    packed = array("q")  # four counts per row
    header_seen = False
    with open(path, "rt", encoding="utf-8-sig") as fh:
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
                raise CountsFileError(f"expected 5 fields, got {len(fields)}: {line!r}", line_no)
            marker_id = fields[0]
            if marker_id in seen:
                raise CountsFileError(f"duplicate marker_id {marker_id!r}", line_no)
            seen.add(marker_id)
            try:
                r1, r2, s1, s2 = int(fields[1]), int(fields[2]), int(fields[3]), int(fields[4])
            except ValueError:
                raise CountsFileError(f"non-integer count in {line!r}", line_no) from None
            n1, n0 = r1 + r2, s1 + s2
            # What AlleleCounts rejects, in integer operations: building one
            # for every row would cost more than the rest of the row's parse.
            if (r1 < 0 or r2 < 0 or s1 < 0 or s2 < 0 or n1 % 2 or n0 % 2
                    or not 2 <= n1 <= MAX_ALLELE_TOTAL or not 2 <= n0 <= MAX_ALLELE_TOTAL):
                try:
                    AlleleCounts(r1, r2, s1, s2)
                except ValueError as exc:
                    raise CountsFileError(str(exc), line_no) from None
            ids.append(marker_id)
            packed.extend((r1, r2, s1, s2))  # each count is at most MAX_ALLELE_TOTAL
    if not header_seen:
        raise CountsFileError("empty counts file (header row is required)")
    if not ids:
        raise CountsFileError("no marker rows found after the header")
    return ids, np.frombuffer(packed, dtype=np.int64).reshape(-1, 4)


def _use_config(ctx: click.Context, param: click.Parameter, value: str | None):
    """Load per-command defaults from a JSON file (flags still win). Each key
    must name an option, and each value is read as its flag's text, so
    ``"seed": 1.9`` fails as ``--seed 1.9`` does (click would truncate it)."""
    if value:
        with open(value, "rt", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise click.UsageError("config file must hold a JSON object")
        names = sorted(p.name for p in ctx.command.params if p.expose_value)
        for key in loaded:
            if key not in names:
                raise click.UsageError(f"config key {key!r} names no option; choose from {names}")
        loaded = {key: item if item is None else str(item) for key, item in loaded.items()}
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


def _penetrance_model(p1: float, pen: str) -> PenetranceModel:
    """The model of ``--p1`` and ``--pen``, three comma-separated risks."""
    parts = [p.strip() for p in pen.split(",")]
    if len(parts) != 3:
        raise click.UsageError("--pen expects three comma-separated risks: pen11,pen12,pen22")
    try:
        pen11, pen12, pen22 = map(float, parts)
    except ValueError:
        raise click.UsageError(f"--pen values must be numbers, got {pen!r}") from None
    return PenetranceModel(p1=p1, pen11=pen11, pen12=pen12, pen22=pen22)


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise click.UsageError(f"{flag} values must be numbers, got {text!r}") from None


@contextlib.contextmanager
def _outputs(*paths: str | None) -> Iterator[list[IO[str] | None]]:
    """Open every output before any is written: ``-`` is stdout, which is
    never closed, and ``None`` is no output."""
    with contextlib.ExitStack() as stack:
        yield [
            None if path is None
            else sys.stdout if path == "-"
            else stack.enter_context(open(path, "wt", encoding="utf-8"))
            for path in paths
        ]


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
    model = _penetrance_model(p1, pen)
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


# A row's fields after the marker id, each after a tab: 13 cells, the flags, the rank.
_FIELDS = 15


def _scan_blocks(
    ids: list[str], counts: np.ndarray, pi_hat: float, ci_level: float, direction: str
) -> Iterator[str]:
    """The scan's TSV text: the header once the ranks are known, then the
    rows of one block of ``BLOCK_ROWS`` markers at a time.

    The kernel is elementwise, so it runs per block, in two passes over the
    same blocks: the first keeps only W, for the file-wide stable ``|W|``
    rank, and the second runs the kernel again and writes each block's rows.
    """
    blocks = range(0, len(ids), BLOCK_ROWS)

    def block_arrays(start):
        r1, r2, s1, s2 = counts[start : start + BLOCK_ROWS].T
        return report_arrays(r1, r1 + r2, s1, s1 + s2, pi_hat, ci_level=ci_level, direction=direction)

    key = np.empty(len(ids))
    for start in blocks:
        key[start : start + BLOCK_ROWS] = block_arrays(start)[0].w
    # The rank's temporaries are made in place or dropped once used: on large
    # files this step sets the scan's peak memory.
    ranked = len(ids) - np.count_nonzero(np.isnan(key))
    order = np.argsort(np.negative(np.abs(key, out=key), out=key), kind="stable")
    del key
    # W is NaN exactly where a table is degenerate, and NaN sorts last, so the
    # ranked markers come first, in the order a stable sort gives them alone.
    rank = np.full(len(ids), np.nan)
    rank[order[:ranked]] = np.arange(1, ranked + 1)
    del order
    yield "\t".join(SCAN_COLUMNS) + "\n"
    for start in blocks:
        cells, flags = report_columns(*block_arrays(start))
        rows = slice(start, start + len(cells))
        yield _scan_rows(ids[rows], cells, flags, rank[rows])


def _scan_rows(ids: list[str], cells: np.ndarray, flags: np.ndarray, rank: np.ndarray) -> str:
    """The TSV rows of some markers, laid out in one byte matrix of
    ``_format.WIDTH``-byte fields whose fillers are then deleted. A NaN cell
    or rank is an empty field."""
    from . import _format  # imported by the writers alone, so the CLI starts as fast

    n = len(ids)
    values = np.zeros((n, _FIELDS))  # the flags' field is written over below
    values[:, :13] = cells
    values[:, 14] = rank
    blank = np.isnan(values)  # a flagged row's empty cells, and its rank
    values[blank] = 0.0
    fields = _format.format_17g(values)
    fields[blank] = _format.FILLER
    names = b"".join((";".join(each) or "ok").encode().ljust(_format.WIDTH, _format.FILLER_BYTES)
                     for each in REPORT_FLAGS)
    fields[:, 13] = np.frombuffer(names, dtype=np.uint8).reshape(-1, _format.WIDTH)[flags]
    encoded = list(map(str.encode, ids))
    width = max(map(len, encoded))
    padded = b"".join(map(bytes.ljust, encoded, repeat(width), repeat(_format.FILLER_BYTES)))
    text = np.empty((n, width + _FIELDS * (_format.WIDTH + 1) + 1), dtype=np.uint8)
    text[:, :width] = np.frombuffer(padded, dtype=np.uint8).reshape(n, width)
    after_id = text[:, width:-1].reshape(n, _FIELDS, _format.WIDTH + 1)
    after_id[:, :, 0] = ord("\t")
    after_id[:, :, 1:] = fields
    text[:, -1] = ord("\n")
    return text.tobytes().translate(None, _format.FILLER_BYTES).decode("utf-8")


@cli.command("scan")
@click.option("--counts", required=True, type=click.Path(), help="Input marker counts table.")
@click.option("--pi-hat", type=float, required=True, help="External disease prevalence estimate (required for W and U).")
@click.option("--out", default="-", show_default=True, help="Output TSV path, or - for stdout.")
@click.option("--ci-level", type=float, default=0.95, show_default=True, help="Effect-ratio confidence level.")
@click.option("--direction", type=click.Choice(CORRECTION_DIRECTIONS), default="toward_zero", show_default=True, help="Continuity-correction direction for W_cor.")
@click.option("--warn-locality/--no-warn-locality", default=True, show_default=True, help="Print the local-ranking reminder to stderr.")
@_config_option
def scan_cmd(counts, pi_hat, out, ci_level, direction, warn_locality):
    """Scan a counts table: one row of statistics and p-values per marker."""
    ids, table = parse_counts_file(counts)
    blocks = _scan_blocks(ids, table, pi_hat, ci_level, direction)
    header = next(blocks)  # checks the arguments before the output is opened
    with _outputs(out) as (handle,):
        handle.write(header)
        handle.writelines(blocks)
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


def _power_blocks(powers: power_mod.PowerGrid, axis: str) -> Iterator[str]:
    """The CSV rows of ``powers``, four per (coordinate, pi-hat) point, in
    blocks of ``BLOCK_ROWS`` points.

    Each block's coordinates and its feasible coordinates' T, W_delta, U and
    W powers are formatted in one ``_format`` call, and the rows are laid out
    around those texts. The pi-hats and the weight are formatted once per
    sweep; on the weight axis the weight is the coordinate. An infeasible
    coordinate has empty power cells, so its rows are text fixed per sweep
    around the coordinate.
    """
    from . import _format  # imported by the writers alone, so the CLI starts as fast

    *pi_hats, weight = _format.format_17g_list(np.array([*powers.pi_hats, powers.delta_weight[0]]))
    weight = None if axis == "delta_weight" else weight
    # The rows of an infeasible coordinate, split where the coordinate goes.
    empty_w_delta = (",W_delta,", ",,0\n") if weight is None else (f",W_delta,{weight},,0\n",)
    infeasible = [
        piece
        for pi_hat in pi_hats
        for piece in (",T,,,0\n", f",W,{pi_hat},,0\n", *empty_w_delta, ",U,,,0\n")
    ]

    def block(rows: slice) -> str:
        """The rows of some coordinates; what builds them is freed on return."""
        coords = getattr(powers, axis)[rows]
        feasible = powers.feasible[rows]
        cells = np.column_stack((powers.power_t[rows], powers.power_w_delta[rows],
                                 powers.power_u[rows], powers.power_w[rows]))[feasible]
        texts = _format.format_17g_list(np.concatenate((coords, cells.ravel())))
        points = zip(*[iter(texts[len(coords):])] * cells.shape[1])  # a feasible point's cells
        lines = []
        for coord, ok in zip(texts, feasible.tolist()):
            if not ok:
                lines.append(coord + coord.join(infeasible))
                continue
            p_t, p_wd, p_u, *p_ws = next(points)
            head = f"{coord},T,,{p_t},1\n{coord},W,"
            tail = f",1\n{coord},W_delta,{weight or coord},{p_wd},1\n{coord},U,,{p_u},1\n"
            for pi_hat, p_w in zip(pi_hats, p_ws):
                lines.append(f"{head}{pi_hat},{p_w}{tail}")
        return "".join(lines)

    step = max(1, BLOCK_ROWS // len(pi_hats))
    for start in range(0, len(powers.feasible), step):
        yield block(slice(start, start + step))


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
    model = _penetrance_model(p1, pen)
    design = DesignConstants(r_cases=r, s_controls=s)
    if {"q1": q1, "delta": delta, "delta_weight": delta_weight}[axis] is not None:
        flag = "--" + axis.replace("_", "-")
        raise click.UsageError(f"{flag} cannot be fixed when it is the sweep axis")
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
    powers = power_mod.power_grid(
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
    with _outputs(out) as (handle,):
        handle.write("axis,test,variant,power,feasible\n")
        handle.writelines(_power_blocks(powers, axis))


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
    paths = (out_json or "-", out_tsv or None)  # the JSON goes to stdout by default
    json_dest, tsv_dest = (p if p in ("-", None) else os.path.realpath(p) for p in paths)
    if json_dest == tsv_dest:  # one would write over the other, or both to stdout
        raise click.UsageError("--out-json and --out-tsv name the same file")
    model = _penetrance_model(p1, pen)
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
    with _outputs(*paths) as (json_out, tsv_out):
        json_out.write(result.to_json() + "\n")
        if tsv_out:
            tsv_out.write(result.to_tsv())


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, prog_name="alleletest", standalone_mode=False)
    except click.UsageError as exc:
        exc.show()
        return 1
    except (FeasibilityError, DegeneratePrevalenceError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except ValueError as exc:  # CountsFileError too
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
