"""CLI tests: parsing, subcommand outputs, exit codes, config files."""

import io
import json
import math
import os
import sys
import tracemalloc

import click
import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from alleletest import cli
from alleletest import sim as sim_mod
from alleletest.cli import (
    COUNTS_HEADER,
    MAX_SWEEP_POINTS,
    SCAN_COLUMNS,
    CountsFileError,
    main,
    parse_counts_file,
)
from alleletest.model import DesignConstants, PenetranceModel, delta_bounds
from alleletest.stats import AlleleCounts, evaluate_counts
from test_power import reference_grid

VALID_FILE = """\
# marker counts for the worked example
marker_id\tcase_m1\tcase_m2\tctrl_m1\tctrl_m2
rs1\t290\t1710\t184\t1816
# mid-table comment
rs2\t500\t1500\t510\t1490
rs3\t0\t2000\t0\t2000
rs4\t0\t2000\t5\t1995
"""


@pytest.fixture
def counts_file(tmp_path):
    path = tmp_path / "counts.tsv"
    path.write_text(VALID_FILE)
    return str(path)


class TestParseCountsFile:
    def test_valid_file(self, counts_file):
        ids, counts = parse_counts_file(counts_file)
        assert ids == ["rs1", "rs2", "rs3", "rs4"]
        assert counts.shape == (4, 4) and counts.dtype == np.int64
        assert counts[0, 0] == 290 and counts[0, 3] == 1816

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("rs1\t290\t1710\t184\t1816\n")
        with pytest.raises(CountsFileError, match="header"):
            parse_counts_file(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(CountsFileError, match="empty"):
            parse_counts_file(str(path))

    def test_header_only(self, tmp_path):
        path = tmp_path / "headeronly.tsv"
        path.write_text("marker_id\tcase_m1\tcase_m2\tctrl_m1\tctrl_m2\n")
        with pytest.raises(CountsFileError, match="no marker rows"):
            parse_counts_file(str(path))

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "short.tsv"
        path.write_text(
            "marker_id\tcase_m1\tcase_m2\tctrl_m1\tctrl_m2\nrs1\t290\t1710\t184\n"
        )
        with pytest.raises(CountsFileError, match="line 2"):
            parse_counts_file(str(path))

    def test_duplicate_marker(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text(
            "marker_id\tcase_m1\tcase_m2\tctrl_m1\tctrl_m2\n"
            "rs1\t2\t2\t2\t2\nrs1\t4\t4\t4\t4\n"
        )
        with pytest.raises(CountsFileError, match="rs1"):
            parse_counts_file(str(path))

    def test_negative_count(self, tmp_path):
        path = tmp_path / "neg.tsv"
        path.write_text(
            "marker_id\tcase_m1\tcase_m2\tctrl_m1\tctrl_m2\nrs1\t-1\t5\t2\t2\n"
        )
        with pytest.raises(CountsFileError, match="line 2"):
            parse_counts_file(str(path))

    def test_odd_total(self, tmp_path):
        path = tmp_path / "odd.tsv"
        path.write_text(
            "marker_id\tcase_m1\tcase_m2\tctrl_m1\tctrl_m2\nrs1\t2\t3\t2\t2\n"
        )
        with pytest.raises(CountsFileError, match="even"):
            parse_counts_file(str(path))

    def test_total_above_float64_exact_range(self, tmp_path):
        path = tmp_path / "huge.tsv"
        big = 1 << 53
        path.write_text(
            "marker_id\tcase_m1\tcase_m2\tctrl_m1\tctrl_m2\n"
            f"rs1\t{big // 2}\t{big // 2}\t2\t2\n"
            f"rs2\t{big // 2}\t{big // 2 + 2}\t2\t2\n"
        )
        with pytest.raises(CountsFileError, match="line 3: case allele total .* exceeds"):
            parse_counts_file(str(path))

    def test_leading_byte_order_mark_skipped(self, counts_file, tmp_path):
        # spreadsheet tools often save UTF-8 text with a leading byte-order mark
        path = tmp_path / "bom.tsv"
        path.write_bytes(b"\xef\xbb\xbf" + VALID_FILE.encode())
        ids, counts = parse_counts_file(str(path))
        want_ids, want_counts = parse_counts_file(counts_file)
        assert ids == want_ids
        np.testing.assert_array_equal(counts, want_counts)
        # only a leading mark is skipped: one later in the file is part of a marker id
        path.write_text(VALID_FILE.replace("rs2", "\ufeffrs2"), encoding="utf-8")
        assert parse_counts_file(str(path))[0][1] == "\ufeffrs2"

    def test_non_integer(self, tmp_path):
        path = tmp_path / "float.tsv"
        path.write_text(
            "marker_id\tcase_m1\tcase_m2\tctrl_m1\tctrl_m2\nrs1\t2.5\t1.5\t2\t2\n"
        )
        with pytest.raises(CountsFileError, match="non-integer"):
            parse_counts_file(str(path))


def reference_parse(path):
    """``parse_counts_file`` as it was written row by row, before it became
    columnar: one validated ``AlleleCounts`` per marker row. Only the return
    is new: the ids and the count rows as lists."""
    rows = []
    seen = set()
    header_seen = False
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
                raise CountsFileError(
                    f"expected 5 fields, got {len(fields)}: {line!r}", line_no
                )
            marker_id = fields[0]
            if marker_id in seen:
                raise CountsFileError(f"duplicate marker_id {marker_id!r}", line_no)
            seen.add(marker_id)
            try:
                r1, r2, s1, s2 = (int(f) for f in fields[1:])
            except ValueError:
                raise CountsFileError(f"non-integer count in {line!r}", line_no) from None
            try:
                counts = AlleleCounts(r1, r2, s1, s2)
            except ValueError as exc:
                raise CountsFileError(str(exc), line_no) from None
            rows.append((marker_id, counts))
    if not header_seen:
        raise CountsFileError("empty counts file (header row is required)")
    if not rows:
        raise CountsFileError("no marker rows found after the header")
    return [m for m, _ in rows], [[c.r1, c.r2, c.s1, c.s2] for _, c in rows]


def _outcome(parse, path):
    """Ids and count rows, or the error's message and line number."""
    try:
        ids, counts = parse(path)
    except CountsFileError as exc:
        return "error", str(exc), exc.line_no
    return "ok", ids, np.asarray(counts, dtype=np.int64).tolist()


BIG = 2**70
HEADER = "\t".join(COUNTS_HEADER)
_small = st.integers(0, 12)
# Group counts with an even total >= 2, so that most rows are valid.
_group = st.integers(1, 8).flatmap(lambda k: st.tuples(st.integers(0, 2 * k), st.just(2 * k)))
_valid_row = st.tuples(_group, _group).map(
    lambda g: [str(g[0][0]), str(g[0][1] - g[0][0]), str(g[1][0]), str(g[1][1] - g[1][0])]
)
_field = st.one_of(
    _small.map(str),
    _small.map(lambda v: f"+{v}"),
    st.sampled_from(["1_000", "1_002", "-1", "-2", "2.5", "x", "", "0x10", str(2**53),
                     str(BIG), str(-BIG), str(2**63), str(-(2**63) - 1)]),
)
# A valid row with one field swapped for an arbitrary one.
_odd_row = st.tuples(_valid_row, st.integers(0, 3), _field).map(
    lambda t: t[0][: t[1]] + [t[2]] + t[0][t[1] + 1 :]
)
_row = st.tuples(
    st.sampled_from(["rs1", "rs2", "rs3", "m4", "m5", "#m6"]),
    st.one_of(_valid_row, _valid_row, _odd_row, st.lists(_field, min_size=3, max_size=6)),
    st.sampled_from(["\t", " ", "  \t", "\x0c"]),  # a form feed separates fields, but is no line end
).map(lambda t: t[2].join([t[0], *t[1]]))
_filler = st.sampled_from(["", "   ", "# note"])


@st.composite
def counts_files(draw):
    """Text of a small counts file: mostly a header and valid rows, with blank,
    comment, CRLF and malformed lines mixed in."""
    lines = draw(st.lists(_filler, max_size=2))
    if draw(st.integers(0, 9)):  # a header, nine times in ten
        lines.append(HEADER)
    lines += draw(st.lists(st.one_of(_row, _row, _row, _row, _filler), min_size=1, max_size=10))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, endings))


@st.composite
def valid_counts_files(draw):
    """Text of a small valid counts file: a header, then rows under distinct ids
    with blank and comment lines among them."""
    entries = draw(st.lists(_valid_row | _valid_row | _filler, min_size=1, max_size=10))
    lines = [HEADER] + [
        entry if isinstance(entry, str) else "\t".join([f"m{i}", *entry])
        for i, entry in enumerate(entries)
    ]
    return "\n".join(lines) + "\n"


class TestParseMatchesRowLoop:
    @given(counts_files())
    @example(f"{HEADER}\nrs1\t2\t2\t2\t2\nrs2\t{BIG}\t0\t2\t2\nrs3\t2.5\t1\t2\t2\n")
    @example(f"{HEADER}\r\nrs1\t-{BIG}\t2\t2\t2\r\nrs2\t1\t1\r\n")
    @example(f"{HEADER}\nrs1\t+5\t1_000\t1\t1\nrs1\t3\t3\t2\t2\n")
    # The first offending line wins: a range error before a short line and
    # before a duplicate id, and a count beyond int64 with its line.
    @example(f"{HEADER}\nrs1\t2\t2\t2\t2\nrs2\t-1\t3\t2\t2\n\nrs3\t2\t2\t2\n")
    @example(f"{HEADER}\nrs1\t2\t2\t2\t2\nrs2\t{2**63}\t0\t2\t2\n")
    @example(f"{HEADER}\nrs1\t2\t2\t2\t2\nrs2\t1\t2\t2\t2\nrs1\t2\t2\t2\t2\n")
    @settings(max_examples=200, deadline=None)
    def test_same_rows_or_same_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("counts") / "counts.tsv"
        with open(path, "wt", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert _outcome(parse_counts_file, str(path)) == _outcome(reference_parse, str(path))

    # With blocks of two rows, the canonical reader reads a file of up to ten
    # rows in up to five blocks of lines.
    @given(counts_files())
    @example(f"{HEADER}\nrs1\t2\t2\t2\t2\nrs2\t-1\t3\t2\t2\nrs3\t2\t2\t2\t2\n"
             "rs4\t2\t2\t2\t2\nrs5\t2.5\t1\t2\t2\n")
    @example(f"{HEADER}\nrs1\t2\t2\t2\t2\nrs2\t2\t2\t2\t2\nrs3\t2\t2\t2\t2\n"
             f"rs4\t2\t2\t2\t2\nrs5\t2\t2\t-{BIG}\t2\nrs6\t2\t2\t2\t2\n")
    @example(f"{HEADER}\nrs1\t2\t2\t2\t2\nrs2\t2\t2\t2\t2\nrs3\t2\t2\t2\t2\n"
             f"rs4\t2\t2\t2\t2\nrs5\t2\t2\t2\t2\nrs6\t{BIG}\t0\t2\t2\n")
    # The same orders in the second block.
    @example(f"{HEADER}\nrs1\t2\t2\t2\t2\nrs2\t2\t2\t2\t2\nrs3\t-1\t3\t2\t2\n"
             "# note\nrs4\t2\t2\t2\n")
    @example(f"{HEADER}\nrs1\t2\t2\t2\t2\nrs2\t2\t2\t2\t2\nrs3\t2\t2\t2\t2\n"
             f"rs4\t{2**63}\t0\t2\t2\n")
    @example(f"{HEADER}\nrs1\t2\t2\t2\t2\nrs2\t2\t2\t2\t2\nrs3\t1\t2\t2\t2\n"
             "rs1\t2\t2\t2\t2\n")
    @settings(max_examples=200, deadline=None)
    def test_same_rows_or_same_error_across_blocks(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("counts") / "counts.tsv"
        with open(path, "wt", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "BLOCK_ROWS", 2)
            got = _outcome(parse_counts_file, str(path))
        assert got == _outcome(reference_parse, str(path))


def _random_counts_text(n: int, seed: int) -> str:
    """A valid counts file of ``n`` markers: groups of 50-5000 individuals and
    M1 frequencies uniform on 0.01-0.5."""
    rng = np.random.default_rng(seed)
    n1, n0 = 2 * rng.integers(50, 5000, size=(2, n))
    q = rng.uniform(0.01, 0.5, n)
    r1, s1 = rng.binomial(n1, q), rng.binomial(n0, q)
    rows = np.stack([r1, n1 - r1, s1, n0 - s1], axis=1).tolist()
    return HEADER + "\n" + "".join(f"rs{i}\t{a}\t{b}\t{c}\t{d}\n" for i, (a, b, c, d) in enumerate(rows))


def _tabbed(fields):
    return "\t".join(fields)


def _with_count(fields, text):
    """A row's fields with its first count replaced by ``text``."""
    return _tabbed([fields[0], text, *fields[2:]]) + "\n"


# One change to one marker row of a canonical file, from the row's fields and
# an id that an earlier row holds, to the text that replaces the row.
LINE_PERTURBATIONS = {
    "space separator": lambda f, dup: f"{f[0]} {_tabbed(f[1:])}\n",
    "form feed separator": lambda f, dup: f"{f[0]}\t{f[1]}\x0c{_tabbed(f[2:])}\n",
    "space in id": lambda f, dup: f"{f[0]} x\t{_tabbed(f[1:])}\n",
    "empty id": lambda f, dup: f"\t{_tabbed(f[1:])}\n",
    "empty field": lambda f, dup: f"{f[0]}\t\t{_tabbed(f[1:])}\n",
    "trailing tab": lambda f, dup: _tabbed(f) + "\t\n",
    "crlf": lambda f, dup: _tabbed(f) + "\r\n",
    "lone cr": lambda f, dup: _tabbed(f) + "\r",
    "hash id": lambda f, dup: "#" + _tabbed(f) + "\n",
    "comment line": lambda f, dup: "# note\n" + _tabbed(f) + "\n",
    "blank line": lambda f, dup: "\n" + _tabbed(f) + "\n",
    "leading zeros": lambda f, dup: _with_count(f, "000" + f[1]),
    "plus sign": lambda f, dup: _with_count(f, "+" + f[1]),
    "minus sign": lambda f, dup: _with_count(f, "-" + f[1]),
    "19 digits": lambda f, dup: _with_count(f, f[1].zfill(19)),
    "20 digits": lambda f, dup: _with_count(f, f[1].zfill(20)),
    "2**63": lambda f, dup: _with_count(f, str(2**63)),
    "2**64": lambda f, dup: _with_count(f, str(2**64)),
    "odd total": lambda f, dup: _with_count(f, str(int(f[1]) + 1)),
    "total above 2**53": lambda f, dup: _tabbed([f[0], str(2**53 + 2), "0", *f[3:]]) + "\n",
    "zero total": lambda f, dup: _tabbed([f[0], "0", "0", *f[3:]]) + "\n",
    "duplicate id": lambda f, dup: _tabbed([dup, *f[1:]]) + "\n",
    "non-ascii id": lambda f, dup: _tabbed([f[0] + "é", *f[1:]]) + "\n",
}
# Changes to the whole file, wherever the changed row would be.
FILE_PERTURBATIONS = {
    "byte-order mark": lambda text: "\ufeff" + text,
    "no final lf": lambda text: text[:-1],
    "header only": lambda text: HEADER + "\n",
}


@st.composite
def perturbed_canonical_files(draw, block_rows, kind, where):
    """Text of a canonical counts file of 3-4 blocks of ``block_rows`` marker
    rows, the last one full or partial, with one perturbation ``kind`` on a
    row of its first, a middle or its last block."""
    blocks = draw(st.integers(3, 4))
    rows = (blocks - 1) * block_rows + draw(st.integers(1, block_rows))
    lines = _random_counts_text(rows, draw(st.integers(0, 2**32 - 1))).splitlines(keepends=True)
    if kind in FILE_PERTURBATIONS:
        return FILE_PERTURBATIONS[kind]("".join(lines))
    block = {"first": 0, "middle": draw(st.integers(1, blocks - 2)), "last": blocks - 1}[where]
    at = draw(st.integers(block * block_rows, min(rows, (block + 1) * block_rows) - 1))
    dup = lines[1 if at else 2].split("\t")[0]  # lines[0] is the header
    lines[1 + at] = LINE_PERTURBATIONS[kind](lines[1 + at].rstrip("\n").split("\t"), dup)
    return "".join(lines)


@pytest.fixture
def row_loop_calls(monkeypatch):
    """The paths that ``parse_counts_file`` hands to its row loop."""
    calls = []
    row_loop = cli._parse_rows
    monkeypatch.setattr(cli, "_parse_rows", lambda path: calls.append(path) or row_loop(path))
    return calls


class TestCanonicalFastPath:
    """Canonical files are parsed per block in numpy; any other file, and any
    canonical file that is not valid, gives the row loop's rows or error."""

    @pytest.mark.parametrize("block_rows", [2, cli.BLOCK_ROWS])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("kind", [*LINE_PERTURBATIONS, *FILE_PERTURBATIONS])
    @given(data=st.data())
    @settings(max_examples=3, deadline=None)
    def test_one_perturbation_gives_the_row_loops_outcome(
        self, tmp_path_factory, block_rows, where, kind, data
    ):
        text = data.draw(perturbed_canonical_files(block_rows, kind, where))
        path = tmp_path_factory.mktemp("counts") / "counts.tsv"
        expected = path.with_name("without_bom.tsv")  # reference_parse reads no BOM
        for name, content in ((path, text), (expected, text.removeprefix("\ufeff"))):
            with open(name, "wt", encoding="utf-8", newline="") as fh:
                fh.write(content)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "BLOCK_ROWS", block_rows)
            got = _outcome(parse_counts_file, str(path))
        assert got == _outcome(reference_parse, str(expected))

    @pytest.mark.parametrize("rows", [1, 2, 511, 512, 513, 1500])
    def test_canonical_files_never_reach_the_row_loop(self, tmp_path, row_loop_calls, rows):
        path = tmp_path / "counts.tsv"
        path.write_bytes(_random_counts_text(rows, seed=rows).encode())
        assert _outcome(parse_counts_file, str(path)) == _outcome(reference_parse, str(path))
        assert row_loop_calls == []

    def test_equal_hashes_of_distinct_ids_leave_the_file_to_the_row_loop(
        self, tmp_path, monkeypatch, row_loop_calls
    ):
        path = tmp_path / "counts.tsv"
        path.write_bytes(_random_counts_text(600, seed=4).encode())
        monkeypatch.setattr(cli, "hash", lambda marker_id: 0, raising=False)
        assert _outcome(parse_counts_file, str(path)) == _outcome(reference_parse, str(path))
        assert row_loop_calls == [str(path)]

    def test_a_crlf_copy_reaches_the_row_loop_with_the_same_result(self, tmp_path, row_loop_calls):
        text = _random_counts_text(1500, seed=3)
        canonical, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
        canonical.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        ids, counts = parse_counts_file(str(canonical))
        assert row_loop_calls == []
        crlf_ids, crlf_counts = parse_counts_file(str(crlf))
        assert row_loop_calls == [str(crlf)]
        assert crlf_ids == ids and np.array_equal(crlf_counts, counts)


class TestScanMemory:
    # tracemalloc peak of the parse and the drained scan blocks, above what was
    # traced before, on this file (Python 3.11, numpy 2.4): 443 B/marker with
    # the whole file parsed into Python int lists and one kernel call over it;
    # 229 B/marker with the counts packed as they are read and the kernel run
    # per block, where the row loop's set of the ids made the parse set it;
    # 207 B/marker with this canonical file parsed in numpy, whose parse
    # peaks at 114 B/marker, so that the scan sets it. The ids themselves
    # take ~70 B/marker. The scan's own peak above what the parse holds:
    # 110 B/marker with every block's kernel outputs kept for the rank, and
    # 109 with W alone kept, where one block's formatting sets it.
    MARKERS = 20_000
    BOUND = 300  # bytes per marker
    SCAN_BOUND = 145  # bytes per marker, above what the parse holds

    def test_peak_per_marker(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text(_random_counts_text(self.MARKERS, seed=5))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            ids, counts = parse_counts_file(str(path))
            parsed, parse_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            for _ in cli._scan_blocks(ids, counts, 0.15, 0.95, "toward_zero"):
                pass
            scan_peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        peak = max(parse_peak, scan_peak)
        assert len(ids) == self.MARKERS
        assert (peak - before) / self.MARKERS < self.BOUND
        assert (scan_peak - parsed) / self.MARKERS < self.SCAN_BOUND


class TestPowerMemory:
    # tracemalloc peak of draining the power CSV's blocks, above what was traced
    # before, once a first drain has built the formatter's tables (Python 3.11,
    # numpy 2.4): 481 KB at 6,000 points and 487 KB at 60,000, whose CSV holds
    # 11.1 million characters, in blocks of 512 points; 242 and 245 KB in
    # blocks of 256.
    MODEL = PenetranceModel(p1=0.25, pen11=0.4, pen12=0.25, pen22=0.1)
    BOUND = 1 << 20  # bytes, at any sweep length

    def drain_peak(self, coordinates):
        powers = cli.power_mod.power_grid(
            self.MODEL, DesignConstants(2000, 2000), axis="q1",
            values=np.linspace(0.001, 0.999, coordinates), alpha=1e-8, delta=0.5,
            pi_hat_values=[0.05, 0.1, 0.2])
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        for _ in cli._power_blocks(powers, "q1"):
            pass
        return tracemalloc.get_traced_memory()[1] - before

    def test_peak_does_not_grow_with_the_sweep(self):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            self.drain_peak(10)
            short, long = self.drain_peak(2_000), self.drain_peak(20_000)
        finally:
            if not tracing:
                tracemalloc.stop()
        assert long < self.BOUND
        assert long < 1.25 * short


_OK_ROW = "%s" + "\t%.17g" * 13 + "\tok\t%d\n"


def reference_scan_tsv(ids, counts, pi_hat, ci_level, direction):
    """The ``scan`` TSV as it was written row by row, before the rows became
    columns: each marker's ``evaluate_counts`` report on Python floats, ranked
    by a stable sort on ``-|W|``, every cell formatted by ``%``."""

    def fmt(x):
        return "" if x is None else f"{x:.17g}"

    reports = [
        evaluate_counts(AlleleCounts(*row), pi_hat, ci_level=ci_level, direction=direction)
        for row in counts.tolist()
    ]
    ranked = sorted((i for i, r in enumerate(reports) if not r.flags),
                    key=lambda i: -abs(reports[i].w_stat))
    rank = {i: pos for pos, i in enumerate(ranked, start=1)}
    rows = ["\t".join(SCAN_COLUMNS) + "\n"]
    for i, (marker_id, r) in enumerate(zip(ids, reports)):
        lo, hi = r.effect_ci or (None, None)
        cells = (r.q_hat_ctrl, r.q_hat_case, r.t_stat, r.p_t, r.w_stat, r.p_w, r.w_cor_stat,
                 r.u_stat, r.p_u, r.q_hat, r.effect_ratio, lo, hi)
        if r.flags:  # degenerate: empty cells for what is undefined, no rank
            rows.append("\t".join([marker_id, *map(fmt, cells), ";".join(r.flags), "\n"]))
        else:
            rows.append(_OK_ROW % (marker_id, *cells, rank[i]))
    return "".join(rows)


@pytest.fixture(scope="module")
def varied_counts():
    """Ids and counts of 10,900 markers: ranks past 10,000; monomorphic,
    degenerate and undefined_ratio rows; non-ASCII ids and ids of very
    different lengths within one block."""
    rng = np.random.default_rng(11)
    n = 10_900
    n1, n0 = 2 * rng.integers(50, 3000, size=(2, n))
    q = rng.uniform(0.02, 0.6, n)
    r1, s1 = rng.binomial(n1, q), rng.binomial(n0, q)
    rows = np.stack([r1, n1 - r1, s1, n0 - s1], axis=1)
    rows[3::97] = [0, 40, 0, 60]  # monomorphic
    rows[5::89] = [30, 0, 50, 0]  # monomorphic, the other allele
    rows[7::83] = [0, 100, 9, 91]  # degenerate, undefined_ratio
    rows[11::79] = [9, 91, 0, 100]  # degenerate
    rows[13::73] = [100, 0, 7, 93]  # degenerate
    ids = [f"rs{i}" for i in range(n)]
    ids[1] = "m" * 300
    ids[2:6] = ["marqueur-é", "标记", "\U0001f9ec", "x"]
    ids[1030] = "ü" * 120
    return ids, rows


@pytest.fixture(scope="module")
def rendered():
    """Reference TSVs rendered so far, by marker count and scan settings."""
    return {}


class TestScanRowsMatchRowLoop:
    DEFAULTS = (0.15, 0.95, "toward_zero")
    OTHERS = (0.02, 0.5, "away_from_zero")

    # One-row blocks run on the first 700 markers only, for time.
    @pytest.mark.parametrize("block_rows, markers, key", [
        (1, 700, DEFAULTS), (7, 10_900, DEFAULTS), (1024, 10_900, DEFAULTS),
        (7, 10_900, OTHERS), (1024, 10_900, OTHERS),
        (cli.BLOCK_ROWS, 10_900, DEFAULTS), (cli.BLOCK_ROWS, 10_900, OTHERS),
    ])
    def test_tsv_bytes_equal_reference(self, varied_counts, rendered, block_rows, markers, key,
                                       tmp_path, monkeypatch):
        ids, rows = varied_counts[0][:markers], varied_counts[1][:markers]
        if (markers, key) not in rendered:
            rendered[markers, key] = reference_scan_tsv(ids, rows, *key)
        expected = rendered[markers, key]
        assert "monomorphic" in expected and "undefined_ratio" in expected
        assert "\t10000\n" in expected or markers < 10_000
        monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
        assert self.scan_tsv(ids, rows, key, tmp_path) == expected

    # Equal tables have equal |W|; W = 0 ties too. Degenerate rows sit between
    # the tied ones and, in the second file, are every row, so no marker is
    # ranked and the rank's whole key is NaN.
    TIED = [[10, 90, 20, 80], [0, 40, 0, 60], [10, 90, 20, 80], [5, 95, 5, 95],
            [0, 100, 9, 91], [10, 90, 20, 80], [9, 91, 0, 100], [5, 95, 5, 95]]
    DEGENERATE = [[0, 40, 0, 60], [30, 0, 50, 0], [0, 100, 9, 91], [9, 91, 0, 100],
                  [100, 0, 7, 93]]

    @pytest.mark.parametrize("block_rows", [7, cli.BLOCK_ROWS])
    @pytest.mark.parametrize("pattern, repeats", [(TIED, 75), (DEGENERATE, 120)])
    def test_tied_and_degenerate_rows_equal_reference(self, pattern, repeats, block_rows,
                                                      tmp_path, monkeypatch):
        rows = np.array(pattern * repeats)
        ids = [f"rs{i}" for i in range(len(rows))]
        expected = reference_scan_tsv(ids, rows, *self.DEFAULTS)
        assert ("\t1\n" in expected) == (pattern is self.TIED)
        monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
        assert self.scan_tsv(ids, rows, self.DEFAULTS, tmp_path) == expected

    @staticmethod
    def scan_tsv(ids, rows, key, tmp_path):
        """The text that ``scan`` writes for these markers under ``key``."""
        pi_hat, ci_level, direction = key
        path = tmp_path / "counts.tsv"
        path.write_text(HEADER + "\n" + "".join(
            "\t".join([marker_id, *map(str, row)]) + "\n"
            for marker_id, row in zip(ids, rows.tolist())
        ), encoding="utf-8")
        out = tmp_path / "scan.tsv"
        argv = ["scan", "--counts", str(path), "--pi-hat", repr(pi_hat), "--ci-level",
                repr(ci_level), "--direction", direction, "--out", str(out), "--no-warn-locality"]
        assert main(argv) == 0
        return out.read_text(encoding="utf-8")


class TestScanCommand:
    def test_row_count_and_columns(self, counts_file, capsys):
        code = main(["scan", "--counts", counts_file, "--pi-hat", "0.15"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().split("\n")
        assert lines[0].split("\t") == list(SCAN_COLUMNS)
        assert len(lines) == 1 + 4  # header + one row per marker
        assert "rank markers only locally" in captured.err

    def test_worked_example_row(self, counts_file, capsys):
        main(["scan", "--counts", counts_file, "--pi-hat", "0.15"])
        row = capsys.readouterr().out.strip().split("\n")[1].split("\t")
        record = dict(zip(SCAN_COLUMNS, row))
        assert record["marker_id"] == "rs1"
        assert float(record["t"]) == pytest.approx(-5.203197438693516, rel=1e-12)
        assert float(record["w"]) == pytest.approx(-5.587932511376181, rel=1e-12)
        assert float(record["q_hat"]) == pytest.approx(0.9311489407040255, rel=1e-12)
        assert float(record["u"]) == float(record["w"])  # q_hat < 1
        assert record["flags"] == "ok"
        assert record["w_abs_rank"] == "1"
        # full-precision output: printed text round-trips to the exact double
        from alleletest.stats import AlleleCounts, w_statistic

        assert float(record["w"]) == w_statistic(AlleleCounts(290, 1710, 184, 1816), 0.15)

    def test_monomorphic_and_degenerate_rows(self, counts_file, capsys):
        main(["scan", "--counts", counts_file, "--pi-hat", "0.15"])
        lines = capsys.readouterr().out.strip().split("\n")
        rs3 = dict(zip(SCAN_COLUMNS, lines[3].split("\t")))
        rs4 = dict(zip(SCAN_COLUMNS, lines[4].split("\t")))
        assert rs3["flags"] == "monomorphic"
        assert rs3["t"] == "" and rs3["p_t"] == "" and rs3["w_abs_rank"] == ""
        assert rs4["flags"] == "degenerate;undefined_ratio"
        assert rs4["p_t"] == "1" and rs4["t"] == ""

    def test_idempotent_output(self, counts_file, tmp_path):
        out1 = tmp_path / "a.tsv"
        out2 = tmp_path / "b.tsv"
        assert main(["scan", "--counts", counts_file, "--pi-hat", "0.15", "--out", str(out1)]) == 0
        assert main(["scan", "--counts", counts_file, "--pi-hat", "0.15", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_warn_note_can_be_silenced(self, counts_file, capsys):
        main(["scan", "--counts", counts_file, "--pi-hat", "0.15", "--no-warn-locality"])
        assert "locally" not in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(["scan", "--counts", str(tmp_path / "nope.tsv"), "--pi-hat", "0.15"])
        assert code == 2

    def test_malformed_file_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.tsv"
        path.write_text("marker_id\tcase_m1\tcase_m2\tctrl_m1\tctrl_m2\nrs1\t1\t2\t3\n")
        code = main(["scan", "--counts", str(path), "--pi-hat", "0.15"])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_pi_hat_is_usage_error(self, counts_file, capsys):
        assert main(["scan", "--counts", counts_file]) == 1

    @pytest.mark.parametrize("bad", [["--pi-hat", "1.5"], ["--pi-hat", "0.1", "--ci-level", "2"]])
    def test_invalid_argument_leaves_existing_output_untouched(self, bad, counts_file, tmp_path):
        out = tmp_path / "results.tsv"
        out.write_text("earlier results\n")
        assert main(["scan", "--counts", counts_file, *bad, "--out", str(out)]) == 1
        assert out.read_text() == "earlier results\n"

    def test_invalid_ci_level_fails_before_any_output(self, tmp_path, capsys):
        header = "marker_id\tcase_m1\tcase_m2\tctrl_m1\tctrl_m2\n"
        path = tmp_path / "counts.tsv"
        # a degenerate row ahead of the first row that needs the interval
        path.write_text(header + "rs1\t0\t10\t3\t7\nrs2\t4\t6\t3\t7\n")
        assert main(["scan", "--counts", str(path), "--pi-hat", "0.1", "--ci-level", "1.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ci_level" in captured.err
        # the level is checked even where no table needs an interval
        path.write_text(header + "rs1\t0\t10\t3\t7\nrs2\t0\t10\t0\t10\n")
        assert main(["scan", "--counts", str(path), "--pi-hat", "0.1", "--ci-level", "1.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ci_level" in captured.err


class TestModelCommand:
    def test_reports_population_quantities(self, capsys):
        code = main(["model", "--p1", "0.10", "--pen", "0.60,0.35,0.10",
                     "--q1", "0.10", "--delta", "0.3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["prevalence"] == pytest.approx(0.15, abs=1e-15)
        assert payload["q1_case"] == pytest.approx(0.145, rel=1e-12)
        assert payload["b"] == pytest.approx(-0.588235294117647, rel=1e-12)
        assert payload["delta_bounds"][0] < 0 < payload["delta_bounds"][1]
        assert sum(payload["haplotypes"].values()) == pytest.approx(1.0, abs=1e-12)

    def test_no_ld_gives_unit_ratio(self, capsys):
        main(["model", "--p1", "0.10", "--pen", "0.60,0.35,0.10", "--q1", "0.25"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["q"] == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_exit_code_and_bounds_in_message(self, capsys):
        code = main(["model", "--p1", "0.25", "--pen", "0.60,0.35,0.10",
                     "--q1", "0.05", "--delta", "-0.5"])
        assert code == 3
        err = capsys.readouterr().err
        assert "-0.132" in err  # admissible bound quoted

    def test_degenerate_prevalence_exit_code(self, capsys):
        code = main(["model", "--p1", "0.25", "--pen", "0,0,0", "--q1", "0.05"])
        assert code == 3

    def test_bad_pen_is_usage_error(self, capsys):
        assert main(["model", "--p1", "0.1", "--pen", "0.6,0.35", "--q1", "0.1"]) == 1


class TestPowerCommand:
    def test_explicit_values_csv(self, capsys):
        code = main(["power", "--p1", "0.05", "--pen", "0.60,0.35,0.10",
                     "--delta", "0.3", "--r", "1000", "--s", "1000",
                     "--alpha", "1e-8", "--axis", "q1", "--values", "0.05,0.15"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "axis,test,variant,power,feasible"
        assert len(lines) == 1 + 2 * 4  # two points, four tests each
        first = lines[1].split(",")
        assert first[1] == "T" and first[4] == "1"

    def test_infeasible_points_flagged(self, capsys):
        main(["power", "--p1", "0.05", "--pen", "0.60,0.35,0.10", "--delta", "0.3",
              "--r", "1000", "--s", "1000", "--alpha", "1e-8",
              "--axis", "q1", "--values", "0.5"])
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        assert all(line.endswith(",0") for line in lines)
        assert all(line.split(",")[3] == "" for line in lines)

    def test_default_grid_covers_axis(self, capsys):
        code = main(["power", "--p1", "0.05", "--pen", "0.60,0.35,0.10",
                     "--delta", "0.3", "--r", "1000", "--s", "1000",
                     "--alpha", "1e-8", "--axis", "q1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1 + 99 * 4

    def test_default_delta_grid_spans_the_ld_bounds(self, capsys):
        code = main(["power", "--p1", "0.05", "--pen", "0.60,0.35,0.10",
                     "--q1", "0.1", "--r", "1000", "--s", "1000",
                     "--alpha", "1e-8", "--axis", "delta"])
        assert code == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
        coords = [row[0] for row in rows[::4]]
        assert len(coords) == 41
        assert [row[0] for row in rows] == [c for c in coords for _ in range(4)]
        assert (float(coords[0]), float(coords[-1])) == delta_bounds(0.05, 0.1)

    def test_delta_weight_axis_checks_fixed_marker(self, capsys):
        code = main(["power", "--p1", "0.05", "--pen", "0.60,0.35,0.10",
                     "--q1", "0.5", "--delta", "0.3", "--r", "1000", "--s", "1000",
                     "--alpha", "1e-8", "--axis", "delta_weight"])
        assert code == 3

    def test_pi_hat_variants(self, capsys):
        main(["power", "--p1", "0.05", "--pen", "0.60,0.35,0.10", "--delta", "0.3",
              "--r", "1000", "--s", "1000", "--alpha", "1e-8", "--axis", "q1",
              "--values", "0.1", "--pi-hats", "0.075,0.125,0.2"])
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        w_rows = [line for line in lines if line.split(",")[1] == "W"]
        variants = {row.split(",")[2] for row in w_rows}
        assert len(variants) == 3

    @pytest.mark.parametrize("args, code", [
        (["--axis", "q1", "--delta", "0.3", "--values", "nan"], 1),
        (["--axis", "q1", "--delta", "0.3", "--values", "inf"], 1),
        (["--axis", "q1", "--delta", "0.3", "--values", "0.1,1.5"], 1),
        (["--axis", "delta", "--q1", "nan", "--values", "0.1"], 1),
        (["--axis", "q1", "--delta", "0.3", "--values", "0.1", "--pen", "0,0,0"], 3),
    ])
    def test_invalid_coordinates_are_errors_not_infeasible_rows(self, args, code, capsys):
        base = ["power", "--p1", "0.05", "--pen", "0.60,0.35,0.10", "--r", "1000",
                "--s", "1000", "--alpha", "1e-8"]
        assert main(base + args) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    # p1 = 0.25 leaves delta = 0.9 infeasible at both q1 values: no point is evaluated.
    INFEASIBLE_GRID = ["power", "--p1", "0.25", "--r", "2000", "--s", "1500", "--axis", "q1",
                       "--delta", "0.9", "--values", "0.9,0.95"]

    @pytest.mark.parametrize("args, code", [
        (["--pen", "0.4,0.25,0.1", "--alpha", "5"], 1),
        (["--pen", "0.4,0.25,0.1", "--alpha", "1e-8", "--pi-hats", "1.5"], 1),
        (["--pen", "0.4,0.25,0.1", "--alpha", "1e-8", "--delta-weight", "7"], 1),
        (["--pen", "0,0,0", "--alpha", "1e-8"], 3),
    ])
    def test_invalid_arguments_rejected_on_infeasible_grid(self, args, code, tmp_path, capsys):
        out = tmp_path / "power.csv"
        assert main(self.INFEASIBLE_GRID + args + ["--out", str(out)]) == code
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("n", [MAX_SWEEP_POINTS + 1, 10**15])
    def test_sweep_point_count_is_bounded(self, n, tmp_path, capsys):
        out = tmp_path / "power.csv"
        code = main(["power", "--p1", "0.05", "--pen", "0.60,0.35,0.10", "--delta", "0.3",
                     "--r", "1000", "--s", "1000", "--alpha", "1e-8", "--axis", "q1",
                     "--sweep", f"0.01:0.99:{n}", "--out", str(out)])
        assert code == 1
        assert f"at most {MAX_SWEEP_POINTS} points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid",
        [
            ["--values", ",".join(["0.2"] * 9901)],
            ["--sweep", "0.01:0.99:9901"],
            [],  # the default grid, 99 coordinates
        ],
        ids=["values", "sweep", "default"],
    )
    def test_point_count_bounds_coordinates_times_pi_hats(self, grid, tmp_path, capsys):
        n_coords, n_pi_hats = (9901, 101) if grid else (99, 10102)
        assert n_coords * n_pi_hats in (MAX_SWEEP_POINTS + 1, MAX_SWEEP_POINTS + 98)
        out = tmp_path / "power.csv"
        code = main(["power", "--p1", "0.05", "--pen", "0.60,0.35,0.10", "--delta", "0.3",
                     "--r", "1000", "--s", "1000", "--alpha", "1e-8", "--axis", "q1", *grid,
                     "--pi-hats", ",".join(["0.1"] * n_pi_hats), "--out", str(out)])
        assert code == 1
        assert f"at most {MAX_SWEEP_POINTS} points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, name",
        [
            (["--q1", "0.5", "--delta", "-1", "--axis", "delta_weight"], "delta_weight 0.0"),
            (["--delta", "-1", "--values", "0.5", "--delta-weight", "0"], "delta_weight 0.0"),
            (["--delta", "-1", "--values", "0.5", "--pi-hats", "0.5,0"], "pi_hat 0.0"),
        ],
        ids=["weight-axis", "fixed-weight", "pi-hat"],
    )
    @pytest.mark.filterwarnings("error")
    def test_weight_with_undefined_w_delta_rejected(self, args, name, tmp_path, capsys):
        # q1_ctrl clamps to 1 here, so weight 0 leaves a mixed frequency product of 0
        out = tmp_path / "power.csv"
        code = main(["power", "--p1", "0.5", "--pen", "1,1,0.9669323285435206",
                     "--r", "1064", "--s", "3915", "--alpha", "0.5", *args, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert name in err and "undefined" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--values", "0.1", "--sweep", "0.1:0.2:3"], "--values and --sweep are mutually exclusive"),
            (["--sweep", "0:1"], "--sweep expects lo:hi:n"),
            (["--sweep", "a:b:3"], "--sweep expects numbers lo:hi:n, got 'a:b:3'"),
            (["--sweep", "0:1:0"], "--sweep needs at least one point"),
            (["--values", "0.1", "--pen", "0.6,x,0.1"], "--pen values must be numbers, got '0.6,x,0.1'"),
            (["--values", "0.1,abc"], "--values values must be numbers, got '0.1,abc'"),
        ],
        ids=["values-and-sweep", "sweep-fields", "sweep-numbers", "sweep-points", "pen", "values"],
    )
    def test_malformed_grid_or_number_rejected(self, args, message, tmp_path, capsys):
        out = tmp_path / "power.csv"
        code = main(["power", "--p1", "0.05", "--pen", "0.60,0.35,0.10", "--delta", "0.3",
                     "--r", "1000", "--s", "1000", "--alpha", "1e-8", "--axis", "q1", *args,
                     "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_spec(self, capsys):
        code = main(["power", "--p1", "0.05", "--pen", "0.60,0.35,0.10",
                     "--q1", "0.1", "--r", "1000", "--s", "1000", "--alpha", "1e-8",
                     "--axis", "delta", "--sweep", "0:0.3:4"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1 + 4 * 4


    @pytest.mark.parametrize(
        "args, flag",
        [
            (["--axis", "q1", "--q1", "0.1", "--delta", "0.3"], "--q1"),
            (["--axis", "delta", "--q1", "0.1", "--delta", "0.3"], "--delta"),
            (["--axis", "delta_weight", "--q1", "0.1", "--delta", "0.3", "--delta-weight", "0.5"],
             "--delta-weight"),
        ],
        ids=["q1", "delta", "delta_weight"],
    )
    def test_fixed_value_for_swept_coordinate_rejected(self, args, flag, tmp_path, capsys):
        out = tmp_path / "power.csv"
        code = main(["power", "--p1", "0.05", "--pen", "0.60,0.35,0.10", "--r", "1000",
                     "--s", "1000", "--alpha", "1e-8", *args, "--out", str(out)])
        assert code == 1
        assert f"{flag} cannot be fixed when it is the sweep axis" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "pi_hats, message",
        [
            (["--pi-hats", "0.1,0.1"], "pi_hat_values repeats 0.1"),
            (["--pi-hats", "0.2,0,-0"], "pi_hat_values repeats -0.0"),
            (["--pi-hats="], "pi_hat_values is empty"),
            (["--pi-hats", ""], "pi_hat_values is empty"),
        ],
        ids=["repeat", "signed-zero", "empty", "empty-separate"],
    )
    def test_repeated_or_empty_pi_hats_rejected(self, pi_hats, message, tmp_path, capsys):
        out = tmp_path / "power.csv"
        code = main(["power", "--p1", "0.05", "--pen", "0.60,0.35,0.10", "--delta", "0.3",
                     "--r", "1000", "--s", "1000", "--alpha", "1e-8", "--values", "0.1,0.2",
                     *pi_hats, "--out", str(out)])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


def reference_power_csv(points, axis):
    """The ``power`` CSV as it was written point by point, before the sweep
    became columnar: four rows per ``reference_grid`` point, every cell
    formatted in place."""

    def fmt(x):
        return "" if x is None else f"{x:.17g}"

    rows = ["axis,test,variant,power,feasible\n"]
    for pt in points:
        coord = f"{getattr(pt, axis):.17g}"
        feasible = "1" if pt.feasible else "0"
        rows.append(
            f"{coord},T,,{fmt(pt.power_t)},{feasible}\n"
            f"{coord},W,{pt.pi_hat:.17g},{fmt(pt.power_w)},{feasible}\n"
            f"{coord},W_delta,{pt.delta_weight:.17g},{fmt(pt.power_w_delta)},{feasible}\n"
            f"{coord},U,,{fmt(pt.power_u)},{feasible}\n"
        )
    return "".join(rows)


class TestPowerWriterMatchesPointLoop:
    MODEL = PenetranceModel(p1=0.25, pen11=0.4, pen12=0.25, pen22=0.1)
    DESIGN = DesignConstants(2000, 1500)
    BASE = ["power", "--p1", "0.25", "--pen", "0.4,0.25,0.1", "--r", "2000", "--s", "1500",
            "--alpha", "1e-8"]
    # At p1 = 0.25 the LD correlation 0.5 is feasible for q1 in about
    # [0.077, 0.571], and at q1 = 0.1 the correlation in about [-0.19, 0.58].
    # With two pi-hats and 4-point blocks, each block holds two coordinates,
    # so the first two cases switch between infeasible and feasible
    # coordinates across a block boundary (between the second and third
    # coordinate) and inside a block (between the fifth and sixth).
    CASES = {
        "q1": ({"axis": "q1", "delta": 0.5, "pi_hat_values": [0.05, 0.2]},
               [0.05, 0.07, 0.1, 0.3, 0.55, 0.6, 0.9]),
        "delta": ({"axis": "delta", "q1": 0.1, "pi_hat_values": [0.3, 0.1]},
                  [-0.5, -0.25, -0.1, 0.2, 0.5, 0.7, 0.9]),
        "delta_weight": ({"axis": "delta_weight", "q1": 0.2, "delta": 0.3,
                          "pi_hat_values": [0.07, 0.5, 0.9]},
                         [0.0, 0.25, 0.3, 0.7, 1.0]),
        "q1-true-prevalence": ({"axis": "q1", "delta": 0.3, "delta_weight": 0.3,
                                "pi_hat_values": None},
                               [0.01, 0.2, 0.5, 0.7, 0.99]),
    }

    # Cases for the writer's edges, each with its alpha.
    EDGE_CASES = {
        # Two pi-hats: in 4-point blocks the first two blocks hold infeasible
        # coordinates only, and so does every block of one coordinate.
        "all-infeasible-blocks": ({"axis": "q1", "delta": 0.5, "pi_hat_values": [0.05, 0.2]},
                                  [0.01, 0.02, 0.03, 0.04, 0.3, 0.9, 0.95], 1e-8),
        # Three pi-hats: 170 coordinates a block at the default size, so the
        # last block of 200 coordinates is partial and holds coordinates of
        # both kinds; 1 coordinate a block at 4 points.
        "three-pi-hats": ({"axis": "q1", "delta": 0.5, "pi_hat_values": [0.05, 0.1, 0.2]},
                          np.linspace(0.005, 0.65, 200).tolist(), 1e-8),
        # No LD: every power is the level, 1e-300, below the 1e-280 where
        # format_17g leaves a value to Python's %; q1 = 1e-5 prints in
        # scientific layout.
        "tiny-powers": ({"axis": "q1", "delta": 0.0, "pi_hat_values": [0.1, 0.9]},
                        [1e-5, 0.3, 0.5], 1e-300),
        # -0.0 and 0.0 on the delta axis, powers of 1e-8, and of exactly 1.0
        # under strong LD.
        "signed-zero-and-one": ({"axis": "delta", "q1": 0.3, "pi_hat_values": [0.1, 0.2]},
                                [-0.5, -0.0, 0.0, 0.5, 0.8, 0.85], 1e-8),
    }

    def run_csv(self, kwargs, values, alpha, out):
        """The CSV that ``power`` writes to ``out`` for a case."""
        argv = list(self.BASE[:-1]) + [repr(alpha)]
        for name in ("axis", "q1", "delta", "delta_weight"):
            if kwargs.get(name) is not None:
                argv += ["--" + name.replace("_", "-"), str(kwargs[name])]
        argv += ["--values", ",".join(map(repr, values))]
        if kwargs["pi_hat_values"] is not None:
            argv += ["--pi-hats", ",".join(map(repr, kwargs["pi_hat_values"]))]
        return main(argv + ["--out", out])

    @pytest.mark.parametrize("block_points", [1, 4, cli.BLOCK_ROWS])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_csv_bytes_equal_reference(self, case, to_file, block_points, tmp_path, capsys,
                                       monkeypatch):
        monkeypatch.setattr(cli, "BLOCK_ROWS", block_points)
        kwargs, values = self.CASES[case]
        points = reference_grid(self.MODEL, self.DESIGN, values=values, alpha=1e-8, **kwargs)
        if case in ("q1", "delta"):
            assert [p.feasible for p in points[::2]] == [False, False, True, True, True,
                                                         False, False]
        out = tmp_path / "power.csv"
        assert self.run_csv(kwargs, values, 1e-8, str(out) if to_file else "-") == 0
        text = out.read_text(encoding="utf-8") if to_file else capsys.readouterr().out
        assert text == reference_power_csv(points, kwargs["axis"])

    @pytest.mark.parametrize("block_points", [1, 4, cli.BLOCK_ROWS])
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_csv_bytes_equal_reference(self, case, block_points, capsys, monkeypatch):
        monkeypatch.setattr(cli, "BLOCK_ROWS", block_points)
        kwargs, values, alpha = self.EDGE_CASES[case]
        points = reference_grid(self.MODEL, self.DESIGN, values=values, alpha=alpha, **kwargs)
        powers = [p.power_w for p in points if p.feasible]
        if case == "all-infeasible-blocks":
            assert [p.feasible for p in points[:8]] == [False] * 8
        elif case == "three-pi-hats":
            assert {p.feasible for p in points[510:]} == {False, True}
        elif case == "tiny-powers":
            assert powers and all(0.0 < p < 1e-280 for p in powers)
        else:
            assert math.copysign(1.0, points[2].delta) == -1.0
            assert 1.0 in powers and min(powers) < 1e-4  # scientific layout
        assert self.run_csv(kwargs, values, alpha, "-") == 0
        assert capsys.readouterr().out == reference_power_csv(points, kwargs["axis"])


class TestSimulateCommand:
    BASE = ["simulate", "--p1", "0.10", "--pen", "0.60,0.35,0.10", "--q1", "0.10",
            "--r", "500", "--s", "500", "--pi-hat", "0.15", "--reps", "20000",
            "--seed", "7", "--alphas", "1e-2,1e-3"]

    def test_json_deterministic_modulo_wall_time(self, capsys):
        assert main(self.BASE) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(self.BASE) == 0
        second = json.loads(capsys.readouterr().out)
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        assert first == second

    def test_outputs_written(self, tmp_path, capsys):
        out_json = tmp_path / "r.json"
        out_tsv = tmp_path / "r.tsv"
        code = main(self.BASE + ["--out-json", str(out_json), "--out-tsv", str(out_tsv)])
        assert code == 0
        payload = json.loads(out_json.read_text())
        assert payload["replications"] == 20000
        header = out_tsv.read_text().split("\n")[0]
        assert header == "test\talpha\tfraction\tse\treplications"

    @pytest.mark.parametrize("tsv_name", ["r.out", "sub/../r.out", "link.out"])
    def test_same_file_for_both_outputs_rejected(self, tsv_name, tmp_path, capsys):
        (tmp_path / "sub").mkdir()
        os.symlink(tmp_path / "r.out", tmp_path / "link.out")
        code = main(self.BASE + ["--out-json", str(tmp_path / "r.out"),
                                 "--out-tsv", str(tmp_path / tsv_name)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--out-json and --out-tsv name the same file" in captured.err
        assert not (tmp_path / "r.out").exists()

    @pytest.mark.parametrize("to_file", [False, True])
    def test_unopenable_output_leaves_no_result(self, to_file, tmp_path, capsys):
        # Every output opens before any is written, so the JSON result goes nowhere.
        out_json = tmp_path / "r.json"
        extra = ["--out-json", str(out_json)] if to_file else []
        code = main(self.BASE + extra + ["--out-tsv", str(tmp_path / "missing" / "r.tsv")])
        assert code == 2
        assert capsys.readouterr().out == ""
        assert not to_file or out_json.read_text() == ""

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, workers, tmp_path, capsys):
        out_json = tmp_path / "r.json"
        assert main([*self.BASE, "--workers", workers, "--out-json", str(out_json)]) == 1
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not out_json.exists()

    def test_delta_weights_expand_tests(self, capsys):
        assert main(self.BASE + ["--deltas", "0.3,0.4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        tests = {(c["test"], c["delta_weight"]) for c in payload["cells"]}
        assert ("W_delta", 0.3) in tests and ("W_cor_delta", 0.4) in tests

    def test_zero_reps_rejected(self, capsys):
        code = main([*self.BASE[:-5], "--reps", "0", "--alphas", "1e-3"])
        assert code == 1

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_seed_outside_64_bits_rejected(self, seed, capsys):
        assert main([*self.BASE, "--seed", seed]) == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "r,s",
        [
            ("4611686018427387904", "500"),  # 2R overflows int64
            ("9007199254740993", "500"),  # 2R exceeds the exact float64 range
            ("2147483648", "2147483648"),  # (2R+1)*(2S+1) overflows int64
        ],
    )
    def test_design_too_large_rejected(self, r, s, capsys):
        assert main([*self.BASE, "--r", r, "--s", s]) == 1
        assert f"R={r}, S={s}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--tests", "T,W,T"],
            ["--alphas", "1e-2,1e-2"],
            ["--deltas", "0.4,0.4"],
            ["--deltas", "0.1,0.1000000001"],  # both would print as W_delta[0.1]
        ],
    )
    def test_repeated_entries_rejected(self, extra, capsys):
        assert main([*self.BASE, *extra]) == 1
        assert "repeats" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--tests", "T,W_delta"],  # the W_delta cells would be dropped
            ["--tests", "W_cor_delta"],
            ["--tests", "T,W", "--deltas", "0.4"],  # no cell would read the weight
        ],
    )
    def test_unpaired_delta_tests_and_weights_rejected(self, extra, capsys):
        assert main([*self.BASE, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "come together" in captured.err

    def test_type1_with_ld_rejected(self, capsys):
        code = main(self.BASE + ["--delta", "0.3"])
        assert code == 1
        assert "delta=0" in capsys.readouterr().err

    def test_power_mode_with_ld(self, capsys):
        code = main(self.BASE + ["--delta", "0.3", "--power"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "power"
        w_cell = [c for c in payload["cells"] if c["test"] == "W" and c["alpha"] == 1e-3]
        assert w_cell[0]["fraction"] > 0.5  # strong LD at this design


class TestSimulateRequestRules:
    """Through ``main``: a request runs exactly when its delta-weighted tests and
    ``--deltas`` come together, and then reports every cell it asked for."""

    BASE = ["simulate", "--p1", "0.10", "--pen", "0.60,0.35,0.10", "--q1", "0.10",
            "--r", "20", "--s", "20", "--pi-hat", "0.15", "--reps", "200", "--seed", "3",
            "--alphas", "1e-2,1e-3"]
    ALPHAS = (1e-2, 1e-3)

    @given(
        tests=st.lists(st.sampled_from(sim_mod.ALL_TESTS), unique=True, min_size=1),
        deltas=st.none() | st.lists(st.sampled_from([0.0, 0.25, 0.4, 1.0]), unique=True,
                                    min_size=1, max_size=3),
        mode=st.sampled_from(sim_mod.MODES),
    )
    @example(tests=["T", "W_delta"], deltas=None, mode="allele")
    @example(tests=["T", "W"], deltas=[0.4], mode="genotype")
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_code_and_cells(self, tests, deltas, mode, capsys):
        argv = [*self.BASE, "--mode", mode, "--tests", ",".join(tests)]
        if deltas is not None:
            argv += ["--deltas", ",".join(map(repr, deltas))]
        paired = any(t in sim_mod.DELTA_TESTS for t in tests) == (deltas is not None)
        code = main(argv)
        out = capsys.readouterr().out
        assert code == (0 if paired else 1)
        if not paired:
            assert out == ""
            return
        want = [
            (test, dw, alpha)
            for test in tests
            for dw in (deltas if test in sim_mod.DELTA_TESTS else [None])
            for alpha in self.ALPHAS
        ]
        cells = json.loads(out)["cells"]
        assert [(c["test"], c["delta_weight"], c["alpha"]) for c in cells] == want


class TestSimulateFuzz:
    """Through ``main``, any simulate request exits 0, 1 or 3, prints nothing
    unless it succeeds, and reports each fraction as its own count over reps."""

    EDGES = [0.0, 1.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e-300, 1e-12,
             0.5, 1.0 - 1e-16]
    VALUE = st.sampled_from(EDGES) | st.floats(0.0, 1.0)

    @given(
        q1=VALUE,
        pi_hat=VALUE,
        alphas=st.lists(VALUE, min_size=1, max_size=2),
        deltas=st.lists(VALUE, max_size=2),
        r=st.just(1) | st.integers(1, 1000),
        s=st.just(10**9) | st.integers(1, 10**9),
        mode=st.sampled_from(sim_mod.MODES),
        reps=st.integers(1, 200),
    )
    @example(q1=1e-12, pi_hat=0.1, alphas=[1.0, 1e-3], deltas=[0.0, 1.0], r=1, s=10**9,
             mode="allele", reps=200)
    @example(q1=0.5, pi_hat=0.1, alphas=[0.5], deltas=[], r=1, s=10**9, mode="genotype", reps=200)
    @example(q1=5e-324, pi_hat=0.5, alphas=[1.0], deltas=[], r=1, s=10**9, mode="allele", reps=1)
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_code_and_fractions(self, q1, pi_hat, alphas, deltas, r, s, mode, reps, capsys):
        argv = ["simulate", "--p1", "0.10", "--pen", "0.60,0.35,0.10", "--q1", repr(q1),
                "--r", str(r), "--s", str(s), "--pi-hat", repr(pi_hat), "--reps", str(reps),
                "--seed", "5", "--mode", mode, "--workers", "1",
                "--alphas", ",".join(map(repr, alphas)), "--deltas", ",".join(map(repr, deltas))]
        code = main(argv)
        out = capsys.readouterr().out
        assert code in (0, 1, 3)
        if code != 0:
            assert out == ""
            return
        cells = json.loads(out)["cells"]
        assert cells
        for cell in cells:
            assert cell["fraction"] == cell["rejections"] / reps
            assert 0.0 <= cell["fraction"] <= 1.0


# Boundary and non-finite values for the probability-like flags of scan and power.
EDGES = [0.0, 1.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e-300, 1e-12, 0.5,
         1.0 - 1e-16, -1.0, 2.0]
OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


class TestScanFuzz:
    """Through ``main``, a scan of any small counts file exits 0, 1 or 3, prints
    nothing unless it succeeds, and then prints one row per marker."""

    LEVEL = OPEN_UNIT | OPEN_UNIT | st.sampled_from(EDGES)

    @given(
        text=counts_files() | valid_counts_files(),
        pi_hat=LEVEL,
        ci_level=LEVEL,
        direction=st.sampled_from(["toward_zero", "away_from_zero"]),
    )
    @example(text=f"{HEADER}\nrs1\t2\t2\t2\t2\n", pi_hat=0.0, ci_level=0.95,
             direction="toward_zero")
    @example(text=f"{HEADER}\nrs1\t2\t2\t2\t2\n", pi_hat=0.1, ci_level=float("nan"),
             direction="toward_zero")
    @example(text=f"{HEADER}\nrs1\t0\t4\t0\t4\n", pi_hat=0.1, ci_level=1.0,
             direction="away_from_zero")
    @example(text=f"{HEADER}\nrs1\t{BIG}\t2\t2\t2\n", pi_hat=float("inf"), ci_level=0.0,
             direction="toward_zero")
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_code_and_rows(self, tmp_path_factory, text, pi_hat, ci_level, direction, capsys):
        path = tmp_path_factory.mktemp("counts") / "counts.tsv"
        with open(path, "wt", encoding="utf-8", newline="") as fh:
            fh.write(text)
        code = main(["scan", "--counts", str(path), "--pi-hat", repr(pi_hat),
                     "--ci-level", repr(ci_level), "--direction", direction, "--no-warn-locality"])
        out = capsys.readouterr().out
        event(f"exit {code}")
        assert code in (0, 1, 3)
        if code != 0:
            assert out == ""
            return
        ids, _ = parse_counts_file(str(path))
        lines = out.splitlines()
        assert lines[0] == "\t".join(SCAN_COLUMNS)
        assert [line.split("\t")[0] for line in lines[1:]] == ids


class TestPowerFuzz:
    """Through ``main``, any power request exits 0, 1 or 3, prints nothing unless
    it succeeds, and then prints four rows per (coordinate, pi-hat) point, each
    power empty or in [0, 1]."""

    VALUE = OPEN_UNIT | OPEN_UNIT | st.sampled_from(EDGES)
    COORDINATES = ("q1", "delta", "delta_weight")

    @given(
        axis=st.sampled_from(COORDINATES),
        # A coordinate whose flag is passed or left out against the rules, or None.
        misplaced=st.sampled_from([None, None, None, *COORDINATES]),
        q1=VALUE,
        delta=VALUE | st.floats(-1.5, 1.5),
        delta_weight=VALUE,
        values=st.lists(VALUE, min_size=1, max_size=3),
        pi_hats=st.none() | st.lists(VALUE, min_size=1, max_size=3),
        alpha=VALUE,
    )
    @example(axis="q1", misplaced=None, q1=0.1, delta=0.3, delta_weight=1.0, values=[0.1, 1.0],
             pi_hats=[0.0, 1.0], alpha=1.0)
    @example(axis="delta", misplaced=None, q1=0.1, delta=0.0, delta_weight=0.0, values=[0.0],
             pi_hats=None, alpha=float("nan"))
    @example(axis="delta_weight", misplaced=None, q1=0.5, delta=0.0, delta_weight=0.0,
             values=[0.0, 1.0], pi_hats=[float("inf")], alpha=1e-8)
    @example(axis="q1", misplaced="delta_weight", q1=0.1, delta=5e-324, delta_weight=0.0,
             values=[1e-300], pi_hats=[0.5], alpha=1.0 - 1e-16)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_code_and_rows(self, axis, misplaced, q1, delta, delta_weight, values, pi_hats,
                                alpha, capsys):
        argv = ["power", "--p1", "0.10", "--pen", "0.60,0.35,0.10", "--r", "500", "--s", "400",
                "--alpha", repr(alpha), "--axis", axis, "--values", ",".join(map(repr, values))]
        passed = (set(self.COORDINATES) - {axis}) ^ ({misplaced} - {None})
        fixed = {"q1": q1, "delta": delta, "delta_weight": delta_weight}
        for name in sorted(passed):
            argv += ["--" + name.replace("_", "-"), repr(fixed[name])]
        if pi_hats is not None:
            argv += ["--pi-hats", ",".join(map(repr, pi_hats))]
        code = main(argv)
        out = capsys.readouterr().out
        event(f"exit {code}")
        assert code in (0, 1, 3)
        if code != 0:
            assert out == ""
            return
        lines = out.splitlines()
        assert lines[0] == "axis,test,variant,power,feasible"
        assert len(lines) == 1 + 4 * len(values) * len(pi_hats or [None])
        for line in lines[1:]:
            power = line.split(",")[3]
            assert power == "" or 0.0 <= float(power) <= 1.0


POWER_ARGS = ["power", "--p1", "0.05", "--pen", "0.60,0.35,0.10", "--delta", "0.3",
              "--r", "1000", "--s", "1000", "--alpha", "1e-8", "--values", "0.05,0.15"]
SIMULATE_ARGS = ["simulate", "--p1", "0.10", "--pen", "0.60,0.35,0.10", "--q1", "0.10",
                 "--r", "500", "--s", "500", "--pi-hat", "0.15", "--reps", "2000"]


class TestDashIsStdout:
    """Every output option takes ``-`` for stdout, which no command closes."""

    @pytest.mark.parametrize("argv, head", [
        (["scan", "--counts", "COUNTS", "--pi-hat", "0.15", "--out", "-"], "marker_id\t"),
        ([*POWER_ARGS, "--out", "-"], "axis,test,"),
        ([*SIMULATE_ARGS, "--out-json", "-"], "{"),
        ([*SIMULATE_ARGS, "--out-json", "r.json", "--out-tsv", "-"], "test\talpha\t"),
    ], ids=["scan", "power", "simulate-json", "simulate-tsv"])
    def test_dash_writes_stdout_and_no_file(self, argv, head, counts_file, tmp_path,
                                            monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([counts_file if arg == "COUNTS" else arg for arg in argv]) == 0
        assert capsys.readouterr().out.startswith(head)
        assert not (tmp_path / "-").exists()
        if "r.json" in argv:
            assert json.loads((tmp_path / "r.json").read_text())["replications"] == 2000

    @pytest.mark.parametrize("outputs", [["--out-tsv", "-"], ["--out-json", "-", "--out-tsv", "-"]],
                             ids=["default-json", "dash-json"])
    def test_both_simulate_outputs_on_stdout_rejected(self, outputs, tmp_path, monkeypatch,
                                                      capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sim_mod, "estimate_type1", lambda *a, **k: pytest.fail("ran"))
        assert main([*SIMULATE_ARGS, *outputs]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--out-json and --out-tsv name the same file" in captured.err
        assert not (tmp_path / "-").exists()

    @pytest.mark.parametrize("argv", [
        ["scan", "--counts", "COUNTS", "--pi-hat", "0.15"],
        POWER_ARGS,
    ], ids=["scan", "power"])
    def test_output_in_missing_directory_is_io_error(self, argv, counts_file, tmp_path, capsys):
        out = tmp_path / "missing" / "out.txt"
        assert main([counts_file if arg == "COUNTS" else arg for arg in argv]
                    + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_stdout_stays_open(self, counts_file, monkeypatch):
        stdout = io.StringIO()
        monkeypatch.setattr(sys, "stdout", stdout)
        for argv, head in [
            (["scan", "--counts", counts_file, "--pi-hat", "0.15", "--no-warn-locality"],
             "marker_id\t"),
            (POWER_ARGS, "axis,test,"),
            (SIMULATE_ARGS, '"kind": '),
        ]:
            stdout.seek(0)
            stdout.truncate()
            assert main(argv) == 0
            assert main(argv) == 0
            assert not stdout.closed
            assert stdout.getvalue().count(head) == 2


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "p1": 0.10, "pen": "0.60,0.35,0.10", "q1": 0.10, "delta": 0.3,
            "r": 1, "s": 1,
        }))
        code = main(["model", "--config", str(cfg)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["q1_case"] == pytest.approx(0.145, rel=1e-12)

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p1": 0.10, "pen": "0.60,0.35,0.10", "q1": 0.10}))
        code = main(["model", "--config", str(cfg), "--q1", "0.25"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["q1"] == 0.25

    SIMULATE = {"p1": 0.10, "pen": "0.60,0.35,0.10", "q1": 0.10, "r": 50, "s": 50,
                "pi_hat": 0.15, "reps": 2000, "seed": 1}

    @pytest.mark.parametrize("key,value", [("seed", 1.9), ("r", 50.9), ("s", True)])
    def test_value_is_read_as_its_flag_text(self, key, value, tmp_path, capsys):
        # click would truncate 1.9 to seed 1 and read true as S = 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.SIMULATE, key: value}))
        assert main(["simulate", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"--{key}" in captured.err
        flags = [text for k, v in {**self.SIMULATE, key: value}.items()
                 for text in (f"--{k.replace('_', '-')}", str(v))]
        assert main(["simulate", *flags]) == 1

    def test_bool_float_and_choice_values_apply(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.SIMULATE, "delta": 0.3, "type1": False,
                                   "alphas": 0.01, "workers": 2, "mode": "genotype"}))
        assert main(["simulate", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["kind"], payload["mode"], payload["seed"]) == ("power", "genotype", 1)
        assert [c["alpha"] for c in payload["cells"]] == [0.01] * 4

    def test_every_key_is_a_long_option(self, tmp_path, counts_file, capsys):
        # scan's --counts is the key "counts", as the --config help promises
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"counts": counts_file, "pi_hat": 0.1}))
        assert main(["scan", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split("\t") == list(SCAN_COLUMNS)
        assert [line.split("\t")[0] for line in lines[1:]] == ["rs1", "rs2", "rs3", "rs4"]

    @pytest.mark.parametrize(
        "entry,message",
        [({"ci_levl": 0.9}, "'ci_levl' names no option"), ({"ci_level": [0.9]}, "--ci-level")],
    )
    def test_unknown_key_or_non_scalar_rejected(self, entry, message, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pi_hat": 0.1, **entry}))
        code = main(["scan", "--config", str(cfg), "--counts", str(tmp_path / "m.tsv")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


    def test_config_must_hold_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"pi_hat": 0.1}]))
        out = tmp_path / "power.csv"
        code = main(["power", "--config", str(cfg), "--p1", "0.05", "--pen", "0.60,0.35,0.10",
                     "--delta", "0.3", "--values", "0.1", "--out", str(out)])
        assert code == 1
        assert "config file must hold a JSON object" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["model", "--p1", "0.1", "--pen", "0.6,0.35,0.1", "--q1", "0.1"]) == 0

    def test_usage(self, capsys):
        assert main(["model", "--p1", "0.1"]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    # R/N rounds to 1 and 2R*S/N overflows float64 at 10**400; at 2**52 + 1,
    # 2R is beyond the integers float64 holds exactly.
    @pytest.mark.parametrize("r", [str(10**400), str(2**52 + 1)], ids=["10**400", "2**52+1"])
    @pytest.mark.parametrize("argv", [
        ["power", "--p1", "0.1", "--pen", "0.6,0.35,0.1", "--delta", "0.3", "--s", "500",
         "--alpha", "1e-8"],
        ["model", "--p1", "0.1", "--pen", "0.6,0.35,0.1", "--q1", "0.1"],
    ], ids=["power", "model"])
    def test_design_too_large_is_validation_error(self, argv, r, capsys):
        assert main([*argv, "--r", r]) == 1
        assert capsys.readouterr().err.startswith("error: design R=")

    def test_interrupt_is_aborted(self, counts_file, monkeypatch, capsys):
        def interrupt(path):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "parse_counts_file", interrupt)
        assert main(["scan", "--counts", counts_file, "--pi-hat", "0.1"]) == 1
        assert "aborted" in capsys.readouterr().err

    def test_click_exception_exits_with_its_own_code(self, counts_file, monkeypatch, capsys):
        class Refused(click.ClickException):
            exit_code = 4

        def refuse(path):
            raise Refused("counts refused")

        monkeypatch.setattr(cli, "parse_counts_file", refuse)
        assert main(["scan", "--counts", counts_file, "--pi-hat", "0.1"]) == 4
        assert capsys.readouterr().err == "Error: counts refused\n"
