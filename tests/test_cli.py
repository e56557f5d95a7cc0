"""CLI tests: parsing, subcommand outputs, exit codes, config files."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alleletest.cli import (
    COUNTS_HEADER,
    MAX_SWEEP_POINTS,
    SCAN_COLUMNS,
    CountsFileError,
    main,
    parse_counts_file,
)
from alleletest.stats import AlleleCounts

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


class TestParseMatchesRowLoop:
    @given(counts_files())
    @example(f"{HEADER}\nrs1\t2\t2\t2\t2\nrs2\t{BIG}\t0\t2\t2\nrs3\t2.5\t1\t2\t2\n")
    @example(f"{HEADER}\r\nrs1\t-{BIG}\t2\t2\t2\r\nrs2\t1\t1\r\n")
    @example(f"{HEADER}\nrs1\t+5\t1_000\t1\t1\nrs1\t3\t3\t2\t2\n")
    @settings(max_examples=200, deadline=None)
    def test_same_rows_or_same_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("counts") / "counts.tsv"
        with open(path, "wt", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert _outcome(parse_counts_file, str(path)) == _outcome(reference_parse, str(path))


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
        # no table needs an interval, so the level is never read
        path.write_text(header + "rs1\t0\t10\t3\t7\nrs2\t0\t10\t0\t10\n")
        assert main(["scan", "--counts", str(path), "--pi-hat", "0.1", "--ci-level", "1.5"]) == 0


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

    def test_sweep_spec(self, capsys):
        code = main(["power", "--p1", "0.05", "--pen", "0.60,0.35,0.10",
                     "--q1", "0.1", "--r", "1000", "--s", "1000", "--alpha", "1e-8",
                     "--axis", "delta", "--sweep", "0:0.3:4"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1 + 4 * 4


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
        "extra", [["--tests", "T,W,T"], ["--alphas", "1e-2,1e-2"], ["--deltas", "0.4,0.4"]]
    )
    def test_repeated_entries_rejected(self, extra, capsys):
        assert main([*self.BASE, *extra]) == 1
        assert "repeats" in capsys.readouterr().err

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
