import csv
import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kfpca.cli
import kfpca.model
from kfpca import FitConfig, SimulationScenario, fit, generate, load_model, serialize_model
from kfpca.cli import _read_dataset, main, read_dataset
from kfpca.errors import ParseError


def write_dataset(path, sample, with_id=False):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = [repr(float(t)) for t in sample.grid.points]
        if with_id:
            writer.writerow(["id"] + header)
            for i, row in enumerate(sample.values):
                writer.writerow([f"subj{i}"] + [repr(float(v)) for v in row])
        else:
            writer.writerow(header)
            for row in sample.values:
                writer.writerow([repr(float(v)) for v in row])


@pytest.fixture()
def activity_like_csv(tmp_path):
    """Synthetic stand-in with the motivating data's shape: 63 right-skewed
    subjects on 36 points."""
    scenario = SimulationScenario(
        distribution="skew_t", n_subjects=63, n_points=36, seed=99
    )
    sample = generate(scenario, 0).sample
    path = tmp_path / "activity.csv"
    write_dataset(path, sample)
    return path


class TestReadDataset:
    def test_round_trip(self, tmp_path, activity_like_csv):
        sample = read_dataset(activity_like_csv)
        assert sample.values.shape == (63, 36)

    def test_id_column_supported(self, tmp_path):
        scenario = SimulationScenario(n_subjects=5, n_points=9, seed=1)
        sample = generate(scenario, 0).sample
        path = tmp_path / "with_id.csv"
        write_dataset(path, sample, with_id=True)
        parsed = read_dataset(path)
        assert np.allclose(parsed.values, sample.values)
        assert np.allclose(parsed.grid.points, sample.grid.points)

    def test_a_file_without_ids_is_read_into_one_matrix(self, tmp_path):
        # numpy's array is kept, not copied: with an id column the sample
        # copies the slice, and the read peaked at about 2.2x the matrix
        scenario = SimulationScenario(n_subjects=2000, n_points=51, seed=3)
        path = tmp_path / "data.csv"
        write_dataset(path, generate(scenario, 0).sample)
        tracemalloc.start()
        try:
            sample = read_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * sample.values.nbytes

    def test_an_id_column_is_squeezed_out_in_place(self, tmp_path):
        # 4000 rows span several 256-row blocks; the sample copied the slice
        # past the id column, and the read peaked at about 2.14x the matrix
        sample = generate(SimulationScenario(n_subjects=4000, n_points=101, seed=4), 0).sample
        path = tmp_path / "data.csv"
        write_dataset(path, sample, with_id=True)
        tracemalloc.start()
        try:
            parsed = read_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.35 * parsed.values.nbytes
        assert np.array_equal(parsed.values, sample.values)

    @pytest.mark.parametrize("with_id", [False, True])
    def test_the_row_by_row_reader_fills_one_buffer(self, tmp_path, with_id):
        # a list of row arrays beside their stack, copied into the sample,
        # peaked at about 2.41x the matrix
        sample = generate(SimulationScenario(n_subjects=2000, n_points=51, seed=3), 0).sample
        path = tmp_path / "data.csv"
        write_dataset(path, sample, with_id=with_id)
        tracemalloc.start()
        try:
            parsed = _read_dataset(path, fast=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * parsed.values.nbytes
        assert np.array_equal(parsed.values, sample.values)

    def test_empty_file_names_the_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError) as err:
            read_dataset(path)
        assert "empty.csv" in str(err.value)

    def test_bad_cell_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,2,3,4\n1,2,3,4,5\n1,2,oops,4,5\n6,7,8,9,0\n")
        with pytest.raises(ParseError) as err:
            read_dataset(path)
        assert "line 3" in str(err.value)
        assert "column 3" in str(err.value)

    @pytest.mark.parametrize(
        "text,line,column",
        [
            ("id,0,1,2\na,1,2,3\nb,x,5,6\n", 3, 2),
            ("id,0,1,2\na,1,2,3\nb,4,5,6\nc,7,8,nan?\n", 4, 4),
            ("0,1,2\n1,2,3\n4,5,\n", 3, 3),
            # a quoted cell spans two lines, so the bad cell is on line 4
            ('0,1\n"1\n",2\nx,3\n', 4, 1),
        ],
        ids=["first-data-column-after-id", "last-column", "empty-last-cell",
             "after-quoted-newline"],
    )
    def test_bad_cell_is_named_by_line_and_column(self, tmp_path, text, line, column):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"line {line}, column {column}:"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "text", ["0,1\n1,2\n3\n", '0,1\n"1\n",2\n3\n'], ids=["plain", "after-quoted-newline"]
    )
    def test_row_of_wrong_width_is_named_by_its_line(self, tmp_path, text):
        path = tmp_path / "short.csv"
        path.write_text(text)
        line = text.count("\n")
        with pytest.raises(ParseError, match=f"line {line}: expected 2 cells, got 1"):
            read_dataset(path)

    def test_cells_parse_as_python_floats(self, tmp_path):
        path = tmp_path / "spellings.csv"
        path.write_text("id,0,1,2\na, 1.5 ,1e3,1_0\nb,-0.25,+2,.5E-1\n")
        assert read_dataset(path).values.tolist() == [[1.5, 1000.0, 10.0], [-0.25, 2.0, 0.05]]

    @pytest.mark.parametrize(
        "first_cell, first_value", [("1", 1.0), ("1_0", 10.0)], ids=["c-reader", "row-reader"]
    )
    @pytest.mark.parametrize("lead", ["id,", ""], ids=["before-id", "before-grid-time"])
    def test_utf8_bom_is_skipped(self, tmp_path, lead, first_cell, first_value):
        # Excel's "CSV UTF-8" starts the file with a byte order mark
        id_cell = "s," if lead else ""
        text = f"{lead}0,1,2\n{id_cell}{first_cell},2,3\n{id_cell}4,5,6\n"
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        sample = read_dataset(path)
        assert sample.grid.points.tolist() == [0.0, 1.0, 2.0]
        assert sample.values.tolist() == [[first_value, 2.0, 3.0], [4.0, 5.0, 6.0]]

    def test_minimum_shape_enforced(self, tmp_path, capsys):
        # fit needs 4 grid points and 3 curves; read_dataset leaves that to it
        path = tmp_path / "narrow.csv"
        path.write_text("0,1,2\n1,2,3\n4,5,6\n7,8,9\n")
        assert main(["fit", str(path), "--out", str(tmp_path / "m.json")]) == 2
        assert "at least 4 grid points" in capsys.readouterr().err
        path2 = tmp_path / "short.csv"
        path2.write_text("0,1,2,3\n1,2,3,4\n5,6,7,8\n")
        assert main(["fit", str(path2), "--out", str(tmp_path / "m.json")]) == 2
        assert "at least 3 curves" in capsys.readouterr().err


# Cells both readers take, with spellings only Python's float takes
# (underscores, non-ASCII digits), then cells and separators the two may
# treat differently: quotes, NUL, bare CR, whitespace, empty cells, "#",
# nan/inf and a stray BOM.
NUMBERS = st.sampled_from([
    "0.5", "2", "-1e-3", "+.5E-1", " 1 ", "\t4\t", "1\u2003", "\xa07", "1_0", "\u0661",
    "\u0662.5", "-0", "1e-320", "123456789012345678901234567890", '"3"', '"1\n"', '"1\r"',
    '"1"2', '"-4"  ',
])
CELLS = NUMBERS | st.sampled_from([
    "nan", "-inf", "Infinity", "1e500", "", " ", '"', '""', '1"2', '"1,2"', '"1""2"', "#",
    "1#2", "\x00", "1\x00", "\ufeff1", "0x10", "1 2", "id", "s1",
])
CELL_TEXT = st.text(alphabet='0123456789.e-+ ,"\x00\r\n\t_#\u0661naif', max_size=4)
ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def dataset_texts(draw):
    """CSV texts near the dataset format: a grid header, optionally led by an
    id column, over rows of drawn cells that mostly have the header's
    width, with blank, whitespace-only and stray lines between them."""
    d = draw(st.integers(2, 4))
    has_id = draw(st.booleans())
    clean = draw(st.booleans())  # rows of numbers at the header's width only
    header = [str(t) for t in range(d)]
    if draw(st.booleans()):
        header[draw(st.integers(0, d - 1))] = draw(CELLS | CELL_TEXT)
    lines = [",".join((["id"] if has_id else []) + header)]
    for _ in range(draw(st.integers(0, 5))):
        kinds = ["row"] * 5 + ["blank"] + ([] if clean else ["space", "free"])
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "  ", "\t", "\x00"])))
        elif kind == "free":
            lines.append(draw(CELL_TEXT))
        else:
            width = d + has_id + (0 if clean else draw(st.sampled_from([0, 0, 0, -1, 1])))
            cells = [
                draw(st.sampled_from(["a", "s0", '"x,y"', ""]))
                if has_id and i == 0
                else draw(NUMBERS if clean else CELLS | CELL_TEXT)
                for i in range(width)
            ]
            lines.append(",".join(cells))
    ends = [draw(ENDS) for _ in lines]
    if not draw(st.booleans()):
        ends[-1] = ""
    text = "".join(line + end for line, end in zip(lines, ends))
    return ("\ufeff" if draw(st.booleans()) else "") + text


def read_outcome(read, path):
    """Array bytes and shapes of a read, or the class and message it raised."""
    try:
        sample = read(path)
    except Exception as exc:  # noqa: BLE001 -- the class is part of the outcome
        return type(exc), str(exc)
    return sample.grid.points.tobytes(), sample.values.tobytes(), sample.values.shape


class TestReaderAgreement:
    """The C-reader path of read_dataset against the row-by-row reader it
    falls back to."""

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=dataset_texts())
    def test_same_array_or_same_error(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        row_by_row = read_outcome(lambda p: _read_dataset(p, fast=False), path)
        assert read_outcome(read_dataset, path) == row_by_row

    def test_fast_path_reads_the_benchmark_shape_bit_identically(self, tmp_path):
        scenario = SimulationScenario(distribution="skew_t", n_subjects=40, n_points=31, seed=5)
        sample = generate(scenario, 0).sample
        path = tmp_path / "data.csv"
        write_dataset(path, sample, with_id=True)
        fast = _read_dataset(path, fast=True)
        assert fast is not None
        assert fast.values.tobytes() == sample.values.tobytes()
        assert fast.grid.points.tobytes() == sample.grid.points.tobytes()

    @pytest.mark.parametrize(
        "text",
        ["id,0,1\na,1,2,\nb,3,4,\n", "0,1\n1,2\n  \n3,4\n", "0,1\n1_0,2\n3,4\n",
         "0,1\n", "0,1\n1,\n3,4\n"],
        ids=["trailing-cell", "whitespace-line", "underscore", "no-rows", "empty-cell"],
    )
    def test_c_reader_refuses_what_the_row_reader_must_judge(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        assert _read_dataset(path, fast=True) is None


class TestCmdFit:
    def test_fit_activity_like(self, tmp_path, activity_like_csv, capsys):
        out = tmp_path / "model.json"
        code = main(["fit", str(activity_like_csv), "--out", str(out)])
        assert code == 0
        model = load_model(out)
        assert model.method == "kfpca"
        assert model.fraction_variance_explained() >= 0.95
        printed = capsys.readouterr().out
        assert "components:" in printed
        assert "fve:" in printed

    def test_empty_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code = main(["fit", str(path), "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "empty.csv" in capsys.readouterr().err

    def test_oversized_ncomp_exits_2(self, tmp_path, activity_like_csv):
        code = main(
            ["fit", str(activity_like_csv), "--ncomp", "100", "--out", str(tmp_path / "m.json")]
        )
        assert code == 2

    def test_raw_curves_are_freed_once_smoothed(self, tmp_path, activity_like_csv, monkeypatch):
        read = kfpca.cli.read_dataset
        kendall = kfpca.model.kendall_tau_hat
        raw = []

        def reading(path):
            sample = read(path)
            raw.extend((weakref.ref(sample), weakref.ref(sample.values)))
            return sample

        def estimating(sample, *args):
            assert all(ref() is None for ref in raw)
            return kendall(sample, *args)

        monkeypatch.setattr(kfpca.cli, "read_dataset", reading)
        monkeypatch.setattr(kfpca.model, "kendall_tau_hat", estimating)
        argv = ["fit", str(activity_like_csv), "--presmooth", "--out", str(tmp_path / "m.json")]
        assert main(argv) == 0
        assert len(raw) == 2

    def test_options_are_checked_before_the_file_is_read(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        code = main(["fit", str(missing), "--ncomp", "many", "--out", str(tmp_path / "m.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "--ncomp" in err and "missing.csv" not in err

    @pytest.mark.parametrize(
        "option, field",
        [("--presmooth-bandwidth", "presmooth"), ("--eigen-bandwidth", "eigen_smooth")],
    )
    def test_a_bandwidth_turns_its_smoother_on(self, tmp_path, activity_like_csv, option, field):
        # the bandwidth used to be dropped unless its flag was given too
        out = tmp_path / "model.json"
        assert main(["fit", str(activity_like_csv), "--ncomp", "2", option, "0.5",
                     "--out", str(out)]) == 0
        sample = read_dataset(activity_like_csv)
        config = FitConfig(n_components=2, **{field: 0.5})
        smoothed = fit(sample, config)
        back = load_model(out)
        assert back.config == config
        assert serialize_model(back) == serialize_model(smoothed)
        assert not np.array_equal(smoothed.scores, fit(sample, FitConfig(n_components=2)).scores)

    def test_cov_method_and_int_ncomp(self, tmp_path, activity_like_csv):
        out = tmp_path / "model.json"
        code = main(
            ["fit", str(activity_like_csv), "--method", "cov", "--ncomp", "3", "--out", str(out)]
        )
        assert code == 0
        assert load_model(out).n_components == 3


class TestCmdSimulate:
    def simulate(self, tmp_path, name, *extra):
        out = tmp_path / name
        args = [
            "simulate", "--case", "1", "--dist", "gaussian", "--n", "40",
            "--grid", "21", "--runs", "5", "--seed", "3", "--out", str(out),
        ]
        code = main(args + list(extra))
        return code, out

    def test_writes_results_table(self, tmp_path):
        code, out = self.simulate(tmp_path, "res.csv")
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8  # 2 methods x 4 metrics
        assert {r["method"] for r in rows} == {"kfpca", "cov"}
        assert {r["metric"] for r in rows} == {"imse1", "imse2", "mse1", "mse2"}
        for r in rows:
            assert float(r["mean"]) >= 0
            assert r["runs"] == "5"

    def test_deterministic_output_bytes(self, tmp_path):
        _, out1 = self.simulate(tmp_path, "a.csv")
        _, out2 = self.simulate(tmp_path, "b.csv")
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_count_does_not_change_output(self, tmp_path, monkeypatch):
        _, serial = self.simulate(tmp_path, "serial.csv")
        monkeypatch.setenv("KFPCA_THREADS", "2")
        _, parallel = self.simulate(tmp_path, "parallel.csv")
        assert serial.read_bytes() == parallel.read_bytes()

    def test_unknown_distribution_lists_names(self, tmp_path, capsys):
        code = main(
            ["simulate", "--dist", "cauchy", "--out", str(tmp_path / "r.csv")]
        )
        assert code == 2
        message = capsys.readouterr().err
        for name in ("gaussian", "mix_gaussian", "ec2", "skew_t"):
            assert name in message

    def test_hyphenated_distribution_accepted(self, tmp_path):
        out = tmp_path / "res.csv"
        code = main(
            [
                "simulate", "--dist", "skew-t", "--n", "30", "--grid", "21",
                "--runs", "3", "--out", str(out),
            ]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["distribution"] == "skew_t"

    def test_single_method_restriction(self, tmp_path):
        code, out = self.simulate(tmp_path, "kf.csv", "--methods", "kfpca")
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {r["method"] for r in rows} == {"kfpca"}

    def test_defaults_reproduce_gaussian_table_row(self, tmp_path):
        # flag defaults carry the full default design: N=100, d=51,
        # sigma2=0.25, 100 runs (expected IMSE1 near 0.035)
        out = tmp_path / "table.csv"
        code = main(["simulate", "--case", "1", "--dist", "gaussian", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = {
                (r["method"], r["metric"]): r for r in csv.DictReader(fh)
            }
        row = rows[("kfpca", "imse1")]
        assert row["runs"] == "100"
        assert 0.015 <= float(row["mean"]) <= 0.060


class TestCmdMeanBand:
    def test_constant_dataset_zero_width(self, tmp_path):
        path = tmp_path / "const.csv"
        points = np.linspace(0, 1, 6)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([str(t) for t in points])
            for _ in range(5):
                writer.writerow(["2.5"] * 6)
        out = tmp_path / "band.csv"
        code = main(["mean-band", str(path), "--reps", "200", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            assert float(r["lower"]) == float(r["mean"]) == float(r["upper"]) == 2.5

    def test_band_contains_mean(self, tmp_path, activity_like_csv):
        out = tmp_path / "band.csv"
        code = main(
            ["mean-band", str(activity_like_csv), "--reps", "300", "--out", str(out)]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 36
        for r in rows:
            assert float(r["lower"]) <= float(r["mean"]) <= float(r["upper"])

    def test_too_few_reps_exits_2(self, tmp_path, activity_like_csv):
        code = main(
            ["mean-band", str(activity_like_csv), "--reps", "50", "--out", str(tmp_path / "b.csv")]
        )
        assert code == 2

    def test_bad_level_exits_2(self, tmp_path, activity_like_csv):
        code = main(
            ["mean-band", str(activity_like_csv), "--level", "1.5", "--out", str(tmp_path / "b.csv")]
        )
        assert code == 2

    def test_deterministic(self, tmp_path, activity_like_csv):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(
                ["mean-band", str(activity_like_csv), "--reps", "150", "--seed", "4", "--out", str(out)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCmdRate:
    def test_single_size_exits_2(self, tmp_path):
        code = main(["rate", "--sizes", "100", "--out", str(tmp_path / "r.csv")])
        assert code == 2

    def test_small_rate_run(self, tmp_path):
        out = tmp_path / "rate.csv"
        code = main(
            ["rate", "--sizes", "10,20,40", "--reps", "2", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["n"] for r in rows] == ["10", "20", "40"]
        slopes = {r["fitted_slope"] for r in rows}
        assert len(slopes) == 1

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(
                ["rate", "--sizes", "10,20,40", "--reps", "2", "--seed", "5", "--out", str(out)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_sizes_slope_in_expected_band(self, tmp_path):
        out = tmp_path / "rate.csv"
        code = main(["rate", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        slope = float(rows[0]["fitted_slope"])
        assert -0.75 <= slope <= -0.30


class TestMainPlumbing:
    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["fit", "{data}", "--out", "{missing}/m.json"], 2, "No such file"),
            (
                ["simulate", "--n", "20", "--grid", "11", "--runs", "1",
                 "--out", "{missing}/r.csv"],
                2,
                "No such file",
            ),
            (["mean-band", "{data}", "--reps", "100", "--out", "{missing}/b.csv"], 2,
             "No such file"),
            (["rate", "--sizes", "10,20,40", "--reps", "1", "--out", "{missing}/r.csv"], 2,
             "No such file"),
            (["fit", "{latin1}", "--out", "{out}"], 2, "UTF-8"),
            (["fit", "{data}", "--presmooth", "--presmooth-bandwidth", "-1", "--out", "{out}"],
             2, "presmooth must be positive"),
            # without --presmooth a negative bandwidth used to be accepted
            (["fit", "{data}", "--presmooth-bandwidth", "-1", "--out", "{out}"], 2,
             "presmooth must be positive"),
            (["fit", "{data}", "--eigen-bandwidth", "bogus", "--out", "{out}"], 2,
             "eigen_smooth must be positive or 'auto', got 'bogus'"),
            # an infinite bandwidth used to be saved as Infinity, not JSON
            (["fit", "{data}", "--presmooth-bandwidth", "inf", "--out", "{out}"], 2,
             "presmooth must be positive or 'auto', got inf"),
            (["fit", "{data}", "--eigen-bandwidth", "Infinity", "--out", "{out}"], 2,
             "eigen_smooth must be positive or 'auto', got inf"),
            (["fit", "{identical}", "--method", "kfpca", "--out", "{out}"], 3,
             "all curve pairs are degenerate"),
            (["KFPCA_THREADS=junk", "simulate", "--n", "20", "--grid", "11", "--runs", "1",
              "--out", "{out}"], 2, "KFPCA_THREADS"),
            (["simulate", "--methods", "bogus", "--out", "{out}"], 2, "'bogus'"),
            (["simulate", "--methods", ",", "--out", "{out}"], 2, "at least one method"),
            (["fit", "{data}", "--method", "pca", "--out", "{out}"], 2, "'pca'"),
            (["simulate", "--case", "3", "--out", "{out}"], 2, "case must be one of"),
        ],
        ids=[
            "fit-missing-dir", "simulate-missing-dir", "mean-band-missing-dir",
            "rate-missing-dir", "non-utf8-csv", "negative-bandwidth",
            "unused-negative-bandwidth", "unknown-bandwidth", "infinite-bandwidth",
            "infinite-eigen-bandwidth", "identical-curves",
            "simulate-bad-threads", "simulate-unknown-method", "simulate-no-method",
            "fit-unknown-method", "simulate-unknown-case",
        ],
    )
    def test_error_is_one_line_and_its_class_sets_the_exit_code(
        self, tmp_path, activity_like_csv, capsys, monkeypatch, argv, code, message
    ):
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(b"0,1,2,3\n1,2,3,4\n5,6,7,\xe9\n9,8,7,6\n")
        identical = tmp_path / "identical.csv"
        identical.write_text("0,1,2,3,4,5\n" + "2.5,2.5,2.5,2.5,2.5,2.5\n" * 5)
        paths = {
            "data": activity_like_csv,
            "latin1": latin1,
            "identical": identical,
            "missing": tmp_path / "missing",
            "out": tmp_path / "out",
        }
        args = [arg.format(**paths) for arg in argv]
        while "=" in args[0]:  # leading NAME=value words set the environment
            monkeypatch.setenv(*args.pop(0).split("=", 1))
        assert main(args) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert "Traceback" not in err

    def test_no_command_exits_2(self):
        assert main([]) == 2

    def test_unknown_flag_exits_2(self):
        assert main(["simulate", "--bogus", "1", "--out", "x.csv"]) == 2

    def test_model_json_is_valid_json(self, tmp_path, activity_like_csv):
        out = tmp_path / "model.json"
        main(["fit", str(activity_like_csv), "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == "3"
        assert len(doc["grid"]["points"]) == 36
