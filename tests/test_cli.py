import importlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import reldelcech
from _faults import inject_fault
from reldelcech.cech_oracle import relative_cech
from reldelcech.cli import check_pair, generate_cloud, main, read_points, read_subset, render_svg, split_pair
from reldelcech.filtered_complex import loads
from reldelcech.geometry import InputError
from reldelcech.persistence import Barcode


@pytest.fixture
def square(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("0.0,0.0\n2.0,0.0\n0.0,2.0\n2.0,2.0\n")
    return f


@pytest.fixture
def subset0(tmp_path):
    f = tmp_path / "a.txt"
    f.write_text("0\n")
    return f


class TestReaders:
    def test_read_points_with_header(self, tmp_path):
        f = tmp_path / "h.csv"
        f.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
        cloud = read_points(str(f))
        assert len(cloud) == 2 and cloud.dimension == 2

    def test_read_points_whitespace(self, tmp_path):
        f = tmp_path / "w.csv"
        f.write_text("1.0 2.0\n3.0 4.0\n")
        assert len(read_points(str(f))) == 2

    def test_read_points_bad_line_number(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1.0,2.0\noops,4.0\n")
        with pytest.raises(InputError, match="bad.csv:2"):
            read_points(str(f))

    def test_read_points_ragged(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(InputError, match=":2"):
            read_points(str(f))

    def test_read_subset_range_check(self, tmp_path):
        f = tmp_path / "a.txt"
        f.write_text("0\n9\n")
        with pytest.raises(InputError, match="out of range"):
            read_subset(str(f), 4)

    @pytest.mark.parametrize("index", [-1, 3])
    def test_split_pair_range_check(self, index):
        # -1 would put the last point in X1, and n raised IndexError.
        x = reldelcech.PointCloud([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        with pytest.raises(InputError, match="subset index out of range"):
            split_pair(x, {0, index})
        x1, x2 = split_pair(x, {0, 2})
        assert x1.coords.tolist() == [[0.0, 0.0], [0.0, 1.0]] and x2.coords.tolist() == [[1.0, 0.0]]

    @pytest.mark.parametrize("index", [1.5, "1"])
    def test_non_integer_index_is_rejected(self, index):
        # int() truncated 1.5 and parsed "1": point 1 went to X1.
        x = reldelcech.PointCloud([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        for run in (split_pair, check_pair, lambda x, a: relative_cech(x, a, 2)):
            with pytest.raises(InputError, match="subset index must be an integer"):
                run(x, {0, index})
        x1, _ = split_pair(x, {np.int64(0), 2})
        assert x1.coords.tolist() == [[0.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("mask", [[True, False, True], np.array([True, False, True])])
    def test_boolean_mask_is_rejected(self, mask):
        # A mask is no list of indices: operator.index took [True, False,
        # True] as [1, 0, 1], and points 0 and 1 went to X1.
        x = reldelcech.PointCloud([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        for run in (split_pair, check_pair, lambda x, a: relative_cech(x, a, 2)):
            with pytest.raises(InputError, match="subset index must be an integer"):
                run(x, mask)

    def test_missing_file(self):
        with pytest.raises(InputError):
            read_points("/nonexistent/pts.csv")


class TestCompute:
    def test_absolute_json(self, square, capsys):
        assert main(["compute", str(square)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["field"] == "GF(2)"
        assert out["relative"] is False
        dims = {d["dim"]: d["bars"] for d in out["dims"]}
        assert [0.0, None] in dims[0]
        assert len(dims[0]) == 4  # three merges + one infinite bar
        assert len(dims[1]) == 1  # the square's cycle

    def test_relative_json(self, square, subset0, capsys):
        assert main(["compute", str(square), "--subset-indices", str(subset0)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["relative"] is True
        dims = {d["dim"]: d["bars"] for d in out["dims"]}
        assert all(b[1] is not None for b in dims[0])  # quotient kills infinity

    def test_out_file(self, square, tmp_path, capsys):
        dst = tmp_path / "bars.json"
        assert main(["compute", str(square), "--out", str(dst)]) == 0
        assert capsys.readouterr().out == ""
        json.loads(dst.read_text())

    @pytest.mark.parametrize("flag", ["--out", "--svg", "--dump-complex"])
    def test_unwritable_output_exit_2(self, flag, square, tmp_path, capsys):
        dst = tmp_path / "missing" / "out"
        assert main(["compute", str(square), flag, str(dst)]) == 2
        assert f"error: {dst}: " in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--svg", "--dump-complex"])
    def test_unwritable_side_file_prints_nothing(self, flag, square, tmp_path, capsys):
        # The side files are written before the barcode: a failed one
        # leaves standard output empty, not holding a complete barcode.
        dst = tmp_path / "missing" / "out"
        assert main(["compute", str(square), flag, str(dst)]) == 2
        assert capsys.readouterr().out == ""

    def test_dump_complex_round_trip(self, square, subset0, tmp_path, capsys):
        dump = tmp_path / "complex.txt"
        rc = main(
            [
                "compute",
                str(square),
                "--subset-indices",
                str(subset0),
                "--dump-complex",
                str(dump),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        fc = loads(dump.read_text())
        assert any(c.in_subcomplex for c in fc.cells)
        assert len(fc.tables[0].simplices) == 4
        # re-ingestion rebuilds the identical filtered complex
        from reldelcech.cli import read_points, read_subset, split_pair
        from reldelcech.relative_lift import build_pipeline

        x = read_points(str(square))
        x1, x2 = split_pair(x, read_subset(str(subset0), len(x)))
        direct = build_pipeline(x1, x2).complex
        assert list(fc.cells) == list(direct.cells)

    def test_svg(self, square, tmp_path, capsys):
        svg = tmp_path / "diagram.svg"
        assert main(["compute", str(square), "--svg", str(svg)]) == 0
        capsys.readouterr()
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "circle" in text

    def test_duplicate_points_exit_2(self, tmp_path, capsys):
        f = tmp_path / "dup.csv"
        f.write_text("1.0,1.0\n1.0,1.0\n")
        assert main(["compute", str(f)]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_dimension_cap_exit_2(self, tmp_path, capsys):
        f = tmp_path / "d4.csv"
        f.write_text("1.0,1.0,1.0,1.0\n0.0,0.0,0.0,0.0\n")
        assert main(["compute", str(f)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("s", [1e154, 1e160, 1e200])
    def test_squares_beyond_float_range_exit_2(self, s, tmp_path, capsys):
        # Finite input whose paraboloid lift |x|^2 overflows a float.
        f = tmp_path / "huge.csv"
        pts = [(0.0, 0.0), (s, 0.0), (0.0, s), (s, 1.3 * s), (0.4 * s, 0.5 * s)]
        f.write_text("".join(f"{x!r},{y!r}\n" for x, y in pts))
        a = tmp_path / "a.txt"
        a.write_text("0\n4\n")
        assert main(["compute", str(f), "--subset-indices", str(a)]) == 2
        assert "exceed the float range" in capsys.readouterr().err

    def test_flat_squares_beyond_float_range_exit_2(self, tmp_path, capsys):
        # A flat cloud is triangulated in its pivot columns with the ambient
        # lift |x|^2, so it has the full-rank range: here the differences
        # are small but |x|^2 ~ 5e320 overflows.
        f = tmp_path / "far-line.csv"
        f.write_text("".join(f"{1e160 + k * 1e146!r},{2e160 + 2 * k * 1e146!r}\n" for k in range(6)))
        a = tmp_path / "a.txt"
        a.write_text("0\n3\n")
        assert main(["compute", str(f), "--subset-indices", str(a)]) == 2
        assert "exceed the float range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, subset, error",
        [
            ("x,y\n0.0,0.0\n2.0,0.0\n0.0,2.0\n2.0,2.0\n", None, None),  # a header line
            ("0.0,0.0\nnan,1.0\n", None, "pts.csv:2: non-finite coordinate"),
            ("\n   \n\n", None, "pts.csv: no points found"),
            ("0.0,0.0\n1.0,0.0\n", "0\nfoo\n", "a.txt:2: bad index 'foo'"),
        ],
    )
    def test_read_errors_exit_2(self, text, subset, error, square, tmp_path, capsys):
        f = tmp_path / "pts.csv"
        f.write_text(text)
        args = ["compute", str(f)]
        if subset is not None:
            (tmp_path / "a.txt").write_text(subset)
            args += ["--subset-indices", str(tmp_path / "a.txt")]
        if error is None:  # the header is skipped: the square's barcode
            assert main(args) == 0 and main(["compute", str(square)]) == 0
            first, second = capsys.readouterr().out.split("\n}\n", 1)
            assert json.loads(first + "}") == json.loads(second)
        else:
            assert main(args) == 2
            assert error in capsys.readouterr().err

    def test_s_factor_rejected(self, square, subset0, capsys):
        # The lift height is derived from the input; there is no knob for it.
        for command in ("compute", "check"):
            with pytest.raises(SystemExit) as exc:
                main([command, str(square), "--subset-indices", str(subset0), "--s-factor", "4"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --s-factor" in capsys.readouterr().err


class TestCheck:
    def test_match_exit_0(self, square, subset0, capsys):
        assert main(["check", str(square), "--subset-indices", str(subset0)]) == 0
        assert "match" in capsys.readouterr().out

    def test_absolute_match(self, square, capsys):
        assert main(["check", str(square)]) == 0
        capsys.readouterr()

    def test_injected_fault_exit_3(self, square, subset0, capsys, monkeypatch):
        inject_fault(monkeypatch)
        rc = main(["check", str(square), "--subset-indices", str(subset0)])
        assert rc == 3
        assert "differ" in capsys.readouterr().out

    def test_json_report(self, square, capsys):
        assert main(["check", str(square), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["matched"] is True
        assert report["pipeline"]["field"] == "GF(2)"

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tol_exit_2(self, tol, square, capsys):
        assert main(["check", str(square), "--tol", tol]) == 2
        assert "--tol" in capsys.readouterr().err

    def test_cap_exceeded_exit_2(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        f = tmp_path / "big.csv"
        f.write_text("\n".join(f"{x},{y}" for x, y in rng.random((20, 2))) + "\n")
        assert main(["check", str(f)]) == 2
        assert "cap" in capsys.readouterr().err


class TestBench:
    def test_csv_output_and_exponent(self, capsys):
        rc = main(["bench", "--sizes", "12,20", "--dim", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "n_total,d,cells_total,cells_subcomplex,wall_ms_pipeline,wall_ms_reduction"
        assert len(lines) == 4  # header + 2 rows + exponent comment
        assert lines[-1].startswith("# fitted growth exponent")
        n1 = [int(x) for x in lines[1].split(",")[:4]]
        n2 = [int(x) for x in lines[2].split(",")[:4]]
        assert n1[0] == 12 and n2[0] == 20
        assert n2[2] >= n1[2]  # monotone cell counts

    @pytest.mark.filterwarnings("error")
    def test_repeated_size_fits_no_exponent(self, capsys):
        # Two rows of one size determine no growth line: no fit, no warning.
        assert main(["bench", "--sizes", "30,30", "--dim", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert lines[1].split(",")[:4] == lines[2].split(",")[:4]
        assert not any(line.startswith("#") for line in lines)

    def test_single_point(self, capsys):
        rc = main(["bench", "--sizes", "1", "--dim", "2", "--subset-fraction", "0"])
        assert rc == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert row.split(",")[2] == "1"  # one cell

    def test_reproducible_with_seed(self, capsys, monkeypatch):
        monkeypatch.setattr(importlib.import_module("reldelcech.delaunay"), "_HULL_SEED", 777)
        main(["bench", "--sizes", "15", "--generator", "annulus"])
        first = capsys.readouterr().out
        main(["bench", "--sizes", "15", "--generator", "annulus"])
        second = capsys.readouterr().out
        assert first.splitlines()[1].split(",")[:4] == second.splitlines()[1].split(",")[:4]

    def test_data_ignores_hull_seed(self, capsys, monkeypatch):
        # The hull seed orders hull insertion only; the generated data is fixed.
        argv = ["bench", "--sizes", "12,20,30", "--generator", "annulus"]
        main(argv)
        plain = capsys.readouterr().out
        monkeypatch.setattr(importlib.import_module("reldelcech.delaunay"), "_HULL_SEED", 777)
        main(argv)
        seeded = capsys.readouterr().out
        # Columns after the fourth are wall times.
        assert [r.split(",")[:4] for r in plain.splitlines()] == [
            r.split(",")[:4] for r in seeded.splitlines()
        ]

    @pytest.mark.parametrize("fraction", ["1.5", "-0.5", "nan"])
    def test_bad_subset_fraction_exit_2(self, fraction, capsys):
        assert main(["bench", "--sizes", "10", "--subset-fraction", fraction]) == 2
        assert "--subset-fraction" in capsys.readouterr().err

    def test_sphere_generator(self, capsys):
        rc = main(["bench", "--sizes", "10", "--dim", "3", "--generator", "sphere"])
        assert rc == 0
        capsys.readouterr()

    @pytest.mark.parametrize("n, d", [(2, 1), (7, 2), (10, 3)])
    def test_sphere_points_have_unit_norm(self, n, d):
        # On the 0-sphere most draws repeat a point, so the cloud is topped
        # up; the extra points must come from the sphere as well.
        for seed in range(8):
            x = generate_cloud("sphere", n, d, np.random.default_rng(seed))
            assert len(x) == n
            assert all(math.isclose(math.hypot(*p.coords), 1.0, rel_tol=1e-12) for p in x)

    def test_zero_sphere_with_more_than_two_points_exit_2(self, capsys):
        assert main(["bench", "--generator", "sphere", "--dim", "1", "--sizes", "5"]) == 2
        assert "sphere" in capsys.readouterr().err

    def test_annulus_requires_d2(self, capsys):
        assert main(["bench", "--sizes", "10", "--dim", "3", "--generator", "annulus"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "args, error",
        [
            (["--sizes", ","], "no sizes given"),
            (["--sizes", "5", "--dim", "0"], "--dim must be at least 1"),
            (["--sizes", "10,abc"], "--sizes: bad size 'abc'"),
        ],
    )
    def test_bad_arguments_exit_2(self, args, error, capsys):
        assert main(["bench", *args]) == 2
        assert error in capsys.readouterr().err

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        dst = tmp_path / "missing" / "bench.csv"
        assert main(["bench", "--sizes", "5", "--out", str(dst)]) == 2
        assert f"error: {dst}: " in capsys.readouterr().err

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_bad_dim_exit_2(self, dim):
        # In a subprocess with a timeout: a generator that never fills an
        # (n, 0) array must fail the test, not hang the suite.
        proc = run_cli("bench", "--sizes", "5", "--dim", dim, timeout=60)
        assert proc.returncode == 2
        assert "--dim" in proc.stderr


class TestRenderSvg:
    def test_contains_markers_and_rail(self):
        b = Barcode({0: [(0.0, 1.0), (0.0, math.inf)], 1: [(0.5, 0.8)]}, 1)
        svg = render_svg(b)
        assert svg.count("<circle") == 3
        assert "inf" in svg

    def test_empty_barcode(self):
        svg = render_svg(Barcode({}, 1))
        assert svg.startswith("<svg")


def run_cli(*args, timeout=None):
    """`python -m reldelcech.cli`, importing the package these tests import;
    raises subprocess.TimeoutExpired after `timeout` seconds."""
    src = os.path.dirname(os.path.dirname(reldelcech.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "reldelcech.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )


class TestConsoleEntry:
    def test_subprocess_compute(self, square):
        proc = run_cli("compute", str(square))
        assert proc.returncode == 0
        json.loads(proc.stdout)

    def test_subprocess_input_error(self, tmp_path):
        proc = run_cli("compute", str(tmp_path / "nope.csv"))
        assert proc.returncode == 2

    def test_usage_error(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2
