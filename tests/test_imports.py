"""Source-tree rules that no behavioural test would notice breaking."""

import ast
import importlib
import importlib.util
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import reldelcech
from reldelcech import cli, persistence, relative_lift

PACKAGE = pathlib.Path(reldelcech.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def imported_modules(path: pathlib.Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_one_exact_number_type():
    # Exact signs are integer determinants of power-of-two scaled floats
    # (predicates.exact_ints); a second exact type must not creep back in.
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 9
    offenders = [p.name for p in sources if "fractions" in imported_modules(p)]
    assert offenders == []


def test_imports_are_stdlib_or_declared():
    # A module that is installed but not declared, such as scipy, must not
    # creep in: `import scipy.spatial` alone adds ~37 MB of peak RSS.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}
    allowed = set(sys.stdlib_module_names) | declared
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 9
    offenders = {p.name: sorted(imported_modules(p) - allowed) for p in sources}
    assert {name: mods for name, mods in offenders.items() if mods} == {}


def traced_names() -> list[tuple[str, str]]:
    """(module, global name) of every entry of the benchmark tracer's TARGETS."""
    spans = PERFBENCH / "spans.py"
    tree = ast.parse(spans.read_text(), filename=str(spans))
    (targets,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    ]
    return [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]


def test_traced_names_are_module_globals():
    # The benchmark's --trace 1 replaces these module globals; renaming or
    # deleting one would silently drop its layer from the trace.
    names = traced_names()
    assert len(names) >= 10
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not module.startswith("reldelcech.") or name not in vars(importlib.import_module(module))
    ]
    assert missing == []


def test_traced_names_are_called_by_compute(monkeypatch, tmp_path, capsys):
    # A traced name that is still a module global but no longer called
    # would silently read 0 in its layer of the trace.
    called = set()
    for module, name in traced_names():
        mod = importlib.import_module(module)

        def counting(*args, _key=f"{module}.{name}", _fn=getattr(mod, name), **kwargs):
            called.add(_key)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, name, counting)
    # A random pair, an integer grid pair, the same grid scaled by 2^30,
    # outside the exact range, whose cocircular ties only sos_sign
    # decides, the 3x4 grid with A = {0, 4, 5, 6}, whose lifted
    # hull has flat mixed-slab facets that only an exact vertical test
    # finds vertical, a triangular grid, whose hull edge along the diagonal
    # holds collinear points (a vertical facet of del(X2) without a
    # constant column, which only det_sign_exact finds vertical), and a
    # nearly right triangle whose circumcenter is too close to an edge for
    # the face rule, so that smallest_enclosing_ball runs.
    rng = np.random.default_rng(74)
    grid = [(float(i), float(j)) for i in range(4) for j in range(4)]
    pairs = [("random", rng.random((40, 2)).tolist(), None), ("grid", grid, None)]
    pairs.append(("grid-2^30", [(x * 2.0**30, y * 2.0**30) for x, y in grid], None))
    pairs.append(("repro", [(float(i), float(j)) for i in range(3) for j in range(4)], [0, 4, 5, 6]))
    pairs.append(("diagonal", [(float(i), float(j)) for i in range(4) for j in range(i + 1)], [0]))
    pairs.append(("near-right", [(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0 + 1e-7)], [0]))
    for name, xy, a in pairs:
        pts = tmp_path / f"{name}.csv"
        pts.write_text("".join(f"{x!r},{y!r}\n" for x, y in xy))
        sub = tmp_path / f"{name}-a.txt"
        if a is None:
            a = sorted(rng.choice(len(xy), size=len(xy) // 4, replace=False).tolist())
        sub.write_text("".join(f"{i}\n" for i in a))
        assert cli.main(["compute", str(pts), "--subset-indices", str(sub)]) == 0
        capsys.readouterr()
    assert sorted({f"{m}.{n}" for m, n in traced_names()} - called) == []


def test_benchmark_instance_runs_and_checks(monkeypatch, tmp_path):
    # The benchmark parses, solves and checks each instance through
    # perfbench/instance.py, and its traced pass certifies del(Z) with
    # verify_embedding: what they reach of the package must keep working.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # load it read-only
    spec = importlib.util.spec_from_file_location("perfbench_instance", PERFBENCH / "instance.py")
    instance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instance)
    rng = np.random.default_rng(89)
    pts = tmp_path / "instance.points.csv"
    pts.write_text("".join(",".join(map(repr, p.coords)) + "\n" for p in cli.generate_cloud("uniform-box", 30, 2, rng)))
    sub = tmp_path / "instance.subset.txt"
    sub.write_text("".join(f"{i}\n" for i in sorted(rng.choice(30, size=8, replace=False).tolist())))
    x, a, pipe, bc = instance.run(str(pts), str(sub))
    assert len(x) == 30 and len(a) == 8
    assert instance.output_problems(bc, pipe.complex, a) == []
    assert relative_lift.verify_embedding(pipe.cfg, pipe.triangulation).ok is True


def test_benchmark_trace_reads_the_barcode_layer(monkeypatch, tmp_path):
    # The traced pass tags boundary_matrix and reduce_matrix by what
    # perfbench/spans.py reads of their results (`columns`, `pairs`); a
    # renamed attribute would fail only in the benchmark's traced pass.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # load them read-only
    mods = {}
    for name in ("spans", "instance"):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        mods[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mods[name])
    spans, instance = mods["spans"], mods["instance"]
    rng = np.random.default_rng(89)
    pts = tmp_path / "instance.points.csv"
    pts.write_text("".join(",".join(map(repr, p.coords)) + "\n" for p in cli.generate_cloud("uniform-box", 30, 2, rng)))
    sub = tmp_path / "instance.subset.txt"
    sub.write_text("".join(f"{i}\n" for i in sorted(rng.choice(30, size=8, replace=False).tolist())))
    tracer = spans.Tracer()
    tracer.current_instance = 0
    with tracer.installed():
        x, a, pipe, bc = instance.run(str(pts), str(sub), tracer)
    metrics = spans.layer_metrics(tracer, {0: 3})[0]
    m = persistence.boundary_matrix(pipe.complex, relative=True)
    assert metrics["boundary_matrix.nnz"] == sum(len(col) for col in m.columns) > 0
    assert metrics["reduce.pairs"] == len(persistence.reduce_matrix(m).pairs) > 0


def test_run_does_not_import_numpy_ma():
    # `np.unique` without index outputs, and the set routines built on it,
    # import numpy.ma (+0.5 MB of peak RSS) to test for a masked array.
    # A fresh interpreter runs the pipeline and the barcode on the 12x12
    # grid pair, whose cocircular ties reach every fallback, on the grid
    # alone (A empty) and on two crossing lines: the last two check del(Z)
    # without wrapping it.
    script = """
import sys
import numpy as np
from reldelcech.geometry import PointCloud
from reldelcech.persistence import barcode
from reldelcech.relative_lift import build_pipeline
grid = [(float(i), float(j)) for i in range(12) for j in range(12)]
a = set(np.random.default_rng(3).choice(144, 72, replace=False).tolist())
lines = [(t, 0.0) for t in (-2.0, -0.5, 1.0, 2.5)], [(0.5 + t, 2.0 * t) for t in (-1.0, 0.25, 1.5)]
for x1, x2 in [([p for i, p in enumerate(grid) if i in a], [p for i, p in enumerate(grid) if i not in a]), ([], grid), lines]:
    pipe = build_pipeline(PointCloud(x1, dimension=2), PointCloud(x2, dimension=2))
    barcode(pipe.complex, relative=True, max_dim=2)
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("name", ["grid12x12", "uniform250"])
def test_run_builds_no_per_cell_objects(name, monkeypatch, tmp_path, capsys):
    # A run works on face tables: `compute`, with the complex dumped too,
    # must construct no `Simplex` and no `Cell`, the output views.
    from reldelcech.filtered_complex import Cell, Simplex, loads

    made = []
    real_init, real_of, real_new = Simplex.__init__, Simplex._of.__func__, Cell.__new__
    monkeypatch.setattr(Simplex, "__init__", lambda self, vs: made.append(Simplex) or real_init(self, vs))
    monkeypatch.setattr(Simplex, "_of", classmethod(lambda cls, vs: made.append(Simplex) or real_of(cls, vs)))
    monkeypatch.setattr(Cell, "__new__", lambda cls, *args: made.append(Cell) or real_new(cls, *args))
    rng = np.random.default_rng(3)
    if name == "grid12x12":
        xy = [(float(i), float(j)) for i in range(12) for j in range(12)]
        a = rng.choice(144, 72, replace=False).tolist()
    else:
        xy = rng.random((250, 2)).tolist()
        a = rng.choice(250, 62, replace=False).tolist()
    pts, sub, dump = tmp_path / "x.csv", tmp_path / "a.txt", tmp_path / "complex.txt"
    pts.write_text("".join(f"{x!r},{y!r}\n" for x, y in xy))
    sub.write_text("".join(f"{i}\n" for i in a))
    assert cli.main(["compute", str(pts), "--subset-indices", str(sub), "--dump-complex", str(dump)]) == 0
    capsys.readouterr()
    assert made == []
    # The counters see the views where they are built: `loads` builds
    # one `Simplex` and one `Cell` per cell, and so does `cells`.
    n = len(loads(dump.read_text()).cells)
    assert made.count(Simplex) == 2 * n and made.count(Cell) == 2 * n
