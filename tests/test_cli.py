"""CLI runs, manifests, determinism, and SVG geometry round-trips."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import spirallimits
from spirallimits import cli
from spirallimits.cli import main
from spirallimits.errors import TooManyPoints
from spirallimits.svgplot import MAX_POINTS, render_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def run(args):
    return main([str(a) for a in args])


def read_json(path):
    return json.loads(path.read_text())


def run_python(code, *args, cwd=None):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(spirallimits.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=300,
    )


# --- basic runs ---------------------------------------------------------------

def test_cf_fibonacci(tmp_path):
    out = tmp_path / "cf"
    assert run(["cf", "--alpha", "quad:1,1,2,5", "--count", 10, "--out", out]) == 0
    rows = (out / "convergents.csv").read_text().strip().splitlines()
    assert rows[0] == "j,a,p,q"
    assert rows[1] == "1,1,1,1"
    assert rows[-1] == "10,1,89,55"
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "cf"
    assert manifest["outputs"] == ["convergents.csv"]


def test_predict_values(tmp_path):
    out = tmp_path / "p"
    assert run(["predict", "--alpha", "quad:1,1,2,5", "--t", 1, "--theta", 0,
                "--out", out]) == 0
    data = read_json(out / "prediction.json")
    v1 = data["proof_form"]["v1"]
    assert abs(float(v1["x"]) - 1.0) < 1e-12
    assert abs(float(v1["y"]) - 1.4049629462081452) < 1e-9
    v2 = data["proof_form"]["v2"]
    assert abs(float(v2["x"]) - 1.6180339887498949) < 1e-9
    assert abs(float(v2["y"]) + 0.8683148536908239) < 1e-9
    assert abs(float(data["proof_form"]["covolume"]) - math.pi) < 1e-12


def test_density_outputs(tmp_path):
    out = tmp_path / "d"
    assert run(["density", "--alpha", "rat:1/2", "--r", "10,100", "--out", out]) == 0
    data = read_json(out / "density.json")
    assert [float(e["ratio"]) for e in data["ratios"]] == [1.0, 1.0]


def test_spiral_points_csv(tmp_path):
    out = tmp_path / "sp"
    assert run(["spiral", "--alpha", "rat:1/4", "--n-range", "1:4", "--out", out]) == 0
    rows = (out / "points.csv").read_text().strip().splitlines()
    n, x, y, err = rows[1].split(",")
    assert n == "1" and abs(float(x)) < 1e-15 and float(y) == 1.0


def test_orbit_and_compare_forms(tmp_path):
    out = tmp_path / "orb"
    assert run(["orbit", "--alpha", "quad:1,1,2,5", "--t", 1, "--j", 19,
                "--b", "0:3", "--window", 8, "--out", out]) == 0
    data = read_json(out / "orbit.json")
    assert len(data["entries"]) == 4
    out2 = tmp_path / "forms"
    assert run(["compare-forms", "--alpha", "quad:1,1,2,5", "--t", 1,
                "--theta", 0, "--out", out2]) == 0
    assert read_json(out2 / "forms.json")["same_lattice"] is False


def test_delone_cli(tmp_path):
    out = tmp_path / "del"
    assert run(["delone", "--alpha", "quad:1,1,2,5", "--center-index", 100000,
                "--window", 10, "--grid-step", 0.2, "--out", out]) == 0
    data = read_json(out / "delone.json")
    assert float(data["packing"]) > 0.2


def test_delta_between_patch_files(tmp_path):
    p1, p2 = tmp_path / "p1", tmp_path / "p2"
    for n, out in ((2000, p1), (2001, p2)):
        assert run(["patch", "--alpha", "quad:1,1,2,5", "--center-index", n,
                    "--window", 6, "--out", out]) == 0
    out = tmp_path / "delta"
    assert run(["delta", "--a", p1 / "patch.csv", "--b", p2 / "patch.csv",
                "--out", out]) == 0
    data = read_json(out / "delta.json")
    value, (lower, upper) = float(data["value"]), map(float, data["bracket"])
    assert 0.0 <= value
    # the bracket is value -/+ the largest err of each file
    err = sum(max(float(line.split(",")[3]) for line in (p / "patch.csv").read_text().split()[1:])
              for p in (p1, p2))
    assert 0 < err < 1e-9
    assert abs(upper - (value + err)) <= 1e-15 and abs(lower - (value - err)) <= 1e-15


def test_delta_rejects_nan_patch_row(tmp_path, capsys):
    p1, p2 = tmp_path / "p1", tmp_path / "p2"
    for n, out in ((2000, p1), (2001, p2)):
        assert run(["patch", "--alpha", "quad:1,1,2,5", "--center-index", n,
                    "--window", 6, "--out", out]) == 0
    good = (p1 / "patch.csv").read_text()
    for row in ("1999,nan,0.5,1e-13", "1999,3.0,0.5,nan", "1999,3.0,0.5,-1e-13"):
        (p1 / "patch.csv").write_text(good + row + "\n")
        capsys.readouterr()
        assert run(["delta", "--a", p1 / "patch.csv", "--b", p2 / "patch.csv",
                    "--out", tmp_path / "delta"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("case", ["empty csv", "short row", "sidecar without radius",
                                  "empty manifest"])
def test_malformed_input_is_an_error_line(tmp_path, capsys, case):
    """Malformed patch files and manifests exit 2 with an error line naming
    the file, never with a traceback."""
    ok = tmp_path / "ok"
    assert run(["patch", "--alpha", "quad:1,1,2,5", "--center-index", 2000,
                "--window", 6, "--out", ok]) == 0
    bad = tmp_path / "bad.csv"
    args = ["delta", "--a", bad, "--b", ok / "patch.csv", "--out", tmp_path / "delta"]
    if case == "empty csv":
        bad.write_text("")
        args += ["--a-window", 8, "--b-window", 8]
    elif case == "short row":
        bad.write_text((ok / "patch.csv").read_text() + "1999,3.0\n")
        args += ["--a-window", 6]
    elif case == "sidecar without radius":
        bad.write_text((ok / "patch.csv").read_text())
        bad = bad.with_suffix(".json")
        bad.write_text("{}\n")
    else:
        (tmp_path / "manifest.json").write_text("{}\n")
        bad = tmp_path / "manifest.json"
        args = ["report", "--run", tmp_path, "--out", tmp_path / "rep"]
    capsys.readouterr()
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("radius", ["null", "[8]", "{}", "true", '"eight"', "1e999"])
def test_sidecar_radius_must_be_a_finite_number(tmp_path, capsys, radius):
    """A sidecar window_radius that is not a finite number (bool included)
    exits 2 with an error line naming the sidecar, not a TypeError traceback."""
    ok = tmp_path / "ok"
    assert run(["patch", "--alpha", "quad:1,1,2,5", "--center-index", 2000,
                "--window", 6, "--out", ok]) == 0
    bad = tmp_path / "bad.csv"
    bad.write_text((ok / "patch.csv").read_text())
    sidecar = bad.with_suffix(".json")
    sidecar.write_text(f'{{"window_radius": {radius}}}\n')
    capsys.readouterr()
    assert run(["delta", "--a", bad, "--b", ok / "patch.csv", "--out", tmp_path / "delta"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(sidecar) in err
    # a JSON number is read as well as the decimal string the patch sidecar holds
    sidecar.write_text('{"window_radius": 6}\n')
    assert run(["delta", "--a", bad, "--b", ok / "patch.csv", "--out", tmp_path / "delta"]) == 0


@pytest.mark.parametrize("case", ["params list", "result number", "outputs string",
                                  "outputs number", "output above run", "output absolute"])
def test_report_checks_the_manifest(tmp_path, capsys, case):
    """``report`` checks the types of params, result and outputs, and refuses an
    output path outside the run directory instead of reading its size."""
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    outside = tmp_path / "outside.txt"
    outside.write_text("not part of the run\n")
    extra = {
        "params list": {"params": []},
        "result number": {"result": 5},
        "outputs string": {"outputs": "patch.csv"},
        "outputs number": {"outputs": [3]},
        "output above run": {"outputs": ["../outside.txt"]},
        "output absolute": {"outputs": [str(outside)]},
    }[case]
    manifest = run_dir / "manifest.json"
    manifest.write_text(json.dumps({"command": "cf", "tool_version": "0", **extra}))
    capsys.readouterr()
    assert run(["report", "--run", run_dir, "--out", tmp_path / "rep"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(manifest) in captured.err
    assert "bytes" not in captured.out


def test_index_past_int64_is_an_error_line(tmp_path, capsys):
    assert run(["patch", "--alpha", "quad:1,1,2,5", "--center-index", 10**19,
                "--window", 8, "--out", tmp_path / "p"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2^63" in err


@pytest.mark.parametrize("argv", [
    ["patch", "--alpha", "quad:1,1,2,5", "--center-index", 10**6, "--window", "1e300"],
    ["patch", "--alpha", "quad:1,1,2,5", "--center-index", 10**6, "--window", "1e200"],
    ["patch", "--alpha", "quad:1,1,2,5", "--center-index", 10**400, "--window", 8],
    ["delone", "--alpha", "quad:1,1,2,5", "--center-index", 10**6, "--window", "1e300"],
    ["empirical", "--alpha", "quad:1,1,2,5", "--t", 1, "--j", "10:12", "--window", "1e300"],
    ["empirical", "--alpha", "quad:1,1,2,5", "--t", "1e-200", "--j", "10:12", "--window", 8],
    ["orbit", "--alpha", "quad:1,1,2,5", "--t", 1, "--j", 25, "--b", "0:2",
     "--window", "1e300"],
    ["orbit", "--alpha", "quad:1,1,2,5", "--t", "1e-200", "--j", 25, "--b", "0:2",
     "--window", 8],
    ["forest", "--alpha", "quad:1,1,2,5", "--window-radius", "1e300", "--eps", 0.2,
     "--lengths", 10],
])
def test_reach_too_large_for_a_float_is_an_error_line(tmp_path, capsys, argv):
    """A window whose index or reach overflows a float exits 2 naming the
    int64 index limit, instead of an OverflowError traceback."""
    out = tmp_path / "run"
    assert run(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2^63" in err and "Traceback" not in err
    assert not out.exists()


def test_exit_codes(tmp_path):
    assert run(["cf", "--alpha", "rat:1/0", "--count", 5,
                "--out", tmp_path / "bad"]) == 2
    assert run(["cf", "--alpha", "dec:1.618034@64", "--count", 30,
                "--out", tmp_path / "prec"]) == 3
    assert run(["cf", "--alpha", "quad:1,1,2,5", "--count", 3,
                "--out", tmp_path / "ok"]) == 0


@pytest.mark.parametrize("args", [
    ["patch", "--alpha", "rat:1/2", "--center-index", 4000000, "--window", 30],
])
def test_svg_over_budget_writes_nothing(tmp_path, args):
    """A window too dense for an SVG fails before the run directory exists."""
    out = tmp_path / "dense"
    assert run(args + ["--out", out]) == 2
    assert not out.exists()


def test_forest_keeps_witnesses_whose_svg_is_over_budget(tmp_path):
    """A witness whose window is too dense to draw is kept without its SVG:
    the V=40 window of this ray holds 132,214 points, over the budget."""
    out = tmp_path / "dense"
    assert run(["forest", "--alpha", "rat:1/2", "--window-radius", 3000, "--eps", 0.2,
                "--lengths", "10,40", "--out", out]) == 0
    witnesses = read_json(out / "witnesses.json")["witnesses"]
    assert [w["found"] for w in witnesses] == [True, True]
    assert witnesses[1]["points_checked"] > MAX_POINTS
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "witness_V10.svg", "witnesses.json"]
    assert read_json(out / "manifest.json")["outputs"] == ["witnesses.json", "witness_V10.svg"]


@pytest.mark.parametrize("args", [
    ["density", "--alpha", "quad:1,1,2,5", "--r", "1.5,inf"],
    ["triplets", "--alpha", "quad:1,1,2,5", "--j", "0:3"],
    ["density", "--alpha", "quad:1,1,2,5", "--r", ","],
    ["forest", "--alpha", "quad:1,1,2,5", "--window-radius", 300, "--eps", 0.2,
     "--lengths", ","],
])
def test_failed_run_creates_no_run_directory(tmp_path, capsys, args):
    """A handler that fails leaves no --out behind, not even an empty one."""
    out = tmp_path / "run"
    assert run(args + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_report_that_cannot_commit_prints_nothing(tmp_path, capsys):
    """``report`` prints its summary only after its run directory is written."""
    run_dir = tmp_path / "run"
    assert run(["density", "--alpha", "rat:1/3", "--r", "10", "--out", run_dir]) == 0
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    capsys.readouterr()
    assert run(["report", "--run", run_dir, "--out", afile]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_out_naming_a_file_is_an_error_line(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    assert run(["cf", "--alpha", "quad:1,1,2,5", "--count", 5, "--out", afile]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(afile) in err
    assert "Traceback" not in err
    assert afile.read_text() == "not a directory\n"


@pytest.mark.parametrize("argv", [
    ["triplets", "--alpha", "quad:1,1,2,5", "--j", "3:1"],
    ["triplets", "--alpha", "quad:1,1,2,5", "--j", "5"],
    ["triplets", "--alpha", "quad:1,1,2,5", "--j", "1:x"],
    ["triplets", "--alpha", "quad:1,1,2,5", "--j", "1:2:3"],
    ["spiral", "--alpha", "quad:1,1,2,5", "--n-range", "5:1"],
    ["orbit", "--alpha", "quad:1,1,2,5", "--t", "1", "--j", "19", "--window", "8",
     "--b", "3:1"],
    # over the 10,000-integer budget, including one past sys.maxsize integers
    ["spiral", "--alpha", "quad:1,1,2,5", "--n-range", "1:10001"],
    ["spiral", "--alpha", "quad:1,1,2,5", "--n-range", "1:100000000000000000000"],
    ["triplets", "--alpha", "quad:1,1,2,5", "--j", "1:10001"],
    ["empirical", "--alpha", "quad:1,1,2,5", "--t", "1", "--window", "8",
     "--j", "10:10010"],
    ["orbit", "--alpha", "quad:1,1,2,5", "--t", "1", "--j", "19", "--window", "8",
     "--b", "0:10000"],
])
def test_malformed_range_is_an_error_line(tmp_path, capsys, argv):
    """A range that is not lo:hi integers with lo <= hi, or that holds more
    than 10,000 integers, exits 2 naming the text, instead of a cryptic
    message, an empty artifact or a run that holds every row in memory."""
    out = tmp_path / "run"
    assert run(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: range ") and repr(argv[-1]) in err
    assert "Traceback" not in err
    assert not out.exists()


def test_range_budget_admits_ten_thousand_integers():
    assert len(cli._parse_range("-4999:5000")) == 10_000


@pytest.mark.parametrize("argv, option, value", [
    (["predict", "--alpha", "quad:1,1,2,5", "--t", "1"], "--theta", "-1e-3"),
    (["orbit", "--alpha", "quad:1,1,2,5", "--t", "1", "--j", "19", "--window", "8"],
     "--b", "-2:2"),
])
def test_negative_values_take_the_equals_form(tmp_path, capsys, argv, option, value):
    """argparse reads a spaced negative value as a flag and exits 2 with its
    usage error; the documented --option=value form runs."""
    with pytest.raises(SystemExit) as exc:
        run(argv + [option, value, "--out", tmp_path / "spaced"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "expected one argument" in err and "Traceback" not in err
    out = tmp_path / "joined"
    assert run(argv + [f"{option}={value}", "--out", out]) == 0
    if argv[0] == "orbit":
        assert len(read_json(out / "orbit.json")["entries"]) == 5


@pytest.mark.parametrize("argv, message", [
    (["--lengths", "10,10.0000001"], "share the SVG name witness_V10.svg"),
    (["--lengths", "10", "--n-min", "200000"], "n_min 200000 is past the rim index 85731"),
])
def test_forest_refuses_inputs_it_cannot_serve(tmp_path, capsys, argv, message):
    """Two lengths whose SVGs would share a name, and an n_min past the rim,
    exit 2 before any search result is written."""
    out = tmp_path / "run"
    assert run(["forest", "--alpha", "quad:1,1,2,5", "--window-radius", 300,
                "--eps", 0.2, *argv, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


# --- import path -------------------------------------------------------------------

def test_cli_import_loads_no_numpy_and_no_layer():
    """The CLI module binds only the stdlib, errors and number_theory; each
    subcommand imports the other layers it runs."""
    proc = run_python("import json, sys, spirallimits.cli; "
                      "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in "
                      "('numpy', 'scipy', 'spirallimits'))))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        "spirallimits", "spirallimits.cli", "spirallimits.errors", "spirallimits.number_theory"]


# subcommands that query no nearest-neighbour tree
TREE_FREE_COMMANDS = [
    ["cf", "--alpha", "quad:1,1,2,5", "--count", "40", "--out", "cf"],
    ["triplets", "--alpha", "quad:0,1,1,2", "--j", "1:40", "--out", "triplets"],
    ["predict", "--alpha", "quad:1,1,2,5", "--t", "1.1", "--theta", "0.3",
     "--out", "predict"],
    ["compare-forms", "--alpha", "quad:0,1,1,2", "--t", "0.9", "--theta", "1.2",
     "--out", "compare"],
    ["spiral", "--alpha", "quad:1,1,2,5", "--n-range", "1:200", "--out", "spiral"],
    ["patch", "--alpha", "quad:1,1,2,5", "--center-index", "1000000", "--window", "8",
     "--out", "patch"],
    ["density", "--alpha", "quad:1,1,2,5", "--r", "1.5,10,250", "--out", "density"],
    # far enough out that a lattice fit of its local windows would pass and
    # reach a tree query
    ["forest", "--alpha", "quad:1,1,2,5", "--window-radius", "2000", "--eps", "0.2",
     "--lengths", "10", "--out", "forest"],
    ["report", "--run", "patch", "--out", "report"],
]

RUN_COMMANDS = """
import json, sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from spirallimits.cli import main
for argv in json.loads(sys.argv[2]):
    code = main(argv)
    if code:
        sys.exit(f"{argv[0]} exited with {code}")
"""


def test_tree_free_commands_run_without_scipy(tmp_path):
    runs = {}
    for mode in ("block", "normal"):
        cwd = tmp_path / mode
        cwd.mkdir()
        proc = run_python(RUN_COMMANDS, mode, json.dumps(TREE_FREE_COMMANDS), cwd=cwd)
        assert proc.returncode == 0, proc.stderr
        files = {str(p.relative_to(cwd)): p.read_bytes()
                 for p in sorted(cwd.rglob("*")) if p.is_file()}
        runs[mode] = (proc.stdout, files)
    assert {name.split(os.sep)[0] for name in runs["block"][1]} == {
        argv[-1] for argv in TREE_FREE_COMMANDS}
    assert runs["block"] == runs["normal"]
    # each run directory holds its manifest and the outputs it lists, nothing else
    files = runs["block"][1]
    for argv in TREE_FREE_COMMANDS:
        run_dir = argv[-1]
        manifest = json.loads(files[os.path.join(run_dir, "manifest.json")])
        assert {name for name in files if name.split(os.sep)[0] == run_dir} == {
            os.path.join(run_dir, name) for name in ["manifest.json", *manifest["outputs"]]}


# subcommands that run no numpy layer; report reads a patch run made with numpy
NUMPY_FREE_COMMANDS = [
    ["--version"],
    ["cf", "--alpha", "quad:1,1,2,5", "--count", "40", "--out", "cf"],
    ["triplets", "--alpha", "quad:0,1,1,2", "--j", "1:40", "--out", "triplets"],
    ["report", "--run", "patch", "--out", "report"],
]

RUN_WITHOUT_NUMPY = """
import json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from spirallimits.cli import main
for argv in json.loads(sys.argv[2]):
    try:
        code = main(argv)
    except SystemExit as exc:  # --version prints and exits through argparse
        code = exc.code
    if code:
        sys.exit(f"{argv[0]} exited with {code}")
"""


def test_numpy_free_commands_run_without_numpy(tmp_path):
    patch = ["patch", "--alpha", "quad:1,1,2,5", "--center-index", "1000000", "--window", "8",
             "--out", "patch"]
    runs = {}
    for mode in ("block", "normal"):
        cwd = tmp_path / mode
        cwd.mkdir()
        assert run_python(RUN_WITHOUT_NUMPY, "normal", json.dumps([patch]), cwd=cwd).returncode == 0
        proc = run_python(RUN_WITHOUT_NUMPY, mode, json.dumps(NUMPY_FREE_COMMANDS), cwd=cwd)
        assert proc.returncode == 0, proc.stderr
        files = {str(p.relative_to(cwd)): p.read_bytes()
                 for p in sorted(cwd.rglob("*")) if p.is_file()}
        runs[mode] = (proc.stdout, files)
    assert runs["block"][0].startswith(f"{spirallimits.__version__}\n")
    assert {name.split(os.sep)[0] for name in runs["block"][1]} == {"patch", "cf", "triplets",
                                                                    "report"}
    assert runs["block"] == runs["normal"]


def test_tree_command_without_scipy_is_an_error_line(tmp_path):
    argv = ["delone", "--alpha", "quad:1,1,2,5", "--center-index", "1000", "--window", "6",
            "--out", "delone"]
    proc = run_python('import json, sys; sys.modules["scipy"] = None; '
                      "from spirallimits.cli import main; sys.exit(main(json.loads(sys.argv[1])))",
                      json.dumps(argv), cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "scipy" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["patch", "--alpha", "quad:1,1,2,5", "--center-index", "1000", "--window", "inf"],
    ["empirical", "--alpha", "quad:1,1,2,5", "--t", "1", "--j", "17:18", "--window", "inf"],
    ["delone", "--alpha", "quad:1,1,2,5", "--center-index", "1000", "--window", "inf"],
    ["forest", "--alpha", "quad:1,1,2,5", "--window-radius", "inf", "--eps", "0.2",
     "--lengths", "10"],
    ["forest", "--alpha", "quad:1,1,2,5", "--window-radius", "300", "--eps", "0.2",
     "--lengths", "10,nan"],
    ["density", "--alpha", "quad:1,1,2,5", "--r", "inf"],
    ["predict", "--alpha", "quad:1,1,2,5", "--t", "inf", "--theta", "0"],
    ["compare-forms", "--alpha", "quad:1,1,2,5", "--t", "1", "--theta=-inf"],
])
def test_non_finite_float_is_an_error_line(tmp_path, capsys, argv):
    """A float option or list entry that is not finite exits 2 naming the value."""
    try:
        code = run(argv + ["--out", tmp_path / "run"])
    except SystemExit as exc:  # argparse rejects options before any handler runs
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "finite" in err and "Traceback" not in err
    assert not (tmp_path / "run" / "manifest.json").exists()


# --- serialization ---------------------------------------------------------------

@dataclasses.dataclass
class _Inner:
    x: float
    hidden: object = dataclasses.field(default=None, repr=False)


@dataclasses.dataclass
class _Outer:
    name: str
    inner: _Inner
    items: list


@pytest.mark.parametrize("value, expected", [
    (np.float64(0.1), "0.10000000000000001"),
    (np.float32(0.1), "0.10000000149011612"),
    (np.int64(7), 7),
    (np.uint8(3), 3),
    (np.array([[1.5, -0.0], [2, 3]]), [["1.5", "-0"], ["2", "3"]]),
    (np.array([[1, 2]]), [[1, 2]]),
    (math.nan, "nan"),
    (math.inf, "inf"),
    (-math.inf, "-inf"),
    (-0.0, "-0"),
    (np.float64(math.nan), "nan"),
    (np.float64(-0.0), "-0"),
    (True, True),
    (None, None),
    ((1, 2.5), [1, "2.5"]),
    ({"a": np.int64(2)}, {"a": 2}),
    (_Outer("o", _Inner(1 / 3, hidden=np.zeros(3)), [_Inner(2.0)]),
     {"name": "o", "inner": {"x": "0.33333333333333331"}, "items": [{"x": "2"}]}),
    # a 0-d array is its scalar, and numpy's bool a JSON boolean
    (np.array(2.5), "2.5"),
    (np.bool_(True), True),
])
def test_json_values_keep_their_form(value, expected):
    """Floats are 17-digit strings, nonfinite ones their repr; integers stay
    numbers; a dataclass is its repr'd fields."""
    jsonable = cli._jsonable(value)
    assert jsonable == expected and type(jsonable) is type(expected)


def test_json_and_csv_text_keep_their_bytes():
    assert cli._json_text(_Outer("o", _Inner(1 / 3), [])) == (
        '{\n  "inner": {\n    "x": "0.33333333333333331"\n  },\n  "items": [],\n  "name": "o"\n}\n')
    rows = [
        (np.int64(3), np.float64(0.1), -0.0, math.nan, math.inf, np.array(2.5), np.array(4)),
        (True, np.bool_(False), 1e300, np.float32(0.1), 2**70, np.uint64(5), 1 / 3),
    ]
    assert cli._csv_text(list("abcdefg"), rows) == (
        "a,b,c,d,e,f,g\n"
        "3,0.10000000000000001,-0,nan,inf,2.5,4\n"
        "1,0,1.0000000000000001e+300,0.10000000149011612,1180591620717411303424,5,"
        "0.33333333333333331\n")


# --- determinism -----------------------------------------------------------------

def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["empirical", "--alpha", "quad:1,1,2,5", "--t", 1, "--j", "17:19",
            "--window", 8]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_manifest_enables_rerun(tmp_path):
    out = tmp_path / "run"
    assert run(["triplets", "--alpha", "quad:0,1,1,2", "--j", "2:6",
                "--out", out]) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["params"]["alpha"] == "quad:0,1,1,2"
    assert manifest["params"]["j"] == "2:6"
    assert manifest["tool_version"]
    for name in manifest["outputs"]:
        assert (out / name).exists()


def test_report_subcommand(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["density", "--alpha", "rat:1/3", "--r", "10", "--out", out]) == 0
    rep = tmp_path / "rep"
    capsys.readouterr()
    assert run(["report", "--run", out, "--out", rep]) == 0
    text = (rep / "report.txt").read_text()
    assert "run: density" in text
    assert "density.json" in text
    # the summary, then the run directory, as every subcommand ends
    assert capsys.readouterr().out == text + f"{rep}\n"


# --- SVG ---------------------------------------------------------------------------

def test_svg_empty_patch_is_valid():
    doc = render_svg(10.0)
    root = ET.fromstring(doc)
    assert root.tag == f"{SVG_NS}svg"
    circles = root.findall(f".//{SVG_NS}circle")
    assert len(circles) == 1  # just the window boundary


def test_svg_too_many_points():
    pts = np.zeros((100_001, 2))
    with pytest.raises(TooManyPoints):
        render_svg(10.0, point_layers=[("p", pts)])


def test_svg_layering_patch_and_two_lattices():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    doc = render_svg(5.0, point_layers=[("patch", pts)],
                     cross_layers=[("proof", pts + 0.1), ("theorem", pts - 0.1)])
    root = ET.fromstring(doc)
    groups = [g.get("data-label") for g in root.findall(f".//{SVG_NS}g") if g.get("data-label")]
    assert groups == ["patch", "proof", "theorem"]


def test_forest_svg_witness_encloses_no_glyphs(tmp_path):
    out = tmp_path / "forest"
    assert run(["forest", "--alpha", "quad:1,1,2,5", "--window-radius", 300,
                "--eps", 0.2, "--lengths", "10", "--out", out]) == 0
    data = read_json(out / "witnesses.json")
    w = data["witnesses"][0]
    assert w["found"] is True
    svg = (out / "witness_V10.svg").read_text()
    root = ET.fromstring(svg)
    poly = root.find(f".//{SVG_NS}polygon")
    corners = np.array(
        [[float(v) for v in pair.split(",")] for pair in poly.get("points").split()]
    )
    glyphs = np.array(
        [
            [float(c.get("cx")), float(c.get("cy"))]
            for g in root.findall(f".//{SVG_NS}g")
            if g.get("class") == "points"
            for c in g.findall(f"{SVG_NS}circle")
        ]
    )
    # the re-parsed rectangle must contain no re-parsed point glyph
    center = corners.mean(axis=0)
    u = corners[1] - corners[2]
    u = u / np.hypot(*u)
    wv = np.array([-u[1], u[0]])
    rel = glyphs - center
    lu, lw = np.abs(rel @ u), np.abs(rel @ wv)
    hl = np.hypot(*(corners[1] - corners[2])) / 2
    hw = np.hypot(*(corners[0] - corners[1])) / 2
    inside = (lu <= hl - 1e-4) & (lw <= hw - 1e-4)
    assert not inside.any()
    # rectangle dimensions survive the format round-trip
    assert abs(2 * hw - 0.2) < 1e-3
    assert abs(2 * hl - 10.0) < 1e-3


def test_svg_determinism():
    pts = np.array([[0.5, -0.25], [1.0, 2.0]])
    assert render_svg(4.0, point_layers=[("p", pts)]) == render_svg(
        4.0, point_layers=[("p", pts)]
    )


def test_empirical_serializes_the_library_windows(tmp_path, monkeypatch):
    """`empirical` writes the windows and lattice balls the library measured:
    one recentered_window call per j, at the record's center, and none of
    those in-memory objects in report.json."""
    from spirallimits import limits, spiral

    calls = []
    original = spiral.recentered_window

    def counted(alpha, n, *args, **kwargs):
        calls.append(n)
        return original(alpha, n, *args, **kwargs)

    for module in (spiral, limits):
        monkeypatch.setattr(module, "recentered_window", counted)
    out = tmp_path / "emp"
    assert run(["empirical", "--alpha", "quad:1,1,2,5", "--t", 1, "--j", "17:19",
                "--window", 8, "--out", out]) == 0
    records = read_json(out / "report.json")["records"]
    assert calls == [r["n"] for r in records] and len(calls) == 3
    assert not {"window", "patch", "balls"} & set(records[0])
