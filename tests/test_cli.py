import ast
import csv
import hashlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import child_env
from qiglab import cli, consistency, duality, gibbs, monotonicity, potential
from qiglab.bands import FALSIFICATION_GAP
from qiglab.cli import (
    _COMMANDS,
    _build_parser,
    _format_float,
    _render,
    main,
)
from qiglab.manifold import ParametrizedFamily
from qiglab.sampling import (
    _random_weights,
    _states_with_tangents,
    random_state,
    random_traceless_hermitian,
    random_weight,
    rng_from,
)

WALL_CLOCK = re.compile(r'"wall_clock_s":[^,}]+')

FAST_DUALITY = ["duality", "--dim", "2", "--manifold", "state", "--alpha", "0", "--points", "2"]


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def _parse_jsonl(text):
    return [json.loads(line) for line in text.strip().splitlines()]


# ----------------------------------------------------------------- imports


def test_cli_import_leaves_scipy_unloaded():
    # numpy is the only dependency; scipy alone would triple the start-up time
    code = "import sys, qiglab.cli; sys.exit(int('scipy' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=child_env()).returncode == 0


# the library modules that hold one statement's checks, and the code only they use
CHECK_MODULES = ("consistency", "monotonicity", "connections", "duality", "newton", "potential", "gibbs")


def _check_modules_after(*commands) -> set:
    """The CHECK_MODULES a child interpreter has loaded after ``import qiglab.cli`` and a run of
    each subcommand at its defaults, output discarded; ``numpy.ma`` too when it is loaded."""
    code = (
        "import contextlib, io, sys\n"
        "from qiglab import cli\n"
        f"for command in {list(commands)!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        if cli.main([command]) != 0:\n"
        "            sys.exit(command)\n"
        "print(*sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    return {m for m in CHECK_MODULES if f"qiglab.{m}" in loaded} | ({"numpy.ma"} & loaded)


def test_cli_evaluates_no_metric_itself():
    # every metric value the CLI prints comes from a check module
    for name in ("metric_eval", "kernel_metric", "petz_kernel", "wyd_direct", "bkm_direct"):
        assert not hasattr(cli, name), name


def test_cli_import_loads_no_check_module():
    # a launch imports the check module its subcommand runs, and no other
    assert _check_modules_after() == set()


@pytest.mark.parametrize(
    "command, runs",
    [
        ("entropy-projection", {"gibbs", "newton"}),
        ("transport-duality", {"duality", "connections"}),
        ("monotonicity", {"monotonicity"}),
        ("metric-table", {"consistency"}),
    ],
)
def test_subcommand_loads_only_the_check_code_it_runs(command, runs):
    assert _check_modules_after(command) == runs


def test_no_subcommand_loads_numpy_ma():
    # numpy's set routines (unique, setdiff1d) import numpy.ma: 13-15 ms of a launch
    assert "numpy.ma" not in _check_modules_after(*_COMMANDS)


@pytest.mark.parametrize(
    "ask", ["names = {}; exec('from qiglab import *', names)", "names = dir(qiglab)"]
)
def test_package_names_load_on_first_use(ask):
    # importing the package loads no library module; asking for its names loads them all
    code = (
        "import json, sys, qiglab\n"
        "before = [m for m in sys.modules if m.startswith('qiglab.')]\n"
        f"{ask}\n"
        "print(json.dumps([before, sorted(set(names) & set(qiglab.__all__)), qiglab.__all__]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True
    )
    before, asked, exported = json.loads(done.stdout)
    assert before == []
    assert len(exported) == 105
    assert asked == sorted(exported)


# ------------------------------------------------------------- serialization


@pytest.mark.parametrize("x", [1.0 / 3.0, 0.1, 1e-300, 4.0, 6.02214076e23, -2.5e-8])
def test_format_float_round_trips(x):
    assert float(_format_float(x)) == x


def test_format_float_non_finite_is_quoted():
    assert json.loads(_format_float(float("nan"))) == "nan"
    assert json.loads(_format_float(float("inf"))) == "inf"


def test_jsonl_text_of_every_value_kind_is_pinned():
    # floats and strings take a direct path and keys are escaped once; the text is what the
    # one generic chain wrote, non-finite literals, numpy scalars and escapes included
    record = {
        "record": "case", "\u00fcn\u00ef": 'tab\there "q" \u00e9', "nan": float("nan"),
        "inf": np.float64("inf"), "-inf": -np.inf, "f32": np.float32(0.1), "f": 0.1,
        "neg0": -0.0, "b": True, "nb": np.bool_(False), "i": 3, "ni": np.int64(-7),
        "none": None, "arr": np.array([1.5, np.nan]), "list": [1, "x", (2.0, None)],
        "dict": {"k": np.float64(2.5), 3: "v"},
    }
    text = _render([record, {"record": "summary", "wall_clock_s": 0.25}], "jsonl", None)
    assert text == (
        '{"record":"case","\\u00fcn\\u00ef":"tab\\there \\"q\\" \\u00e9","nan":"nan",'
        '"inf":"inf","-inf":"-inf","f32":0.10000000149011612,"f":0.10000000000000001,'
        '"neg0":-0,"b":true,"nb":false,"i":3,"ni":-7,"none":null,"arr":[1.5,"nan"],'
        '"list":[1,"x",[2,null]],"dict":{"k":2.5,"3":"v"}}\n'
        '{"record":"summary","wall_clock_s":0.25}\n'
    )


# ------------------------------------------------------------- JSONL output


def test_jsonl_structure(capsys):
    code, out = _run(capsys, FAST_DUALITY)
    assert code == 0
    records = _parse_jsonl(out)
    assert records[0]["record"] == "config"
    assert records[0]["command"] == "duality"
    assert "output" not in records[0]
    assert records[-1]["record"] == "summary"
    assert records[-1]["verdict"] == "pass"
    assert all(rec["record"] == "case" for rec in records[1:-1])
    # wall clock is the last key of the summary, and of nothing else
    last_line = out.strip().splitlines()[-1]
    pairs = json.loads(last_line, object_pairs_hook=list)
    assert pairs[-1][0] == "wall_clock_s"
    for line in out.strip().splitlines()[:-1]:
        assert "wall_clock_s" not in line


def test_jsonl_floats_are_full_precision(capsys):
    _, out = _run(capsys, FAST_DUALITY)
    for rec in _parse_jsonl(out):
        if rec["record"] == "case":
            assert isinstance(rec["defect"], float)


# --------------------------------------------------------------- CSV output


def test_csv_layout(capsys):
    code, out = _run(capsys, FAST_DUALITY + ["--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split(",") == list(_COMMANDS["duality"].columns) + ["wall_clock_s"]
    assert lines[1].startswith("# config ")
    rows = list(csv.DictReader(io.StringIO(out), fieldnames=lines[0].split(",")))
    case_rows = [r for r in rows if r["record"] == "case"]
    summary_rows = [r for r in rows if r["record"] == "summary"]
    assert case_rows and len(summary_rows) == 1
    assert all(r["wall_clock_s"] == "" for r in case_rows)
    assert float(summary_rows[0]["wall_clock_s"]) >= 0.0
    assert summary_rows[0]["status"] == "pass"


# ------------------------------------------------------ config file handling


def test_config_file_and_cli_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nalpha = 0\npoints = 2\nseed = 5\n")
    code, out = _run(
        capsys,
        ["duality", "--config", str(cfg), "--dim", "2", "--manifold", "state", "--points", "3"],
    )
    assert code == 0
    config = _parse_jsonl(out)[0]
    assert config["alpha"] == "0"  # from the file
    assert config["seed"] == "5"  # from the file
    assert config["points"] == "3"  # explicit option beats the file
    assert config["dim"] == "2"


def test_config_file_dashed_keys(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dual-points = 1\n")
    code, out = _run(capsys, ["potential", "--config", str(cfg), "--alpha", "0", "--points", "6"])
    assert code == 0
    assert _parse_jsonl(out)[0]["dual_points"] == "1"


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("banana = 7\n")
    with pytest.raises(SystemExit) as exc:
        main(["duality", "--config", str(cfg)])
    assert exc.value.code == 2


def test_malformed_config_line_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no equals sign here\n")
    with pytest.raises(SystemExit) as exc:
        main(["duality", "--config", str(cfg)])
    assert exc.value.code == 2


def test_config_format_value_is_validated(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = yaml\n")
    with pytest.raises(SystemExit) as exc:
        main(["duality", "--config", str(cfg)])
    assert exc.value.code == 2


# ------------------------------------------------------------- option errors


def test_unknown_metric_token_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["duality", "--metric", "euclid"])
    assert exc.value.code == 2


def test_missing_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_zero_dual_points_is_usage_error(capsys):
    # with no points the Jacobian and Legendre residuals would read 0 unchecked
    with pytest.raises(SystemExit) as exc:
        main(["potential", "--alpha", "0", "--dual-points", "0"])
    assert exc.value.code == 2
    assert "--dual-points must be at least 1, got 0" in capsys.readouterr().err


def test_negative_dual_points_is_usage_error(capsys):
    # a negative count would slice the points from the end and check the rest
    with pytest.raises(SystemExit) as exc:
        main(["potential", "--alpha", "0", "--dual-points=-1"])
    assert exc.value.code == 2
    assert "--dual-points" in capsys.readouterr().err


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_no_projection_instances_is_usage_error(capsys, instances):
    # an empty batch has no mean residual to judge
    with pytest.raises(SystemExit) as exc:
        main(["entropy-projection", f"--instances={instances}"])
    assert exc.value.code == 2
    assert "--instances" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["duality", "uniqueness-scan"])
@pytest.mark.parametrize("points", ["0", "-1"])
def test_no_grid_points_is_usage_error(capsys, command, points):
    # an empty grid has no defect to judge
    with pytest.raises(SystemExit) as exc:
        main([command, f"--points={points}"])
    assert exc.value.code == 2
    assert f"--points must be at least 1, got {points}" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_no_monotonicity_trials_is_usage_error(capsys, trials):
    # with no trial the minimum margin reads inf and every kernel a falsification
    with pytest.raises(SystemExit) as exc:
        main(["monotonicity", f"--trials={trials}"])
    assert exc.value.code == 2
    assert f"--trials must be at least 1, got {trials}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["duality", "--metric="],
        ["duality", "--alpha="],
        ["transport-duality", "--alpha="],
        ["metric-table", "--dims="],
        ["flatness", "--dim="],
        ["uniqueness-scan", "--alpha="],
        ["convexity-failure", "--alpha="],
    ],
)
def test_empty_list_option_is_usage_error(capsys, argv):
    # an empty list would run no check, or only the fixed ones, and still pass
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert re.search(rf"{argv[1][:-1]} takes (at least )?one value, got 0", capsys.readouterr().err)


@pytest.mark.parametrize("command", ["uniqueness-scan", "convexity-failure"])
def test_single_valued_alpha_takes_one_value(capsys, command):
    # these checks run one alpha; a list would be echoed in the config but not run
    with pytest.raises(SystemExit) as exc:
        main([command, "--alpha=0.5,0"])
    assert exc.value.code == 2
    assert "--alpha takes one value, got 2" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--samples", "--ordering-samples"])
def test_no_metric_table_samples_is_usage_error(capsys, option):
    # zero samples would report a value of 0 over nothing and pass
    with pytest.raises(SystemExit) as exc:
        main(["metric-table", f"{option}=0"])
    assert exc.value.code == 2
    assert f"{option} must be at least 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("dims", ["1", "2,1", "0"])
def test_metric_table_dims_below_two_is_usage_error(capsys, dims):
    # a 1 x 1 state has no nonzero traceless tangent: the relative deviation divides by 0
    with pytest.raises(SystemExit) as exc:
        main(["metric-table", f"--dims={dims}"])
    assert exc.value.code == 2
    lowest = min(map(int, dims.split(",")))
    assert f"--dims values must be at least 2, got {lowest}" in capsys.readouterr().err


@pytest.mark.parametrize("floor, dim", [("0.3", 4), ("0.5", 2), ("-0.1", 2), ("inf", 2)])
def test_metric_table_infeasible_floor_is_usage_error_before_any_work(calls, capsys, floor, dim):
    # --floor 0.3 computed dims 2 and 3, then failed with "floor 0.3 infeasible for dimension
    # 4", which names no option; every --dims value is checked first
    calls.eig()
    with pytest.raises(SystemExit) as exc:
        main(["metric-table", f"--floor={floor}"])
    assert exc.value.code == 2
    assert (f"--floor must lie in [0, 1/dim) at every --dims value, got {float(floor)!r} "
            f"at --dims {dim}") in capsys.readouterr().err
    assert calls.count("eigh", "eigvalsh") == 0


def test_potential_points_below_the_regression_size_is_usage_error(calls, capsys):
    # the affine regression fits d + 1 coefficients on d = dim^2 coordinates; every dim's
    # grid is checked before any check runs
    calls.watch(potential, "_potential_checks")
    with pytest.raises(SystemExit) as exc:
        main(["potential", "--dim", "2,3", "--points", "7"])
    assert exc.value.code == 2
    assert "--points must be at least 11 at --dim 3, got 7" in capsys.readouterr().err
    assert calls.count("_potential_checks") == 0
    with pytest.raises(SystemExit) as exc:
        main(["potential", "--points", "3"])
    assert exc.value.code == 2
    assert "--points must be at least 6 at --dim 2, got 3" in capsys.readouterr().err


def test_potential_alpha_of_minus_one_is_usage_error_before_any_weight(calls, capsys):
    # the trace potential needs alpha > -1: the run used to draw every grid weight of the dim
    # and then fail with "potential check needs alpha in (-1, 1]", which does not name the option
    calls.watch(cli, "_random_weights")
    with pytest.raises(SystemExit) as exc:
        main(["potential", "--alpha=0.5,-1"])
    assert exc.value.code == 2
    assert "--alpha must lie in (-1, 1], got -1.0" in capsys.readouterr().err
    assert calls.count("_random_weights") == 0


def test_flatness_dim_below_one_is_usage_error(calls, capsys):
    # a 0 x 0 chart has no basis: the scan used to fail with "need at least one array to stack"
    # after scanning the dims before it
    calls.watch(duality, "flatness_scan")
    with pytest.raises(SystemExit) as exc:
        main(["flatness", "--dim=2,0"])
    assert exc.value.code == 2
    assert "--dim values must be at least 1, got 0" in capsys.readouterr().err
    assert calls.count("flatness_scan") == 0


def test_duality_dim_without_witness_families_is_usage_error(calls, capsys):
    # dims 2 and 3 have documented witness families; no grid is built before the check
    calls.watch(duality, "DefectGrid")
    with pytest.raises(SystemExit) as exc:
        main(["duality", "--dim=2,4"])
    assert exc.value.code == 2
    assert "--dim values must be 2 or 3" in capsys.readouterr().err
    assert calls.count("DefectGrid") == 0


def test_duality_unknown_metric_after_a_known_one_is_usage_error_before_any_grid(calls, capsys):
    # every --metric token resolves before any grid is built; "nope" after "wyd" used to fail
    # only once the grids of the first alpha existed
    calls.watch(duality, "DefectGrid")
    with pytest.raises(SystemExit) as exc:
        main(["duality", "--metric", "wyd,nope"])
    assert exc.value.code == 2
    assert "unknown metric 'nope'" in capsys.readouterr().err
    assert calls.count("DefectGrid") == 0


def test_duality_unknown_manifold_is_usage_error_naming_the_option(calls, capsys):
    # the witness-family lookup refused it as "manifold must be 'state', 'weight' or 'both'",
    # naming no option; the runner now checks it next to --dim, before any grid is built
    calls.watch(duality, "DefectGrid")
    with pytest.raises(SystemExit) as exc:
        main(["duality", "--manifold", "spectral"])
    assert exc.value.code == 2
    assert "error: --manifold must be 'state', 'weight' or 'both', got 'spectral'" in (
        capsys.readouterr().err
    )
    assert calls.count("DefectGrid") == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["transport-duality", "--metric", "wyd:1.5"],
         "the exponent of --metric wyd:1.5 must lie in (0, 1), got 1.5"),
        (["transport-duality", "--metric", "bkm,wyd:0"],
         "the exponent of --metric wyd:0 must lie in (0, 1), got 0.0"),
        (["duality", "--metric", "wyd:inf"],
         "the exponent of --metric wyd:inf must lie in (0, 1), got inf"),
    ],
    ids=["1.5", "0-after-bkm", "inf"],
)
def test_wyd_exponent_outside_zero_one_is_usage_error_naming_its_token(
    calls, capsys, argv, message
):
    # the profile refused it as "wyd exponent p must lie in (0, 1), got 1.5", naming no option
    calls.eig()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert calls.count("eigh", "eigvalsh") == 0


def test_potential_dim_below_one_is_usage_error(capsys):
    # a 0 x 0 chart has no basis: the check used to fail with "need at least one array to stack"
    with pytest.raises(SystemExit) as exc:
        main(["potential", "--dim=2,0"])
    assert exc.value.code == 2
    assert "--dim values must be at least 1, got 0" in capsys.readouterr().err


def test_potential_dual_points_above_the_grid_is_usage_error(calls, capsys):
    # the dual check takes the first --dual-points grid points; more would check fewer than
    # the config record says
    calls.watch(potential, "_potential_checks")
    with pytest.raises(SystemExit) as exc:
        main(["potential", "--dual-points", "9", "--points", "7"])
    assert exc.value.code == 2
    assert "--dual-points must be at most the 7 grid points at --dim 2, got 9" in (
        capsys.readouterr().err
    )
    assert calls.count("_potential_checks") == 0


def test_negative_potential_points_is_usage_error(capsys):
    # 0 picks the grid size per dim; below 0 there is no grid
    with pytest.raises(SystemExit) as exc:
        main(["potential", "--points=-1"])
    assert exc.value.code == 2
    assert "--points must be at least 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, owner, work",
    [
        pytest.param(command, owner, work, id=f"{command}-{work}")
        for command, owner, work in (
            ("duality", duality, "DefectGrid"),
            ("transport-duality", duality, "witness_curve"),
            ("flatness", duality, "flatness_scan"),
            ("potential", potential, "_potential_checks"),
        )
    ],
)
def test_alpha_outside_the_closed_interval_is_usage_error_before_any_work(
    calls, capsys, command, owner, work
):
    # every --alpha value is checked first: the run used to finish every case at alpha = 0 and
    # then fail with "alpha must lie in [-1, 1]", which does not name the option
    calls.watch(owner, work)
    with pytest.raises(SystemExit) as exc:
        main([command, "--alpha=0,5"])
    assert exc.value.code == 2
    assert "--alpha must lie in [-1, 1], got 5.0" in capsys.readouterr().err
    assert calls.count(work) == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["metric-table", "--alphas=0,1"], "--alphas must lie strictly inside (-1, 1), got 1.0"),
        (["uniqueness-scan", "--alpha=-1"], "--alpha must lie strictly inside (-1, 1), got -1.0"),
    ],
)
def test_alpha_on_the_boundary_is_usage_error_where_the_order_must_be_interior(
    capsys, argv, message
):
    # metric-table pairs with WYD at p = (1 + alpha)/2 and uniqueness-scan scans orders inside
    # (-1, 1); the error named neither the option nor, for metric-table, the order
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["1", "-1", "1.5"])
def test_convexity_failure_alpha_off_the_open_interval_is_usage_error(capsys, alpha):
    # at |alpha| = 1 the order-alpha connection is an end order (the witness gap reads 0)
    # and BKM is the matched metric: both checks would test a premise that does not hold
    with pytest.raises(SystemExit) as exc:
        main(["convexity-failure", f"--alpha={alpha}"])
    assert exc.value.code == 2
    message = f"--alpha must lie strictly inside (-1, 1), got {float(alpha)!r}"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("dim", ["1", "0"])
def test_entropy_projection_dim_below_two_is_usage_error(capsys, dim):
    # a 1 x 1 state has no traceless observable to project along
    with pytest.raises(SystemExit) as exc:
        main(["entropy-projection", f"--dim={dim}"])
    assert exc.value.code == 2
    assert f"--dim must be at least 2, got {dim}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--observables=0"], "--observables must be at least 1, got 0"),
        (["--observables=-2"], "--observables must be at least 1, got -2"),
        (
            ["--dim=2", "--observables=4"],
            "--observables must be at most dim^2 - 1 = 3 at --dim 2, got 4",
        ),
    ],
)
def test_observables_outside_the_traceless_space_is_usage_error(capsys, argv, message):
    # with no observable there is no family; past dim^2 - 1 they and I are dependent
    with pytest.raises(SystemExit) as exc:
        main(["entropy-projection"] + argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_observables_may_span_the_traceless_space(capsys):
    code, _ = _run(capsys, ["entropy-projection", "--dim=2", "--observables=3", "--instances=1"])
    assert code == 0


@pytest.mark.parametrize(
    "steps, message", [("255", "must be even, got 255"), ("1", "must be at least 2, got 1")]
)
def test_odd_flatness_steps_is_usage_error(capsys, steps, message):
    # the path-dependence transport is Richardson-extrapolated from a half-resolution run
    with pytest.raises(SystemExit) as exc:
        main(["flatness", f"--steps={steps}"])
    assert exc.value.code == 2
    assert f"--steps {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["duality", "transport-duality", "uniqueness-scan"])
def test_gap_below_tol_is_usage_error_before_any_work(calls, capsys, command):
    # a gap below the tol left no inconclusive band, and the run went on: duality read Bures
    # as "pass" at --tol 1 --gap 0.01 (defect 0.158) and exited 0
    calls.eig()
    with pytest.raises(SystemExit) as exc:
        main([command, "--tol", "1", "--gap", "0.01"])
    assert exc.value.code == 2
    assert "--gap must be at least --tol, got --gap 0.01 below --tol 1.0" in (
        capsys.readouterr().err
    )
    assert calls.count("eigh", "eigvalsh") == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["duality", "--metric", "bures", "--alpha", "0", "--dim", "2", "--manifold", "state",
          "--tol=inf", "--gap=inf"], "--tol must be finite and at least 0, got inf"),
        (["duality", "--tol=-1e-9"], "--tol must be finite and at least 0, got -1e-09"),
        (["transport-duality", "--gap=inf"], "--gap must be finite and at least 0, got inf"),
        (["transport-duality", "--tol=-1", "--gap=-0.5"],
         "--tol must be finite and at least 0, got -1.0"),
        (["uniqueness-scan", "--tol", "1e-6", "--gap=inf"],
         "--gap must be finite and at least 0, got inf"),
        (["monotonicity", "--trials", "20", "--margin-tol=inf"],
         "--margin-tol must be finite and at least 0, got inf"),
        (["monotonicity", "--margin-tol=-1e-9"],
         "--margin-tol must be finite and at least 0, got -1e-09"),
    ],
)
def test_bound_outside_zero_to_infinity_is_usage_error_before_any_work(
    calls, capsys, argv, message
):
    # an infinite --tol and --gap read Bures (defect 0.158) as "pass", and an infinite
    # --margin-tol passed every monotonicity trial: each bound must lie in [0, inf)
    calls.eig()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert calls.count("eigh", "eigvalsh") == 0


def test_bounds_at_zero_are_accepted(capsys):
    # tol = gap = 0 is a band with no inconclusive part; every defect above 0 fails
    code, out = _run(capsys, FAST_DUALITY + ["--metric", "bures", "--tol", "0", "--gap", "0"])
    assert code == 1
    assert _parse_jsonl(out)[-1]["verdict"] == "fail"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["duality", "--dim", "2,2"], "each --dim value may be given once, got 2 twice"),
        (["duality", "--alpha=0,-0"], "each --alpha value may be given once, got 0.0 twice"),
        (["duality", "--metric", "bures,rld,BURES"],
         "each --metric value may be given once, got 'bures' twice"),
        (["transport-duality", "--metric", "wyd, wyd"],
         "each --metric value may be given once, got 'wyd' twice"),
        (["metric-table", "--dims", "2,3,2"], "each --dims value may be given once, got 2 twice"),
        (["potential", "--dim", "2,2"], "each --dim value may be given once, got 2 twice"),
        (["flatness", "--alpha=0.5,0.50"],
         "each --alpha value may be given once, got 0.5 twice"),
    ],
)
def test_repeated_list_value_is_usage_error_before_any_work(calls, capsys, argv, message):
    # duality --dim 2,2 emitted every dim-2 case twice, as 12 case records
    calls.eig()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert calls.count("eigh", "eigvalsh") == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["duality", "--metric", "wyd,wyd:0.75", "--alpha", "0.5", "--dim", "2"],
         "--metric wyd and wyd:0.75 both resolve to wyd(p=0.75) at --alpha 0.5"),
        (["duality", "--metric", "wyd:0.75,bures,wyd:0.750", "--alpha", "0"],
         "--metric wyd:0.75 and wyd:0.750 both resolve to wyd(p=0.75) at --alpha 0.0"),
        (["transport-duality", "--metric", "bkm,wyd", "--alpha", "1"],
         "--metric bkm and wyd both resolve to bkm at --alpha 1.0"),
        (["transport-duality", "--metric", "wyd,bkm", "--alpha=0.5,-1"],
         "--metric wyd and bkm both resolve to bkm at --alpha -1.0"),
        # WYD at p and at 1 - p is one metric: both printed the same passing case twice
        (["duality", "--metric", "wyd:0.25,wyd:0.75", "--alpha", "0.5", "--dim", "2",
          "--manifold", "state"],
         "--metric wyd:0.25 and wyd:0.75 both resolve to wyd(p=0.25) = wyd(p=0.75) at --alpha 0.5"),
        (["duality", "--metric", "wyd,wyd:0.25", "--alpha", "0.5", "--dim", "2"],
         "--metric wyd and wyd:0.25 both resolve to wyd(p=0.75) = wyd(p=0.25) at --alpha 0.5"),
        # 1 - 0.8 is 0.19999999999999996 in binary; the key keeps the name's 15 digits
        (["transport-duality", "--metric", "wyd:0.8,wyd:0.2", "--alpha", "0"],
         "--metric wyd:0.8 and wyd:0.2 both resolve to wyd(p=0.8) = wyd(p=0.2) at --alpha 0.0"),
    ],
)
def test_two_metric_tokens_resolving_to_one_metric_is_usage_error_before_any_work(
    calls, capsys, argv, message
):
    # each printed the same case twice: duality wyd,wyd:0.75 at alpha 0.5 two wyd(p=0.75)
    # cases, transport-duality bkm,wyd at alpha 1 two bkm cases
    calls.eig()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert calls.count("eigh", "eigvalsh") == 0


def test_wyd_exponents_apart_in_the_seventh_digit_are_two_metrics(capsys):
    # the name carried six significant digits, so wyd:0.7500001 was refused as a repeat of
    # wyd:0.75; a true repeat still is
    code, out = _run(capsys, ["duality", "--metric", "wyd:0.75,wyd:0.7500001", "--alpha", "0",
                              "--dim", "2", "--manifold", "state"])
    assert code == 1  # neither is the matched metric at alpha 0
    cases = [rec for rec in _parse_jsonl(out) if rec["record"] == "case"]
    assert [rec["metric"] for rec in cases] == ["wyd(p=0.75)", "wyd(p=0.7500001)"]
    assert cases[0]["defect"] != cases[1]["defect"]
    with pytest.raises(SystemExit) as exc:
        main(["duality", "--metric", "wyd:0.75,wyd:0.7500000", "--alpha", "0"])
    assert exc.value.code == 2
    assert ("--metric wyd:0.75 and wyd:0.7500000 both resolve to wyd(p=0.75) at --alpha 0.0"
            in capsys.readouterr().err)


def test_metric_table_names_its_matched_metric_as_duality_does(capsys):
    # metric-table named the kernel-vs-direct metric itself, to six digits: wyd(p=0.561728)
    # at --alphas 0.1234567, where duality names the same metric wyd(p=0.56172835)
    code, out = _run(capsys, ["metric-table", "--dims", "2", "--alphas", "0.1234567",
                              "--samples", "1", "--ordering-samples", "1"])
    assert code == 0
    names = {rec["metric"] for rec in _parse_jsonl(out)
             if rec["record"] == "case" and rec["check"] == "kernel_vs_direct"}
    assert names == {"wyd(p=0.56172835)"}


def test_one_metric_at_two_alphas_is_two_cases(capsys):
    code, out = _run(capsys, ["transport-duality", "--metric", "bkm", "--alpha=-1,1"])
    assert code == 0
    cases = [rec for rec in _parse_jsonl(out) if rec["record"] == "case"]
    assert [(rec["metric"], rec["alpha"]) for rec in cases] == [("bkm", -1), ("bkm", 1)]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["transport-duality", "--tol", "abc"], "--tol must be a number, got 'abc'"),
        (["duality", "--tol", "nan"], "--tol must be a number, got 'nan'"),
        (["duality", "--metric", "wyd:abc"],
         "the exponent of --metric wyd:abc must be a number, got 'abc'"),
        (["metric-table", "--dims", "2,x"], "each --dims value must be an integer, got 'x'"),
        (["metric-table", "--floor", "nan"], "--floor must be a number, got 'nan'"),
        (["monotonicity", "--margin-tol", "1e-9x"], "--margin-tol must be a number, got '1e-9x'"),
    ],
)
def test_number_that_does_not_parse_or_is_nan_is_usage_error_naming_its_option(
    calls, capsys, argv, message
):
    # a bare float() or int() read "could not convert string to float: 'abc'" or "invalid
    # literal for int()", naming no option, and duality --tol nan ran to an inconclusive verdict
    calls.eig()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert calls.count("eigh", "eigvalsh") == 0


@pytest.mark.parametrize(
    "seed, message",
    [
        ("1e3", "--seed must be an integer, got '1e3'"),
        ("abc", "--seed must be an integer, got 'abc'"),
        ("-3", "--seed must be at least 0, got -3"),
    ],
)
@pytest.mark.parametrize("command", list(_COMMANDS))
def test_seed_that_is_not_a_nonnegative_integer_is_usage_error_before_any_work(
    calls, capsys, command, seed, message
):
    # eight runners each parsed --seed, with errors that did not name it, and
    # transport-duality, which draws nothing, ran with --seed abc and exited 0
    calls.eig()
    with pytest.raises(SystemExit) as exc:
        main([command, f"--seed={seed}"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert calls.count("eigh", "eigvalsh") == 0


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_is_usage_error_before_any_work(calls, capsys, tmp_path, where):
    # the run used to do all its work and then die with a FileNotFoundError traceback and
    # exit 1, which reads as "a check failed"
    path = str(tmp_path / "missing" / "out.jsonl" if where == "missing directory" else tmp_path)
    calls.eig()
    with pytest.raises(SystemExit) as exc:
        main(["transport-duality", "--output", path])
    assert exc.value.code == 2
    assert f"--output cannot be written to {path!r}" in capsys.readouterr().err
    assert calls.count("eigh", "eigvalsh") == 0
    assert not (tmp_path / "missing").exists()


# ----------------------------------------------------------------- verdicts


def test_broken_duality_exits_one(capsys):
    code, out = _run(capsys, ["duality", "--metric", "bures", "--alpha", "0", "--dim", "2", "--manifold", "state"])
    assert code == 1
    records = _parse_jsonl(out)
    assert records[-1]["verdict"] == "fail"
    cases = [r for r in records if r["record"] == "case"]
    assert all(r["status"] == "fail" for r in cases)
    assert all(r["defect"] >= 1e-2 for r in cases)


def test_inconclusive_band_exits_three(capsys):
    # an absurdly large falsification gap parks the drift between the bands
    code, out = _run(capsys, ["transport-duality", "--metric", "bures", "--alpha", "0", "--gap", "1e9"])
    assert code == 3
    assert _parse_jsonl(out)[-1]["verdict"] == "inconclusive"


@pytest.mark.parametrize("trials, seed", [("1", "0"), ("3", "1")])
def test_monotonicity_without_a_depolarizing_trial_is_inconclusive(capsys, trials, seed):
    # with no depolarizing trial the strict fraction read 0 / max(0, 1) = 0, and all six
    # operator-monotone kernels failed
    code, out = _run(capsys, ["monotonicity", "--trials", trials, "--seed", seed])
    assert code == 3
    records = _parse_jsonl(out)
    cases = [r for r in records if r["record"] == "case"]
    assert len(cases) == 6
    for rec in cases:
        assert rec["depolarizing_strict_fraction"] is None
        assert rec["min_margin"] > 0.0
        assert rec["status"] == "inconclusive"
    assert records[-1]["verdict"] == "inconclusive"


def test_output_file_replaces_stdout(capsys, tmp_path):
    target = tmp_path / "out.jsonl"
    code = main(FAST_DUALITY + ["--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    records = [json.loads(line) for line in target.read_text().strip().splitlines()]
    assert records[0]["record"] == "config"
    assert records[-1]["record"] == "summary"


# -------------------------------------------------------------- determinism


def test_runs_are_deterministic_up_to_wall_clock(capsys):
    _, first = _run(capsys, FAST_DUALITY)
    _, second = _run(capsys, FAST_DUALITY)
    assert WALL_CLOCK.sub("", first) == WALL_CLOCK.sub("", second)
    assert WALL_CLOCK.search(first) is not None


# sha256 of `qiglab monotonicity --trials 200` stdout with wall_clock_s zeroed, recorded with
# every channel applied in closed form. The digests before that (seed 0: 1247a502...) were
# recorded when each trial still drew its weights with rng.dirichlet and matched the raw
# simplex draws bit for bit, so the draws these rest on are those of the one-matrix samplers
MONOTONICITY_200_SHA256 = {
    0: "9240187cb17e8429bdcc76ad0f39660acbfa0941c94b32bf20c313f91d8acf5e",
    11: "40bd37992c3c78c32c4224803530c45b2ddb4c5e2a9e17a42137880361a627d0",
    12345: "b4525add284641b80b1d7962ea6747f38ffe646e8d73cf906e8ddedcf3404159",
}


@pytest.mark.parametrize("seed", sorted(MONOTONICITY_200_SHA256))
def test_monotonicity_scan_output_bytes_are_pinned(capsys, seed):
    code, out = _run(capsys, ["monotonicity", "--trials", "200", "--seed", str(seed)])
    assert code == 0
    digest = hashlib.sha256(WALL_CLOCK.sub('"wall_clock_s":0', out).encode()).hexdigest()
    assert digest == MONOTONICITY_200_SHA256[seed]


CRITERION_3 = ["duality", "--metric", "bures,rld,wyd:0.75", "--alpha", "0", "--dim", "2",
               "--manifold", "state"]
# the CSV summary row's last field is its wall clock
CSV_WALL_CLOCK = re.compile(r"[^,\n]*\n\Z")

# (exit code, sha256 of stdout with the wall clock zeroed) of the duality and uniqueness-scan
# runs, recorded while the uniqueness scan banded its candidates itself and the defect layer
# carried a metric scale, so moving the verdict into the CLI moved no byte
DEFECT_GRID_SHA256 = {
    ("duality", 0): (0, "4268ced1ad86761473d42be7610baa0a9152573990fcc6369474e3b0d5a4514c"),
    ("duality", 7): (0, "b053d2b0078d0ca0fc4484d7f61759287a497febe2964019b9bfb905078bd73c"),
    ("duality", 12345): (0, "de3b108210388e46b42ebe33c0b4dfbe5ecc7c7ab6bb9e8ee53174616c5560d8"),
    ("duality", 611466783): (0, "bb5a1559bb846e8fc56301e81121f62371dc9b8fba58d38c1a3db98e90feac6d"),
    ("criterion-3", 0): (1, "465b0cccb913d650ec0ae8555d4edde84b8b1b07d179b58a72fc3c19929988c8"),
    ("criterion-3", 7): (1, "4f953855a3c63cd2ac4793c4c9c368b46d8db1b3accc17af4cbfa16d65277ac6"),
    ("criterion-3", 12345): (1, "4f9130eee303ed755f9c3ca1bf84a605ae1354e56b5f696d307a6cd706dbeb74"),
    ("criterion-3", 611466783): (
        1, "a40b26ffac29b3b85013cdcfc86e3578e7a25f056e53fad2414654e7f9c646b0"),
    ("uniqueness-scan", 0): (0, "4f76acd8da55b09262b1351650b3b89864095f34f27916ba679a730d8817be3f"),
    ("uniqueness-scan", 7): (0, "ea7e5d50b5d04a460e48d89e02a42659743c9b1631ba5a48e7fa0432a3e5e792"),
    ("uniqueness-scan", 12345): (
        0, "f4e3f70aefe7cd1afcf809238df9526cea75281ae70894a1ee3d8867a111c577"),
    ("uniqueness-scan", 611466783): (
        0, "2751f3d0c296d62595c9a1f15bb086493b9ccb82a5435417e824c9adda05409f"),
    ("uniqueness-scan-csv", 0): (
        0, "acbaf337b3c2ed08270763a5abe8584cbb183b466adccbde07151aa161a60abb"),
    ("uniqueness-scan-csv", 7): (
        0, "56d1d598d2505fd4881df95e8b0703151bf32f73a36f7fd0f8cc42d5e8141979"),
    ("uniqueness-scan-csv", 12345): (
        0, "f186884cfb3e4de7b695210b1cf6fcdfcdd18f955961b62c7e5aae56235d26ea"),
    ("uniqueness-scan-csv", 611466783): (
        0, "305e27a160e45741123236284b7e18026f678eb006d0cfd1377ed425b943b648"),
}
DEFECT_GRID_ARGVS = {
    "duality": ["duality"],
    "criterion-3": CRITERION_3,
    "uniqueness-scan": ["uniqueness-scan"],
    "uniqueness-scan-csv": ["uniqueness-scan", "--format", "csv"],
}


@pytest.mark.parametrize("run, seed", sorted(DEFECT_GRID_SHA256))
def test_defect_grid_output_bytes_are_pinned(capsys, run, seed):
    argv = DEFECT_GRID_ARGVS[run]
    code, out = _run(capsys, argv + ["--seed", str(seed)])
    zeroed = CSV_WALL_CLOCK.sub("0\n", out) if "csv" in argv else WALL_CLOCK.sub(
        '"wall_clock_s":0', out)
    assert (code, hashlib.sha256(zeroed.encode()).hexdigest()) == DEFECT_GRID_SHA256[run, seed]


def test_only_the_cli_turns_a_value_into_a_band():
    # one status rule: the library measures, and cli alone bands; a second caller of
    # bands.band would be a second place where a verdict is decided
    users = set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "bands":
                if any(alias.name == "band" for alias in node.names):
                    users.add(path.stem)
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "band":
                    users.add(path.stem)
    assert users == {"cli"}


def test_readme_example_is_current(capsys):
    # the README's example session is this exact command and output
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    prompt = "$ qiglab " + " ".join(FAST_DUALITY) + "\n"
    assert prompt in readme
    expected = readme.split(prompt, 1)[1].splitlines()[:3]
    code, out = _run(capsys, FAST_DUALITY)
    got = out.splitlines()
    assert code == 0
    assert '"defect":8.1878948066105295e-16' in expected[1]
    assert got[:2] == expected[:2]
    assert WALL_CLOCK.sub("", got[2]) == WALL_CLOCK.sub("", expected[2])


def test_negative_list_values_use_equals_form(capsys):
    code, out = _run(capsys, ["duality", "--metric", "bkm", "--alpha=-1,1", "--dim", "2", "--manifold", "state", "--points", "2"])
    assert code == 0
    alphas = {rec["alpha"] for rec in _parse_jsonl(out) if rec["record"] == "case"}
    assert alphas == {-1.0, 1.0}


# -------------------------------------------------------------------- help


def _help_text(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_help_lists_every_subcommand_and_its_options(capsys):
    listed = _help_text(capsys, ["--help"])
    for name in _COMMANDS:
        assert re.search(rf"^\s+{re.escape(name)}\s", listed, re.MULTILINE), name
    for name, entry in _COMMANDS.items():
        text = _help_text(capsys, [name, "--help"])
        for key in ["seed", "config", "format", "output", *entry.defaults]:
            assert f"--{key.replace('_', '-')}" in text, (name, key)


def _subcommand_parsers(command) -> dict:
    (subparsers,) = [a for a in _build_parser(command)._actions if a.dest == "command"]
    return subparsers


def test_parser_builds_the_invoked_subcommand_only():
    subparsers = _subcommand_parsers("potential")
    assert list(subparsers.choices) == ["potential"]
    actions = subparsers.choices["potential"]._actions
    options = {opt for action in actions for opt in action.option_strings}
    assert {"--dual-points", "--seed"} <= options
    # no subcommand named: every subcommand with its help line, none with options
    for command in (None, "bogus"):
        subparsers = _subcommand_parsers(command)
        assert list(subparsers.choices) == list(_COMMANDS)
        assert [a.help for a in subparsers._choices_actions] == [
            entry.help for entry in _COMMANDS.values()
        ]
        for sub in subparsers.choices.values():
            assert [a.option_strings for a in sub._actions] == [["-h", "--help"]]


def _outcome(capsys, argv) -> tuple:
    """(exit code, stdout with wall_clock_s zeroed, stderr) of one in-process run."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, WALL_CLOCK.sub('"wall_clock_s":0', captured.out), captured.err


def test_parser_is_built_once_per_command_and_reads_the_same_each_run(capsys):
    # a defect-grid op made four parsers, one per run; now a run reuses its command's parser,
    # and every word that names no command shares the one listing every subcommand
    _build_parser.cache_clear()
    argvs = [FAST_DUALITY, FAST_DUALITY + ["--metric", "bogus"], ["duality", "--help"],
             ["--help"], ["bogus"], []]
    first = [_outcome(capsys, argv) for argv in argvs]
    assert [code for code, _, _ in first] == [0, 2, 0, 0, 2, 2]
    assert [_outcome(capsys, argv) for argv in argvs] == first
    info = _build_parser.cache_info()
    assert (info.misses, info.hits) == (2, 2 * len(argvs) - 2)


def test_unknown_command_is_usage_error_naming_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    choices = ", ".join(repr(name) for name in _COMMANDS)
    err = capsys.readouterr().err
    assert f"argument COMMAND: invalid choice: 'bogus' (choose from {choices})" in err


# ------------------------------------------------------------- fixed bounds

# Options the CLI does not take, with the value each has as a literal at its one use.
REMOVED_OPTIONS = [
    ("metric-table", "tol", "1e-8"),
    ("transport-duality", "steps", "256"),
    ("potential", "tol", "1e-5"),
    ("potential", "regression_tol", "1e-6"),
    ("potential", "legendre_tol", "1e-5"),
    ("monotonicity", "strict_fraction", "0.99"),
    ("flatness", "tol", "1e-6"),
    ("flatness", "witness_tol", "1e-3"),
    ("convexity-failure", "classical_tol", "1e-8"),
    ("convexity-failure", "witness_tol", "1e-4"),
    ("convexity-failure", "fisher_tol", "1e-9"),
    ("convexity-failure", "gap", "1e-2"),
    ("entropy-projection", "tol", "1e-9"),
    ("entropy-projection", "mean_tol", "1e-7"),
    ("entropy-projection", "orthogonality_tol", "1e-6"),
    ("entropy-projection", "taylor_t", "1e-2"),
    ("entropy-projection", "taylor_tol", "1e-4"),
]


def test_subcommand_table_holds_33_options():
    assert [len(entry.defaults) for entry in _COMMANDS.values()] == [5, 7, 4, 4, 4, 2, 3, 1, 3]


@pytest.mark.parametrize(
    "command, key, value", [pytest.param(*o, id=f"{o[0]}-{o[1]}") for o in REMOVED_OPTIONS]
)
def test_removed_option_is_refused_on_the_command_line_and_in_a_config(
    calls, capsys, tmp_path, command, key, value
):
    # none of them was validated: convexity-failure --fisher-tol inf exited 0, and
    # entropy-projection --taylor-t 0 read a gap of 0 and passed
    assert key not in _COMMANDS[command].defaults
    calls.eig()
    with pytest.raises(SystemExit) as exc:
        main([command, f"--{key.replace('_', '-')}={value}"])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key.replace('_', '-')} = {value}\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg)])
    assert exc.value.code == 2
    assert f"config key {key!r} is not an option of {command!r}" in capsys.readouterr().err
    assert calls.count("eigh", "eigvalsh") == 0


def _stub(value):
    return lambda *args, **kwargs: value


def _potential_reports(field, v):
    """_potential_checks' one (grid, dual) pair of reports, for one alpha, with ``field`` at v
    and every other residual 0."""
    report = SimpleNamespace(**{"residual": 0.0, "gradient_residual": 0.0,
                                "jacobian_residual": 0.0, "legendre_residual": 0.0, field: v})
    return [(report, report)]


def _projections(mean_residual, orthogonality_residual):
    return [SimpleNamespace(converged=True, iterations=1, mean_residual=mean_residual,
                            orthogonality_residual=orthogonality_residual,
                            relative_entropy_value=0.0)]


def _strict_fraction_rows(v):
    return [{"metric": "bkm", "trials": 1, "min_margin": 0.0, "depolarizing_strict_fraction": v,
             "regularized": 0, "inconclusive": 0}]


# (argv, owner, the checking function the runner calls, its stubbed return value at v, the
# field and value that pick the case, the bound, "upper" for a value that passes up to the
# bound or "lower" for one that passes from it on); potential's 1e-5 bounds two residuals
FIXED_BOUNDS = {
    "metric-table-kernel_vs_direct": (
        ["metric-table", "--dims", "2", "--alphas", "0", "--samples", "1",
         "--ordering-samples", "1"],
        consistency, "kernel_direct_consistency",
        lambda v: [{"dim": 2, "alpha": 0.0, "max_rel_dev": v, "samples": 1}],
        ("check", "kernel_vs_direct"), 1e-8, "upper"),
    "metric-table-ordering": (
        ["metric-table", "--dims", "2", "--alphas", "0", "--samples", "1",
         "--ordering-samples", "1"],
        consistency, "_ordering_violations", lambda v: [v],
        ("check", "ordering_bures<=f<=rld"), 1e-10, "upper"),
    "potential-hessian": (
        ["potential", "--alpha", "0"], potential, "_potential_checks",
        lambda v: _potential_reports("residual", v), ("alpha", 0), 1e-5, "upper"),
    "potential-gradient": (
        ["potential", "--alpha", "0"], potential, "_potential_checks",
        lambda v: _potential_reports("gradient_residual", v), ("alpha", 0), 1e-6, "upper"),
    "potential-jacobian": (
        ["potential", "--alpha", "0"], potential, "_potential_checks",
        lambda v: _potential_reports("jacobian_residual", v), ("alpha", 0), 1e-5, "upper"),
    "potential-legendre": (
        ["potential", "--alpha", "0"], potential, "_potential_checks",
        lambda v: _potential_reports("legendre_residual", v), ("alpha", 0), 1e-5, "upper"),
    "monotonicity-strict_fraction": (
        ["monotonicity"], monotonicity, "monotonicity_scan", _strict_fraction_rows,
        ("metric", "bkm"), 0.99, "lower"),
    "flatness-affine_chart": (
        ["flatness", "--alpha", "0"], duality, "flatness_scan", lambda v: v,
        ("check", "affine_chart_flatness(dim=2)"), 1e-6, "upper"),
    "flatness-path_dependence": (
        ["flatness", "--alpha", "0"], duality, "path_dependence_witness", lambda v: v,
        ("check", "projected_transport_path_dependence"), 1e-3, "lower"),
    "convexity-failure-diagonal_family": (
        ["convexity-failure"], duality, "convexity_failure_check",
        lambda v: SimpleNamespace(max_difference=v), ("check", "diagonal_family_identity"),
        1e-8, "upper"),
    "convexity-failure-noncommuting_witness": (
        ["convexity-failure"], duality, "convexity_failure_check",
        lambda v: SimpleNamespace(max_difference=v), ("check", "noncommuting_witness_gap"),
        1e-4, "lower"),
    "convexity-failure-classical_fisher": (
        ["convexity-failure"], duality, "classical_reduction_check",
        lambda v: {"max_fisher_dev": v, "max_alpha_dev": 0.0},
        ("check", "classical_fisher_reduction"), 1e-9, "upper"),
    "convexity-failure-bkm_not_dual": (
        ["convexity-failure"], duality, "duality_defect", lambda v: SimpleNamespace(defect=v),
        ("check", "bkm_not_dual_at_alpha"), FALSIFICATION_GAP, "lower"),
    "entropy-projection-newton": (
        ["entropy-projection", "--instances", "1"], gibbs, "entropy_projections",
        lambda v: _projections(v, 0.0), ("instance", 0), 1e-9, "upper"),
    "entropy-projection-orthogonality": (
        ["entropy-projection", "--instances", "1"], gibbs, "entropy_projections",
        lambda v: _projections(0.0, v), ("instance", 0), 1e-6, "upper"),
    "entropy-projection-mean": (
        ["entropy-projection", "--instances", "1"], gibbs, "entropy_projections",
        lambda v: _projections(v, 0.0), ("instance", -1), 1e-7, "upper"),
    "entropy-projection-taylor": (
        ["entropy-projection", "--instances", "1"], gibbs, "relative_entropy_curvature_gap",
        lambda v: v, ("instance", -2), 1e-4, "upper"),
}


@pytest.mark.parametrize("name", list(FIXED_BOUNDS))
def test_fixed_bound_passes_at_its_value_and_fails_one_ulp_past_it(capsys, monkeypatch, name):
    # pins each literal: a value at the bound passes, the next float on the failing side fails
    argv, owner, function, returns, (field, pick), bound, side = FIXED_BOUNDS[name]
    past = np.nextafter(bound, np.inf if side == "upper" else -np.inf)
    for value, status in ((bound, "pass"), (float(past), "fail")):
        monkeypatch.setattr(owner, function, _stub(returns(value)))
        main(argv)
        cases = [rec for rec in _parse_jsonl(capsys.readouterr().out)
                 if rec["record"] == "case" and rec.get(field) == pick]
        assert len(cases) == 1, cases
        assert cases[0]["status"] == status, (value, cases[0])


# ---------------------------------------------------------- subcommand table


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_case_records_fit_their_csv_columns(capsys, name):
    # CSV writes the table's columns only, so a case field missing from them would be dropped;
    # each case's keys follow the columns in order, from record to status
    columns = list(_COMMANDS[name].columns)
    assert columns[0] == "record" and columns[-1] == "status"
    main([name, "--seed", "0"])
    cases = [rec for rec in _parse_jsonl(capsys.readouterr().out) if rec["record"] == "case"]
    assert cases
    for rec in cases:
        assert list(rec) == [key for key in columns if key in rec], rec


# ------------------------------------------------------------- decompositions


def test_metric_table_decomposes_each_base_point_once(calls, capsys):
    # two samples of the one (dim, alpha), the demo point and three ordering samples: one
    # stacked decomposition per group, whose Spectrum serves every metric evaluated there
    calls.eig()
    argv = ["metric-table", "--dims", "2", "--alphas", "0", "--samples", "2"]
    assert main(argv + ["--ordering-samples", "3"]) == 0
    capsys.readouterr()
    assert (calls.count("eigh"), calls.count("eigvalsh")) == (1 + 1 + 1, 0)
    assert calls.matrices("eigh") == 2 + 1 + 3


# Most numpy eigh + eigvalsh calls each subcommand may make at its defaults and seed 0.
# A change that decomposes less lowers its row; a new subcommand adds one.
EIG_BUDGET = {
    "transport-duality": 2,
    "flatness": 9,
    "metric-table": 19,
    "duality": 4,
    "potential": 7,
    "uniqueness-scan": 2,
    "monotonicity": 6,
    "convexity-failure": 5,
    "entropy-projection": 8,
}


def test_eig_budget_covers_every_subcommand():
    assert set(EIG_BUDGET) == set(_COMMANDS)


@pytest.mark.parametrize("command, budget", EIG_BUDGET.items())
def test_subcommand_stays_within_its_eig_budget(calls, capsys, command, budget):
    calls.eig()
    assert main([command, "--seed", "0"]) == 0
    capsys.readouterr()
    assert calls.count("eigh", "eigvalsh") <= budget


@pytest.mark.parametrize("dim", ["2", "3"])
def test_potential_makes_as_many_jets_and_eighs_for_four_alphas_as_for_one(calls, capsys, dim):
    # every alpha's grid, stencil and Legendre solve share one chart jet per step: the weights'
    # affine coordinates, the grid jet, the stencil jet and one jet per Newton evaluation. The
    # solve evaluates until its slowest row converges: alpha = 0.5 alone takes 4 passes, as
    # the slowest of the four does; alpha = 0 alone, whose potential is quadratic in xi, stops
    # after 2 and so makes 2 jets fewer
    calls.eig()
    calls.watch(ParametrizedFamily, "jet")
    counts = {}
    for alphas in ("0.5", "-0.5,0,0.5,1", "0"):
        calls.clear()
        assert main(["potential", f"--alpha={alphas}", "--dim", dim]) == 0
        capsys.readouterr()
        counts[alphas] = (calls.count("jet"), calls.count("eigh", "eigvalsh"))
    assert counts == {"0.5": (6, 7), "-0.5,0,0.5,1": (6, 7), "0": (4, 5)}


def _newton_passes(monkeypatch) -> list:
    """The iteration counts of every Legendre solve from here on, one list per run."""
    runs = []
    newton = potential._damped_newton

    def logged(*args, **kwargs):
        out = newton(*args, **kwargs)
        runs.append(out[-1].tolist())
        return out

    monkeypatch.setattr(potential, "_damped_newton", logged)
    return runs


def test_potential_legendre_solve_does_not_stall_at_seed_13(calls, capsys, monkeypatch):
    # at seed 13, alpha = -0.5, one row's predicted decrease fell below the objective's
    # rounding: its step halved toward 1e-12 for 11 passes and the run made 232 eigh and
    # eigvalsh calls, where seed 0 made 115
    runs = _newton_passes(monkeypatch)
    counts = []
    calls.eig()
    for seed in ("0", "13"):
        calls.clear()
        assert main(["potential", "--seed", seed]) == 0
        capsys.readouterr()
        counts.append(calls.count("eigh", "eigvalsh"))
    assert counts[1] <= counts[0] + 6
    assert max(max(run) for run in runs) <= 5


def test_potential_legendre_solve_does_not_stall_at_seed_193(calls, capsys, monkeypatch):
    # at seed 193, alpha = -0.5, the trace potential read up to about 8 ulps off, so a full
    # step whose predicted decrease was 4 to 16 ulps could be rejected: that row took 6 Newton
    # passes, and the run made 61 eigh and eigvalsh calls where seed 0 made 47
    runs = _newton_passes(monkeypatch)
    counts = []
    calls.eig()
    for seed in ("0", "193"):
        calls.clear()
        assert main(["potential", "--seed", seed]) == 0
        capsys.readouterr()
        counts.append(calls.count("eigh", "eigvalsh"))
    assert counts[1] == counts[0]
    assert max(max(run) for run in runs) <= 4


@pytest.mark.parametrize(
    "argv, built, never",
    [
        (["duality", "--manifold", "state"], "qubit_bloch_family", "qubit_weight_family"),
        (["duality", "--manifold", "weight"], "qutrit_weight_family", "qutrit_state_family"),
        (["uniqueness-scan"], "qutrit_state_family", "qutrit_weight_family"),
    ],
)
def test_runs_build_only_the_witness_families_they_use(capsys, monkeypatch, argv, built, never):
    made = []

    def counted(name):
        family = getattr(duality, name)

        def build():
            made.append(name)
            return family()

        return build

    for name in (built, never):
        monkeypatch.setattr(duality, name, counted(name))
    assert main(argv) == 0
    capsys.readouterr()
    assert built in made and never not in made


def test_grid_weights_equal_one_random_weight_at_a_time():
    # potential's grids: every alpha's weights, each alpha from its own rng, in one stacked call
    seeds = ([4, 2, 500], [4, 2, 1000], [4, 2, 1500])
    stacked = _random_weights([rng_from(seed) for seed in seeds], 7, 3, 0.7, 1.5)
    one_at_a_time = []
    for seed in seeds:
        rng = rng_from(seed)
        one_at_a_time += [random_weight(rng, 3, 0.7, 1.5) for _ in range(7)]
    np.testing.assert_array_equal(stacked, one_at_a_time)


@pytest.mark.parametrize("dim, n_obs", [(3, 2), (4, 3)])
def test_projection_instances_equal_the_one_at_a_time_draws(dim, n_obs):
    # entropy-projection's instances: instance k draws from rng_from([seed, k])
    states, observables = _states_with_tangents((rng_from([7, k]) for k in range(5)), dim, 0.05,
                                                n_obs)
    for k in range(5):
        rng = rng_from([7, k])
        np.testing.assert_array_equal(states[k], random_state(rng, dim, floor=0.05))
        for y in observables[k]:
            np.testing.assert_array_equal(y, random_traceless_hermitian(rng, dim))


def test_projection_instances_keep_the_state_floor_check():
    with pytest.raises(ValueError, match="floor 0.05 infeasible for dimension 20"):
        _states_with_tangents((rng_from([0, k]) for k in range(2)), 20, 0.05, 1)


@pytest.mark.parametrize("command, qrs", [("potential", 1), ("entropy-projection", 2)])
def test_random_draws_build_in_one_qr_per_stack(calls, capsys, command, qrs):
    # potential: one stacked QR per dim for every alpha's grid; entropy-projection: one for the
    # instances' states and one for the expansion check's state
    calls.watch(np.linalg, "qr")
    assert main([command, "--seed", "0"]) == 0
    capsys.readouterr()
    assert calls.count("qr") == qrs
