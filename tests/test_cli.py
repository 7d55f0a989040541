import copy
import csv
import hashlib
import json
import math
from pathlib import Path

import pytest

import kpplab
from kpplab import FrontFit, cli
from kpplab.cli import main, parse_config, run
from kpplab.errors import ConfigError
from kpplab.kernels import KERNEL_FAMILIES, PARAM_KEYS
from kpplab.model import LAW_FAMILIES, MOTION_FAMILIES
from kpplab.plotting import plot

BROWNIAN_OFFSPRING = {
    "motion": {"family": "brownian"},
    "law": {"family": "offspring_at_parent", "probs": {"2": 1.0}},
}
JUMP_GAUSSIAN = {
    "motion": {"family": "pure_jump", "kernel": {"family": "gaussian", "sigma": 1.0}},
    "law": {"family": "binary_at_parent"},
}
IMMOBILE_OFFSPRING = {
    "motion": {"family": "constant"},
    "law": {"family": "offspring_at_parent", "probs": {"0": 0.2, "2": 0.8}},
}


def _run_cli(tmp_path, config, name="run", seed=None):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / name
    argv = ["--config", str(cfg_path), "--output", str(out_dir)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    code = main(argv)
    return code, out_dir


class TestSpeedCommand:
    def test_brownian_offspring_speed(self, tmp_path):
        code, out = _run_cli(tmp_path, {"command": "speed", "model": BROWNIAN_OFFSPRING})
        assert code == 0
        payload = json.loads((out / "speed.json").read_text())
        assert payload["c_star"] == pytest.approx(1.414214, abs=1e-6)
        assert (out / "manifest.json").exists()

    def test_kernel_on_brownian_reads_as_jump_diffusion(self, tmp_path):
        model = _with(JUMP_GAUSSIAN, "/motion/family", "brownian")
        code, out = _run_cli(tmp_path, {"command": "speed", "model": model})
        assert code == 0
        payload = json.loads((out / "speed.json").read_text())
        # psi(lam) = lam^2 / 2 + exp(lam^2 / 2): the Brownian part plus the jumps
        lam = payload["lambda_star"]
        psi = 0.5 * lam * lam + math.exp(0.5 * lam * lam)
        assert payload["c_star"] == pytest.approx(psi / lam, rel=1e-12)
        assert parse_config({"command": "speed", "model": model}).model.to_dict() == model

    def test_malformed_motion_family(self, tmp_path):
        bad = {"command": "speed", "model": {"motion": {"family": "warp"}, "law": {"family": "binary_at_parent"}}}
        code, _ = _run_cli(tmp_path, bad)
        assert code == 1
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert err.value.pointer == "/model/motion/family"

    def test_reproducible_checksums(self, tmp_path):
        cfg = {
            "command": "simulate",
            "model": JUMP_GAUSSIAN,
            "seed": 7,
            "params": {"t_max": 1.0, "record_times": [1.0], "replicas": 50},
        }
        code1, out1 = _run_cli(tmp_path, cfg, "a")
        code2, out2 = _run_cli(tmp_path, cfg, "b")
        assert code1 == code2 == 0
        m1 = json.loads((out1 / "manifest.json").read_text())["outputs"]
        m2 = json.loads((out2 / "manifest.json").read_text())["outputs"]
        assert m1 == m2


class TestAssumptionsCommand:
    def test_passing_model(self, tmp_path):
        code, out = _run_cli(tmp_path, {"command": "assumptions", "model": JUMP_GAUSSIAN})
        assert code == 0
        payload = json.loads((out / "assumptions.json").read_text())
        assert payload["all_passed"] is True

    def test_failing_model_exits_two(self, tmp_path):
        code, out = _run_cli(tmp_path, {"command": "assumptions", "model": IMMOBILE_OFFSPRING})
        assert code == 2
        payload = json.loads((out / "assumptions.json").read_text())
        assert payload["non_lattice"]["passed"] is False


class TestSimulateCommand:
    def test_outputs_and_seed_override(self, tmp_path):
        cfg = {
            "command": "simulate",
            "model": BROWNIAN_OFFSPRING,
            "seed": 1,
            "params": {"t_max": 2.0, "record_times": [1.0, 2.0], "replicas": 40},
        }
        code, out = _run_cli(tmp_path, cfg, seed=99)
        assert code == 0
        minima = (out / "minima.csv").read_text().splitlines()
        assert minima[0] == "replica,t,m_t,extinct"
        assert len(minima) == 1 + 2 * 40
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 99
        assert "martingales.csv" in manifest["outputs"]
        assert (out / "martingales.svg").exists()

    def test_missing_seed_rejected(self, tmp_path):
        cfg = {
            "command": "simulate",
            "model": BROWNIAN_OFFSPRING,
            "params": {"t_max": 1.0, "replicas": 5},
        }
        code, _ = _run_cli(tmp_path, cfg)
        assert code == 1


class TestSolveCommand:
    def test_front_artifacts(self, tmp_path):
        cfg = {
            "command": "solve",
            "model": JUMP_GAUSSIAN,
            "params": {
                "grid": {"x_min": -24.0, "x_max": 40.0, "n_points": 1024},
                "t_max": 10.0,
                "dt": 0.1,
                "front_interval": 0.5,
                "fit_window": [2.0, 10.0],
            },
        }
        code, out = _run_cli(tmp_path, cfg)
        assert code == 0
        front = (out / "front.csv").read_text().splitlines()
        assert front[0].startswith("# {")
        assert "fit" in json.loads(front[0][1:])
        assert front[1] == "t,m_half"
        assert (out / "front.svg").exists()
        assert (out / "field.svg").exists()


class TestCompareCommand:
    def test_cross_validation_passes(self, tmp_path):
        cfg = {
            "command": "compare",
            "model": JUMP_GAUSSIAN,
            "seed": 4,
            "params": {
                "grid": {"x_min": -12.0, "x_max": 12.0, "n_points": 512},
                "t": 1.0,
                "replicas": 20000,
                "threshold": 0.02,
            },
        }
        code, out = _run_cli(tmp_path, cfg)
        assert code == 0
        payload = json.loads((out / "compare.json").read_text())
        assert payload["passed"] is True
        assert payload["sup_dist"] <= 0.02


class TestReportCommand:
    def test_empty_report(self, tmp_path):
        code, out = _run_cli(tmp_path, {"command": "report", "run_dirs": []})
        assert code == 0
        text = (out / "report.md").read_text()
        assert text.startswith("# Run report")

    def test_single_pass_row(self, tmp_path):
        _, speed_out = _run_cli(tmp_path, {"command": "speed", "model": BROWNIAN_OFFSPRING}, "s")
        code, out = _run_cli(
            tmp_path, {"command": "report", "run_dirs": [str(speed_out)]}, "rep"
        )
        assert code == 0
        assert "PASS" in (out / "report.md").read_text()

    def test_mixed_results_exit_two_and_incomplete_rows(self, tmp_path):
        _, ok_out = _run_cli(tmp_path, {"command": "speed", "model": BROWNIAN_OFFSPRING}, "ok")
        _, bad_out = _run_cli(
            tmp_path, {"command": "assumptions", "model": IMMOBILE_OFFSPRING}, "bad"
        )
        missing = tmp_path / "nothing-here"
        code, out = _run_cli(
            tmp_path,
            {"command": "report", "run_dirs": [str(ok_out), str(bad_out), str(missing)]},
            "rep2",
        )
        assert code == 2
        text = (out / "report.md").read_text()
        assert "PASS" in text and "FAIL" in text and "INCOMPLETE" in text

    def test_incomplete_run_alone_exits_two(self, tmp_path):
        missing = tmp_path / "never-ran"
        code, out = _run_cli(tmp_path, {"command": "report", "run_dirs": [str(missing)]})
        assert code == 2
        assert "INCOMPLETE" in (out / "report.md").read_text()


class TestPlot:
    def test_profile_polyline(self):
        svg = plot("profile", [0.0, 1.0, 2.0], {"profile": [0.1, 0.6, 0.9]})
        assert svg.count("<polyline") == 1
        assert "</svg>" in svg

    def test_front_with_fit_overlay(self):
        ts = [float(t) for t in range(1, 21)]
        ms = [1.5 * t - math.log(t) + 0.5 for t in ts]
        svg = plot("front", ts, ms, FrontFit(1.5, -1.0, 0.5, -1.5))
        assert "<circle" in svg
        assert svg.count("<polyline") == 1  # the fit overlay

    def test_martingale_means(self):
        rows = [(rep, n, 1.0 + 0.1 * rep, 0.2 * n) for rep in range(3) for n in range(4)]
        svg = plot("martingale", rows)
        assert svg.count("<polyline") == 2


def _svg_from_csv(path: Path) -> str:
    """Draw a CSV artifact again from its columns, read back with ``csv``."""
    lines = path.read_text().splitlines()
    meta = json.loads(lines.pop(0)[1:]) if lines[0].startswith("#") else {}
    records = list(csv.DictReader(lines))

    def col(key):
        return [float(r[key]) for r in records]

    if path.name == "field.csv":
        return plot("profile", col("x"), {"profile": col("value")})
    if path.name == "front.csv":
        fit = FrontFit(**meta["fit"], expected_log_slope=math.nan) if "fit" in meta else None
        return plot("front", col("t"), col("m_half"), fit)
    if path.name == "profiles.csv":
        series = {}
        for r in records:
            series.setdefault(r["source"], []).append(float(r["value"]))
        return plot("profile", [float(r["x"]) for r in records if r["source"] == "pde"], series)
    rows = [(int(r["replica"]), int(r["n"]), float(r["W_n"]), float(r["D_n"])) for r in records]
    return plot("martingale", rows)


ARTIFACT_RUNS = {
    "simulate": (
        {
            "command": "simulate",
            "model": JUMP_GAUSSIAN,
            "seed": 7,
            "params": {"t_max": 2.0, "record_times": [1.0, 2.0], "replicas": 20},
        },
        ["martingales.csv"],
    ),
    "solve-fit": (
        {
            "command": "solve",
            "model": JUMP_GAUSSIAN,
            "params": {
                "grid": {"x_min": -16.0, "x_max": 24.0, "n_points": 256},
                "t_max": 6.0,
                "dt": 0.1,
                "fit_window": [1.0, 6.0],
            },
        },
        ["field.csv", "front.csv"],
    ),
    "compare": (
        {
            "command": "compare",
            "model": JUMP_GAUSSIAN,
            "seed": 3,
            "params": {
                "grid": {"x_min": -8.0, "x_max": 8.0, "n_points": 64},
                "t": 1.0,
                "replicas": 500,
                "threshold": 1.0,
            },
        },
        ["profiles.csv"],
    ),
}


@pytest.mark.parametrize("config,csvs", ARTIFACT_RUNS.values(), ids=list(ARTIFACT_RUNS))
def test_svgs_are_their_csv_columns_and_checksums_their_files(tmp_path, config, csvs):
    code, out = _run_cli(tmp_path, config)
    assert code == 0
    for name in csvs:
        csv_path = out / name
        assert csv_path.with_suffix(".svg").read_text() == _svg_from_csv(csv_path)
    if config["command"] == "solve":
        assert "fit" in json.loads((out / "front.csv").read_text().splitlines()[0][1:])
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert sorted(outputs) == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    for name, digest in outputs.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_solve_without_front_records_writes_no_front_svg(tmp_path):
    code, out = _run_cli(tmp_path, _with(SOLVE, "/params/t_max", 0.0))
    assert code == 0
    assert (out / "front.csv").read_text().splitlines()[1:] == ["t,m_half"]
    assert not (out / "front.svg").exists()
    assert (out / "field.svg").exists()


def test_run_accepts_parsed_config(tmp_path, jump_gaussian_binary):
    cfg = {"command": "speed", "model": JUMP_GAUSSIAN}
    code = run(cfg, tmp_path / "direct")
    assert code == 0
    payload = json.loads((tmp_path / "direct" / "speed.json").read_text())
    assert payload["lambda_star"] == pytest.approx(1.0, abs=1e-8)
    assert payload["lambda0"] is None  # unbounded edge serialized as null


def test_schema_families_match_model_constants():
    schema = json.loads(Path(cli.__file__).with_name("schema.json").read_text())
    model = schema["properties"]["model"]["properties"]
    assert model["motion"]["properties"]["family"]["enum"] == list(MOTION_FAMILIES)
    assert model["law"]["properties"]["family"]["enum"] == list(LAW_FAMILIES)
    kernel = schema["$defs"]["kernel"]
    assert kernel["properties"]["family"]["enum"] == list(KERNEL_FAMILIES)
    required = {b["properties"]["family"]["const"]: b["required"] for b in kernel["oneOf"]}
    assert required == {**{f: [key] for f, key in PARAM_KEYS.items()}, "tabulated": ["x", "density"]}


SIMULATE = {
    "command": "simulate",
    "model": BROWNIAN_OFFSPRING,
    "seed": 1,
    "params": {"t_max": 1.0, "replicas": 2},
}
SOLVE = {
    "command": "solve",
    "model": JUMP_GAUSSIAN,
    "params": {"grid": {"x_min": -8.0, "x_max": 8.0, "n_points": 64}, "t_max": 1.0},
}
COMPARE = {
    "command": "compare",
    "model": JUMP_GAUSSIAN,
    "seed": 1,
    "params": {"grid": {"x_min": -8.0, "x_max": 8.0, "n_points": 64}, "t": 1.0, "replicas": 2},
}
SPEED_JUMP = {"command": "speed", "model": JUMP_GAUSSIAN}
_ABSENT = object()


def _with(base, pointer, value):
    """A copy of ``base`` with the value at a JSON pointer set (or removed)."""
    cfg = copy.deepcopy(base)
    *path, last = pointer.strip("/").split("/")
    node = cfg
    for key in path:
        node = node[key]
    if value is _ABSENT:
        del node[last]
    else:
        node[last] = value
    return cfg


TABULATED_XS = {"family": "tabulated", "x": ["a", "b"], "density": [1.0, 1.0]}
GAUSS = {"family": "gaussian", "sigma": 1.0}
DISPLACED_PROBS = {"family": "binary_one_displaced", "kernel": GAUSS, "probs": {"2": 1.0}}

MALFORMED = [
    ("probs-key", _with(SIMULATE, "/model/law/probs", {"two": 1.0}), "/model/law/probs/two"),
    ("probs-string", _with(SIMULATE, "/model/law/probs/2", "x"), "/model/law/probs/2"),
    ("probs-null", _with(SIMULATE, "/model/law/probs/2", None), "/model/law/probs/2"),
    ("tabulated-x", _with(SPEED_JUMP, "/model/motion/kernel", TABULATED_XS), "/model/motion/kernel/x"),
    ("sigma-bool", _with(SPEED_JUMP, "/model/motion/kernel/sigma", True), "/model/motion/kernel/sigma"),
    ("sigma-negative", _with(SPEED_JUMP, "/model/motion/kernel/sigma", -1), "/model/motion/kernel/sigma"),
    ("motion-family", _with(SPEED_JUMP, "/model/motion/family", "warp"), "/model/motion/family"),
    ("constant-kernel", _with(SPEED_JUMP, "/model/motion/family", "constant"), "/model/motion/kernel"),
    ("binary-kernel", _with(SPEED_JUMP, "/model/law/kernel", GAUSS), "/model/law/kernel"),
    ("offspring-kernel", _with(SIMULATE, "/model/law/kernel", GAUSS), "/model/law/kernel"),
    ("binary-probs", _with(SPEED_JUMP, "/model/law/probs", {"0": 0.5, "2": 0.5}), "/model/law/probs"),
    ("displaced-probs", _with(SPEED_JUMP, "/model/law", DISPLACED_PROBS), "/model/law/probs"),
    ("seed-bool", _with(SIMULATE, "/seed", True), "/seed"),
    ("replicas-fraction", _with(SIMULATE, "/params/replicas", 2.5), "/params/replicas"),
    ("replicas-negative", _with(SIMULATE, "/params/replicas", -5), "/params/replicas"),
    ("compare-replicas-zero", _with(COMPARE, "/params/replicas", 0), "/params/replicas"),
    ("t-max-negative", _with(_with(SIMULATE, "/params/t_max", -1.0), "/params/record_times", []), "/params"),
    ("record-times", _with(SIMULATE, "/params/record_times", ["a"]), "/params/record_times"),
    ("prune-window", _with(SIMULATE, "/params/prune_window", "x"), "/params/prune_window"),
    # Python's json reads NaN and Infinity, which are no JSON numbers
    ("t-max-nan", _with(SIMULATE, "/params/t_max", math.nan), "/params/t_max"),
    ("t-max-infinity", _with(SIMULATE, "/params/t_max", math.inf), "/params/t_max"),
    ("record-times-nan", _with(SIMULATE, "/params/record_times", [0.5, math.nan]), "/params/record_times"),
    ("prune-window-nan", _with(SIMULATE, "/params/prune_window", math.nan), "/params/prune_window"),
    ("grid-x-min-infinity", _with(SOLVE, "/params/grid/x_min", -math.inf), "/params/grid/x_min"),
    ("compare-t-nan", _with(COMPARE, "/params/t", math.nan), "/params/t"),
    ("solve-dt", _with(SOLVE, "/params/dt", "x"), "/params/dt"),
    ("fit-window", _with(SOLVE, "/params/fit_window", [1, 2, 3]), "/params/fit_window"),
    ("fit-window-order", _with(SOLVE, "/params/fit_window", [2, 2]), "/params/fit_window"),
    ("grid-x-min", _with(COMPARE, "/params/grid/x_min", _ABSENT), "/params/grid/x_min"),
    ("n-points", _with(SOLVE, "/params/grid/n_points", 100), "/params/grid"),
    ("run-dirs", {"command": "report", "run_dirs": [1]}, "/run_dirs/0"),
]


@pytest.mark.parametrize("config,pointer", [c[1:] for c in MALFORMED], ids=[c[0] for c in MALFORMED])
def test_malformed_config_rejected_at_pointer_before_writing(tmp_path, capsys, config, pointer):
    with pytest.raises(ConfigError) as err:
        parse_config(config)
    assert err.value.pointer == pointer
    code, out_dir = _run_cli(tmp_path, config)
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {pointer}: ")
    assert not out_dir.exists()


LATE_FAILURES = [
    # the stability bound needs the model and the grid, so dt is checked
    # only when stepping starts, after the config has been read
    ("brownian-dt", _with(_with(SOLVE, "/model", BROWNIAN_OFFSPRING), "/params/dt", 1.0)),
    # the fit window holds no record: the field is solved before the fit fails
    (
        "empty-fit-window",
        {
            **SOLVE,
            "params": {
                "grid": {"x_min": -10.0, "x_max": 20.0, "n_points": 256},
                "t_max": 2.0,
                "fit_window": [50, 60],
            },
        },
    ),
    # time arguments the strong form would otherwise misuse
    ("dt-negative", _with(SOLVE, "/params/dt", -1.0)),
    ("dt-zero", _with(SOLVE, "/params/dt", 0.0)),
    ("interval-zero", _with(SOLVE, "/params/front_interval", 0.0)),
    ("interval-negative", _with(SOLVE, "/params/front_interval", -0.5)),
    ("span-fraction", _with(SOLVE, "/params/t_max", 1.2)),
    ("span-below-interval", _with(SOLVE, "/params/t_max", 0.2)),
]


def test_late_failure_leaves_no_directory(tmp_path, capsys):
    for name, config in LATE_FAILURES:
        code, out_dir = _run_cli(tmp_path, config, name)
        assert code == 1, name
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (name, lines)
        assert not out_dir.exists(), name


def test_tabulated_kernel_with_zero_density_ends_has_no_minimizer(tmp_path, capsys):
    # the 3-point trapezoid of this density makes psi constant; exp(-lam x)
    # overflows at its zero-density ends for large lam, where it must not
    # enter the transform as 0 * inf = nan
    kernel = {"family": "tabulated", "x": [-1.0, 0.0, 1.0], "density": [0.0, 1.0, 0.0]}
    config = {"command": "speed", "model": _with(JUMP_GAUSSIAN, "/motion/kernel", kernel)}
    code, out_dir = _run_cli(tmp_path, config)
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "minimizer" in lines[0]
    assert not out_dir.exists()


def test_git_describe_runs_once_per_process(tmp_path, monkeypatch):
    real_run, gits = cli.subprocess.run, []

    def counting_run(cmd, *args, **kwargs):
        gits.extend(cmd[:1] if cmd[0] == "git" else [])
        return real_run(cmd, *args, **kwargs)

    monkeypatch.setattr(cli.subprocess, "run", counting_run)
    cli._code_version.cache_clear()
    try:
        for name in ("a", "b"):
            code, _ = _run_cli(tmp_path, {"command": "speed", "model": BROWNIAN_OFFSPRING}, name)
            assert code == 0
    finally:
        cli._code_version.cache_clear()
    versions = {json.loads((tmp_path / n / "manifest.json").read_text())["code_version"] for n in "ab"}
    assert gits == ["git"] and len(versions) == 1


@pytest.mark.parametrize("failure", ["missing", "exit"])
def test_failing_git_gives_the_bare_version(monkeypatch, failure):
    def failing_run(cmd, *args, **kwargs):
        if failure == "missing":
            raise FileNotFoundError(cmd[0])
        return cli.subprocess.CompletedProcess(cmd, 128, "", "fatal: not a git repository")

    monkeypatch.setattr(cli.subprocess, "run", failing_run)
    cli._code_version.cache_clear()
    try:
        assert cli._code_version() == f"kpplab {kpplab.__version__}" == "kpplab 0.1.0"
    finally:
        cli._code_version.cache_clear()
