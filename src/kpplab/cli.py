"""Experiment orchestration: config parsing, dispatch, artifacts, manifests.

A run is described by one JSON document (see ``schema.json`` next to this
module) and executed with::

    kpplab --config cfg.json --output out_dir [--seed N] [--threads N]

Exit codes: 0 success, 2 for failed scientific verdicts (assumption checks,
comparisons, or a report with a failed or incomplete run), 1 for operational
errors.  Every run writes ``manifest.json`` with the echoed config, code
version, thread count and a checksum per artifact, so identical configs are
bit-reproducible.

Config layout (JSON): ``command`` selects the action; ``model`` describes the
process as ``{"motion": {"family": ...}, "law": {"family": ...}}`` with
kernels as ``{"family": "gaussian", "sigma": s}``, ``{"family":
"two_sided_exponential", "beta": b}``, ``{"family": "uniform", "radius": r}``
or ``{"family": "tabulated", "x": [...], "density": [...]}``; ``params``
holds per-command numbers and ``seed`` feeds every stochastic command.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analyze import u_vs_mc
from .errors import ConfigError, KppLabError
from .kernels import KERNEL_FAMILIES
from .model import LAW_FAMILIES, MOTION_FAMILIES, BranchingModel, model_from_dict
from .plotting import plot
from .simulate import RunConfig, run_ensemble
from .solve import Field, Grid, measure_front, track_front
from .spectral import check_assumptions, minimal_speed

COMMANDS = ("speed", "assumptions", "simulate", "solve", "compare", "report")


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    raw: dict
    model: BranchingModel | None
    seed: int | None
    params: dict
    run_dirs: list[str]


# -- validation ----------------------------------------------------------------


def _expect(cond: bool, pointer: str, message: str):
    if not cond:
        raise ConfigError(pointer, message)


def _validate_kernel(d, pointer: str):
    _expect(isinstance(d, dict), pointer, "expected a kernel object")
    family = d.get("family")
    _expect(family in KERNEL_FAMILIES, f"{pointer}/family", f"expected one of {KERNEL_FAMILIES}")
    if family == "gaussian":
        _expect(isinstance(d.get("sigma", 1.0), (int, float)), f"{pointer}/sigma", "expected a number")
    elif family == "two_sided_exponential":
        _expect(isinstance(d.get("beta"), (int, float)), f"{pointer}/beta", "expected a number")
    elif family == "uniform":
        _expect(isinstance(d.get("radius"), (int, float)), f"{pointer}/radius", "expected a number")
    else:
        _expect(isinstance(d.get("x"), list), f"{pointer}/x", "expected a list")
        _expect(isinstance(d.get("density"), list), f"{pointer}/density", "expected a list")


def _validate_model(d, pointer: str = "/model"):
    _expect(isinstance(d, dict), pointer, "expected a model object")
    motion = d.get("motion")
    _expect(isinstance(motion, dict), f"{pointer}/motion", "expected a motion object")
    fam = motion.get("family")
    _expect(
        fam in MOTION_FAMILIES, f"{pointer}/motion/family", f"expected one of {MOTION_FAMILIES}"
    )
    if fam == "pure_jump":
        _validate_kernel(motion.get("kernel"), f"{pointer}/motion/kernel")
    law = d.get("law")
    _expect(isinstance(law, dict), f"{pointer}/law", "expected a law object")
    lfam = law.get("family")
    _expect(lfam in LAW_FAMILIES, f"{pointer}/law/family", f"expected one of {LAW_FAMILIES}")
    if lfam == "offspring_at_parent":
        _expect(isinstance(law.get("probs"), dict), f"{pointer}/law/probs", "expected an object")
    if lfam == "binary_one_displaced":
        _validate_kernel(law.get("kernel"), f"{pointer}/law/kernel")


def _number(params, key, pointer, required=True, default=None):
    if key not in params:
        _expect(not required, f"{pointer}/{key}", "required parameter missing")
        return default
    _expect(isinstance(params[key], (int, float)), f"{pointer}/{key}", "expected a number")
    return params[key]


def parse_config(raw: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Validate a raw config document; raises ConfigError with JSON pointers."""
    _expect(isinstance(raw, dict), "", "expected a JSON object")
    command = raw.get("command")
    _expect(command in COMMANDS, "/command", f"expected one of {COMMANDS}")

    run_dirs: list[str] = []
    model = None
    if command == "report":
        _expect(isinstance(raw.get("run_dirs"), list), "/run_dirs", "expected a list of paths")
        run_dirs = [str(p) for p in raw["run_dirs"]]
    else:
        _validate_model(raw.get("model"))
        try:
            model = model_from_dict(raw["model"])
        except KppLabError as exc:
            raise ConfigError("/model", str(exc)) from exc

    seed = raw.get("seed") if seed_override is None else seed_override
    if command in ("simulate", "compare"):
        _expect(isinstance(seed, int), "/seed", "stochastic commands need an integer seed")

    params = raw.get("params", {})
    _expect(isinstance(params, dict), "/params", "expected an object")
    if command == "simulate":
        _number(params, "t_max", "/params")
        _number(params, "replicas", "/params")
    elif command == "solve":
        _expect(isinstance(params.get("grid"), dict), "/params/grid", "expected a grid object")
        for key in ("x_min", "x_max", "n_points"):
            _number(params["grid"], key, "/params/grid")
        _number(params, "t_max", "/params")
    elif command == "compare":
        _expect(isinstance(params.get("grid"), dict), "/params/grid", "expected a grid object")
        _number(params, "t", "/params")
        _number(params, "replicas", "/params")
    return ExperimentConfig(command, raw, model, seed, params, run_dirs)


# -- artifact helpers -----------------------------------------------------------


def _code_version() -> str:
    described = ""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0:
            described = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"kpplab {__version__}" + (f" ({described})" if described else "")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, default=float) + "\n")


def _write_csv(path: Path, columns, rows, meta: dict | None = None) -> None:
    lines = []
    if meta is not None:
        lines.append("# " + json.dumps(meta, sort_keys=True, default=float))
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _checksum(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _Artifacts:
    """Collects written files and their checksums for the manifest."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files: list[Path] = []

    def json(self, name: str, obj) -> Path:
        path = self.out_dir / name
        _write_json(path, obj)
        self.files.append(path)
        return path

    def csv(self, name: str, columns, rows, meta=None) -> Path:
        path = self.out_dir / name
        _write_csv(path, columns, rows, meta)
        self.files.append(path)
        return path

    def svg_from(self, csv_path: Path, kind: str) -> Path | None:
        try:
            path = plot(csv_path, kind)
        except KppLabError:
            return None
        self.files.append(path)
        return path

    def checksums(self) -> dict:
        return {p.name: _checksum(p) for p in sorted(self.files)}


# -- command implementations ------------------------------------------------------


def _cmd_speed(cfg: ExperimentConfig, art: _Artifacts) -> tuple[bool, dict]:
    tol = float(cfg.params.get("tol", 1e-9))
    profile = minimal_speed(cfg.model, tol)
    art.json("speed.json", profile.to_dict())
    return True, {"c_star": profile.c_star, "lambda_star": profile.lambda_star}


def _cmd_assumptions(cfg: ExperimentConfig, art: _Artifacts) -> tuple[bool, dict]:
    report = check_assumptions(cfg.model)
    art.json("assumptions.json", report.to_dict())
    return report.all_passed(), {"all_passed": report.all_passed()}


def _cmd_simulate(cfg: ExperimentConfig, art: _Artifacts, threads: int) -> tuple[bool, dict]:
    p = cfg.params
    rc = RunConfig(
        t_max=float(p["t_max"]),
        record_times=tuple(p.get("record_times", [p["t_max"]])),
        prune_window=p.get("prune_window"),
        max_particles=int(p.get("max_particles", 5_000_000)),
        seed=int(cfg.seed),
    )
    result = run_ensemble(cfg.model, rc, int(p["replicas"]), n_workers=threads)
    minima_rows = [
        (s.replica, s.t, s.m, int(not math.isfinite(s.m))) for s in result.minima
    ]
    minima_csv = art.csv("minima.csv", ["replica", "t", "m_t", "extinct"], minima_rows)
    mart_rows = [
        (tr.replica, int(n), float(w), float(d))
        for tr in result.traces
        for n, w, d in zip(tr.n, tr.w, tr.d)
    ]
    if mart_rows:
        mart_csv = art.csv("martingales.csv", ["replica", "n", "W_n", "D_n"], mart_rows)
        art.svg_from(mart_csv, "martingale")
    ok = not result.invalid_replicas
    return ok, {
        "replicas": int(p["replicas"]),
        "invalid_replicas": result.invalid_replicas,
        "lambda_star": result.lambda_star,
    }


def _cmd_solve(cfg: ExperimentConfig, art: _Artifacts) -> tuple[bool, dict]:
    p = cfg.params
    g = p["grid"]
    grid = Grid(float(g["x_min"]), float(g["x_max"]), int(g["n_points"]))
    dt = float(p.get("dt", 0.05))
    t_max = float(p["t_max"])
    interval = float(p.get("front_interval", 0.5))
    field, trace, _ = track_front(cfg.model, Field.heaviside(grid), t_max, dt, interval)
    meta = {"t": field.t, "grid": grid.to_dict(), "model": cfg.model.to_dict()}
    field_csv = art.csv("field.csv", ["x", "value"], zip(grid.xs, field.values), meta)
    art.svg_from(field_csv, "profile")
    summary: dict = {"t_final": field.t}
    front_meta = {"model": cfg.model.to_dict()}
    if p.get("fit_window") and trace.t.size:
        lo, hi = (float(v) for v in p["fit_window"])
        speed = minimal_speed(cfg.model)
        fit = measure_front(trace, speed.lambda_star, (lo, hi))
        front_meta["fit"] = {
            "c_est": fit.c_est,
            "log_slope": fit.log_slope,
            "intercept": fit.intercept,
        }
        summary["fit"] = front_meta["fit"]
        summary["c_star"] = speed.c_star
    front_csv = art.csv("front.csv", ["t", "m_half"], zip(trace.t, trace.m), front_meta)
    art.svg_from(front_csv, "front")
    return True, summary


def _cmd_compare(cfg: ExperimentConfig, art: _Artifacts) -> tuple[bool, dict]:
    p = cfg.params
    g = p["grid"]
    grid = Grid(float(g["x_min"]), float(g["x_max"]), int(g["n_points"]))
    threshold = float(p.get("threshold", 0.05))
    result = u_vs_mc(
        cfg.model,
        float(p["t"]),
        grid,
        int(p["replicas"]),
        rng=int(cfg.seed),
        dt=float(p.get("dt", 0.05)),
    )
    rows = []
    for x, uv, mv, se in zip(result.x, result.pde_values, result.mc_values, result.mc_stderr):
        rows.append((x, uv, 0.0, "pde"))
        rows.append((x, mv, se, "monte-carlo"))
    csv_path = art.csv("profiles.csv", ["x", "value", "stderr", "source"], rows)
    art.svg_from(csv_path, "profile")
    passed = result.sup_dist <= threshold
    art.json(
        "compare.json",
        # the identity comparison needs no recentering, so shift is zero
        {"shift": 0.0, "sup_dist": result.sup_dist, "threshold": threshold, "passed": passed},
    )
    return passed, {"sup_dist": result.sup_dist, "threshold": threshold}


def _cmd_report(cfg: ExperimentConfig, art: _Artifacts) -> tuple[bool, dict]:
    lines = ["# Run report", "", "| run | command | status | notes |", "|---|---|---|---|"]
    any_fail = False
    for d in cfg.run_dirs:
        directory = Path(d)
        manifest = directory / "manifest.json"
        result = directory / "result.json"
        if not manifest.exists() or not result.exists():
            lines.append(f"| {directory.name} | - | INCOMPLETE | missing manifest |")
            any_fail = True
            continue
        res = json.loads(result.read_text())
        status = "PASS" if res.get("passed") else "FAIL"
        if not res.get("passed"):
            any_fail = True
        notes = json.dumps(res.get("summary", {}), sort_keys=True, default=float)
        lines.append(f"| {directory.name} | {res.get('command')} | {status} | {notes} |")
    path = art.out_dir / "report.md"
    path.write_text("\n".join(lines) + "\n")
    art.files.append(path)
    return not any_fail, {"runs": len(cfg.run_dirs)}


# -- entry points ------------------------------------------------------------------


def run(raw_config: dict, output_dir, seed: int | None = None, threads: int = 1) -> int:
    """Execute one config; returns the process exit code."""
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    wall_start = time.monotonic()
    cfg = parse_config(raw_config, seed_override=seed)
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    art = _Artifacts(out_dir)
    if cfg.command == "speed":
        passed, summary = _cmd_speed(cfg, art)
    elif cfg.command == "assumptions":
        passed, summary = _cmd_assumptions(cfg, art)
    elif cfg.command == "simulate":
        passed, summary = _cmd_simulate(cfg, art, threads)
    elif cfg.command == "solve":
        passed, summary = _cmd_solve(cfg, art)
    elif cfg.command == "compare":
        passed, summary = _cmd_compare(cfg, art)
    else:
        passed, summary = _cmd_report(cfg, art)
    echo = dict(cfg.raw)
    if cfg.seed is not None:
        echo["seed"] = cfg.seed
    art.json("result.json", {"command": cfg.command, "passed": passed, "summary": summary})
    manifest = {
        "config": echo,
        "code_version": _code_version(),
        "started": started,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "wall_seconds": round(time.monotonic() - wall_start, 3),
        "threads": threads,
        "outputs": art.checksums(),
    }
    _write_json(out_dir / "manifest.json", manifest)
    return 0 if passed else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="kpplab", description=__doc__)
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--output", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=1, help="worker count for ensembles")
    args = parser.parse_args(argv)
    try:
        raw = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        return run(raw, args.output, seed=args.seed, threads=args.threads)
    except KppLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
