"""Experiment orchestration: config parsing, dispatch, artifacts, manifests.

A run is described by one JSON document (see ``schema.json`` next to this
module) and executed with::

    kpplab --config cfg.json --output out_dir [--seed N] [--threads N]

Exit codes: 0 success, 2 for failed scientific verdicts (assumption checks,
comparisons, or a report with a failed or incomplete run), 1 for operational
errors.  Every run writes ``manifest.json`` with the echoed config, code
version, thread count and a checksum per artifact, so identical configs are
bit-reproducible.  A run holds its artifacts in memory, each SVG drawn from
the same columns as its CSV, and writes them, the manifest last, only once
its command has finished, so a run that fails at any point leaves no output
directory.

Config layout (JSON): ``command`` selects the action, ``model`` describes the
process (read by ``model_from_dict``, its kernels by ``Kernel.from_dict``),
``params`` holds the command's values (``PARAMS`` lists each with its default;
``grid`` is read by ``Grid.from_dict``) and the integer ``seed`` feeds every
stochastic command.  The whole config is read before anything is written: a
rejection is a ``ConfigError`` at the JSON pointer of the offending value,
such as ``/model/motion/kernel/sigma`` or ``/params/grid``, and the run exits
1 with one ``error:`` line and no output directory.
"""
from __future__ import annotations

import argparse
import functools
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
from .errors import KppLabError, config_pointer, expect, read_integer, read_number, read_numbers
from .model import BranchingModel, model_from_dict
from .plotting import plot
from .simulate import RunConfig, run_ensemble
from .solve import Field, Grid, measure_front, track_front
from .spectral import check_assumptions, minimal_speed


def _window(v, pointer: str) -> tuple[float, float]:
    lo_hi = read_numbers(v, pointer)
    expect(len(lo_hi) == 2 and lo_hi[0] < lo_hi[1], pointer, "expected [lo, hi] with lo < hi")
    return tuple(lo_hi)


def _replicas(v, pointer: str) -> int:
    n = read_integer(v, pointer)
    expect(n >= 1, pointer, "expected at least one replica")
    return n


REQUIRED = object()
#: each command's params as ``key: (reader, default)``.  A ``REQUIRED`` param
#: must be given; a ``None`` default leaves an absent (or ``null``) key out, so
#: the library's own default, or ``record_times = [t_max]``, applies.
PARAMS = {
    "speed": {},
    "assumptions": {},
    "simulate": {
        "t_max": (read_number, REQUIRED),
        "replicas": (_replicas, REQUIRED),
        "record_times": (read_numbers, None),
        "prune_window": (read_number, None),
        "max_particles": (read_integer, None),
    },
    "solve": {
        "grid": (Grid.from_dict, REQUIRED),
        "t_max": (read_number, REQUIRED),
        "dt": (read_number, 0.05),
        "front_interval": (read_number, 0.5),
        "fit_window": (_window, None),
    },
    "compare": {
        "grid": (Grid.from_dict, REQUIRED),
        "t": (read_number, REQUIRED),
        "replicas": (_replicas, REQUIRED),
        "threshold": (read_number, 0.05),
        "dt": (read_number, None),
    },
    "report": {},
}
COMMANDS = tuple(PARAMS)


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config; ``params`` holds the values read by ``PARAMS`` and, for
    ``simulate``, the ensemble's ``run_config``."""

    command: str
    raw: dict
    model: BranchingModel | None
    seed: int | None
    params: dict
    run_dirs: list[str]


# -- parsing -------------------------------------------------------------------


def _given(params: dict, *keys: str) -> dict:
    """The named params that are present, as keyword arguments."""
    return {k: params[k] for k in keys if k in params}


def _read_params(raw, command: str) -> dict:
    expect(isinstance(raw, dict), "/params", "expected an object")
    params = {}
    for key, (read, default) in PARAMS[command].items():
        if raw.get(key) is not None or default is REQUIRED:
            params[key] = read(raw.get(key), f"/params/{key}")
        elif default is not None:
            params[key] = default
    return params


def parse_config(raw: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Read a raw config document; raises ConfigError with JSON pointers."""
    expect(isinstance(raw, dict), "", "expected a JSON object")
    command = raw.get("command")
    expect(command in COMMANDS, "/command", f"expected one of {COMMANDS}")

    run_dirs: list[str] = []
    model = None
    if command == "report":
        run_dirs = raw.get("run_dirs")
        expect(isinstance(run_dirs, list), "/run_dirs", "expected a list of paths")
        for i, d in enumerate(run_dirs):
            expect(isinstance(d, str), f"/run_dirs/{i}", "expected a path")
    else:
        model = model_from_dict(raw.get("model"), "/model")

    seed = raw.get("seed") if seed_override is None else seed_override
    if seed is not None or command in ("simulate", "compare"):
        seed = read_integer(seed, "/seed")

    params = _read_params(raw.get("params", {}), command)
    if command == "simulate":
        with config_pointer("/params"):
            params["run_config"] = RunConfig(
                t_max=params["t_max"],
                record_times=params.get("record_times", [params["t_max"]]),
                seed=seed,
                **_given(params, "prune_window", "max_particles"),
            )
    return ExperimentConfig(command, raw, model, seed, params, run_dirs)


# -- artifact helpers -----------------------------------------------------------


@functools.cache
def _code_version() -> str:
    """The manifest's code version; ``git describe`` runs once per process,
    since a fork from a large process costs more than the run's own work."""
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


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=float) + "\n"


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


class _Artifacts:
    """A run's files as bytes, held until the command has returned.

    ``write`` then makes the output directory, so a run that fails at any
    point leaves no directory behind.
    """

    def __init__(self):
        self.files: dict[str, bytes] = {}

    def text(self, name: str, text: str) -> None:
        self.files[name] = text.encode()

    def json(self, name: str, obj) -> None:
        self.text(name, _json_text(obj))

    def csv(self, name: str, columns, rows, meta=None) -> None:
        lines = [] if meta is None else ["# " + json.dumps(meta, sort_keys=True, default=float)]
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        self.text(name, "\n".join(lines) + "\n")

    def checksums(self) -> dict:
        return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(self.files.items())}

    def write(self, out_dir: Path, manifest: dict) -> None:
        """Write every file, then ``manifest.json``."""
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, data in self.files.items():
            (out_dir / name).write_bytes(data)
        (out_dir / "manifest.json").write_text(_json_text(manifest))


# -- command implementations ------------------------------------------------------


def _cmd_speed(cfg: ExperimentConfig, art: _Artifacts) -> tuple[bool, dict]:
    profile = minimal_speed(cfg.model)
    art.json("speed.json", profile.to_dict())
    return True, {"c_star": profile.c_star, "lambda_star": profile.lambda_star}


def _cmd_assumptions(cfg: ExperimentConfig, art: _Artifacts) -> tuple[bool, dict]:
    report = check_assumptions(cfg.model)
    art.json("assumptions.json", report.to_dict())
    return report.all_passed(), {"all_passed": report.all_passed()}


def _cmd_simulate(cfg: ExperimentConfig, art: _Artifacts, threads: int) -> tuple[bool, dict]:
    p = cfg.params
    result = run_ensemble(cfg.model, p["run_config"], p["replicas"], n_workers=threads)
    minima_rows = [
        (s.replica, s.t, s.m, int(not math.isfinite(s.m))) for s in result.minima
    ]
    art.csv("minima.csv", ["replica", "t", "m_t", "extinct"], minima_rows)
    mart_rows = [
        (tr.replica, int(n), float(w), float(d))
        for tr in result.traces
        for n, w, d in zip(tr.n, tr.w, tr.d)
    ]
    if mart_rows:
        art.csv("martingales.csv", ["replica", "n", "W_n", "D_n"], mart_rows)
        art.text("martingales.svg", plot("martingale", mart_rows))
    ok = not result.invalid_replicas
    return ok, {
        "replicas": p["replicas"],
        "invalid_replicas": result.invalid_replicas,
        "lambda_star": result.lambda_star,
    }


def _cmd_solve(cfg: ExperimentConfig, art: _Artifacts) -> tuple[bool, dict]:
    p = cfg.params
    grid = p["grid"]
    field, trace, _ = track_front(
        cfg.model, Field.heaviside(grid), p["t_max"], p["dt"], p["front_interval"]
    )
    meta = {"t": field.t, "grid": grid.to_dict(), "model": cfg.model.to_dict()}
    art.csv("field.csv", ["x", "value"], zip(grid.xs, field.values), meta)
    art.text("field.svg", plot("profile", grid.xs, {"profile": field.values}))
    summary: dict = {"t_final": field.t}
    front_meta = {"model": cfg.model.to_dict()}
    fit = None
    if "fit_window" in p and trace.t.size:
        speed = minimal_speed(cfg.model)
        fit = measure_front(trace, speed.lambda_star, p["fit_window"])
        front_meta["fit"] = {
            "c_est": fit.c_est,
            "log_slope": fit.log_slope,
            "intercept": fit.intercept,
        }
        summary["fit"] = front_meta["fit"]
        summary["c_star"] = speed.c_star
    art.csv("front.csv", ["t", "m_half"], zip(trace.t, trace.m), front_meta)
    if trace.t.size:
        art.text("front.svg", plot("front", trace.t, trace.m, fit))
    return True, summary


def _cmd_compare(cfg: ExperimentConfig, art: _Artifacts) -> tuple[bool, dict]:
    p = cfg.params
    threshold = p["threshold"]
    result = u_vs_mc(
        cfg.model, p["t"], p["grid"], p["replicas"], rng=cfg.seed, **_given(p, "dt")
    )
    rows = []
    for x, uv, mv, se in zip(result.x, result.pde_values, result.mc_values, result.mc_stderr):
        rows.append((x, uv, 0.0, "pde"))
        rows.append((x, mv, se, "monte-carlo"))
    art.csv("profiles.csv", ["x", "value", "stderr", "source"], rows)
    series = {"pde": result.pde_values, "monte-carlo": result.mc_values}
    art.text("profiles.svg", plot("profile", result.x, series))
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
    art.text("report.md", "\n".join(lines) + "\n")
    return not any_fail, {"runs": len(cfg.run_dirs)}


# -- entry points ------------------------------------------------------------------


def run(raw_config: dict, output_dir, seed: int | None = None, threads: int = 1) -> int:
    """Execute one config; returns the process exit code."""
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    wall_start = time.monotonic()
    cfg = parse_config(raw_config, seed_override=seed)
    art = _Artifacts()
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
    art.write(Path(output_dir), manifest)
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
