"""The three benchmark workloads: inputs, one timed pass, and output gates.

Each workload is a class built from the seed (its set-up), with
``run(index)`` doing pass ``index`` of the timed work and ``check(out)``
applying the correctness gates and returning the pass's digest.  Functions are looked up on kpplab's
submodules at call time, so tracing wrappers installed there see the calls.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import kpplab
from kpplab import analyze, cli, simulate, solve
from kpplab.errors import KppLabError

C_STAR_GAUSS = math.exp(0.5)
#: Picard values may leave [0, 1] by the trapezoid time-mesh error; this is
#: the tolerance tests/test_solve.py contracts for this grid on a 129-point
#: mesh (the 65-point mesh here overshoots 1 by 3.5e-5 on the seed commit)
PICARD_MESH_TOL = 1e-4
OUT_DIR = Path(".bench_out")


def jump_gaussian() -> kpplab.BranchingModel:
    return kpplab.BranchingModel(
        kpplab.Motion.pure_jump(kpplab.Kernel.gaussian(1.0)),
        kpplab.BranchingLaw.binary_at_parent(),
    )


@dataclass
class Checked:
    """Outcome of one pass: operations attempted and failed, gate failures."""

    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    info: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else str(c).encode())
    return h.hexdigest()


class Ensemble:
    """Criterion 11 scaled down: per-replica ensemble, then D_inf and phi.

    Each pass draws fresh replicas: the work of 100 replicas varies by 8%
    (CV) from stream to stream, and a run's median over passes on different
    streams averages that out where repeating one stream would not.
    """

    name = "ensemble"
    replicas = 100
    n_used = 12
    same_inputs = False

    def __init__(self, seed: int):
        self.model = jump_gaussian()
        self.speed = kpplab.minimal_speed(self.model)
        self.cfg = kpplab.RunConfig(
            t_max=12.0,
            record_times=(12.0,),
            prune_window=14.0 / self.speed.lambda_star,
            seed=seed,
        )
        self.x_grid = np.concatenate([[-30.0], np.linspace(-8.0, 10.0, 181), [30.0]])
        # Var W_n from the closed-form second moment (criterion 3's oracle).
        # W_n at lambda* is heavy-tailed: its true SD is 9, 73 and 565 at
        # n = 1, 2, 3, so a sample SE from 100 replicas misses the tail and
        # is no basis for a 4-SE test.
        lam = self.speed.lambda_star
        psi = self.speed.c_star * lam
        self.w_sd = {
            n: math.sqrt(kpplab.second_moment_w(self.model, lam, lam, n) / math.exp(2 * n * psi) - 1.0)
            for n in (1, 2, 3)
        }

    def pass_config(self, index: int) -> kpplab.RunConfig:
        seed = int(np.random.SeedSequence([self.cfg.seed, index]).generate_state(1)[0])
        return dataclasses.replace(self.cfg, seed=seed)

    def run(self, index: int = 0, traced: bool = False):
        cfg = self.pass_config(index)
        res = simulate.run_ensemble(self.model, cfg, self.replicas, n_workers=1)
        d = analyze.estimate_d_infinity(res.traces, self.n_used)
        phi = analyze.phi_from_martingale(d, self.speed.lambda_star, self.x_grid, rng=1)
        return res, d, phi, cfg

    def check(self, out) -> Checked:
        res, d, phi, _ = out
        c = Checked(self.replicas, len(res.invalid_replicas))
        traces = res.traces
        for n, sd in self.w_sd.items():
            ws = np.array([tr.w[list(tr.n).index(n)] for tr in traces])
            se = sd / math.sqrt(ws.size)
            c.info[f"W_{n}"] = f"{ws.mean():.4f}+-{se:.4f} (sample SE {ws.std(ddof=1) / math.sqrt(ws.size):.4f})"
            if not abs(ws.mean() - 1.0) <= 4.0 * se:
                c.problems.append(f"mean W_{n} = {ws.mean():.5f} is not within 4 SE ({se:.5f}) of 1")
        if any(tr.w[0] != 1.0 or tr.d[0] != 0.0 or tr.n[0] != 0 for tr in traces):
            c.problems.append("a trace does not start at W_0 = 1, D_0 = 0")
        if not abs(phi.values[-1] - 1.0) <= 3.0 * phi.stderr[-1] + 1e-6:
            c.problems.append(f"phi right tail {phi.values[-1]!r} is not within 3 SE of 1")
        zero_mass = float(np.mean(d.samples == 0.0))
        if not abs(phi.values[0] - zero_mass) <= 3.0 * phi.stderr[0] + 1e-9:
            c.problems.append(f"phi left tail {phi.values[0]!r} != zero-mass fraction {zero_mass!r}")
        c.digest = _sha(
            *(b"".join((tr.n.tobytes(), tr.w.tobytes(), tr.d.tobytes())) for tr in traces),
            np.array([[s.t, s.m, s.replica] for s in res.minima]).tobytes(),
            json.dumps(res.invalid_replicas),
        )
        return c


class Compare:
    """Three CLI ``compare`` runs: PDE front solution against MC minima."""

    name = "compare"
    replicas = 200_000
    threshold = 0.02
    same_inputs = True

    def __init__(self, seed: int):
        wide = {"x_min": -16.0, "x_max": 16.0, "n_points": 1024}
        narrow = {"x_min": -16.0, "x_max": 16.0, "n_points": 256}
        binary = {"family": "binary_at_parent"}
        models = [
            ("gaussian", {"motion": {"family": "pure_jump",
                                     "kernel": {"family": "gaussian", "sigma": 1.0}},
                          "law": binary}, wide, 0.05),
            ("exponential", {"motion": {"family": "pure_jump",
                                        "kernel": {"family": "two_sided_exponential", "beta": 2.0}},
                             "law": binary}, wide, 0.05),
            ("brownian", {"motion": {"family": "brownian"},
                          "law": {"family": "offspring_at_parent", "probs": {"2": 1.0}}},
             narrow, 0.003),
        ]
        self.configs = [
            (label, {
                "command": "compare",
                "model": model,
                "seed": seed * 3 + i,
                "params": {"t": 3.0, "replicas": self.replicas, "grid": grid,
                           "dt": dt, "threshold": self.threshold},
            })
            for i, (label, model, grid, dt) in enumerate(models)
        ]
        self.out_dir = OUT_DIR / "compare"

    def run(self, index: int = 0, traced: bool = False):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        codes = []
        for label, config in self.configs:
            codes.append(cli.run(config, self.out_dir / label, threads=1))
        return codes

    def check(self, codes) -> Checked:
        c = Checked(len(self.configs), sum(1 for rc in codes if rc != 0))
        chunks = []
        artifact_bytes = 0
        for (label, _), rc in zip(self.configs, codes):
            run_dir = self.out_dir / label
            if rc != 0:
                c.problems.append(f"compare run {label} exited with {rc}")
            summary = json.loads((run_dir / "compare.json").read_text())
            c.info[f"sup_{label}"] = round(summary["sup_dist"], 5)
            if not summary["sup_dist"] <= self.threshold:
                c.problems.append(f"compare run {label}: sup_dist {summary['sup_dist']:.4f} > {self.threshold}")
            outputs = json.loads((run_dir / "manifest.json").read_text())["outputs"]
            chunks.append(json.dumps(outputs, sort_keys=True))
            artifact_bytes += sum(p.stat().st_size for p in run_dir.iterdir())
        c.info["artifact_bytes"] = artifact_bytes
        c.digest = _sha(*chunks)
        return c


class Solvers:
    """Front tracking, two travelling-wave solves and a Picard solve."""

    name = "solvers"
    front_end = 60.0
    front_dt = 0.1
    record_every = 0.5
    wave_grids = ((1024, 0.1), (2048, 0.05))
    same_inputs = True

    def __init__(self, seed: int):
        # the solver problems are deterministic; the seed only labels the run
        self.model = jump_gaussian()
        self.front_field = kpplab.Field.heaviside(kpplab.Grid(-40.0, 139.0, 8192))
        self.waves = [(kpplab.Grid(-30.0, 30.0, n), dt) for n, dt in self.wave_grids]
        self.picard_field = kpplab.Field.heaviside(kpplab.Grid(-24.0, 24.0, 512))
        self.picard_times = 65

    def run(self, index: int = 0, traced: bool = False):
        out = {"errors": []}
        t0 = time.perf_counter()
        try:
            final, trace, _ = solve.track_front(
                self.model, self.front_field, self.front_end, self.front_dt, self.record_every
            )
            out["front"] = (final, trace, solve.measure_front(trace, 1.0, (10.0, 60.0)))
        except KppLabError as exc:
            out["errors"].append(f"front: {exc!r}")
        t1 = time.perf_counter()
        out["waves"] = []
        try:
            for grid, dt in self.waves:
                profile = solve.traveling_wave_profile(self.model, C_STAR_GAUSS, grid)
                out["waves"].append((profile, solve.wave_residual(profile, C_STAR_GAUSS, self.model, dt)))
        except KppLabError as exc:
            out["errors"].append(f"wave: {exc!r}")
        t2 = time.perf_counter()
        try:
            # the history is only kept in traced passes, to count sweeps
            out["picard"] = solve.picard_solve(
                self.model, self.picard_field, 1.0, self.picard_times,
                tol=1e-10, return_history=traced,
            )
        except KppLabError as exc:
            out["errors"].append(f"picard: {exc!r}")
        t3 = time.perf_counter()
        out["stages"] = {"front_s": t1 - t0, "wave_s": t2 - t1, "picard_s": t3 - t2}
        return out

    @property
    def front_records(self) -> int:
        return int(round(self.front_end / self.record_every))

    def check(self, out) -> Checked:
        c = Checked(7, len(out["errors"]), list(out["errors"]), stages=out["stages"])
        chunks = []
        if "front" in out:
            final, trace, fit = out["front"]
            chunks += [final.values.tobytes(), trace.t.tobytes(), trace.m.tobytes()]
            if trace.t.size < self.front_records:
                c.failed += 1
                c.problems.append(f"track_front kept {trace.t.size} of {self.front_records} records")
            rel = abs(fit.c_est - C_STAR_GAUSS) / C_STAR_GAUSS
            c.info.update(c_est=round(fit.c_est, 5), log_slope=round(fit.log_slope, 4))
            if not rel <= 0.02:
                c.problems.append(f"front speed {fit.c_est:.5f} is {rel:.2%} from e^(1/2)")
            expected = -1.5
            if not (fit.log_slope < 0.0 and 1.5 * expected <= fit.log_slope <= 0.4 * expected):
                c.problems.append(f"log slope {fit.log_slope:.3f} outside [-2.25, -0.6]")
        if len(out["waves"]) == 2:
            (p1, r1), (p2, r2) = out["waves"]
            chunks += [p1.values.tobytes(), p2.values.tobytes()]
            c.info["wave_ratio"] = round(r1 / r2, 3)
            if not r1 / r2 >= 3.0:
                c.problems.append(f"wave residual ratio {r1 / r2:.2f} < 3")
        if "picard" in out:
            result = out["picard"]
            picard = result
            if isinstance(result, tuple):
                picard, history = result
                c.info["picard_sweeps"] = len(history)
            chunks.append(picard.values.tobytes())
            lo, hi = float(picard.values.min()), float(picard.values.max())
            c.info["picard_range"] = [lo, hi]
            if not (-PICARD_MESH_TOL <= lo and hi <= 1.0 + PICARD_MESH_TOL):
                c.problems.append(f"Picard values [{lo!r}, {hi!r}] leave [0, 1]")
        c.digest = _sha(*chunks)
        return c


WORKLOADS = {cls.name: cls for cls in (Ensemble, Compare, Solvers)}
