"""Per-layer metrics: wrapper targets, layer probes and the metric table.

Layers are kpplab's modules.  Spans come from wrappers on the names the
package binds (see ``TARGETS``); the probes below time single layers
directly: a ``convolve`` size sweep, a per-edge simulator sweep over every
motion and law, ψ-evaluation counts of ``minimal_speed``, and a replay of
the first ensemble replicas through the public single-population API.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy.signal import fftconvolve

import kpplab
from kpplab import simulate, solve, spectral

REPLAY_REPLICAS = 4
SWEEP_REPLICAS = 40_000
SWEEP_REPEATS = 3
CONVOLVE_POINTS = (512, 2048, 8192)
CONVOLVE_HALF_WIDTHS = (8, 32, 128)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _roots(index, name, size=lambda v: int(v)):
    """Count the lifelines handed to an outermost public simulator call."""

    def counter(tracer, args, kwargs, out):
        if not tracer.nested_in("simulate."):
            tracer.count("roots", size(_arg(args, kwargs, index, name)))

    return counter


def _litters(tracer, args, kwargs, out):
    tracer.count("rounds")
    tracer.count("litters", np.size(_arg(args, kwargs, 1, "parents")))
    tracer.count("children", out[0].size)


def _draws(tracer, args, kwargs, out):
    tracer.count("jump_draws", int(_arg(args, kwargs, 2, "size")))


def _psi(tracer, args, kwargs, out):
    tracer.count("psi_evals")


#: (owner, attribute, span name or None for count-only, counter)
TARGETS = [
    ("kpplab.simulate", "run_ensemble", "simulate.run_ensemble", _roots(2, "replicas")),
    ("kpplab.simulate", "empirical_v", "simulate.empirical_v", _roots(3, "replicas")),
    ("kpplab.simulate", "advance", "simulate.advance",
     _roots(0, "pop", lambda pop: pop.positions.size)),
    ("kpplab.simulate", "prune", "simulate.prune", None),
    ("kpplab.simulate", "martingales", "simulate.martingales", None),
    ("kpplab.simulate", "sample_offspring_batch", "model.sample_offspring_batch", _litters),
    ("kpplab.simulate", "minimal_speed", "spectral.minimal_speed", None),
    ("kpplab.spectral", "minimal_speed", "spectral.minimal_speed", None),
    ("kpplab.spectral", "log_laplace", None, _psi),
    ("kpplab.kernels.Kernel", "sample", "kernels.sample", _draws),
    ("kpplab.kernels.Kernel", "lattice_weights", "kernels.lattice_weights", None),
    ("kpplab.analyze", "empirical_minima", "simulate.empirical_minima", _roots(2, "replicas")),
    ("kpplab.analyze", "evolve", "solve.evolve", None),
    ("kpplab.analyze", "estimate_d_infinity", "analyze.estimate_d_infinity", None),
    ("kpplab.analyze", "phi_from_martingale", "analyze.phi_from_martingale", None),
    ("kpplab.cli", "u_vs_mc", "analyze.u_vs_mc", None),
    ("kpplab.cli", "plot", "plotting.plot", None),
    ("kpplab.cli", "run", "cli.run", None),
    ("kpplab.solve", "track_front", "solve.track_front", None),
    ("kpplab.solve", "measure_front", "solve.measure_front", None),
    ("kpplab.solve", "traveling_wave_profile", "solve.traveling_wave_profile", None),
    ("kpplab.solve", "wave_residual", "solve.wave_residual", None),
    ("kpplab.solve", "picard_solve", "solve.picard_solve", None),
]


# -- probes ----------------------------------------------------------------------


def replay(tracer, model, ensemble_out) -> dict:
    """Re-run the first replicas by the documented stream split.

    Each replica's Philox stream is ``SeedSequence(seed, spawn_key=(r,))``;
    the replay runs advance -> martingales -> prune at the checkpoints
    ``run_ensemble`` uses and reports whether W_n/D_n match bit for bit.
    """
    res, _, _, cfg = ensemble_out
    lam, psi = res.lambda_star, res.psi_star
    window = cfg.prune_window
    checkpoints = sorted(
        set(cfg.record_times) | {float(n) for n in range(int(math.floor(cfg.t_max + 1e-9)) + 1)}
        | {float(cfg.t_max)}
    )
    by_replica = {tr.replica: tr for tr in res.traces}
    out = {"pruned": 0, "pruned_mass_bound": 0.0, "peak_population": 0, "identical": 0}
    tracer.section = "replay"
    for r in range(REPLAY_REPLICAS):
        seq = np.random.SeedSequence(cfg.seed, spawn_key=(r,))
        rng = np.random.Generator(np.random.Philox(seq))
        pop = simulate.Population.single(0.0)
        ns, ws, ds = [], [], []
        for t in checkpoints:
            if t > pop.time:
                pop = simulate.advance(pop, t, model, cfg, rng)
                out["peak_population"] = max(out["peak_population"], pop.positions.size)
            if abs(t - round(t)) < 1e-9:
                w, d = simulate.martingales(pop, int(round(t)), lam, psi)
                ns.append(int(round(t)))
                ws.append(w)
                ds.append(d)
            before = pop.positions.size
            pop = simulate.prune(pop, lam, window)
            out["pruned"] += before - pop.positions.size
        out["pruned_mass_bound"] += pop.pruned_mass_bound
        tr = by_replica.get(r)
        out["identical"] += int(
            tr is not None
            and np.array_equal(tr.n, ns)
            and np.array_equal(tr.w, ws)
            and np.array_equal(tr.d, ds)
        )
    return out


def sweep_models():
    """Every motion x law pair, keyed ``<motion>.<law>``."""
    tab_x = np.linspace(-1.0, 1.0, 201)
    kernels = {
        "gaussian": kpplab.Kernel.gaussian(1.0),
        "two_sided_exponential": kpplab.Kernel.two_sided_exponential(2.0),
        "uniform": kpplab.Kernel.uniform(1.5),
        "tabulated": kpplab.Kernel.tabulated(tab_x, 1.0 - np.abs(tab_x)),
    }
    motions = {"constant": kpplab.Motion.constant(), "brownian": kpplab.Motion.brownian()}
    motions.update({name: kpplab.Motion.pure_jump(k) for name, k in kernels.items()})
    laws = {
        "binary_at_parent": kpplab.BranchingLaw.binary_at_parent(),
        "offspring_at_parent": kpplab.BranchingLaw.offspring_at_parent({0: 0.2, 2: 0.8}),
        "binary_one_displaced": kpplab.BranchingLaw.binary_one_displaced(kpplab.Kernel.gaussian(1.0)),
    }
    return {
        f"{m}.{l}": kpplab.BranchingModel(motion, law)
        for m, motion in motions.items()
        for l, law in laws.items()
    }


def edge_sweep(tracer, seed: int) -> dict:
    """ns per lifeline edge of a merged ``empirical_v`` run, per motion x law."""
    out = {}
    for i, (key, model) in enumerate(sweep_models().items()):
        tracer.section = f"sweep.{key}"
        for _ in range(SWEEP_REPEATS):
            simulate.empirical_v(model, 0.0, 1.0, SWEEP_REPLICAS, seed * 100 + i)
        per_run = _edges(tracer, tracer.section) / SWEEP_REPEATS
        times = [s[3] - s[2] for s in tracer.select(tracer.section, "simulate.empirical_v")] or [0.0]
        out[f"simulate.ns_per_edge.{key}"] = _ratio(statistics.median(times) * 1e9, per_run)
    return out


def psi_counts(tracer) -> dict:
    out = {}
    bbm = kpplab.BranchingModel(
        kpplab.Motion.brownian(), kpplab.BranchingLaw.offspring_at_parent({2: 1.0})
    )
    gauss = kpplab.BranchingModel(
        kpplab.Motion.pure_jump(kpplab.Kernel.gaussian(1.0)), kpplab.BranchingLaw.binary_at_parent()
    )
    for name, model in (("jump_gaussian", gauss), ("bbm", bbm)):
        tracer.section = f"psi.{name}"
        spectral.minimal_speed(model)
        out[f"spectral.psi_evals.{name}"] = tracer.counts[(tracer.section, "psi_evals")]
    return out


def _median_time(fn, min_reps: int = 5, min_total: float = 0.02) -> float:
    times = []
    while len(times) < min_reps or sum(times) < min_total:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def convolve_sweep() -> dict:
    """``convolve`` against np.convolve and fftconvolve on the same sizes.

    Sizes straddle the direct/FFT switch inside ``convolve`` (padded size x
    weight count = 2**18).  ``convolve`` includes building the weights and
    padding; the references time the bare correlation of the padded field.
    """
    out = {}
    for n in CONVOLVE_POINTS:
        grid = kpplab.Grid(-20.0, 20.0, n)
        field = kpplab.Field(grid, 1.0 / (1.0 + np.exp(-grid.xs)), 0.0, 0.0, 1.0)
        for half in CONVOLVE_HALF_WIDTHS:
            kernel = kpplab.Kernel.uniform((half - 0.5) * grid.dx)
            w = kernel.lattice_weights(grid.dx)
            padded = np.concatenate([np.zeros(half), field.values, np.ones(half)])
            tag = f"n{n}.w{2 * half + 1}"
            out[f"solve.convolve_us.{tag}"] = 1e6 * _median_time(lambda: solve.convolve(kernel, field))
            out[f"solve.np_convolve_us.{tag}"] = 1e6 * _median_time(
                lambda: np.convolve(padded, w[::-1], mode="valid"))
            out[f"solve.fftconvolve_us.{tag}"] = 1e6 * _median_time(
                lambda: fftconvolve(padded, w[::-1], mode="valid"))
    return out


# -- metric table -------------------------------------------------------------------


def _ratio(a: float, b: float) -> float:
    """``a / b``, or 0 when a missing target left ``b`` unobserved."""
    return a / b if b else 0.0


def _edges(tracer, section: str) -> float:
    return tracer.counts[(section, "roots")] + tracer.counts[(section, "children")]


def layer_metrics(tracer, passes: dict, infos: dict, solver, replayed: dict, probes: dict,
                  overhead: float) -> dict:
    """Every per-layer metric, as ``{name: (value, unit)}``.

    Section totals are divided by that section's traced pass count, so each
    value is per pass of the workload that exercises the layer.
    """
    selfs = tracer.self_times()

    def per_pass(section, name):
        return tracer.total(section, name) / passes[section]

    def self_per_pass(section, name):
        return sum(selfs[s[0]] for s in tracer.select(section, name)) / passes[section]

    def count(section, name):
        return tracer.counts[(section, name)] / passes[section]

    m = {}
    e, c, s = "ensemble", "compare", "solvers"
    edges = _edges(tracer, e) / passes[e]
    run_ens = per_pass(e, "simulate.run_ensemble")
    m["simulate.run_ensemble_s"] = (run_ens, "s")
    m["simulate.edges"] = (edges, "count")
    m["simulate.rounds"] = (count(e, "rounds"), "count")
    m["simulate.ns_per_edge"] = (_ratio(run_ens * 1e9, edges), "ns")
    m["kernels.sample_s"] = (self_per_pass(e, "kernels.sample"), "s")
    m["kernels.jump_draws"] = (count(e, "jump_draws"), "count")
    m["model.sample_offspring_batch_s"] = (self_per_pass(e, "model.sample_offspring_batch"), "s")
    m["model.litters"] = (count(e, "litters"), "count")
    m["model.children"] = (count(e, "children"), "count")
    m["spectral.minimal_speed_s"] = (per_pass(e, "spectral.minimal_speed"), "s")
    m["spectral.psi_evals"] = (count(e, "psi_evals"), "count")
    m["analyze.estimate_d_infinity_s"] = (per_pass(e, "analyze.estimate_d_infinity"), "s")
    m["analyze.phi_from_martingale_s"] = (per_pass(e, "analyze.phi_from_martingale"), "s")

    m["simulate.advance_s"] = (tracer.total("replay", "simulate.advance"), "s")
    m["simulate.prune_s"] = (tracer.total("replay", "simulate.prune"), "s")
    m["simulate.martingales_s"] = (tracer.total("replay", "simulate.martingales"), "s")
    m["simulate.pruned"] = (replayed["pruned"], "count")
    m["simulate.pruned_mass_bound"] = (replayed["pruned_mass_bound"], "mass")
    m["simulate.peak_population"] = (replayed["peak_population"], "count")
    m["simulate.replay_identical"] = (replayed["identical"], "count")

    m["simulate.empirical_minima_s"] = (per_pass(c, "simulate.empirical_minima"), "s")
    m["solve.evolve_s"] = (per_pass(c, "solve.evolve"), "s")
    m["analyze.u_vs_mc_s"] = (per_pass(c, "analyze.u_vs_mc"), "s")
    m["cli.run_s"] = (per_pass(c, "cli.run"), "s")
    m["cli.self_s"] = (self_per_pass(c, "cli.run"), "s")
    m["cli.artifact_bytes"] = (infos[c]["artifact_bytes"], "bytes")
    m["plotting.plot_s"] = (per_pass(c, "plotting.plot"), "s")

    front = per_pass(s, "solve.track_front")
    steps = solver.front_records * max(1, math.ceil(solver.record_every / solver.front_dt - 1e-12))
    points = solver.front_field.grid.n_points
    m["solve.track_front_s"] = (front, "s")
    m["solve.rk4_us_per_step_point"] = (front / (steps * points) * 1e6, "us")
    waves = tracer.select(s, "solve.traveling_wave_profile")
    for i, (n, _) in enumerate(solver.wave_grids):
        mine = waves[i::len(solver.wave_grids)]
        m[f"solve.wave_s.n{n}"] = (sum(x[3] - x[2] for x in mine) / passes[s], "s")
    sweeps = infos[s].get("picard_sweeps", 0)
    m["solve.picard_sweeps"] = (sweeps, "count")
    m["solve.picard_sweep_s"] = (_ratio(per_pass(s, "solve.picard_solve"), sweeps), "s")
    m["kernels.lattice_weights_s"] = (self_per_pass(s, "kernels.lattice_weights"), "s")

    for name, value in probes.items():
        unit = "count" if ".psi_evals." in name else ("ns" if ".ns_per_edge." in name else "us")
        m[name] = (value, unit)
    m["trace.overhead_frac"] = (overhead, "fraction")
    return m
