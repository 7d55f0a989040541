"""The steps of a run whose module footprint ``test_imports`` checks.

Run as a script, it imports ``kpplab`` and ``kpplab.cli``, takes each step of
``STEPS`` in turn and prints one JSON line: for the import and after each
step, the ``scipy`` and process-pool modules loaded so far, and each step's
values.  ``test_imports`` takes the same steps in its own process, which has
scipy loaded, and compares the values.  This module itself imports numpy and
``kpplab`` only.
"""
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import kpplab
import kpplab.cli
from kpplab import BranchingLaw, BranchingModel, Field, Grid, Kernel, Motion, ProfileEstimate
from kpplab.simulate import _extinction_curve

#: the process pool's modules, which ``run_ensemble`` loads only for
#: ``n_workers > 1``
POOL = ("concurrent.futures.process", "multiprocessing")


def loaded() -> list[str]:
    """``scipy`` and its loaded subpackages, ``scipy.linalg`` for
    ``scipy.linalg.lapack``, and the loaded pool modules."""
    scipy = {".".join(m.split(".")[:2]) for m in sys.modules if m.split(".")[0] == "scipy"}
    return sorted(scipy.union(m for m in POOL if m in sys.modules))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _jump_gaussian() -> BranchingModel:
    return BranchingModel(Motion.pure_jump(Kernel.gaussian(1.0)), BranchingLaw.binary_at_parent())


def simulator() -> dict:
    """The speed search, second moments, an extinction probability, a pruned
    ensemble, empirical minima and ``v``, D_inf and phi."""
    model = _jump_gaussian()
    speed = kpplab.minimal_speed(model)
    lam = speed.lambda_star
    cfg = kpplab.RunConfig(t_max=4.0, record_times=(4.0,), prune_window=14.0 / lam, seed=3)
    res = kpplab.run_ensemble(model, cfg, 6)
    d = kpplab.estimate_d_infinity(res.traces, 4)
    phi = kpplab.phi_from_martingale(d, lam, np.linspace(-4.0, 6.0, 11), rng=1)
    minima = kpplab.empirical_minima(model, 2.0, 20, rng=5)
    v = kpplab.empirical_v(model, lam, 2.0, 20, rng=5)
    return {
        "c_star": speed.c_star,
        "w": kpplab.second_moment_w(model, lam, lam, 2.0),
        "q": BranchingLaw.offspring_at_parent({0: 0.1, 1: 0.2, 3: 0.7}).extinction_probability(),
        "ensemble": _digest(
            [s.m for s in res.minima],
            *(a for t in res.traces for a in (t.w, t.d)),
            d.samples,
            phi.values,
            phi.stderr,
            minima,
            v,
        ),
    }


def cli_simulate() -> dict:
    """The checksums of a small ``simulate`` run of the CLI."""
    config = {
        "command": "simulate",
        "seed": 7,
        "model": _jump_gaussian().to_dict(),
        "params": {"t_max": 3.0, "record_times": [1.0, 2.0, 3.0], "replicas": 40},
    }
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = kpplab.cli.run(config, out)
        return {"code": code, "outputs": json.loads((out / "manifest.json").read_text())["outputs"]}


def evolve() -> str:
    """A strong-form march on a grid wide enough for the FFT correlation."""
    model = _jump_gaussian()
    f = Field.heaviside(Grid(-20.0, 20.0, 1024))
    return _digest(kpplab.evolve(model, f, 0.5, 0.05).values)


def track_front() -> dict:
    """A front tracked on a grid wide enough for the FFT correlation."""
    model = _jump_gaussian()
    f = Field.heaviside(Grid(-20.0, 40.0, 1024))
    final, trace, _ = kpplab.track_front(model, f, 1.0, 0.05, 0.5)
    return {"final": _digest(final.values), "trace": _digest(trace.t, trace.m)}


def picard() -> str:
    """A mild-form solve, whose semigroup and time integral are transforms."""
    f = Field.heaviside(Grid(-24.0, 24.0, 512))
    return _digest(kpplab.picard_solve(_jump_gaussian(), f, 0.5, 17).values)


def cli_compare() -> dict:
    """The checksums of a small ``compare`` run of the CLI: Monte Carlo minima
    against the strong form on a grid wide enough for the FFT correlation."""
    config = {
        "command": "compare",
        "seed": 11,
        "model": _jump_gaussian().to_dict(),
        "params": {"t": 1.0, "replicas": 4000, "threshold": 0.1, "dt": 0.05,
                   "grid": {"x_min": -16.0, "x_max": 16.0, "n_points": 1024}},
    }
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = kpplab.cli.run(config, out)
        return {"code": code, "outputs": json.loads((out / "manifest.json").read_text())["outputs"]}


def _wave(model: BranchingModel) -> str:
    c = kpplab.minimal_speed(model).c_star + 0.2
    return _digest(kpplab.traveling_wave_profile(model, c, Grid(-30.0, 30.0, 256)).values)


def wave() -> str:
    """A banded Newton travelling wave above c*, whose step is ``dgbsv``."""
    return _wave(_jump_gaussian())


def wave_tridiagonal() -> str:
    """A Brownian travelling wave above c*, whose band is tridiagonal: an
    ``h = 1`` input to the same ``dgbsv``."""
    return _wave(BranchingModel(Motion.brownian(), BranchingLaw.binary_at_parent()))


def align() -> float:
    """The shift between two logistic profiles 0.75 apart."""
    xp, xq = np.linspace(-5.0, 5.0, 201), np.linspace(-15.0, 15.0, 601)
    p = ProfileEstimate(xp, 1.0 / (1.0 + np.exp(-xp)), None, "pde-front")
    q = ProfileEstimate(xq, 1.0 / (1.0 + np.exp(-(xq - 0.75))), None, "pde-front")
    return kpplab.align_shift(p, q)[0]


def curve() -> dict:
    """The extinction curve of an immobile law with death, at t = 0.5 and 2."""
    return _extinction_curve(BranchingLaw.offspring_at_parent({0: 0.2, 2: 0.8}), [0.5, 2.0])


STEPS = {
    "simulator": simulator,
    "cli_simulate": cli_simulate,
    "evolve": evolve,
    "track_front": track_front,
    "picard": picard,
    "cli_compare": cli_compare,
    "wave": wave,
    "wave_tridiagonal": wave_tridiagonal,
    "align": align,
    "curve": curve,
}


def main() -> None:
    out = {"import": {"loaded": loaded()}}
    for name, step in STEPS.items():
        value = step()
        out[name] = {"value": value, "loaded": loaded()}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
