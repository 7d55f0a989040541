"""What each step of a run loads, checked in a fresh interpreter.

``import kpplab`` and ``kpplab.cli`` need numpy only: they load no ``scipy``
module and no process pool.  The simulator's path loads no ``scipy`` module
either: the speed search, second moments, extinction probabilities,
ensembles, empirical minima, D_inf, phi and the CLI's ``simulate``.  Nor do
the lattice solvers, whose transforms are ``numpy.fft``'s and whose band
solves are numpy's own LAPACK's: ``evolve``, ``track_front``,
``picard_solve``, the CLI's ``compare`` and ``traveling_wave_profile``, with
a ``gbsv`` and a tridiagonal ``gtsv`` band.  Each other solver imports the
scipy module it uses on first use: ``align_shift`` loads ``scipy.optimize``
and the lattice extinction curve ``scipy.integrate``.
Every step gives the same values, to the bit, as in this process, which has
all of scipy loaded.
"""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.integrate  # noqa: F401  loaded here, so the steps below run with scipy present
import scipy.optimize  # noqa: F401

import kpplab

import footprint
from helpers import binary_death_extinction, extinction_fixed_point


@pytest.fixture(scope="module")
def fresh():
    """``footprint.py`` run in a fresh interpreter: per step, what it has
    loaded and the step's values."""
    src = Path(kpplab.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, footprint.__file__],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_numpy_only(fresh):
    assert fresh["import"]["loaded"] == []


@pytest.mark.parametrize("step", ["simulator", "cli_simulate"])
def test_simulator_path_loads_no_scipy(fresh, step):
    assert fresh[step]["loaded"] == []


@pytest.mark.parametrize(
    "step", ["evolve", "track_front", "picard", "cli_compare", "wave", "wave_tridiagonal"]
)
def test_lattice_solvers_load_no_scipy(fresh, step):
    assert fresh[step]["loaded"] == []


@pytest.mark.parametrize(
    "step, module",
    [
        ("align", "scipy.optimize"),
        ("curve", "scipy.integrate"),
    ],
)
def test_solvers_load_scipy_on_first_use(fresh, step, module):
    steps = list(fresh)
    before = fresh[steps[steps.index(step) - 1]]["loaded"]
    assert module not in before
    assert module in fresh[step]["loaded"]


@pytest.mark.parametrize("step", sorted(footprint.STEPS))
def test_values_do_not_depend_on_what_is_loaded(fresh, step):
    assert "scipy.optimize" in sys.modules and "scipy.integrate" in sys.modules
    assert fresh[step]["value"] == json.loads(json.dumps(footprint.STEPS[step]()))


def test_steps_give_their_values(fresh):
    sim = fresh["simulator"]["value"]
    assert sim["c_star"] == pytest.approx(math.exp(0.5), rel=1e-12)
    assert sim["q"] == pytest.approx(extinction_fixed_point({0: 0.1, 1: 0.2, 3: 0.7}), abs=1e-12)
    assert fresh["cli_simulate"]["value"]["code"] == 0
    assert abs(fresh["align"]["value"] - 0.75) < 1e-6
    for t, value in fresh["curve"]["value"].items():
        assert value == pytest.approx(binary_death_extinction(0.2, float(t)), abs=1e-10)
