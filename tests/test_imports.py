"""What ``import kpplab`` loads, checked in a fresh interpreter.

The root finders and the ODE integrator (``scipy.optimize``,
``scipy.integrate``) are imported by the functions that use them, so a
process that never finds a root does not load them.
"""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kpplab

from helpers import binary_death_extinction, extinction_fixed_point

LAZY = ("scipy.optimize", "scipy.integrate")

SCRIPT = f"""
import json, sys
import numpy as np
import kpplab, kpplab.cli
from kpplab import BranchingLaw, BranchingModel, Kernel, Motion, ProfileEstimate
from kpplab.simulate import _extinction_curve

def loaded():
    return [m for m in {LAZY!r} if m in sys.modules]

out = {{"import": loaded()}}
model = BranchingModel(Motion.pure_jump(Kernel.gaussian(1.0)), BranchingLaw.binary_at_parent())
out["c_star"] = kpplab.minimal_speed(model).c_star
out["q"] = BranchingLaw.offspring_at_parent({{0: 0.1, 1: 0.2, 3: 0.7}}).extinction_probability()
xp, xq = np.linspace(-5.0, 5.0, 201), np.linspace(-15.0, 15.0, 601)
p = ProfileEstimate(xp, 1.0 / (1.0 + np.exp(-xp)), None, "pde-front")
q = ProfileEstimate(xq, 1.0 / (1.0 + np.exp(-(xq - 0.75))), None, "pde-front")
out["shift"] = kpplab.align_shift(p, q)[0]
out["curve"] = _extinction_curve(BranchingLaw.offspring_at_parent({{0: 0.2, 2: 0.8}}), [0.5, 2.0])
out["used"] = loaded()
print(json.dumps(out))
"""


def test_import_loads_no_root_finder_or_integrator():
    src = str(Path(kpplab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["import"] == []
    # each function loads what it needs on first use, and gives its value
    assert out["c_star"] == pytest.approx(math.exp(0.5), rel=1e-12)
    assert out["q"] == pytest.approx(extinction_fixed_point({0: 0.1, 1: 0.2, 3: 0.7}), abs=1e-12)
    assert abs(out["shift"] - 0.75) < 1e-6
    for t, value in out["curve"].items():
        assert value == pytest.approx(binary_death_extinction(0.2, float(t)), abs=1e-10)
    assert out["used"] == list(LAZY)
