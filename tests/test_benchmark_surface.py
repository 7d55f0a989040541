"""The names of the package that the benchmark in ``perfbench/`` wraps,
replays and reads.

The benchmark's tracer records a wrapper target that it cannot find instead
of failing, so a lost name would silently read as an unobserved per-layer
metric.  The benchmark's files are read with ``ast``, not imported.
"""
import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

from kpplab import simulate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: targets the package no longer binds, which the benchmark still lists
EXPECTED_MISSING = {"kpplab.simulate.sample_offspring_batch", "kpplab.kernels.Kernel.sample"}


def _targets() -> list[tuple[str, str]]:
    """The ``(owner, attribute)`` pairs of ``layers.TARGETS``."""
    for node in ast.walk(ast.parse((PERFBENCH / "layers.py").read_text())):
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TARGETS"]:
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError("perfbench/layers.py defines no TARGETS")


def _owner(dotted: str):
    """The module or class that ``dotted`` names, or ``None``, resolved as the
    tracer resolves it: the longest importable module, then attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            owner = getattr(owner, part, None)
        return owner
    return None


def _simulate_chains() -> set[str]:
    """Every dotted ``simulate.<name>...`` that the benchmark's files read."""
    chains = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            text = ast.unparse(node) if isinstance(node, ast.Attribute) else ""
            if re.fullmatch(r"simulate(\.\w+)+", text):
                chains.add(text)
    return chains


def test_every_wrapper_target_resolves():
    missing = set()
    for owner_path, attr in _targets():
        owner = _owner(owner_path)
        if owner is None or vars(owner).get(attr) is None:
            missing.add(f"{owner_path}.{attr}")
    assert missing == EXPECTED_MISSING


def test_every_simulate_name_the_benchmark_reads_exists():
    chains = _simulate_chains()
    replay = {"simulate.Population.single", "simulate.advance", "simulate.martingales", "simulate.prune"}
    assert replay <= chains
    for chain in chains:
        obj = simulate
        for part in chain.split(".")[1:]:
            assert hasattr(obj, part), chain
            obj = getattr(obj, part)


@pytest.mark.parametrize(
    "name,params",
    [
        ("advance", ["pop", "t_target", "model", "cfg", "rng"]),
        ("martingales", ["pop", "n", "lambda_star", "psi_star"]),
        ("prune", ["pop", "lambda_star", "window"]),
        ("run_ensemble", ["model", "cfg", "replicas", "n_workers"]),
        ("empirical_v", ["model", "lam", "t", "replicas", "rng", "max_particles"]),
    ],
)
def test_replayed_and_wrapped_operations_keep_their_signatures(name, params):
    assert list(inspect.signature(getattr(simulate, name)).parameters) == params


@pytest.mark.parametrize(
    "cls,fields",
    [
        (simulate.Population, {"positions", "time", "pruned_mass_bound"}),
        (simulate.MinimumSample, {"t", "m", "replica"}),
        (simulate.EnsembleResult, {"minima", "traces", "invalid_replicas", "lambda_star", "psi_star"}),
        (simulate.MartingaleTrace, {"replica", "n", "w", "d"}),
    ],
)
def test_result_fields_the_benchmark_reads(cls, fields):
    assert fields <= {f.name for f in dataclasses.fields(cls)}
