"""kpplab benchmark: ``ensemble``, ``compare`` and ``solvers`` workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another.  Each
workload runs in its own single-threaded process (``worker.py``) on the
package under ``src/``; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness gate makes the command exit with status 1.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ensemble", "compare", "solvers")
#: set-up is sampled this many times per run, in fresh processes, after the
#: workload process has warmed the bytecode cache
SETUP_SAMPLES = 3
#: grace on top of ``--seconds`` for set-up, the last pass and, when traced,
#: the layer pass
GRACE_S = 120.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path("src").resolve())
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _worker(args: list[str], timeout: float) -> dict:
    """Run ``worker.py`` and return the JSON object on its last output line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.run(cmd, env=_env(), stdout=subprocess.PIPE, timeout=timeout, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Interpreter start to the first timed call, in fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        out = _worker(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                       "--setup-only"], timeout=60)
        samples.append(out["setup_end"] - start)
    return samples


def _git_commit() -> str:
    head = Path(".git/HEAD")
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = Path(".git") / name
        if loose.exists():
            return loose.read_text().strip()
        for line in Path(".git/packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, digest: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
        "commit": _git_commit(),
        "seed": seed,
        "digest": digest,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One workload's result object (the benchmark's last output line)."""
    budget = seconds + GRACE_S
    start = time.perf_counter()
    out = _worker(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)], timeout=budget)
    if trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in out["layers"].items()}
        print(json.dumps({"missing": out["missing"], "replay_identical": out["replay_identical"]}))
    else:
        first_call = out["setup_end"] - start
        setups = _setup_seconds(workload, seed)
        times = out["pass_s"]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(times), "unit": "s"},
            "ops_per_s": {"value": out["attempted"] / out["timed_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
        stages = {k: statistics.median(v) for k, v in out["stages"].items()}
        print(json.dumps({"workload": workload, "passes": len(times), "pass_s": times,
                          "setup_samples_s": setups, "workload_setup_s": first_call,
                          "stages_s": stages, "info": out["info"]}))
    print(json.dumps({"provenance": provenance(seed, out["digest"])}))
    for problem in out["problems"]:
        print(f"gate failed: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{workload}  {name} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not Path("src/kpplab/__init__.py").is_file():
        print("error: run from the repository root; src/kpplab is missing", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    else:
        parts = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in parts.values()),
            "attempted": sum(r["attempted"] for r in parts.values()),
            "failed": sum(r["failed"] for r in parts.values()),
            "metrics": {f"{w}.{k}": v for w, r in parts.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
