"""One workload in its own process; started by ``run.py``, not by hand.

Prints one JSON object as its last line: the pass times, the gates' verdicts
and digests, and, with ``--trace 1``, the per-layer metrics.  With
``--setup-only`` it stops after set-up and prints the clock reading at the
point where the first timed call would start.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import kpplab
from workloads import OUT_DIR, WORKLOADS


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    src = Path("src").resolve()
    if Path(kpplab.__file__).resolve().parent.parent != src:
        print(f"error: kpplab imported from {kpplab.__file__}, not from {src}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.trace else [args.workload]
    objs = {n: WORKLOADS[n](args.seed) for n in names}
    setup_end = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        result = traced(objs, args)
    else:
        result = untraced(objs[args.workload], args.seconds)
    result["setup_end"] = setup_end
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result, default=float))
    return 0


class Passes:
    """Runs and checks passes of one workload, keeping what the result needs."""

    def __init__(self, workload):
        self.w = workload
        self.times: list[float] = []
        self.stages: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[str] = []
        self.info: dict = {}
        self.last = None

    def run(self, index: int, traced: bool = False) -> float:
        t0 = time.perf_counter()
        out = self.w.run(index, traced=traced)
        elapsed = time.perf_counter() - t0
        checked = self.w.check(out)
        for key, value in checked.stages.items():
            self.stages.setdefault(key, []).append(value)
        self.attempted += checked.attempted
        self.failed += checked.failed
        self.problems += [p for p in checked.problems if p not in self.problems]
        self.digests.append(checked.digest)
        self.info.update(checked.info)
        self.last = out
        return elapsed

    def summary(self) -> dict:
        problems = list(self.problems)
        if self.w.same_inputs and len(set(self.digests)) > 1:
            problems.append("passes on the same inputs gave different outputs")
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": problems,
            "digest": self.digests[0] if self.digests else "",
            "info": self.info,
        }


def untraced(workload, seconds: float) -> dict:
    """Timed passes until the next one would overrun ``seconds``."""
    passes = Passes(workload)
    start = time.perf_counter()
    while True:
        passes.times.append(passes.run(len(passes.times)))
        gc.collect()
        spent = time.perf_counter() - start
        if spent + statistics.median(passes.times) > seconds:
            break
    out = passes.summary()
    out.update(pass_s=passes.times, stages=passes.stages, timed_s=sum(passes.times))
    return out


def traced(objs: dict, args) -> dict:
    """Alternate untraced and traced passes of the workload, then the layer pass.

    The layer pass gives every other workload one traced pass and runs the
    layer probes, so every per-layer metric is observed in every traced run.
    """
    import layers
    from tracing import Tracer

    tracer = Tracer()
    name = args.workload
    runs = {n: Passes(w) for n, w in objs.items()}
    plain, traced_times = [], []

    def traced_pass(n, index=0):
        tracer.section = n
        tracer.install(layers.TARGETS)
        try:
            return runs[n].run(index, traced=True)
        finally:
            tracer.uninstall()

    # pass k runs untraced, then traced, on the same inputs
    start = time.perf_counter()
    while True:
        if len(plain) <= len(traced_times):
            plain.append(runs[name].run(len(plain)))
        else:
            traced_times.append(traced_pass(name, len(traced_times)))
        spent = time.perf_counter() - start
        if traced_times and spent + statistics.median(plain + traced_times) > args.seconds:
            break
    for n in objs:
        if n != name:
            traced_pass(n)

    tracer.install(layers.TARGETS)
    try:
        ens = runs["ensemble"]
        replayed = layers.replay(tracer, ens.w.model, ens.last)
        probes = layers.edge_sweep(tracer, args.seed)
        probes.update(layers.psi_counts(tracer))
    finally:
        tracer.uninstall()
    probes.update(layers.convolve_sweep())

    passes = {n: 1 for n in objs}
    passes[name] = len(traced_times)
    infos = {n: r.info for n, r in runs.items()}
    overhead = statistics.median(traced_times) / statistics.median(plain) - 1.0
    metrics = layers.layer_metrics(
        tracer, passes, infos, objs["solvers"], replayed, probes, overhead
    )
    tracer.dump(OUT_DIR / f"trace-{name}-{args.seed}.json")
    summaries = {n: r.summary() for n, r in runs.items()}
    return {
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "problems": [f"{n}: {p}" for n, s in summaries.items() for p in s["problems"]],
        "digest": summaries[name]["digest"],
        "info": summaries[name]["info"],
        "layers": metrics,
        "missing": tracer.missing,
        "replay_identical": f"{replayed['identical']}/{layers.REPLAY_REPLICAS}",
    }


if __name__ == "__main__":
    sys.exit(main())
