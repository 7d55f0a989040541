"""The compiled engine against the numpy oracle, bit for bit, and its
build."""
import contextlib
import ctypes
import itertools
import math
import re
import threading
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpplab import (
    BranchingLaw,
    BranchingModel,
    Kernel,
    Motion,
    Population,
    RunConfig,
    _engine,
    advance,
    empirical_minima,
    empirical_v,
    martingales,
    minimal_speed,
    prune,
    run_ensemble,
    simulate,
)
from kpplab.errors import CapacityError, DomainError, KppLabError
from kpplab.simulate import (
    MERGED_CHUNK,
    _reduce_replicas,
    _ReplicaPlan,
    _replica_rng,
)

import reference_engine as ref
from helpers import KERNELS, LAWS, MOTIONS


# the engine draws through any caller's bitgen_t: SFC64 is the simulator's own
# stream, PCG64 arrives through default_rng (sampling_consistency), and Philox
# is a counter-based generator, unlike the other two
BIT_GENERATORS = {"pcg64": np.random.PCG64, "philox": np.random.Philox, "sfc64": np.random.SFC64}


def _generator(bit_generator, seed):
    return np.random.Generator(BIT_GENERATORS[bit_generator](seed))


def _same_state(a, b):
    """Equal bit generator states (nested dicts holding arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _advance(pos, t_start, t_end, model, rng, cap):
    """The positions of ``advance`` of the particles at ``pos`` from ``t_start``
    to ``t_end``, under a cap of ``cap`` particles."""
    cfg = RunConfig(t_max=0.0, max_particles=cap)
    return advance(Population(pos, t_start), t_end, model, cfg, rng).positions


def _both_calls(oracle, engine, bit_generator, seed):
    out = []
    for call in (oracle, engine):
        rng = _generator(bit_generator, seed)
        try:
            result = call(rng)
        except CapacityError as err:
            result = ("capacity", err.time, err.count)
        out.append((result, rng.bit_generator.state))
    return out


@settings(max_examples=120, deadline=None)
@given(
    motion=st.sampled_from(sorted(MOTIONS)),
    law=st.sampled_from(sorted(LAWS)),
    bit_generator=st.sampled_from(sorted(BIT_GENERATORS)),
    seed=st.integers(0, 2**32 - 1),
    positions=st.lists(st.floats(-5.0, 5.0), min_size=0, max_size=4),
    t_start=st.floats(0.0, 3.0),
    length=st.one_of(st.just(0.0), st.floats(0.0, 3.0), st.floats(10.0, 12.0)),
    cap=st.integers(1, 3000),
)
def test_segment_matches_the_numpy_engine(
    motion, law, bit_generator, seed, positions, t_start, length, cap
):
    model = BranchingModel(MOTIONS[motion], LAWS[law])
    pos = np.array(positions, dtype=float)
    t_end = t_start + length
    (want, want_state), (got, got_state) = _both_calls(
        lambda rng: ref.evolve_segment(pos, None, t_start, t_end, model, rng, cap)[0],
        lambda rng: _advance(pos, t_start, t_end, model, rng, cap),
        bit_generator,
        seed,
    )
    assert _same_state(want_state, got_state)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert want == got
        return
    assert np.array_equal(want, got)


@settings(max_examples=120, deadline=None)
@given(
    motion=st.sampled_from(sorted(MOTIONS)),
    law=st.sampled_from(sorted(LAWS)),
    bit_generator=st.sampled_from(sorted(BIT_GENERATORS)),
    seed=st.integers(0, 2**32 - 1),
    replicas=st.integers(0, 12),
    chunk=st.sampled_from([1, 3, 5, MERGED_CHUNK]),
    t=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    lam=st.one_of(st.none(), st.floats(-1.0, 2.0)),
    cap=st.integers(1, 3000),
)
def test_merged_chunks_match_the_numpy_chunk_loop(
    motion, law, bit_generator, seed, replicas, chunk, t, lam, cap
):
    # kpp_merged's tags, minima and sums in every motion x law, over chunks
    # of one to five replicas with one Work reused between them, extinct
    # replicas and a capacity hit in any chunk
    model = BranchingModel(MOTIONS[motion], LAWS[law])
    with mock.patch.object(simulate, "MERGED_CHUNK", chunk):
        (want, want_state), (got, got_state) = _both_calls(
            lambda rng: ref.merged(model, t, replicas, rng, cap, chunk, lam),
            lambda rng: _reduce_replicas(model, t, replicas, rng, cap, lam),
            bit_generator,
            seed,
        )
    assert _same_state(want_state, got_state)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert want == got
        return
    assert _bits(want) == _bits(got) and got.size == replicas


def test_segment_with_waits_past_the_inversion_limit():
    # 100000 lifelines die at their first event; those that wait past t_end
    # move for exactly t_end, a Poisson mean just below the limit, on it
    # (the first that goes to random_poisson) or past it
    model = BranchingModel(Motion(True, KERNELS["tabulated"]), LAWS["death"])
    pos = np.zeros(100_000)
    for t_end, bit_generator in itertools.product((9.99, 10.0, 10.5), BIT_GENERATORS):
        assert _generator(bit_generator, 3).standard_exponential(pos.size).max() >= t_end
        (want, want_state), (got, got_state) = _both_calls(
            lambda rng: ref.evolve_segment(pos, None, 0.0, t_end, model, rng, 10**6)[0],
            lambda rng: _advance(pos, 0.0, t_end, model, rng, 10**6),
            bit_generator,
            3,
        )
        assert np.array_equal(want, got) and got.size > 0
        assert _same_state(want_state, got_state)


def test_capacity_error_carries_the_numpy_engine_time_and_count():
    model = BranchingModel(MOTIONS["jump_gaussian"], LAWS["offspring"])
    for bit_generator in BIT_GENERATORS:
        (want, want_state), (got, got_state) = _both_calls(
            lambda rng: ref.evolve_segment(np.zeros(3), None, 0.0, 9.0, model, rng, 500),
            lambda rng: _advance(np.zeros(3), 0.0, 9.0, model, rng, 500),
            bit_generator,
            11,
        )
        assert isinstance(want[0], str) and want == got
        assert _same_state(want_state, got_state)


@pytest.mark.parametrize("merged", [False, True])
def test_empty_and_zero_length_segments_draw_nothing(merged):
    # a merged call of no replicas, or to t = 0, leaves each origin at 0.0
    model = BranchingModel(MOTIONS["diffusive_jump_gaussian"], LAWS["offspring"])
    for pos, t_end in ((np.empty(0), 5.0), (np.array([1.0, -2.0]), 1.0)):
        rng = _generator("sfc64", 4)
        state = rng.bit_generator.state
        if merged:
            n, t = pos.size, t_end - 1.0
            assert _bits(_reduce_replicas(model, t, n, rng, 10)) == _bits(np.zeros(n))
            assert _bits(_reduce_replicas(model, t, n, rng, 10, 0.7)) == _bits(np.ones(n))
        else:
            assert np.array_equal(_advance(pos, 1.0, t_end, model, rng, 10), pos)
        assert _same_state(rng.bit_generator.state, state)


@settings(max_examples=60, deadline=None)
@given(
    motion=st.sampled_from(sorted(MOTIONS)),
    bit_generator=st.sampled_from(sorted(BIT_GENERATORS)),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 30),
    length=st.one_of(st.floats(0.0, 3.0), st.sampled_from([0.0, 9.99, 10.0, 25.0])),
)
def test_displacements_match_the_numpy_engine(motion, bit_generator, seed, size, length):
    # under the one-child law a lifeline is one particle of the motion and its
    # litters draw nothing, so the segment is a chain of displacements over
    # its waits
    model = BranchingModel(MOTIONS[motion], BranchingLaw.offspring_at_parent({1: 1.0}))
    pos = np.linspace(-2.0, 2.0, size)
    (want, want_state), (got, got_state) = _both_calls(
        lambda rng: ref.evolve_segment(pos, None, 0.0, length, model, rng, max(size, 1))[0],
        lambda rng: _advance(pos, 0.0, length, model, rng, max(size, 1)),
        bit_generator,
        seed,
    )
    assert np.array_equal(want, got) and got.size == size
    assert _same_state(want_state, got_state)


@settings(max_examples=60, deadline=None)
@given(
    kernel=st.sampled_from(sorted(KERNELS)),
    law=st.sampled_from(sorted(LAWS)),
    bit_generator=st.sampled_from(sorted(BIT_GENERATORS)),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 50),
)
def test_kernel_draws_and_litters_match_numpy(kernel, law, bit_generator, seed, size):
    # under constant motion a segment draws only its waits, its litters and
    # the displaced children's kernel draws
    parents = np.linspace(-1.0, 1.0, size)
    for branching in (BranchingLaw.binary_one_displaced(KERNELS[kernel]), LAWS[law]):
        model = BranchingModel(Motion.constant(), branching)
        (want, want_state), (got, got_state) = _both_calls(
            lambda rng: ref.evolve_segment(parents, None, 0.0, 1.0, model, rng, 10**6)[0],
            lambda rng: _advance(parents, 0.0, 1.0, model, rng, 10**6),
            bit_generator,
            seed,
        )
        assert np.array_equal(want, got)
        assert _same_state(want_state, got_state)


@pytest.mark.parametrize("replicas", [16383, 16384, 16385, 40960])
def test_merged_calls_match_the_numpy_chunk_loop_at_the_chunk_size(replicas):
    # bit for bit, with the Generator's state, on both sides of the chunk
    # boundary at 16384 replicas
    model = BranchingModel(MOTIONS["jump_gaussian"], LAWS["offspring"])
    t, cap, lam = 0.5, 10**7, 0.6

    def both(engine, oracle):
        (want, want_state), (got, got_state) = _both_calls(oracle, engine, "sfc64", replicas)
        assert _bits(want) == _bits(got) and _same_state(want_state, got_state)

    def mean_se(sums):
        return [sums.mean(), sums.std(ddof=1) / math.sqrt(replicas)]

    # a call of at most one chunk is also the segment of all its replicas at
    # once, as merged calls ran before they were chunked
    for chunk in {16384, min(replicas, 16384)}:
        both(lambda rng: empirical_minima(model, t, replicas, rng),
             lambda rng: ref.merged(model, t, replicas, rng, cap, chunk))
        both(lambda rng: empirical_v(model, lam, t, replicas, rng),
             lambda rng: mean_se(ref.merged(model, t, replicas, rng, cap, chunk, lam)))
        both(lambda rng: _reduce_replicas(model, t, replicas, rng, cap, lam),
             lambda rng: ref.merged(model, t, replicas, rng, cap, chunk, lam))


def test_a_reused_work_gives_the_bytes_of_fresh_buffers():
    # merged chunks that grow and shrink, both reductions, and segments
    # between them, on one Work and on fresh buffers for each call
    steps = [
        ("jump_gaussian", "offspring", None, 3000),
        ("brownian", "binary", 0.5, 40),
        ("diffusive_jump_tabulated", "displaced_uniform", None, MERGED_CHUNK),
        ("jump_uniform", "ternary", "segment", 200),
        ("jump_two_sided_exponential", "death", 1.0, 1),
        ("constant", "binary", None, 700),
        ("jump_gaussian", "offspring", -0.4, 5000),
    ]

    def run(shared):
        rng, out = _generator("sfc64", 9), []
        with _engine.Work() as reused:
            for motion, law, lam, n in steps:
                model = BranchingModel(MOTIONS[motion], LAWS[law])
                with contextlib.nullcontext(reused) if shared else _engine.Work() as work:
                    if lam == "segment":
                        pos = np.linspace(-1.0, 1.0, n)
                        *_, res = _engine.replica(work, [1.0], [0], [-1], model, rng, 0.0, 0.0,
                                                  math.inf, 10**6, pos, 0.0)
                        out.append(_engine._take(res))
                    else:
                        out.append(np.empty(n))
                        _engine.merged(work, out[-1], 1.0, model, rng, 10**6, lam)
        return [_bits(x) for x in out], rng.bit_generator.state

    (fresh, fresh_state), (reused, reused_state) = run(False), run(True)
    assert fresh == reused and _same_state(fresh_state, reused_state)


class _BitGen(ctypes.Structure):
    """numpy's ``bitgen_t``"""

    _fields_ = [(name, ctypes.c_void_p) for name in
                ("state", "next_uint64", "next_uint32", "next_double", "next_raw")]


def test_tabulated_inverse_matches_interp_on_exact_hits():
    # uniforms on every cdf value (a zero-density stretch repeats some), at
    # 0 and just below 1, fed to a segment by a bit generator that replays
    # them as the displaced children's draws.  Its 64-bit words make the
    # first m waits about 1e-16, so every lifeline branches, and the next 2m
    # waits run past t_end, so the children finish in their litters' order.
    k = KERNELS["tabulated"]
    us = np.concatenate([k.cdf, [0.0, np.nextafter(1.0, 0.0)], np.random.default_rng(0).random(50)])
    m = us.size
    uniforms = iter(us.tolist())
    words = iter([1 << 11] * m + [1 << 62] * (2 * m))
    next_double = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)(lambda state: next(uniforms))
    next_uint64 = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)(lambda state: next(words))
    bitgen = _BitGen(next_uint64=ctypes.cast(next_uint64, ctypes.c_void_p),
                     next_double=ctypes.cast(next_double, ctypes.c_void_p))
    model = BranchingModel(Motion.constant(), BranchingLaw.binary_one_displaced(k))
    pos, res = np.zeros(m), _engine._Result()
    checkpoint, record, generation = np.ones(1), np.zeros(1, np.int8), np.full(1, -1)
    with _engine.Work() as work:
        status = _engine._lib.kpp_replica(
            work.buffers(), ctypes.addressof(bitgen), ctypes.byref(_engine._motion(model.motion)),
            ctypes.byref(_engine._law(model.law)), m, pos.ctypes.data, 0.0, 1,
            checkpoint.ctypes.data, record.ctypes.data, generation.ctypes.data, 0.0, 0.0,
            math.inf, 2 * m, None, None, None, ctypes.byref(res),
        )
        assert status == _engine._OK
        out = _engine._take(res)
    assert out.size == 2 * m and not out[0::2].any()
    assert np.array_equal(out[1::2], np.interp(us, k.cdf, k.x))
    assert next(uniforms, None) is None and next(words, None) is None


def test_failed_build_raises_import_error_and_leaves_nothing(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", "")
    with pytest.raises(ImportError, match="cc"):
        _engine._build(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_concurrent_builds_into_one_directory_both_load(tmp_path):
    built = [None, None]

    def build(i):
        built[i] = _engine._build(tmp_path)

    threads = [threading.Thread(target=build, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    assert not any(t.is_alive() for t in threads)
    assert built[0] == built[1] and built[0].parent == tmp_path
    assert [p.name for p in tmp_path.iterdir()] == [built[0].name]
    for path in built:
        assert ctypes.CDLL(str(path)).kpp_replica


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _speed(model):
    try:
        speed = minimal_speed(model)
    except KppLabError:
        return None, None
    return speed.lambda_star, speed.c_star * speed.lambda_star


def _engine_replica(plan, model, rng, cap, *start):
    with _engine.Work() as work:
        minima, w, d, out = _engine.replica(
            work, plan.checkpoints, plan.record, plan.generations, model, rng,
            plan.lambda_star, plan.psi_star, plan.window, cap, *start,
        )
        pos = _engine._take(out)
    counts = {k: getattr(out, k) for k in ("rounds", "lifelines", "peak_population", "pruned")}
    return list(minima), list(w), list(d), out.bound, counts, pos


@settings(max_examples=150, deadline=None)
@given(
    motion=st.sampled_from(sorted(MOTIONS)),
    law=st.sampled_from(sorted(LAWS)),
    bit_generator=st.sampled_from(sorted(BIT_GENERATORS)),
    seed=st.integers(0, 2**32 - 1),
    t_max=st.one_of(st.floats(0.5, 4.0), st.sampled_from([0.0, 1.0, 3.0, 4.0])),
    fractions=st.lists(st.floats(0.0, 1.0), max_size=3),
    window=st.sampled_from(["inf", "default", "one"]),
    cap=st.sampled_from([1, 10, 100, 10**6, 10**6]),
)
def test_replica_matches_the_python_loop(
    motion, law, bit_generator, seed, t_max, fractions, window, cap
):
    # kpp_replica against advance -> minimum/martingales -> prune in numpy,
    # at off-integer record times, windows inf, 14/lambda* and 1, extinct
    # replicas and capacity hits
    model = BranchingModel(MOTIONS[motion], LAWS[law])
    lam, psi = _speed(model)
    windows = {"inf": math.inf, "default": None, "one": 1.0}
    cfg = RunConfig(
        t_max=t_max,
        record_times=tuple(f * t_max for f in fractions),
        prune_window=windows[window] if lam is not None else math.inf,
        max_particles=cap,
        seed=seed,
    )
    plan = _ReplicaPlan(cfg, lam, psi)
    (want, want_state), (got, got_state) = _both_calls(
        lambda rng: ref.replica(plan, model, rng, cap),
        lambda rng: _engine_replica(plan, model, rng, cap),
        bit_generator,
        seed,
    )
    assert _same_state(want_state, got_state)
    if isinstance(want[0], str) or isinstance(got[0], str):
        assert want == got
    else:
        assert [_bits(x) for x in want[:3]] == [_bits(x) for x in got[:3]]
        assert _bits(want[3]) == _bits(got[3]) and want[4] == got[4]
        assert _bits(want[5]) == _bits(got[5])
    if model.is_lattice:
        return  # run_ensemble does not simulate lattice replicas
    res = run_ensemble(model, cfg, 2)
    invalid, traces = [], []
    for r in range(2):
        try:
            traces.append((r, ref.replica(plan, model, _replica_rng(seed, r), cap)))
        except CapacityError:
            invalid.append(r)
    assert res.invalid_replicas == invalid
    assert _bits([s.m for s in res.minima]) == _bits([m for _, o in traces for m in o[0]])
    if lam is None:
        assert res.traces == []
        return
    for tr, (r, (_, ws, ds, bound, counts, _)) in zip(res.traces, traces, strict=True):
        assert tr.replica == r and _bits(tr.w) == _bits(ws) and _bits(tr.d) == _bits(ds)
        assert _bits(tr.pruned_mass_bound) == _bits(bound)
        assert (tr.rounds, tr.lifelines, tr.peak_population, tr.pruned) == tuple(counts.values())


@settings(max_examples=120, deadline=None)
@given(
    motion=st.sampled_from(sorted(MOTIONS)),
    law=st.sampled_from(sorted(LAWS)),
    bit_generator=st.sampled_from(sorted(BIT_GENERATORS)),
    seed=st.integers(0, 2**32 - 1),
    positions=st.lists(st.floats(-5.0, 5.0), max_size=4),
    t_start=st.floats(0.0, 3.0),
    steps=st.lists(
        st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 1.5)), st.booleans(), st.integers(-1, 5)),
        min_size=1, max_size=3,
    ),
    window=st.sampled_from([math.inf, 1.0, 3.0]),
    cap=st.sampled_from([1, 10, 100, 10**6]),
)
def test_replica_from_any_population_matches_the_python_loop(
    motion, law, bit_generator, seed, positions, t_start, steps, window, cap
):
    # kpp_replica started from arbitrary positions and time, against
    # evolve_segment -> martingales -> prune in numpy, with zero-length
    # steps, any generation and the population left at the last checkpoint
    model = BranchingModel(MOTIONS[motion], LAWS[law])
    lengths, record, generations = zip(*steps)
    plan = SimpleNamespace(
        checkpoints=t_start + np.cumsum(lengths), record=np.array(record, dtype=np.int8),
        generations=np.array(generations), lambda_star=1.1, psi_star=0.7, window=window,
    )
    (want, want_state), (got, got_state) = _both_calls(
        lambda rng: ref.replica(plan, model, rng, cap, positions, t_start),
        lambda rng: _engine_replica(plan, model, rng, cap, positions, t_start),
        bit_generator,
        seed,
    )
    assert _same_state(want_state, got_state)
    if isinstance(want[0], str) or isinstance(got[0], str):
        assert want == got
        return
    assert [_bits(x) for x in want[:4]] == [_bits(x) for x in got[:4]]
    assert want[4] == got[4] and _bits(want[5]) == _bits(got[5])


def test_replica_without_a_model_runs_no_segment():
    # no model or generator is needed while every checkpoint is the start
    # time; one later checkpoint would run a segment, and is refused
    with _engine.Work() as work:
        minima, w, d, res = _engine.replica(
            work, [2.0, 2.0], [1, 1], [2, -1], None, None, 1.1, 0.7, 2.0, 0,
            [0.5, -1.0, 3.0], 2.0,
        )
        assert minima.tolist() == [-1.0, -1.0] and _engine._take(res).tolist() == [0.5, -1.0]
        want = ref.martingales(np.array([0.5, -1.0, 3.0]), 2, 1.1, 0.7)
        assert _bits([w[0], d[0]]) == _bits(want)
        for model, rng in ((None, None), (None, _generator("sfc64", 1)),
                           (BranchingModel(MOTIONS["brownian"], LAWS["binary"]), None)):
            with pytest.raises(ValueError, match="segment"):
                _engine.replica(work, [2.0, 2.5], [0, 0], [-1, -1], model, rng, 1.1, 0.7,
                                math.inf, 10, [0.0], 2.0)


def test_public_steps_on_an_empty_population_match_numpy():
    pop = Population(np.empty(0), 3.0, 0.125)
    assert _bits(martingales(pop, 3, 1.1, 0.7)) == _bits(ref.martingales(np.empty(0), 3, 1.1, 0.7))
    out = prune(pop, 1.1, 2.0)
    assert out.positions.size == 0 and _bits(out.pruned_mass_bound) == _bits(0.125)
    with pytest.raises(DomainError):
        prune(pop, 1.1, math.nan)


def test_every_engine_entry_point_has_a_binding():
    # the C file's non-static kpp_ definitions and the loader's bindings are
    # the same set, so an entry point that nothing calls cannot stay behind
    defined = set(re.findall(r"^(?!static)[a-z].*?\b(kpp_\w+)\s*(?:\(|=)",
                             _engine.SOURCE.read_text(), re.M))
    bound = set(re.findall(r'(?:\b_lib\.|DLL\(_path\)\.|in_dll\(_lib, ")(kpp_\w+)',
                           Path(_engine.__file__).read_text()))
    assert defined == bound and "kpp_replica" in defined


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 127, 128, 129, 8191, 8192, 8193, 100001])
def test_prune_and_martingales_match_numpy_at_every_size(n):
    # numpy sums pairwise: a plain loop below 8 items, 8 accumulators up to
    # 128, halves split at multiples of 8 above; a far-left particle makes
    # the window-70 prune remove the other n, so its sum has n terms
    x = np.random.default_rng(n).normal(0.0, 3.0, n)
    for positions, window in ((x, 2.0), (np.concatenate([[-100.0], x]), 70.0)):
        pop = Population(positions, 3.0, 0.125)
        want = ref.martingales(positions, 3, 1.1, 0.7)
        assert _bits(martingales(pop, 3, 1.1, 0.7)) == _bits(want)
        kept, bound = ref.prune(positions, 1.1, window, 0.125)
        out = prune(pop, 1.1, window)
        assert _bits(out.positions) == _bits(kept)
        assert _bits(out.pruned_mass_bound) == _bits(bound)
    assert out.positions.tolist() == [-100.0]


def test_worker_count_does_not_change_an_ensemble():
    # one valid ensemble and one in which capacity drops some replicas
    model = BranchingModel(Motion(True, KERNELS["tabulated"]), LAWS["displaced_uniform"])
    for cap, invalid in ((10**6, False), (40, True)):
        cfg = RunConfig(t_max=3.0, record_times=(1.5, 3.0), max_particles=cap, seed=5)
        a = run_ensemble(model, cfg, 12, n_workers=1)
        b = run_ensemble(model, cfg, 12, n_workers=2)
        assert a.invalid_replicas == b.invalid_replicas
        assert bool(a.invalid_replicas) == invalid and len(a.traces) > 0
        assert [(s.t, s.m, s.replica) for s in a.minima] == [
            (s.t, s.m, s.replica) for s in b.minima
        ]
        for x, y in zip(a.traces, b.traces, strict=True):
            assert np.array_equal(x.w, y.w) and np.array_equal(x.d, y.d)
            assert x.pruned_mass_bound == y.pruned_mass_bound
            counters = ("replica", "rounds", "lifelines", "peak_population", "pruned")
            assert [getattr(x, k) for k in counters] == [getattr(y, k) for k in counters]
            assert x.rounds > 0 and x.lifelines >= x.rounds and x.peak_population > 0
