"""Build, load and call the compiled engine, ``_engine.c``.

The C source is compiled once per source text, compiler flags, numpy and
Python version into ``__pycache__/_engine-<sha256>.so`` next to this file,
and loaded with ``ctypes``.  It links the installed numpy's
``libnpyrandom.a`` and draws on the caller's ``Generator`` through its
``bitgen_t``, under the bit generator's lock; every ``exp`` it takes (the
Poisson inversion's ``exp(-mean)``, the martingale, prune and merged-sum
terms) is numpy's own float64 ``np.exp`` loop, taken from the ufunc.
The flags keep IEEE arithmetic as numpy's loops do it: no contraction into
fused multiply-adds, no ``-ffast-math``, no ``-march=native``.  A missing or
failing C compiler makes the import raise ``ImportError`` with the
compiler's message.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import subprocess
import sys
import sysconfig
import tempfile
from ctypes import POINTER, byref, c_double, c_int, c_int64, c_void_p
from pathlib import Path

import numpy as np

from .errors import CapacityError

SOURCE = Path(__file__).with_name("_engine.c")
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: kernel families in the order of ``enum family`` in ``_engine.c``
_FAMILY_CODES = {"gaussian": 0, "two_sided_exponential": 1, "uniform": 2, "tabulated": 3}
_NONE = -1
_OK, _CAPACITY = 0, 1


def _build(out_dir: Path) -> Path:
    """Compile ``_engine.c`` into ``out_dir`` unless it is already there.

    The library is written to a temporary file and moved into place, so
    concurrent builds never load a partial file.
    """
    source = SOURCE.read_bytes()
    key = hashlib.sha256(
        b"\0".join([source, " ".join(FLAGS).encode(), np.__version__.encode(), sys.version.encode()])
    ).hexdigest()
    target = out_dir / f"_engine-{key}.so"
    if target.exists():
        return target
    paths = sysconfig.get_paths()
    includes = dict.fromkeys([paths["include"], paths["platinclude"], np.get_include()])
    npyrandom = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f"{target.stem}.", suffix=".tmp", dir=out_dir)
        os.close(fd)
    except OSError as exc:
        raise ImportError(f"cannot write the compiled engine to {out_dir}: {exc}") from exc
    cmd = ["cc", *FLAGS, *(f"-I{d}" for d in includes), "-o", tmp, str(SOURCE), str(npyrandom), "-lm"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise ImportError(f"compiling {SOURCE.name} failed:\n{proc.stderr}")
        os.replace(tmp, target)
    except OSError as exc:
        raise ImportError(f"compiling {SOURCE.name} failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


class _Kernel(ctypes.Structure):
    _fields_ = [
        ("family", c_int64),
        ("param", c_double),
        ("x", c_void_p),
        ("cdf", c_void_p),
        ("size", c_int64),
    ]


class _Exp(ctypes.Structure):
    _fields_ = [("loop", c_void_p), ("data", c_void_p)]


class _Motion(ctypes.Structure):
    _fields_ = [
        ("diffusive", c_int64),
        ("jumps", _Kernel),
        ("exp", _Exp),
    ]


class _Law(ctypes.Structure):
    _fields_ = [
        ("litter", c_int64),
        ("cdf", c_void_p),
        ("counts", c_void_p),
        ("size", c_int64),
        ("displacement", _Kernel),
    ]


class _Result(ctypes.Structure):
    """a call's population in the engine's buffers, ``kpp_replica``'s prune
    bound and counters, or the capacity hit"""

    _fields_ = [
        ("pos", c_void_p),
        ("n", c_int64),
        ("bound", c_double),
        ("rounds", c_int64),
        ("lifelines", c_int64),
        ("peak_population", c_int64),
        ("pruned", c_int64),
        ("time", c_double),
        ("count", c_int64),
    ]


_path = str(_build(Path(__file__).parent / "__pycache__"))
_lib = ctypes.CDLL(_path)
_lib.kpp_merged.argtypes = [
    c_void_p, c_void_p, POINTER(_Motion), POINTER(_Law), c_int64, c_double, c_int64,
    c_int, c_double, c_void_p, POINTER(_Result),
]
_lib.kpp_merged.restype = c_int
_lib.kpp_work_new.argtypes = []
_lib.kpp_work_new.restype = c_void_p
_lib.kpp_work_free.argtypes = [c_void_p]
_lib.kpp_work_free.restype = None
_lib.kpp_replica.argtypes = [
    c_void_p, c_void_p, POINTER(_Motion), POINTER(_Law), c_int64, c_void_p, c_double, c_int64,
    c_void_p, c_void_p, c_void_p, c_double, c_double, c_double, c_int64, c_void_p, c_void_p,
    c_void_p, POINTER(_Result),
]
_lib.kpp_replica.restype = c_int
# reads a ufunc object, so it is called holding the interpreter lock
_double_loop = ctypes.PyDLL(_path).kpp_double_loop
_double_loop.argtypes = [ctypes.py_object, POINTER(c_void_p), POINTER(c_void_p)]
_double_loop.restype = c_int

#: numpy's own float64 ``np.exp`` loop, for the Poisson inversion's exp(-mean)
#: and the martingale, prune and merged-sum terms
_EXP_LOOP, _EXP_DATA = c_void_p(), c_void_p()
if not _double_loop(np.exp, byref(_EXP_LOOP), byref(_EXP_DATA)):
    raise ImportError("numpy's exp has no float64 loop")
_EXP = _Exp(_EXP_LOOP, _EXP_DATA)

#: Poisson means from here on go to ``random_poisson``; smaller ones are inverted
POISSON_INVERSION_LIMIT = c_double.in_dll(_lib, "kpp_poisson_inversion_limit").value

_capsule_pointer = ctypes.pythonapi.PyCapsule_GetPointer
_capsule_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
_capsule_pointer.restype = c_void_p


def _bitgen(rng: np.random.Generator) -> int:
    return _capsule_pointer(rng.bit_generator.capsule, b"BitGenerator")


def _kernel(kernel) -> _Kernel:
    if kernel is None:
        return _Kernel(_NONE)
    if kernel.x is None:
        return _Kernel(_FAMILY_CODES[kernel.family], kernel.param)
    return _Kernel(_FAMILY_CODES[kernel.family], 0.0, kernel.x.ctypes.data,
                   kernel.cdf.ctypes.data, kernel.x.size)


def _motion(motion) -> _Motion:
    return _Motion(int(motion.diffusive), _kernel(motion.kernel), _EXP)


def _law(law) -> _Law:
    if law.litter is not None:
        return _Law(law.litter, None, None, 0, _kernel(law.displacement))
    return _Law(-1, law.cdf.ctypes.data, law.counts.ctypes.data, law.counts.size, _Kernel(_NONE))


def _take(res: _Result) -> np.ndarray:
    """A copy of the ``res.n`` positions that ``res`` points at in a
    ``Work``'s buffers."""
    out = np.empty(res.n)
    if res.n:
        ctypes.memmove(out.ctypes.data, res.pos, out.nbytes)
    return out


def _check(status: int, max_particles: int, out) -> None:
    """Raise for an engine status: ``CapacityError`` with ``out``'s time and
    count, or ``MemoryError``."""
    if status == _CAPACITY:
        raise CapacityError(
            f"population exceeded {max_particles} particles", time=out.time, count=out.count
        )
    if status != _OK:
        raise MemoryError("the compiled engine ran out of memory")


class Work:
    """The engine's buffers, which ``merged`` and ``replica`` reuse from one
    call to the next; leaving the ``with`` block frees them.  Every engine
    call runs on one."""

    def __init__(self):
        self.address = _lib.kpp_work_new()
        if not self.address:
            raise MemoryError("the compiled engine ran out of memory")

    def __enter__(self) -> "Work":
        return self

    def __exit__(self, *exc) -> None:
        if self.address:
            _lib.kpp_work_free(self.address)
            self.address = None

    def buffers(self) -> int:
        """The address of the buffers; raises once they are freed."""
        if not self.address:
            raise ValueError("the engine's buffers have been freed")
        return self.address


def merged(work: Work, out: np.ndarray, t_end: float, model, rng: np.random.Generator,
           max_particles: int, lam: float | None = None) -> None:
    """``kpp_merged`` on ``work``'s buffers: ``out.size`` origin particles at
    0.0 run to ``t_end`` as one tagged segment, and reduced per origin into
    ``out``: the minimum of its particles (``inf`` when none is left), or,
    with ``lam``, the sum of ``exp(-lam x)`` over them (0 when none).
    Raises ``CapacityError``."""
    if not (out.dtype == np.float64 and out.ndim == 1 and out.flags.c_contiguous
            and out.flags.writeable):
        raise ValueError("out must be a writeable contiguous float64 vector")
    m, lw, res = _motion(model.motion), _law(model.law), _Result()
    with rng.bit_generator.lock:
        status = _lib.kpp_merged(
            work.buffers(), _bitgen(rng), byref(m), byref(lw), out.size, t_end, max_particles,
            lam is not None, 0.0 if lam is None else lam, out.ctypes.data, byref(res),
        )
    _check(status, max_particles, res)


def replica(work: Work, checkpoints, record, generations, model, rng: np.random.Generator | None,
            lambda_star: float, psi_star: float, window: float, max_particles: int,
            positions=(0.0,), t_start: float = 0.0):
    """``kpp_replica`` on ``work``'s buffers: the particles at ``positions``
    at ``t_start`` run through the increasing ``checkpoints``, the minimum
    taken where ``record`` is true, W and D at generation ``generations[k]``
    where that is not negative, and the prune run at each checkpoint when
    ``window`` is finite.  ``model`` and ``rng`` may be ``None`` when every
    checkpoint is ``t_start``, so that no segment runs.

    Returns the minima, W, D and a ``_Result`` with the population at the
    last checkpoint (``_take`` copies it out of ``work``), the prune bound
    and the counters; raises ``CapacityError``.
    """
    address = work.buffers()
    pos = np.ascontiguousarray(positions, dtype=np.float64)
    cp = np.ascontiguousarray(checkpoints, dtype=np.float64)
    rec = np.ascontiguousarray(record, dtype=np.int8)
    gen = np.ascontiguousarray(generations, dtype=np.int64)
    if not cp.shape == rec.shape == gen.shape == (cp.size,):
        raise ValueError("checkpoints, record and generations must be equal-sized vectors")
    if (model is None or rng is None) and np.any(cp != t_start):
        raise ValueError("a segment needs a model and a generator")
    minima = np.empty(np.count_nonzero(rec))
    w = np.empty(np.count_nonzero(gen >= 0))
    d = np.empty_like(w)
    res = _Result()
    if model is None:  # no segment: only the exp loop is read
        m, lw = _Motion(0, _Kernel(_NONE), _EXP), _Law()
    else:
        m, lw = _motion(model.motion), _law(model.law)
    with contextlib.nullcontext() if rng is None else rng.bit_generator.lock:
        status = _lib.kpp_replica(
            address, None if rng is None else _bitgen(rng), byref(m), byref(lw), pos.size,
            pos.ctypes.data, float(t_start), cp.size, cp.ctypes.data, rec.ctypes.data,
            gen.ctypes.data, lambda_star, psi_star, window, max_particles, minima.ctypes.data,
            w.ctypes.data, d.ctypes.data, byref(res),
        )
    _check(status, max_particles, res)
    return minima, w, d, res
