"""Out-of-process tracer: spans around the program's public functions.

The tracer lives in the benchmark, not in the program.  ``install`` wraps
every public function of the eight ``hdxwalk`` modules, the method
``PureComplex.validate`` and the ``numpy.linalg`` entry points the program
uses, and rebinds each name another module imported with ``from .x import
f`` so that those calls are recorded too.  ``uninstall`` restores every
original.

Each call is a span with a parent and a job id.  Spans are kept in memory
as flat arrays and written once, by ``save``.  A module's self time is the
time its spans cover minus the time their child spans cover; the root span
of each job belongs to ``bench`` (output capture around the call), so the
self times of all layers add up to the traced wall time.

Counts repeat exactly between runs on the same inputs: calls per function
and module, cache hits and misses, and ``numpy.linalg.flop_est``, a
leading-order LAPACK flop estimate computed from argument shapes, not
measured.  A memoized function is one whose own code reads ``_cache``; a
call to it is a miss when it grew the entries held in ``X._cache`` (links
included) and a hit otherwise.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

MODULES = (
    "cli",
    "cli_io",
    "complex_core",
    "cochain_ops",
    "spectral",
    "level_decomp",
    "theorem_verify",
    "oriented_topology",
)


def _svd_flops(a, *args, **kwargs):
    m, n = a.shape[-2:]
    k, l = min(m, n), max(m, n)
    return 4 * l * l * k + 8 * l * k * k + 9 * k**3


def _square(coeff):
    return lambda a, *args, **kwargs: coeff * a.shape[-1] ** 3


def _lstsq_flops(a, *args, **kwargs):
    m, n = a.shape[-2:]
    k, l = min(m, n), max(m, n)
    return 4 * l * k * k + 8 * k**3


LINALG_FLOPS = {
    "svd": _svd_flops,
    "eigh": _square(9),
    "eigvalsh": _square(4 / 3),
    "cholesky": _square(1 / 3),
    "inv": _square(2),
    "lstsq": _lstsq_flops,
}


def _is_complex(obj):
    return hasattr(obj, "faces_by_dim") and hasattr(obj, "_cache")


def _cache_entries(X):
    cache = X._cache
    links = cache.get("links")
    return len(cache) + (len(links) if links else 0)


def cache_bytes(obj, seen):
    """Array bytes reachable from ``obj``, following link complexes."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if _is_complex(obj):
        return cache_bytes(obj._cache, seen)
    if isinstance(obj, dict):
        return sum(cache_bytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(cache_bytes(v, seen) for v in obj)
    if dataclasses.is_dataclass(obj):
        return sum(cache_bytes(getattr(obj, f.name), seen) for f in dataclasses.fields(obj))
    return 0


class Tracer:
    """Span recorder; see the module docstring."""

    def __init__(self, hdx):
        self.hdx = hdx
        self.names = []
        self.name_ids = {}
        # one entry per span, indexed by span id
        self.parent = array("i")
        self.job_of = array("i")
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []  # [span id, start, child seconds]
        self.job_id = -1
        self.self_s = defaultdict(float)  # per module
        self.incl_s = defaultdict(float)  # per function, outermost calls only
        self.calls = Counter()  # per function and per module
        self.depth = Counter()
        self.flops = 0.0
        self.hits = 0
        self.misses = 0
        self.cache_peak = 0
        self.job_complexes = {}
        self._saved = []

    # -- spans ---------------------------------------------------------
    def _enter(self, qual):
        nid = self.name_ids.get(qual)
        if nid is None:
            nid = self.name_ids[qual] = len(self.names)
            self.names.append(qual)
        sid = len(self.start)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.job_of.append(self.job_id)
        self.name_of.append(nid)
        self.end.append(0.0)
        self.depth[qual] += 1
        t0 = time.perf_counter()
        self.start.append(t0)
        self.stack.append([sid, t0, 0.0])

    def _exit(self, qual, module):
        t1 = time.perf_counter()
        sid, t0, child = self.stack.pop()
        self.end[sid] = t1
        dur = t1 - t0
        self.self_s[module] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        self.depth[qual] -= 1
        if not self.depth[qual]:
            self.incl_s[qual] += dur
        self.calls[qual] += 1
        self.calls[module] += 1

    def job(self, job_id, run):
        """Run ``run()`` as job ``job_id`` under a root span of ``bench``."""
        self.job_id = job_id
        self._enter("bench.job")
        try:
            return run()
        finally:
            self._exit("bench.job", "bench")
            seen = set()
            held = sum(cache_bytes(X, seen) for X in self.job_complexes.values())
            self.cache_peak = max(self.cache_peak, held)
            self.job_complexes.clear()
            self.job_id = -1

    # -- wrapping ------------------------------------------------------
    def _wrap(self, fn, module, qual, flops=None):
        names = fn.__code__.co_names if hasattr(fn, "__code__") else ()
        memo = "_cache" in names or "_cached_op" in names
        tracer = self

        def traced(*args, **kwargs):
            if flops is not None:
                tracer.flops += flops(*args, **kwargs)
            X = args[0] if memo and args and _is_complex(args[0]) else None
            before = _cache_entries(X) if X is not None else 0
            tracer._enter(qual)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(qual, module)
            if X is not None:
                if _cache_entries(X) > before:
                    tracer.misses += 1
                else:
                    tracer.hits += 1
            if tracer.job_id >= 0 and _is_complex(result):
                tracer.job_complexes[id(result)] = result
            return result

        return functools.wraps(fn)(traced)

    def _patch(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        wrappers = {}  # id(original) -> wrapper
        mods = [importlib.import_module(f"{self.hdx.__name__}.{m}") for m in MODULES]
        for short, mod in zip(MODULES, mods):
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = self._wrap(obj, short, f"{short}.{name}")
        for mod in mods + [self.hdx]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, name, wrappers[id(obj)])
        cls = self.hdx.complex_core.PureComplex
        self._patch(cls, "validate", self._wrap(cls.validate, "complex_core", "complex_core.validate"))
        for name, flops in LINALG_FLOPS.items():
            fn = getattr(np.linalg, name)
            self._patch(np.linalg, name, self._wrap(fn, "numpy.linalg", f"numpy.linalg.{name}", flops))

    def uninstall(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    # -- results -------------------------------------------------------
    def wall_s(self):
        """Seconds covered by the root spans of all jobs."""
        return self.incl_s["bench.job"]

    def save(self, path):
        """Write every span once, as flat arrays."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job_of, dtype=np.int32),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
