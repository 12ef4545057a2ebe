"""Spans around calls into each layer, installed from outside the package.

``installed(tracer)`` wraps, for the duration of a ``with`` block, every
public function of the layers ``matio``, ``cli``, ``dense_core``,
``minkowski`` and ``verify``, plus ``numpy.linalg.svd``, ``inv``, ``solve``,
``pinv``, ``qr`` and ``eigh``.  Wrapping works by rebinding module
attributes: every binding of a wrapped function in any ``minkinv`` module
(including names imported with ``from .x import f``) is replaced and put
back afterwards.  No library source changes, and the wrappers pass
arguments and results through untouched.

``solvers`` has no user-facing path in the benchmark's workloads and is not
wrapped.  Spans (name, start, end, parent, request) are kept in memory; the
caller writes them out when the run ends.  ``layer_metrics`` turns one
pass's spans into the per-layer metrics, each per request.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("matio", "cli", "dense_core", "minkowski", "verify")
LAPACK = ("svd", "inv", "solve", "pinv", "qr", "eigh")

# Units of the per-layer self times: a unit's self time is its duration minus
# the time of the nearest unit spans nested in it.  Lower-level spans
# (dense_core helpers, numpy.linalg) count toward the enclosing unit.
ALGORITHMS = {
    "frf": ("minkowski.mink_inverse_frf",),
    "hs": ("minkowski.mink_inverse_hs",),
    "zlobec": ("minkowski.mink_inverse_zlobec",),
    "zlobec2": ("minkowski.mink_inverse_zlobec2",),
    "group": ("minkowski.mink_inverse_group",),
    "resolvent": ("minkowski.mink_inverse_resolvent",),
    "compose13m14m": ("minkowski.compose_13m_14m", "minkowski.one_three_m",
                      "minkowski.one_four_m"),
}
UNITS = frozenset({
    "minkowski.diagnose_existence", "minkowski.mink_inverse",
    "minkowski.moore_style_check", "verify.check_candidate", "verify.cross_check",
    *(name for names in ALGORITHMS.values() for name in names),
})


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "work", "nbytes")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.work = 0
        self.nbytes = 0

    def as_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: int | None = None
        self._stack: list[int] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(name, time.perf_counter(), parent, self.request)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)


def _lapack_work(name: str):
    """Computed work of one call: m*n*min(m, n) for SVD-like, n^3 for the rest."""
    def measure(span, args):
        a = np.asarray(args[0])
        m, n = a.shape[-2:]
        span.work = m * n * min(m, n) if name in ("svd", "pinv", "qr") else n ** 3
    return measure


def _file_bytes(span, args):
    with contextlib.suppress(OSError):
        span.nbytes = os.path.getsize(args[0])


def _cli_command(span, args):
    argv = args[0] if args else None
    if argv:
        span.name = f"cli.{argv[0]}"


def _wrap(tracer: Tracer, name: str, fn, measure=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)
            if measure is not None:
                measure(span, args)
    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the layers' public functions and numpy.linalg for the block's duration."""
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"minkinv.{layer}")
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            measure = {"read_matrix": _file_bytes, "write_matrix": _file_bytes,
                       "main": _cli_command}.get(attr) if layer in ("matio", "cli") else None
            wrappers[fn] = _wrap(tracer, f"{layer}.{attr}", fn, measure)
    for name in LAPACK:
        fn = getattr(np.linalg, name)
        wrappers[fn] = _wrap(tracer, f"numpy.linalg.{name}", fn, _lapack_work(name))

    by_id = {id(fn): (fn, wrapper) for fn, wrapper in wrappers.items()}
    targets = [np.linalg] + [m for n, m in list(sys.modules.items())
                             if n == "minkinv" or n.startswith("minkinv.")]
    patched = []
    try:
        for mod in targets:
            for attr, value in list(vars(mod).items()):
                fn, wrapper = by_id.get(id(value), (None, None))
                if fn is value:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, value))
        yield tracer
    finally:
        for mod, attr, value in reversed(patched):
            setattr(mod, attr, value)


def count_profile(spans: list[Span]) -> dict:
    """Per request: span counts by name and total LAPACK work (machine-independent)."""
    profile = {}
    for s in spans:
        entry = profile.setdefault(s.request, Counter())
        entry[s.name] += 1
        entry["lapack_work"] += s.work
    return {req: dict(c) for req, c in profile.items()}


def unit_self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every unit span, by span index."""
    nearest = [None] * len(spans)     # nearest enclosing unit span
    self_time = {}
    for i, s in enumerate(spans):
        p = s.parent
        if p is not None:
            nearest[i] = p if spans[p].name in UNITS else nearest[p]
        if s.name in UNITS:
            self_time[i] = s.end - s.start
            if nearest[i] is not None:
                self_time[nearest[i]] -= s.end - s.start
    return self_time


def layer_metrics(spans: list[Span], n_requests: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one pass, each per request: name -> (value, unit)."""
    count = Counter()
    total = Counter()     # inclusive seconds
    self_s = Counter()    # unit self seconds
    work = nbytes = 0
    for s in spans:
        count[s.name] += 1
        total[s.name] += s.end - s.start
        work += s.work
        nbytes += s.nbytes
    for i, t in unit_self_times(spans).items():
        self_s[spans[i].name] += t
    lapack_s = sum(t for name, t in total.items() if name.startswith("numpy.linalg."))
    lapack_n = sum(c for name, c in count.items() if name.startswith("numpy.linalg."))
    per = 1.0 / n_requests
    ms = 1000.0 * per
    out = {
        "matio.read_ms": (total["matio.read_matrix"] * ms, "ms"),
        "matio.write_ms": (total["matio.write_matrix"] * ms, "ms"),
        "matio.mb_per_request": (nbytes / 1e6 * per, "MB"),
        "cli.inverse_ms": (total["cli.inverse"] * ms, "ms"),
        "cli.check_ms": (total["cli.check"] * ms, "ms"),
        "dense_core.svd_calls": (count["numpy.linalg.svd"] * per, "count"),
        "dense_core.inv_calls": (count["numpy.linalg.inv"] * per, "count"),
        "dense_core.lapack_calls": (lapack_n * per, "count"),
        "dense_core.lapack_work": (work * per, "count"),
        "dense_core.lapack_ms": (lapack_s * ms, "ms"),
        "dense_core.lapack_share": (lapack_s / total["request"] if total["request"] else 0.0,
                                    "ratio"),
        "dense_core.rank_calls": (count["dense_core.numerical_rank"] * per, "count"),
        "minkowski.diagnose_existence.calls":
            (count["minkowski.diagnose_existence"] * per, "count"),
        "minkowski.diagnose_existence.self_ms":
            (self_s["minkowski.diagnose_existence"] * ms, "ms"),
        "minkowski.mink_inverse.ms": (total["minkowski.mink_inverse"] * ms, "ms"),
    }
    for algo, names in ALGORITHMS.items():
        out[f"minkowski.{algo}.self_ms"] = (sum(self_s[n] for n in names) * ms, "ms")
    out.update({
        "minkowski.moore_style_check.ms": (total["minkowski.moore_style_check"] * ms, "ms"),
        "verify.check_candidate.calls": (count["verify.check_candidate"] * per, "count"),
        "verify.check_candidate.ms": (total["verify.check_candidate"] * ms, "ms"),
        "verify.cross_check.self_ms": (self_s["verify.cross_check"] * ms, "ms"),
    })
    return out
