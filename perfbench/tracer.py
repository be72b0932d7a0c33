"""Per-layer tracing of one magflow CLI invocation, from outside the program.

Run as ``python perfbench/tracer.py SUMMARY_JSON SPANS_NPZ RUN_ID -- ARGV...``
with ``src`` on ``PYTHONPATH``.  It imports magflow, wraps the public
functions of each layer, calls ``magflow.cli.main(ARGV)`` in this fresh
process, and then writes

* SPANS_NPZ: every span, one row of (id, parent id, name index, start, end,
  run id), with the name table; spans stay in memory until the run ends;
* SUMMARY_JSON: per-name calls, total and self seconds, and the work counters
  taken at the same boundaries (raw sums, so several invocations add up).

A span's self time is its duration minus the part of that interval its child
spans cover.  Wrappers are installed in every magflow module that holds the
function, because ``cli``, ``surface``, ``torus``, ``mc`` and ``verify`` bind
names with ``from .x import ...``; patching only the defining module would miss
calls from ``surface`` into ``torus``.  ``halfplane`` gets call counters only:
its functions run millions of times per invocation.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import sys
import threading
import time
from array import array

import numpy as np

_perf = time.perf_counter


class Tracer:
    """Spans and counters of one run, kept in memory."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names = []
        self.rows = array("d")          # flat (id, parent, name, start, end, run)
        self.counters = {}
        self._ids = itertools.count(1)
        self._counts = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._local.stack = []

    def add(self, key: str, value) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; after(args, kwargs, result, seconds) records counters."""
        idx = len(self.names)
        self.names.append(name)
        ids, rows, local, main, run = self._ids, self.rows, self._local, self._main, self.run_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            # a worker thread's first span hangs under the main thread's open span
            parent = stack[-1] if stack else (main[-1] if main else 0)
            sid = next(ids)
            stack.append(sid)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                rows.extend((sid, parent, idx, t0, t1, run))
            if after is not None:
                after(args, kwargs, result, t1 - t0)
            return result

        return wrapper

    def count(self, name: str, fn):
        """Wrap fn with a bare call counter and no span."""
        counter = self._counts[name] = itertools.count()

        def wrapper(*args):
            next(counter)
            return fn(*args)

        return wrapper

    def call_counts(self) -> dict:
        # next() on a fresh itertools.count returns the number of prior calls
        return {name: next(c) for name, c in self._counts.items()}


def _arg(fn, name: str):
    """Extract one argument of fn, applying its defaults, from (args, kwargs)."""
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


def _replace(modules, old, new) -> None:
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions in every magflow module that binds them."""
    import magflow.cli  # noqa: F401  (loads every layer)
    from magflow import flow, halfplane, mc, spectrum, surface, torus

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "magflow" or name.startswith("magflow."))]
    add = tracer.add

    def rk4_steps(args, kwargs, result, secs):
        cfg, t, dt = get_cfg(args, kwargs), get_t(args, kwargs), get_dt(args, kwargs)
        # the integrator's step rule: ceil(|t| / dt) fixed steps, none for t = 0 or E = 0
        if t != 0.0 and cfg.E != 0.0:
            add("flow.rk4_steps", max(1, math.ceil(abs(t) / dt - 1e-12)))

    get_cfg = _arg(flow.flow_numeric, "cfg")
    get_t = _arg(flow.flow_numeric, "t")
    get_dt = _arg(flow.flow_numeric, "dt")
    get_n_steps = _arg(surface.birkhoff_average, "n_steps")
    get_n = _arg(mc.sample_pushforward, "n")

    hooks = {
        (flow, "flow_numeric"): rk4_steps,
        (surface, "birkhoff_average"): lambda a, k, r, s: add(
            "surface.birkhoff_steps", get_n_steps(a, k)),
        (surface, "reduce_point"): lambda a, k, r, s: add("surface.fold_moves", len(r.word)),
        (torus, "psi_many"): lambda a, k, r, s: add("torus.psi_many.elements", r.size),
        (mc, "sample_pushforward"): lambda a, k, r, s: add("mc.samples", get_n(a, k)),
        (spectrum, "ladder"): lambda a, k, r, s: add("spectrum.rungs", len(r)),
    }
    spans = [
        (magflow.cli, "main"),
        (flow, "flow_matrix"), (flow, "flow_exact"), (flow, "flow_numeric"),
        (flow, "lyapunov_exponent"),
        (torus, "preimages_cover"), (torus, "density_mass"), (torus, "psi_many"),
        (torus, "alpha_radial"), (torus, "t_of_distance"),
        (surface, "bolza_group"), (surface, "density_surface"), (surface, "reduce_point"),
        (surface, "birkhoff_average"), (surface, "area_average"),
        (mc, "sample_pushforward"), (mc, "compare_to_closed_form"),
        (spectrum, "ladder"),
    ]
    for mod, attr in spans:
        fn = getattr(mod, attr)
        name = mod.__name__.split(".")[-1] + "." + attr
        _replace(modules, fn, tracer.span(name, fn, hooks.get((mod, attr))))

    # the lru_cache object stays in place: the wrapper calls it and reads its
    # miss count to tell a cold enumeration from a cache hit
    cached = surface.translates_meeting_disk
    seen = {"misses": cached.cache_info().misses}

    def classify(args, kwargs, result, secs):
        misses = cached.cache_info().misses
        if misses > seen["misses"]:
            seen["misses"] = misses
            add("surface.translates_meeting_disk.cold_s", secs)
            tracer.counters["surface.translates"] = max(
                tracer.counters.get("surface.translates", 0), len(result))
        else:
            add("surface.translates_meeting_disk.cache_hits", 1)

    wrapped = tracer.span("surface.translates_meeting_disk", cached, classify)
    wrapped.cache_info, wrapped.cache_clear = cached.cache_info, cached.cache_clear
    _replace(modules, cached, wrapped)

    _replace(modules, halfplane.hyp_dist,
             tracer.count("halfplane.hyp_dist_calls", halfplane.hyp_dist))
    halfplane.Moebius.__matmul__ = tracer.count(
        "halfplane.matmul_calls", halfplane.Moebius.__matmul__)


def summarize(tracer: Tracer):
    """Per-name calls, total and self seconds from the spans, plus counters.

    Returns (summary dict, spans as an (n, 6) array).
    """
    spans = np.frombuffer(tracer.rows, dtype=float).reshape(-1, 6)
    n_names = len(tracer.names)
    sid = spans[:, 0].astype(np.int64)
    parent = spans[:, 1].astype(np.int64)
    name = spans[:, 2].astype(np.int64)
    start, end = spans[:, 3], spans[:, 4]
    dur = end - start

    # covered[p] = length of the union of p's children's intervals
    covered = np.zeros(len(spans) + 2)
    order = np.lexsort((start, parent))
    p, s, e = parent[order], start[order], end[order]
    overlap = (p[1:] == p[:-1]) & (s[1:] < e[:-1])
    lap_parents = set(p[1:][overlap].tolist())
    plain = ~np.isin(p, list(lap_parents))
    np.add.at(covered, p[plain], e[plain] - s[plain])
    for q in lap_parents:
        sel = p == q
        hi = -math.inf
        for a, b in zip(s[sel], e[sel]):
            if b > hi:
                covered[q] += b - max(a, hi)
                hi = b
    self_s = dur - covered[sid]

    names = tracer.names
    by_id_name = np.zeros(len(spans) + 2, dtype=np.int64) - 1
    by_id_name[sid] = name
    parent_name = np.where(parent > 0, by_id_name[parent], -1)

    def idx(n):
        return names.index(n)

    def under(child, par):
        return int(np.sum((name == idx(child)) & (parent_name == idx(par))))

    summary = {
        "calls": np.bincount(name, minlength=n_names).tolist(),
        "total_s": np.bincount(name, weights=dur, minlength=n_names).tolist(),
        "self_s": np.bincount(name, weights=self_s, minlength=n_names).tolist(),
    }
    summary = {n: {k: summary[k][i] for k in summary} for i, n in enumerate(names)}
    counters = dict(tracer.counters)
    counters.update(tracer.call_counts())
    counters["surface.preimages_in_density_surface"] = under(
        "torus.preimages_cover", "surface.density_surface")
    counters["mc.chunks"] = under("torus.psi_many", "mc.sample_pushforward")
    return {"spans": summary, "counters": counters, "run_id": tracer.run_id}, spans


def main(argv) -> int:
    if len(argv) < 4 or argv[3] != "--":
        print("usage: tracer.py SUMMARY_JSON SPANS_NPZ RUN_ID -- ARGV...", file=sys.stderr)
        return 2
    summary_path, spans_path, run_id = argv[0], argv[1], int(argv[2])
    tracer = Tracer(run_id)
    install(tracer)
    import magflow.cli

    rc = magflow.cli.main(argv[4:])
    t_done = _perf()
    summary, spans = summarize(tracer)
    np.savez(spans_path, spans=spans, names=np.array(tracer.names),
             columns=np.array(["id", "parent", "name", "start", "end", "run"]))
    summary["exit_code"] = rc
    summary["post_s"] = _perf() - t_done
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
