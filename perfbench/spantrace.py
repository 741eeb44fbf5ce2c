"""Per-layer timing of twinmeans, from outside the package.

`install()` replaces every public function of the layers sieve, means,
analytic and verify, and `cli.run`, with a wrapper that records a span around
each call, in every twinmeans module that holds a reference to it (so names
imported with `from .sieve import prime_stream` are timed too).  Generators
get one span per step.  Spans nest on one stack; a span's self time is its
duration minus the spans it encloses.  Nothing under src/ changes, and the
wrapped functions return what they returned before.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("sieve", "means", "analytic", "verify")
ANALYTIC_REDUCERS = {
    "analytic.estimate_M",
    "analytic.estimate_C",
    "analytic.mertens_sum",
    "analytic.twin_product",
    "analytic.log_t_product",
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []     # [name, start, time in child spans]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    def _enter(self, name: str) -> None:
        self.stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, child = self.stack.pop()
        took = time.perf_counter() - start
        self.self_s[name] += took - child
        if self.stack:
            self.stack[-1][2] += took

    def caller(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def wrap(self, name, fn, on_call=None, on_item=None):
        """Wrap fn; on_call(tracer, bound_args) and on_item(tracer, value) count work."""
        sig = inspect.signature(fn)

        def called(args, kwargs):
            self.calls[name] += 1
            if on_call is not None:
                on_call(self, sig.bind(*args, **kwargs).arguments)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen(*args, **kwargs):
                called(args, kwargs)
                it = fn(*args, **kwargs)
                while True:
                    self._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit()
                    if on_item is not None:
                        on_item(self, item)
                    yield item

            return gen

        @functools.wraps(fn)
        def call(*args, **kwargs):
            called(args, kwargs)
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if on_item is not None:
                on_item(self, result)
            return result

        return call

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls), "counts": dict(self.counts)}


def _count_segment_call(tr, a):
    tr.counts["sieve.integers"] += max(0, int(a["hi"]) - int(a["lo"]))


def _count_segment(tr, seg):
    tr.counts["sieve.segments"] += 1
    tr.counts["sieve.primes"] += int(seg.size)
    tr.counts["sieve.bytes"] += int(seg.nbytes)


def _count_terms(tr, seg):
    if tr.caller() in ANALYTIC_REDUCERS:
        tr.counts["analytic.terms"] += int(seg.size)


HOOKS = {
    "sieve.iter_prime_segments": (_count_segment_call, _count_segment),
    "sieve.prime_stream": (None, _count_terms),
    "sieve.load_cache": (
        lambda tr, a: tr.counts.update({"sieve.cache_bytes": os.path.getsize(a["path"])}),
        None,
    ),
    "analytic.log_t_product": (
        lambda tr, a: tr.counts.update({"analytic.terms": int(a["ip"].primes.size)}),
        None,
    ),
    "means.build_ratio_set": (
        None,
        lambda tr, rs: tr.counts.update({"means.elements": len(rs.elements)}),
    ),
}


def install() -> Tracer:
    """Wrap the layers of the imported twinmeans package; returns the tracer."""
    import twinmeans.cli  # noqa: F401  (imports every layer)

    tracer = Tracer()
    targets = []
    for layer in LAYERS:
        mod = sys.modules[f"twinmeans.{layer}"]
        for attr, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                targets.append((f"{layer}.{attr}", fn))
    targets.append(("cli.run", sys.modules["twinmeans.cli"].run))
    mods = [m for n, m in list(sys.modules.items()) if n == "twinmeans" or n.startswith("twinmeans.")]
    for name, fn in targets:
        wrapped = tracer.wrap(name, fn, *HOOKS.get(name, (None, None)))
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapped)
    return tracer
