"""
Span tracing installed from outside the library.

``install`` wraps the public functions listed in ``TRACED`` and rebinds each
wrapper under every name that any ``adlv`` module holds for the original
(``reduction`` imports ``phi_w`` and ``supp_sigma`` by name, for example), so
calls made inside the library are seen too.  Methods are replaced on their
class.  Nothing inside ``src/`` changes.

Each call records one span: function, request id, parent span, start and end.
Spans stay in memory as flat arrays and are written out when the pass ends.
A span's self time is its duration minus the time covered by its child
spans; calls are synchronous and single-threaded, so children never overlap
and their durations simply add.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections.abc import Callable
from contextlib import contextmanager
from importlib import import_module

# (layer, function) pairs; the layer is the adlv module the function lives in.
TRACED = (
    ("cli", "main"),
    ("cli", "classify_json"),
    ("cli", "classify_dot"),
    ("gu", "classify"),
    ("gu", "classify_by_criterion"),
    ("gu", "w_kl"),
    ("gu", "w_prime"),
    ("gu", "s_closed"),
    ("gu", "stratum_record"),
    ("gu", "stratum_graph"),
    ("gu", "positive_coxeter_closed"),
    ("roots", "supp_sigma"),
    ("roots", "s_w_sigma"),
    ("roots", "phi_w"),
    ("roots", "lp_set"),
    ("roots", "is_sigma_coxeter_finite"),
    ("reduction", "is_empty_basic"),
    ("reduction", "is_empty_basic_v_form"),
    ("reduction", "positive_coxeter_generic"),
    ("reduction", "find_reduction"),
    ("reduction", "ReductionCertificate.verify"),
    ("weyl", "decompose_xmy"),
    ("weyl", "WeylElement.reduced_word"),
)

SPAN_NAMES = tuple(f"{layer}.{func}" for layer, func in TRACED)


class Tracer:
    def __init__(self) -> None:
        self.fn = array("i")
        self.req = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.request = -1
        self._stack = [-1]
        self._on = True

    def wrap(self, fid: int, func: Callable) -> Callable:
        fn, req, parent = self.fn, self.req, self.parent
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self._on:
                return func(*args, **kwargs)
            sid = len(fn)
            fn.append(fid)
            req.append(self.request)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    @contextmanager
    def paused(self):
        """Calls made inside record no spans."""
        self._on = False
        try:
            yield
        finally:
            self._on = True

    def durations_by_request(self) -> dict[tuple[int, int], float]:
        """Summed span duration per (function, request)."""
        out: dict[tuple[int, int], float] = {}
        for s, key in enumerate(zip(self.fn, self.req)):
            out[key] = out.get(key, 0.0) + self.end[s] - self.start[s]
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per traced function."""
        child = [0.0] * len(self.fn)
        for s, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[s] - self.start[s]
        calls = [0] * len(SPAN_NAMES)
        total = [0.0] * len(SPAN_NAMES)
        own = [0.0] * len(SPAN_NAMES)
        for s, f in enumerate(self.fn):
            d = self.end[s] - self.start[s]
            calls[f] += 1
            total[f] += d
            own[f] += d - child[s]
        return {name: {"calls": calls[f], "total_s": total[f], "self_s": own[f]}
                for f, name in enumerate(SPAN_NAMES)}

    def write(self, path) -> None:
        """Gzipped JSON lines, one per span: id, function, request, parent,
        start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for s in range(len(self.fn)):
                fh.write(json.dumps([s, SPAN_NAMES[self.fn[s]], self.req[s],
                                     self.parent[s], self.start[s],
                                     self.end[s]]) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every ``TRACED`` function of the imported ``adlv`` package."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "adlv" or name.startswith("adlv.")]
    for fid, (layer, func) in enumerate(TRACED):
        owner = import_module(f"adlv.{layer}")
        if "." in func:
            cls_name, attr = func.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, attr, tracer.wrap(fid, cls.__dict__[attr]))
            continue
        orig = getattr(owner, func)
        wrapper = tracer.wrap(fid, orig)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapper)
