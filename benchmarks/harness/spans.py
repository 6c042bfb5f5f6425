"""In-memory span tracing of the library's layers, installed from outside ``src/``.

:class:`Tracer` wraps the public entry point of each layer (a class
attribute such as ``AsyncEngine.sweep``, or a name in the module that
imported it, such as ``repro.serve.service.matrix_fingerprint``), records
one span per call — name, start, end, parent span, request id and a few
attributes — and restores the originals on exit.  Nothing in the library
is edited; a rename in ``src/`` makes :meth:`Tracer.installed` raise
instead of silently recording nothing.

Spans are only recorded in the process that installed the tracer: worker
processes forked by ``repro.dist`` inherit the wrappers but call straight
through.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional


def sweep_bytes(engine) -> int:
    """Bytes one ``AsyncEngine`` sweep moves, computed from array sizes.

    ``(E + k*L) * (8 + isz) + 8 * n * (5 + 4k)``: every stored off-diagonal
    entry read once per product that uses it (external part ``E`` once,
    local part ``L`` once per local iteration; value plus column index of
    ``isz`` bytes, or the weight alone for the matrix-free stencil
    executor), and every length-``n`` vector read or written once per use
    (the gathered iterate, ``b``, the external product and ``s`` per sweep,
    ``z``, ``s``, the diagonal and the new iterate per local iteration, the
    final write).  Computed, not measured: it ignores cache reuse.
    """
    view = engine.view
    n = view.n
    A = view.matrix
    k = engine.config.local_iterations
    ext = int(engine.plan.ennz.sum())
    loc = A.nnz - ext - n
    entry = 8 if engine.backend == "stencil" else 8 + A.indices.itemsize
    return (ext + k * loc) * entry + 8 * n * (5 + 4 * k)


def _note_sweep(rec, args, kwargs, out) -> None:
    engine = args[0]
    rec["backend"] = engine.backend
    rec["bytes"] = sweep_bytes(engine)


def _note_replicas(rec, args, kwargs, out) -> None:
    engine = args[0]
    reps = args[2] if len(args) > 2 else kwargs.get("replicas")
    rec["replicas"] = engine.nreplicas if reps is None else len(reps)


def _note_iters(rec, args, kwargs, out) -> None:
    rec["iters"] = int(out.sweeps)


def _note_hit(rec, args, kwargs, out) -> None:
    rec["hit"] = bool(out[1])


#: Every wrapped entry point: (span name, module, attribute path, annotator).
#: Several targets may share a span name when one layer has several doors.
TARGETS = [
    ("partition.make", "repro.core.block_async", "make_partition", None),
    ("partition.make", "repro.dist.solver", "make_partition", None),
    ("partition.make", "repro.serve.cache", "make_partition", None),
    ("partition.view", "repro.sparse.blocked", "BlockRowView.__init__", None),
    ("plan.warm", "repro.perf.plan", "SweepPlan.warm_reference", None),
    ("plan.warm", "repro.perf.plan", "SweepPlan.stencil_kernels", None),
    ("plan.stencil_detect", "repro.perf.stencil", "detect_stencil", None),
    ("engine.build", "repro.core.engine", "AsyncEngine.__init__", None),
    ("engine.build", "repro.core.engine", "BatchedAsyncEngine.__init__", None),
    ("precond.build", "repro.krylov.preconditioners", "AsyncSweepPreconditioner.__init__", None),
    ("sweep", "repro.core.engine", "AsyncEngine.sweep", _note_sweep),
    ("bsweep", "repro.core.engine", "BatchedAsyncEngine.sweep", _note_replicas),
    ("residual", "repro.sparse.csr", "CSRMatrix.residual", None),
    ("runloop", "repro.runtime.loop", "RunLoop.run", _note_iters),
    ("runloop", "repro.runtime.loop", "RunLoop.run_batched", _note_iters),
    ("precond.apply", "repro.krylov.preconditioners", "AsyncSweepPreconditioner.__call__", None),
    ("cg.solve", "repro.solvers.cg", "ConjugateGradientSolver.solve", None),
    ("serve.fingerprint", "repro.serve.service", "matrix_fingerprint", None),
    ("serve.cache.lookup", "repro.serve.cache", "PlanCache.lookup", _note_hit),
    ("dist.start", "repro.dist.runtime", "DistRuntime.start", None),
    ("dist.advance", "repro.dist.runtime", "DistRuntime.advance", None),
    ("dist.shutdown", "repro.dist.runtime", "DistRuntime.stop_workers", None),
    ("dist.shutdown", "repro.dist.runtime", "DistRuntime.shutdown", None),
]

_MISSING = object()


def resolve(module: str, path: str):
    """``(owner, attribute name)`` of a wrap target; raises if it is gone."""
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if not hasattr(owner, attr):
        raise AttributeError(f"trace target {module}.{path} no longer exists")
    return owner, attr


class Tracer:
    """Records spans of wrapped calls in memory."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        #: Identifier stamped on every span opened until it changes.
        self.request: Optional[str] = None
        self._stack: List[Dict[str, Any]] = []
        self._pid = os.getpid()

    @contextmanager
    def span(self, name: str, target: Optional[str] = None):
        """Record one span; *target* names the wrapped entry point, if any."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "target": target,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "request": self.request,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn: Callable, name: str, target: str, note: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            with tracer.span(name, target) as rec:
                out = fn(*args, **kwargs)
            if note is not None:
                note(rec, args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for name, module, path, note in TARGETS:
                owner, attr = resolve(module, path)
                saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
                wrapped = self._wrap(getattr(owner, attr), name, f"{module}.{path}", note)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w") as fh:
            for rec in self.spans:
                row = dict(rec, start=rec["start"] - t0, end=rec["end"] - t0)
                fh.write(json.dumps(row) + "\n")


def self_times(spans: List[Dict[str, Any]]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_table(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, busy time and self time.

    Busy time sums the durations of a name's outermost spans, so a layer
    re-entered below itself is not counted twice.
    """
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for s, mine in zip(spans, own):
        row = table.setdefault(s["name"], {"count": 0, "busy": 0.0, "self": 0.0})
        row["count"] += 1
        row["self"] += mine
        p = s["parent"]
        while p is not None and spans[p]["name"] != s["name"]:
            p = spans[p]["parent"]
        if p is None:
            row["busy"] += s["end"] - s["start"]
    return table
