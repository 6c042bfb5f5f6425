"""JSON-lines job streams — the ``repro serve`` CLI's wire format.

One job per line, e.g.::

    {"matrix": "fv1", "rhs": "random", "seed": 3, "priority": 1}
    {"matrix": "path/to/system.mtx", "rhs": [1.0, 0.0, 2.5], "tol": 1e-8}

Recognised keys (all optional except ``matrix``):

``matrix``
    Suite name (``fv1``, ``trefethen_2000``, ...) or MatrixMarket path.
    Matrices are loaded once per stream and shared across jobs, so repeat
    systems batch and hit the plan cache.
``rhs``
    ``"ones"`` / ``"random"`` / ``"unit"`` (the
    :func:`repro.matrices.default_rhs` kinds, ``"random"`` seeded by the
    job's ``seed``) or an explicit list of values.
``id`` / ``priority`` / ``timeout`` / ``seed``
    Per-request fields of :class:`repro.serve.SolveRequest`.
``method`` / ``precond``
    Outer-solver selection: ``method`` is ``"async"`` (default) or a
    :data:`repro.krylov.OUTER_METHODS` name (``"cg"``, ``"pcg"``,
    ``"gmres"``, ``"richardson"``, ``"richardson2"``); ``precond`` is a
    preconditioner spec (``"none"``/``"jacobi"``/``"async"``/``"async:K"``)
    whose inner sweeps reuse the cached compiled plan.  Jobs sharing a
    method/preconditioner pair group into one admission batch.
``tol`` / ``maxiter``
    Stopping overrides (:class:`repro.runtime.StoppingCriterion`).
``local_iterations`` / ``block_size`` / ``omega`` / ``order`` /
``backend`` / ``partition`` / ``residual_every``
    Asynchronism overrides (:class:`repro.core.AsyncConfig`); jobs with
    identical effective configurations on the same matrix batch together.
    ``partition`` names a non-permuting strategy; an ``+oK`` suffix
    (K > 0) runs async restricted additive Schwarz (``method`` ``"async"``
    only).

Blank lines and ``#`` comments are skipped; unknown keys are an error
(typos should not silently fall back to defaults).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Callable, Dict, Iterable, List, Optional

import numpy as np

from ..sparse.csr import CSRMatrix
from .jobs import SolveRequest, SolveResponse
from .service import SolveService

__all__ = ["JobStreamError", "parse_job", "run_job_stream"]

_REQUEST_KEYS = {"id", "priority", "timeout", "seed", "method", "precond"}
_CONFIG_KEYS = {
    "local_iterations",
    "block_size",
    "omega",
    "order",
    "backend",
    "partition",
    "residual_every",
}
_STOPPING_KEYS = {"tol", "maxiter"}
_ALL_KEYS = {"matrix", "rhs"} | _REQUEST_KEYS | _CONFIG_KEYS | _STOPPING_KEYS


class JobStreamError(ValueError):
    """A malformed job line (bad JSON, unknown key, missing matrix)."""


def _default_load_matrix(spec: str) -> CSRMatrix:
    from ..matrices import get_matrix, read_matrix_market

    try:
        return get_matrix(spec)
    except KeyError:
        return read_matrix_market(spec)


def _job_rhs(A: CSRMatrix, rhs: Any, seed: int) -> np.ndarray:
    if isinstance(rhs, (list, tuple)):
        return np.asarray(rhs, dtype=np.float64)
    from ..matrices import default_rhs

    return default_rhs(A, kind=str(rhs), seed=seed)


def parse_job(
    obj: Dict[str, Any],
    service: SolveService,
    *,
    matrices: Optional[Dict[str, CSRMatrix]] = None,
    load_matrix: Callable[[str], CSRMatrix] = _default_load_matrix,
) -> SolveRequest:
    """One decoded job object → a :class:`repro.serve.SolveRequest`.

    *service* supplies the base config/stopping that per-job overrides are
    applied to; *matrices* (one dict per stream) memoises loads so repeat
    systems share one object.
    """
    if not isinstance(obj, dict):
        raise JobStreamError(f"job must be a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - _ALL_KEYS
    if unknown:
        raise JobStreamError(f"unknown job keys: {sorted(unknown)}")
    spec = obj.get("matrix")
    if not spec:
        raise JobStreamError('job needs a "matrix" (suite name or .mtx path)')
    if matrices is None:
        matrices = {}
    if spec not in matrices:
        matrices[spec] = load_matrix(str(spec))
    A = matrices[spec]
    seed = int(obj.get("seed", 0))
    b = _job_rhs(A, obj.get("rhs", "ones"), seed)
    cfg_over = {k: obj[k] for k in _CONFIG_KEYS if k in obj}
    stop_over = {k: obj[k] for k in _STOPPING_KEYS if k in obj}
    try:
        config = (
            dataclasses.replace(service.config, **cfg_over) if cfg_over else None
        )
        stopping = (
            dataclasses.replace(service.stopping, **stop_over) if stop_over else None
        )
        return SolveRequest(
            A=A,
            b=b,
            request_id=obj.get("id"),
            priority=int(obj.get("priority", 0)),
            timeout=obj.get("timeout"),
            seed=seed,
            config=config,
            stopping=stopping,
            method=str(obj.get("method", "async")),
            precond=obj.get("precond"),
        )
    except (TypeError, ValueError) as exc:
        raise JobStreamError(str(exc)) from None


def run_job_stream(
    lines: Iterable[str],
    service: SolveService,
    *,
    emit: Optional[Callable[[SolveResponse], None]] = None,
    load_matrix: Callable[[str], CSRMatrix] = _default_load_matrix,
) -> List[SolveResponse]:
    """Drive *service* from a JSON-lines job stream; all responses.

    Every job is submitted first — so same-system jobs sit in the queue
    together and the admission batcher can stack them — then the queue is
    drained.  *emit* (when given) is called with each response as it is
    produced: immediate rejections during submission, everything else
    during the drain.
    """
    matrices: Dict[str, CSRMatrix] = {}
    responses: List[SolveResponse] = []

    def deliver(response: SolveResponse) -> None:
        responses.append(response)
        if emit is not None:
            emit(response)

    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise JobStreamError(f"line {lineno}: invalid JSON: {exc}") from None
        try:
            request = parse_job(obj, service, matrices=matrices, load_matrix=load_matrix)
            rejection = service.submit(request)
        except ValueError as exc:  # JobStreamError, or a system submit refuses
            raise JobStreamError(f"line {lineno}: {exc}") from None
        if rejection is not None:
            deliver(rejection)
    for response in service.drain():
        deliver(response)
    return responses
