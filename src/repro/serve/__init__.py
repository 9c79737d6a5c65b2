"""Long-lived match service over resident graphs (service-level
robustness layer).

Everything below this package is a *library* call: you hand
:func:`run_shards` a graph and get results or an exception.  A service
has the opposite contract — it is always up, load arrives concurrently
and unbidden, dependencies fail mid-request, and every request must end
in an **explicit, honest** response.  This package supplies that layer
on top of the process execution backend:

* :mod:`repro.serve.request` — the request/response contract
  (``status`` / ``exact`` / ``degraded`` are orthogonal; a client can
  never mistake a partial count for an exact one).
* :mod:`repro.serve.service` — admission control (bounded queue,
  per-tenant limits), deadline propagation, seeded retry/backoff,
  idempotency (exactly-once counting across request retries, X511),
  the degradation ladder (codegen → interpreted → budget-truncated)
  and versioned graph hosting, including batch edits
  (``apply_edits``) that patch cached counts forward incrementally.
* :mod:`repro.serve.breaker` — the circuit breaker around the process
  pool (CLOSED / OPEN / HALF_OPEN with probes).
* :mod:`repro.serve.cache` — the versioned exact-count result cache.
* :mod:`repro.serve.loadgen` — the closed-loop load generator the
  ``benchmarks/perf`` serve workloads drive the service with.

See docs/ROBUSTNESS.md §8 for the lifecycle diagram and the
degradation-ladder contract.
"""

from .breaker import BreakerState, CircuitBreaker
from .cache import RESULT_CACHE_MAX, ResultCache
from .loadgen import percentile, run_load
from .request import (
    MatchRequest,
    MatchResponse,
    ResponseStatus,
    RetryPolicy,
    TenantPolicy,
)
from .service import (
    ATTEMPT_STRIDE,
    EditReport,
    GraphHost,
    MatchService,
    request_attempt_offset,
)

__all__ = [
    "ATTEMPT_STRIDE",
    "RESULT_CACHE_MAX",
    "BreakerState",
    "CircuitBreaker",
    "EditReport",
    "GraphHost",
    "MatchRequest",
    "MatchResponse",
    "MatchService",
    "ResponseStatus",
    "ResultCache",
    "RetryPolicy",
    "TenantPolicy",
    "percentile",
    "request_attempt_offset",
    "run_load",
]
