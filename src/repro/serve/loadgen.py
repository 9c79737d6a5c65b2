"""Seeded closed-loop load generator for the match service.

``run_load`` drives a :class:`~repro.serve.service.MatchService` with
``clients`` concurrent threads in a *closed loop*: each client owns a
deterministic slice of the request list (``requests[i::clients]``) and
issues its next request the moment the previous response lands, so
offered load adapts to service latency instead of piling up unbounded
— queue pressure comes from concurrency, which is exactly what the
admission path is sized in.

Determinism: the *set* of responses is fixed by (requests, clients,
seed) — per-response provenance (cache vs engine) and shed decisions
depend on thread interleaving by design, which is why identity
assertions over a load run are about counts ("every countable response
equals the golden count for its graph version"), never about which
requests got shed.
"""

from __future__ import annotations

import math
import threading
import time
from typing import TYPE_CHECKING, Callable, Sequence

from .request import MatchRequest, MatchResponse

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .service import MatchService

__all__ = ["percentile", "run_load"]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (q in [0, 100])."""
    if not values:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(ordered[lo])
    frac = rank - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


def run_load(
    service: "MatchService",
    requests: Sequence[MatchRequest],
    clients: int,
    *,
    on_response: Callable[[int, MatchResponse], None] | None = None,
) -> tuple[list[MatchResponse], float]:
    """Issue ``requests`` through ``clients`` closed-loop threads.

    Returns ``(responses, wall_s)`` with responses in *request* order
    (client ``i`` serves indices ``i, i+clients, i+2*clients, ...``).
    A client thread that raises aborts the run with the original
    exception re-raised — a load test must never silently lose
    requests.  ``on_response`` (if given) is called from client threads
    as ``(request_index, response)`` the moment each response lands —
    it must be thread-safe.
    """
    if clients < 1:
        raise ValueError("clients must be >= 1")
    results: list[MatchResponse | None] = [None] * len(requests)
    errors: list[BaseException] = []
    errors_lock = threading.Lock()

    def client(idx: int) -> None:
        try:
            for pos in range(idx, len(requests), clients):
                response = service.match(requests[pos])
                results[pos] = response
                if on_response is not None:
                    on_response(pos, response)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            with errors_lock:
                errors.append(exc)

    workers = [
        threading.Thread(target=client, args=(i,), name=f"loadgen-{i}")
        for i in range(min(clients, max(1, len(requests))))
    ]
    t0 = time.monotonic()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    wall_s = time.monotonic() - t0
    if errors:
        raise errors[0]
    final = [r for r in results if r is not None]
    if len(final) != len(requests):  # pragma: no cover - defensive
        raise RuntimeError("load generator lost responses")
    return final, wall_s
