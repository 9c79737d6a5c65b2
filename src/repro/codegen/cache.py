"""``REPRO_CODEGEN`` env-override resolution (stdlib only)."""

from __future__ import annotations

import os
from typing import Any

__all__ = ["resolve_codegen"]

_TRUE = frozenset(("1", "true", "yes", "on"))
_FALSE = frozenset(("0", "false", "no", "off"))


def resolve_codegen(config: Any) -> bool:
    """Resolve the codegen flag with the ``REPRO_CODEGEN`` env override.

    Mirrors :func:`repro.parallel.executor.resolve_execution`: the
    environment wins over ``config.codegen`` so CI matrices can re-run
    the whole suite under the compiled tier without touching call
    sites.  An empty/unset variable defers to the config.
    """
    raw = os.environ.get("REPRO_CODEGEN")
    if raw is None:
        return bool(config.codegen)
    val = raw.strip().lower()
    if not val:
        return bool(config.codegen)
    if val in _TRUE:
        return True
    if val in _FALSE:
        return False
    raise ValueError(
        f"REPRO_CODEGEN={raw!r}: expected a boolean (1/0/true/false/yes/no/on/off)"
    )
