"""Resource budgets and their environment override.

Every expensive operation (materialization, d-dimensional scans, pattern
windows, parameter searches) is bounded by one of these knobs.  The
CAMSHIFT_BUDGET environment variable overrides individual fields with a
comma-separated ``key=value`` list, e.g. ``CAMSHIFT_BUDGET=cells=5e8,window=8192``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import InvalidParameter

_ENV_VAR = "CAMSHIFT_BUDGET"


@dataclass(frozen=True)
class Budgets:
    # one-dimensional materialization budget (symbols)
    symbols: int = 1_000_000
    # d-dimensional materialization budget (cells)
    cells: int = 100_000_000
    # maximum pattern length for compressed counting
    window: int = 4096
    # hard cap for snippet growth when a builder needs a wider window
    snippet_cap: int = 1_048_576
    # parameter-search cap on n
    search_cap: int = 10**12

    def validate(self) -> "Budgets":
        for name in ("symbols", "cells", "window", "snippet_cap", "search_cap"):
            if getattr(self, name) <= 0:
                raise InvalidParameter(f"budget {name} must be positive")
        return self


def _parse_int(text: str) -> int:
    # accept plain ints and things like "1e8"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
        if value == int(value):  # int() rejects inf and nan
            return int(value)
    except (ValueError, OverflowError):
        pass
    raise InvalidParameter(f"budget value {text!r} is not an integer")


def budgets_from_env(base: Budgets | None = None) -> Budgets:
    """Apply CAMSHIFT_BUDGET overrides on top of ``base`` (or the defaults)."""
    budgets = base or Budgets()
    raw = os.environ.get(_ENV_VAR, "").strip()
    if not raw:
        return budgets.validate()
    fields = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise InvalidParameter(f"malformed {_ENV_VAR} entry {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in Budgets.__dataclass_fields__:
            raise InvalidParameter(f"unknown budget {key!r} in {_ENV_VAR}")
        fields[key] = _parse_int(value.strip())
    return replace(budgets, **fields).validate()
