"""Resource budgets and their environment override.

Every expensive operation (1-d and d-dimensional materialization, and the
traces an sft census or height search asked for on the command line
draws) is bounded by one
of these two fields, and nowhere else: no command-line option or keyword
argument sets a limit.  Compressed counting needs no
limit of its own (a pattern is a word already materialized under
``symbols``), nor does the parameter solver (its d + 3 certifier runs cost
the same at every n).  The CAMSHIFT_BUDGET environment variable overrides
individual fields with a comma-separated ``key=value`` list, e.g.
``CAMSHIFT_BUDGET=cells=5e8,symbols=2e6``; an unknown key is refused.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from decimal import Decimal, InvalidOperation

from .errors import CamshiftError

_ENV_VAR = "CAMSHIFT_BUDGET"
# longest value accepted, in digits: the default limit of int() on digit strings
_MAX_DIGITS = 4300


@dataclass(frozen=True)
class Budgets:
    # one-dimensional materialization budget (symbols); the CLI also holds
    # the traces an sft command draws (`sft qn --n`, `sft embed --n-max`,
    # d x `--find-smallest`) to it
    symbols: int = 1_000_000
    # d-dimensional materialization budget (cells)
    cells: int = 100_000_000

    def validate(self) -> "Budgets":
        for field in fields(self):
            if getattr(self, field.name) <= 0:
                raise CamshiftError(f"budget {field.name} must be positive")
        return self


def _parse_int(text: str) -> int:
    # exact decimal reading: "1e8" is 10**8, "1.5" and "1.00000000000000001e8"
    # are not integers, and "1e999999999" is refused before int() expands it
    try:
        value = Decimal(text)
    except InvalidOperation:
        value = None
    if (
        value is None
        or not value.is_finite()
        or value.adjusted() >= _MAX_DIGITS
        or value != value.to_integral_value()
    ):
        raise CamshiftError(f"budget value {text!r} is not an integer")
    return int(value)


def budgets_from_env() -> Budgets:
    """The default budgets with the CAMSHIFT_BUDGET overrides applied."""
    budgets = Budgets()
    raw = os.environ.get(_ENV_VAR, "").strip()
    if not raw:
        return budgets.validate()
    fields = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise CamshiftError(f"malformed {_ENV_VAR} entry {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in Budgets.__dataclass_fields__:
            raise CamshiftError(f"unknown budget {key!r} in {_ENV_VAR}")
        fields[key] = _parse_int(value.strip())
    return replace(budgets, **fields).validate()
