"""The output form every command shares: canonical JSON text and fractions
as "p/q".  It imports nothing from the package, so a command that prints
only these (every ``sft`` command) loads no family module."""

from __future__ import annotations

import json
from fractions import Fraction


def canonical_json(obj) -> str:
    """The one JSON text of every file and report: sorted keys, no spaces, a newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def frac_str(x: Fraction | None) -> str:
    """A fraction as the commands print it, "p/q"; "" for none."""
    if x is None:
        return ""
    return f"{x.numerator}/{x.denominator}"
