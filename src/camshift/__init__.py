"""camshift: hierarchical binary subshift families with exact certificates.

Subpackages:

* :mod:`camshift.slp` — grammar-compressed binary words (random access,
  windows, exact occurrence counting).
* :mod:`camshift.hierarchy` — what every dimension shares: the family
  contract, the certificate, the level driver and solver, the file form.
* :mod:`camshift.cam1d` — the one-dimensional hierarchy and its probes:
  windows, structure parsing, empirical measures, complexity profiles.
* :mod:`camshift.factors` — the numpy kernel of factor complexity.
* :mod:`camshift.camzd` — the d-dimensional analogue built from cube words,
  self-concatenations and postcard layouts.
* :mod:`camshift.sft` — nonnegative-integer-matrix shift arithmetic:
  periodic-point census, Perron eigenvalue, tower embedding feasibility.
* :mod:`camshift.cli` — the ``camshift`` command-line front end.
"""

from .budgets import Budgets, budgets_from_env

__all__ = ["Budgets", "budgets_from_env"]
__version__ = "0.1.0"
