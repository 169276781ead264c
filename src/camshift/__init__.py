"""camshift: hierarchical binary subshift families with exact certificates.

Subpackages:

* :mod:`camshift.slp` — grammar-compressed binary words (random access,
  windows, exact occurrence counting).
* :mod:`camshift.hierarchy` — the family contract both dimensions share:
  the level state, the certificate rows and the output form.
* :mod:`camshift.cam1d` — the level driver of every dimension and the
  one-dimensional hierarchy: certification, structure parsing, empirical
  measures, complexity profiles.
* :mod:`camshift.camzd` — the d-dimensional analogue built from cube words,
  self-concatenations and postcard layouts.
* :mod:`camshift.sft` — nonnegative-integer-matrix shift arithmetic:
  periodic-point census, Perron eigenvalue, tower embedding feasibility.
* :mod:`camshift.cli` — the ``camshift`` command-line front end.
"""

from .budgets import Budgets, budgets_from_env

__all__ = ["Budgets", "budgets_from_env"]
__version__ = "0.1.0"
