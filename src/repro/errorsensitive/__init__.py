"""Error-sensitive proof labeling schemes (Feuilloley–Fraigniaud 2017).

The source paper's soundness is binary: *some* node rejects every
illegal configuration.  *Error-Sensitive Proof-Labeling Schemes* (PODC
2017) grade it — the number of rejecting nodes should scale linearly
with the configuration's edit distance from the language, so that a
barely corrupted system raises a small local alarm and a thoroughly
corrupted one alarms everywhere.  This subsystem measures that property
across the scheme catalog:

* :mod:`repro.errorsensitive.distance` — the metric:
  :func:`distance_to_language` brackets (or, on small instances with
  complete state spaces, exactly computes) the register-edit distance;
* :mod:`repro.errorsensitive.decider` — the decider:
  :func:`count_rejections` / :class:`RejectionCounter` count rejecting
  nodes over the verifier engine's incremental verdict vector, and
  :func:`min_rejections` drives the count down adversarially;
* :mod:`repro.errorsensitive.report` — the campaign:
  :func:`measure_scheme_sensitivity` estimates β̂ per scheme over
  randomized register-corruption sweeps (via the ``selfstab`` fault
  machinery) plus registered adversarial patterns
  (:data:`~repro.errorsensitive.report.FAR_PATTERNS`), and
  :func:`error_sensitivity_report` classifies the whole catalog;
* :mod:`repro.errorsensitive.repair` — the FF17 transformation:
  ``es-spanning-tree`` converts the non-error-sensitive pointer scheme
  into an error-sensitive variant by re-encoding the tree as incident
  edge lists with echoed certificates.

Importing this package registers its repaired schemes in the catalog
(:mod:`repro.core.catalog` lists it as a provider module).
"""

from repro.errorsensitive.decider import (
    RejectionCounter,
    count_rejections,
    min_rejections,
)
from repro.errorsensitive.distance import DistanceResult, distance_to_language
from repro.errorsensitive.repair import ErrorSensitiveSpanningTreeScheme
from repro.errorsensitive.report import (
    BETA_THRESHOLD,
    ErrorSensitivityReport,
    FAR_PATTERNS,
    SchemeSensitivity,
    SensitivitySample,
    error_sensitivity_report,
    measure_scheme_sensitivity,
)

__all__ = [
    "BETA_THRESHOLD",
    "DistanceResult",
    "ErrorSensitiveSpanningTreeScheme",
    "ErrorSensitivityReport",
    "FAR_PATTERNS",
    "RejectionCounter",
    "SchemeSensitivity",
    "SensitivitySample",
    "count_rejections",
    "distance_to_language",
    "error_sensitivity_report",
    "measure_scheme_sensitivity",
    "min_rejections",
]
