"""Rule modules.  Importing this package registers every built-in rule
with :mod:`repro.analysis.core`'s registry."""

from repro.analysis.rules import (  # noqa: F401  (import-time registration)
    fault_point_drift,
    guard_hook,
    lock_discipline,
    metric_drift,
    operator_contract,
    resource_safety,
)

__all__ = [
    "fault_point_drift",
    "guard_hook",
    "lock_discipline",
    "metric_drift",
    "operator_contract",
    "resource_safety",
]
