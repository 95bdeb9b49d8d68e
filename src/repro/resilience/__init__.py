"""Resource governance, cancellation, and fault tolerance.

Three cooperating pieces (see ``docs/robustness.md``):

- :mod:`repro.resilience.guard` — :class:`QueryGuard` (wall-clock
  deadline, row/materialization budgets, cooperative
  :class:`CancellationToken`), installed per-thread (so the batch
  executor's workers don't cross-contaminate) and ticked by the engine
  and the access-method merge loops;
- :mod:`repro.resilience.run` — :func:`run_query_guarded`, the one
  execution pipeline every served query goes through, and its two
  executors :func:`execute_guarded` / :func:`evaluate_guarded`, which
  enforce budgets at the sink and implement *degrade* mode (partial
  results flagged truncated instead of an exception);
- :mod:`repro.resilience.faultinject` — deterministic, seed-driven fault
  injection at named points in the store/index/persistence paths, plus
  :func:`retry`, the transient-I/O backoff helper.

Hot-path contract: the module-level :data:`~repro.resilience.guard.GUARD`
and :data:`~repro.resilience.faultinject.INJECTOR` are inert null objects
by default; instrumented loops pay one hoisted boolean test per
iteration when nothing is installed.
"""

from repro.resilience.guard import (
    GUARD,
    CancellationToken,
    NullGuard,
    QueryGuard,
    current_guard,
    guarded,
    install_guard,
    uninstall_guard,
)
from repro.resilience.faultinject import (
    INJECTOR,
    FaultInjector,
    FaultSpec,
    NullInjector,
    injecting,
    install_faults,
    retry,
    uninstall_faults,
)
from repro.resilience.run import (
    GuardedResult,
    evaluate_guarded,
    execute_guarded,
    run_query_guarded,
)

__all__ = [
    "GUARD", "CancellationToken", "NullGuard", "QueryGuard",
    "current_guard", "guarded", "install_guard", "uninstall_guard",
    "INJECTOR", "FaultInjector", "FaultSpec", "NullInjector",
    "injecting", "install_faults", "retry", "uninstall_faults",
    "GuardedResult", "evaluate_guarded", "execute_guarded",
    "run_query_guarded",
]
