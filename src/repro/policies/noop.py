"""The no-op policy: LaSS's data path with the control loop removed.

``run_fixed_allocation`` — the Figures 3/4 model-validation atom — used
to fake "no control loop" by giving :class:`LassController` an epoch
longer than the experiment.  :class:`NoOpPolicy` makes that explicit: it
is exactly the shared-queue WRR data path (dispatch to an idle
container, FCFS queue otherwise, drain on warm-up/completion) with *no*
scaling of any kind — containers are whatever the harness created
(``warm_start`` prewarming, or explicit ``create_container`` calls).

The event stream it produces is byte-identical to the disabled-LaSS
construction it replaces: both run the data path of
:class:`~repro.core.dispatch.SharedQueuePolicy` (this one with no
arrival or completion folds and no create-on-empty), record
arrivals/completions into the same collector, and never schedule a
control event.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.dispatch import SharedQueuePolicy
from repro.core.policy import PolicyContext, register_policy


class NoOpPolicy(SharedQueuePolicy):
    """Pure dispatch over a fixed fleet: no control loop, no scaling."""

    name = "noop"

    def start(self) -> None:
        """Nothing to start: the policy schedules no control events."""


def _no_params(params) -> None:
    """Eager params check: the no-op policy is parameterless."""
    if params:
        raise ValueError(f"policy 'noop' takes no policy_params; got {sorted(params)}")


@register_policy(
    "noop",
    "no control loop: WRR dispatch over whatever containers exist",
    validate_params=_no_params,
)
def _build_noop(context: PolicyContext, params: Dict[str, Any]) -> NoOpPolicy:
    """Registry factory for the no-op policy (takes no params)."""
    _no_params(params)
    return NoOpPolicy(engine=context.engine, cluster=context.cluster,
                      metrics=context.metrics)


__all__ = ["NoOpPolicy"]
