"""Per-function desired allocation: the model-driven autoscaler (paper §3.3).

The autoscaler answers one question per function per epoch: given the
estimated arrival rate, what the controller knows about the service
time, and the SLO, how many containers should this function have?  It
chooses automatically between the homogeneous model (all containers at
standard size) and the heterogeneous Alves et al. model (some
containers deflated), exactly as the paper prescribes.

All model evaluations route through a
:class:`repro.core.queueing.solver.SizingSolver`, the control-plane
sizing path; the reference Algorithm 1 in
:mod:`repro.core.queueing.sizing` is its test oracle.  The controller
sizes every registered function per epoch through
:meth:`Autoscaler.decide_batch`: one solver call for the epoch's
homogeneous functions and one for its deflated fleets, each solving its
queries one after another.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import List, NamedTuple, Optional, Sequence

from repro.core.queueing.solver import HeterogeneousQuery, SizingQuery, SizingSolver


class ScalingQuery(NamedTuple):
    """One function's inputs to the epoch sizing decision.

    A row rather than a frozen dataclass: the controller builds one per
    function per epoch, and a tuple costs no per-field
    ``object.__setattr__``.

    Attributes
    ----------
    function_name:
        The function to size.
    arrival_rate:
        Estimated (smoothed) arrival rate λ for the next epoch.
    service_rate:
        Service rate μ of a *standard* container.
    slo_deadline:
        The SLO deadline ``d`` in seconds.
    current_containers:
        Containers currently allocated (reported back on the decision).
    existing_service_rates:
        Per-container service rates when the fleet is heterogeneous
        (some containers deflated); ``None`` for the homogeneous model.
    min_containers:
        A floor on the answer (e.g. keep-warm minimum).
    """

    function_name: str
    arrival_rate: float
    service_rate: float
    slo_deadline: float
    current_containers: int = 0
    existing_service_rates: Optional[Sequence[float]] = None
    min_containers: int = 0


class ScalingDecision(NamedTuple):
    """The autoscaler's verdict for one function in one epoch (a row, like the query).

    Attributes
    ----------
    function_name:
        The function this decision concerns.
    desired_containers:
        ``c_new`` — the number of containers the model asks for.
    current_containers:
        The number of containers the function has right now.
    arrival_rate:
        The (smoothed) arrival rate that was fed to the model.
    service_rate:
        The standard-container service rate that was fed to the model.
    wait_budget:
        The waiting-time budget ``t`` used for the percentile bound: the
        whole SLO deadline, since the SLO is defined on waiting time.
    achieved_probability:
        The model's ``P(wait <= t)`` at the desired allocation.
    used_heterogeneous_model:
        Whether the Alves et al. model was used (some containers deflated).
    """

    function_name: str
    desired_containers: int
    current_containers: int
    arrival_rate: float
    service_rate: float
    wait_budget: float
    achieved_probability: float
    used_heterogeneous_model: bool = False

    @property
    def delta(self) -> int:
        """Positive when the function needs more containers, negative when fewer."""
        return self.desired_containers - self.current_containers


class Autoscaler:
    """Computes desired container counts from workload and SLO parameters.

    Parameters
    ----------
    percentile:
        The SLO percentile (paper default: 95 %; model validation also
        uses 99 %).  The waiting-time budget is the full deadline: the
        experiments define their SLO on waiting time ("95 % of requests
        should start being processed within 100 ms").
    solver:
        The :class:`SizingSolver` (or interface-compatible object) used
        for model evaluations; defaults to a new one.
    """

    def __init__(
        self,
        percentile: float = 0.95,
        max_containers: int = 100_000,
        solver: Optional[SizingSolver] = None,
    ) -> None:
        """Configure the SLO percentile and the solver."""
        if not 0 < percentile < 1:
            raise ValueError("percentile must be in (0, 1)")
        self.percentile = float(percentile)
        self.max_containers = int(max_containers)
        self.solver = solver if solver is not None else SizingSolver()

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    def desired_containers(
        self,
        function_name: str,
        arrival_rate: float,
        service_rate: float,
        slo_deadline: float,
        current_containers: int = 0,
        existing_service_rates: Optional[Sequence[float]] = None,
        min_containers: int = 0,
    ) -> ScalingDecision:
        """Compute ``c_new`` for one function (see :class:`ScalingQuery`)."""
        query = ScalingQuery(
            function_name=function_name,
            arrival_rate=arrival_rate,
            service_rate=service_rate,
            slo_deadline=slo_deadline,
            current_containers=current_containers,
            existing_service_rates=existing_service_rates,
            min_containers=min_containers,
        )
        return self.decide_batch((query,))[0]

    def decide_batch(self, queries: Sequence[ScalingQuery]) -> List[ScalingDecision]:
        """Size every function of an epoch in one call.

        Zero-rate queries resolve at once; the homogeneous ones go to
        the solver's :meth:`~SizingSolver.solve_batch` and the deflated
        fleets to its :meth:`~SizingSolver.solve_heterogeneous_batch`, one
        call each; a decision depends only on its own query.  Decisions
        are positionally aligned with ``queries``.
        """
        decisions: List[Optional[ScalingDecision]] = [None] * len(queries)
        budgets: List[float] = [0.0] * len(queries)
        solver_queries: List[SizingQuery] = []
        solver_slots: List[int] = []
        fleet_queries: List[HeterogeneousQuery] = []
        fleet_slots: List[int] = []
        percentile, max_containers = self.percentile, self.max_containers

        for i, (name, rate, mu, deadline, current, existing, min_containers) in enumerate(queries):
            if rate < 0:
                raise ValueError("arrival rate must be non-negative")
            if mu <= 0:
                raise ValueError("service rate must be positive")
            if deadline <= 0:
                raise ValueError("SLO deadline must be positive")
            # the waiting-time budget t is the whole deadline
            budget = budgets[i] = float(deadline)

            # rows are built positionally, in field order: keywords cost more
            # than the row itself, once per function-epoch
            if rate <= 0:
                decisions[i] = ScalingDecision(name, max(min_containers, 0), current, 0.0, mu,
                                               budget, 1.0)
            elif existing is not None and len(existing) > 0 and (
                    max(existing) - min(existing) > 1e-9
                    or any(abs(m - mu) > 1e-9 for m in existing)):
                # the existing fleet is not all at the standard speed: Alves et al.
                fleet_queries.append(HeterogeneousQuery(rate, existing, mu, budget,
                                                        percentile, max_containers))
                fleet_slots.append(i)
            else:
                # λ, μ, budget, percentile, current containers, cap
                solver_queries.append(SizingQuery(float(rate), float(mu), float(budget),
                                                  percentile, 0, max_containers))
                solver_slots.append(i)

        solved = []
        if fleet_queries:
            solved += zip(fleet_slots, self.solver.solve_heterogeneous_batch(fleet_queries),
                          repeat(True))
        if solver_queries:
            solved += zip(solver_slots, self.solver.solve_batch(solver_queries), repeat(False))
        for slot, result, heterogeneous in solved:
            name, rate, mu, _, current, _, min_containers = queries[slot]
            decisions[slot] = ScalingDecision(
                name, max(result.containers, min_containers), current, rate, mu,
                budgets[slot], result.achieved_probability, heterogeneous)
        return decisions  # type: ignore[return-value]

    def minimum_stable_containers(self, arrival_rate: float, service_rate: float) -> int:
        """The smallest container count for which the queue is stable (ρ < 1)."""
        if service_rate <= 0:
            raise ValueError("service rate must be positive")
        if arrival_rate <= 0:
            return 0
        return int(math.floor(arrival_rate / service_rate)) + 1


__all__ = ["Autoscaler", "ScalingDecision", "ScalingQuery"]
