"""Per-function desired allocation: the model-driven autoscaler (paper §3.3).

The autoscaler answers one question per function per epoch: given the
estimated arrival rate, what the controller knows about the service
time, and the SLO, how many containers should this function have?  It
chooses automatically between the homogeneous model (all containers at
standard size) and the heterogeneous Alves et al. model (some
containers deflated), exactly as the paper prescribes.

All model evaluations route through a
:class:`repro.core.queueing.solver.SizingSolver` — the memoized,
warm-started control-plane fast path — unless ``use_fast_sizing=False``
pins the reference Algorithm 1 for ablations.  The controller sizes every
registered function per epoch through :meth:`Autoscaler.decide_batch`:
one solver call for the epoch's homogeneous functions and one for its
deflated fleets, each solving its queries one after another from their
warm anchors.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence

from repro.core.queueing.sizing import (
    SizingResult,
    required_containers,
    required_containers_heterogeneous,
    wait_budget_from_slo,
)
from repro.core.queueing.solver import (HeterogeneousQuery, SizingQuery, SizingSolver,
                                        default_solver)


class ScalingQuery(NamedTuple):
    """One function's inputs to the epoch sizing decision.

    A row rather than a frozen dataclass: the controller builds one per
    function per epoch, and a tuple costs no per-field
    ``object.__setattr__``.

    Attributes
    ----------
    function_name:
        The function to size (also the solver's warm-start key).
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
    service_time_percentile:
        High-percentile service time used to tighten the wait budget.
    min_containers:
        A floor on the answer (e.g. keep-warm minimum).
    """

    function_name: str
    arrival_rate: float
    service_rate: float
    slo_deadline: float
    current_containers: int = 0
    existing_service_rates: Optional[Sequence[float]] = None
    service_time_percentile: Optional[float] = None
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
        The waiting-time budget ``t`` used for the percentile bound.
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

    @property
    def scale_up(self) -> bool:
        """Whether the function is under-provisioned."""
        return self.delta > 0

    @property
    def scale_down(self) -> bool:
        """Whether the function is over-provisioned."""
        return self.delta < 0


class Autoscaler:
    """Computes desired container counts from workload and SLO parameters.

    Parameters
    ----------
    percentile:
        The SLO percentile (paper default: 95 %; model validation also
        uses 99 %).
    use_fast_sizing:
        Route sizing (homogeneous and heterogeneous alike) through the
        memoized solver; ``False`` pins the stateless reference
        implementations for ablations.  Both return identical counts;
        the solver is what makes sub-second reaction possible with
        thousands of containers (Figure 5) and thousands of functions
        per epoch.
    headroom_containers:
        Extra containers added on top of the model's answer (0 in the
        paper; exposed for ablations).
    subtract_service_percentile:
        If true, the waiting-time budget is ``d − s_p`` (the paper's
        conservative rule).  If false the full deadline is used as the
        waiting budget, matching experiments whose SLO is defined on
        waiting time only.
    solver:
        The :class:`SizingSolver` (or interface-compatible object) used
        for model evaluations; defaults to the process-wide shared
        instance.
    """

    def __init__(
        self,
        percentile: float = 0.95,
        use_fast_sizing: bool = True,
        headroom_containers: int = 0,
        subtract_service_percentile: bool = False,
        max_containers: int = 100_000,
        solver: Optional[SizingSolver] = None,
    ) -> None:
        """Configure the SLO percentile and which sizing implementations to use."""
        if not 0 < percentile < 1:
            raise ValueError("percentile must be in (0, 1)")
        if headroom_containers < 0:
            raise ValueError("headroom_containers must be non-negative")
        self.percentile = float(percentile)
        self.use_fast_sizing = bool(use_fast_sizing)
        self.headroom_containers = int(headroom_containers)
        self.subtract_service_percentile = bool(subtract_service_percentile)
        self.max_containers = int(max_containers)
        self.solver = solver if solver is not None else default_solver()

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    def wait_budget(
        self,
        slo_deadline: float,
        service_rate: float,
        service_time_percentile: Optional[float] = None,
    ) -> float:
        """The waiting-time budget ``t`` for a function."""
        if self.subtract_service_percentile:
            return wait_budget_from_slo(
                slo_deadline, service_rate, self.percentile, service_time_percentile
            )
        return wait_budget_from_slo(slo_deadline, service_rate, self.percentile, 0.0)

    def desired_containers(
        self,
        function_name: str,
        arrival_rate: float,
        service_rate: float,
        slo_deadline: float,
        current_containers: int = 0,
        existing_service_rates: Optional[Sequence[float]] = None,
        service_time_percentile: Optional[float] = None,
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
            service_time_percentile=service_time_percentile,
            min_containers=min_containers,
        )
        return self.decide_batch((query,))[0]

    def decide_batch(self, queries: Sequence[ScalingQuery]) -> List[ScalingDecision]:
        """Size every function of an epoch in one call.

        Zero-rate queries resolve at once; the homogeneous ones go to
        the solver's :meth:`~SizingSolver.solve_batch` and the deflated
        fleets to its :meth:`~SizingSolver.solve_heterogeneous_batch`, one
        call each; a decision depends only on its own query and the
        function's warm anchor.  Decisions are positionally aligned with
        ``queries``.
        """
        decisions: List[Optional[ScalingDecision]] = [None] * len(queries)
        budgets: List[float] = [0.0] * len(queries)
        solver_queries: List[SizingQuery] = []
        solver_slots: List[int] = []
        fleet_queries: List[HeterogeneousQuery] = []
        fleet_slots: List[int] = []
        percentile, max_containers = self.percentile, self.max_containers

        for i, (name, rate, mu, deadline, current, existing, service_percentile,
                min_containers) in enumerate(queries):
            if rate < 0:
                raise ValueError("arrival rate must be non-negative")
            if mu <= 0:
                raise ValueError("service rate must be positive")
            budget = budgets[i] = self.wait_budget(deadline, mu, service_percentile)

            if rate <= 0:
                decisions[i] = ScalingDecision(
                    function_name=name,
                    desired_containers=max(min_containers, 0),
                    current_containers=current,
                    arrival_rate=0.0,
                    service_rate=mu,
                    wait_budget=budget,
                    achieved_probability=1.0,
                )
            elif existing is not None and len(existing) > 0 and (
                    max(existing) - min(existing) > 1e-9
                    or any(abs(m - mu) > 1e-9 for m in existing)):
                # the existing fleet is not all at the standard speed: Alves et al.
                if self.use_fast_sizing:
                    fleet_queries.append(HeterogeneousQuery(
                        rate, existing, mu, budget, percentile, max_containers,
                        (name, "heterogeneous"),
                    ))
                    fleet_slots.append(i)
                else:
                    result = required_containers_heterogeneous(
                        lam=rate,
                        existing_mus=existing,
                        standard_mu=mu,
                        wait_budget=budget,
                        percentile=percentile,
                        max_additional=max_containers,
                    )
                    decisions[i] = self._decision(queries[i], budget, result,
                                                  heterogeneous=True)
            elif self.use_fast_sizing:
                solver_queries.append(SizingQuery(
                    lam=float(rate),
                    mu=float(mu),
                    wait_budget=float(budget),
                    percentile=percentile,
                    current_containers=0,
                    max_containers=max_containers,
                    key=name,
                ))
                solver_slots.append(i)
            else:
                result = required_containers(
                    lam=rate,
                    mu=mu,
                    wait_budget=budget,
                    percentile=percentile,
                    current_containers=0,
                    max_containers=max_containers,
                )
                decisions[i] = self._decision(queries[i], budget, result, heterogeneous=False)

        if fleet_queries:
            results = self.solver.solve_heterogeneous_batch(fleet_queries)
            for slot, result in zip(fleet_slots, results):
                decisions[slot] = self._decision(queries[slot], budgets[slot], result, True)
        if solver_queries:
            results = self.solver.solve_batch(solver_queries)
            for slot, result in zip(solver_slots, results):
                decisions[slot] = self._decision(
                    queries[slot], budgets[slot], result, heterogeneous=False
                )
        return decisions  # type: ignore[return-value]

    def _decision(self, query: ScalingQuery, budget: float, result: SizingResult,
                  heterogeneous: bool) -> ScalingDecision:
        """Wrap a sizing result in a :class:`ScalingDecision` (headroom + floor)."""
        return ScalingDecision(
            function_name=query.function_name,
            desired_containers=max(result.containers + self.headroom_containers,
                                   query.min_containers),
            current_containers=query.current_containers,
            arrival_rate=query.arrival_rate,
            service_rate=query.service_rate,
            wait_budget=budget,
            achieved_probability=result.achieved_probability,
            used_heterogeneous_model=heterogeneous,
        )

    def minimum_stable_containers(self, arrival_rate: float, service_rate: float) -> int:
        """The smallest container count for which the queue is stable (ρ < 1)."""
        if service_rate <= 0:
            raise ValueError("service rate must be positive")
        if arrival_rate <= 0:
            return 0
        return int(math.floor(arrival_rate / service_rate)) + 1


__all__ = ["Autoscaler", "ScalingDecision", "ScalingQuery"]
