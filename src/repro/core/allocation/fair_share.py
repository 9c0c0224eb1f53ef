"""Weighted fair-share allocation under overload (paper §4.1).

Each function ``i`` has a weight ``ω_i`` and a model-derived demand
``c_new_i``.  When the aggregate demand exceeds the cluster capacity
``C``:

* its guaranteed minimum share is ``c_guar_i = ⌊ω_i / Σ_j ω_j · C⌋``;
* functions whose demand is at most their guaranteed share ("well
  behaved") receive their full demand;
* the remaining capacity ``Ĉ = C − Σ_k c_new_k`` (sum over well-behaved
  functions) is divided among the overloaded functions in proportion to
  their weights: ``c_adj_i = ⌊ω_i / Σ_m ω_m · Ĉ⌋``.

Lemma 1: if every function is overloaded each gets exactly its
guaranteed share.  Lemma 2: an overloaded function never receives less
than its guaranteed share.  Both are exercised directly by the test
suite (including property-based tests).

Two entry points are provided:

* :func:`fair_share_allocation` — the paper's single-pass algorithm, in
  either discrete (container-count) or continuous (CPU) units.
* :func:`progressive_filling` — an iterative water-filling variant that
  additionally redistributes capacity an overloaded function cannot use
  (demand below its proportional slice of ``Ĉ``); available for
  ablations, and used by the hierarchical scheduler through
  :func:`water_fill`, which returns its allocations alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional


@dataclass(frozen=True)
class FairShareResult:
    """Outcome of a fair-share computation.

    Attributes
    ----------
    allocations:
        Adjusted allocation ``c_adj_i`` per function.
    guaranteed:
        Guaranteed minimum share ``c_guar_i`` per function.
    overloaded:
        Names of the functions whose demand exceeded their guaranteed share.
    well_behaved:
        Names of the functions whose demand was within their guaranteed share.
    capacity:
        The total capacity that was divided.
    is_overloaded:
        Whether aggregate demand exceeded capacity (if not, allocations
        simply equal demands).
    """

    allocations: Dict[str, float]
    guaranteed: Dict[str, float]
    overloaded: tuple
    well_behaved: tuple
    capacity: float
    is_overloaded: bool

    def total_allocated(self) -> float:
        """Sum of all adjusted allocations."""
        return sum(self.allocations.values())


def _validate(demands: Mapping[str, float], weights: Mapping[str, float], capacity: float) -> None:
    """Validate demands, weights, and capacity before the water-filling pass."""
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    if not demands:
        raise ValueError("at least one function is required")
    for name, demand in demands.items():
        if demand < 0:
            raise ValueError(f"demand for {name!r} must be non-negative")
        if name not in weights:
            raise ValueError(f"missing weight for function {name!r}")
        if weights[name] <= 0:
            raise ValueError(f"weight for {name!r} must be positive")


def guaranteed_shares(
    weights: Mapping[str, float], capacity: float, discrete: bool = True
) -> Dict[str, float]:
    """Guaranteed minimum share per function: ``⌊ω_i/Σω · C⌋`` (paper Eq. 7)."""
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    total_weight = sum(weights.values())
    if total_weight <= 0:
        raise ValueError("total weight must be positive")
    shares: Dict[str, float] = {}
    for name, weight in weights.items():
        if weight <= 0:
            raise ValueError(f"weight for {name!r} must be positive")
        share = weight / total_weight * capacity
        shares[name] = float(math.floor(share + 1e-9)) if discrete else share
    return shares


def fair_share_allocation(
    demands: Mapping[str, float],
    weights: Mapping[str, float],
    capacity: float,
    discrete: bool = True,
) -> FairShareResult:
    """The paper's fair-share algorithm (§4.1).

    Parameters
    ----------
    demands:
        Model-derived desired allocation ``c_new_i`` per function, in
        containers (``discrete=True``) or CPU units (``discrete=False``).
    weights:
        Fair-share weight ``ω_i`` per function.
    capacity:
        Total cluster capacity ``C`` in the same units as the demands.
    discrete:
        Apply the paper's floors (container counts) or keep fractional
        allocations (CPU units).
    """
    _validate(demands, weights, capacity)
    guaranteed = guaranteed_shares({n: weights[n] for n in demands}, capacity, discrete=discrete)
    total_demand = sum(demands.values())

    if total_demand <= capacity + 1e-9:
        allocations = {name: float(demand) for name, demand in demands.items()}
        return FairShareResult(
            allocations=allocations,
            guaranteed=guaranteed,
            overloaded=tuple(),
            well_behaved=tuple(sorted(demands)),
            capacity=float(capacity),
            is_overloaded=False,
        )

    well_behaved = tuple(sorted(n for n in demands if demands[n] <= guaranteed[n] + 1e-9))
    overloaded = tuple(sorted(set(demands).difference(well_behaved)))

    allocations: Dict[str, float] = {}
    for name in well_behaved:
        allocations[name] = float(demands[name])

    remaining = capacity - sum(allocations.values())
    remaining = max(0.0, remaining)
    overload_weight = sum(map(weights.__getitem__, overloaded))
    for name in overloaded:
        share = weights[name] / overload_weight * remaining if overload_weight > 0 else 0.0
        allocations[name] = float(math.floor(share + 1e-9)) if discrete else share

    return FairShareResult(
        allocations=allocations,
        guaranteed=guaranteed,
        overloaded=overloaded,
        well_behaved=well_behaved,
        capacity=float(capacity),
        is_overloaded=True,
    )


def progressive_filling(
    demands: Mapping[str, float],
    weights: Mapping[str, float],
    capacity: float,
    discrete: bool = False,
    max_rounds: int = 64,
) -> FairShareResult:
    """Iterative weighted water-filling.

    Like :func:`fair_share_allocation`, but when an overloaded function's
    proportional slice of the leftover capacity exceeds its demand, the
    surplus is redistributed to the remaining overloaded functions in
    further rounds.  The result therefore never allocates more than a
    function's demand and wastes no capacity while any demand is unmet.
    The guarantees of Lemmas 1 and 2 continue to hold because every
    function's allocation is monotonically non-decreasing across rounds
    and starts at the single-pass value capped by its own demand.
    The allocations are :func:`water_fill`'s.
    """
    allocations = water_fill(demands, weights, capacity, discrete, max_rounds)
    guaranteed = guaranteed_shares({n: weights[n] for n in demands}, capacity, discrete=discrete)
    contended = sum(demands.values()) > capacity + 1e-9
    if contended:
        well_behaved = tuple(sorted(n for n in demands if demands[n] <= guaranteed[n] + 1e-9))
    else:
        well_behaved = tuple(sorted(demands))
    return FairShareResult(
        allocations=allocations,
        guaranteed=guaranteed,
        overloaded=tuple(sorted(set(demands).difference(well_behaved))),
        well_behaved=well_behaved,
        capacity=float(capacity),
        is_overloaded=contended,
    )


def water_fill(
    demands: Mapping[str, float],
    weights: Mapping[str, float],
    capacity: float,
    discrete: bool = False,
    max_rounds: int = 64,
) -> Dict[str, float]:
    """:func:`progressive_filling`'s allocations alone: no guaranteed shares, no classes."""
    _validate(demands, weights, capacity)
    if sum(demands.values()) <= capacity + 1e-9:
        return {name: float(demand) for name, demand in demands.items()}

    allocations = {name: 0.0 for name in demands}
    unsatisfied = {name for name in demands if demands[name] > 0}
    remaining = float(capacity)
    rounds = 0
    while unsatisfied and remaining > 1e-12 and rounds < max_rounds:
        rounds += 1
        round_weight = sum(map(weights.__getitem__, unsatisfied))
        satisfied_this_round = set()
        consumed = 0.0
        for name in sorted(unsatisfied):
            slice_ = weights[name] / round_weight * remaining
            need = demands[name] - allocations[name]
            grant = min(slice_, need)
            allocations[name] += grant
            consumed += grant
            if allocations[name] >= demands[name] - 1e-12:
                satisfied_this_round.add(name)
        remaining -= consumed
        unsatisfied -= satisfied_this_round
        if not satisfied_this_round:
            break

    if discrete:
        allocations = {name: float(math.floor(v + 1e-9)) for name, v in allocations.items()}
    return allocations


def is_overloaded(demands: Mapping[str, float], capacity: float) -> bool:
    """The paper's overload condition: aggregate demand exceeds capacity."""
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    return sum(demands.values()) > capacity + 1e-9


__all__ = [
    "FairShareResult",
    "guaranteed_shares",
    "fair_share_allocation",
    "progressive_filling",
    "water_fill",
    "is_overloaded",
]
