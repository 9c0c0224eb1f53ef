"""The function catalogue (paper Table 1) and deflation response curves (Figure 7).

Each :class:`FunctionProfile` captures what the control plane can know
about a function: its standard container size, its mean service time on
a standard container, the shape of its service-time distribution, and
how its service time responds to CPU deflation.

The paper's functions run real code (torchvision DNNs, BinaryAlert,
a geofencing service, an image resizer); here they are behavioural
models calibrated to the numbers the paper reports:

* Table 1 gives the standard container sizes, reproduced verbatim.
* Figure 7 shows that deflating the CPU by up to ~30 % costs only a
  small service-time penalty, after which service time grows roughly
  linearly with further deflation; MobileNet, which saturates its 2
  vCPUs, degrades almost proportionally from the start.
* Mean service times are chosen to be representative of the function
  classes (tens of ms for lightweight functions, 100–300 ms for DNN
  inference) — the paper does not tabulate them, so these are
  calibration constants, recorded here and in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.cluster.cluster import FunctionDeployment
from repro.core.estimation.service_time import ServiceTimeProfile
from repro.core.queueing.distributions import (
    Deterministic,
    Exponential,
    LogNormal,
    ServiceTimeDistribution,
)


def slack_speed_curve(slack: float = 0.3, slack_penalty: float = 0.1) -> Callable[[float], float]:
    """Build a deflation response curve with the shape reported in Figure 7.

    Parameters
    ----------
    slack:
        Fraction of the standard CPU allocation that is slack: deflating
        by up to this amount costs at most ``slack_penalty`` of speed.
    slack_penalty:
        Relative slowdown incurred at the edge of the slack region
        (e.g. 0.1 means service time grows by ~10 % at 30 % deflation).

    Returns
    -------
    Callable[[float], float]
        ``speed(cpu_fraction)`` with ``speed(1.0) == 1.0``, decreasing
        smoothly inside the slack region and proportionally to CPU beyond
        it.
    """
    if not 0 <= slack < 1:
        raise ValueError("slack must be in [0, 1)")
    if not 0 <= slack_penalty < 1:
        raise ValueError("slack_penalty must be in [0, 1)")
    knee_fraction = 1.0 - slack
    knee_speed = 1.0 / (1.0 + slack_penalty)

    def speed(cpu_fraction: float) -> float:
        """Speed multiplier at a given CPU fraction."""
        fraction = min(1.0, max(1e-6, cpu_fraction))
        if fraction >= knee_fraction:
            # linear interpolation of the (small) penalty inside the slack region
            if knee_fraction >= 1.0:
                return 1.0
            deflated = 1.0 - fraction
            penalty = slack_penalty * (deflated / slack) if slack > 0 else 0.0
            return 1.0 / (1.0 + penalty)
        # beyond the slack: speed proportional to CPU, continuous at the knee
        return knee_speed * fraction / knee_fraction

    return speed


def proportional_speed_curve() -> Callable[[float], float]:
    """Speed strictly proportional to CPU (no slack at all) — MobileNet's regime."""
    return lambda cpu_fraction: min(1.0, max(1e-6, cpu_fraction))


@dataclass(frozen=True)
class FunctionProfile:
    """Behavioural model of one serverless function.

    Attributes
    ----------
    name:
        Function name (matches Table 1).
    language:
        Implementation language(s) as reported in Table 1 (informational).
    cpu:
        Standard container CPU allocation in vCPUs (Table 1).
    memory_mb:
        Standard container memory allocation in MB (Table 1).
    mean_service_time:
        Mean service time on a standard container, in seconds.
    distribution:
        Service-time distribution family at the standard size.
    slack:
        Deflation slack: fraction of CPU reclaimable with only a small
        penalty (Figure 7).
    slack_penalty:
        Relative slowdown at the edge of the slack region.
    is_dnn:
        Whether the function is one of the DNN inference models (used by
        experiment grouping, e.g. Figure 7a vs. 7b).
    """

    name: str
    language: str
    cpu: float
    memory_mb: float
    mean_service_time: float
    distribution: ServiceTimeDistribution = field(default_factory=lambda: Exponential(0.1))
    slack: float = 0.3
    slack_penalty: float = 0.1
    is_dnn: bool = False

    def __post_init__(self) -> None:
        """Validate the container size and service time."""
        if self.cpu <= 0 or self.memory_mb <= 0:
            raise ValueError(f"{self.name}: container size must be positive")
        if self.mean_service_time <= 0:
            raise ValueError(f"{self.name}: mean service time must be positive")

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def service_rate(self) -> float:
        """Standard-container service rate μ in requests per second."""
        return 1.0 / self.mean_service_time

    def speed_curve(self) -> Callable[[float], float]:
        """The deflation response curve ``speed(cpu_fraction)``."""
        if self.slack <= 0:
            return proportional_speed_curve()
        return slack_speed_curve(self.slack, self.slack_penalty)

    def service_time_at(self, cpu_fraction: float) -> float:
        """Mean service time when the container runs at ``cpu_fraction`` of standard CPU."""
        return self.mean_service_time / self.speed_curve()(cpu_fraction)

    def _work_dist(self):
        """The cached service-time distribution scaled to the profile's mean."""
        dist = self.__dict__.get("_work_distribution")
        if dist is None:
            # cache the scaled distribution: building it per request put an
            # object allocation on the per-arrival hot path
            scale = self.mean_service_time / self.distribution.mean
            dist = self.distribution.scaled(scale)
            self.__dict__["_work_distribution"] = dist
        return dist

    def sample_work_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Sample the work of ``count`` requests, in standard-container seconds.

        Numpy generators draw element-wise from one bit stream, so any
        cut of a function's requests into batches gives the same work
        values — a seeded run's realisation does not depend on the batch
        size.
        """
        return self._work_dist().sample(rng, size=count)

    def to_deployment(
        self,
        weight: float = 1.0,
        user: str = "default",
        slo_deadline: Optional[float] = 0.1,
        slo_percentile: float = 0.95,
        min_containers: int = 0,
    ) -> FunctionDeployment:
        """Build the cluster-facing deployment record for this function."""
        return FunctionDeployment(
            name=self.name,
            cpu=self.cpu,
            memory_mb=self.memory_mb,
            weight=weight,
            user=user,
            slo_deadline=slo_deadline,
            slo_percentile=slo_percentile,
            speed_of_cpu=self.speed_curve(),
            min_containers=min_containers,
        )

    def to_service_profile(
        self, cpu_fractions: Tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    ) -> ServiceTimeProfile:
        """Offline service-time profile (mean per CPU fraction) for the controller."""
        return ServiceTimeProfile.from_speed_curve(
            self.name,
            self.mean_service_time,
            self.speed_curve(),
            cpu_fractions=cpu_fractions,
        )

    def with_service_time(self, mean_service_time: float) -> "FunctionProfile":
        """A copy with a different mean service time (used by the micro-benchmark)."""
        dist = self.distribution.scaled(mean_service_time / self.distribution.mean)
        return replace(self, mean_service_time=mean_service_time, distribution=dist)


# ----------------------------------------------------------------------
# Table 1: the seven functions used in the evaluation
# ----------------------------------------------------------------------
def microbenchmark(mean_service_time: float = 0.1) -> FunctionProfile:
    """The configurable CPU micro-benchmark (service time set per experiment).

    The paper configures it with 100 ms (μ=10 req/s) or 200 ms
    (μ=5 req/s) per invocation for the model-validation experiments.
    """
    return FunctionProfile(
        name="microbenchmark",
        language="Python",
        cpu=0.4,
        memory_mb=256,
        mean_service_time=mean_service_time,
        distribution=Exponential(mean_service_time),
        slack=0.3,
        slack_penalty=0.1,
    )


FUNCTION_CATALOG: Dict[str, FunctionProfile] = {
    "microbenchmark": microbenchmark(),
    "mobilenet": FunctionProfile(
        name="mobilenet",
        language="Python",
        cpu=2.0,
        memory_mb=1024,
        mean_service_time=0.30,
        distribution=LogNormal(0.30, cv=0.2),
        # MobileNet runs at ~100 % CPU inside its container: essentially no slack
        slack=0.05,
        slack_penalty=0.05,
        is_dnn=True,
    ),
    "shufflenet": FunctionProfile(
        name="shufflenet",
        language="Python",
        cpu=1.0,
        memory_mb=512,
        mean_service_time=0.15,
        distribution=LogNormal(0.15, cv=0.2),
        slack=0.3,
        slack_penalty=0.12,
        is_dnn=True,
    ),
    "squeezenet": FunctionProfile(
        name="squeezenet",
        language="Python",
        cpu=1.0,
        memory_mb=512,
        mean_service_time=0.10,
        distribution=LogNormal(0.10, cv=0.2),
        slack=0.3,
        slack_penalty=0.12,
        is_dnn=True,
    ),
    "binaryalert": FunctionProfile(
        name="binaryalert",
        language="Python",
        cpu=0.5,
        memory_mb=256,
        mean_service_time=0.05,
        distribution=Exponential(0.05),
        slack=0.3,
        slack_penalty=0.1,
    ),
    "geofence": FunctionProfile(
        name="geofence",
        language="JavaScript",
        cpu=0.3,
        memory_mb=128,
        mean_service_time=0.02,
        distribution=Exponential(0.02),
        slack=0.35,
        slack_penalty=0.08,
    ),
    "image-resizer": FunctionProfile(
        name="image-resizer",
        language="JavaScript/WASM",
        cpu=0.8,
        memory_mb=256,
        mean_service_time=0.08,
        distribution=LogNormal(0.08, cv=0.3),
        slack=0.3,
        slack_penalty=0.1,
    ),
}


def get_function(name: str) -> FunctionProfile:
    """Look up a catalogue function by name."""
    try:
        return FUNCTION_CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown function {name!r}; available: {sorted(FUNCTION_CATALOG)}"
        ) from None


def table1_rows() -> Tuple[Tuple[str, str, str], ...]:
    """The rows of Table 1 as (function, language, standard size) strings."""
    rows = []
    for profile in FUNCTION_CATALOG.values():
        size = f"{profile.cpu:g} vCPU + {int(profile.memory_mb)} MB"
        rows.append((profile.name, profile.language, size))
    return tuple(rows)


__all__ = [
    "FunctionProfile",
    "FUNCTION_CATALOG",
    "get_function",
    "microbenchmark",
    "slack_speed_curve",
    "proportional_speed_curve",
    "table1_rows",
]
