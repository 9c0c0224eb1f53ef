"""The paper's qualitative findings as verdicts over an experiment's output.

The figure benchmarks (``benchmarks/test_table1_functions.py``,
``benchmarks/test_fig7_deflation.py``) and ``tests/test_experiments.py``
assert these; no run computes them.
"""

from typing import Dict, List, Sequence

from repro.experiments.fig7_deflation import slowdown_at
from repro.workloads.functions import FUNCTION_CATALOG

#: Table 1's container sizes: function -> (vCPUs, memory MB)
TABLE1_SIZES = {
    "microbenchmark": (0.4, 256),
    "mobilenet": (2.0, 1024),
    "shufflenet": (1.0, 512),
    "squeezenet": (1.0, 512),
    "binaryalert": (0.5, 256),
    "geofence": (0.3, 128),
    "image-resizer": (0.8, 256),
}


def catalogue_consistency_checks() -> List[str]:
    """Where the function catalogue departs from Table 1; empty when it does not."""
    problems: List[str] = []
    for name, (cpu, memory) in TABLE1_SIZES.items():
        profile = FUNCTION_CATALOG.get(name)
        if profile is None:
            problems.append(f"missing function {name!r}")
            continue
        if abs(profile.cpu - cpu) > 1e-9:
            problems.append(f"{name}: cpu {profile.cpu} != Table 1 value {cpu}")
        if abs(profile.memory_mb - memory) > 1e-9:
            problems.append(f"{name}: memory {profile.memory_mb} != Table 1 value {memory}")
    return problems


def small_penalty_at_threshold(points: Sequence, threshold: float = 0.3,
                               max_penalty: float = 0.2) -> Dict[str, bool]:
    """Whether each non-MobileNet function's slowdown at ``threshold`` deflation is small.

    The paper's claim: "for 5 of the functions tested, deflating the CPU by
    30 % only yields a small penalty on service time."
    """
    return {name: slowdown_at(points, name, threshold) <= 1.0 + max_penalty
            for name in {p.function_name for p in points} if name != "mobilenet"}
