"""Queueing-theoretic models used by LaSS (§3 of the paper).

* :mod:`repro.core.queueing.mmc` — classical M/M/c/FCFS steady-state
  analysis: state probabilities, Erlang-C, mean and percentile waiting
  times.
* :mod:`repro.core.queueing.heterogeneous` — the Alves et al. upper
  bounds for M/M/c queues whose servers (containers) have different
  service rates, used after deflation.
* :mod:`repro.core.queueing.logspace` — the log-factorial table and the
  ``logsumexp`` reduction those two share (numpy only; the tests hold
  both to an external oracle).
* :mod:`repro.core.queueing.sizing` — Algorithm 1: the iterative search
  for the smallest number of containers such that a high percentile of
  the waiting time stays below ``t = d − s_p``.
* :mod:`repro.core.queueing.solver` — the control-plane sizing path:
  Algorithm 1's one-count walk, probing each count through a closed form
  up to 32 containers and through the log-space bodies above, with an
  epoch-batched entry point and no state between queries (container
  counts equal to the Algorithm 1 oracles in
  :mod:`~repro.core.queueing.sizing`).
* :mod:`repro.core.queueing.distributions` — service-time distributions
  used by the simulator and by the profile-driven estimators.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.queueing.mmc": ("MMcQueue", "erlang_c", "mmc_state_probabilities"),
    "repro.core.queueing.heterogeneous": ("HeterogeneousMMcQueue",),
    "repro.core.queueing.mgc": ("MGcQueue", "required_containers_mgc"),
    "repro.core.queueing.solver": ("SizingQuery", "SizingResult", "SizingSolver"),
    "repro.core.queueing.sizing": (
        "required_containers",
        "required_containers_heterogeneous",
    ),
    "repro.core.queueing.distributions": (
        "Deterministic",
        "Exponential",
        "LogNormal",
        "ServiceTimeDistribution",
        "ShiftedExponential",
    ),
})

__all__ = [
    "MMcQueue",
    "erlang_c",
    "mmc_state_probabilities",
    "HeterogeneousMMcQueue",
    "MGcQueue",
    "required_containers_mgc",
    "SizingQuery",
    "SizingResult",
    "SizingSolver",
    "required_containers",
    "required_containers_heterogeneous",
    "ServiceTimeDistribution",
    "Exponential",
    "Deterministic",
    "LogNormal",
    "ShiftedExponential",
]
