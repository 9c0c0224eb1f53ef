"""Synthetic Azure-Functions-like invocation traces (substitution for §6.7).

The paper replays one-hour samples of the Azure Functions Trace 2019
(part of the Azure Public Dataset): per-minute invocation counts of
production functions, which are known — both from the paper and from
the original characterisation study ("Serverless in the Wild") — to be

* aggregated per minute,
* extremely heterogeneous across functions (orders of magnitude spread
  in average rate),
* bursty: many functions are sporadic/on-off (the paper singles out the
  MobileNet workload as "highly sporadic"), others have a relatively
  steady base load with fluctuations.

The proprietary CSVs are not available offline, so this module
synthesises per-minute traces with exactly those properties.  Each
function gets a base rate, a smooth modulation (a slow sinusoid plus
autocorrelated noise), and — for sporadic functions — an on/off burst
process.  The generator is deterministic given a seed, so experiments
are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.workloads.schedules import TraceSchedule


@dataclass(frozen=True)
class AzureTraceConfig:
    """Parameters of one synthetic per-minute trace.

    Attributes
    ----------
    mean_rate:
        Long-run average arrival rate in requests/second.
    sporadic:
        If true the function is mostly idle and receives occasional
        bursts (the MobileNet-like pattern); if false it has a steady
        base load with fluctuations.
    burst_probability:
        Per-minute probability that a sporadic function starts a burst.
    burst_duration_minutes:
        Mean duration of a burst, in minutes (geometric).
    burst_multiplier:
        Peak rate of a burst relative to ``mean_rate``.
    variability:
        Coefficient of variation of the per-minute noise for steady
        functions.
    """

    mean_rate: float
    sporadic: bool = False
    burst_probability: float = 0.08
    burst_duration_minutes: float = 5.0
    burst_multiplier: float = 6.0
    variability: float = 0.3

    def __post_init__(self) -> None:
        """Validate the trace parameters."""
        if self.mean_rate < 0:
            raise ValueError("mean_rate must be non-negative")
        if not 0 <= self.burst_probability <= 1:
            raise ValueError("burst_probability must be in [0, 1]")
        if self.burst_duration_minutes <= 0:
            raise ValueError("burst_duration_minutes must be positive")
        if self.burst_multiplier <= 0:
            raise ValueError("burst_multiplier must be positive")
        if self.variability < 0:
            raise ValueError("variability must be non-negative")


def azure_rate_series(
    config: AzureTraceConfig,
    duration_minutes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The per-minute *rate* series underlying one synthetic trace.

    This is the first of the two RNG passes of
    :func:`synthesize_azure_trace`: it consumes exactly the burst /
    modulation draws (one uniform per idle minute plus a ``geometric``
    at each burst start for sporadic functions; one phase ``uniform``
    plus one block of ``duration_minutes - 1`` normals for steady ones)
    and returns the non-negative expected-arrivals-per-minute array the
    Poisson pass then samples.  Values, draw order and the generator's
    end state are those of one scalar draw per simulated minute
    (``tests/test_trace_replay.py`` keeps that loop as the oracle); only
    the order-free arithmetic — the burst shape, the AR(1) clip — runs
    as array operations after the draws.
    Splitting the passes is what lets
    :func:`repro.workloads.stream.iter_azure_trace_chunks` draw the
    Poisson counts chunk by chunk while staying byte-identical to the
    monolithic synthesis.

    The sporadic loop steps only through idle minutes.  It tests each one
    on the generator's raw 64-bit draw — ``random()`` is
    ``(raw >> 11) · 2⁻⁵³``, so ``random() < p`` exactly when ``raw`` is
    below ``⌈p · 2⁵³⌉ · 2¹¹`` — which needs a bit generator with that
    ``random()`` (default_rng's PCG64 has it; MT19937 is refused).  On a
    hit it draws the burst's geometric length, records ``(start,
    length)`` and jumps past the whole burst; the burst minutes, their
    progress and the sine shape are built afterwards as int64 / float64
    arrays, the same operations element by element.
    """
    if duration_minutes <= 0:
        raise ValueError("duration_minutes must be positive")
    base_per_minute = config.mean_rate * 60.0

    if config.sporadic:
        # on/off burst process: mostly zero, occasional multi-minute bursts.
        # The bit generators whose random() is (random_raw() >> 11) * 2**-53
        # are named here, not at import, so importing this module leaves
        # numpy.random unloaded (a sweep's parent process never draws).
        if not isinstance(rng.bit_generator, (np.random.PCG64, np.random.PCG64DXSM,
                                              np.random.Philox, np.random.SFC64)):
            raise ValueError("sporadic traces need a 64-bit bit generator "
                             "(default_rng's PCG64, PCG64DXSM, Philox or SFC64)")
        rates = np.zeros(duration_minutes)
        # random() < p, tested on the raw draw: random() is
        # (raw >> 11) * 2**-53, so it is below p exactly when raw >> 11 is
        # below p * 2**53 (a power-of-two scaling, exact), i.e. below its
        # ceiling K, i.e. when raw itself is below K << 11
        limit = math.ceil(config.burst_probability * 2 ** 53) << 11
        raw = rng.bit_generator.random_raw
        end_probability = 1.0 / config.burst_duration_minutes
        starts = []
        lengths = []
        m = 0
        while m < duration_minutes:
            if raw() < limit:
                length = max(1, int(rng.geometric(end_probability)))
                starts.append(m)
                lengths.append(length)
                m += length
            else:
                m += 1
        if starts:
            # the draws above are order-dependent; the burst shape is not.
            # A burst covers its minutes up to the trace's end; at minute m
            # it has start + length - m = length - offset minutes left.
            starts_arr = np.array(starts)
            lengths_arr = np.array(lengths)
            spans = np.minimum(lengths_arr, duration_minutes - starts_arr)
            first = (spans.cumsum() - spans).repeat(spans)
            offset = np.arange(first.size) - first
            burst_minutes = starts_arr.repeat(spans) + offset
            burst_left = lengths_arr.repeat(spans) - offset
            # int / int as IEEE doubles: exact below 2**53 minutes left, and
            # above it the shape is under the 0.3 floor whatever the rounding
            progress = np.minimum(1.0, (1 + burst_minutes % burst_left) / burst_left)
            shape = np.sin(np.pi * progress)
            rates[burst_minutes] = (base_per_minute * config.burst_multiplier
                                    * np.maximum(0.3, shape))
        # a trickle of background invocations so the function is not always cold
        rates += base_per_minute * 0.05
    else:
        # steady base load: slow sinusoidal modulation + AR(1) noise
        phase = rng.uniform(0, 2 * np.pi)
        minutes = np.arange(duration_minutes)
        modulation = 1.0 + 0.25 * np.sin(2 * np.pi * minutes / duration_minutes + phase)
        # one block draw, then the recursion over plain floats: the same
        # normals in the same order as one scalar draw per minute
        level = 0.0
        noise = [level]
        for innovation in rng.normal(0, config.variability, duration_minutes - 1).tolist():
            level = 0.7 * level + innovation
            noise.append(level)
        noise_arr = np.fromiter(noise, np.float64, duration_minutes)
        rates = base_per_minute * modulation * np.clip(1.0 + noise_arr, 0.2, 3.0)
    return np.clip(rates, 0.0, None)


def synthesize_azure_trace(
    config: AzureTraceConfig,
    duration_minutes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Synthesise one function's per-minute invocation counts.

    Returns an integer array of length ``duration_minutes``.  The RNG is
    consumed in two passes — the :func:`azure_rate_series` draws, then a
    single Poisson pass over the whole rate array — a contract the
    chunked streaming path relies on (see
    :mod:`repro.workloads.stream`).
    """
    rates = azure_rate_series(config, duration_minutes, rng)
    counts = rng.poisson(rates)
    return counts.astype(int)


#: Default trace shapes for the six functions of the §6.7 experiment.
#: MobileNet is the "highly sporadic" one; rates are calibrated so that the
#: 3-node / 12-vCPU cluster is highly utilised, as in the paper.
DEFAULT_AZURE_CONFIGS: Dict[str, AzureTraceConfig] = {
    "mobilenet": AzureTraceConfig(mean_rate=2.5, sporadic=True, burst_multiplier=6.0),
    "shufflenet": AzureTraceConfig(mean_rate=16.0, variability=0.35),
    "squeezenet": AzureTraceConfig(mean_rate=25.0, variability=0.3),
    "binaryalert": AzureTraceConfig(mean_rate=50.0, variability=0.4),
    "geofence": AzureTraceConfig(mean_rate=80.0, variability=0.3),
    "image-resizer": AzureTraceConfig(mean_rate=30.0, variability=0.35),
}


def synthesize_azure_traces(
    configs: Optional[Mapping[str, AzureTraceConfig]] = None,
    duration_minutes: int = 60,
    seed: int = 2019,
) -> Dict[str, TraceSchedule]:
    """Synthesise per-minute traces for a set of functions.

    Parameters
    ----------
    configs:
        Per-function trace configurations (defaults to the six-function
        setup of §6.7).
    duration_minutes:
        Trace length; the paper samples one hour.
    seed:
        Master seed; each function's trace is drawn from its own
        sub-stream so adding a function does not perturb the others.

    Returns
    -------
    dict
        function name → :class:`~repro.workloads.schedules.TraceSchedule`.
    """
    configs = dict(configs) if configs is not None else dict(DEFAULT_AZURE_CONFIGS)
    schedules: Dict[str, TraceSchedule] = {}
    for index, (name, config) in enumerate(sorted(configs.items())):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
        counts = synthesize_azure_trace(config, duration_minutes, rng)
        schedules[name] = TraceSchedule(counts, interval=60.0)
    return schedules


def trace_statistics(schedules: Mapping[str, TraceSchedule]) -> Dict[str, Dict[str, float]]:
    """Summary statistics of a set of traces (mean/peak rate, burstiness)."""
    stats: Dict[str, Dict[str, float]] = {}
    for name, schedule in schedules.items():
        counts = schedule.counts
        mean = float(counts.mean())
        peak = float(counts.max())
        stats[name] = {
            "mean_per_minute": mean,
            "peak_per_minute": peak,
            "peak_to_mean": peak / mean if mean > 0 else float("inf"),
            "zero_minutes": float((counts == 0).sum()),
            "total": float(counts.sum()),
        }
    return stats


__all__ = [
    "AzureTraceConfig",
    "DEFAULT_AZURE_CONFIGS",
    "azure_rate_series",
    "synthesize_azure_trace",
    "synthesize_azure_traces",
    "trace_statistics",
]
