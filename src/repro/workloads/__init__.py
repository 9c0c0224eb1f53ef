"""Workloads: the function catalogue, arrival-rate schedules, and generators.

* :mod:`repro.workloads.functions` — the seven functions of Table 1 with
  their standard container sizes and deflation response curves
  (Figure 7).
* :mod:`repro.workloads.generator` — Poisson arrival generators driven
  by rate schedules (static, discrete change, continuous change), the
  three modes of the paper's IoT workload generator.
* :mod:`repro.workloads.traces` — replay of per-minute invocation-count
  traces as a rate schedule.
* :mod:`repro.workloads.azure` — synthesis of Azure-Functions-like
  per-minute traces (the substitution for the proprietary Azure Public
  Dataset sample used in §6.7).
* :mod:`repro.workloads.stream` — chunked (constant-memory) synthesis of
  those traces plus the deterministic Azure-scale population behind the
  ``fig9-at-scale`` replay.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.workloads.functions": (
        "FUNCTION_CATALOG",
        "FunctionProfile",
        "get_function",
        "microbenchmark",
    ),
    "repro.workloads.generator": ("ArrivalGenerator", "WorkloadBinding"),
    "repro.workloads.schedules": (
        "CompositeSchedule",
        "RampSchedule",
        "RateSchedule",
        "StaticRate",
        "StepSchedule",
        "TraceSchedule",
    ),
    "repro.workloads.azure": (
        "AzureTraceConfig",
        "azure_rate_series",
        "synthesize_azure_trace",
        "synthesize_azure_traces",
    ),
    "repro.workloads.stream": (
        "PopulationFunction",
        "iter_azure_trace_chunks",
        "population_function",
    ),
})

__all__ = [
    "FunctionProfile",
    "FUNCTION_CATALOG",
    "get_function",
    "microbenchmark",
    "ArrivalGenerator",
    "WorkloadBinding",
    "RateSchedule",
    "StaticRate",
    "StepSchedule",
    "RampSchedule",
    "TraceSchedule",
    "CompositeSchedule",
    "AzureTraceConfig",
    "PopulationFunction",
    "azure_rate_series",
    "iter_azure_trace_chunks",
    "population_function",
    "synthesize_azure_trace",
    "synthesize_azure_traces",
]
