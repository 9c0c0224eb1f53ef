"""Experiment renderers: one module per table/figure of the paper's evaluation.

Since the scenario subsystem landed, the experiments themselves are
*data*: each figure/table is a registered
:class:`~repro.scenarios.spec.ScenarioSpec` or
:class:`~repro.scenarios.sweep.SweepSpec` in
:mod:`repro.scenarios.registry`.  The modules here are thin renderers —
each ``run_*`` function builds its registry entry, executes it through
:func:`~repro.scenarios.runner.run_scenario`, and maps the unified
results back onto the figure's traditional dataclasses; each
``format_*`` helper renders those as text.  Figure 5 is the exception:
it times the sizing functions on the host that runs it, so
:func:`~repro.experiments.fig5_scalability.run_fig5` runs its own timing
loop and has no registry entry.  The benchmark suite under
``benchmarks/`` invokes these renderers (usually with shortened
durations) and EXPERIMENTS.md records the full-length results against
the paper's numbers.

| Paper artefact | Renderer |
|----------------|----------|
| Table 1        | :mod:`repro.experiments.table1_functions` |
| Figure 3       | :mod:`repro.experiments.fig3_homogeneous` |
| Figure 4       | :mod:`repro.experiments.fig4_heterogeneous` |
| Figure 5       | :mod:`repro.experiments.fig5_scalability` |
| Figure 6       | :mod:`repro.experiments.fig6_autoscaling` |
| Figure 7       | :mod:`repro.experiments.fig7_deflation` |
| Figure 8       | :mod:`repro.experiments.fig8_reclamation` |
| Figure 9       | :mod:`repro.experiments.fig9_azure` |
| Figure 9 at scale* | :mod:`repro.experiments.fig9_at_scale` |
| Figure 10*     | :mod:`repro.experiments.fig10_recovery` |
| Figure 11*     | :mod:`repro.experiments.fig11_policies` |
| Figure 12*     | :mod:`repro.experiments.fig12_federation` |

(*) Figure 9 at scale and Figures 10–12 are this reproduction's own
extensions — the Azure-scale streaming trace replay, node failure
recovery under fault injection, the control-plane policy shootout, and
the geo-distributed federation router comparison — not figures of the
source paper.
"""

from typing import Callable, Dict, Optional

from repro.experiments.table1_functions import run_table1, format_table1
from repro.experiments.fig3_homogeneous import run_fig3, Fig3Point
from repro.experiments.fig4_heterogeneous import run_fig4, Fig4Point
from repro.experiments.fig5_scalability import run_fig5, Fig5Point
from repro.experiments.fig6_autoscaling import run_fig6, Fig6Result
from repro.experiments.fig7_deflation import run_fig7, Fig7Point
from repro.experiments.fig8_reclamation import run_fig8, Fig8Result
from repro.experiments.fig9_azure import run_fig9, Fig9Result
from repro.experiments.fig9_at_scale import run_fig9_at_scale, Fig9AtScaleResult
from repro.experiments.fig10_recovery import run_fig10, Fig10Result
from repro.experiments.fig11_policies import run_fig11, Fig11Result
from repro.experiments.fig12_federation import run_fig12, Fig12Result


def _render_table1(duration: Optional[float]) -> str:
    """Table 1 text (``duration`` is ignored; the catalogue is static)."""
    return format_table1()


def _render_fig3(duration: Optional[float]) -> str:
    """Figure 3 text table at the given (or default) per-point duration."""
    from repro.experiments.fig3_homogeneous import format_fig3

    return format_fig3(run_fig3(duration=duration or 300.0))


def _render_fig4(duration: Optional[float]) -> str:
    """Figure 4 text table at the given (or default) per-point duration."""
    from repro.experiments.fig4_heterogeneous import format_fig4

    return format_fig4(run_fig4(duration=duration or 240.0))


def _render_fig5(duration: Optional[float]) -> str:
    """Figure 5 timing table (``duration`` does not apply)."""
    from repro.experiments.fig5_scalability import format_fig5

    return format_fig5(run_fig5())


def _render_fig6(duration: Optional[float]) -> str:
    """Figure 6 micro-benchmark allocation timeline, one line per sample."""
    result = run_fig6(step_duration=duration or 60.0)
    times, counts = result.micro_timeline
    return "\n".join(
        f"t={t:7.1f}s  microbenchmark containers={c}" for t, c in zip(times, counts)
    )


def _render_fig7(duration: Optional[float]) -> str:
    """Figure 7 deflation-response table (analytic mode)."""
    from repro.experiments.fig7_deflation import format_fig7

    return format_fig7(run_fig7())


def _render_fig8(duration: Optional[float]) -> str:
    """Figure 8 policy comparison at the given (or default) phase duration."""
    from repro.experiments.fig8_reclamation import format_fig8

    return format_fig8(run_fig8(phase_duration=duration or 180.0))


def _render_fig9(duration: Optional[float]) -> str:
    """Figure 9 trace-replay comparison; ``duration`` is minutes of trace."""
    from repro.experiments.fig9_azure import format_fig9

    return format_fig9(run_fig9(duration_minutes=int(duration or 30)))


def _render_fig9_at_scale(duration: Optional[float]) -> str:
    """Figure 9 at-scale streaming replay; ``duration`` is minutes of trace.

    Runs the full 10,000-function population (≈30 s of compute for the
    default synthetic day; scales linearly with ``duration``).
    """
    from repro.experiments.fig9_at_scale import format_fig9_at_scale

    return format_fig9_at_scale(
        run_fig9_at_scale(duration_minutes=int(duration or 1440))
    )


def _render_fig10(duration: Optional[float]) -> str:
    """Figure 10 node-failure recovery comparison (fault injection).

    ``duration`` scales the whole timeline: the outage spans the middle
    third of the run, as in the default 120 s → 240 s window.
    """
    from repro.experiments.fig10_recovery import format_fig10

    total = duration or 360.0
    return format_fig10(run_fig10(fail_at=total / 3, recover_at=2 * total / 3,
                                  duration=total))


def _render_fig11(duration: Optional[float]) -> str:
    """Figure 11 policy-shootout table (control planes head-to-head).

    ``duration`` scales the whole timeline; the faulted arms lose node-0
    for the middle third of the run, like Figure 10.
    """
    from repro.experiments.fig11_policies import format_fig11

    return format_fig11(run_fig11(duration=duration or 360.0))


def _render_fig12(duration: Optional[float]) -> str:
    """Figure 12 federation-router table (site faults head-to-head).

    ``duration`` scales the whole timeline; the faulted arms lose (or
    are partitioned from) the origin site for the middle third.
    """
    from repro.experiments.fig12_federation import format_fig12

    return format_fig12(run_fig12(duration=duration or 240.0))


#: Text renderer per paper experiment, keyed by scenario-registry name.
RENDERERS: Dict[str, Callable[[Optional[float]], str]] = {
    "table1": _render_table1,
    "fig3": _render_fig3,
    "fig4": _render_fig4,
    "fig5": _render_fig5,
    "fig6": _render_fig6,
    "fig7": _render_fig7,
    "fig8": _render_fig8,
    "fig9": _render_fig9,
    "fig9-at-scale": _render_fig9_at_scale,
    "fig10": _render_fig10,
    "fig11": _render_fig11,
    "fig12": _render_fig12,
}


def render_experiment(name: str, duration: Optional[float] = None) -> str:
    """Run one paper experiment by registry name and return its text rendering.

    ``duration`` overrides the experiment's time knob where it has one
    (seconds per point/phase/step; minutes for ``fig9``).  Valid names
    are exactly :func:`repro.scenarios.registry.experiment_names` — a
    test enforces that this table and the registry never drift apart.
    """
    try:
        renderer = RENDERERS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {sorted(RENDERERS)}"
        ) from None
    return renderer(duration)


__all__ = [
    "RENDERERS",
    "render_experiment",
    "run_table1",
    "format_table1",
    "run_fig3",
    "Fig3Point",
    "run_fig4",
    "Fig4Point",
    "run_fig5",
    "Fig5Point",
    "run_fig6",
    "Fig6Result",
    "run_fig7",
    "Fig7Point",
    "run_fig8",
    "Fig8Result",
    "run_fig9",
    "Fig9Result",
    "run_fig9_at_scale",
    "Fig9AtScaleResult",
    "run_fig10",
    "Fig10Result",
    "run_fig11",
    "Fig11Result",
    "run_fig12",
    "Fig12Result",
]
