#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation in one go.

This is the driver behind EXPERIMENTS.md: it runs each experiment harness
at full (or near-full) length and prints the measured numbers next to the
quantity the paper reports.  Expect a few minutes of runtime.

Run with:  python examples/run_all_experiments.py
           python examples/run_all_experiments.py --quick   (shorter durations)
"""

import argparse
import time

from repro.experiments.fig3_homogeneous import format_fig3, fraction_meeting_slo, run_fig3
from repro.experiments.fig4_heterogeneous import format_fig4, run_fig4
from repro.experiments.fig4_heterogeneous import fraction_meeting_slo as fig4_fraction
from repro.experiments.fig5_scalability import format_fig5, max_time_seconds, run_fig5
from repro.experiments.fig6_autoscaling import (
    default_rate_profiles,
    run_fig6,
    tracking_correlation,
)
from repro.experiments.fig7_deflation import format_fig7, run_fig7, slowdown_at
from repro.experiments.fig8_reclamation import format_fig8, run_fig8
from repro.experiments.fig9_azure import format_fig9, run_fig9
from repro.experiments.table1_functions import format_table1


def banner(title: str) -> None:
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="shorter durations everywhere")
    args = parser.parse_args()
    quick = args.quick
    started = time.time()

    banner("Table 1 — functions used in the evaluation")
    print(format_table1())

    banner("Figure 3 — P95 waiting time, homogeneous containers")
    fig3 = run_fig3(duration=120.0 if quick else 300.0)
    print(format_fig3(fig3))
    print(f"configurations with P95 wait within 1.25x SLO: "
          f"{fraction_meeting_slo(fig3, tolerance=0.25) * 100:.0f}%")

    banner("Figure 4 — P95 waiting time, heterogeneous (deflated) containers")
    fig4 = run_fig4(duration=120.0 if quick else 240.0,
                    arrival_rates=(20.0, 40.0, 60.0, 80.0, 100.0) if quick else
                    (10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0))
    print(format_fig4(fig4))
    print(f"configurations with P95 wait within 1.25x SLO: "
          f"{fig4_fraction(fig4, tolerance=0.25) * 100:.0f}%")

    banner("Figure 5 — allocation-algorithm compute time vs. container count")
    fig5 = run_fig5()
    print(format_fig5(fig5))
    print(f"worst-case solver time   : {max_time_seconds(fig5, 'solver') * 1000:.1f} ms")
    print(f"worst-case reference time: {max_time_seconds(fig5, 'reference') * 1000:.1f} ms")

    banner("Figure 6 — model-driven autoscaling under time-varying workloads")
    fig6 = run_fig6(step_duration=30.0 if quick else 60.0)
    micro_rates, mobile_rates = default_rate_profiles()
    print(f"micro-benchmark rate/allocation correlation: "
          f"{tracking_correlation(micro_rates, fig6.step_duration, fig6.micro_timeline):.2f}")
    print(f"MobileNet rate/allocation correlation      : "
          f"{tracking_correlation(mobile_rates, fig6.step_duration, fig6.mobilenet_timeline):.2f}")
    print(f"micro-benchmark containers at 5 vs 30 req/s : "
          f"{fig6.containers_during_step('microbenchmark', 0):.1f} vs "
          f"{fig6.containers_during_step('microbenchmark', 5):.1f}")

    banner("Figure 7 — service time vs. CPU deflation")
    fig7 = run_fig7()
    print(format_fig7(fig7))
    print(f"SqueezeNet slowdown at 30% deflation : {slowdown_at(fig7, 'squeezenet', 0.3):.2f}x")
    print(f"MobileNet slowdown at 50% deflation  : {slowdown_at(fig7, 'mobilenet', 0.5):.2f}x")

    banner("Figure 8 — reclamation policies under overload (2 functions)")
    fig8 = run_fig8(phase_duration=90.0 if quick else 180.0)
    print(format_fig8(fig8))

    banner("Figure 9 — Azure-like trace replay (6 functions, 2 users)")
    fig9 = run_fig9(duration_minutes=10 if quick else 30)
    print(format_fig9(fig9))

    banner("Figure 10 — node-failure recovery (fault injection)")
    from repro.experiments.fig10_recovery import format_fig10, run_fig10

    total = 180.0 if quick else 360.0
    print(format_fig10(run_fig10(fail_at=total / 3, recover_at=2 * total / 3,
                                 duration=total)))

    banner("Figure 11 — control-plane policy shootout (healthy + faulted)")
    from repro.experiments.fig11_policies import format_fig11, run_fig11

    print(format_fig11(run_fig11(duration=120.0 if quick else 360.0)))

    print(f"\nTotal runtime: {time.time() - started:.0f} s")


if __name__ == "__main__":
    main()
