"""The control epoch's call budget: Python frames per function-epoch inside ``run_epoch``.

The count gate beside ``test_call_budget.py``, for the other half of §5:
the control path is 64 functions x 77 epochs of object-at-a-time Python
on ``burst_control``, nothing in it is a hotspot, and its cost is the
number of frames one function walks through per epoch.  A count, not a
timing, so it can gate in tier-1.

The scenario is ``burst_control`` at a quarter of the size: 16 Table-1
functions under stepped rates with bursts, 2 s epochs, a 3-node cluster
too small for them, seed 7, columnar plane.  Only frames entered while
``LassController.run_epoch`` is on the stack are counted.  It read 140.4
frames a function-epoch at the parent (commit 7af6479), before the
cluster kept its books at the write, the timeline became a view and the
sizing queries became tuple rows, 99.8 after, and 95.8 once the
controller read a profile's standard-size service rate once per
function and a reclamation plan built its terminated-id set once.
It read 83.7 once an epoch's deflated fleets were probed in
one pooled pass of the heterogeneous bound instead of a
``HeterogeneousMMcQueue`` per probe, and decisions became tuple rows
(``heterogeneous.py`` went from 10.6 frames a function-epoch to 1.9).  It
read 77.9 once the solver walked fleets of up to 32 containers through a
closed form, one query at a time, instead of pooling numpy kernel calls
(from 83.2; ``solver.py`` itself went from 11.8 frames to 14.0, the numpy
frames behind the pooled kernels are gone).  It reads 76.9 since the
search is one walk (``SizingSolver._walk``) rather than a search method
handing the walk to a module function (``solver.py`` 14.0 → 13.0).
"""

import collections
import gc
import random
import sys
from dataclasses import replace
from pathlib import Path

from repro.cluster.cluster import ClusterConfig
from repro.core.controller import ControllerConfig, LassController
from repro.simulation import SimulationRunner
from repro.workloads.functions import FUNCTION_CATALOG
from repro.workloads.generator import WorkloadBinding
from repro.workloads.schedules import StepSchedule

SRC = str(Path(__file__).resolve().parents[1] / "src") + "/"

#: About 5 % above what the tree achieves.  Raise it only with a reason in
#: the commit that does; lower it when a change earns it.
FRAMES_PER_FUNCTION_EPOCH_CEILING = 81.8

FUNCTIONS = 16
DURATION = 40.0
EPOCH = 2.0


def build_runner() -> SimulationRunner:
    """The scenario, wired and ready to run (a pure function of the constants above)."""
    rng = random.Random("epoch_budget:7")
    profiles = list(FUNCTION_CATALOG.values())
    bindings = []
    for i in range(FUNCTIONS):
        profile = profiles[i % len(profiles)]
        base = 0.12 * profile.service_rate * rng.uniform(0.5, 3.0)
        steps, t = [], 0.0
        while t < DURATION:
            factor = rng.uniform(3.0, 6.0) if rng.random() < 0.3 else 1.0
            steps.append((t, base * factor))
            t += rng.choice((4.0, 6.0, 10.0))
        bindings.append(WorkloadBinding(profile=replace(profile, name=f"fn-{i:02d}"),
                                        schedule=StepSchedule(steps, duration=DURATION),
                                        slo_deadline=0.1))
    return SimulationRunner(
        workloads=bindings,
        cluster_config=ClusterConfig(node_count=3, cpu_per_node=2.0),
        controller_config=ControllerConfig(epoch_length=EPOCH),
        seed=7,
        data_plane="columnar",
    )


def count_frames():
    """Run the scenario under ``sys.setprofile``: (epochs, overloaded epochs, frames by file).

    Only ``call`` events raised while ``run_epoch`` is on the stack count,
    ``run_epoch``'s own frame included.  The collector is off for the run:
    a collection inside an epoch would add the frames of whatever
    ``gc.callbacks`` the test process carries (hypothesis installs one).
    """
    runner = build_runner()
    frames = collections.Counter()
    epoch_code = LassController.run_epoch.__code__
    inside = 0

    def profile(frame, event, _arg):
        nonlocal inside
        if frame.f_code is epoch_code:
            if event == "call":
                inside += 1
            elif event == "return":
                inside -= 1
                return
        if inside and event == "call":
            frames[frame.f_code.co_filename] += 1

    previous, collecting = sys.getprofile(), gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = runner.run(duration=DURATION)
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    epochs = result.metrics.epochs
    return len(epochs), sum(e.overloaded for e in epochs), frames


def split_by_module(frames, function_epochs):
    """The per-module table printed when the budget is blown."""
    rows = [f"  {count / function_epochs:7.2f}  {name.replace(SRC, '')}"
            for name, count in frames.most_common(16)]
    return "\n".join(["frames/function-epoch by file:"] + rows)


def test_frames_per_function_epoch_repeat_exactly_and_stay_under_the_ceiling():
    build_runner().run(duration=DURATION)   # process-wide caches (the log-factorial table) fill once
    epochs, overloaded, frames = count_frames()
    again_epochs, again_overloaded, again = count_frames()
    assert epochs == again_epochs == int((DURATION + 5.0) / EPOCH)
    # the cluster is too small: the fair-share and reclamation path is the common one
    assert overloaded == again_overloaded > epochs // 2
    assert frames == again, "the frame count is not a pure function of the scenario"
    function_epochs = epochs * FUNCTIONS
    per_function_epoch = sum(frames.values()) / function_epochs
    assert per_function_epoch <= FRAMES_PER_FUNCTION_EPOCH_CEILING, (
        f"{per_function_epoch:.2f} Python frames per function-epoch, ceiling "
        f"{FRAMES_PER_FUNCTION_EPOCH_CEILING}\n{split_by_module(frames, function_epochs)}"
    )
