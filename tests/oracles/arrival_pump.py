"""``ArrivalGenerator.start`` / ``_pump`` / ``_emit`` as of commit 4acf7ff, consumed by ``tests/test_property_invariants.py`` and ``tests/test_determinism.py``.

The event plane used to inject each generator's arrivals into the
engine heap in batches: ``start`` built the sampler and ran the first
pump; a pump sampled the next ``batch_size`` arrivals and their works,
pushed one heap event per arrival and one more pump at the batch's last
arrival; ``_emit`` built each request and dispatched it.  The bodies are
verbatim but for two things: they read the generator's fields through
``self.generator``, and ``engine.schedule_many`` (gone from the engine)
is the ``call_at`` loop it was, which pushes the same heap entries
(time, data priority, one sequence number each) in the same order.

:func:`run_pumped` is ``SimulationRunner.run``'s event-plane path of
the same commit with its arrivals pumped this way.
"""

from typing import Optional

from repro.sim import request as request_module
from repro.sim.request import Request
from repro.simulation import SimulationResult
from repro.workloads.generator import _ThinningSampler


class ArrivalPump:
    """Drives one :class:`~repro.workloads.generator.ArrivalGenerator` through engine events."""

    def __init__(self, generator, batch_size: int = 256) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.generator = generator
        self.batch_size = int(batch_size)
        self.generated = 0
        self._sampler: Optional[_ThinningSampler] = None

    def start(self) -> None:
        """Sample and schedule the first batch of arrivals."""
        generator = self.generator
        self._sampler = _ThinningSampler(
            generator.schedule,
            generator.rng,
            start=generator.engine.now,
            horizon=generator.horizon,
            thinning_window=generator.thinning_window,
        )
        self._pump()

    def _pump(self) -> None:
        """Schedule the next batch of arrivals plus the follow-up pump.

        The pump event is scheduled at the batch's last arrival time with
        the same (data) priority but a later sequence number, so it fires
        after that arrival's dispatch — the next batch is then sampled
        with the RNG positioned exactly as in per-event mode.
        """
        generator = self.generator
        times = self._sampler.next_arrivals(self.batch_size)
        if not times:
            return
        works = generator.profile.sample_work_many(generator.work_rng, len(times))
        emit = self._emit
        for t, w in zip(times, works.tolist()):
            generator.engine.call_at(t, emit, t, w)
        generator.engine.call_at(times[-1], self._pump)

    def _emit(self, arrival_time: float, work: float) -> None:
        """Create one request at its arrival time and hand it to dispatch."""
        generator = self.generator
        self.generated += 1
        generator.dispatch(Request(generator.profile.name, arrival_time, work,
                                   next(request_module._request_counter)))


def run_pumped(runner, duration: float, batch_size: int,
               extra_drain: float = 5.0) -> SimulationResult:
    """Run ``runner`` (event plane) as ``SimulationRunner.run`` did, arrivals pumped in batches."""
    runner.prewarm()
    runner.policy.start()
    for generator in runner.generators:
        if generator.horizon is None or generator.horizon > duration:
            generator.horizon = duration
    pumps = [ArrivalPump(generator, batch_size) for generator in runner.generators]
    for pump in pumps:
        pump.start()
    runner.engine.run(until=duration + extra_drain)
    runner.metrics.seal_requests()
    return SimulationResult(
        metrics=runner.metrics,
        cluster=runner.cluster,
        controller=runner.policy,
        duration=duration,
        generated_requests={p.generator.profile.name: p.generated for p in pumps},
    )
