"""Discrete-event simulation substrate.

The paper evaluates LaSS on a physical 3-node OpenWhisk cluster.  This
package provides the equivalent substrate in simulation: a deterministic
event-driven engine (:class:`~repro.sim.engine.SimulationEngine`), a
simulation clock, reproducible random-number streams, and the request
objects that flow through the simulated cluster.

The engine is intentionally minimal — a binary-heap event queue with
stable tie-breaking — because everything interesting in LaSS happens in
the control plane (:mod:`repro.core`) and the cluster model
(:mod:`repro.cluster`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.sim.engine": ("SimulationEngine", "Event", "stop_simulation"),
    "repro.sim.request": ("Request", "RequestStatus"),
    "repro.sim.rng": ("RngStreams",),
})

__all__ = [
    "SimulationEngine",
    "Event",
    "stop_simulation",
    "Request",
    "RequestStatus",
    "RngStreams",
]
