"""Worker node model: CPU / memory accounting for hosted containers.

The paper's testbed is three nodes with 4 cores and 16 GB each.  A
:class:`Node` enforces that the sum of its containers' *current* CPU
allocations and memory allocations never exceeds its capacity, and
exposes the utilisation numbers reported in the evaluation (allocated
vs. total capacity).

The two allocation sums are a ledger kept at the write: placement reads
them thousands of times between two changes, so each is computed once
and dropped by exactly the writes that can change it —
:meth:`Node.add_container`, :meth:`Node.remove_container`, a hosted
container's resize (``current_cpu``) and its transition to
``TERMINATED`` (both through ``Container.host``).  The other lifecycle
writes (warm, draining mark, rescue) keep them: the sums count every
container that is not terminated, at its current size.  What is cached
is the value the sum over the hosted containers returns, never a
running total: float addition is not associative, and ``cpu_free``
decides placements to within ``1e-9``.

:func:`best_fit` is the one best-fit body: the controller's placement
planner and :meth:`~repro.cluster.cluster.EdgeCluster.find_node_for`
both choose through it.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cluster.container import Container, ContainerState

_current_cpu = attrgetter("current_cpu")
_memory_mb = attrgetter("memory_mb")
_TERMINATED = ContainerState.TERMINATED


class InsufficientCapacityError(RuntimeError):
    """Raised when a node cannot host a requested container allocation."""


class Node:
    """A single edge worker node.

    Parameters
    ----------
    name:
        Unique node identifier.
    cpu_capacity:
        Total vCPUs available for function containers.
    memory_capacity_mb:
        Total memory in MB available for function containers.
    """

    def __init__(self, name: str, cpu_capacity: float, memory_capacity_mb: float) -> None:
        """Create a node with the given (positive) CPU and memory capacities."""
        if cpu_capacity <= 0 or memory_capacity_mb <= 0:
            raise ValueError("node capacities must be positive")
        self.name = name
        self.cpu_capacity = float(cpu_capacity)
        self.memory_capacity_mb = float(memory_capacity_mb)
        self._containers: Dict[str, Container] = {}
        #: Set true by the vanilla-OpenWhisk baseline when the node is
        #: overcommitted on CPU and stops responding (cascading failure, §6.6).
        self.unresponsive = False
        #: Set true by the fault injector while the node is down.  Unlike
        #: ``unresponsive`` (a baseline-behaviour flag that leaves capacity
        #: accounting untouched), a failed node also drops out of the
        #: cluster's capacity totals — the controller must plan around it.
        self.failed = False
        #: the allocation sums as last computed; ``None`` once a write has
        #: made them stale
        self._cpu_allocated: Optional[float] = None
        self._memory_allocated_mb: Optional[float] = None
        #: the owning ``EdgeCluster``, whose ``capacity_changes`` counts every drop of the sums
        self.cluster = None

    def drop_sums(self) -> None:
        """A container came or went, or a hosted one was resized or terminated."""
        self._cpu_allocated = None
        self._memory_allocated_mb = None
        cluster = self.cluster
        if cluster is not None:
            cluster.capacity_changes += 1

    def _fill_sums(self) -> None:
        """Compute both allocation sums over the live containers, in hosting order."""
        live = self.containers
        self._cpu_allocated = sum(map(_current_cpu, live))
        self._memory_allocated_mb = sum(map(_memory_mb, live))

    @property
    def available(self) -> bool:
        """Whether the node can host new containers (not failed, not unresponsive)."""
        return not (self.failed or self.unresponsive)

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------
    @property
    def containers(self) -> List[Container]:
        """Live (non-terminated) containers hosted on this node."""
        return [c for c in self._containers.values() if c.state is not _TERMINATED]

    @property
    def cpu_allocated(self) -> float:
        """Sum of the *current* (possibly deflated) CPU allocations."""
        if self._cpu_allocated is None:
            self._fill_sums()
        return self._cpu_allocated

    @property
    def memory_allocated_mb(self) -> float:
        """Sum of memory allocations of live containers."""
        if self._memory_allocated_mb is None:
            self._fill_sums()
        return self._memory_allocated_mb

    @property
    def cpu_free(self) -> float:
        """Unallocated CPU."""
        return self.cpu_capacity - self.cpu_allocated

    @property
    def memory_free_mb(self) -> float:
        """Unallocated memory."""
        return self.memory_capacity_mb - self.memory_allocated_mb

    @property
    def cpu_utilization(self) -> float:
        """Fraction of node CPU currently allocated to containers."""
        return self.cpu_allocated / self.cpu_capacity

    @property
    def cpu_overcommitted(self) -> bool:
        """Whether allocated CPU exceeds capacity (only possible for baselines
        that ignore CPU when packing, such as vanilla OpenWhisk)."""
        return self.cpu_allocated > self.cpu_capacity + 1e-9

    def can_fit(self, cpu: float, memory_mb: float) -> bool:
        """Whether a container of the given size fits in the free capacity."""
        return cpu <= self.cpu_free + 1e-9 and memory_mb <= self.memory_free_mb + 1e-9

    # ------------------------------------------------------------------
    # Container management
    # ------------------------------------------------------------------
    def add_container(self, container: Container, enforce_cpu: bool = True) -> None:
        """Host ``container`` on this node.

        Parameters
        ----------
        enforce_cpu:
            If true (LaSS behaviour), reject the container when its CPU does
            not fit.  The vanilla-OpenWhisk baseline packs on memory only and
            passes ``False``, which is exactly the behaviour that leads to
            the cascading failures reported in §6.6.
        """
        if container.container_id in self._containers:
            raise ValueError(f"container {container.container_id} already on node {self.name}")
        if container.memory_mb > self.memory_free_mb + 1e-9:
            raise InsufficientCapacityError(
                f"node {self.name}: not enough memory for {container.container_id} "
                f"(need {container.memory_mb} MB, free {self.memory_free_mb:.1f} MB)"
            )
        if enforce_cpu and container.current_cpu > self.cpu_free + 1e-9:
            raise InsufficientCapacityError(
                f"node {self.name}: not enough CPU for {container.container_id} "
                f"(need {container.current_cpu}, free {self.cpu_free:.2f})"
            )
        container.node_name = self.name
        self._containers[container.container_id] = container
        container.host = self
        self.drop_sums()

    def remove_container(self, container_id: str) -> Optional[Container]:
        """Forget a container (after termination); returns it if present."""
        container = self._containers.pop(container_id, None)
        if container is not None:
            container.host = None
            self.drop_sums()
        return container

    def get_container(self, container_id: str) -> Optional[Container]:
        """Look up a hosted container by id."""
        return self._containers.get(container_id)

    def containers_of(self, function_name: str) -> List[Container]:
        """Live containers of a given function on this node."""
        return [c for c in self.containers if c.function_name == function_name]

    def room_for(self, cpu: float, memory_mb: float) -> int:
        """How many containers of the given size still fit on this node."""
        if cpu <= 0 and memory_mb <= 0:
            return 0
        by_cpu = int(self.cpu_free / cpu + 1e-9) if cpu > 0 else 10**9
        by_mem = int(self.memory_free_mb / memory_mb + 1e-9) if memory_mb > 0 else 10**9
        return max(0, min(by_cpu, by_mem))


def best_fit(nodes: Iterable[Node], cpu: float, memory_mb: float,
             reserved: Optional[Dict[str, Tuple[float, float]]] = None) -> Optional[Node]:
    """The available node that fits ``cpu`` / ``memory_mb`` with the least free CPU.

    ``reserved`` maps a node name to the ``(cpu, memory_mb)`` a placement
    plan has already promised on it; the fit is checked net of it, and
    the choice is the least ``(free CPU net of reservations, free
    memory, name)``.  One pass, reading each node's free capacity once;
    ``None`` when no node fits.  It reads the node's cached sums as
    fields (``cpu_free`` is ``cpu_capacity - cpu_allocated``), not through
    the properties: a placement reads every node, and a failed
    create-on-empty is nothing else.
    """
    best = None
    best_cpu = best_memory = 0.0
    need_cpu = cpu - 1e-9
    need_memory = memory_mb - 1e-9
    for node in nodes:
        if node.failed or node.unresponsive:
            continue
        if node._cpu_allocated is None:
            node._fill_sums()
        free_cpu = node.cpu_capacity - node._cpu_allocated
        free_memory = node.memory_capacity_mb - node._memory_allocated_mb
        held_memory = 0.0
        held = reserved.get(node.name) if reserved else None
        if held is not None:
            free_cpu -= held[0]
            held_memory = held[1]
        if free_cpu < need_cpu or free_memory - held_memory < need_memory:
            continue
        if (best is None or free_cpu < best_cpu
                or (free_cpu == best_cpu and (free_memory < best_memory or (
                    free_memory == best_memory and node.name < best.name)))):
            best, best_cpu, best_memory = node, free_cpu, free_memory
    return best


def total_capacity(nodes: Iterable[Node]) -> Dict[str, float]:
    """Aggregate CPU/memory capacity over a set of nodes."""
    nodes = list(nodes)
    return {
        "cpu": sum(n.cpu_capacity for n in nodes),
        "memory_mb": sum(n.memory_capacity_mb for n in nodes),
    }
