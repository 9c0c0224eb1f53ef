"""The edge cluster: nodes + containers + the control operations LaSS needs.

:class:`EdgeCluster` is the resource substrate that the LaSS controller
(:mod:`repro.core.controller`) manipulates.  It exposes exactly the
operations the paper's modified OpenWhisk controller has (Figure 2b):
create, delete, and resize (deflate) containers on specific nodes, and
enumerate the containers of each function together with their sizes.

Container creation pays a configurable cold-start latency; termination
is immediate.  All timing flows through the shared
:class:`~repro.sim.engine.SimulationEngine`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.cluster.container import Container, ContainerState
from repro.cluster.node import InsufficientCapacityError, Node
from repro.sim.engine import SimulationEngine


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of an edge cluster.

    The defaults reproduce the paper's testbed: 3 nodes, 4 cores and
    16 GB each (§6.1), with sub-second container provisioning
    ("reprovision container capacity within hundreds of milliseconds").
    """

    node_count: int = 3
    cpu_per_node: float = 4.0
    memory_per_node_mb: float = 16 * 1024.0
    cold_start_latency: float = 0.5
    #: Latency of an in-place resize (Docker ``update``); effectively immediate.
    resize_latency: float = 0.0

    def total_cpu(self) -> float:
        """Aggregate CPU capacity of the cluster in vCPUs."""
        return self.node_count * self.cpu_per_node

    def total_memory_mb(self) -> float:
        """Aggregate memory capacity of the cluster in MB."""
        return self.node_count * self.memory_per_node_mb

    def build_nodes(self) -> List[Node]:
        """Instantiate the node objects described by this config."""
        return [
            Node(f"node-{i}", self.cpu_per_node, self.memory_per_node_mb)
            for i in range(self.node_count)
        ]


@dataclass
class FunctionDeployment:
    """Everything the cluster needs to know to host containers of a function.

    Parameters mirror the paper: a standard container size (Table 1), a
    weight for fair-share allocation (§4.1), an SLO deadline (§2.3), and
    a deflation response curve used to derive the speed of a deflated
    container (Figure 7).
    """

    name: str
    cpu: float
    memory_mb: float
    weight: float = 1.0
    user: str = "default"
    slo_deadline: Optional[float] = 0.1
    slo_percentile: float = 0.95
    #: maps cpu fraction of the standard size -> relative speed
    speed_of_cpu: Callable[[float], float] = field(default=lambda fraction: fraction)
    #: minimum number of containers to keep warm even at zero load
    min_containers: int = 0

    def __post_init__(self) -> None:
        """Validate the deployment's container size and SLO parameters."""
        if self.cpu <= 0:
            raise ValueError(f"function {self.name}: cpu must be positive")
        if self.memory_mb <= 0:
            raise ValueError(f"function {self.name}: memory_mb must be positive")
        if self.weight <= 0:
            raise ValueError(f"function {self.name}: weight must be positive")
        if not 0 < self.slo_percentile < 1:
            raise ValueError(f"function {self.name}: slo_percentile must be in (0, 1)")


class EdgeCluster:
    """Mutable cluster state plus the container control operations.

    Parameters
    ----------
    engine:
        Shared simulation engine (clock + event queue).
    config:
        Cluster sizing and latency parameters.
    nodes:
        Optional pre-built nodes (overrides ``config.build_nodes()``).
    """

    def __init__(
        self,
        engine: SimulationEngine,
        config: Optional[ClusterConfig] = None,
        nodes: Optional[Iterable[Node]] = None,
    ) -> None:
        """Build the nodes and empty container indexes for the configured cluster."""
        self.engine = engine
        self.config = config or ClusterConfig()
        self.nodes: List[Node] = list(nodes) if nodes is not None else self.config.build_nodes()
        if not self.nodes:
            raise ValueError("cluster must have at least one node")
        self._deployments: Dict[str, FunctionDeployment] = {}
        self._containers: Dict[str, Container] = {}
        #: per-cluster container id sequence.  Ids must NOT come from the
        #: process-global counter: container-id strings are dispatch/victim
        #: sort tie-breaks, so ids that depended on how many containers
        #: *earlier runs in the same process* created would make sweep
        #: shard results depend on worker placement (breaking the
        #: workers=1 ≡ workers=N byte-identity guarantee).  Every cluster
        #: numbering from c0 makes a run a pure function of its spec.
        self._container_seq = itertools.count()
        #: per-function index of live containers so hot paths never scan
        #: the whole cluster (terminated containers are removed eagerly)
        self._by_function: Dict[str, Dict[str, Container]] = {}
        #: :meth:`containers_of` as last sorted, per function: with draining
        #: containers and without.  A control epoch asks four times per
        #: function between two changes, so an entry lives until the function
        #: gains a container or one of its containers has ``state`` or
        #: ``current_cpu`` (the sort key) written.
        self._sorted_all: Dict[str, List[Container]] = {}
        self._sorted_live: Dict[str, List[Container]] = {}
        self._on_container_warm: List[Callable[[Container], None]] = []
        self._on_container_state: List[Callable[[Container], None]] = []
        #: Optional override for the constant cold-start latency: a
        #: zero-argument callable returning the latency of the *next*
        #: container creation.  Installed by the fault injector to model
        #: cold-start latency distributions; ``None`` keeps the
        #: configured constant (and the healthy event stream byte-exact).
        self.cold_start_sampler: Optional[Callable[[], float]] = None

    # ------------------------------------------------------------------
    # Deployments
    # ------------------------------------------------------------------
    def deploy(self, deployment: FunctionDeployment) -> None:
        """Register a function with the cluster (no containers are created yet)."""
        if deployment.name in self._deployments:
            raise ValueError(f"function {deployment.name!r} already deployed")
        self._deployments[deployment.name] = deployment

    def undeploy(self, function_name: str) -> None:
        """Remove a function and terminate all its containers."""
        self._deployments.pop(function_name, None)
        for container in list(self.containers_of(function_name)):
            self.terminate_container(container.container_id)

    def deployment(self, function_name: str) -> FunctionDeployment:
        """Look up the deployment record of a function."""
        try:
            return self._deployments[function_name]
        except KeyError:
            raise KeyError(f"function {function_name!r} is not deployed") from None

    @property
    def deployments(self) -> List[FunctionDeployment]:
        """All registered function deployments."""
        return list(self._deployments.values())

    @property
    def function_names(self) -> List[str]:
        """Names of all deployed functions."""
        return list(self._deployments)

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    @property
    def total_cpu(self) -> float:
        """Aggregate CPU capacity in vCPUs, excluding failed nodes.

        Failed nodes hold no containers and accept no placements, so
        counting their capacity would make the controller plan against
        hardware that does not exist: overload detection, fair-share
        targets and ``capacity_in_containers`` all shrink with the
        fleet.  (Baseline-``unresponsive`` nodes still count — that flag
        models a node that is *overcommitted*, not absent.)
        """
        return sum(n.cpu_capacity for n in self.nodes if not n.failed)

    @property
    def configured_cpu(self) -> float:
        """Aggregate CPU capacity as configured, including failed nodes.

        The denominator of the availability metric: what the cluster
        *should* have.
        """
        return sum(n.cpu_capacity for n in self.nodes)

    @property
    def total_memory_mb(self) -> float:
        """Aggregate memory capacity in MB, excluding failed nodes."""
        return sum(n.memory_capacity_mb for n in self.nodes if not n.failed)

    @property
    def cpu_allocated(self) -> float:
        """CPU currently allocated to live containers across all nodes."""
        return sum(n.cpu_allocated for n in self.nodes)

    @property
    def cpu_free(self) -> float:
        """Unallocated CPU across all nodes."""
        return self.total_cpu - self.cpu_allocated

    @property
    def cpu_utilization(self) -> float:
        """Fraction of cluster CPU allocated to containers."""
        return self.cpu_allocated / self.total_cpu if self.total_cpu else 0.0

    def cpu_allocated_to(self, function_name: str) -> float:
        """CPU currently allocated to a particular function."""
        return sum(c.current_cpu for c in self.containers_of(function_name))

    def capacity_in_containers(self, function_name: str) -> int:
        """Cluster capacity expressed in standard containers of ``function_name``.

        This is the quantity ``C`` in the paper's fair-share equations when
        all functions share the same container size; for mixed sizes the
        controller works in CPU units instead.
        """
        dep = self.deployment(function_name)
        return int(self.total_cpu / dep.cpu + 1e-9)

    # ------------------------------------------------------------------
    # Containers
    # ------------------------------------------------------------------
    def containers_of(self, function_name: str, include_draining: bool = True) -> List[Container]:
        """Live containers of a function, sorted by current CPU (smallest first)."""
        cache = self._sorted_all if include_draining else self._sorted_live
        result = cache.get(function_name)
        if result is None:
            index = self._by_function.get(function_name)
            if not index:
                return []
            if include_draining:
                result = sorted(index.values(), key=lambda c: (c.current_cpu, c.container_id))
            else:
                # the sort key is unique per container, so filtering the
                # sorted list is sorting the filtered one
                result = [c for c in self.containers_of(function_name)
                          if c.state != ContainerState.DRAINING]
            cache[function_name] = result
        return list(result)

    def has_containers(self, function_name: str) -> bool:
        """O(1): whether the function has any live container (incl. draining)."""
        return bool(self._by_function.get(function_name))

    def warm_containers_of(self, function_name: str) -> List[Container]:
        """Containers of a function that are warm (dispatchable)."""
        return [c for c in self.containers_of(function_name) if c.state == ContainerState.WARM]

    def all_containers(self) -> List[Container]:
        """All live containers in the cluster."""
        return list(self._containers.values())

    def get_container(self, container_id: str) -> Optional[Container]:
        """Look up a container by id (returns ``None`` for unknown or terminated)."""
        container = self._containers.get(container_id)
        if container is None or container.state == ContainerState.TERMINATED:
            return None
        return container

    def container_count(self, function_name: str, include_draining: bool = False) -> int:
        """Number of live containers of a function."""
        return len(self.containers_of(function_name, include_draining=include_draining))

    def on_container_warm(self, callback: Callable[[Container], None]) -> None:
        """Register a hook invoked whenever a container finishes its cold start."""
        self._on_container_warm.append(callback)

    def on_container_state(self, callback: Callable[[Container], None]) -> None:
        """Register a hook invoked after *every* container lifecycle transition or resize.

        This is how derived indexes (the dispatcher's per-function idle
        sets) stay in sync incrementally instead of rescanning the
        cluster on each dispatch.
        """
        self._on_container_state.append(callback)

    def _container_state_changed(self, container: Container) -> None:
        """Observer hook: drop the function's sorted lists, keep its index in sync."""
        self._sorted_all.pop(container.function_name, None)
        self._sorted_live.pop(container.function_name, None)
        if container.state == ContainerState.TERMINATED:
            self._containers.pop(container.container_id, None)
            index = self._by_function.get(container.function_name)
            if index is not None:
                index.pop(container.container_id, None)
        for callback in self._on_container_state:
            callback(container)

    # ------------------------------------------------------------------
    # Control operations (what the LaSS controller invokes)
    # ------------------------------------------------------------------
    def create_container(
        self,
        function_name: str,
        node: Optional[Node] = None,
        cpu: Optional[float] = None,
        enforce_cpu: bool = True,
    ) -> Container:
        """Create a container for ``function_name``.

        If ``node`` is not given, the container is placed on the feasible
        node with the *least* free CPU (best-fit packing, which keeps whole
        nodes free for the larger DNN containers and minimises
        fragmentation).  Raises :class:`InsufficientCapacityError` if no
        node can host it.
        """
        dep = self.deployment(function_name)
        cpu = dep.cpu if cpu is None else float(cpu)
        if node is None:
            node = self.find_node_for(cpu, dep.memory_mb)
            if node is None:
                raise InsufficientCapacityError(
                    f"no node can host a container of {function_name!r} "
                    f"({cpu} vCPU, {dep.memory_mb} MB)"
                )
        elif node.failed:
            raise InsufficientCapacityError(
                f"node {node.name} is failed; cannot host a container of {function_name!r}"
            )
        container = Container(
            function_name=function_name,
            node_name=node.name,
            standard_cpu=dep.cpu,
            memory_mb=dep.memory_mb,
            speed_of_cpu=dep.speed_of_cpu,
            created_at=self.engine.now,
            container_id=f"c{next(self._container_seq)}",
        )
        if cpu < dep.cpu:
            container.deflate_to(cpu)
        node.add_container(container, enforce_cpu=enforce_cpu)
        self._containers[container.container_id] = container
        self._by_function.setdefault(function_name, {})[container.container_id] = container
        self._sorted_all.pop(function_name, None)
        self._sorted_live.pop(function_name, None)
        container.state_observer = self._container_state_changed
        sampler = self.cold_start_sampler
        latency = self.config.cold_start_latency if sampler is None else max(0.0, sampler())
        self.engine.call_later(latency, self._finish_cold_start, container)
        return container

    def _finish_cold_start(self, container: Container) -> None:
        """Engine callback: mark a STARTING container warm and notify observers."""
        if container.state != ContainerState.STARTING:
            return  # terminated while starting
        container.mark_warm(self.engine.now)
        for callback in self._on_container_warm:
            callback(container)

    def terminate_container(self, container_id: str) -> List:
        """Terminate a container immediately; returns the dropped requests."""
        container = self._containers.get(container_id)
        if container is None or container.state == ContainerState.TERMINATED:
            return []
        dropped = container.terminate(self.engine.now)
        node = self.node(container.node_name)
        if node is not None:
            node.remove_container(container_id)
        return dropped

    def evict_container(self, container_id: str) -> Tuple[List, List]:
        """Crash-terminate a container, salvaging its queued requests.

        Unlike :meth:`terminate_container` (an orderly controller action
        that drops everything), eviction models a *failure*: the running
        request is lost, but queued requests are returned still
        ``QUEUED`` so the caller can requeue them onto surviving
        containers (see :meth:`repro.cluster.container.Container.evict`).

        Returns ``(interrupted, salvaged)``.
        """
        container = self._containers.get(container_id)
        if container is None or container.state == ContainerState.TERMINATED:
            return [], []
        interrupted, salvaged = container.evict(self.engine.now)
        node = self.node(container.node_name)
        if node is not None:
            node.remove_container(container_id)
        return interrupted, salvaged

    # ------------------------------------------------------------------
    # Node failure / recovery (driven by the fault injector)
    # ------------------------------------------------------------------
    def fail_node(self, node_name: str) -> Tuple[List, List]:
        """Take a node down, evicting every container it hosts.

        Failure semantics: each hosted container is evicted — its
        running request fails, its queued requests survive (still
        ``QUEUED``) for the caller to requeue.  The node stops counting
        towards :attr:`total_cpu` and accepts no placements until
        :meth:`recover_node`.

        Returns the aggregated ``(interrupted, salvaged)`` request lists
        across all evicted containers, in container order.  Idempotent:
        failing an already-failed node returns empty lists.
        """
        node = self.node(node_name)
        if node is None:
            raise KeyError(f"unknown node {node_name!r}")
        if node.failed:
            return [], []
        node.failed = True
        interrupted: List = []
        salvaged: List = []
        for container in list(node.containers):
            dropped, queued = self.evict_container(container.container_id)
            interrupted.extend(dropped)
            salvaged.extend(queued)
        return interrupted, salvaged

    def recover_node(self, node_name: str) -> None:
        """Bring a failed node back (empty, at full capacity)."""
        node = self.node(node_name)
        if node is None:
            raise KeyError(f"unknown node {node_name!r}")
        node.failed = False

    def deflate_container(self, container_id: str, cpu: float) -> float:
        """Resize a container in place to ``cpu`` vCPUs; returns CPU released."""
        container = self.get_container(container_id)
        if container is None:
            raise KeyError(f"unknown container {container_id!r}")
        return container.deflate_to(cpu)

    def inflate_container(self, container_id: str) -> float:
        """Restore a container to its standard size if the node has room.

        Returns the CPU consumed (0 if there was no headroom).
        """
        container = self.get_container(container_id)
        if container is None:
            raise KeyError(f"unknown container {container_id!r}")
        node = self.node(container.node_name)
        if node is None:
            return 0.0
        headroom = node.cpu_free
        target = min(container.standard_cpu, container.current_cpu + headroom)
        if target <= container.current_cpu:
            return 0.0
        return -container.deflate_to(target)

    # ------------------------------------------------------------------
    # Placement helpers
    # ------------------------------------------------------------------
    def node(self, name: str) -> Optional[Node]:
        """Look up a node by name."""
        for node in self.nodes:
            if node.name == name:
                return node
        return None

    def find_node_for(self, cpu: float, memory_mb: float) -> Optional[Node]:
        """Best-fit placement: the feasible node with the least free CPU."""
        candidates = [n for n in self.nodes if n.can_fit(cpu, memory_mb) and n.available]
        if not candidates:
            return None
        return min(candidates, key=lambda n: (n.cpu_free, n.memory_free_mb, n.name))

    def room_for(self, function_name: str) -> int:
        """How many additional standard containers of a function fit right now."""
        dep = self.deployment(function_name)
        return sum(n.room_for(dep.cpu, dep.memory_mb) for n in self.nodes if n.available)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Debugging summary of nodes, functions, and containers."""
        return (
            f"EdgeCluster(nodes={len(self.nodes)}, functions={len(self._deployments)}, "
            f"containers={len(self.all_containers())}, "
            f"cpu={self.cpu_allocated:.1f}/{self.total_cpu:.1f})"
        )
