"""Cluster, node and device topology for simulated training jobs.

A :class:`Cluster` is the static description of the machines a training job
runs on: worker nodes and (for the Parameter Server architecture) server
nodes, each with a device profile, a contention model, and a link to the
shared network.  :class:`Node` is the runtime object the simulator mutates:
status, restart count, and the contention model currently in effect (which
changes after a KILL_RESTART relaunches the pod on a healthy machine).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional

import numpy as np

from .contention import ContentionModel, NoContention
from .hardware import DeviceProfile
from .network import NetworkModel

__all__ = ["NodeRole", "NodeStatus", "NodeSpec", "Node", "Cluster"]


class NodeRole(enum.Enum):
    """Role of a node in the training job."""

    WORKER = "worker"
    SERVER = "server"


class NodeStatus(enum.Enum):
    """Lifecycle status of a node (pod)."""

    #: Requested from the cluster scheduler but not yet placed (elastic
    #: scale-out rides the same pending-time gate as a relaunch).
    PENDING = "pending"
    RUNNING = "running"
    RESTARTING = "restarting"
    FAILED = "failed"
    FINISHED = "finished"
    #: Permanently departed from the job (elastic scale-in).
    LEFT = "left"


@dataclass
class NodeSpec:
    """Static description of one node.

    Attributes
    ----------
    name:
        Unique node name, e.g. ``"worker-3"`` or ``"server-0"``.
    role:
        Worker or server.
    device:
        Compute device profile of the node.
    contention:
        Contention model in effect when the node starts.
    post_restart_contention:
        Contention model after a KILL_RESTART relaunches the pod.  The whole
        point of KILL_RESTART is that the scheduler places the new pod on a
        machine without resource contention, so this defaults to
        :class:`~repro.sim.contention.NoContention`.
    network:
        Link description between this node and its peers.
    """

    name: str
    role: NodeRole
    device: DeviceProfile
    contention: ContentionModel = field(default_factory=NoContention)
    post_restart_contention: ContentionModel = field(default_factory=NoContention)
    network: NetworkModel = field(default_factory=NetworkModel)

    def with_contention(self, contention: ContentionModel) -> "NodeSpec":
        """Return a copy of the spec with a different initial contention model."""
        return replace(self, contention=contention)


class Node:
    """Runtime state of one node in a simulated run."""

    def __init__(self, spec: NodeSpec, rng: Optional[np.random.Generator] = None,
                 status: NodeStatus = NodeStatus.RUNNING) -> None:
        self.spec = spec
        self.status = status
        self.contention: ContentionModel = spec.contention
        self.restart_count = 0
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._status_listeners: List = []
        self._contention_listeners: List = []

    def add_contention_listener(self, listener) -> None:
        """Register a callable invoked (with this node) when the contention
        model in effect changes mid-run.

        Servers that committed a coalesced window of handling times under the
        old model use this to rescind the still-undelivered tail and re-plan
        under the new one.
        """
        self._contention_listeners.append(listener)

    def set_contention(self, contention: ContentionModel) -> None:
        """Swap the contention model in effect, notifying listeners."""
        self.contention = contention
        for listener in self._contention_listeners:
            listener(self)

    def add_status_listener(self, listener) -> None:
        """Register a callable invoked (with this node) on every status change.

        Lifecycle transitions are rare (restarts, failures, completion), so
        consumers such as :class:`~repro.psarch.job.PSTrainingJob` use this to
        cache aggregate views (e.g. the active-worker count, which sits on the
        per-push hot path) instead of re-scanning every node per request.
        """
        self._status_listeners.append(listener)

    def _notify_status(self) -> None:
        for listener in self._status_listeners:
            listener(self)

    # -- identity ------------------------------------------------------------
    @property
    def name(self) -> str:
        """Node name (unique within the cluster)."""
        return self.spec.name

    @property
    def role(self) -> NodeRole:
        """Worker or server."""
        return self.spec.role

    @property
    def device(self) -> DeviceProfile:
        """Compute device profile."""
        return self.spec.device

    @property
    def network(self) -> NetworkModel:
        """Network link description."""
        return self.spec.network

    @property
    def is_running(self) -> bool:
        """True while the node can process work."""
        return self.status == NodeStatus.RUNNING

    # -- timing --------------------------------------------------------------
    def compute_time(self, batch_size: int, now: float, model_cost: float = 1.0) -> float:
        """Wall-clock seconds this node needs to process one batch at ``now``.

        Combines the device cost model with the node's current contention:
        the compute portion is stretched by the slowdown factor, and the
        contention's extra delay (FlexRR-style sleep injection) is added on
        top.
        """
        base = self.device.batch_time(batch_size, model_cost)
        contention = self.contention
        if contention.is_null:
            return base
        slowdown = contention.slowdown(now)
        extra = contention.extra_delay(now, self._rng)
        return base * slowdown + extra

    def server_time(self, nbytes: float, now: float, per_byte_cost: float = 1e-9,
                    delay_fraction: float = 1.0) -> float:
        """Seconds the node (as a server) needs to handle one pushed gradient.

        ``delay_fraction`` scales the contention's extra delay: in BSP the
        server aggregates all workers' pushes and applies a single parameter
        update per iteration, so a per-iteration contention sleep is amortised
        across the ``n`` push requests (fraction ``1/n``); in ASP every push
        triggers its own update and pays the full delay.
        """
        if not 0.0 <= delay_fraction <= 1.0:
            raise ValueError("delay_fraction must lie in [0, 1]")
        base = self.device.base_overhead + nbytes * per_byte_cost
        contention = self.contention
        if contention.is_null:
            return base
        slowdown = contention.slowdown(now)
        extra = contention.extra_delay(now, self._rng)
        return base * slowdown + extra * delay_fraction

    # -- lifecycle -------------------------------------------------------------
    def mark_restarting(self) -> None:
        """Mark the node as being relaunched (it cannot process work)."""
        self.status = NodeStatus.RESTARTING
        self._notify_status()

    def complete_restart(self) -> None:
        """Finish a relaunch: fresh pod, fresh placement, no contention."""
        self.status = NodeStatus.RUNNING
        self.set_contention(self.spec.post_restart_contention)
        self.restart_count += 1
        self._notify_status()

    def mark_failed(self) -> None:
        """Mark the node as permanently failed (unretryable error)."""
        self.status = NodeStatus.FAILED
        self._notify_status()

    def mark_finished(self) -> None:
        """Mark the node as done with its share of the job."""
        self.status = NodeStatus.FINISHED
        self._notify_status()

    def complete_join(self) -> None:
        """Finish elastic provisioning: the pending pod was placed and is live."""
        if self.status is not NodeStatus.PENDING:
            raise RuntimeError(
                f"node {self.name!r} is {self.status.value}, not pending a join")
        self.status = NodeStatus.RUNNING
        self._notify_status()

    def mark_left(self) -> None:
        """Mark the node as permanently departed (elastic scale-in)."""
        self.status = NodeStatus.LEFT
        self._notify_status()

    def __repr__(self) -> str:
        return (
            f"Node({self.name}, {self.role.value}, {self.device.name}, "
            f"status={self.status.value}, restarts={self.restart_count})"
        )


class Cluster:
    """A collection of worker and server nodes.

    Parameters
    ----------
    name:
        Cluster name (``"cluster-A"`` ... in the paper's terminology).
    specs:
        Node specifications.
    dedicated:
        Whether the cluster is dedicated (single tenant).  Non-dedicated
        clusters are the ones where transient/persistent stragglers occur.
    seed:
        Seed for the per-node random generators (contention noise).
    """

    def __init__(self, name: str, specs: Iterable[NodeSpec], dedicated: bool = True,
                 seed: int = 0) -> None:
        self.name = name
        self.dedicated = dedicated
        self._nodes: Dict[str, Node] = {}
        self._departed: Dict[str, Node] = {}
        # Kept alive for elastic membership: nodes added at simulation time
        # draw their contention-noise seed from the same root stream, so a
        # given join sequence is deterministic for a given cluster seed.
        self._seed_root = root = np.random.default_rng(seed)
        for spec in specs:
            if spec.name in self._nodes:
                raise ValueError(f"duplicate node name {spec.name!r}")
            child_seed = int(root.integers(0, 2**31 - 1))
            self._nodes[spec.name] = Node(spec, rng=np.random.default_rng(child_seed))
        if not self._nodes:
            raise ValueError("a cluster requires at least one node")

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self):
        return iter(self._nodes.values())

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def get(self, name: str) -> Node:
        """Return the node with the given name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError(f"no node named {name!r} in cluster {self.name!r}") from None

    @property
    def nodes(self) -> List[Node]:
        """All nodes."""
        return list(self._nodes.values())

    @property
    def workers(self) -> List[Node]:
        """Worker nodes only."""
        return [node for node in self._nodes.values() if node.role == NodeRole.WORKER]

    @property
    def servers(self) -> List[Node]:
        """Server nodes only."""
        return [node for node in self._nodes.values() if node.role == NodeRole.SERVER]

    @property
    def num_workers(self) -> int:
        """Number of worker nodes."""
        return len(self.workers)

    @property
    def num_servers(self) -> int:
        """Number of server nodes."""
        return len(self.servers)

    # -- elastic membership ---------------------------------------------------
    def add_node(self, spec: NodeSpec,
                 status: NodeStatus = NodeStatus.PENDING) -> Node:
        """Add a node at simulation time (elastic scale-out).

        The node starts ``PENDING`` by default: it exists as membership state
        but cannot process work until the cluster scheduler places it
        (:meth:`Node.complete_join`).  Names must be unique across the whole
        membership history — a departed node's name is never reused, so logs,
        metrics tags and restart counts stay unambiguous.
        """
        if spec.name in self._nodes or spec.name in self._departed:
            raise ValueError(f"duplicate node name {spec.name!r}")
        child_seed = int(self._seed_root.integers(0, 2**31 - 1))
        node = Node(spec, rng=np.random.default_rng(child_seed), status=status)
        self._nodes[spec.name] = node
        return node

    def remove_node(self, name: str) -> Node:
        """Remove a node from the active membership (elastic scale-in).

        The node is marked ``LEFT`` (listeners fire, so cached membership
        views invalidate) and moved to :attr:`departed`, where its identity
        and restart history remain inspectable.
        """
        node = self.get(name)
        if node.status is not NodeStatus.LEFT:
            node.mark_left()
        del self._nodes[name]
        self._departed[name] = node
        return node

    @property
    def departed(self) -> List[Node]:
        """Nodes that permanently left the membership, in departure order."""
        return list(self._departed.values())

    def is_known(self, name: str) -> bool:
        """Whether the name belongs to any node, active or departed."""
        return name in self._nodes or name in self._departed

    def set_contention(self, node_name: str, contention: ContentionModel) -> None:
        """Override the current contention model of one node."""
        self.get(node_name).set_contention(contention)

    def describe(self) -> str:
        """Human readable summary used in experiment reports."""
        lines = [f"Cluster {self.name} ({'dedicated' if self.dedicated else 'non-dedicated'})"]
        for node in self._nodes.values():
            lines.append(
                f"  {node.name:<12} {node.role.value:<6} {node.device.name:<14} "
                f"{node.contention.describe()}"
            )
        return "\n".join(lines)
