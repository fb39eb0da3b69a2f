"""The AntDT Agent and its synchronisation mechanism.

One Agent runs on every worker and server node.  It has two duties
(paper §V-F):

* asynchronously push application/node state to the Monitor (every
  ``report_interval_iters`` iterations, so monitoring stays minute-level
  cheap);
* receive straggler-mitigation actions from the Controller and hand them to
  the training process at an iteration boundary.

Global actions (ADJUST_BS, BACKUP_WORKERS, ADJUST_LR) must be applied by all
workers in the same iteration.  The Controller sends the action to the
*primary* agent, the primary broadcasts it to the secondaries, and every
training process picks it up at its next local barrier.  In the simulation the
broadcast is represented by a shared, monotonically increasing *generation*
number on the :class:`AgentGroup`; each agent tracks the last generation it
applied, and the per-poll synchronisation cost is charged to the training
loop and accounted as framework overhead (paper Fig. 18).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .actions import Action
from .config import AntDTConfig
from .monitor import Monitor

__all__ = ["Agent", "AgentGroup"]


class AgentGroup:
    """Shared coordination state for all agents of one training job."""

    def __init__(self, monitor: Monitor, config: AntDTConfig) -> None:
        self.monitor = monitor
        self.config = config
        self._agents: Dict[str, "Agent"] = {}
        self._primary: Optional[str] = None
        self._generation = 0
        self._actions: List[Tuple[int, Action]] = []
        self.report_overhead_s = 0.0
        self.sync_overhead_s = 0.0

    # -- membership -------------------------------------------------------------
    def create_agent(self, node_name: str, is_worker: bool = True) -> "Agent":
        """Create (and register) the agent for a node.

        The first registered agent becomes the primary, mirroring the paper's
        randomly elected primary worker.
        """
        if node_name in self._agents:
            raise ValueError(f"an agent for {node_name!r} already exists")
        agent = Agent(node_name, self, is_worker=is_worker)
        self._agents[node_name] = agent
        if self._primary is None:
            self._primary = node_name
        return agent

    @property
    def primary(self) -> Optional[str]:
        """Name of the primary agent."""
        return self._primary

    @property
    def agents(self) -> List["Agent"]:
        """All registered agents."""
        return list(self._agents.values())

    def agent(self, node_name: str) -> "Agent":
        """Look up the agent of a node."""
        return self._agents[node_name]

    # -- action broadcast ----------------------------------------------------------
    @property
    def generation(self) -> int:
        """Current broadcast generation (0 = nothing broadcast yet)."""
        return self._generation

    def broadcast(self, action: Action) -> int:
        """Broadcast a global action from the primary agent to all agents.

        Returns the new generation number.  The training processes will apply
        the action at their next iteration boundary via :meth:`Agent.poll`.
        """
        self._generation += 1
        self._actions.append((self._generation, action))
        return self._generation

    def actions_since(self, generation: int) -> List[Tuple[int, Action]]:
        """All broadcast actions with generation greater than ``generation``."""
        return [(gen, action) for gen, action in self._actions if gen > generation]

    @property
    def action_history(self) -> List[Action]:
        """Every global action broadcast so far, in order."""
        return [action for _, action in self._actions]

    # -- overhead accounting ----------------------------------------------------------
    def charge_report(self) -> float:
        """Account for one agent report to the Monitor; returns the charge."""
        self.report_overhead_s += self.config.agent_sync_overhead_s
        return self.config.agent_sync_overhead_s

    def charge_sync(self) -> float:
        """Account for one local-barrier synchronisation; returns the charge."""
        self.sync_overhead_s += self.config.agent_sync_overhead_s
        return self.config.agent_sync_overhead_s

    @property
    def total_overhead_s(self) -> float:
        """Total agent-side synchronisation overhead accumulated so far."""
        return self.report_overhead_s + self.sync_overhead_s


class Agent:
    """The per-node agent process (modelled as a passive helper object)."""

    def __init__(self, node_name: str, group: AgentGroup, is_worker: bool = True) -> None:
        self.node_name = node_name
        self.group = group
        self.is_worker = is_worker
        self.applied_generation = 0
        self._iterations_since_report = 0
        self._bpt_buffer: List[float] = []
        self._last_batch_size = 0

    @property
    def is_primary(self) -> bool:
        """Whether this agent is the primary of its group."""
        return self.group.primary == self.node_name

    # -- reporting path ---------------------------------------------------------------
    def report_iteration(self, bpt: float, batch_size: int, time: float) -> float:
        """Record one finished iteration; forward to the Monitor periodically.

        Returns the wall-clock overhead (seconds) the training process should
        pay for this call: zero between reports, one report charge every
        ``report_interval_iters`` iterations.
        """
        self._bpt_buffer.append(float(bpt))
        self._last_batch_size = int(batch_size)
        self._iterations_since_report += 1
        if self._iterations_since_report < self.group.config.report_interval_iters:
            return 0.0
        return self.flush(time)

    def flush(self, time: float) -> float:
        """Flush buffered iteration statistics to the Monitor."""
        if not self._bpt_buffer:
            return 0.0
        mean_bpt = sum(self._bpt_buffer) / len(self._bpt_buffer)
        if self.is_worker:
            self.group.monitor.report_worker(self.node_name, mean_bpt,
                                             max(self._last_batch_size, 1), time)
        else:
            self.group.monitor.report_server(self.node_name, mean_bpt, time)
        self._bpt_buffer = []
        self._iterations_since_report = 0
        return self.group.charge_report()

    def report_server_request(self, handling_time: float, time: float) -> float:
        """Server-side convenience: report per-request handling time."""
        return self.report_iteration(handling_time, 1, time)

    def snapshot_report_state(self) -> Tuple[List[float], int, int]:
        """Capture the buffered reporting state for a coalesced commit.

        A server that eagerly commits a window of future report decisions
        snapshots this state first, so a rescinded window can be rewound
        with :meth:`restore_report_state` and replayed.
        """
        return (list(self._bpt_buffer), self._iterations_since_report,
                self._last_batch_size)

    def restore_report_state(self, state: Tuple[List[float], int, int]) -> None:
        """Rewind the buffered reporting state to a prior snapshot."""
        buffer, since_report, last_batch = state
        self._bpt_buffer = list(buffer)
        self._iterations_since_report = since_report
        self._last_batch_size = last_batch

    # -- action path ---------------------------------------------------------------------
    def poll(self) -> Tuple[List[Action], float]:
        """Fetch actions broadcast since this agent last applied one.

        Returns the list of actions (oldest first) and the synchronisation
        overhead to charge to the training loop (zero when there is nothing
        new — polling shared state is free; the local barrier is only needed
        when an action actually has to be applied).
        """
        group = self.group
        if group.generation == self.applied_generation:
            # Nothing broadcast since the last application — by far the common
            # case, checked without building the actions_since list (poll runs
            # once per worker iteration).
            return [], 0.0
        pending = group.actions_since(self.applied_generation)
        if not pending:
            return [], 0.0
        self.applied_generation = pending[-1][0]
        overhead = self.group.charge_sync()
        return [action for _, action in pending], overhead

    def reset_after_restart(self) -> None:
        """Called when the node is relaunched: clear buffered state.

        The new pod keeps the applied generation (it reads the latest global
        action from the primary when it rejoins), so no stale action replays.
        """
        self._bpt_buffer = []
        self._iterations_since_report = 0
        self.applied_generation = self.group.generation
