"""The AntDT Agent and its synchronisation mechanism.

One Agent runs on every worker node.  It has two duties (paper §V-F):

* asynchronously push application/node state to the Monitor (every
  ``report_interval_iters`` iterations, so monitoring stays minute-level
  cheap);
* receive straggler-mitigation actions from the Controller and hand them to
  the training process at an iteration boundary.

Servers run no Agent: each server records every request's handling time in
its own ``server_bpt`` series, which is the Monitor's view of it, and a
server KILL_RESTART goes through the job, not an action poll.

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

from typing import Dict, List, Tuple

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
        self._generation = 0
        self._actions: List[Tuple[int, Action]] = []
        self.report_overhead_s = 0.0
        self.sync_overhead_s = 0.0

    # -- membership -------------------------------------------------------------
    def create_agent(self, node_name: str) -> "Agent":
        """Create (and register) the agent for a worker node."""
        if node_name in self._agents:
            raise ValueError(f"an agent for {node_name!r} already exists")
        agent = Agent(node_name, self)
        self._agents[node_name] = agent
        return agent

    def agent(self, node_name: str) -> "Agent":
        """Look up the agent of a node."""
        return self._agents[node_name]

    # -- action broadcast ----------------------------------------------------------
    @property
    def generation(self) -> int:
        """Current broadcast generation (0 = nothing broadcast yet)."""
        return self._generation

    def broadcast(self, action: Action) -> int:
        """Broadcast a global action to all agents (the paper's primary
        agent relaying it to the secondaries).

        Returns the new generation number.  The training processes will apply
        the action at their next iteration boundary via :meth:`Agent.poll`.
        """
        self._generation += 1
        self._actions.append((self._generation, action))
        return self._generation

    def actions_since(self, generation: int) -> List[Tuple[int, Action]]:
        """All broadcast actions with generation greater than ``generation``."""
        return [(gen, action) for gen, action in self._actions if gen > generation]

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

    def __init__(self, node_name: str, group: AgentGroup) -> None:
        self.node_name = node_name
        self.group = group
        self.applied_generation = 0
        self._iterations_since_report = 0
        self._bpt_buffer: List[float] = []
        self._last_batch_size = 0

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
        self.group.monitor.report_worker(self.node_name, mean_bpt,
                                         max(self._last_batch_size, 1), time)
        self._bpt_buffer = []
        self._iterations_since_report = 0
        return self.group.charge_report()

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
