"""Simulation-safety rules (SIM001-SIM002).

The discrete-event engine has a narrow, deliberate public surface:
processes are generators that *yield* events, and a
:class:`repro.sim.engine.Store` channel is driven through ``put``/``get``
only.  A component that needs more than that (the parameter server's
backlog, for one) owns its queue instead of borrowing a ``Store``'s.  Code
that re-enters the run loop from inside a process or reaches into the event
heap / store deques directly can deadlock the scheduler or silently break
the exactly-once ledgers — these rules make both patterns visible at
authoring time.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from .findings import Finding
from .registry import Rule, RuleContext, node_parent, register

#: The engine itself (and the frozen seed-engine perf snapshot) implement
#: the internals; everything else must go through the public API.
_ENGINE_WHITELIST = (
    "repro/sim/engine.py",
    "repro/perf/seed_engine.py",
)

#: Environment internals: the event heap and run-loop bookkeeping.
_ENV_INTERNALS = frozenset({"_queue", "_eid", "_dead"})

#: Store internals: the item/getter deques and dispatch machinery.
_STORE_INTERNALS = frozenset({"_getters", "_dispatch", "_confirmation"})

#: Receiver name fragments that identify a Store-like object for the
#: ``.items`` check (a bare ``.items`` attribute on anything else is almost
#: always a dict view method being referenced, which ``.items()`` handles).
_STORE_RECEIVER_HINTS = ("queue", "store")

_ENV_RECEIVER_NAMES = frozenset({"env", "environment"})
_ENV_RECEIVER_ATTRS = frozenset({"env", "environment", "_env"})


def _receiver_name(node: ast.Attribute) -> Optional[str]:
    """The textual name of the attribute's receiver, if simple."""
    value = node.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return None


@register
class BlockingEngineCallRule(Rule):  # detlint: ignore[USE001]
    rule_id = "SIM001"
    title = "Environment.run called inside a process generator"
    rationale = ("A simulation process is a generator resumed by the run "
                 "loop; calling Environment.run from inside one re-enters "
                 "the scheduler and deadlocks or corrupts the event order — "
                 "yield the event instead.")

    def check(self, ctx: RuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body_nodes = list(self._own_nodes(node))
                if any(isinstance(n, (ast.Yield, ast.YieldFrom))
                       for n in body_nodes):
                    for call in body_nodes:
                        if self._is_engine_run(call):
                            findings.append(self.finding(
                                ctx, call,
                                "Environment.run() called inside a process "
                                "generator — yield the event instead of "
                                "re-entering the scheduler"))
        return findings

    def _own_nodes(self, func: ast.AST):
        """Walk a function body without descending into nested functions."""
        stack = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _is_engine_run(self, node: ast.AST) -> bool:
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "run"):
            return False
        value = node.func.value
        if isinstance(value, ast.Name):
            return value.id in _ENV_RECEIVER_NAMES
        if isinstance(value, ast.Attribute):
            return value.attr in _ENV_RECEIVER_ATTRS
        return False


@register
class EngineInternalsRule(Rule):  # detlint: ignore[USE001]
    rule_id = "SIM002"
    title = "direct access to engine/Store internals"
    rationale = ("The event heap and Store deques are owned by the engine; "
                 "mutating them from outside bypasses getter dispatch and "
                 "the counters the exactly-once audits rely on.  Use "
                 "put/get, or give the component a queue of its own.")

    def check(self, ctx: RuleContext) -> List[Finding]:
        if ctx.rel_matches(_ENGINE_WHITELIST):
            return []
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            receiver = _receiver_name(node)
            if receiver in ("self", "cls"):
                continue
            message = self._classify(node, receiver)
            if message is not None:
                findings.append(self.finding(ctx, node, message))
        return findings

    def _classify(self, node: ast.Attribute,
                  receiver: Optional[str]) -> Optional[str]:
        attr = node.attr
        if attr in _ENV_INTERNALS:
            return (f"direct access to Environment internal `.{attr}` — "
                    f"schedule through the public engine API")
        if attr in _STORE_INTERNALS:
            return (f"direct access to Store internal `.{attr}` — use "
                    f"put/get")
        if attr == "items" and receiver is not None:
            lowered = receiver.lower()
            if any(hint in lowered for hint in _STORE_RECEIVER_HINTS):
                # ``x.items()`` (a dict view call) is fine; a bare ``.items``
                # attribute on a queue/store receiver is the Store deque.
                parent = node_parent(node)
                if isinstance(parent, ast.Call) and parent.func is node:
                    return None
                return (f"direct access to Store `.items` deque on "
                        f"`{receiver}` — use put/get or len(store)")
        return None
