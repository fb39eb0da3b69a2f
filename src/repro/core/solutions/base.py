"""Base class for straggler-mitigation solutions.

A *solution* is a policy that maps the control context (window statistics,
cluster status) to a list of actions from the pre-defined action set.  The
AntDT framework handles data allocation and fault tolerance, so solutions stay
small and declarative; users customise behaviour by subclassing
:class:`Solution` and registering it with the Controller.
"""

from __future__ import annotations

from typing import List

from ..actions import Action
from ..controller import ControlContext

__all__ = ["Solution"]


class Solution:
    """Interface every straggler-mitigation solution implements."""

    #: Human-readable name used in experiment reports.
    name: str = "solution"

    def decide(self, context: ControlContext) -> List[Action]:
        """Return the actions to take for this control interval."""
        raise NotImplementedError
