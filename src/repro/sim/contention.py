"""Resource-contention and straggler-injection models.

The paper cannot control naturally occurring stragglers, so its evaluation
injects synthetic straggler patterns following FlexRR: a sleep of
``SleepDuration × Intensity`` seconds is added to the batch processing time of
an affected node, either in bursts (transient stragglers) or for the whole job
(persistent stragglers).  Deterministic stragglers come from hardware
heterogeneity and are modelled as a constant slowdown factor.

Every model exposes two hooks used by the node compute loop:

* :meth:`ContentionModel.extra_delay` — additive seconds of delay for an
  iteration starting at simulation time ``now``.
* :meth:`ContentionModel.slowdown` — multiplicative factor applied to the
  compute time (1.0 means no slowdown).

Models are deterministic given their ``numpy`` random generator, so every
experiment is reproducible from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

__all__ = [
    "ContentionModel",
    "NoContention",
    "ConstantContention",
    "PeriodicContention",
    "RandomContention",
    "DeterministicSlowdown",
    "CompositeContention",
]


class ContentionModel:
    """Base class for contention models.

    Subclasses override :meth:`extra_delay` and/or :meth:`slowdown`.
    """

    #: True only for models that never delay nor slow a node.  The node timing
    #: hot path skips both model calls for such nodes — in a large cluster the
    #: vast majority of nodes are uncontended.
    is_null: bool = False

    #: True for models whose ``extra_delay``/``slowdown`` depend only on
    #: ``now`` — never on the random generator.  Deterministic models allow a
    #: server to pre-compute a whole window of handling times closed-form
    #: (cohort coalescing); models that consume the per-node RNG must be
    #: stepped request-by-request so the draw order stays byte-identical.
    is_deterministic: bool = False

    def extra_delay(self, now: float, rng: np.random.Generator) -> float:
        """Additional seconds added to the iteration starting at ``now``."""
        return 0.0

    def slowdown(self, now: float) -> float:
        """Multiplicative slowdown applied to the compute time at ``now``."""
        return 1.0

    def describe(self) -> str:
        """Short human-readable description used in experiment reports."""
        return type(self).__name__


class NoContention(ContentionModel):
    """A leader node: no contention at all."""

    is_null = True
    is_deterministic = True


@dataclass
class ConstantContention(ContentionModel):
    """Persistent straggler: a constant delay on every iteration.

    The paper's persistent-straggler pattern sets ``Tdelay`` to four seconds
    from the start to the end of training.
    """

    delay_seconds: float

    is_deterministic = True

    def __post_init__(self) -> None:
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be non-negative")

    def extra_delay(self, now: float, rng: np.random.Generator) -> float:
        return self.delay_seconds

    def describe(self) -> str:
        return f"persistent(delay={self.delay_seconds}s)"


@dataclass
class PeriodicContention(ContentionModel):
    """Transient straggler: bursts of delay on a periodic schedule.

    The paper inserts delays lasting ``active_duration`` (15 minutes) every
    ``period`` (30 minutes).  During an active window each iteration is
    delayed by ``sleep_duration * intensity`` seconds.

    Attributes
    ----------
    sleep_duration:
        The FlexRR ``SleepDuration`` parameter in seconds.
    intensity:
        Straggler intensity in [0, 1].
    period:
        Length of the repetition cycle in seconds.
    active_duration:
        How long the burst lasts within each cycle, in seconds.
    phase:
        Offset of the first burst within the cycle, in seconds.
    """

    sleep_duration: float
    intensity: float
    period: float = 1800.0
    active_duration: float = 900.0
    phase: float = 0.0

    is_deterministic = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError("intensity must lie in [0, 1]")
        if self.sleep_duration < 0:
            raise ValueError("sleep_duration must be non-negative")
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not 0.0 <= self.active_duration <= self.period:
            raise ValueError("active_duration must lie in [0, period]")

    def is_active(self, now: float) -> bool:
        """True when ``now`` falls inside a contention burst."""
        position = (now + self.phase) % self.period
        return position < self.active_duration

    def extra_delay(self, now: float, rng: np.random.Generator) -> float:
        if not self.is_active(now):
            return 0.0
        return self.sleep_duration * self.intensity

    def describe(self) -> str:
        return (
            f"transient(sleep={self.sleep_duration}s, intensity={self.intensity}, "
            f"active={self.active_duration:.0f}/{self.period:.0f}s)"
        )


@dataclass
class RandomContention(ContentionModel):
    """Background noise from co-located workloads.

    Each iteration independently suffers an exponential delay with probability
    ``probability``.  Used to make the non-dedicated traces of Fig. 1 look like
    the paper's jittery production curves rather than clean step functions.
    """

    probability: float = 0.1
    mean_delay: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        if self.mean_delay < 0:
            raise ValueError("mean_delay must be non-negative")

    def extra_delay(self, now: float, rng: np.random.Generator) -> float:
        if self.probability == 0.0 or rng.random() >= self.probability:
            return 0.0
        return float(rng.exponential(self.mean_delay))

    def describe(self) -> str:
        return f"noise(p={self.probability}, mean={self.mean_delay}s)"


@dataclass
class DeterministicSlowdown(ContentionModel):
    """Deterministic straggler caused by hardware heterogeneity/deterioration.

    A factor of 3.0 means the node computes three times slower than its
    device profile (the paper's example: P100 vs V100, or an old CPU series).
    """

    factor: float

    is_deterministic = True

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError("slowdown factor must be >= 1.0")

    def slowdown(self, now: float) -> float:
        return self.factor

    def describe(self) -> str:
        return f"deterministic(x{self.factor})"


class CompositeContention(ContentionModel):
    """Combination of several contention models.

    Delays add up; slowdown factors multiply.  Used, for instance, to model a
    node that is both on older hardware and occasionally disturbed by
    co-located jobs.
    """

    def __init__(self, models: Sequence[ContentionModel]) -> None:
        self.models: List[ContentionModel] = list(models)
        self.is_deterministic = all(model.is_deterministic for model in self.models)

    def extra_delay(self, now: float, rng: np.random.Generator) -> float:
        return sum(model.extra_delay(now, rng) for model in self.models)

    def slowdown(self, now: float) -> float:
        factor = 1.0
        for model in self.models:
            factor *= model.slowdown(now)
        return factor

    def describe(self) -> str:
        return " + ".join(model.describe() for model in self.models) or "none"
