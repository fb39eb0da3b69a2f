"""Parameter Server training architecture on the simulated cluster."""

from .backend import NumpyPSBackend
from .barrier import BSPBarrier
from .config import PSJobConfig
from .job import PSRunResult, PSTrainingJob
from .server import ParameterServer, PushRequest
from .worker import PSWorker

__all__ = [
    "BSPBarrier",
    "NumpyPSBackend",
    "PSJobConfig",
    "PSRunResult",
    "PSTrainingJob",
    "PSWorker",
    "ParameterServer",
    "PushRequest",
]
