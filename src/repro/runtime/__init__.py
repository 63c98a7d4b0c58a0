"""The distributed runtime (Section 5): hosts, tokens, ICS, network."""

from .attacks import Adversary, AttackReport
from .checkpoint import Checkpoint, CheckpointTamperError, DurableStore
from .faults import CrashPointInjector, FaultInjector, FaultPolicy, RetryPolicy
from .faultsweep import (
    CrashSweepReport,
    SweepReport,
    crash_point_sweep,
    random_policy,
    sweep,
)
from .host import HaltSignal, TrustedHost
from .ics import LocalStack
from .session import (
    ExecutionResult,
    RuntimeImage,
    Session,
    SessionPool,
    run_split_program,
)
from .network import (
    CostModel,
    DeliveryTimeoutError,
    Message,
    SecurityAbort,
    SimNetwork,
)
from .singlehost import SingleHostInterpreter, run_single_host
from .storage import (
    SessionStorage,
    StorageError,
    StorageUnavailableError,
    TransientStorageError,
    rehydrate_session,
)
from .tokens import Token, TokenFactory, forged_token
from .values import FrameID, ObjectRef, ReturnInfo

__all__ = [
    "Adversary",
    "AttackReport",
    "Checkpoint",
    "CheckpointTamperError",
    "DurableStore",
    "ExecutionResult",
    "run_split_program",
    "CrashPointInjector",
    "FaultInjector",
    "FaultPolicy",
    "RetryPolicy",
    "CrashSweepReport",
    "SweepReport",
    "crash_point_sweep",
    "random_policy",
    "sweep",
    "HaltSignal",
    "TrustedHost",
    "LocalStack",
    "RuntimeImage",
    "Session",
    "SessionPool",
    "CostModel",
    "DeliveryTimeoutError",
    "Message",
    "SecurityAbort",
    "SimNetwork",
    "SingleHostInterpreter",
    "run_single_host",
    "SessionStorage",
    "StorageError",
    "StorageUnavailableError",
    "TransientStorageError",
    "rehydrate_session",
    "Token",
    "TokenFactory",
    "forged_token",
    "FrameID",
    "ObjectRef",
    "ReturnInfo",
]
