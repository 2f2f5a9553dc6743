"""Exception hierarchy shared across the package."""

from __future__ import annotations


class HgmetaError(Exception):
    """Base class for all package errors."""


class ContractError(HgmetaError):
    """A caller violated an operation's precondition (bad shape, range, ...)."""


class NumericsError(HgmetaError):
    """A tensor operation produced NaN/Inf or was fed non-finite data.

    ``op`` and ``shape`` name the primitive and the shape of the output it
    produced; both are None for a failure that no primitive's output shows.
    """

    def __init__(self, message: str, op: str | None = None, shape: tuple[int, ...] | None = None):
        super().__init__(message)
        self.op = op
        self.shape = shape


class OracleError(HgmetaError):
    """The finite-difference oracle could not evaluate the target function."""


class DataError(HgmetaError):
    """Dataset ingestion or validation failure with a machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class ConfigError(HgmetaError):
    """Run configuration is malformed or contains unknown keys."""


class TrainingError(HgmetaError):
    """Training aborted (non-finite loss, gradient, or parameter).

    ``phase`` names where: ``probe``, ``meta`` or ``commit`` of step
    ``step``, or the ``evaluate`` that follows the last step. ``primitive``
    and ``shape`` name the tensor primitive whose output was not finite, and
    that output's shape; both are None when a check of the trainer's own
    failed instead.
    """

    def __init__(
        self,
        message: str,
        step: int,
        phase: str,
        state=None,
        primitive: str | None = None,
        shape: tuple[int, ...] | None = None,
    ):
        super().__init__(f"step {step}, {phase}: {message}")
        self.step = step
        self.phase = phase
        self.state = state
        self.primitive = primitive
        self.shape = shape
