"""Exception types shared across the package, and the integer check of inputs."""

import numpy as np


class DimensionError(ValueError):
    """Matrix or register dimensions are inconsistent."""


class MalformedEncodingError(ValueError):
    """A real matrix lacks the 2x2 block structure of R(.); nothing raises it now."""


class UnitarityError(ValueError):
    """A matrix expected to be unitary is not, within tolerance."""


class GateSetError(ValueError):
    """A gate set violates its construction contract."""


class ModelIntegrityError(RuntimeError):
    """A solver solution failed independent re-verification."""


class TargetMissError(ModelIntegrityError):
    """A word's product is not the target under the problem's phase rule."""


class OracleInconclusiveError(RuntimeError):
    """The exhaustive oracle exceeded its node budget before finishing."""


class BackendError(RuntimeError):
    """A solver backend failed or is unavailable."""


class ConfigError(ValueError):
    """A run configuration failed schema validation."""


def checked_integer(value, name: str) -> int:
    """value as an int; ConfigError for a bool or a value that is not integral
    (a string is never equal to the integer it spells)."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            if value == int(value):
                return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r:.40}")
