"""Exception types shared across the package."""


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


class OracleInconclusiveError(RuntimeError):
    """The exhaustive oracle exceeded its node budget before finishing."""


class BackendError(RuntimeError):
    """A solver backend failed or is unavailable."""


class ConfigError(ValueError):
    """A run configuration failed schema validation."""
