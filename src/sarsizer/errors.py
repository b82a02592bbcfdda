"""Exception types shared across the toolkit."""


class SarSizerError(Exception):
    """Base class for all toolkit errors."""


class BoundsError(SarSizerError):
    """A design variable is outside its configured [lo, hi] range."""


class SpecError(SarSizerError):
    """Invalid resolution/scaling inputs, or mismatched spec vs. model."""


class PlanError(SarSizerError):
    """No valid coherent test plan exists for the requested parameters."""


class MetricsError(SarSizerError):
    """Spectrum metrics cannot be computed (e.g. dead signal bin)."""


class ConfigError(SarSizerError):
    """Invalid run configuration or optimizer parameters."""


def require(ok: bool, name: str, rule: str, value) -> None:
    """Raise ConfigError naming a parameter whose value breaks its rule."""
    if not ok:
        raise ConfigError(f"{name} must be {rule}, got {value!r}")
