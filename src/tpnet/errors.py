"""Exception types shared across the pipeline."""


class TpnetError(Exception):
    """Base class for all library errors."""


class PanelError(TpnetError, ValueError):
    """Malformed or invalid panel input (bad record, bad header, empty data)."""


class WindowError(TpnetError, ValueError):
    """Requested aggregation window does not fit the panel's year range."""


class AxisMismatchError(TpnetError, ValueError):
    """Two matrices that must share an axis do not."""


class AllZeroError(TpnetError, ValueError):
    """An operation that needs at least one positive entry got an all-zero matrix."""


class FitError(TpnetError, RuntimeError):
    """Null-model fit failed to converge.

    Carries the last residual so callers can report how far off the fit was.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual

    def __reduce__(self):  # pickle rebuilds it from both arguments
        return type(self), (self.args[0], self.residual)


class ConfigError(TpnetError, ValueError):
    """Invalid run configuration."""


class StageError(TpnetError, RuntimeError):
    """Pipeline stage failure, tagged with the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage

    def __reduce__(self):  # pickle rebuilds it from both arguments
        return type(self), (self.stage, self.args[0].removeprefix(f"[{self.stage}] "))
