"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A configuration value is invalid or inconsistent."""


class DimensionError(ValueError):
    """Array arguments have incompatible or unsupported shapes."""


class DegenerateInputError(ValueError):
    """Structurally valid input that is numerically degenerate (e.g. zero variance)."""


class TrainingDivergenceError(RuntimeError):
    """Autoencoder training produced a non-finite loss."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"training loss became non-finite at epoch {epoch}")
