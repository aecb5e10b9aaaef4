"""Exception types shared across the package."""


class EmofuseError(Exception):
    """Base class for errors raised by this package."""


class ShapeError(EmofuseError):
    """Tensor or matrix shapes are incompatible for the requested operation."""


class CorpusError(EmofuseError):
    """A corpus file is missing, unreadable, or entirely malformed."""


class InventoryError(EmofuseError):
    """The emoji sense inventory is missing, malformed, or inconsistent."""


class ConfigError(EmofuseError):
    """A run configuration is missing, malformed, or internally inconsistent."""


class CheckpointError(EmofuseError):
    """A tensor container is not one, is truncated, or is otherwise malformed."""


class TrainingError(EmofuseError):
    """Training cannot proceed (degenerate inputs, invalid labels, ...)."""
