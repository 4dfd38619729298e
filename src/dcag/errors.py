"""Exception types shared across the library."""

__all__ = ["ShapeError", "ConfigError", "DegenerateInputError"]


class ShapeError(ValueError):
    """Operand shapes are inconsistent with an operation's contract."""


class ConfigError(ValueError):
    """A guidance configuration is invalid or does not match its target."""


class DegenerateInputError(ValueError):
    """Input is structurally valid but the requested quantity is undefined."""
