"""The two errors that end a command line run, in a module that the command
line and the identity checks both import."""


class ConfigError(ValueError):
    """Invalid command line configuration; exits with status 2."""


class NumericalFailure(RuntimeError):
    """Computation failed or exceeded tolerance; exits with status 1."""
