"""The two errors that end a command line run, and the schema version of
every JSON document, which each subcommand reads here without loading
`io`.  NumericalFailure is the base of every error the package raises for
a failed computation, so the command line catches them all by one class;
this leaf module is imported by every module that defines such an
error."""

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid command line configuration; exits with status 2."""


class NumericalFailure(RuntimeError):
    """Computation failed or exceeded tolerance; exits with status 1."""
