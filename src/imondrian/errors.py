"""Exception types shared across the package.

All data-shape problems derive from ValueError so that callers who do not
care about the distinction can catch a single base class; the CLI maps the
concrete types to distinct exit codes.
"""


class DimensionMismatchError(ValueError):
    """Point dimensionality does not match the structure it is used with."""


class StratificationError(ValueError):
    """A stratified partition is infeasible (too few anomalies for the stages)."""


class DataFormatError(ValueError):
    """A dataset file could not be parsed; message carries row/column context."""


class ModelFormatError(RuntimeError):
    """A persisted model file is unreadable: bad magic, version, or checksum."""
