"""Exception types shared across the toolkit, and the exact read of the
binary file readers."""


class DimensionError(ValueError):
    """Operands have incompatible shapes."""


class ConfigError(ValueError):
    """A configuration value is invalid or inconsistent."""


class FormatError(RuntimeError):
    """A persisted file is malformed (bad magic, version, or truncation)."""


class NumericalError(ArithmeticError):
    """A computation produced NaN/Inf or otherwise left the finite domain."""


class ScoreError(ValueError):
    """A relevance score cannot be computed for this sample (e.g. empty mask)."""


class UsageError(ValueError):
    """The command line or a config file was used incorrectly."""


def read_exact(f, n: int, what: str, kind: str) -> bytes:
    """The next `n` bytes of `f`; a short read is a FormatError naming the
    file `kind` and `what` was being read."""
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated {kind} file while reading {what}")
    return buf
