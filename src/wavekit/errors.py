"""Exception types used throughout wavekit, and its one numeric rule."""

import math
from numbers import Integral, Real


class WavekitError(Exception):
    """Base class for all wavekit errors."""


class InvalidInputError(WavekitError):
    """Raised when an argument violates a documented precondition."""


class ConfigError(WavekitError):
    """Raised when a run configuration file is missing, malformed, or invalid."""


class OutputError(WavekitError):
    """Raised when result files cannot be written."""


def check_number(name: str, value, *, positive=False, minimum=None, maximum=None,
                 integer=False):
    """value as a finite float (an int if integer), else InvalidInputError naming it.

    A number is a Python or numpy real but not a bool, not finite beyond the
    float range; an integer is a Python or numpy int (not an integral float) of
    any size.  positive demands value > 0; minimum and maximum are inclusive.
    """
    if isinstance(value, bool) or not isinstance(value, Integral if integer else Real):
        raise InvalidInputError(f"{name} must be {'an integer' if integer else 'a number'}")
    try:
        value = int(value) if integer else float(value)
    except OverflowError:
        value = math.inf
    if not -math.inf < value < math.inf:  # NaN fails both comparisons
        raise InvalidInputError(f"{name} must be finite")
    if positive and value <= 0:
        raise InvalidInputError(f"{name} must be positive")
    if minimum is not None and value < minimum:
        raise InvalidInputError(f"{name} must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise InvalidInputError(f"{name} must be <= {maximum}")
    return value
