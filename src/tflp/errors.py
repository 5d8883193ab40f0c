"""Error taxonomy shared by the library and the command line front end.

This module holds every exception class of the package.  The CLI maps
exception families, not individual classes, to its exit codes:

  * ToleranceError (a numeric tolerance, truncation or size budget
    could not be met) and ArithmeticError (overflow or division by zero
    in a closed form) exit 3;
  * ValueError (ParameterError and the plain ValueError that module
    code raises for parameter misuse) and OSError (a file could not be
    read or written) exit 2.

Exit 1 is reserved for a verification battery that ran and failed.

MAX_CELLS is the one size budget: the most fine cells a simulation, points
a --range, or expected jumps or sub-step draws a driver sampler may use.
check_budget raises ToleranceError over it, before anything is allocated
or drawn.
"""

__all__ = ["ParameterError", "ToleranceError"]

# at 2**24 fine cells the FFT buffers of one simulation take about 1 GB
MAX_CELLS = 2 ** 24


class ParameterError(ValueError):
    """A parameter or input is outside its documented domain."""


class ToleranceError(RuntimeError):
    """A numeric tolerance, truncation or size budget could not be met."""


def check_budget(count, what):
    """Raise ToleranceError when count, of what, exceeds MAX_CELLS."""
    if not count <= MAX_CELLS:
        raise ToleranceError(f"{what} ({count:.4g}) exceed the budget of {MAX_CELLS}")
