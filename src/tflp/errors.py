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
"""

__all__ = ["ParameterError", "ToleranceError"]


class ParameterError(ValueError):
    """A parameter or input is outside its documented domain."""


class ToleranceError(RuntimeError):
    """A numeric tolerance, truncation or size budget could not be met."""
