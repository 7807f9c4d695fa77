"""Exception types shared across the package.

The CLI maps these to exit codes: NonMonicError and IsotrivialModuleError
exit 2, as input errors, and degree budget exhaustion exits 3.  An internal
check that fails raises AssertionError or RuntimeError, never one of these,
and exits 4 like every other exception.
"""


class NonMonicError(ValueError):
    """Reduction/height theory requires a monic module; monicize() first."""


class MonicizeError(ValueError):
    """No conjugating gamma exists in K; carries the obstruction."""


class IsotrivialModuleError(ValueError):
    """The operation requires positive relative modular transcendence degree."""


class BudgetExhaustedError(RuntimeError):
    """The degree budget (heights.DEGREE_CAP) ran out before a certificate
    was reached."""
