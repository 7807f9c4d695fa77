"""Exception types shared across the package.

The CLI maps these to exit codes: input problems exit 2, degree budget
exhaustion exits 3, property violations exit 1.  An internal check that
fails raises AssertionError or RuntimeError instead, never one of these
input errors, and exits 4.
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
