"""Exception types shared across the package, and `quote`, the one way an
error message shows the input it refuses.

The CLI maps these to exit codes: InputError, NonMonicError and
IsotrivialModuleError exit 2, as input errors (so does
gf.ResidueFieldError), and degree budget exhaustion exits 3.  An internal
check that fails raises AssertionError or RuntimeError, never one of these,
and exits 4 like every other exception, also inside a `verify` check, where
only verify.CheckFailure is a property violation (exit 1).
"""

# an error message shows at most this many characters of a refused input
QUOTE_CHARS = 60


def quote(text, render=repr):
    """render(text) for an error message; a text longer than QUOTE_CHARS is
    cut to its first QUOTE_CHARS characters, and its length is said."""
    if len(text) <= QUOTE_CHARS:
        return render(text)
    return "%s (first %d of %d characters)" % (
        render(text[:QUOTE_CHARS]), QUOTE_CHARS, len(text))


class InputError(ValueError):
    """A malformed input, such as a push past ratfunc.MAX_DEGREE."""


class NonMonicError(ValueError):
    """Reduction and height theory need a monic module (a_r = 1)."""


class MonicizeError(ValueError):
    """No conjugating gamma exists in K; carries the obstruction."""


class IsotrivialModuleError(ValueError):
    """The operation requires positive relative modular transcendence degree."""


class BudgetExhaustedError(RuntimeError):
    """The degree budget (heights.DEGREE_CAP) stopped the building of
    iterates before a certificate was reached: those a local height builds
    at a tie of the valuation law that the walk cannot pass (one whose
    leading residue is 0, or one at a place whose residue field is past
    gf.ORDER_CAP), up to the one after the tie, or those of the key
    dichotomy's branch 2.  A local height keeps such an answer as
    a sound interval; this is raised by the callers that need an exact
    value: HeightValue.value, heights.check_t2mwg,
    perfect.key_dichotomy_check and perfect.lehper_check."""
