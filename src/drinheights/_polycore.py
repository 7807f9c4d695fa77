"""The dense prime-field polynomial kernel, as the rest of the package calls it.

Every F_p[x] operation goes through the five names below, which are the
functions of ``_purepoly`` themselves.  The two modules stay separate on
purpose: this one is the kernel's public boundary, where callers (``gf``)
look the functions up and where an outside profiler can wrap them, while
``_purepoly`` keeps its own unwrapped bindings, so that a call the kernel
makes to itself (gcd -> mod, powmod -> mul) counts inside the outer call
and not as a second kernel call.
"""

from drinheights._purepoly import (poly_divmod, poly_gcd, poly_mod, poly_mul,
                                   poly_powmod)


def backend_name():
    """Name of the kernel: always "python" (kept for result files that record it)."""
    return "python"
