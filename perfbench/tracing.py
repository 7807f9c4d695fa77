"""Per-layer tracing from outside the library.

The tracer wraps public functions and methods of drinheights after import,
in every namespace that binds them (`places` and `drinfeld` import `factor`
by name, `gf` calls `_polycore.*` through the module, `ExtensionField` has
its own `poly_*` methods).  The kernel is wrapped at its dispatch boundary,
`_polycore`; calls the backend makes to itself (gcd -> mod) stay inside that
span, so counts do not depend on which backend is active.

Each call records a span (name, start, end, parent) in flat arrays; they are
written out when the run ends.  Aggregates are kept as the run goes:
`calls`, `busy_s` (time inside the outermost span of that name) and
`self_s` (duration minus the time its child spans cover), plus the extra
counts listed in TARGETS.  Metric names are
`<module>.<function>[.<bucket>].<quantity>`; kernel buckets are small
(n <= 64), mid (n <= 1024) and large, with n the longest operand.
"""

import json
import sys
import time
from array import array

BUCKETS = ("small", "mid", "large")
KERNEL = ("poly_mul", "poly_divmod", "poly_gcd", "poly_powmod")

# (label, module, attribute, class or None, quantities)
TARGETS = (
    [("polycore." + f, "drinheights._polycore", f, None, ("calls", "busy_s"))
     for f in KERNEL]
    + [("gf.ext_" + f, "drinheights.gf", f, "ExtensionField", ("calls", "busy_s"))
       for f in KERNEL]
    + [
        ("ratfunc.factor", "drinheights.ratfunc", "factor", None,
         ("calls", "busy_s", "self_s")),
        ("ratfunc.is_irreducible", "drinheights.ratfunc", "is_irreducible",
         None, ("calls", "busy_s")),
        ("heights.local_height", "drinheights.heights", "local_height", None,
         ("calls", "busy_s", "self_s", "steps", "escaped", "good_reduction",
          "torsion_certified", "exhausted")),
        ("heights.check_t2mwg", "drinheights.heights", "check_t2mwg", None,
         ("calls", "busy_s")),
        ("skew.SkewPoly.__call__", "drinheights.skew", "__call__", "SkewPoly",
         ("calls", "busy_s", "self_s")),
        ("torsion.annihilator_bound", "drinheights.torsion",
         "annihilator_bound", None, ("calls", "busy_s")),
        ("torsion.kernel_in_K", "drinheights.torsion", "kernel_in_K", None,
         ("calls", "busy_s")),
        ("torsion.torsion_enumerate", "drinheights.torsion",
         "torsion_enumerate", None, ("calls", "busy_s")),
        ("torsion.annihilator_of", "drinheights.torsion", "annihilator_of",
         None, ("calls", "busy_s", "torsion_found")),
        ("gf.rref", "drinheights.gf", "rref", None, ("calls", "busy_s")),
        ("gf.additive_kernel", "drinheights.gf", "additive_kernel", None,
         ("calls", "busy_s")),
        ("drinfeld.reduction_data", "drinheights.drinfeld", "reduction_data",
         "DrinfeldModule", ("calls", "busy_s")),
        ("drinfeld.act", "drinheights.drinfeld", "act", "DrinfeldModule",
         ("calls", "busy_s")),
        ("places.support", "drinheights.places", "support", None,
         ("calls", "busy_s")),
        ("places.extend_places", "drinheights.places", "extend_places", None,
         ("calls", "busy_s")),
        ("perfect.InsepLevel", "drinheights.perfect", "__init__", "InsepLevel",
         ("calls", "busy_s")),
        ("perfect.key_dichotomy_check", "drinheights.perfect",
         "key_dichotomy_check", None, ("calls", "busy_s")),
        ("perfect.lehper_check", "drinheights.perfect", "lehper_check", None,
         ("calls", "busy_s")),
        ("cli.main", "drinheights.cli", "main", None,
         ("calls", "busy_s", "self_s")),
    ])

# modules whose own bindings stay unwrapped: the kernel backends
BACKENDS = ("drinheights._purepoly", "drinheights._fastpoly")

CERTIFICATES = {"Escaped": "escaped", "GoodReductionIntegral": "good_reduction",
                "TorsionCertified": "torsion_certified",
                "IterationBudgetExhausted": "exhausted"}

# quantities that are counts: they must repeat exactly for one seed
COUNTS = ("calls", "coeff_ops", "steps", "escaped", "good_reduction",
          "torsion_certified", "exhausted", "torsion_found")


def metric_names():
    """Every per-layer metric the traced run reports, in a fixed order."""
    out = []
    for label, _, attr, _, quantities in TARGETS:
        if label.startswith("polycore."):
            for b in BUCKETS:
                out += ["%s.%s.%s" % (label, b, qn) for qn in quantities]
                if attr in ("poly_mul", "poly_divmod"):
                    out.append("%s.%s.coeff_ops" % (label, b))
        else:
            out += ["%s.%s" % (label, qn) for qn in quantities]
    return out


def unit_of(name):
    return "s" if name.endswith("_s") else "count"


def _bucket(n):
    return "small" if n <= 64 else "mid" if n <= 1024 else "large"


class Tracer:
    """Span recorder; not thread-safe (the benchmark runs one thread)."""

    MAX_SPANS = 4_000_000

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("I")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.stack = []
        self.active = {}          # name -> nesting depth
        self.values = dict.fromkeys(metric_names(), 0)
        self.patched = []

    def _name_id(self, name):
        i = self.name_ids.get(name)
        if i is None:
            i = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def span(self, name, fn, args, kwargs, self_time):
        """Call fn inside a span; the span's slot is taken when it opens."""
        idx = len(self.span_start)
        if idx < self.MAX_SPANS:
            self.span_name.append(self._name_id(name))
            self.span_parent.append(self.stack[-1][0] if self.stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            idx = -1
            self.dropped += 1
        frame = [idx, 0.0]        # span index, time covered by child spans
        self.stack.append(frame)
        depth = self.active.get(name, 0)
        self.active[name] = depth + 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.active[name] = depth
            dur = end - start
            v = self.values
            v[name + ".calls"] += 1
            if not depth:
                v[name + ".busy_s"] += dur
            if self_time:
                v[name + ".self_s"] += dur - frame[1]
            if self.stack:
                self.stack[-1][1] += dur
            if idx >= 0:
                self.span_start[idx] = start
                self.span_end[idx] = end

    # --- wrappers ---

    def _kernel_wrapper(self, label, fn):
        tracer = self
        counted = label.rsplit(".", 1)[1] in ("poly_mul", "poly_divmod")
        is_powmod = label.endswith("poly_powmod")
        is_div = label.endswith("poly_divmod")

        def wrapper(*args, **kwargs):
            if is_powmod:
                n = len(args[2])
            else:
                n = max(len(args[0]), len(args[1]))
            name = "%s.%s" % (label, _bucket(n))
            if counted:
                la, lb = len(args[0]), len(args[1])
                ops = (la - lb + 1) * lb if is_div else la * lb
                tracer.values[name + ".coeff_ops"] += max(ops, 0)
            return tracer.span(name, fn, args, kwargs, False)
        return wrapper

    def _plain_wrapper(self, label, fn, quantities):
        tracer = self
        self_time = "self_s" in quantities

        def wrapper(*args, **kwargs):
            result = tracer.span(label, fn, args, kwargs, self_time)
            if label == "heights.local_height":
                v = tracer.values
                v[label + ".steps"] += result.step or 0
                v["%s.%s" % (label, CERTIFICATES[result.certificate])] += 1
            elif label == "torsion.annihilator_of" and result is not None:
                tracer.values[label + ".torsion_found"] += 1
            return result
        return wrapper

    def install(self):
        """Wrap every target in every drinheights namespace binding it."""
        mods = [m for name, m in sorted(sys.modules.items())
                if name.startswith("drinheights") and m is not None
                and name not in BACKENDS]
        for label, modname, attr, cls_name, quantities in TARGETS:
            owner = sys.modules[modname]
            if cls_name is not None:
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[attr]
                setattr(cls, attr, self._plain_wrapper(label, fn, quantities))
                self.patched.append((cls, attr, fn))
                continue
            fn = getattr(owner, attr)
            if label.startswith("polycore."):
                wrapper = self._kernel_wrapper(label, fn)
            else:
                wrapper = self._plain_wrapper(label, fn, quantities)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
                        self.patched.append((m, key, fn))

    def uninstall(self):
        for owner, key, fn in reversed(self.patched):
            setattr(owner, key, fn)
        self.patched = []

    def write(self, path):
        """Spans as flat binary arrays plus a JSON header naming them."""
        with open(path + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)
        header = {"count": len(self.span_start), "dropped": self.dropped,
                  "names": self.names,
                  "arrays": [["name", "I", self.span_name.itemsize],
                             ["parent", "q", 8], ["start", "d", 8],
                             ["end", "d", 8]]}
        with open(path + ".json", "w") as fh:
            json.dump(header, fh)
