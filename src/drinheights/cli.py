"""Command-line front end: JSON jobs in, exact reports out.

A job file (or stdin with "-") carries the field, the module coefficients
and command-specific arguments:

    {"field": {"p": 3, "k": 1}, "module": {"coefficients": ["t", "1"]},
     "point": "1"}

Every number printed is an exact fraction; --json switches to a
machine-readable report with fractions rendered as strings.  Exit codes:
0 ok, 1 property violation, 2 input error, 3 iteration budget exhausted.
An expression or an inseparable level whose degree may exceed
ratfunc.MAX_DEGREE is an input error.
"""

import argparse
import json
import sys
from fractions import Fraction

from drinheights import verify as verify_mod
from drinheights.drinfeld import DrinfeldModule
from drinheights.errors import BudgetExhaustedError
from drinheights.gf import FieldError, finite_field
from drinheights.heights import (DEFAULT_N_MAX, global_height_breakdown,
                                 height_sum, lehmer_bounds, local_height,
                                 check_t2mwg)
from drinheights.perfect import InsepLevel, _lehper_at, key_dichotomy_check
from drinheights.places import FinitePlace, InfinitePlace, INFINITY
from drinheights.ratfunc import (MAX_DEGREE, ParseError, parse_poly,
                                 parse_ratfunc)
from drinheights.torsion import (annihilator_bound, annihilator_of,
                                 kernel_in_K, torsion_enumerate)


class InputError(ValueError):
    pass


def frac(x):
    if x is INFINITY:
        return "+inf"
    return str(Fraction(x))


def load_job(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError("cannot read job: %s" % exc)


def integer(value, key, minimum=None):
    """A JSON integer (not a bool) of at least `minimum`, or an InputError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError("%s must be an integer, not %s"
                         % (key, json.dumps(value)))
    if minimum is not None and value < minimum:
        raise InputError("%s must be at least %d, not %d"
                         % (key, minimum, value))
    return value


def text(value, what):
    """A JSON string, or an InputError naming `what`."""
    if not isinstance(value, str):
        raise InputError("%s must be a string, not %s"
                         % (what, json.dumps(value)))
    return value


class Job:
    """Parsed job specification."""

    def __init__(self, data, args):
        if not isinstance(data, dict):
            raise InputError("job must be a JSON object")
        self.data = data
        self.var = data.get("var", "t")
        self.ext_var = data.get("ext_var", "u")
        field_desc = data.get("field", data)
        if not isinstance(field_desc, dict) or "p" not in field_desc:
            raise InputError("job needs a field: {\"p\": ..., \"k\": ...}")
        p = integer(field_desc["p"], "p")
        k = integer(field_desc.get("k", 1), "k")
        modulus = field_desc.get("modulus")
        if modulus is not None:
            if not isinstance(modulus, list):
                raise InputError("modulus must be a list of integers")
            modulus = [integer(c, "modulus coefficient") for c in modulus]
        try:
            self.field = finite_field(p, k, modulus)
        except FieldError as exc:
            raise InputError(str(exc))
        # a command-line flag overrides the job's entry of the same name
        self.n_max = self._setting(args, "n_max", DEFAULT_N_MAX)
        self.set_level(self._setting(args, "insep_level", 0, minimum=0))
        self.seed = self._setting(args, "seed", 0)
        self.counts = self._setting(args, "counts", 500, minimum=0)

    def _setting(self, args, key, default, minimum=None):
        value = getattr(args, key)
        if value is None:
            value = self.data.get(key, default)
        return integer(value, key, minimum)

    def set_level(self, level):
        """Work over F_q(u) with t = u^(p^level), a substitution that
        multiplies every degree by p^level; refuse it above MAX_DEGREE (as
        p >= 2, every level past the bit length of MAX_DEGREE is above)."""
        p = self.field.char
        if p ** min(level, MAX_DEGREE.bit_length()) > MAX_DEGREE:
            raise InputError("insep_level %d: p^%d exceeds the cap "
                             "MAX_DEGREE = %d" % (level, level, MAX_DEGREE))
        self.level = level

    @property
    def point_var(self):
        return self.ext_var if self.level > 0 else self.var

    def module(self):
        desc = self.data.get("module", self.data)
        coeffs = desc.get("coefficients") if isinstance(desc, dict) else None
        if not coeffs or not isinstance(coeffs, list):
            raise InputError("job needs module coefficients")
        try:
            parsed = [parse_ratfunc(self.field, text(c, "a coefficient"),
                                    var=self.var)
                      for c in coeffs]
        except ParseError as exc:
            raise InputError("bad coefficient: %s" % exc)
        return DrinfeldModule(self.field, parsed)

    def point(self, key="point", var=None):
        s = self.data.get(key)
        if s is None:
            raise InputError("job needs a %r entry" % key)
        try:
            return parse_ratfunc(self.field, text(s, key),
                                 var=var or self.point_var)
        except ParseError as exc:
            raise InputError("bad point %r: %s" % (s, exc))

    def poly(self, key):
        s = self.data.get(key)
        if s is None:
            raise InputError("job needs a %r entry" % key)
        try:
            return parse_poly(self.field, text(s, key), var=self.var)
        except ParseError as exc:
            raise InputError("bad polynomial %r: %s" % (s, exc))

    def place(self):
        desc = self.data.get("place")
        if not isinstance(desc, dict):
            raise InputError("job needs a \"place\" object")
        if desc.get("kind") == "infinity":
            return InfinitePlace(self.field)
        if desc.get("kind") == "finite":
            try:
                P = parse_poly(self.field, text(desc["P"], "place P"),
                               var=self.point_var)
            except (KeyError, ParseError) as exc:
                raise InputError("bad place: %s" % exc)
            try:
                return FinitePlace(P.monic())
            except ValueError as exc:
                raise InputError(str(exc))
        raise InputError("place kind must be \"finite\" or \"infinity\"")


class Report:
    """Accumulates text lines and a JSON dict in one pass."""

    def __init__(self):
        self.lines = []
        self.data = {}

    def say(self, fmt, *args):
        self.lines.append(fmt % args if args else fmt)

    def put(self, key, value):
        self.data[key] = value

    def emit(self, as_json):
        if as_json:
            print(json.dumps(self.data, indent=2, sort_keys=True))
        else:
            print("\n".join(self.lines))


def _place_str(v, job):
    return v.to_string(job.point_var)


def _height_json(h):
    if h.is_exact:
        return {"value": frac(h.lo), "certificate": h.certificate,
                "step": h.step}
    return {"lo": frac(h.lo), "hi": frac(h.hi), "certificate": h.certificate,
            "step": h.step}


def cmd_reduction(job, rep):
    mod = job.module()
    S = mod.bad_reduction_set()
    rep.put("S", [_place_str(v, job) for v in S])
    rep.put("N_phi", mod.N_phi)
    rep.say("bad reduction set S: %s",
            "{" + ", ".join("%s (degree %d)" % (_place_str(v, job), v.degree)
                            for v in S) + "}" if S else "empty")
    rep.say("N_phi = %d, r = %d, q = %d", mod.N_phi, mod.r, mod.q)
    if not S:
        rep.say("S empty; torsion = F_q (the constants)")
        rep.put("torsion", "constants")
        return 0
    rep.put("places", [])
    for v in S:
        rd = mod.reduction_data(v)
        rep.say("")
        rep.say("at %s:", _place_str(v, job))
        rep.say("  M_v = %s, T_v = %s", frac(rd.M), frac(rd.T))
        slopes = ", ".join(frac(seg[2]) for seg in rd.newton)
        rep.say("  newton slopes: [%s]", slopes)
        rep.say("  P_v   = {%s}", ", ".join(frac(a) for a in rd.P))
        rep.say("  P'_v  = {%s}", ", ".join(frac(a) for a in rd.Pp))
        rep.say("  P''_v = {%s}", ", ".join(frac(a) for a in rd.Ppp))
        rep.say("  Q_v   = {%s}", ", ".join(frac(a) for a in rd.Q))
        for alpha in rd.Q:
            rep.say("  R_v(%s) = {%s}", frac(alpha),
                    ", ".join(str(e) for e in rd.R[alpha]))
        rep.data["places"].append({
            "place": _place_str(v, job),
            "M": frac(rd.M), "T": frac(rd.T),
            "newton_slopes": [frac(seg[2]) for seg in rd.newton],
            "P": [frac(a) for a in rd.P],
            "Pp": [frac(a) for a in rd.Pp],
            "Ppp": [frac(a) for a in rd.Ppp],
            "Q": [frac(a) for a in rd.Q],
            "R": {frac(a): [str(e) for e in rd.R[a]] for a in rd.Q},
        })
    return 0


def _height_core(job, rep):
    mod = job.module()
    x = job.point()
    var = job.point_var
    level = None
    if job.level > 0:
        level = InsepLevel(mod, job.level)
        work, index = level.pushed, level.index
        rep.say("inseparable level %d: t = %s^%d", job.level, job.ext_var,
                level.index)
    else:
        work, index = mod, 1
    parts = global_height_breakdown(work, x, job.n_max, index)
    total = height_sum(parts)
    rep.put("point", x.to_string(var))
    rep.put("local", [])
    for v, h in parts:
        rep.say("  h_%s(%s) = %s  [%s]", v.to_string(var), x.to_string(var),
                h, h.certificate)
        entry = {"place": v.to_string(var)}
        entry.update(_height_json(h))
        rep.data["local"].append(entry)
    rep.say("global height = %s", total)
    rep.put("height", _height_json(total))
    return mod, level, x, parts, total


def cmd_height(job, rep):
    mod, level, x, parts, total = _height_core(job, rep)
    sub = job.data.get("substitution")
    if sub is not None and job.level == 0:
        from drinheights.heights import height_via_embedding
        from drinheights.places import SubstitutionEmbedding
        try:
            image = parse_ratfunc(job.field, sub["u_image_of_t"],
                                  var=job.ext_var)
            emb = SubstitutionEmbedding(image)
        except (KeyError, TypeError, ParseError, ValueError) as exc:
            raise InputError("bad substitution: %s" % exc)
        h2 = height_via_embedding(mod, emb, x, job.n_max)
        agree = (total.is_exact and h2.is_exact
                 and total.value == h2.value)
        rep.say("height via t -> %s: %s%s", image.to_string(job.ext_var), h2,
                "  (agrees)" if agree else "")
        rep.put("embedding_height", _height_json(h2))
    bounds = lehmer_bounds(mod)
    rep.put("bounds", {"sharp": frac(bounds.sharp), "weak": frac(bounds.weak),
                       "lehper": None if bounds.lehper is None
                       else frac(bounds.lehper),
                       "torsion_degree": bounds.torsion_degree})
    if job.level > 0:
        report = _lehper_at(level, x, parts)
        if report.torsion:
            rep.say("torsion point, annihilator b = %s",
                    report.annihilator.to_string(job.var))
            rep.put("torsion", report.annihilator.to_string(job.var))
        else:
            rep.say("lehper bound %s: %s > %s: PASS", frac(report.bound),
                    total, frac(report.bound))
            rep.put("lehper", {"bound": frac(report.bound),
                               "margin": frac(report.margin)})
        return 0
    cert = check_t2mwg(mod, x, job.n_max, parts=parts)
    if cert.kind == "constant":
        rep.say("constant point (torsion = constants since S is empty)")
        rep.put("certificate", {"kind": "constant"})
    elif cert.kind == "torsion":
        rep.say("torsion point, annihilator b = %s",
                cert.annihilator.to_string(job.var))
        rep.put("certificate", {"kind": "torsion",
                                "b": cert.annihilator.to_string(job.var)})
    else:
        rep.say("witness %s: local height %s > bound %s: PASS",
                cert.place.to_string(job.var), frac(cert.local),
                frac(cert.bound))
        rep.put("certificate", {"kind": "witness",
                                "place": cert.place.to_string(job.var),
                                "local": frac(cert.local),
                                "bound": frac(cert.bound)})
    return 0


def cmd_local_height(job, rep):
    mod = job.module()
    x = job.point()
    v = job.place()
    h = local_height(mod, v, x, job.n_max)
    rep.say("h_%s(%s) = %s  [%s]", _place_str(v, job), x.to_string(job.var),
            h, h.certificate)
    rep.put("place", _place_str(v, job))
    rep.put("height", _height_json(h))
    return 0


def cmd_torsion(job, rep):
    mod = job.module()
    bound = annihilator_bound(mod)
    if bound.constants_only:
        rep.say("S empty; torsion = F_q = {%s}",
                ", ".join(str(c) for c in mod.field.elements()))
        rep.put("torsion", [str(c) for c in mod.field.elements()])
        rep.put("constants_only", True)
        return 0
    rep.say("D = r N_phi |S| = %d", bound.D)
    rep.say("b_lcm = %s (degree %d)", bound.b_lcm.to_string(job.var),
            bound.b_lcm.degree)
    rep.put("D", bound.D)
    rep.put("b_lcm", bound.b_lcm.to_string(job.var))
    points = torsion_enumerate(mod)
    rep.say("torsion module (%d points):", len(points))
    rep.put("torsion", [])
    for x in points:
        b = annihilator_of(mod, x)
        rep.say("  %s  (minimal annihilator %s)", x.to_string(job.var),
                b.to_string(job.var))
        rep.data["torsion"].append({"point": x.to_string(job.var),
                                    "annihilator": b.to_string(job.var)})
    return 0


def cmd_kernel(job, rep):
    mod = job.module()
    b = job.poly("b")
    roots = kernel_in_K(mod, b)
    rep.say("kernel of phi_b for b = %s: %d rational roots",
            b.to_string(job.var), len(roots))
    for x in roots:
        rep.say("  %s", x.to_string(job.var))
    rep.put("b", b.to_string(job.var))
    rep.put("kernel", [x.to_string(job.var) for x in roots])
    return 0


def cmd_lehmer(job, rep):
    mod = job.module()
    bounds = lehmer_bounds(mod)
    rep.say("sharp bound  q^(-2r - r^2 N |S|) = %s", frac(bounds.sharp))
    rep.say("weak bound   q^(-r(2 + (r^2+r)|S|)) = %s", frac(bounds.weak))
    rep.put("sharp", frac(bounds.sharp))
    rep.put("weak", frac(bounds.weak))
    rep.put("torsion_degree", bounds.torsion_degree)
    rep.say("torsion annihilator degree bound r N |S| = %d",
            bounds.torsion_degree)
    if bounds.lehper is not None:
        rep.say("perfect-closure floor = %s", frac(bounds.lehper))
        rep.put("lehper", frac(bounds.lehper))
    else:
        rep.say("perfect-closure floor: absent (S empty)")
        rep.put("lehper", None)
    return 0


def cmd_insep_height(job, rep):
    job.set_level(max(job.level, 1))
    _height_core(job, rep)
    return 0


def cmd_dichotomy(job, rep):
    mod = job.module()
    x = job.point()
    report = key_dichotomy_check(mod, job.level, x, job.n_max)
    if report.branch == 1:
        rep.say("branch 1: h_%s(x) = %s >= threshold %s",
                report.place.to_string(job.point_var), frac(report.local),
                frac(report.threshold))
        rep.put("branch", 1)
        rep.put("place", report.place.to_string(job.point_var))
        rep.put("local", frac(report.local))
        rep.put("threshold", frac(report.threshold))
    else:
        rep.say("branch 2: b = %s pushes x above every T_v",
                report.b.to_string(job.var))
        for v, val in report.valuations:
            rep.say("  v = %s: v(phi_b(x)) = %s > T_v = %s",
                    v.to_string(job.point_var), frac(val),
                    frac(report.level.pushed.reduction_data(v).T))
        rep.put("branch", 2)
        rep.put("b", report.b.to_string(job.var))
        rep.put("valuations", [[v.to_string(job.point_var), frac(val)]
                               for v, val in report.valuations])
    return 0


def cmd_verify(job, rep, inject_mv_bug=False):
    result = verify_mod.run_verify(seed=job.seed, count=job.counts,
                                   inject_mv_bug=inject_mv_bug)
    rep.put("seed", job.seed)
    rep.put("counts", job.counts)
    rep.put("checks", [])
    for name, cases, msg in result.rows:
        status = "ok" if msg is None else "FAIL"
        rep.say("%-22s %5d cases  %s", name, cases, status)
        if msg is not None:
            rep.say("  counterexample: %s", msg)
        rep.data["checks"].append({"name": name, "cases": cases,
                                   "status": status, "counterexample": msg})
    rep.say("total cases: %d", result.total_cases)
    rep.put("ok", result.ok)
    if result.total_cases == 0:
        rep.say("0 cases run")
    return 0 if result.ok else 1


COMMANDS = {
    "reduction": cmd_reduction,
    "height": cmd_height,
    "local-height": cmd_local_height,
    "torsion": cmd_torsion,
    "kernel": cmd_kernel,
    "lehmer": cmd_lehmer,
    "insep-height": cmd_insep_height,
    "dichotomy": cmd_dichotomy,
}


# built once: each parse_args call returns a fresh namespace
PARSER = argparse.ArgumentParser(
    prog="drinheights",
    description="Exact heights, reduction data and torsion bounds for "
                "Drinfeld modules over F_q(t).")
PARSER.add_argument("command", choices=sorted(COMMANDS) + ["verify"])
PARSER.add_argument("job", nargs="?", default="-",
                    help="job JSON file, or - for stdin")
PARSER.add_argument("--json", action="store_true", dest="as_json",
                    help="emit a JSON report")
PARSER.add_argument("--insep-level", type=int, default=None,
                    help="work over F_q(u) with t = u^(p^n)")
PARSER.add_argument("--n-max", type=int, default=None,
                    help="iteration budget (overrides the job's n_max)")
PARSER.add_argument("--seed", type=int, default=None)
PARSER.add_argument("--counts", type=int, default=None)
PARSER.add_argument("--inject-mv-bug", action="store_true",
                    help=argparse.SUPPRESS)  # harness self-test only


def main(argv=None):
    args = PARSER.parse_args(argv)

    rep = Report()
    try:
        job = Job(load_job(args.job), args)
        if args.command == "verify":
            code = cmd_verify(job, rep, inject_mv_bug=args.inject_mv_bug)
        else:
            code = COMMANDS[args.command](job, rep)
    except (InputError, ParseError, FieldError, ValueError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except BudgetExhaustedError as exc:
        print("budget exhausted: %s" % exc, file=sys.stderr)
        return 3
    rep.emit(args.as_json)
    return code


if __name__ == "__main__":
    sys.exit(main())
