"""Command-line front end: JSON jobs in, exact reports out.

A job file (or stdin with "-") carries the field, the module coefficients
and command-specific arguments:

    {"field": {"p": 3, "k": 1}, "module": {"coefficients": ["t", "1"]},
     "point": "1"}

Every number printed is an exact fraction; --json switches to a
machine-readable report with fractions rendered as strings, byte for byte
json.dumps(report, indent=2, sort_keys=True), written by _json without
json's pure-Python indenting encoder.  Only the report that is printed is
formatted: the text lines are not built under --json.  Exit codes:
0 ok, 1 property violation (a `verify` check's CheckFailure), 2 input error
(a malformed job, or a module that is not monic or is isotrivial where the
command needs otherwise), 3 degree budget exhausted, 4 internal error (any
other exception, inside a `verify` check too, and a report that cannot be
written: one stderr line, and nothing more on stdout).  An
expression or a push to F_q(u) whose degree may pass ratfunc.MAX_DEGREE is
malformed.

A caller that runs many jobs in one process pays once for what repeats.
The CLI keeps three memos, each an lru_cache of gf.FIELD_MEMO entries:
_args, the Namespace per argv, so the same flags pay argparse once;
_module, the module per (field, coefficient texts); and _place, the finite
place per (field, text of P, variable), so a place is parsed and proven
irreducible once.  What it keeps per module lives on the module
(drinfeld.kept): _module_report, the finished Report of each command whose
answer depends on the module alone (reduction, lehmer, torsion), per
(command, variable, output format), built once and rendered on its first
emit.  A kept value is shared by the calls that read it and only read;
refused input, and a report whose rendering fails, keeps nothing, so it is
refused or rendered again on every call.
"""

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from drinheights import verify as verify_mod
from drinheights.drinfeld import DrinfeldModule, kept
from drinheights.errors import (BudgetExhaustedError, InputError,
                                IsotrivialModuleError, NonMonicError, quote)
from drinheights.gf import (FIELD_MEMO, FieldError, ResidueFieldError,
                            finite_field)
from drinheights.heights import (frac, global_height_breakdown, height_sum,
                                 height_via_embedding, lehmer_bounds,
                                 local_height, check_t2mwg)
from drinheights.perfect import (check_level, insep_level,
                                 key_dichotomy_check, lehper_check)
from drinheights.places import (FinitePlace, InfinitePlace,
                                SubstitutionEmbedding)
from drinheights.ratfunc import (MAX_DEGREE, ParseError, parse_poly,
                                 parse_ratfunc)
from drinheights.torsion import (annihilator_of, kernel_in_K,
                                 torsion_enumerate, torsion_lattice)


def load_job(path):
    """The job's JSON value.  A file that cannot be opened or decoded, and
    JSON that Python refuses to read (an integer past its digit limit,
    nesting past the recursion limit), are input errors."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError("cannot read job: %s" % quote(str(exc), str))


def integer(value, key, minimum=None):
    """A JSON integer (not a bool) of at least `minimum`, or an InputError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError("%s must be an integer, not %s"
                         % (key, quote(json.dumps(value), str)))
    if minimum is not None and value < minimum:
        raise InputError("%s must be at least %d, not %s"
                         % (key, minimum, quote(str(value), str)))
    return value


def text(value, what):
    """A JSON string, or an InputError naming `what`."""
    if not isinstance(value, str):
        raise InputError("%s must be a string, not %s"
                         % (what, quote(json.dumps(value), str)))
    return value


class Job:
    """Parsed job specification."""

    def __init__(self, data, args):
        if not isinstance(data, dict):
            raise InputError("job must be a JSON object")
        self.data = data
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
        # a flag overrides the job's entry of the same name; keys that no
        # command reads are ignored; the push rule runs where a level is read
        self.level = self._setting(args, "insep_level", 0, minimum=0)
        self.seed = self._setting(args, "seed", 0)
        self.counts = self._setting(args, "counts", 500, minimum=0)

    def _setting(self, args, key, default, minimum=None):
        value = getattr(args, key)
        if value is None:
            value = self.data.get(key, default)
        return integer(value, key, minimum)

    @property
    def point_var(self):
        return "u" if self.level > 0 else "t"

    def module(self):
        desc = self.data.get("module", self.data)
        coeffs = desc.get("coefficients") if isinstance(desc, dict) else None
        if not coeffs or not isinstance(coeffs, list):
            raise InputError("job needs module coefficients")
        return _module(self.field,
                       tuple(text(c, "a coefficient") for c in coeffs))

    def at_level(self, *points):
        """The job's module over F_q(u) with t = u^(p^level) (at level 0,
        the module itself), once the push rule (perfect.check_level) holds
        for it and the points."""
        mod = self.module()
        if self.level:
            check_level(self.field.char, self.level, *mod.coeffs, *points)
        return insep_level(mod, self.level)

    def expression(self, key, kind, parse, var, within=None):
        """The job's entry `key`, or the entry `key` of its object `within`:
        a string that `parse` reads in `var` as a `kind`.  An entry that is
        absent, not a string or unreadable is an InputError naming it."""
        if within is None:
            s = self.data.get(key)
            if s is None:
                raise InputError("job needs a %r entry" % key)
            name = key
        else:
            # an absent entry of an object reads as null
            s = self.data[within].get(key)
            name = "%s %s" % (within, key)
        return _parse(parse, self.field, text(s, name), kind, var)

    def point(self):
        return self.expression("point", "point", parse_ratfunc, self.point_var)

    def place(self):
        desc = self.data.get("place")
        if not isinstance(desc, dict):
            raise InputError("job needs a \"place\" object")
        if desc.get("kind") == "infinity":
            return InfinitePlace(self.field)
        if desc.get("kind") == "finite":
            return _place(self.field, text(desc.get("P"), "place P"),
                          self.point_var)
        raise InputError("place kind must be \"finite\" or \"infinity\"")

    def substitution(self):
        """The image f(u) of t under the job's substitution t -> f(u), or
        None when the job has none."""
        sub = self.data.get("substitution")
        if sub is None:
            return None
        if not isinstance(sub, dict):
            raise InputError("substitution must be a JSON object, not %s"
                             % quote(json.dumps(sub), str))
        return self.expression("u_image_of_t", "substitution", parse_ratfunc,
                               "u", within="substitution")


def _parse(parse, field, s, kind, var):
    """`parse` of the string `s` in `var`, or an InputError naming `kind`."""
    try:
        return parse(field, s, var=var)
    except ParseError as exc:
        raise InputError("bad %s %s: %s" % (kind, quote(s), exc))


@functools.lru_cache(maxsize=FIELD_MEMO)
def _place(field, P, var):
    """The finite place of the polynomial whose text in `var` is `P`, made
    monic.

    Memoized by (field, P, var) for the process, so each place is parsed
    and proven irreducible once.  Refused input keeps nothing and is
    refused again on every call.
    """
    P = _parse(parse_poly, field, P, "place", var)
    try:
        return FinitePlace(P.monic())
    except ValueError as exc:
        raise InputError(str(exc))


@functools.lru_cache(maxsize=FIELD_MEMO)
def _module(field, coeffs):
    """The module over `field` whose coefficients are the texts `coeffs`.

    Memoized by (field, coeffs) for the process, so each job on a module
    seen before reuses all that is kept on it: S, reduction data, residue
    sets, lattice, bounds, levels and reports.  Refused input keeps nothing
    and is refused again on every call.
    """
    try:
        parsed = [parse_ratfunc(field, c) for c in coeffs]
    except ParseError as exc:
        raise InputError("bad coefficient: %s" % exc)
    try:
        return DrinfeldModule(field, parsed)
    except ValueError as exc:
        raise InputError(str(exc))


class Report:
    """The report of one job: a JSON dict, and under text output the lines
    to print.  Its text is rendered by the first emit that renders without
    error and kept, so a report emitted again (one that _module_report
    keeps) is printed without rendering; a failed rendering keeps
    nothing."""

    def __init__(self, as_json):
        self.as_json = as_json
        self.lines = []
        self.data = {}
        self.text = None

    def say(self, fmt, *args):
        if self.as_json:
            return
        self.lines.append(fmt % args if args else fmt)

    def put(self, key, value):
        self.data[key] = value

    def emit(self):
        if self.text is None:
            self.text = (_json(self.data) if self.as_json
                         else "\n".join(self.lines))
        print(self.text)


def _json(value, pad="\n"):
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for
    strings, None, bools, ints, floats, lists, tuples and string-keyed
    dicts; anything else raises TypeError.  json runs its C encoder only
    without indent, so this writer replaces its pure-Python one."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return json.dumps(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return ("[" + inner + ("," + inner).join(
            [_json(v, inner) for v in value]) + pad + "]")
    if isinstance(value, dict):
        if not value:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not a str
        return ("{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _json(value[k], inner)
             for k in sorted(value)]) + pad + "}")
    raise TypeError("Object of type %s is not JSON serializable"
                    % type(value).__name__)


def _height_json(h):
    if h.is_exact:
        return {"value": frac(h.lo), "certificate": h.certificate,
                "step": h.step}
    return {"lo": frac(h.lo), "hi": frac(h.hi), "certificate": h.certificate,
            "step": h.step}


@kept
def _module_report(module, command, var, as_json):
    """The finished Report of the module-only `command` on `module`, places
    and points written in `var`, as JSON or as text.

    Kept on the module per (command, var, as_json), so a job whose answer
    was reported before builds, formats and (once emitted) renders nothing;
    the Report is shared by those jobs and only read.  A build that fails
    keeps nothing.
    """
    rep = Report(as_json)
    MODULE_COMMANDS[command](module, var, rep)
    return rep


def module_report(command, job, as_json):
    """The kept report of the module-only `command` on the job's module:
    `reduction` reads the module at the job's level, its places written in
    the level's variable; `lehmer` and `torsion` work over K whatever the
    level."""
    if command == "reduction":
        return _module_report(job.at_level(), command, job.point_var, as_json)
    return _module_report(job.module(), command, "t", as_json)


def reduction_report(mod, var, rep):
    """S by name, N_phi, and for each place of S its M, T, Newton slopes,
    P, P', P'', Q and R as strings, or "constants" for the torsion when S
    is empty."""
    S = mod.bad_reduction_set()
    names = [v.to_string(var) for v in S]
    rep.put("S", names)
    rep.put("N_phi", mod.N_phi)
    if not rep.as_json:
        rep.say("bad reduction set S: %s",
                "{" + ", ".join("%s (degree %d)" % (name, v.degree)
                                for name, v in zip(names, S)) + "}"
                if S else "empty")
        rep.say("N_phi = %d, r = %d, q = %d", mod.N_phi, mod.r, mod.q)
    if not S:
        rep.say("S empty; torsion = F_q (the constants)")
        rep.put("torsion", "constants")
        return
    rep.put("places", [])
    for name, v in zip(names, S):
        rd = mod.reduction_data(v)
        entry = {"place": name, "M": frac(rd.M), "T": frac(rd.T),
                 "newton_slopes": [frac(s) for s in rd.newton]}
        for key in ("P", "Pp", "Ppp", "Q"):
            entry[key] = [frac(a) for a in getattr(rd, key)]
        entry["R"] = {s: [str(e) for e in rd.R[a]]
                      for s, a in zip(entry["Q"], rd.Q)}
        rep.data["places"].append(entry)
        if rep.as_json:
            continue
        rep.say("")
        rep.say("at %s:", name)
        rep.say("  M_v = %s, T_v = %s", entry["M"], entry["T"])
        rep.say("  newton slopes: [%s]", ", ".join(entry["newton_slopes"]))
        for key, label in (("P", "P_v  "), ("Pp", "P'_v "),
                           ("Ppp", "P''_v"), ("Q", "Q_v  ")):
            rep.say("  %s = {%s}", label, ", ".join(entry[key]))
        for s in entry["Q"]:
            rep.say("  R_v(%s) = {%s}", s, ", ".join(entry["R"][s]))


def _height_core(job, rep):
    x = job.point()
    psi = job.at_level(x)
    var = job.point_var
    if job.level:
        rep.say("inseparable level %d: t = u^%d", job.level, psi.index)
    parts = global_height_breakdown(psi, x)
    total = height_sum(parts)
    point = x.to_string(var)
    rep.put("point", point)
    rep.put("local", [])
    for v, h in parts:
        place = v.to_string(var)
        rep.say("  h_%s(%s) = %s  [%s]", place, point, h, h.certificate)
        entry = {"place": place}
        entry.update(_height_json(h))
        rep.data["local"].append(entry)
    rep.say("global height = %s", total)
    rep.put("height", _height_json(total))
    return psi, x, parts, total


def cmd_height(job, rep):
    psi, x, parts, total = _height_core(job, rep)
    image = job.substitution() if job.level == 0 else None
    if image is not None:
        try:
            emb = SubstitutionEmbedding(image)
        except ValueError as exc:
            raise InputError("bad substitution: %s" % exc)
        h2 = height_via_embedding(psi, emb, x)
        if not rep.as_json:
            agree = (total.is_exact and h2.is_exact
                     and total.value == h2.value)
            rep.say("height via t -> %s: %s%s", image.to_string("u"), h2,
                    "  (agrees)" if agree else "")
        rep.put("embedding_height", _height_json(h2))
    bounds = lehmer_bounds(psi)
    rep.put("bounds", {"sharp": frac(bounds.sharp), "weak": frac(bounds.weak),
                       "lehper": None if bounds.lehper is None
                       else frac(bounds.lehper),
                       "torsion_degree": bounds.torsion_degree})
    if job.level:
        report = lehper_check(psi, x, parts=parts)
        if report.torsion:
            b = report.annihilator.to_string()
            rep.say("torsion point, annihilator b = %s", b)
            rep.put("torsion", b)
        else:
            bound = frac(report.bound)
            rep.say("lehper bound %s: %s > %s: PASS", bound, total, bound)
            rep.put("lehper", {"bound": bound, "margin": frac(report.margin)})
        return 0
    cert = check_t2mwg(psi, x, parts=parts)
    if cert.kind == "constant":
        rep.say("constant point (torsion = constants since S is empty)")
        rep.put("certificate", {"kind": "constant"})
    elif cert.kind == "torsion":
        b = cert.annihilator.to_string()
        rep.say("torsion point, annihilator b = %s", b)
        rep.put("certificate", {"kind": "torsion", "b": b})
    else:
        entry = {"kind": "witness", "place": cert.place.to_string(),
                 "local": frac(cert.local), "bound": frac(cert.bound)}
        rep.say("witness %s: local height %s > bound %s: PASS",
                entry["place"], entry["local"], entry["bound"])
        rep.put("certificate", entry)
    return 0


def cmd_local_height(job, rep):
    x = job.point()
    psi = job.at_level(x)
    v = job.place()
    h = local_height(psi, v, x)
    place = v.to_string(job.point_var)
    if not rep.as_json:
        rep.say("h_%s(%s) = %s  [%s]", place, x.to_string(job.point_var), h,
                h.certificate)
    rep.put("place", place)
    rep.put("height", _height_json(h))
    return 0


def torsion_report(mod, var, rep):
    """T(K): F_q when S is empty, else D, m, B (unexpanded past
    MAX_DEGREE) and each point of T(K), written in `var`, with its minimal
    annihilator."""
    if not mod.bad_reduction_set():
        elements = [str(c) for c in mod.field.elements()]
        rep.say("S empty; torsion = F_q = {%s}", ", ".join(elements))
        rep.put("torsion", elements)
        rep.put("constants_only", True)
        return
    lattice = torsion_lattice(mod)
    rep.say("D = r N_phi |S| = %d", lattice.D)
    rep.say("m = min(D, n) = %d (n: dimension of the pole lattice)", lattice.m)
    rep.put("D", lattice.D)
    rep.put("m", lattice.m)
    # deg B = q + q^2 + ... + q^m: B is expanded for this report alone,
    # and only within MAX_DEGREE
    q = mod.field.order
    deg = q * (q**lattice.m - 1) // (q - 1)
    if deg <= MAX_DEGREE:
        B = lattice.B
        rep.say("B = prod_{k<=m} (t^(q^k) - t) = %s (degree %d)",
                B.to_string(), B.degree)
        rep.put("B", B.to_string())
    else:
        rep.say("B = prod_{k<=m} (t^(q^k) - t) (degree > MAX_DEGREE = %d, "
                "not expanded)", MAX_DEGREE)
        rep.put("B", None)
    points = torsion_enumerate(mod)
    rep.say("torsion module (%d points):", len(points))
    rep.put("torsion", [])
    for x in points:
        entry = {"point": x.to_string(var),
                 "annihilator": annihilator_of(mod, x).to_string()}
        rep.say("  %s  (minimal annihilator %s)", entry["point"],
                entry["annihilator"])
        rep.data["torsion"].append(entry)


def cmd_kernel(job, rep):
    mod = job.module()
    b = job.expression("b", "polynomial", parse_poly, "t")
    if b.is_zero():
        raise InputError("kernel of phi_0 is everything")
    roots = [x.to_string() for x in kernel_in_K(mod, b)]
    b = b.to_string()
    rep.say("kernel of phi_b for b = %s: %d rational roots", b, len(roots))
    for x in roots:
        rep.say("  %s", x)
    rep.put("b", b)
    rep.put("kernel", roots)
    return 0


def lehmer_report(mod, var, rep):
    """The Lehmer-type bounds of the module, the torsion annihilator degree
    bound and the perfect-closure floor; they name no place or point, so
    `var` is not read."""
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


def cmd_insep_height(job, rep):
    job.level = max(job.level, 1)
    _height_core(job, rep)
    return 0


def cmd_dichotomy(job, rep):
    x = job.point()
    psi = job.at_level(x)
    report = key_dichotomy_check(psi, x)
    if report.branch == 1:
        place = report.place.to_string(job.point_var)
        local, threshold = frac(report.local), frac(report.threshold)
        rep.say("branch 1: h_%s(x) = %s >= threshold %s", place, local,
                threshold)
        rep.put("branch", 1)
        rep.put("place", place)
        rep.put("local", local)
        rep.put("threshold", threshold)
    else:
        b = report.b.to_string()
        rows = [[v.to_string(job.point_var), frac(val)]
                for v, val in report.valuations]
        if not rep.as_json:
            rep.say("branch 2: b = %s pushes x above every T_v", b)
            for (v, _), (place, val) in zip(report.valuations, rows):
                rep.say("  v = %s: v(phi_b(x)) = %s > T_v = %s", place, val,
                        frac(psi.reduction_data(v).T))
        rep.put("branch", 2)
        rep.put("b", b)
        rep.put("valuations", rows)
    return 0


def cmd_verify(job, rep):
    result = verify_mod.run_verify(seed=job.seed, count=job.counts)
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


# each a function of (job, rep) that fills rep and returns the exit code
COMMANDS = {
    "height": cmd_height,
    "local-height": cmd_local_height,
    "kernel": cmd_kernel,
    "insep-height": cmd_insep_height,
    "dichotomy": cmd_dichotomy,
    "verify": cmd_verify,
}

# the commands whose report depends on the module alone, each a function of
# (module, var, rep) that fills rep; their exit code is 0, and
# _module_report keeps their reports
MODULE_COMMANDS = {
    "reduction": reduction_report,
    "torsion": torsion_report,
    "lehmer": lehmer_report,
}


# built once; _args parses each distinct argv with it once
PARSER = argparse.ArgumentParser(
    prog="drinheights",
    description="Exact heights, reduction data and torsion bounds for "
                "Drinfeld modules over F_q(t).")
PARSER.add_argument("command",
                    choices=sorted([*COMMANDS, *MODULE_COMMANDS]))
PARSER.add_argument("job", nargs="?", default="-",
                    help="job JSON file, or - for stdin")
PARSER.add_argument("--json", action="store_true", dest="as_json",
                    help="emit a JSON report")
PARSER.add_argument("--insep-level", type=int, default=None,
                    help="work over F_q(u) with t = u^(p^n)")
PARSER.add_argument("--seed", type=int, default=None)
PARSER.add_argument("--counts", type=int, default=None)


@functools.lru_cache(maxsize=FIELD_MEMO)
def _args(argv):
    """PARSER's Namespace for the tuple `argv`.  A refused argv, or --help,
    raises SystemExit, which is not kept, so its message prints on every
    call."""
    return PARSER.parse_args(argv)


def main(argv=None):
    args = _args(tuple(sys.argv[1:] if argv is None else argv))

    try:
        job = Job(load_job(args.job), args)
        if args.command in MODULE_COMMANDS:
            rep, code = module_report(args.command, job, args.as_json), 0
        else:
            rep = Report(args.as_json)
            code = COMMANDS[args.command](job, rep)
    except (InputError, NonMonicError, IsotrivialModuleError,
            ResidueFieldError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except BudgetExhaustedError as exc:
        print("budget exhausted: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        if not args.as_json:
            return 4
        # a fresh report: a kept one is shared and never written to
        rep, code = Report(True), 4
        rep.put("error", "internal")
        rep.put("message", str(exc))
    try:
        rep.emit()
        sys.stdout.flush()
    except Exception as exc:  # a write error, or a value _json refuses
        print("cannot write the report: %s" % exc, file=sys.stderr)
        _discard_stdout()
        return 4
    return code


def _discard_stdout():
    """Point stdout's file descriptor at os.devnull, so that what a failed
    write left buffered is dropped when Python flushes stdout at exit,
    instead of failing again there and turning the exit code into 120.  A
    stdout with no descriptor is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
