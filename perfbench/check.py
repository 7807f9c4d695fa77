"""Answer checker: compares one job's answer with its reference.

Rules:
* an exact answer must equal its reference;
* an interval [lo, hi] must contain its reference, so an answer that later
  becomes exact inside the old interval still passes;
* anything else fails: a wrong value, a different torsion set, a missing or
  extra place, a nonzero exit, a job over the time limit.

Answers are the CLI's --json reports, or plain dicts made from library
results by the worker.  Polynomials in reports are parsed here into
coefficient tuples (constant term first), independently of the library.
"""

import hashlib
import json
import re
from fractions import Fraction

_TERM = re.compile(r"^(?:(\d+)\*)?([A-Za-z_]\w*)(?:\^(\d+))?$")


class Mismatch(Exception):
    pass


def parse_poly(s):
    """'2*t^3+t+1' -> (1, 1, 0, 2); '0' -> ()."""
    s = s.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    coeffs = {}
    if s != "0":
        for term in s.split("+"):
            if term.isdigit():
                coeffs[0] = int(term)
                continue
            m = _TERM.match(term)
            if not m:
                raise Mismatch("cannot read polynomial %r" % s)
            coeffs[int(m.group(3) or 1)] = int(m.group(1) or 1)
    if not coeffs:
        return ()
    return tuple(coeffs.get(i, 0) for i in range(max(coeffs) + 1))


def parse_ratfunc(s):
    """'(t+1)/t^2' -> ((1, 1), (0, 0, 1)); a polynomial has denominator (1,)."""
    depth = 0
    for i, ch in enumerate(s):
        depth += ch == "("
        depth -= ch == ")"
        if ch == "/" and depth == 0:
            return parse_poly(s[:i]), parse_poly(s[i + 1:])
    return parse_poly(s), (1,)


def parse_place(s):
    if not (s.startswith("v[") and s.endswith("]")):
        raise Mismatch("cannot read place %r" % s)
    inner = s[2:-1]
    return ("inf",) if inner == "inf" else parse_poly(inner)


def _key(k):
    return ("inf",) if k in ("inf", ("inf",)) else tuple(k)


def contains(answer, ref):
    """answer: {"value": v} or {"lo": a, "hi": b}; ref: exact fraction."""
    ref = Fraction(ref)
    if "value" in answer:
        if Fraction(answer["value"]) != ref:
            raise Mismatch("value %s != reference %s" % (answer["value"], ref))
        return True
    lo, hi = Fraction(answer["lo"]), Fraction(answer["hi"])
    if not lo <= ref <= hi:
        raise Mismatch("interval [%s, %s] excludes reference %s" % (lo, hi, ref))
    return False


def _equal(what, got, want):
    if got != want:
        raise Mismatch("%s: got %r, want %r" % (what, got, want))


def _check_height(ans, ref):
    exact = contains(ans["height"], ref["height"])
    want = {_key(k): v for k, v in ref["local"].items()}
    got = {parse_place(e["place"]): e for e in ans["local"]}
    _equal("places", set(got), set(want))
    for place, entry in got.items():
        contains(entry, want[place])
    if ref.get("bounds") is not None:
        _equal("bounds", ans["bounds"], ref["bounds"])
    if "witness" in ref:
        _check_certificate(ans["certificate"], want, ref["witness"])
    return 1, int(exact)


def _check_certificate(cert, local, bounds):
    """A witness: a place whose exact local height reaches the bound there.
    With no bounds the point is a constant of an S-empty module."""
    if bounds is None:
        _equal("certificate", cert["kind"], "constant")
        return
    _equal("certificate", cert["kind"], "witness")
    place = parse_place(cert["place"])
    bounds = {_key(k): v for k, v in bounds.items()}
    if place not in bounds:
        raise Mismatch("witness at unexpected place %s" % cert["place"])
    _equal("witness local", Fraction(cert["local"]), Fraction(local[place]))
    _equal("witness bound", Fraction(cert["bound"]), Fraction(bounds[place]))
    if not Fraction(cert["local"]) >= Fraction(cert["bound"]):
        raise Mismatch("witness below its bound")


def _check_local(ans, ref):
    _equal("place", parse_place(ans["place"]), _key(ref["place"]))
    return 1, int(contains(ans["height"], ref["height"]))


def _check_dichotomy(ans, ref):
    _equal("branch", ans["branch"], ref["branch"])
    if ref["branch"] == 2:
        _equal("b", parse_poly(ans["b"]), (1,))
        _equal("valuations", ans["valuations"], [])
        return 0, 0
    place = parse_place(ans["place"])
    local = {_key(k): v for k, v in ref["local"].items()}
    threshold = {_key(k): v for k, v in ref["threshold"].items()}
    if place not in local:
        raise Mismatch("branch 1 at unexpected place %s" % ans["place"])
    _equal("local", Fraction(ans["local"]), Fraction(local[place]))
    _equal("threshold", Fraction(ans["threshold"]), Fraction(threshold[place]))
    return 1, 1


def _check_torsion(ans, ref):
    if "constants" in ref:
        _equal("constants_only", ans.get("constants_only"), True)
        _equal("torsion", sorted(int(c) for c in ans["torsion"]),
               list(range(ref["constants"])))
        return 0, 0
    got = {}
    for e in ans["torsion"]:
        num, den = parse_ratfunc(e["point"])
        _equal("denominator", den, (1,))
        got[num] = parse_poly(e["annihilator"])
    want = {tuple(k): tuple(v) for k, v in ref["points"].items()}
    _equal("torsion set", sorted(got), sorted(want))
    _equal("annihilators", got, want)
    return 0, 0


def _check_kernel(ans, ref):
    got = set()
    for s in ans["kernel"]:
        num, den = parse_ratfunc(s)
        _equal("denominator", den, (1,))
        got.add(num)
    _equal("kernel", sorted(got), sorted(tuple(p) for p in ref["points"]))
    return 0, 0


LEHMER_KEYS = ("sharp", "weak", "lehper", "torsion_degree")


def _check_lehmer(ans, ref):
    _equal("lehmer", {k: ans[k] for k in LEHMER_KEYS},
           {k: ref[k] for k in LEHMER_KEYS})
    return 0, 0


def reduction_digest(ans):
    """Digest of the parts of a reduction report the benchmark checks."""
    keys = ("S", "N_phi", "places", "torsion")
    body = json.dumps({k: ans.get(k) for k in keys}, sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


def _check_reduction(ans, ref):
    _equal("reduction digest", reduction_digest(ans), ref["digest"])
    return 0, 0


def lcm_reference(q, p, D):
    """prod_{k=1}^{D} (t^(q^k) - t) over F_p, coefficients constant first."""
    out = [1]
    for k in range(1, D + 1):
        e = q**k
        nxt = [0] * (len(out) + e)
        for i, c in enumerate(out):
            if c:
                nxt[i + e] = (nxt[i + e] + c) % p
                nxt[i + 1] = (nxt[i + 1] - c) % p
        out = nxt
    return tuple(strip_zeros(out))


def strip_zeros(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _check_annihilator_bound(ans, ref):
    _equal("constants_only", ans["constants_only"], False)
    _equal("D", ans["D"], ref["D"])
    want = lcm_reference(ref["q"], ref["p"], ref["D"])
    if tuple(ans["b_lcm"]) != want:
        raise Mismatch("b_lcm differs from prod (t^(q^k) - t), degree %d vs %d"
                       % (len(ans["b_lcm"]) - 1, len(want) - 1))
    return 0, 0


def _check_is_torsion(ans, ref):
    if ref["annihilator"] is not None:
        _equal("torsion", ans["torsion"], True)
        _equal("annihilator", tuple(ans["annihilator"]),
               tuple(ref["annihilator"]))
        return 0, 0
    _equal("torsion", ans["torsion"], False)
    w = ans["witness"]
    _equal("witness kind", w["kind"], "witness")
    want = {_key(k): v for k, v in ref["witness"].items()}
    place = parse_place(w["place"])
    if place not in want:
        raise Mismatch("witness at unexpected place %s" % w["place"])
    _equal("witness local", Fraction(w["local"]), Fraction(want[place]))
    return 1, 1


CHECKERS = {
    "height": _check_height,
    "local": _check_local,
    "dichotomy": _check_dichotomy,
    "torsion": _check_torsion,
    "kernel": _check_kernel,
    "lehmer": _check_lehmer,
    "reduction": _check_reduction,
    "annihilator_bound": _check_annihilator_bound,
    "is_torsion": _check_is_torsion,
}


def check(ref, answer):
    """(ok, message, height answers, exact height answers)."""
    try:
        n_heights, n_exact = CHECKERS[ref["kind"]](answer, ref)
    except Mismatch as exc:
        return False, str(exc), 0, 0
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return False, "malformed answer: %r" % exc, 0, 0
    return True, None, n_heights, n_exact
