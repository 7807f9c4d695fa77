"""Every process-wide memo of the package is either cleared between tests
(conftest.MODULE_MEMOS) or named here as one that no module keys, and every
function whose values are kept on a module (drinfeld.kept) is named here."""

import gc
import importlib
import io
import json
import pkgutil
import sys
import weakref

import drinheights
from conftest import MODULE_MEMOS, kept_keys
from drinheights import (InfinitePlace, cli, drinfeld, finite_field, gf,
                         heights, perfect, torsion)

# keyed by field arguments, a place's text or argv, never by a module
NOT_MODULE_KEYED = (gf._is_prime, gf._proven_extension, gf._finite_field,
                    cli._args, cli._place)

# built from one module alone and kept on it
KEPT_ON_MODULE = (drinfeld.DrinfeldModule.reduction_data,
                  torsion.torsion_lattice, heights.lehmer_bounds,
                  perfect.insep_level, cli._module_report)

# the code of every function that drinfeld.kept makes
KEPT_CODE = drinfeld.kept(lambda module: None).__code__


def package_members(wanted):
    """Each object for which `wanted` holds among the attributes of the
    modules of the package and of their classes, once each."""
    members = {}
    for info in pkgutil.iter_modules(drinheights.__path__):
        mod = importlib.import_module("drinheights." + info.name)
        for obj in list(vars(mod).values()):
            found = [obj] + (list(vars(obj).values())
                             if isinstance(obj, type) else [])
            members.update((id(m), m) for m in found if wanted(m))
    return list(members.values())


def unlisted(members, known):
    """The qualified names of the members that are not in `known`, after
    checking that each of `known` is a member."""
    assert all(any(m is k for m in members) for k in known)
    return [m.__module__ + "." + m.__qualname__ for m in members
            if not any(m is k for k in known)]


def test_every_memo_is_cleared_or_not_module_keyed():
    memos = package_members(lambda m: hasattr(m, "cache_clear"))
    assert unlisted(memos, MODULE_MEMOS + NOT_MODULE_KEYED) == []


def test_every_kept_function_is_listed():
    kept = package_members(
        lambda m: getattr(m, "__code__", None) is KEPT_CODE)
    assert unlisted(kept, KEPT_ON_MODULE) == []


def test_a_dropped_module_is_collected(monkeypatch, capsys):
    # what a module keeps lives on it: once the module is dropped and the
    # memos that key by a module are cleared, nothing keeps it alive
    job = {"field": {"p": 3}, "module": {"coefficients": ["t", "1/t", "1"]}}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(job)))
    assert cli.main(["reduction", "-"]) == 0 and capsys.readouterr().out
    F3 = finite_field(3)
    mod = cli._module(F3, ("t", "1/t", "1"))
    mod.reduction_data(InfinitePlace(F3))
    torsion.torsion_lattice(mod)
    heights.lehmer_bounds(mod)
    perfect.insep_level(mod, 1)
    assert all(kept_keys(mod, fn) for fn in KEPT_ON_MODULE)
    dropped = weakref.ref(mod)
    del mod
    for memo in MODULE_MEMOS + (cli._args, cli._place):
        memo.cache_clear()
    gc.collect()
    assert dropped() is None
