"""Every process-wide memo of the package is either cleared between tests
(conftest.MODULE_MEMOS) or named here as one that no module keys."""

import importlib
import pkgutil

import drinheights
from conftest import MODULE_MEMOS
from drinheights import cli, gf

# keyed by field arguments, a place's text or argv, never by a module
NOT_MODULE_KEYED = (gf._is_prime, gf._proven_extension, gf._finite_field,
                    cli._args, cli._place)


def package_memos():
    """Each object with cache_clear among the attributes of the modules of
    the package and of their classes, once each."""
    memos = {}
    for info in pkgutil.iter_modules(drinheights.__path__):
        mod = importlib.import_module("drinheights." + info.name)
        for obj in list(vars(mod).values()):
            found = [obj] + (list(vars(obj).values())
                             if isinstance(obj, type) else [])
            memos.update((id(m), m) for m in found if hasattr(m, "cache_clear"))
    return list(memos.values())


def test_every_memo_is_cleared_or_not_module_keyed():
    memos = package_memos()
    known = MODULE_MEMOS + NOT_MODULE_KEYED
    assert all(any(m is k for m in memos) for k in known)
    missed = [m.__module__ + "." + m.__qualname__ for m in memos
              if not any(m is k for k in known)]
    assert missed == []
