"""Every public callable is used by the library itself.

A name in ``burstfec.__all__`` that no library module reads is API that only
tests call; it belongs with the tests.  A use is a name or attribute read
anywhere in a library module, the defining one included; a ``def``/``class``
line or a re-export in ``__init__`` is not one.  The names below wait for a
library caller.  Adding a name here means changing this list on purpose.
"""

import ast
import importlib
import inspect
import pkgutil

import burstfec

# `verify --spec FILE` will read a golden text spec back.
AWAITING_A_LIBRARY_CALLER = {"spec_from_text"}


def _names_read_by_the_library():
    found = set()
    for info in pkgutil.iter_modules(burstfec.__path__, "burstfec."):
        tree = ast.parse(inspect.getsource(importlib.import_module(info.name)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def test_every_public_callable_has_a_library_caller():
    public = {
        name for name in burstfec.__all__
        if callable(obj := getattr(burstfec, name)) and not inspect.ismodule(obj)
    }
    assert public - _names_read_by_the_library() == AWAITING_A_LIBRARY_CALLER
