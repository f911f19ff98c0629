"""The library caches building blocks only, never whole products.

Each cache below is bounded by the parameter range: interned taps per
(row, delay, coeff), block codes per (B, T, field).  A spec built from them
takes a fraction of a millisecond, so memoizing specs (or plans) would only
keep every product alive for the life of the process.  Adding a cache means changing this list on purpose.
"""

import importlib
import inspect
import pkgutil

import burstfec

BUILDING_BLOCK_CACHES = {
    "burstfec.code_model._canonical_tap",
    "burstfec.ldbebc.construct_ldbebc",
}


def _cached_callables():
    found = set()
    for info in pkgutil.iter_modules(burstfec.__path__, "burstfec."):
        module = importlib.import_module(info.name)
        scopes = [vars(module)] + [
            vars(cls) for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module.__name__
        ]
        for scope in scopes:
            for obj in scope.values():
                if hasattr(obj, "cache_info"):
                    found.add(f"{obj.__module__}.{obj.__qualname__}")
    return found


def test_only_building_blocks_are_cached():
    assert _cached_callables() == BUILDING_BLOCK_CACHES
