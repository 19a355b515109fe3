"""The cold path: clear_caches leaves no per-process cache in crtk holding anything."""

import functools
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from types import ModuleType

import crtk
from crtk import kunneth
from crtk.cli import render_module
from crtk.kunneth import kunneth_pipeline

from cold_path import clear_caches, clear_module_caches


def crtk_modules():
    return [importlib.import_module(f"crtk.{m.name}") for m in pkgutil.iter_modules(crtk.__path__)]


def namespaces(mods):
    """(qualified prefix, namespace) of each module and of each class it defines."""
    for mod in mods:
        yield mod.__name__, vars(mod)
        for name, obj in vars(mod).items():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                yield f"{mod.__name__}.{name}", vars(obj)


def cache_sizes(mods) -> dict:
    """Current size of every functools cache in mods, on a module or a class (through __func__)."""
    return {f"{prefix}.{name}": fn.cache_info().currsize
            for prefix, space in namespaces(mods) for name, obj in space.items()
            for fn in [getattr(obj, "__func__", obj)] if callable(getattr(fn, "cache_info", None))}


def dict_sizes_in_this_process() -> dict:
    return {f"{prefix}.{name}": len(obj)
            for prefix, space in namespaces(crtk_modules()) for name, obj in space.items()
            if type(obj) is dict}


def dict_sizes_at_import() -> dict:
    """dict_sizes_in_this_process in a fresh interpreter right after import (this file as a script)."""
    src = os.path.dirname(os.path.dirname(crtk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, __file__], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_clear_caches_empties_every_cache():
    render_module(kunneth_pipeline("O5", "O5").tensor)
    warm = cache_sizes(crtk_modules())
    # The by-value module assembly, the layouts of presented groups, the tensors
    # of free modules and the rendered tables are among the caches seen.
    assert warm["crtk.crt_core._assemble"] and warm["crtk.zlinalg.layout"]
    assert warm["crtk.tensor._tensor_parts"] and warm["crtk.cli.render_module"]
    clear_caches()
    # A module-level or class-level dict that a run grows is a cache that clear_caches must empty.
    assert dict_sizes_in_this_process() == dict_sizes_at_import()
    assert kunneth._SOLVED == {}
    sizes = cache_sizes(crtk_modules())
    assert sizes
    assert {name: n for name, n in sizes.items() if n} == {}


def test_a_cache_on_a_class_is_seen_and_cleared():
    mod = ModuleType("crtk_like")

    class Holder:
        @staticmethod
        @functools.cache
        def twice(x):
            return 2 * x

    Holder.__module__ = mod.__name__
    mod.Holder = Holder
    Holder.twice(3)
    assert cache_sizes([mod]) == {"crtk_like.Holder.twice": 1}
    clear_module_caches(mod)
    assert cache_sizes([mod]) == {"crtk_like.Holder.twice": 0}


if __name__ == "__main__":
    print(json.dumps(dict_sizes_in_this_process()))
