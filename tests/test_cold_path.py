"""The cold path: clear_caches leaves no per-process cache in crtk holding anything."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import crtk
from crtk import kunneth
from crtk.kunneth import kunneth_pipeline

from cold_path import clear_caches


def crtk_modules():
    return [importlib.import_module(f"crtk.{m.name}") for m in pkgutil.iter_modules(crtk.__path__)]


def dict_sizes_in_this_process() -> dict:
    return {f"{mod.__name__}.{name}": len(obj)
            for mod in crtk_modules() for name, obj in vars(mod).items() if type(obj) is dict}


def dict_sizes_at_import() -> dict:
    """dict_sizes_in_this_process in a fresh interpreter right after import (this file as a script)."""
    src = os.path.dirname(os.path.dirname(crtk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, __file__], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_clear_caches_empties_every_cache():
    kunneth_pipeline("O5", "O5")
    clear_caches()
    # A module-level dict that a run grows is a cache that clear_caches must empty.
    assert dict_sizes_in_this_process() == dict_sizes_at_import()
    assert kunneth._SOLVED == {}
    sizes = {f"{mod.__name__}.{name}": obj.cache_info().currsize
             for mod in crtk_modules() for name, obj in vars(mod).items()
             if callable(getattr(obj, "cache_info", None))}
    assert sizes
    assert {name: n for name, n in sizes.items() if n} == {}


if __name__ == "__main__":
    print(json.dumps(dict_sizes_in_this_process()))
