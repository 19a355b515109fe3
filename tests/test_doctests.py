"""The examples in the docstrings of every crtk module run and hold."""

import doctest
import importlib
import pkgutil

import crtk


def test_module_doctests_pass():
    names = ["crtk"] + [f"crtk.{m.name}" for m in pkgutil.iter_modules(crtk.__path__)]
    results = {name: doctest.testmod(importlib.import_module(name)) for name in names}
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
    # zlinalg alone has three: the module docstring, group_from_presentation, smith_normal_form.
    assert sum(r.attempted for r in results.values()) >= 3
