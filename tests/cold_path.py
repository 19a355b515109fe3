"""The cold path: crtk with its per-process caches emptied.

The pipeline memoises its pure stages by value (fixtures, free modules,
assembled modules, the tensor of a free module, Kunneth solves,
isomorphism searches) and the linear algebra under them (Smith forms,
the layouts of presented groups: direct sums, free tensors, cokernels and
printed tables; kernels, images, cokernels, exactness verdicts, zero
matrices, identities, the cells of a hom that need a well-definedness
test), and the command line renders each table once.  After
`clear_caches` the next call builds, checks, solves and renders
everything again: the oracle for reuse.
"""

from __future__ import annotations

from types import ModuleType

from crtk import catalog, cli, crt_core, free_crt, kunneth, tensor, zlinalg


def clear_module_caches(mod: ModuleType) -> None:
    """Empty every functools cache bound in mod or in a class that mod defines.

    A cache on a class attribute (a memoised staticmethod, say) is reached
    through the class's namespace and the method's __func__.
    """
    spaces = [vars(mod)] + [vars(obj) for obj in vars(mod).values()
                            if isinstance(obj, type) and obj.__module__ == mod.__name__]
    for space in spaces:
        for obj in space.values():
            obj = getattr(obj, "__func__", obj)
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def clear_caches() -> None:
    """Empty every functools cache in crtk's modules and the table of solved problems."""
    for mod in (zlinalg, crt_core, free_crt, tensor, kunneth, catalog, cli):
        clear_module_caches(mod)
    kunneth._SOLVED.clear()
