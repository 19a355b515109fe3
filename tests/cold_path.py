"""The cold path: crtk with its per-process caches emptied.

The pipeline memoises its pure stages by value (fixtures, the tensor of
a free module, Kunneth solves, isomorphism searches) and the linear
algebra under them (Smith forms, kernels, images, cokernels, preimages,
exactness verdicts).  After `clear_caches` the next call
builds, checks and solves everything again: the oracle for reuse.
"""

from __future__ import annotations

from crtk import catalog, crt_core, free_crt, kunneth, tensor, zlinalg


def clear_caches() -> None:
    """Empty every functools cache in crtk's modules and the table of solved problems."""
    for mod in (zlinalg, crt_core, free_crt, tensor, kunneth, catalog):
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    kunneth._SOLVED.clear()
