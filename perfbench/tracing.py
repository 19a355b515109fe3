"""Per-layer accounting by wrapping crtk functions from outside the package.

Each wrapped function is replaced in every crtk module that binds it, and
each copy is attributed to the module that binds it: `from .zlinalg import
hom_compose` in kunneth makes `kunneth.hom_compose` a binding of its own.
Calls reached through a function-local import resolve to the defining
module's binding.  Every call adds to a count and to running totals; no
per-call record is kept, so fine-grained calls stay cheap.  A wrapped
function's self time is its time minus the time of wrapped calls made
inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter

MODULES = ("zlinalg", "crt_core", "free_crt", "tensor", "kunneth", "catalog", "cli")

# Defining module -> functions to wrap.  A name a later version no longer
# defines is reported in `absent`, and its metrics read 0.
WRAPPED = {
    "catalog": ("catalog_entry", "expected_product"),
    "free_crt": ("realize_morphism",),
    "tensor": ("tensor_and_tor",),
    # _extension_options is the whole slot-option stage of the solver.
    "kunneth": ("solve_middle", "split_check", "_extension_options"),
    "crt_core": ("verify_relations", "is_acyclic", "crt_isomorphic"),
    "zlinalg": ("hom_compose", "is_exact_at", "automorphisms", "extension_candidates",
                "injections", "hom_cokernel", "solve_matrix_system", "hom_group_elements"),
}

# Modules whose hom_compose calls are reported one by one.
HOM_COMPOSE_CALLERS = ("kunneth", "crt_core", "tensor", "zlinalg")

# Slot-extension enumeration as the solver drives it.
_EXT_ENUM = ("zlinalg.extension_candidates", "zlinalg.injections",
             "zlinalg.automorphisms", "zlinalg.hom_cokernel")

# Fields of a record.
CALLS, SECONDS, SELF_SECONDS, NON_NONE = range(4)


class Tracer:
    """Counts and times calls of the wrapped functions while installed."""

    def __init__(self):
        # (name, binder) -> [calls, seconds of outermost calls of name,
        # self seconds, calls that returned a value]
        self.records: dict[tuple[str, str], list] = {}
        self.absent: list[str] = []
        self._stack: list[float] = []        # wrapped-children time of each open call
        self._depth: dict[str, list[int]] = {}
        self._undo: list[tuple] = []

    def install(self) -> "Tracer":
        mods = {name: importlib.import_module(f"crtk.{name}") for name in MODULES}
        for layer, names in WRAPPED.items():
            for fname in names:
                original = getattr(mods[layer], fname, None)
                if original is None:
                    self.absent.append(f"{layer}.{fname}")
                    continue
                for binder, mod in mods.items():
                    if getattr(mod, fname, None) is original:
                        setattr(mod, fname, self._wrap(original, f"{layer}.{fname}", binder))
                        self._undo.append((mod, fname, original))
        return self

    def uninstall(self):
        for mod, fname, original in reversed(self._undo):
            setattr(mod, fname, original)
        self._undo.clear()

    def _accounting(self, name: str, binder: str):
        """The record of name called from binder, and (enter, leave) closures
        that account one stretch of running time to it."""
        rec = self.records.setdefault((name, binder), [0, 0.0, 0.0, 0])
        depth = self._depth.setdefault(name, [0])
        stack = self._stack

        def enter() -> float:
            depth[0] += 1
            stack.append(0.0)
            return perf_counter()

        def leave(t0: float):
            dt = perf_counter() - t0
            children = stack.pop()
            if stack:
                stack[-1] += dt
            depth[0] -= 1
            if not depth[0]:
                rec[SECONDS] += dt
            rec[SELF_SECONDS] += dt - children

        return rec, enter, leave

    @contextmanager
    def span(self, name: str):
        """Account a block of harness code like a wrapped call."""
        rec, enter, leave = self._accounting(name, "perfbench")
        rec[CALLS] += 1
        t0 = enter()
        try:
            yield
        finally:
            leave(t0)

    def _wrap(self, fn, name: str, binder: str):
        rec, enter, leave = self._accounting(name, binder)

        if inspect.isgeneratorfunction(fn):
            # Time is spent while the generator runs, not when it is created.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                rec[CALLS] += 1
                it = fn(*args, **kwargs)
                while True:
                    t0 = enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(t0)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec[CALLS] += 1
            t0 = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(t0)
            if result is not None:
                rec[NON_NONE] += 1
            return result
        return wrapper

    # -- totals ----------------------------------------------------------------

    def _sum(self, field: int, name: str, binder: str | None = None) -> float:
        return sum(rec[field] for (n, b), rec in self.records.items()
                   if n == name and binder in (None, b))

    def n_calls(self, name: str, binder: str | None = None) -> int:
        return int(self._sum(CALLS, name, binder))

    def time(self, name: str, binder: str | None = None) -> float:
        return self._sum(SECONDS, name, binder)

    def layer_metrics(self, kept_solutions: int) -> tuple[dict, dict]:
        """The per-layer metrics recorded so far: (counts and ratios of
        counts, which repeat exactly; times in seconds)."""
        raw = self.n_calls("crt_core.verify_relations", "kunneth")
        iso_calls = self.n_calls("crt_core.crt_isomorphic")
        iso_found = self._sum(NON_NONE, "crt_core.crt_isomorphic")
        counts = {
            "kunneth.candidate_solves": self.n_calls("zlinalg.solve_matrix_system", "kunneth"),
            "kunneth.raw_solutions": raw,
            "kunneth.kept_solutions": kept_solutions,
            "kunneth.kept_per_raw": kept_solutions / raw if raw else 0.0,
            "crt_core.iso_found_ratio": iso_found / iso_calls if iso_calls else 0.0,
        }
        seconds = {
            "catalog.entry_s": self.time("catalog.catalog_entry"),
            "catalog.expected_s": self.time("catalog.expected_product"),
            "free_crt.realize_morphism_s": self.time("free_crt.realize_morphism", "catalog"),
            "tensor.tensor_and_tor_s": self.time("tensor.tensor_and_tor"),
            "kunneth.solve_middle_s": self.time("kunneth.solve_middle"),
            "kunneth.solve_self_s": self._sum(SELF_SECONDS, "kunneth.solve_middle"),
            "kunneth.slot_options_s": self.time("kunneth._extension_options"),
            "kunneth.ext_enum_s": sum(self.time(n, "kunneth") for n in _EXT_ENUM),
            "kunneth.candidate_s": (self.time("zlinalg.solve_matrix_system", "kunneth")
                                    + self.time("zlinalg.hom_group_elements", "kunneth")),
            "kunneth.split_check_s": self.time("kunneth.split_check"),
            "cli.render_s": self.time("cli.render"),
        }
        for fn in ("crt_core.verify_relations", "crt_core.is_acyclic", "crt_core.crt_isomorphic",
                   "zlinalg.hom_compose", "zlinalg.is_exact_at", "zlinalg.automorphisms"):
            counts[f"{fn}_calls"] = self.n_calls(fn)
            seconds[f"{fn}_s"] = self.time(fn)
        for binder in HOM_COMPOSE_CALLERS:
            counts[f"zlinalg.hom_compose_calls.{binder}"] = self.n_calls("zlinalg.hom_compose", binder)
            seconds[f"zlinalg.hom_compose_s.{binder}"] = self.time("zlinalg.hom_compose", binder)
        return counts, seconds
