"""Named fixtures: base modules, the Cuntz family, resolutions, and the
expected product/tensor/Tor tables used as golden data.

The Cuntz module for parameter k depends on the congruence class of k
modulo 4.  Tables are written for generic parameters and instantiated
with the conventions Z_1 = 0 (generators with invariant 1 vanish) and
entries reduced modulo the target invariants.  Every instantiated module
must pass the relation suite, which doubles as a transcription checksum.

The Cuntz modules, their resolutions and the tables are built and
checked once per argument in a process (functools.cache) and then
shared: modules are frozen and nothing mutates a resolution.  A
CatalogEntry is mutable, so catalog_entry returns a fresh one each call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import gcd
from typing import Optional

from .crt_core import CRTModule, verify_relations, zero_module
from .free_crt import (
    Element,
    FreeMorphism,
    MonogenicKind,
    base_module,
    free_module,
    monogenic,
    realize_morphism,
    scale_element,
    table_module,
)
from .tensor import FreeResolution

def _instantiate(groups_listed: dict, ops_listed: dict) -> CRTModule:
    """Build a module from listed invariants and raw table entries, and check it."""
    M = table_module(groups_listed, ops_listed)
    rep = verify_relations(M)
    if not rep.ok():
        raise ValueError(f"table instantiation fails relations: {rep}")
    return M


def _per4(a, b, c, d):
    return [a, b, c, d, a, b, c, d]


def _per2(a, b):
    return [a, b] * 4


# ---------------------------------------------------------------------------
# The Cuntz family (k >= 1)
# ---------------------------------------------------------------------------


@functools.cache
def cuntz_module(k: int) -> CRTModule:
    """United K-theory of the real Cuntz algebra with parameter k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    Zk = [k]
    if k % 2 == 1:
        groups = {
            "O": [Zk, [], [], [], Zk, [], [], []],
            "U": _per2(Zk, []),
            "T": _per4(Zk, [], [], Zk),
        }
        ops = {
            "c":     [1, 0, 0, 0, 2, 0, 0, 0],
            "r":     [2, 0, 0, 0, 1, 0, 0, 0],
            "eps":   [1, 0, 0, 0, 2, 0, 0, 0],
            "zeta":  [1, 0, 0, 0, 1, 0, 0, 0],
            "psiU":  _per4(1, 0, -1, 0),
            "psiT":  _per4(1, 0, 0, -1),
            "gamma": [1, 0, 0, 0, 1, 0, 0, 0],
            "tau":   [0, 0, 0, 1, 0, 0, 0, 2],
        }
    elif k % 4 == 2:
        groups = {
            "O": [Zk, [2], [4], [2], Zk, [], [], []],
            "U": _per2(Zk, []),
            "T": _per4(Zk, [2], [2], Zk),
        }
        ops = {
            "c":     [1, 0, k // 2, 0, 2, 0, 0, 0],
            "r":     [2, 0, 2, 0, 1, 0, 0, 0],
            "eps":   [1, 1, 1, k // 2, 2, 0, 0, 0],
            "zeta":  _per4(1, 0, k // 2, 0),
            "psiU":  _per4(1, 0, -1, 0),
            "psiT":  _per4(1, 1, 1, -1),
            "gamma": _per4(1, 0, 1, 0),
            "tau":   [1, 2, 1, 1, 0, 0, 0, 2],
        }
    else:
        groups = {
            "O": [Zk, [2], [2, 2], [2], Zk, [], [], []],
            "U": _per2(Zk, []),
            "T": _per4(Zk, [2], [2], Zk),
        }
        ops = {
            "c":     [1, 0, [[0, k // 2]], 0, 2, 0, 0, 0],
            "r":     [2, 0, [[1], [0]], 0, 1, 0, 0, 0],
            "eps":   [1, 1, [[0, 1]], k // 2, 2, 0, 0, 0],
            "zeta":  _per4(1, 0, k // 2, 0),
            "psiU":  _per4(1, 0, -1, 0),
            "psiT":  _per4(1, 1, 1, -1),
            "gamma": _per4(1, 0, 1, 0),
            "tau":   [1, [[1], [0]], 1, 1, 0, 0, 0, 2],
        }
    return _instantiate(groups, ops)


@functools.cache
def cuntz_resolution(k: int) -> FreeResolution:
    """A length-one free resolution of the Cuntz module.

    Odd k: multiplication by k on the real monogenic module.  Even k: the
    complex monogenic module maps onto the kernel of the two-generator
    surjection, its generator going to (k/2)·c(b0) - betaU^-1·c(b2), read
    off the stored c_0 and c_2 in the free complex part (the k/2 multiplier
    is forced by exactness).  FreeResolution validates the image.
    """
    target = cuntz_module(k)
    if k % 2 == 1:
        F = monogenic("R", 0)
        gen = F.generator(0)
        mu1 = FreeMorphism(F, F, [scale_element(gen, k)])
        mu0 = realize_morphism(F, target, [Element("O", 0, (1,) if k > 1 else ())])
        return FreeResolution(F, mu1, F, target, mu0)

    F0 = free_module([MonogenicKind("R", 0), MonogenicKind("R", 2)])
    x0 = Element("O", 0, (1,))
    x2 = Element("O", 2, (1,) if k % 4 == 2 else (0, 1))
    mu0 = realize_morphism(F0, target, [x0, x2])
    b0, b2 = F0.generator(0), F0.generator(1)
    c0, c2 = F0.realized.op("c", 0).apply(b0.vec), F0.realized.op("c", 2).apply(b2.vec)
    y = Element("U", 0, tuple(k // 2 * u - v for u, v in zip(c0, c2)))
    F1 = monogenic("C", 0)
    return FreeResolution(F1, FreeMorphism(F1, F0, [y]), F0, target, mu0)


# ---------------------------------------------------------------------------
# Expected product / tensor / Tor tables
# ---------------------------------------------------------------------------


def _params(k: int, l: int) -> dict:
    g = gcd(k, l)
    out = {"k": k, "l": l, "g": g}
    if k % 2 == 0 and l % 2 == 0:
        out["kp"] = 0 if (k // 2) % g == 0 else 1
        out["lp"] = 0 if (l // 2) % g == 0 else 1
    return out


def expected_product(k: int, l: int) -> CRTModule:
    """The module printed for the product, by congruence case of (k, l)."""
    if k % 2 == 1 or l % 2 == 1:
        return _product_odd(gcd(k, l))
    if k % 4 == 0 and l % 4 == 2:
        k, l = l, k
    if k % 4 == 2 and l % 4 == 2:
        return _product_two_two(gcd(k, l))
    if k % 4 == 2 and l % 4 == 0:
        return _product_two_zero(gcd(k, l))
    return _product_zero_zero(k, l)


def expected_tensor(k: int, l: int) -> CRTModule:
    """Tensor table where the source prints one (k odd, or both 0 mod 4).

    The table printed for an odd gcd g is the Cuntz module of g.
    """
    if k % 2 == 1 or l % 2 == 1:
        return cuntz_module(gcd(k, l))
    if k % 4 == 0 and l % 4 == 0:
        return _tensor_zero_zero(k, l)
    raise ValueError(f"no printed tensor table for (k, l) = ({k}, {l})")


def expected_tor(k: int, l: int) -> CRTModule:
    if k % 2 == 1 or l % 2 == 1:
        # same groups and operations as the tensor in the odd case
        return cuntz_module(gcd(k, l))
    if k % 4 == 0 and l % 4 == 0:
        return _tor_zero_zero(gcd(k, l))
    raise ValueError(f"no printed Tor table for (k, l) = ({k}, {l})")


@functools.cache
def _product_odd(g: int) -> CRTModule:
    Zg = [g]
    groups = {
        "O": [Zg, Zg, [], [], Zg, Zg, [], []],
        "U": [Zg] * 8,
        "T": _per4([g, g], Zg, [], Zg),
    }
    ops = {
        "c":     [1, 1, 0, 0, 2, 2, 0, 0],
        "r":     [2, 2, 0, 0, 1, 1, 0, 0],
        "eps":   [[[1], [0]], 1, 0, 0, [[2], [0]], 2, 0, 0],
        "zeta":  _per4([[1, 0]], 1, 0, 0),
        "psiU":  _per4(1, 1, -1, -1),
        "psiT":  _per4([[1, 0], [0, -1]], 1, 0, -1),
        "gamma": _per4(1, [[0], [1]], 0, 0),
        "tau":   [[[0, 2]], 0, 0, 1, [[0, 1]], 0, 0, 2],
    }
    return _instantiate(groups, ops)


@functools.cache
def _product_two_two(g: int) -> CRTModule:
    h = g // 2
    groups = {
        "O": [[g], [2 * g], [2, 2], [2, 2], [2 * g], [g], [], []],
        "U": [[g]] * 8,
        "T": _per4([g, g], [2 * g], [2, 2], [2 * g]),
    }
    ops = {
        "c":     [1, 1, [[h, h]], 0, 1, 2, 0, 0],
        "r":     [2, 2, 0, [[1], [1]], 2, 1, 0, 0],
        "eps":   [[[0], [1]], 1, [[1, 0], [0, 1]], [[g, g]], [[h], [h + 1]], 2, 0, 0],
        "zeta":  _per4([[h, 1]], 1, [[h, h]], h),
        "psiU":  _per4(1, 1, -1, -1),
        "psiT":  _per4([[-1, 0], [0, 1]], 1, [[1, 0], [0, 1]], -1),
        "gamma": _per4(2, [[1], [h]], g, [[1], [1]]),
        "tau":   [[[g + 2, g]], [[1], [1]], [[1, 0], [0, 1]], 1, [[1, 0]], 0, 0, 1],
    }
    return _instantiate(groups, ops)


@functools.cache
def _product_zero_zero(k: int, l: int) -> CRTModule:
    g = gcd(k, l)
    p = _params(k, l)
    kp, lp = p["kp"], p["lp"]
    h = g // 2
    k2, l2 = k // 2, l // 2
    groups = {
        "O": [[g], [2, g], [2, 2, 2], [2, 2, 2], [2, g], [g], [], []],
        "U": [[g]] * 8,
        "T": _per4([g, g], [2, g], [2, 2], [2, g]),
    }
    # The printed c_3 entry contains an undefined symbol d; it is read as g
    # (the only in-scope parameter, and the value forced by c = zeta.eps).
    ops = {
        "c":     [1, [[0, 1]], [[k2, 0, l2]], [[0, 0, h]], [[0, 2]], 2, 0, 0],
        "r":     [2, [[0], [2]], [[0], [1], [0]], [[lp], [kp], [0]], [[0], [1]], 1, 0, 0],
        "eps":   [[[0], [1]], [[1, 0], [0, 1]], [[1, 0, 0], [0, 0, 1]],
                  [[0, 0, 1], [k2, l2, 0]], [[h, 0], [0, 2]], [[0], [2]], 0, 0],
        "zeta":  _per4([[0, 1]], [[0, 1]], [[k2, l2]], [[h, 0]]),
        "psiU":  _per4(1, 1, -1, -1),
        "psiT":  _per4([[-1, 0], [0, 1]], [[1, 0], [0, 1]], [[1, 0], [0, 1]], [[1, 0], [0, -1]]),
        "gamma": _per4([[0], [1]], [[1], [0]], [[1], [0]], [[lp], [kp]]),
        "tau":   [[[0, 1], [2, 0]], [[0, lp], [1, 0], [0, kp]],
                  [[1, 0], [0, 1], [0, 0]], [[1, 0], [0, 1]], [[1, 0]], 0, 0, [[0, 2]]],
    }
    return _instantiate(groups, ops)


@functools.cache
def _product_two_zero(g: int) -> CRTModule:
    h = g // 2
    groups = {
        "O": [[g], [2, g], [4, 2], [2, 4], [2, g], [g], [], []],
        "U": [[g]] * 8,
        "T": _per4([g, g], [2, g], [2, 2], [2, g]),
    }
    ops = {
        "c":     [1, [[0, 1]], [[h, 0]], [[0, h]], [[0, 2]], 2, 0, 0],
        "r":     [2, [[0], [2]], [[2], [0]], [[0], [2]], [[0], [1]], 1, 0, 0],
        "eps":   [[[0], [1]], [[1, 0], [0, 1]], [[1, 0], [0, 1]],
                  [[0, 1], [h, 0]], [[h, 0], [0, 2]], [[0], [2]], 0, 0],
        "zeta":  _per4([[0, 1]], [[0, 1]], [[h, 0]], [[h, 0]]),
        "psiU":  _per4(1, 1, -1, -1),
        "psiT":  _per4([[-1, 0], [0, 1]], [[1, 0], [0, 1]], [[1, 0], [0, 1]], [[1, 0], [0, -1]]),
        "gamma": _per4([[0], [1]], [[1], [0]], [[1], [0]], [[0], [1]]),
        "tau":   [[[0, 1], [2, 0]], [[2, 0], [0, 1]], [[1, 0], [0, 2]],
                  [[1, 0], [0, 1]], [[1, 0]], 0, 0, [[0, 2]]],
    }
    return _instantiate(groups, ops)


@functools.cache
def _tensor_zero_zero(k: int, l: int) -> CRTModule:
    g = gcd(k, l)
    k2, l2 = k // 2, l // 2
    groups = {
        "O": [[g], [2], [2, 2, 2], [2, 2], [2, g], [2], [], []],
        "U": _per2([g], []),
        "T": _per4([2, g], [2], [2, 2], [g]),
    }
    ops = {
        "c":     [1, 0, [[k2, 0, l2]], 0, [[0, 2]], 0, 0, 0],
        "r":     [2, 0, [[0], [1], [0]], 0, [[0], [1]], 0, 0, 0],
        "eps":   [[[0], [1]], 1, [[1, 0, 0], [0, 0, 1]], [[k2, l2]], [[1, 0], [0, 2]], 0, 0, 0],
        "zeta":  _per4([[0, 1]], 0, [[k2, l2]], 0),
        "psiU":  _per4(1, 0, -1, 0),
        "psiT":  _per4(1, 1, [[1, 0], [0, 1]], -1),
        "gamma": _per4(1, 0, 1, 0),
        "tau":   [[[0, 1]], [[0], [1], [0]], [[1, 0], [0, 1]], [[0], [1]],
                  [[1, 0]], 0, 0, 2],
    }
    return _instantiate(groups, ops)


@functools.cache
def _tor_zero_zero(g: int) -> CRTModule:
    h = g // 2
    groups = {
        "O": [[g], [], [2], [], [h], [], [], []],
        "U": _per2([g], []),
        "T": _per4([g], [], [2], [h]),
    }
    ops = {
        "c":     [1, 0, h, 0, 2, 0, 0, 0],
        "r":     [2, 0, 0, 0, 1, 0, 0, 0],
        "eps":   [1, 0, 1, 0, 2, 0, 0, 0],
        "zeta":  _per4(1, 0, h, 0),
        "psiU":  _per4(1, 0, -1, 0),
        "psiT":  _per4(1, 0, 1, -1),
        "gamma": [1, 0, 0, 0, 1, 0, 0, 0],
        "tau":   [0, 0, 0, 1, 0, 0, 0, 2],
    }
    return _instantiate(groups, ops)


# ---------------------------------------------------------------------------
# Catalog entries and named lookup
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class CatalogEntry:
    name: str
    module: CRTModule
    params: dict = field(default_factory=dict)
    resolution: Optional[FreeResolution] = None


def cuntz(k: int) -> CatalogEntry:
    """Catalog entry for the Cuntz module, with its resolution."""
    res = cuntz_resolution(k)
    return CatalogEntry(f"O{k + 1}", res.target, {"k": k}, res)


def cuntz_parameter(name: str) -> Optional[int]:
    """k for the catalog name O<k+1>, None for R, C, T and zero; KeyError otherwise."""
    if name in ("R", "C", "T", "zero"):
        return None
    digits = name[1:] if name.startswith("O") else ""
    if not (digits.isascii() and digits.isdigit()):
        raise KeyError(f"unknown catalog name {name!r}")
    m = int(digits)
    if m < 2:
        raise KeyError(f"bad Cuntz index in {name!r}")
    return m - 1


def catalog_entry(name: str) -> CatalogEntry:
    """Look up R, C, T, zero, or O<k+1>.

    R, C and T are free_crt.base_module, the modules every free module is
    built from.
    """
    k = cuntz_parameter(name)
    if k is not None:
        return cuntz(k)
    if name == "zero":
        return CatalogEntry("zero", zero_module())
    return CatalogEntry(name, base_module(name))


def catalog_names() -> list[str]:
    return ["R", "C", "T", "zero"] + [f"O{m}" for m in range(2, 14)]
