"""Brute-force extension enumeration, the oracle for the Kunneth slot options.

The solver writes each slot extension 0 -> sub -> K -> quot -> 0 down
directly from its class in Ext^1(quot, sub).  This module finds the same
extensions the slow way, with nothing but element arithmetic and search:
every abelian group of order |sub|*|quot|, every injection of sub whose
cokernel is quot, every automorphism of quot on the surjection side, and
deduplication of the (alpha, beta) pairs under the automorphisms of K.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from crtk.zlinalg import (
    FinAbGroup,
    GroupHom,
    ZERO_GROUP,
    hom_cokernel,
    hom_compose,
    hom_preimage,
)

from oracles import _annihilated_elements, automorphisms, hom_from_cols


def _partitions(n: int) -> Iterator[tuple[int, ...]]:
    def rec(n, maxpart):
        if n == 0:
            yield ()
            return
        for first in range(min(n, maxpart), 0, -1):
            for rest in rec(n - first, first):
                yield (first,) + rest
    yield from rec(n, n)


def _group_sort_key(G: FinAbGroup):
    return (G.free_rank, len(G.torsion), G.torsion)


def abelian_groups_of_order(n: int) -> list[FinAbGroup]:
    """All isomorphism classes of abelian groups of order n."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return [ZERO_GROUP]
    factors = {}
    m, p = n, 2
    while p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    per_prime = [[(p, part) for part in _partitions(e)] for p, e in sorted(factors.items())]
    out = []
    for combo in itertools.product(*per_prime):
        width = max(len(part) for _, part in combo)
        invs = []
        for i in range(width):
            v = 1
            for p, part in combo:
                if i < len(part):
                    v *= p ** part[i]
            invs.append(v)
        out.append(FinAbGroup(tuple(sorted(invs))))
    return sorted(out, key=_group_sort_key)


def injections(sub: FinAbGroup, G: FinAbGroup) -> Iterator[GroupHom]:
    """All injective homomorphisms sub -> G (finite groups)."""
    so = sub.order()
    if so is None or G.order() is None:
        raise ValueError("injection enumeration requires finite groups")
    pools = [_annihilated_elements(G, t) for t in sub.torsion]
    for cols in itertools.product(*pools):
        f = hom_from_cols(sub, G, [list(c) for c in cols])
        if len({f.apply(v) for v in sub.elements()}) == so:
            yield f


def extension_candidates(sub: FinAbGroup, quot: FinAbGroup) -> list[FinAbGroup]:
    """Isomorphism classes G fitting 0 -> sub -> G -> quot -> 0."""
    so, qo = sub.order(), quot.order()
    if so is None or qo is None:
        raise ValueError("extension candidates require finite groups")
    if sub.is_trivial():
        return [quot]
    if quot.is_trivial():
        return [sub]
    out = []
    for G in abelian_groups_of_order(so * qo):
        if any(hom_cokernel(f)[0] == quot for f in injections(sub, G)):
            out.append(G)
    return sorted(out, key=_group_sort_key)


def _aut_with_inverse(G: FinAbGroup) -> list[tuple[GroupHom, GroupHom]]:
    out = []
    for u in automorphisms(G):
        cols = [hom_preimage(u, tuple(1 if j == k else 0 for j in range(G.ngens)))
                for k in range(G.ngens)]
        out.append((u, hom_from_cols(G, G, cols)))
    return out


def extension_options(sub: FinAbGroup, quot: FinAbGroup) -> list[tuple[FinAbGroup, GroupHom, GroupHom]]:
    """Every (K, alpha, beta) with 0 -> sub -> K -> quot -> 0 exact, one per
    orbit of Aut(K) acting by (alpha, beta) -> (u alpha, beta u^-1)."""
    options = []
    for K in extension_candidates(sub, quot):
        pairs = []
        for alpha in injections(sub, K):
            Q, proj = hom_cokernel(alpha)
            if Q != quot:
                continue
            base = GroupHom(K, quot, proj.matrix)
            for v, _ in _aut_with_inverse(quot):
                pairs.append((alpha, hom_compose(v, base)))
        seen = set()
        for alpha, beta in pairs:
            key = min((hom_compose(u, alpha).matrix.entries,
                       hom_compose(beta, uinv).matrix.entries)
                      for u, uinv in _aut_with_inverse(K))
            if key not in seen:
                seen.add(key)
                options.append((K, alpha, beta))
    return options


def same_extension(a, b) -> bool:
    """Are two (K, alpha, beta) triples related by an automorphism of K?"""
    K, alpha, beta = a
    L, alpha2, beta2 = b
    if K != L:
        return False
    return any(hom_compose(u, alpha) == alpha2 and hom_compose(beta2, u) == beta
               for u in automorphisms(K))
