"""Finite abelian p-groups: torsion counts, automorphism orders, and
brute-force subgroup/injection oracles that are independent of the
polynomial formulas they are used to validate."""
from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian

from .errors import ModeError, ParseError, ResourceBoundError
from .partitions import Partition

DEFAULT_ORDER_LIMIT = 4096


def order_limit():
    """Largest group order the brute-force oracles touch (env-overridable).

    A QMOMENTS_MAX_GROUP_ORDER that is not a positive integer raises
    ParseError.
    """
    raw = os.environ.get("QMOMENTS_MAX_GROUP_ORDER")
    if raw is None:
        return DEFAULT_ORDER_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ParseError(
            "QMOMENTS_MAX_GROUP_ORDER must be a positive integer, got %r" % (raw,)
        )
    return limit


@dataclass(frozen=True)
class PGroup:
    """The group ⊕_i Z/p^{lam_i}, with elements as residue tuples."""

    p: int
    lam: Partition

    def __post_init__(self):
        object.__setattr__(self, "lam", Partition(self.lam))
        if self.p < 2:
            raise ValueError("p must be at least 2")

    @property
    def moduli(self):
        return tuple(self.p**a for a in self.lam)

    @property
    def order(self):
        return self.p**self.lam.size

    def zero(self):
        return (0,) * len(self.lam)

    def elements(self):
        """All residue tuples, the zero tuple first."""
        return cartesian(*(range(m) for m in self.moduli))

    def add(self, g, h):
        return tuple((a + b) % m for a, b, m in zip(g, h, self.moduli))

    def neg(self, g):
        return tuple(-a % m for a, m in zip(g, self.moduli))

    def smul(self, k, g):
        return tuple(k * a % m for a, m in zip(g, self.moduli))

    def order_log(self, g):
        """k such that g has additive order p^k."""
        best = 0
        for a, e in zip(g, self.lam):
            v = 0
            while v < e and a % self.p == 0:
                v += 1
                a //= self.p
            if a:
                best = max(best, e - v)
        return best


def torsion_order(H, k):
    """|H[p^k]|, the number of elements killed by p^k: p^{lam'_1+...+lam'_k}."""
    if k < 0:
        raise ValueError("torsion level must be nonnegative")
    return H.p ** sum(H.lam.conj(j) for j in range(1, k + 1))


def aut_order(lam, p):
    """|Aut(H_lam)| = p^{sum lam'_i^2} * prod_v prod_{i=1}^{m_v} (1 - p^-i)."""
    lam = Partition(lam)
    val = Fraction(p) ** sum(c * c for c in lam.conjugate())
    for v in set(lam):
        for i in range(1, lam.mult(v) + 1):
            val *= 1 - Fraction(1, p**i)
    assert val.denominator == 1 and val > 0
    return int(val)


def auts_order(lam, p):
    """Order of the symplectic-type automorphism group of H_lam x H_lam:
    p^{2*sum lam'_i^2 + |lam|} * prod_v prod_{i=1}^{m_v} (1 - p^-2i)."""
    lam = Partition(lam)
    val = Fraction(p) ** (2 * sum(c * c for c in lam.conjugate()) + lam.size)
    for v in set(lam):
        for i in range(1, lam.mult(v) + 1):
            val *= 1 - Fraction(1, p ** (2 * i))
    assert val.denominator == 1 and val > 0
    return int(val)


def _cyclic_subgroup(H, g):
    """The subgroup generated by one element, as a frozenset."""
    out = [H.zero()]
    x = g
    while x != out[0]:
        out.append(x)
        x = H.add(x, g)
    return frozenset(out)


def _join(H, sub, other):
    """Setwise sum of two subgroups (their join in the subgroup lattice)."""
    return frozenset(H.add(a, b) for a in sub for b in other)


def _subgroup_type(H, sub):
    """Type of a subgroup, classified by its p^k-torsion orders."""
    p = H.p
    conj = []
    prev_log = 0
    while p**prev_log < len(sub):
        k = len(conj) + 1
        t = sum(1 for g in sub if all(v * p**k % m == 0 for v, m in zip(g, H.moduli)))
        log = 0
        while p**log < t:
            log += 1
        assert p**log == t, "torsion subgroup size is not a p-power"
        conj.append(log - prev_log)
        prev_log = log
    return Partition(conj).conjugate()


def enumerate_subgroups(H):
    """Count the subgroups of H of each type.

    Breadth-first closure over the join lattice seeded by all cyclic
    subgroups; every subgroup is a join of cyclic ones, so the closure is
    exhaustive.  Types are read off from torsion orders.
    """
    lim = order_limit()
    if H.order > lim:
        raise ResourceBoundError("group order", lim, H.order)
    cyclics = {_cyclic_subgroup(H, g) for g in H.elements()}
    seen = set(cyclics)
    frontier = list(cyclics)
    while frontier:
        fresh = []
        for sub in frontier:
            for cyc in cyclics:
                if cyc <= sub:
                    continue
                join = _join(H, sub, cyc)
                if join not in seen:
                    seen.add(join)
                    fresh.append(join)
        frontier = fresh
    counts = {}
    for sub in seen:
        mu = _subgroup_type(H, sub)
        counts[mu] = counts.get(mu, 0) + 1
    return counts


def count_subgroups_of_type(H, mu):
    """Number of subgroups of H isomorphic to H_mu."""
    return enumerate_subgroups(H).get(Partition(mu), 0)


def count_injective_homs(lam, H):
    """Number of injective homomorphisms H_lam -> H, by generator-image search.

    Images g_1,...,g_r of the canonical generators are chosen level by
    level.  A partial choice extends to an injection exactly when g_i has
    order p^{lam_i} and the cyclic group it generates meets the span of the
    earlier images trivially; for a cyclic p-group the intersection test
    reduces to whether p^{lam_i - 1} g_i lies in the span.  Spans are built
    explicitly and counts cached per (span, level), which only shares work
    between prefixes generating the same subgroup.
    """
    lam = Partition(lam)
    lim = order_limit()
    for order in (H.order, H.p**lam.size):
        if order > lim:
            raise ResourceBoundError("group order", lim, order)
    if lam.size == 0:
        return 1
    p = H.p
    by_order = {}
    for g in H.elements():
        by_order.setdefault(H.order_log(g), []).append(g)
    last = lam.length - 1
    memo = {}

    def extensions(span, level):
        need = lam.part(level + 1)
        cands = by_order.get(need, ())
        if level == last:
            return sum(1 for g in cands if H.smul(p ** (need - 1), g) not in span)
        got = memo.get((span, level))
        if got is None:
            got = 0
            for g in cands:
                if H.smul(p ** (need - 1), g) in span:
                    continue
                bigger = frozenset(
                    H.add(s, H.smul(k, g)) for s in span for k in range(p**need)
                )
                got += extensions(bigger, level + 1)
            memo[(span, level)] = got
        return got

    return extensions(frozenset((H.zero(),)), 0)


def eval_on_group(T, H):
    """Evaluate a polynomial in x_1,...,x_r at x_k = |H[p^k]|, exactly.

    The polynomial must carry no unspecialized formal parameter; specialize
    it to the group's prime first.
    """
    if T.param is not None:
        raise ModeError(
            "unspecialized %s parameter: substitute the prime before "
            "evaluating on a group" % T.param
        )
    vals = [Fraction(torsion_order(H, k)) for k in range(1, T.nvars + 1)]
    out = T.eval_scalars(vals).constant()
    assert out is not None
    return out
