"""Finite abelian p-groups: the primality test of p, torsion counts,
automorphism orders, and brute-force subgroup/injection oracles that are
independent of the polynomial formulas they are used to validate.

A subgroup count in an elementary group lists each subspace of F_p^r once,
by its reduced row-echelon basis (`_bases`).  Every other count, and the
injection counts, which need the generator tuples, go through one search,
`_spans`: it grows the subgroups of one asked type level by level from
generator tuples of explicit elements, so a count touches only the spans
of that type's prefixes, never the whole subgroup lattice.  Both refuse
(ResourceBoundError) work past MAX_ORACLE_WORK before doing it."""
from __future__ import annotations

import os
from functools import cached_property
from fractions import Fraction
from itertools import combinations, product as cartesian
from math import comb
from operator import add as _add, mod as _mod

from .errors import ModeError, ParseError, ResourceBoundError, UsageError
from .partitions import Partition, subpartitions
from .record import Record

DEFAULT_ORDER_LIMIT = 4096
# the most work one oracle call may take: the reduced row-echelon bases of
# one elementary count, bounded by comb(r, k) * p^(k(r-k)), or, at one level
# of `_spans`, spans times candidate generators times the order of the spans
# the level builds, which bounds its element additions.  Tier-1, the
# acceptance criteria and the benchmark need at most 629,856 (injections
# (2,2) -> (2,2,1) at p = 3).  Over every subgroup, injection and aut query
# with mu inside lam and order at most 4096, the slowest call took 2.2 s on
# a 2-core Xeon.
MAX_ORACLE_WORK = 2 * 10**6

# Miller-Rabin with the first 13 prime bases is exact for every n below
# MAX_PRIME (Sorenson and Webster, Math. Comp. 86 (2017)); a larger p is a
# resource-bound exit.  The first 12 bases alone fail at 3.19e23.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 3317044064679887385961980


def _is_prime(n):
    """Whether n is prime; ResourceBoundError past MAX_PRIME."""
    if n > MAX_PRIME:
        raise ResourceBoundError("prime p", MAX_PRIME, n)
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(p):
    """Refuse (UsageError) a p that is not a prime int: a float, bool or
    composite p would give a count or a value with no meaning."""
    if type(p) is not int or not _is_prime(p):
        raise UsageError("p must be a prime int, got %r" % (p,))


def _check(bound, limit, requested):
    if requested > limit:
        raise ResourceBoundError(bound, limit, requested)


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


class PGroup(Record):
    """The group ⊕_i Z/p^{lam_i}, with elements as residue tuples."""

    p: int
    lam: Partition

    def __post_init__(self):
        object.__setattr__(self, "lam", Partition(self.lam))
        _check_prime(self.p)

    @cached_property
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
        # the inner step of the span search: map over operator functions
        # takes about two thirds of the time of a generator expression
        return tuple(map(_mod, map(_add, g, h), self.moduli))

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


def _unit_factors(lam, p, step):
    """(e, u) with prod_v prod_{i=1}^{m_v} (1 - p^{-step*i}) = u / p^e, in integers."""
    power, prod = 0, 1
    for v in set(lam):
        for i in range(1, lam.mult(v) + 1):
            power += step * i
            prod *= p ** (step * i) - 1
    return power, prod


def aut_order(lam, p):
    """|Aut(H_lam)| = p^{sum lam'_i^2} * prod_v prod_{i=1}^{m_v} (1 - p^-i)."""
    lam = Partition(lam)
    power, prod = _unit_factors(lam, p, 1)
    return p ** (sum(c * c for c in lam.conjugate()) - power) * prod


def auts_order(lam, p):
    """Order of the symplectic-type automorphism group of H_lam x H_lam:
    p^{2*sum lam'_i^2 + |lam|} * prod_v prod_{i=1}^{m_v} (1 - p^-2i)."""
    lam = Partition(lam)
    power, prod = _unit_factors(lam, p, 2)
    return p ** (2 * sum(c * c for c in lam.conjugate()) + lam.size - power) * prod


def _spans(mu, H):
    """{subgroup: number of generator tuples spanning it} over the subgroups
    of H of type mu, found by search on explicit elements.

    Level i holds the spans of the tuples (g_1,...,g_i) in which g_j has
    order p^{mu_j} and p^{mu_j - 1} g_j is not in span(g_1,...,g_{j-1}); for
    a cyclic p-group that is the test that <g_j> meets the earlier span
    trivially, so these tuples are the images of the canonical generators
    under the injections H_mu -> H.  From a span S one candidate g builds
    T = S + <g>; every h in T of the same order with p^{mu_i - 1} h not in S
    gives S + <h> = T (both have |S| p^{mu_i} elements), so T is credited
    with all of them at once and they are skipped for S.  The callers
    check the group order first.
    """
    p = H.p
    order_log = {g: H.order_log(g) for g in H.elements()}
    level = {frozenset((H.zero(),)): 1}
    size = 1
    for need in Partition(mu):
        socle = {
            g: H.smul(p ** (need - 1), g) for g, k in order_log.items() if k == need
        }
        # each (span, candidate) pair builds at most one span of this size
        size *= p**need
        _check("oracle search work", MAX_ORACLE_WORK, len(level) * len(socle) * size)
        grown = {}
        for span, mult in level.items():
            covered = set()
            for g, low in socle.items():
                if g in covered or low in span:
                    continue
                multiples = [g]
                for _ in range(p**need - 2):
                    multiples.append(H.add(multiples[-1], g))
                new = [H.add(s, m) for m in multiples for s in span]
                bigger = span.union(new)
                fresh = [h for h in new if order_log[h] == need and socle[h] not in span]
                covered.update(fresh)
                grown[bigger] = grown.get(bigger, 0) + mult * len(fresh)
        level = grown
    return level


def _bases(p, r, k):
    """Each k-dimensional subspace of F_p^r once, as its reduced row-echelon
    basis: a tuple of k residue tuples of the elementary group of rank r.

    Row i has a 1 at its pivot column c_i, a 0 left of c_i and at every
    other pivot, and any residue at each other column right of c_i; the
    rows' choices are independent, so the bases are their product."""
    for pivots in combinations(range(r), k):
        choices = []
        for c in pivots:
            free = [j for j in range(c + 1, r) if j not in pivots]
            rows = []
            for values in cartesian(range(p), repeat=len(free)):
                row = [0] * r
                row[c] = 1
                for j, v in zip(free, values):
                    row[j] = v
                rows.append(tuple(row))
            choices.append(rows)
        yield from cartesian(*choices)


def enumerate_subgroups(H):
    """Count the subgroups of H of each type mu inside H.lam."""
    return {mu: count_subgroups_of_type(H, mu) for mu in subpartitions(H.lam)}


def count_subgroups_of_type(H, mu):
    """Number of subgroups of H isomorphic to H_mu: in an elementary group
    the reduced row-echelon bases of `_bases`, counted one by one, else the
    spans of `_spans`."""
    _check("group order", order_limit(), H.order)
    mu = Partition(mu)
    if any(a != 1 for a in H.lam + mu):
        return len(_spans(mu, H))
    r, k = H.lam.length, mu.length
    if k <= r:
        _check("oracle search work", MAX_ORACLE_WORK, comb(r, k) * H.p ** (k * (r - k)))
    return sum(1 for _ in _bases(H.p, r, k))


def count_injective_homs(lam, H):
    """Number of injective homomorphisms H_lam -> H: the generator tuples
    of every subgroup of type lam, summed."""
    lam = Partition(lam)
    lim = order_limit()
    for order in (H.order, H.p**lam.size):
        _check("group order", lim, order)
    if lam.size == 0:
        return 1
    return sum(_spans(lam, H).values())


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
    return T.eval_scalars(vals).constant()
