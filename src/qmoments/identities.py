"""Exact verification suite for the q-series and symmetric-function identities."""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

from .errors import ResourceBoundError, UsageError
from .groups import PGroup, _check_prime, aut_order, torsion_order
from .hall_littlewood import b_lambda, hl_p, principal_spec
from .mpoly import MPoly, _unit
from .partitions import Partition, partitions_of, subpartition_count, subpartitions
from .qrat import ONE, UniRat, ZERO, laurent_sum_of_products
from .qseries import euler_coeff, euler_coeff_recip, qbinomial, qpochhammer, qq
from .rbasis import c_coeff, dot_product_conjugates, mirror_poly, qprime_skew
from .record import Record

SYMBOLIC_EXACT = "symbolic-exact"
TRUNCATED_SERIES = "truncated-series"
RANDOM_POINT = "random-point"

MAX_ALPHABET = 4
MAX_ZTRUNC = 12
MAX_FINITE_N = 4
MAX_SYMBOLIC_FINITE_N = 3
MAX_FINITE_K = 3
MAX_QBIN_N = 48
MAX_SERIES_DEGREE = 5
MIN_SAMPLES = 20
MAX_SAMPLES = 500
# the lam identities build a value per subpartition of lam: GENFUN at
# lam = 30^4 (46,376 of them) takes 14 s.  The cost of each value grows
# with lam too (the degree of C_{lam,mu}), which this count does not see.
MAX_SUBPARTITIONS = 10_000

_MANIFEST_PATH = Path(__file__).parent / "data" / "manifest.json"


class IdentityCase(Record):
    """One verification case: an identity id plus its concrete parameters,
    and optionally the strategy they run, which `verify` checks."""

    case_id: str
    params: dict
    strategy: str | None = None


class Mismatch(Record):
    """First failing coefficient: which series, which exponent, both values."""

    label: str
    key: str
    lhs: str
    rhs: str


class VerificationReport(Record):
    """Outcome of one case: pass/fail, localized mismatch, resource usage."""

    case_id: str
    params: dict
    strategy: str
    passed: bool
    mismatch: Mismatch | None
    compared: int
    elapsed: float
    seed: int | None = None

    def as_json(self):
        out = {
            "id": self.case_id,
            "params": dict(self.params),
            "strategy": self.strategy,
            "passed": self.passed,
            "compared": self.compared,
            "elapsed_seconds": round(self.elapsed, 6),
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.mismatch is not None:
            out["mismatch"] = {
                "series": self.mismatch.label,
                "coefficient": self.mismatch.key,
                "lhs": self.mismatch.lhs,
                "rhs": self.mismatch.rhs,
            }
        return out


def _is_zero_value(v):
    return v is None or v == 0


def _values_equal(a, b):
    if a is None or b is None:
        return _is_zero_value(a) and _is_zero_value(b)
    return a == b


def _key_order(k):
    return (len(k), k) if isinstance(k, tuple) else ((0, k),)


def _first_mismatch(label, lhs, rhs):
    """(number of keys of either map, first Mismatch in key order or None)."""
    keys = sorted(set(lhs) | set(rhs), key=_key_order)
    for k in keys:
        a, b = lhs.get(k), rhs.get(k)
        if not _values_equal(a, b):
            return len(keys), Mismatch(label, repr(k), repr(a), repr(b))
    return len(keys), None


def _compare_pairs(pairs, mutate=False):
    """Compare (label, lhs, rhs) triples; return (passed, mismatch, n).

    The sides are key -> value maps, or two MPolys: those are compared on
    their packed forms (`MPoly.compare`) and decoded only to locate the
    first mismatch, or to mutate."""
    if mutate:
        mutated = []
        flipped = False
        for label, lhs, rhs in pairs:
            if isinstance(lhs, MPoly):
                lhs, rhs = lhs.terms, rhs.terms
            rhs = dict(rhs)
            if not flipped:
                for k in sorted(rhs, key=_key_order):
                    if not _is_zero_value(rhs[k]):
                        rhs[k] = -rhs[k]
                        flipped = True
                        break
            mutated.append((label, lhs, rhs))
        pairs = mutated
    compared = 0
    first = None
    for label, lhs, rhs in pairs:
        if isinstance(lhs, MPoly):
            same, n = lhs.compare(rhs)
            if not same and first is None:
                first = _first_mismatch(label, lhs.terms, rhs.terms)[1]
        else:
            n, mismatch = _first_mismatch(label, lhs, rhs)
            if first is None:
                first = mismatch
        compared += n
    return first is None, first, compared


def _mpoly_product(factors, keep=None):
    """The product of `factors` left to right: an MPoly factor is applied by
    `mul(f, keep)` and a scalar one by `scale`.  Scalars before the first
    MPoly multiply as scalars, so a product with no MPoly factor is a
    scalar (ONE for no factors).  `keep` truncates products only, so every
    factor must lie inside it.  The order sets only the cost: put first the
    factors whose products stay small (the cross factors in x_i y_j of two
    alphabets), last those that fill every kept degree."""
    acc = ONE
    for f in factors:
        if isinstance(acc, MPoly):
            acc = acc.mul(f, keep) if isinstance(f, MPoly) else acc.scale(f)
        elif isinstance(f, MPoly):
            acc = f if acc == ONE else f.scale(acc)
        else:
            acc = acc * f
    return acc


def _mpoly_sum(terms, table):
    """The sum over `terms` of their products (`_mpoly_product`), a term
    being a list of hashable names and table[name] its MPoly or scalar.

    A term alone is multiplied left to right in the order of its names.
    Terms that share factors are split as a multivariate Horner scheme
    (Ceberio and Kreinovich, ACM SIGSAM Bulletin 38(1), 2004).  When some
    names are in all n terms, the sum is the inner sum (each term with one
    of each taken out) times all of them at once, in the order of the first
    term.  Otherwise, with f the name whose count c maximises min(c, n - c),
    the sum is (the terms with f, one f taken out) * f plus the terms
    without f: the split halves the terms where it can, so no name that
    sits in nearly every term peels one term at a time.  Ties go to the
    name seen first, so the split, and the order of the products, is the
    same in every process.  The terms with f recurse and the terms without
    f loop, so the depth is at most the length of a term and one partial
    sum is held per level."""
    total = None
    while terms:
        n, counts = len(terms), {}
        for term in terms:
            for name in dict.fromkeys(term):
                counts[name] = counts.get(name, 0) + 1
        if n == 1:
            piece, terms = _mpoly_product([table[name] for name in terms[0]]), []
        elif not counts:
            # every term is the empty product 1
            piece, terms = UniRat.const(n), []
        else:
            shared = [name for name in dict.fromkeys(terms[0]) if counts[name] == n]
            if not shared:
                shared = [max(counts, key=lambda name: min(counts[name], n - counts[name]))]
            inside, outside = [], []
            for term in terms:
                if shared[0] in term:
                    term = list(term)
                    for name in shared:
                        term.remove(name)
                    inside.append(term)
                else:
                    outside.append(term)
            piece = _mpoly_product([_mpoly_sum(inside, table)] + [table[name] for name in shared])
            terms = outside
        total = piece if total is None else total + piece
    return ZERO if total is None else total


def _geom(v, cap, e, ratio=False):
    """Truncated expansion of 1/(1 - q^e x^v) up to (x^v)^cap, for the
    exponent tuple v of a monomial; with `ratio`, of (1 - x^v)/(1 - q^e x^v),
    which is 1, then q^(e*t) - q^(e*(t-1)) at (x^v)^t."""
    terms = {tuple(t * a for a in v): UniRat.mono("q", e * t) for t in range(cap + 1)}
    if ratio:  # times 1 - x^v
        for t, k in enumerate(terms):
            terms[k] = terms[k] - UniRat.mono("q", e * t - e) if t else ONE
    return MPoly(terms, len(v), "q")


def _afac(r, one, a):
    """(a; 1/q)_r = prod_{t<r} (1 - a*q^{-t}) as shapes (`_mpoly_shapes`),
    for the exponent tuples of 1 and of the variable a."""
    return [(one, -t, a) for t in range(r)]


def _mpoly_shapes(shapes):
    """The product of `shapes` as an MPoly (ONE for no shape), each shape
    (u, s, v) the binomial x^u - q^s x^v, or the monomial q^s x^u when v is
    None, for exponent tuples u and v."""
    return _mpoly_product(
        MPoly.two_term(u, v, s, "q") if v is not None else MPoly.mono(u, UniRat.mono("q", s), "q")
        for u, s, v in shapes
    )


def _partitions_upto(d, n, k=None):
    """Every lam of size <= d with at most n parts (so P_lam(x_1..x_n) is
    nonzero, being monic in x^lam), each part <= k when k is given."""
    return [lam for m in range(d + 1) for lam in partitions_of(m, max_part=k, max_length=n)]


# ---------------------------------------------------------------------------
# runners: each returns a list of (label, lhs, rhs) triples, both sides
# key -> value maps or both MPolys
# ---------------------------------------------------------------------------


def _run_qbin(params, rng):
    n = int(params["n"])
    lhs = {}
    for k in range(n + 1):
        lhs[k] = qbinomial(n, k) * UniRat.mono("q", math.comb(k, 2), (-1) ** k)
    coeffs = [ONE]
    for j in range(n):
        nxt = [ZERO] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] = nxt[i] + c
            nxt[i + 1] = nxt[i + 1] - c * UniRat.mono("q", j)
        coeffs = nxt
    rhs = {k: coeffs[k] for k in range(n + 1)}
    return [("z-coefficients", lhs, rhs)]


def _run_euler(params, rng):
    n = int(params["zmax"])
    lhs = {j: UniRat.mono("q", j) / qq(j) for j in range(n + 1)}
    series = qpochhammer((1, 1), math.inf, trunc=n, zpow=1).inverse()
    rhs = {j: series.coeff_at(j) for j in range(n + 1)}
    return [("z-coefficients", lhs, rhs)]


def _run_genfun(params, rng):
    lam = Partition(tuple(params["lam"]))
    p = int(params["p"])
    n = int(params["zmax"])
    lhs = {}
    for m in range(n + 1):
        acc = Fraction(0)
        for mu in partitions_of(m):
            group = PGroup(p, mu)
            value = 1
            for part in lam:
                value *= torsion_order(group, part)
            acc += Fraction(value, aut_order(mu, p))
        lhs[m] = acc
    cvals = {}
    for nu in subpartitions(lam):
        cvals[nu.size] = cvals.get(nu.size, Fraction(0)) + c_coeff(lam, nu).eval_at(
            Fraction(p)
        )
    rhs = {}
    invp = Fraction(1, p)
    for m in range(n + 1):
        acc = Fraction(0)
        for j in range(m + 1):
            inner = cvals.get(m - j)
            if inner is None:
                continue
            acc += euler_coeff_recip(j, 1).eval_at(invp) * inner
        rhs[m] = acc
    return [("z-coefficients", lhs, rhs)]


def _run_combinat(params, rng):
    lam = Partition(tuple(params["lam"]))
    n = int(params["zmax"])
    lamc = lam.conjugate()
    route_a = {}
    for m in range(n + 1):
        acc = ZERO
        for mu in partitions_of(m):
            expo = sum(v * v for v in mu) - sum(
                lamc[i] * mu[i] for i in range(min(len(lamc), len(mu)))
            )
            acc = acc + UniRat.mono("q", expo) / b_lambda(mu.conjugate())
        route_a[m] = acc
    cvals = {}
    for nu in subpartitions(lam):
        cvals[nu.size] = cvals.get(nu.size, ZERO) + c_coeff(lam, nu).recip_param()
    route_b = {}
    for m in range(n + 1):
        acc = ZERO
        for j in range(m + 1):
            inner = cvals.get(m - j)
            if inner is None:
                continue
            acc = acc + euler_coeff_recip(j, 1) * inner
        route_b[m] = acc
    route_c = {}
    for m in range(n + 1):
        acc = ZERO
        for mu in partitions_of(m):
            ip = dot_product_conjugates(lam, mu)
            weight = UniRat.mono("q", mu.size + mu.nstat() - ip)
            principal = principal_spec(mu, math.inf)
            acc = acc + weight * principal
        route_c[m] = acc
    return [
        ("combinatorial-vs-inversion", route_a, route_b),
        ("principal-vs-inversion", route_c, route_b),
    ]


def _column_bounded_lhs(lam, ell, n, b, c):
    """z-coefficients up to z^n of the sum over mu with parts <= ell of
    q^{b(2n(mu) - <lam',mu'>) + c|mu|} / b_mu(q^b) times
    (z^b q^{b mu'_ell + 1}; q^b)_inf, the j-th term of that product at
    z^{b(|mu| + j)}.  UMOY_ABELIAN is b = 1 and UMOY_TYPE_S is b = 2, both
    with c = 1; DELAUNAY is b = 1, c = 0 and lam empty.  Every key up to n
    is present, so the odd keys of type S hold ZERO."""
    if lam and lam[0] > ell:
        raise UsageError("largest part must not exceed the torsion exponent bound")
    lhs = {m: ZERO for m in range(n + 1)}
    for m in range(n // b + 1):
        for mu in partitions_of(m, max_part=ell):
            ip = dot_product_conjugates(lam, mu)
            bmu = ONE
            for v in set(mu):
                bmu = bmu * qq(mu.mult(v), base=b)
            weight = UniRat.mono("q", b * (2 * mu.nstat() - ip) + c * m) / bmu
            spow = b * mu.conj(ell) + 1
            for j in range((n - b * m) // b + 1):
                key = b * (m + j)
                lhs[key] = lhs[key] + weight * euler_coeff(j, spow, base=b)
    return lhs


def _run_umoy(params, b):
    """UMOY_ABELIAN (b = 1) and UMOY_TYPE_S (b = 2): the column-bounded sum
    against sum_nu C_{lam,nu}(q^-b) q^{(1-b)|nu|} z^{b|nu|}."""
    lam = Partition(tuple(params["lam"]))
    n = int(params["zmax"])
    lhs = _column_bounded_lhs(lam, int(params["ell"]), n, b, 1)
    rhs = {m: ZERO for m in range(n + 1)}
    for nu in subpartitions(lam):
        key = b * nu.size
        if key <= n:
            v = c_coeff(lam, nu).recip_param().pow_param(b)
            rhs[key] = rhs[key] + v * UniRat.mono("q", (1 - b) * nu.size)
    return [("z-coefficients", lhs, rhs)]


def _run_delaunay(params, rng):
    ell = int(params["ell"])
    n = int(params["zmax"])
    lhs = _column_bounded_lhs(Partition(()), ell, n, 1, 0)
    rhs = {m: (ONE if m <= ell else ZERO) for m in range(n + 1)}
    return [("z-coefficients", lhs, rhs)]


def _q_powers(terms):
    """("q", e) -> q^e for every ("q", e) name in `terms`."""
    return {name: UniRat.mono("q", name[1]) for term in terms for name in term if name[0] == "q"}


def _run_qbinhl(params, rng):
    nx = int(params["nx"])
    d = int(params["d"])
    nv = nx + 1
    a_slot = nx
    keep = ((0, nx, d),)  # the total degree in x is at most d
    one, a = _unit(nv), _unit(nv, a_slot)
    lams = _partitions_upto(d, nx)
    terms = [[("x", lam), ("afac", len(lam)), ("q", lam.nstat())] for lam in lams]
    table = _q_powers(terms)
    table.update((("x", lam), hl_p(lam, nx).poly.embed(nv, 0)) for lam in lams)
    table.update((("afac", r), _mpoly_shapes(_afac(r, one, a))) for r in range(nx + 1))
    lhs = _mpoly_sum(terms, table)
    cauchy = _mpoly_product(
        [MPoly.one(nv, "q")] + [_geom(_unit(nv, i), d, 0) for i in range(nx)], keep
    )
    num = [MPoly.two_term(one, _unit(nv, i, a_slot), 0, "q") for i in range(nx)]
    rhs = _mpoly_product([cauchy] + num, keep)
    lhs0 = lhs.subs_scalar(a_slot, Fraction(0))
    return [("main", lhs, rhs), ("cauchy-at-a-zero", lhs0, cauchy)]


def _run_warnaar_a2(params, rng):
    nx, ny = int(params["nx"]), int(params["ny"])
    dx, dy = int(params["dx"]), int(params["dy"])
    nv = nx + ny
    keep = ((0, nx, dx), (nx, nv, dy))  # degree in x at most dx, in y at most dy
    lams, mus = _partitions_upto(dx, nx), _partitions_upto(dy, ny)
    terms = [
        [("x", lam), ("y", mu), ("q", lam.nstat() + mu.nstat() - dot_product_conjugates(lam, mu))]
        for lam in lams
        for mu in mus
    ]
    table = _q_powers(terms)
    table.update((("x", lam), hl_p(lam, nx).poly.embed(nv, 0)) for lam in lams)
    table.update((("y", mu), hl_p(mu, ny).poly.embed(nv, nx)) for mu in mus)
    lhs = _mpoly_sum(terms, table)
    # cross factors first: their product has only terms of equal degree in
    # x and y; the one-alphabet series, which fill every kept degree, last
    cross = [_unit(nv, i, j) for i in range(nx) for j in range(nx, nv)]
    factors = [MPoly.one(nv, "q")] + [_geom(t, min(dx, dy), -1, ratio=True) for t in cross]
    factors += [_geom(_unit(nv, i), dx, 0) for i in range(nx)]
    factors += [_geom(_unit(nv, j), dy, 0) for j in range(nx, nv)]
    return [("xy-coefficients", lhs, _mpoly_product(factors, keep))]


def _run_lascoux(params, rng):
    nx, ny = int(params["nx"]), int(params["ny"])
    dx, dy = int(params["dx"]), int(params["dy"])
    nv = nx + ny
    keep = ((0, nx, dx), (nx, nv, dy))  # degree in x at most dx, in y at most dy
    lams = _partitions_upto(dx, nx)
    table, terms = {}, []
    for lam in lams:
        table["x", lam] = hl_p(lam, nx).poly.embed(nv, 0)
        for mu in subpartitions(lam):
            if len(mu) > ny or mu.size > dy:
                continue
            table["y", mu] = hl_p(mu, ny).poly.embed(nv, nx)
            table["c", lam, mu] = b_lambda(mu) * qprime_skew(lam, mu)
            terms.append([("x", lam), ("y", mu), ("c", lam, mu)])
    factors = [MPoly.one(nv, "q")]
    for i in range(nx):
        for j in range(nx, nv):
            factors.append(_geom(_unit(nv, i, j), min(dx, dy), 0))
            factors.append(MPoly.two_term(_unit(nv), _unit(nv, i, j), 1, "q"))
    factors += [_geom(_unit(nv, i), dx, 0) for i in range(nx)]
    pairs = [("xy-coefficients", _mpoly_sum(terms, table), _mpoly_product(factors, keep))]

    # principal one-variable y specialization: marker z at y -> z
    nvz = nx + 1
    z_slot = nx
    keepz = ((0, nx, dx), (z_slot, nvz, dx))
    table, terms = {}, []
    for lam in lams:
        table["x", lam] = hl_p(lam, nx).poly.embed(nvz, 0)
        for mu in subpartitions(lam):
            table["z", mu.size] = MPoly.mono((0,) * nx + (mu.size,), 1, "q")
            table["c", lam, mu] = c_coeff(lam, mu).recip_param()
            terms.append([("x", lam), ("z", mu.size), ("c", lam, mu), ("q", lam.nstat())])
    table.update(_q_powers(terms))
    factors = [MPoly.one(nvz, "q")] + [_geom(_unit(nvz, i, z_slot), dx, 0) for i in range(nx)]
    factors += [_geom(_unit(nvz, i), dx, 0) for i in range(nx)]
    pairs.append(("principal-y", _mpoly_sum(terms, table), _mpoly_product(factors, keepz)))

    mirr_lhs, mirr_rhs = {}, {}
    for lam in lams:
        by_size = {}
        for mu in subpartitions(lam):
            by_size[mu.size] = by_size.get(mu.size, ZERO) + c_coeff(
                lam, mu
            ).recip_param()
        ladder = mirror_poly(lam)
        for k, v in by_size.items():
            mirr_lhs[(str(tuple(lam)), k)] = v
            mirr_rhs[(str(tuple(lam)), k)] = ladder[k].recip_param()
    pairs.append(("mirror-consistency", mirr_lhs, mirr_rhs))
    return pairs


def _finite_lhs_terms(n, k):
    """(lam, P_lam(x_1..x_n)) for every lam in the n x k box."""
    return [(lam, hl_p(lam, n).poly) for lam in _partitions_upto(n * k, n, k)]


def _run_finite_qbinhl(params, rng):
    n, k = int(params["n"]), int(params["k"])
    if "samples" in params:
        return _finite_qbinhl_random(n, k, int(params["samples"]), rng)
    if n > MAX_SYMBOLIC_FINITE_N:
        # n = 4, k = 1 compares 276,300 coefficients in about 47 s
        raise ResourceBoundError("symbolic finite alphabet size", MAX_SYMBOLIC_FINITE_N, n)
    return _finite_qbinhl_symbolic(n, k)


def _finite_qbinhl_cleared(n, k):
    """Both sides of FINITE_QBINHL times the denominator D of its rhs, as
    products of named factors.

    Returns (lhs, dfac, rhs, shapes): lhs * D is the sum over the terms of
    `lhs` times the product of `dfac`, and rhs * D is the sum over the
    terms of `rhs`; a term is a list of factor names and stands for their
    product.  D is the product of `dfac`: x_i - q^{1-s} ("pole-x"),
    1 - x_j q^s ("pole-one") and x_i - x_j ("vand").  The rhs term of a
    subset S of the alphabet is N_S over the factors of D that S uses, so
    it enters as N_S times the factors S does not use, and both sides are
    polynomials in x and a.  ("P", lam) names P_lam(x) and ("q", e) names
    q^e; `shapes` maps every other name to the shapes whose product it is
    (`_mpoly_shapes`), with exponent tuples over x_1..x_n, a.
    """
    lhs = [
        [("P", lam), ("afac", len(lam)), ("afac", n - lam.mult(k)), ("q", lam.nstat())]
        for lam in _partitions_upto(n * k, n, k)
    ]
    dfac = [("pole-x", i, s) for i in range(n) for s in range(1, n + 1)]
    dfac += [("pole-one", j, s) for j in range(n) for s in range(n)]
    dfac += [("vand", i, j) for i in range(n) for j in range(n) if i != j]
    rhs = []
    for bits in itertools.product((0, 1), repeat=n):
        inset = [i for i in range(n) if bits[i]]
        outset = [j for j in range(n) if not bits[j]]
        s0 = len(inset)
        used = set()
        term = [("q", k * math.comb(s0, 2)), ("afac", s0), ("afac", n - s0)]
        for i in inset:
            # x_i^k * (x_i - a*q^{1-n}) over the pole (x_i - q^{1-s0})
            term += [("num-x", i), ("xpow", i)]
            used.add(("pole-x", i, s0))
        for j in outset:
            # (1 - a*x_j) over the pole (1 - x_j*q^{s0})
            term.append(("num-one", j))
            used.add(("pole-one", j, s0))
        for i in inset:
            for j in outset:
                # (x_i - q*x_j) over (x_i - x_j)
                term.append(("num-vand", i, j))
                used.add(("vand", i, j))
        rhs.append(term + [key for key in dfac if key not in used])
    nv = n + 1
    one, a = _unit(nv), _unit(nv, n)
    shapes = {("afac", r): _afac(r, one, a) for r in range(n + 1)}
    for i in range(n):
        x = _unit(nv, i)
        shapes["num-x", i] = [(x, 1 - n, a)]
        shapes["xpow", i] = [(_unit(nv, *[i] * k), 0, None)]
        shapes["num-one", i] = [(one, 0, _unit(nv, i, n))]
        for s in range(1, n + 1):
            shapes["pole-x", i, s] = [(x, 1 - s, one)]
        for s in range(n):
            shapes["pole-one", i, s] = [(one, s, x)]
        for j in range(n):
            if i != j:
                shapes["vand", i, j] = [(x, 0, _unit(nv, j))]
                shapes["num-vand", i, j] = [(x, 1, _unit(nv, j))]
    return lhs, dfac, rhs, shapes


def _laurent_shapes(shapes, point):
    """`shapes` (`_mpoly_shapes`) at a rational point, given as the
    (numerator, denominator) of each variable, as Laurent factors
    (c, low, d): x^u - q^s x^v = (N_u D_v - N_v D_u q^s) / (D_u D_v)."""
    out = []
    for u, s, v in shapes:
        nu, du = _power(point, u)
        if v is None:
            out.append(((nu,), s, du))
            continue
        nv, dv = _power(point, v)
        c0, c1 = nu * dv, -nv * du
        if s == 0:
            out.append(((c0 + c1,), 0, du * dv))
        elif s > 0:
            out.append(((c0,) + (0,) * (s - 1) + (c1,), 0, du * dv))
        else:
            out.append(((c1,) + (0,) * (-s - 1) + (c0,), s, du * dv))
    return out


def _power(point, u):
    """(N_u, D_u): x^u at `point` as an unreduced numerator and denominator."""
    num = den = 1
    for (p, m), e in zip(point, u):
        if e:
            num, den = num * p**e, den * m**e
    return num, den


def _laurent_factor(v):
    """A UniRat with a monomial denominator c*q^e as the factor (num, -e, c)."""
    return (v.num, 1 - len(v.den), v.den[-1])


def _finite_qbinhl_symbolic(n, k):
    lhs_terms, dfac, rhs_terms, shapes = _finite_qbinhl_cleared(n, k)
    table = {name: _mpoly_shapes(s) for name, s in shapes.items()}
    table.update(_q_powers(lhs_terms + rhs_terms))
    table.update((("P", lam), pl.embed(n + 1, 0)) for lam, pl in _finite_lhs_terms(n, k))
    lhs = _mpoly_product([_mpoly_sum(lhs_terms, table)] + [table[name] for name in dfac])
    rhs = _mpoly_sum(rhs_terms, table)
    if not isinstance(rhs, MPoly):  # n = 0: every rhs factor is a scalar
        rhs = MPoly.const(rhs, n + 1, "q")
    return [("cleared-coefficients", lhs, rhs)]


def _sample_points(n, samples, rng):
    """`samples` random points (x_1..x_n, a): distinct x_i outside
    {0, 1, -1}, so no factor of the cleared denominator is 0."""
    points = []
    for _ in range(samples):
        xs = []
        while len(xs) < n:
            v = Fraction(rng.randint(2, 60), rng.randint(1, 17))
            if v in (0, 1, -1) or v in xs:
                continue
            xs.append(v)
        points.append((xs, Fraction(rng.randint(2, 40), rng.randint(1, 17))))
    return points


def _finite_qbinhl_random(n, k, samples, rng):
    """Both cleared sides at `samples` random points (`_sample_points`),
    each sum on one certified slot width (`laurent_sum_of_products`)."""
    p_lams = _finite_lhs_terms(n, k)
    lhs_terms, dfac, rhs_terms, shapes = _finite_qbinhl_cleared(n, k)
    q_powers = {name: [((1,), name[1], 1)] for name in _q_powers(lhs_terms + rhs_terms)}
    points = _sample_points(n, samples, rng)
    p_values = [(("P", lam), pl.eval_points([xs for xs, _ in points])) for lam, pl in p_lams]
    lhs_map, rhs_map = {}, {}
    for idx, (xs, a) in enumerate(points):
        point = [(v.numerator, v.denominator) for v in xs + [a]]
        table = {name: _laurent_shapes(s, point) for name, s in shapes.items()}
        table.update(q_powers)
        table.update((name, [values[idx]]) for name, values in p_values)
        factors = lambda term: [f for name in term for f in table[name]]
        inner = laurent_sum_of_products([factors(t) for t in lhs_terms], "q")
        lhs_map[idx] = laurent_sum_of_products([[_laurent_factor(inner)] + factors(dfac)], "q")
        rhs_map[idx] = laurent_sum_of_products([factors(t) for t in rhs_terms], "q")
    return [("sample-points (cleared)", lhs_map, rhs_map)]


def _run_csq(params, rng):
    n, k = int(params["n"]), int(params["k"])
    nv = 2  # variables: z, a
    zero, z, a, za = (0, 0), (1, 0), (0, 1), (1, 1)
    qn = qq(n)
    table = {("afac", r): _mpoly_shapes(_afac(r, zero, a)) for r in range(n + 1)}
    table.update((("z", e), MPoly.mono((e, 0), 1, "q")) for e in range(n * k + 1))
    table.update((("dz", j), MPoly.two_term(zero, z, j, "q")) for j in range(-1, 2 * n))
    table.update((("dza", s), MPoly.two_term(zero, za, s, "q")) for s in range(n))
    table.update((("z-a", s), MPoly.two_term(z, a, s, "q")) for s in range(2 - 2 * n, 2 - n))

    lhs_terms = []
    for lam in _partitions_upto(n * k, n, k):
        ell = len(lam)
        table["lam", lam] = UniRat.mono("q", 2 * lam.nstat()) * qn / (qq(n - ell) * b_lambda(lam))
        lhs_terms.append([("z", lam.size), ("lam", lam), ("afac", ell), ("afac", n - lam.mult(k))])
    dz = [table["dz", j] for j in range(-1, 2 * n)]
    lhs = _mpoly_product([_mpoly_sum(lhs_terms, table)] + dz)

    rhs_terms = []
    for r in range(n + 1):
        scal = UniRat.mono("q", (2 * k + 3) * math.comb(r, 2), (-1) ** r) / qq(r)
        # finite factor (q^{n-r+1}; q)_r
        for t in range(r):
            scal = scal * (ONE - UniRat.mono("q", n - r + 1 + t))
        table["r", r] = scal
        term = [("z", k * r), ("r", r), ("dz", 2 * r - 1)]
        term += [("dza", r + t) for t in range(n - r)]
        term.append(("afac", r))
        term += [("z-a", 1 - n - t) for t in range(r)]
        term.append(("afac", n - r))
        term += [("dz", j) for j in range(-1, 2 * n) if not (r - 1 <= j <= r + n - 1)]
        rhs_terms.append(term)
    return [("cleared-coefficients", lhs, _mpoly_sum(rhs_terms, table))]


def _run_mirror_swap(params, rng):
    lam = Partition(tuple(params["lam"]))
    by_size = {}
    for nu in subpartitions(lam):
        by_size[nu.size] = by_size.get(nu.size, ZERO) + c_coeff(lam, nu).recip_param()
    m = lam.size
    pal_lhs = {j: by_size.get(j, ZERO) for j in range(m + 1)}
    pal_rhs = {j: by_size.get(m - j, ZERO) for j in range(m + 1)}
    pairs = [("palindrome", pal_lhs, pal_rhs)]
    sw_lhs, sw_rhs = {}, {}
    for u in (1, 2):
        left = ZERO
        right = ZERO
        for j, v in by_size.items():
            left = left + v * UniRat.mono("q", -j * u)
            right = right + v * UniRat.mono("q", j * u)
        sw_lhs[u] = left
        sw_rhs[u] = UniRat.mono("q", -m * u) * right
    pairs.append(("swap", sw_lhs, sw_rhs))
    return pairs


class Identity(Record):
    """A registered identity: `run(params, rng)` returns its (label, lhs,
    rhs) triples; `strategies` are the checks it has, the first one the
    default (a random-point check reads `samples` too); `params` maps each
    param the runner reads to its (error label, limit) bound, or to None."""

    run: object
    strategies: tuple
    params: dict


_SERIES = (TRUNCATED_SERIES,)
_EXACT = (SYMBOLIC_EXACT,)
_Z = ("z truncation", MAX_ZTRUNC)
_ALPHABET = ("alphabet size", MAX_ALPHABET)
_DEGREE = ("series degree", MAX_SERIES_DEGREE)
_LAM = ("subpartitions of lam", MAX_SUBPARTITIONS)
_LAM_ELL_Z = {"lam": _LAM, "ell": None, "zmax": _Z}
_TWO_ALPHABETS = {"nx": _ALPHABET, "ny": _ALPHABET, "dx": _DEGREE, "dy": _DEGREE}
_FINITE = {"n": ("alphabet size", MAX_FINITE_N), "k": ("column bound", MAX_FINITE_K)}

REGISTRY = {
    "QBIN": Identity(_run_qbin, _EXACT, {"n": ("QBIN degree", MAX_QBIN_N)}),
    "EULER": Identity(_run_euler, _SERIES, {"zmax": _Z}),
    "GENFUN": Identity(_run_genfun, _SERIES, {"lam": _LAM, "p": None, "zmax": _Z}),
    "COMBINAT": Identity(_run_combinat, _SERIES, {"lam": _LAM, "zmax": _Z}),
    "UMOY_ABELIAN": Identity(lambda params, rng: _run_umoy(params, 1), _SERIES, _LAM_ELL_Z),
    "UMOY_TYPE_S": Identity(lambda params, rng: _run_umoy(params, 2), _SERIES, _LAM_ELL_Z),
    "DELAUNAY": Identity(_run_delaunay, _SERIES, {"ell": None, "zmax": _Z}),
    "QBINHL": Identity(_run_qbinhl, _SERIES, {"nx": _ALPHABET, "d": _DEGREE}),
    "WARNAAR_A2": Identity(_run_warnaar_a2, _SERIES, _TWO_ALPHABETS),
    "LASCOUX": Identity(_run_lascoux, _SERIES, _TWO_ALPHABETS),
    "FINITE_QBINHL": Identity(_run_finite_qbinhl, (SYMBOLIC_EXACT, RANDOM_POINT), _FINITE),
    "CSQ": Identity(_run_csq, _EXACT, _FINITE),
    "MIRROR_SWAP": Identity(_run_mirror_swap, _EXACT, {"lam": _LAM}),
}

IDENTITY_IDS = tuple(sorted(REGISTRY))

# the params whose least value is above 0: the column bound k, the torsion
# exponent ell (p^ell-torsion needs ell >= 1) and the random sample points
_LEAST = {"k": 1, "ell": 1, "samples": MIN_SAMPLES}


def verify(case, mutate=False):
    """Run one case and report pass/fail with the first mismatching coefficient.

    A missing, malformed or too small param (`_LEAST`, else 0; an int param
    must be an int and not a bool, and `lam` one that `Partition` takes, its
    bound being on `subpartition_count`),
    a composite `p`, a `seed` that is not an int (a bool included),
    `samples` for an identity with no random-point check, or a
    `case.strategy` other than the one the params run (random-point with
    `samples`, else the identity's first), raises UsageError and a param
    over its bound raises ResourceBoundError, before any work."""
    identity = REGISTRY.get(case.case_id)
    if identity is None:
        raise UsageError("unknown identity id: %r" % (case.case_id,))
    missing = [name for name in identity.params if name not in case.params]
    if missing:
        raise UsageError("%s needs %s" % (case.case_id, ", ".join(missing)))
    bounds = dict(identity.params)
    if "samples" in case.params:
        if RANDOM_POINT not in identity.strategies:
            raise UsageError("%s has no random-point check, so no samples" % case.case_id)
        bounds["samples"] = ("random sample points", MAX_SAMPLES)
    strategy = RANDOM_POINT if "samples" in case.params else identity.strategies[0]
    if case.strategy not in (None, strategy):
        raise UsageError("%s with these params runs the %s check, not %r"
                         % (case.case_id, strategy, case.strategy))
    for name, bound in bounds.items():
        value = case.params[name]
        if name == "lam":
            # Partition raises ParseError, a UsageError, unless ints weakly
            # decreasing; the bound is on the number of subpartitions
            value = subpartition_count(Partition(value), bound[1])
        elif type(value) is not int:
            # a float, bool or string would run as another case (bool is an int)
            raise UsageError("%s has a malformed %s: %r is not an int" % (case.case_id, name, value))
        least = _LEAST.get(name, 0)
        if value < least:
            raise UsageError("%s needs %s >= %d, got %d" % (case.case_id, name, least, value))
        if bound is not None and value > bound[1]:
            raise ResourceBoundError(bound[0], bound[1], value)
    if "p" in identity.params:
        _check_prime(case.params["p"])
    seed = case.params.get("seed")
    if seed is not None and type(seed) is not int:  # bool is an int subclass
        raise UsageError("%s has a malformed seed: %r is not an int" % (case.case_id, seed))
    rng = random.Random(seed if seed is not None else 0)
    start = time.perf_counter()
    pairs = identity.run(case.params, rng)
    passed, mismatch, compared = _compare_pairs(pairs, mutate=mutate)
    elapsed = time.perf_counter() - start
    return VerificationReport(
        case_id=case.case_id,
        params=dict(case.params),
        strategy=strategy,
        passed=passed,
        mismatch=mismatch,
        compared=compared,
        elapsed=elapsed,
        seed=seed,
    )


def load_manifest(path=None):
    """Read the case manifest; returns (version, seed, list of IdentityCase).
    An unreadable or malformed file raises UsageError."""
    path = Path(path or _MANIFEST_PATH)
    try:
        raw = json.loads(path.read_text())
        cases = [
            IdentityCase(str(c["id"]), dict(c.get("params", {})), c["strategy"])
            for c in raw["cases"]
        ]
        return raw["version"], raw.get("default_seed"), cases
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise UsageError("unreadable manifest %s: %s: %s" % (path, type(exc).__name__, exc)) from None


def run_suite(ids=None, manifest=None, mutate=False):
    """Verify every manifest case (optionally filtered); reports sorted by id."""
    _, _, cases = load_manifest(manifest)
    if ids is not None:
        wanted = set(ids)
        unknown = wanted - set(REGISTRY)
        if unknown:
            raise UsageError("unknown identity id: %r" % (sorted(unknown)[0],))
        cases = [c for c in cases if c.case_id in wanted]
    reports = [verify(case, mutate=mutate) for case in cases]
    return sorted(reports, key=lambda r: (r.case_id, repr(sorted(r.params.items()))))
