"""Tests for the identity verification suite."""

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from qmoments.errors import ResourceBoundError
from qmoments.groups import MAX_PRIME
from qmoments.identities import (
    IDENTITY_IDS,
    RANDOM_POINT,
    Identity,
    IdentityCase,
    Mismatch,
    VerificationReport,
    load_manifest,
    run_suite,
    verify,
    REGISTRY,
    _finite_lhs_terms,
    _finite_qbinhl_cleared,
    _mpoly_factors,
    _mpoly_sides,
)
from qmoments.mpoly import MPoly
from qmoments.hall_littlewood import _hl_cached, hl_p
from qmoments.partitions import Partition, partitions_of, subpartitions
from qmoments.qrat import ONE, UniRat, ZERO, _unpack_signed
from qmoments.rbasis import c_coeff
from test_mpoly import time_limit

FAST_POINTS = {
    "QBIN": {"n": 5},
    "EULER": {"zmax": 8},
    "GENFUN": {"lam": [2, 1], "p": 2, "zmax": 6},
    "COMBINAT": {"lam": [2, 1], "zmax": 6},
    "UMOY_ABELIAN": {"ell": 2, "lam": [2, 1], "zmax": 8},
    "UMOY_TYPE_S": {"ell": 2, "lam": [2, 1], "zmax": 8},
    "DELAUNAY": {"ell": 2, "zmax": 8},
    "QBINHL": {"nx": 2, "d": 4},
    "WARNAAR_A2": {"nx": 2, "ny": 2, "dx": 4, "dy": 4},
    "LASCOUX": {"nx": 2, "ny": 2, "dx": 4, "dy": 4},
    "FINITE_QBINHL": {"n": 2, "k": 2},
    "CSQ": {"n": 3, "k": 2},
    "MIRROR_SWAP": {"lam": [2, 2]},
}


def test_every_identity_passes_at_a_representative_point():
    for cid in IDENTITY_IDS:
        rep = verify(IdentityCase(cid, FAST_POINTS[cid], "symbolic-exact"))
        assert rep.passed, (cid, rep.mismatch)
        assert rep.mismatch is None
        assert rep.compared > 0
        assert rep.elapsed >= 0


def test_report_fields_echo_the_case():
    case = IdentityCase("QBIN", {"n": 3}, "symbolic-exact")
    rep = verify(case)
    assert isinstance(rep, VerificationReport)
    assert rep.case_id == "QBIN"
    assert rep.params == {"n": 3}
    assert rep.strategy == "symbolic-exact"
    data = rep.as_json()
    assert data["id"] == "QBIN"
    assert data["passed"] is True
    assert data["compared"] == rep.compared
    assert "mismatch" not in data


def test_mutation_guard_localizes_a_coefficient():
    for cid, params in (
        ("QBIN", {"n": 5}),
        ("UMOY_ABELIAN", {"ell": 1, "lam": [1], "zmax": 6}),
        ("QBINHL", {"nx": 2, "d": 3}),
    ):
        case = IdentityCase(cid, params, "symbolic-exact")
        assert verify(case).passed
        rep = verify(case, mutate=True)
        assert not rep.passed
        assert rep.mismatch is not None
        assert rep.mismatch.label
        assert rep.mismatch.key
        assert rep.mismatch.lhs != rep.mismatch.rhs
        data = rep.as_json()
        assert data["mismatch"]["coefficient"] == rep.mismatch.key


def test_unknown_identity_id_rejected():
    with pytest.raises(ValueError):
        verify(IdentityCase("NOPE", {}, "symbolic-exact"))
    with pytest.raises(ValueError):
        run_suite(ids=["QBIN", "NOPE"])


def test_resource_bounds_enforced():
    with pytest.raises(ResourceBoundError):
        verify(IdentityCase("EULER", {"zmax": 13}, "truncated-series"))
    with pytest.raises(ResourceBoundError):
        verify(IdentityCase("QBINHL", {"nx": 5, "d": 3}, "truncated-series"))
    with pytest.raises(ResourceBoundError):
        verify(IdentityCase("FINITE_QBINHL", {"n": 5, "k": 2}, "symbolic-exact"))
    with pytest.raises(ResourceBoundError):
        verify(IdentityCase("CSQ", {"n": 3, "k": 4}, "symbolic-exact"))


def test_umoy_requires_compatible_partition():
    with pytest.raises(ValueError):
        verify(
            IdentityCase(
                "UMOY_ABELIAN",
                {"ell": 1, "lam": [2], "zmax": 6},
                "truncated-series",
            )
        )


def test_random_point_case_needs_enough_samples():
    with pytest.raises(ValueError):
        verify(
            IdentityCase(
                "FINITE_QBINHL",
                {"n": 4, "k": 2, "samples": 5, "seed": 1},
                "random-point",
            )
        )


def test_unbounded_params_end_within_seconds():
    # every int param without a bound, and `samples` of an id with a
    # random-point check, at 10**6 and the rest at the id's first manifest
    # case: each call answers or is refused within 5 s, never hangs
    first = {}
    for case in load_manifest()[2]:
        first.setdefault(case.case_id, case.params)
    walked = []
    for cid, identity in REGISTRY.items():
        names = [n for n, bound in identity.params.items() if bound is None and n != "lam"]
        if RANDOM_POINT in identity.strategies:
            names.append("samples")
        for name in names:
            params = dict(first[cid], **{name: 10**6})
            strategy = RANDOM_POINT if "samples" in params else identity.strategies[0]
            start = time.perf_counter()
            with time_limit(5):
                try:
                    verify(IdentityCase(cid, params, strategy))
                except (ResourceBoundError, ValueError):
                    pass
            assert time.perf_counter() - start < 5, (cid, name)
            walked.append((cid, name))
    assert ("FINITE_QBINHL", "samples") in walked and ("GENFUN", "p") in walked


def test_truncated_rhs_degrees_stay_at_the_caps():
    # each block caps its variables' degree bound, not only their terms
    (_, _, rhs), = REGISTRY["WARNAAR_A2"].run({"nx": 3, "ny": 3, "dx": 5, "dy": 5}, None)
    assert rhs._deg == (5,) * 6
    assert max(max(e) for e in rhs.terms) == 5


def test_finite_box_hl_p_bounds_are_the_largest_slots():
    # the Vandermonde divisions of hl_p measure their quotient, so a cached
    # P_lam carries its exact largest |slot|, not a product of term counts,
    # and its exact slot count, one past the top nonzero slot
    _hl_cached.cache_clear()
    for lam, poly in _finite_lhs_terms(4, 3):
        digits = [_unpack_signed(c, poly._w, poly._span) for c in poly._coeffs.values()]
        slots = [abs(x) for d in digits for x in d]
        assert poly._mag == max(slots, default=0), lam
        top = max((i for d in digits for i, x in enumerate(d) if x), default=0)
        assert poly._span == top + 1, lam


def test_genfun_rejects_a_composite_p_before_any_work(monkeypatch):
    genfun = REGISTRY["GENFUN"]

    def run(params, rng):
        raise AssertionError("the runner ran")

    monkeypatch.setitem(REGISTRY, "GENFUN", Identity(run, genfun.strategies, genfun.params))
    for p in (0, 1, 4, 10**6, 3215031751):
        with pytest.raises(ValueError, match="p must be prime"):
            verify(IdentityCase("GENFUN", {"lam": [1], "p": p, "zmax": 6}, "truncated-series"))
    with pytest.raises(ResourceBoundError):
        verify(IdentityCase("GENFUN", {"lam": [1], "p": MAX_PRIME + 1, "zmax": 6}, "truncated-series"))


def sampled_maps(params):
    (label, lhs, rhs), = REGISTRY["FINITE_QBINHL"].run(params, random.Random(params["seed"]))
    return label, lhs, rhs


def test_random_point_case_is_seed_deterministic():
    params = {"n": 4, "k": 2, "samples": 20, "seed": 777}
    case = IdentityCase("FINITE_QBINHL", params, "random-point")
    reports = []
    for _ in range(2):
        rep = verify(case)
        assert rep.passed and rep.compared == 20
        data = rep.as_json()
        del data["elapsed_seconds"]
        reports.append(data)
    assert reports[0] == reports[1]
    assert reports[0]["seed"] == 777
    first = sampled_maps(params)
    assert sampled_maps(params) == first
    # another seed draws other points, so every sampled value changes
    other = sampled_maps(dict(params, seed=778))
    assert all(other[1][i] != first[1][i] for i in range(20))


# -- the uncleared random-point formula, as a reference for the cleared one ------


def draw_points(seed, n, samples):
    """The sample points (x_1..x_n, a) that a random-point case draws."""
    rng = random.Random(seed)
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


def qmono(k, c=1):
    return UniRat.mono("q", k, c)


def afac(r, a):
    out = ONE
    for t in range(r):
        out = out * (1 - qmono(-t, a))
    return out


def uncleared_sides(n, k, xs, a):
    """Both sides of FINITE_QBINHL at one point as rational functions in q,
    dividing by every pole and Vandermonde factor."""
    lhs = ZERO
    for lam in box_partitions(n, k):
        terms = hl_p(lam, n).poly.terms.items()
        val = sum((c * math.prod(map(pow, xs, e)) for e, c in terms), ZERO)
        lhs = lhs + qmono(lam.nstat()) * afac(len(lam), a) * afac(n - lam.mult(k), a) * val
    rhs = ZERO
    for bits in itertools.product((0, 1), repeat=n):
        inset = [i for i in range(n) if bits[i]]
        outset = [j for j in range(n) if not bits[j]]
        s0 = len(inset)
        term = qmono(k * math.comb(s0, 2)) * afac(s0, a) * afac(n - s0, a)
        for i in inset:
            term = term * xs[i] ** k * (xs[i] - qmono(1 - n, a)) / (xs[i] - qmono(1 - s0))
        for j in outset:
            term = term * (1 - qmono(0, a * xs[j])) / (1 - qmono(s0, xs[j]))
        for i in inset:
            for j in outset:
                term = term * (xs[i] - qmono(1, xs[j])) / (xs[i] - xs[j])
        rhs = rhs + term
    return lhs, rhs


def cleared_denominator(n, xs):
    d = ONE
    for i in range(n):
        for s in range(1, n + 1):
            d = d * (xs[i] - qmono(1 - s))
    for j in range(n):
        for s in range(n):
            d = d * (1 - qmono(s, xs[j]))
    for i in range(n):
        for j in range(n):
            if i != j:
                d = d * (xs[i] - xs[j])
    return d


def box_partitions(n, k):
    return [lam for m in range(n * k + 1) for lam in partitions_of(m, max_part=k, max_length=n)]


def test_cleared_random_point_check_matches_uncleared_formula():
    _, _, cases = load_manifest()
    case = next(c for c in cases if c.strategy == "random-point")
    params = case.params
    n, k = params["n"], params["k"]
    points = draw_points(params["seed"], n, params["samples"])
    assert points[0] == (
        [Fraction(57, 16), Fraction(8, 5), Fraction(20), Fraction(49, 12)],
        Fraction(27, 5),
    )
    label, lhs_map, rhs_map = sampled_maps(params)
    assert label == "sample-points (cleared)"
    assert sorted(lhs_map) == sorted(rhs_map) == list(range(20))
    for idx, (xs, a) in enumerate(points):
        d = cleared_denominator(n, xs)
        assert not d.is_zero()
        lhs, rhs = uncleared_sides(n, k, xs, a)
        assert lhs_map[idx] == lhs * d
        assert rhs_map[idx] == rhs * d
        assert lhs == rhs


def zero_variable_sides(n, k, xs, a):
    """Both cleared sides at one point through the MPoly chain in 0 variables:
    the sample-point evaluation before the Laurent kernel, kept as a reference."""
    const = lambda v: MPoly.const(v, 0, "q")
    p_lams = {lam: const(pl.eval_scalars(xs)) for lam, pl in _finite_lhs_terms(n, k)}
    table = _mpoly_factors(n, k, [const(v) for v in xs], const(a), p_lams)
    lhs, rhs = _mpoly_sides(_finite_qbinhl_cleared(n, k), table)
    return lhs.coeff_of(()), rhs.coeff_of(())


def test_laurent_kernel_sides_match_zero_variable_mpoly_chain():
    _, _, cases = load_manifest()
    sampled = [c for c in cases if c.strategy == "random-point"]
    assert sorted(c.params["k"] for c in sampled) == [2, 3]
    for case in sampled:
        params = case.params
        n, k = params["n"], params["k"]
        _, lhs_map, rhs_map = sampled_maps(params)
        points = draw_points(params["seed"], n, params["samples"])
        assert len(points) == 20
        for idx, (xs, a) in enumerate(points):
            lhs, rhs = zero_variable_sides(n, k, xs, a)
            for got, want in ((lhs_map[idx], lhs), (rhs_map[idx], rhs)):
                assert (got.num, got.den, got.param) == (want.num, want.den, want.param)


# SHA-256 over (key, num, den, param) of every coefficient of both cleared
# sides, lhs then rhs, keys in sorted order; pinned at the tuple-keyed kernel.
# Both sides run through the same MPoly kernel, so a kernel defect that
# corrupts both alike still passes the comparison; only the digest sees it.
SYMBOLIC_DIGESTS = {
    2: (12391, "f5b988fb1846b21aef1d4d0d0e75398b47aeafcb6596610c57fa5122c35105a3"),
    3: (16000, "b133c0d27625ac3ab8fbf02363a540538593aac43f60272466674fc1eeadbea5"),
}


@pytest.mark.parametrize("k", sorted(SYMBOLIC_DIGESTS))
def test_symbolic_finite_qbinhl_sides_are_pinned(k):
    ((_, lhs, rhs),) = REGISTRY["FINITE_QBINHL"].run({"n": 3, "k": k}, random.Random(0))
    lhs, rhs = (side.terms if isinstance(side, MPoly) else side for side in (lhs, rhs))
    h = hashlib.sha256()
    for side in (lhs, rhs):
        for key in sorted(side):
            c = side[key]
            h.update(repr((key, c.num, c.den, c.param)).encode())
    assert (len(lhs), len(rhs), h.hexdigest()) == (
        SYMBOLIC_DIGESTS[k][0], SYMBOLIC_DIGESTS[k][0], SYMBOLIC_DIGESTS[k][1]
    )


def test_random_point_mutation_fails_at_first_sample():
    params = {"n": 4, "k": 2, "samples": 20, "seed": 20260816}
    rep = verify(IdentityCase("FINITE_QBINHL", params, "random-point"), mutate=True)
    assert not rep.passed
    assert rep.compared == 20
    assert (rep.mismatch.label, rep.mismatch.key) == ("sample-points (cleared)", "0")
    assert rep.mismatch.lhs != rep.mismatch.rhs


def test_umoy_abelian_single_box_subpartition_sum():
    # for lam=(1) the inversion side is 1 + z: one subpartition per size
    lam = Partition((1,))
    by_size = {}
    for nu in subpartitions(lam):
        by_size[nu.size] = by_size.get(nu.size, ZERO) + c_coeff(lam, nu).recip_param()
    assert by_size == {0: ONE, 1: ONE}
    rep = verify(
        IdentityCase(
            "UMOY_ABELIAN", {"ell": 1, "lam": [1], "zmax": 8}, "truncated-series"
        )
    )
    assert rep.passed


def test_csq_small_case_passes():
    rep = verify(IdentityCase("CSQ", {"n": 2, "k": 1}, "symbolic-exact"))
    assert rep.passed


def test_labels_cover_the_documented_cross_checks():
    rng = random.Random(0)
    labels = lambda cid, params: [
        t[0] for t in REGISTRY[cid].run(params, rng)
    ]
    assert "cauchy-at-a-zero" in labels("QBINHL", {"nx": 2, "d": 3})
    lascoux = labels("LASCOUX", {"nx": 2, "ny": 2, "dx": 3, "dy": 3})
    assert "principal-y" in lascoux and "mirror-consistency" in lascoux
    combinat = labels("COMBINAT", {"lam": [2, 1], "zmax": 5})
    assert combinat == ["combinatorial-vs-inversion", "principal-vs-inversion"]
    mirror = labels("MIRROR_SWAP", {"lam": [2, 1]})
    assert mirror == ["palindrome", "swap"]


def test_manifest_loads_and_covers_every_identity():
    version, seed, cases = load_manifest()
    assert version == 1
    assert seed == 20260816
    seen = {}
    for case in cases:
        assert case.case_id in IDENTITY_IDS
        seen[case.case_id] = seen.get(case.case_id, 0) + 1
    assert set(seen) == set(IDENTITY_IDS)
    assert all(count >= 3 for count in seen.values()), seen


def test_run_suite_filtered_is_sorted_and_passes():
    reports = run_suite(ids=["EULER", "QBIN"])
    assert len(reports) == 6
    assert [r.case_id for r in reports] == sorted(r.case_id for r in reports)
    assert all(r.passed for r in reports)
    again = run_suite(ids=["EULER", "QBIN"])
    assert [(r.case_id, r.params) for r in again] == [
        (r.case_id, r.params) for r in reports
    ]


# -- symbolic sides compared on their packed forms ----------------------------------


# the first mismatch that verify(..., mutate=True) reports, pinned at the
# key-by-key comparison of decoded sides
MUTATED = {
    ("FINITE_QBINHL", 3, 2): (12391, ("cleared-coefficients", "(0, 2, 4, 0)", "(1)/(q^9)", "(-1)/(q^9)")),
    ("CSQ", 3, 3): (100, ("cleared-coefficients", "(0, 0)", "1", "-1")),
}


@pytest.mark.parametrize("cid,n,k", sorted(MUTATED))
def test_mutated_symbolic_case_reports_the_pinned_mismatch(cid, n, k):
    rep = verify(IdentityCase(cid, {"n": n, "k": k}, "symbolic-exact"), mutate=True)
    compared, mismatch = MUTATED[cid, n, k]
    assert (rep.passed, rep.compared, rep.mismatch) == (False, compared, Mismatch(*mismatch))


def chain_sides(names, table):
    """(lhs * D, rhs * D) with every term of both sides multiplied left to
    right, as before the Horner rhs: the reference for `_mpoly_sides`."""
    nv = table[("afac", 0)].nvars

    def chain(term):
        acc = MPoly.one(nv, "q")
        for key in term:
            acc = acc.scale(qmono(key[1])) if key[0] == "q" else acc.mul(table[key])
        return acc

    lhs_terms, dfac, rhs_terms = names
    lhs = sum((chain(t) for t in lhs_terms), MPoly.zero(nv, "q"))
    for key in dfac:
        lhs = lhs.mul(table[key])
    return lhs, sum((chain(t) for t in rhs_terms), MPoly.zero(nv, "q"))


def symbolic_table(n, k):
    nv = n + 1
    x = [MPoly.var(i, nv, "q") for i in range(n)]
    p_lams = {lam: pl.embed(nv, 0) for lam, pl in _finite_lhs_terms(n, k)}
    return _mpoly_factors(n, k, x, MPoly.var(n, nv, "q"), p_lams)


@pytest.mark.parametrize("n,k", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_horner_rhs_equals_the_left_to_right_chains(n, k):
    names = _finite_qbinhl_cleared(n, k)
    lhs, rhs = _mpoly_sides(names, symbolic_table(n, k))
    ref_lhs, ref_rhs = chain_sides(names, symbolic_table(n, k))
    assert lhs == ref_lhs and rhs == ref_rhs and lhs == rhs


# the operand and result sizes of every product of the n=3, k=2 Horner rhs
MUL_LOG = """
import hashlib
from qmoments import identities as I
from qmoments.mpoly import MPoly

sizes = []
mul = MPoly.mul

def logged(self, other, keep=None):
    out = mul(self, other, keep)
    sizes.append(tuple(len(p._coeffs) for p in (self, other, out)))
    return out

n, k = 3, 2
x = [MPoly.var(i, n + 1, "q") for i in range(n)]
p_lams = {lam: pl.embed(n + 1, 0) for lam, pl in I._finite_lhs_terms(n, k)}
table = I._mpoly_factors(n, k, x, MPoly.var(n, n + 1, "q"), p_lams)
MPoly.mul = logged
I._mpoly_sides(([], [], I._finite_qbinhl_cleared(n, k)[2]), table)
print(len(sizes), hashlib.sha256(repr(sizes).encode()).hexdigest())
"""


def test_horner_split_is_the_same_under_any_string_hash():
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", MUL_LOG], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        out.add(done.stdout)
    assert len(out) == 1
