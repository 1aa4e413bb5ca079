"""Tests for the identity verification suite."""

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmoments import identities, rbasis
from qmoments.errors import ModeError, ParseError, ResourceBoundError, UsageError
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
    MAX_VERIFY_WORK,
    REGISTRY,
    _compare_pairs,
    _key_order,
    _finite_qbinhl_cleared,
    _geom,
    _mpoly_product,
    _mpoly_sum,
    _partitions_upto,
)
from qmoments.mpoly import MPoly, _unit
from qmoments.hall_littlewood import _hl_cached, hl_p
from qmoments.partitions import Partition, parse_partition, partitions_of, subpartitions
from qmoments.qrat import ONE, UniRat, ZERO, _unpack_signed
from qmoments.rbasis import _c_by_size, _c_table_work, _c_tables_work, c_coeff
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
        rep = verify(IdentityCase(cid, FAST_POINTS[cid]))
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
        case = IdentityCase(cid, params)
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
    # each call's work estimate passes MAX_VERIFY_WORK by 2x or more, so it
    # is refused before any work; symbolic FINITE_QBINHL n = 4, k = 1
    # compares 276,300 coefficients in about 47 s
    refused = [
        ("EULER", {"zmax": 40}, "truncated-series"),
        ("QBINHL", {"nx": 4, "d": 16}, "truncated-series"),
        ("FINITE_QBINHL", {"n": 5, "k": 2}, "symbolic-exact"),
        ("FINITE_QBINHL", {"n": 4, "k": 1}, "symbolic-exact"),
        ("CSQ", {"n": 3, "k": 40}, "symbolic-exact"),
    ]
    for cid, params, strategy in refused:
        assert REGISTRY[cid].work(params) > 2 * MAX_VERIFY_WORK, (cid, params)
        start = time.perf_counter()
        with pytest.raises(ResourceBoundError, match="%s work exceeded" % cid):
            verify(IdentityCase(cid, params, strategy))
        assert time.perf_counter() - start < 0.1, (cid, params)


def test_recorded_work_grids_match_the_code():
    # every row of the two recorded estimate-against-time grids carries the
    # estimate the code gives and the verdict the budget draws from it
    root = Path(__file__).resolve().parents[1]
    rows = json.loads((root / "BENCH_work_budget.json").read_text())["grid"]
    assert len(rows) == 334
    for row in rows:
        params = dict(row["params"])
        if "lam" in params:
            params["lam"] = Partition(params["lam"])
        work = REGISTRY[row["id"]].work(params)
        assert (row["estimate"], row["admitted"]) == (work, work <= MAX_VERIFY_WORK), row
    rows = json.loads((root / "BENCH_moment_work.json").read_text())["grid"]
    assert len(rows) == 85
    for row in rows:
        work = _c_table_work(parse_partition(row["lambda"]), None)
        assert (row["estimate"], row["admitted"]) == (work, work <= MAX_VERIFY_WORK), row


def test_c_table_estimates_refuse_a_lam_past_the_degree_bound(monkeypatch):
    # c_coeff refuses every C of a lam past MAX_C_DEGREE, so no table of it
    # can be built: the estimate reads it past the budget, with or without
    # `most`, and so does the walk over the lams of an alphabet
    assert _c_table_work(Partition([10**6]), 12) > MAX_VERIFY_WORK
    assert _c_table_work(Partition([10**6]), None) > MAX_VERIFY_WORK
    monkeypatch.setattr(rbasis, "MAX_C_DEGREE", 2)
    for lam in ([2, 2, 1], [3, 3], [1] * 4):
        assert _c_table_work(Partition(lam), 1) == MAX_VERIFY_WORK + 1, lam
        assert _c_table_work(Partition(lam), None) == MAX_VERIFY_WORK + 1, lam
    works = dict(zip(_partitions_upto(8, 4), (_c_table_work(lam, None) for lam in _partitions_upto(8, 4))))
    assert works[Partition([2, 2])] <= MAX_VERIFY_WORK < works[Partition([2, 2, 1])]
    assert sorted(_c_tables_work(4, 8)) == sorted((lam.size, work) for lam, work in works.items())


def test_lascoux_estimate_walks_each_column_once():
    # `_c_tables_work` counts the C tables of every lam of the x alphabet in
    # one walk down the tree of lams, to the same sums as a `_c_table_work`
    # per lam; the slowest LASCOUX estimates of BENCH_work_budget.json took
    # 16-32 ms with a walk per lam, and each now takes under 10 ms
    for nx, d in ((0, 5), (1, 40), (2, 20), (3, 14), (5, 10), (12, 12)):
        per_lam = sorted((lam.size, _c_table_work(lam, None)) for lam in _partitions_upto(d, nx))
        assert sorted(_c_tables_work(nx, d)) == per_lam, (nx, d)
    slowest = [(1, 4, 72, 1), (1, 1, 69, 69), (2, 4, 23, 1), (3, 3, 16, 1), (4, 4, 13, 1)]
    manifest = [case.params for case in load_manifest()[2] if case.case_id == "LASCOUX"]
    for params in [dict(zip(("nx", "ny", "dx", "dy"), row)) for row in slowest] + manifest:
        assert _timed_work("LASCOUX", params) <= MAX_VERIFY_WORK, params


def test_qbinhl_estimate_counts_the_hl_p_builds():
    # an estimate that charged every monomial of degree <= d to every P_lam
    # refused these at 100.9M, 7.0M and 4.8M units, though each answers in
    # about 1.5, 0.25 and 0.7 s; they now count one P_lam per partition
    for params in ({"nx": 1, "d": 1000}, {"nx": 5, "d": 8}, {"nx": 2, "d": 40}):
        assert REGISTRY["QBINHL"].work(params) <= MAX_VERIFY_WORK, params
        with time_limit(10):
            assert verify(IdentityCase("QBINHL", params)).passed, params


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


@pytest.mark.parametrize("seed", [[1], "1", 1.0, True])
def test_random_point_case_needs_an_int_seed(seed):
    params = {"n": 2, "k": 1, "samples": 20, "seed": seed}
    with pytest.raises(UsageError, match="seed"):
        verify(IdentityCase("FINITE_QBINHL", params, "random-point"))


@pytest.mark.parametrize("cid, params, unread", [
    ("FINITE_QBINHL", {"n": 2, "k": 1, "sample": 20}, "sample"),  # samples misspelt
    ("QBIN", {"n": 3, "zmax": "junk"}, "zmax"),
    ("MIRROR_SWAP", {"lam": [2, 1], "p": 3, 7: 1}, "p, 7"),
    ("QBIN", {"n": 10**9, "ell": 1}, "ell"),  # refused before the work estimate
])
def test_verify_refuses_a_param_its_identity_does_not_read(cid, params, unread):
    with pytest.raises(UsageError, match="%s reads no param %s$" % (cid, unread)):
        verify(IdentityCase(cid, params))
    # seed is read by every identity, samples by a random-point check
    assert verify(IdentityCase("QBIN", {"n": 3, "seed": 4})).passed


# lams far past the work budget: 30^5 (324,632 subpartitions), the
# staircase 12..1 (742,900, a Catalan number), a long row and a long column
_HUGE_LAMS = ([30] * 5, list(range(12, 0, -1)), [10**6], [1] * 10**5)


def _timed_work(cid, params):
    """REGISTRY[cid].work on params as `verify` checks them, asserted to
    take under 10 ms."""
    checked = dict(params)
    if "lam" in checked:
        checked["lam"] = Partition(checked["lam"])
    start = time.perf_counter()
    work = REGISTRY[cid].work(checked)
    assert time.perf_counter() - start < 0.01, (cid, params)
    return work


def test_unbounded_params_end_within_seconds():
    # every int param of every id, and `samples` of a random-point case, at
    # 10**6 and the rest at the first manifest case of the (id, strategy):
    # each call answers or is refused within 5 s, never hangs; every id that
    # takes a `lam` (with `ell` raised to lam_1) refuses each of _HUGE_LAMS
    # on its work estimate within 1 s, or, for the UMOY ids, which build
    # the C of the nu of size <= zmax / b only, passes within 1 s; the
    # estimate itself takes under 10 ms on each of these inputs
    first = {}
    for case in load_manifest()[2]:
        first.setdefault((case.case_id, case.strategy), case.params)
    walked = []
    for (cid, strategy), case_params in first.items():
        names = [n for n in REGISTRY[cid].params if n != "lam"]
        names += ["samples"] if strategy == RANDOM_POINT else []
        for name in names:
            params = dict(case_params, **{name: 10**6})
            _timed_work(cid, params)
            start = time.perf_counter()
            with time_limit(5):
                try:
                    verify(IdentityCase(cid, params, strategy))
                except (ResourceBoundError, ValueError):
                    pass
            assert time.perf_counter() - start < 5, (cid, name)
            walked.append((cid, name))
        if "lam" in REGISTRY[cid].params:
            for lam in _HUGE_LAMS:
                params = dict(case_params, lam=lam)
                if "ell" in params:
                    params["ell"] = max(params["ell"], lam[0])
                start = time.perf_counter()
                if _timed_work(cid, params) <= MAX_VERIFY_WORK:
                    assert cid.startswith("UMOY"), (cid, lam[:3])
                    with time_limit(1):
                        assert verify(IdentityCase(cid, params)).passed
                else:
                    with time_limit(1), pytest.raises(ResourceBoundError, match="work exceeded"):
                        verify(IdentityCase(cid, params))
                assert time.perf_counter() - start < 1, (cid, lam[:3])
            walked.append((cid, "lam"))
    every = {(cid, n) for cid, identity in REGISTRY.items() for n in identity.params}
    assert set(walked) == every | {("FINITE_QBINHL", "samples")}
    lam_ids = {"GENFUN", "COMBINAT", "UMOY_ABELIAN", "UMOY_TYPE_S", "MIRROR_SWAP"}
    assert {cid for cid, name in walked if name == "lam"} == lam_ids


def _left_to_right_rhs(cid, params):
    """The WARNAAR_A2 and LASCOUX truncated rhs products with their factors
    in the order of the written product: the one-alphabet series first, then
    each cross pair 1/(1 - q^e x_i y_j) and its numerator, unmerged."""
    nx, ny, dx, dy = (params[k] for k in ("nx", "ny", "dx", "dy"))
    nv = nx + ny
    keep = ((0, nx, dx), (nx, nv, dy))
    factors = [MPoly.one(nv, "q")] + [_geom(_unit(nv, i), dx, 0) for i in range(nx)]
    if cid == "WARNAAR_A2":
        factors += [_geom(_unit(nv, j), dy, 0) for j in range(nx, nv)]
    e, s = (-1, 0) if cid == "WARNAAR_A2" else (0, 1)
    for i in range(nx):
        for j in range(nx, nv):
            factors.append(_geom(_unit(nv, i, j), min(dx, dy), e))
            factors.append(MPoly.two_term(_unit(nv), _unit(nv, i, j), s, "q"))
    out = [_mpoly_product(factors, keep)]
    if cid == "LASCOUX":
        nz = nx + 1
        factors = [MPoly.one(nz, "q")] + [_geom(_unit(nz, i), dx, 0) for i in range(nx)]
        factors += [_geom(_unit(nz, i, nx), dx, 0) for i in range(nx)]
        out.append(_mpoly_product(factors, ((0, nx, dx), (nx, nz, dx))))
    return out


def test_reordered_truncated_rhs_equals_the_left_to_right_chain():
    # the cross factors go first, and WARNAAR_A2 merges each pair; a
    # truncated product keeps a downward-closed set of exponents, so any
    # order gives the same rhs
    cases = [c for c in load_manifest()[2] if c.case_id in ("WARNAAR_A2", "LASCOUX")]
    assert len(cases) == 6
    for case in cases:
        pairs = REGISTRY[case.case_id].run(case.params, None)
        rhs = [rhs for label, _, rhs in pairs if label in ("xy-coefficients", "principal-y")]
        assert rhs == _left_to_right_rhs(case.case_id, case.params), case.params


def test_merged_cross_factor_equals_its_two_factors_under_keep():
    # (1 - t)/(1 - q^-1 t) for t = x_i y_j, against 1/(1 - q^-1 t) times
    # (1 - t): the t^(cap + 1) term of that product passes a block's cap
    for nx, ny, dx, dy in ((1, 1, 3, 3), (2, 1, 4, 2), (3, 3, 5, 5), (1, 2, 0, 2)):
        nv = nx + ny
        keep = ((0, nx, dx), (nx, nv, dy))
        for i in range(nx):
            for j in range(nx, nv):
                t, cap = _unit(nv, i, j), min(dx, dy)
                pair = _geom(t, cap, -1).mul(MPoly.two_term(_unit(nv), t, 0, "q"), keep)
                merged = _geom(t, cap, -1, ratio=True)
                assert merged == pair
                # 1, then q^-m - q^(1-m) at t^m
                coeff = lambda m: UniRat.mono("q", -m) - UniRat.mono("q", 1 - m) if m else ONE
                assert merged.terms == {tuple(m * a for a in t): coeff(m) for m in range(cap + 1)}


def test_truncated_rhs_degrees_stay_at_the_caps():
    # each block caps its variables' degree bound, not only their terms
    (_, _, rhs), = REGISTRY["WARNAAR_A2"].run({"nx": 3, "ny": 3, "dx": 5, "dy": 5}, None)
    assert rhs._deg == (5,) * 6
    assert max(max(e) for e in rhs.terms) == 5


def test_finite_box_hl_p_bounds_are_the_largest_slots():
    # hl_p measures each branching-rule sum before caching it, so a cached
    # P_lam carries its exact largest |slot|, not a sum of product bounds,
    # and its exact slot count, one past the top nonzero slot
    _hl_cached.cache_clear()
    table = _finite_qbinhl_cleared(4, 3)[3]
    for lam, poly in [(name[1], f) for name, f in table.items() if name[0] == "P"]:
        digits = [_unpack_signed(c, poly._w, poly._span) for c in poly._coeffs.values()]
        slots = [abs(x) for d in digits for x in d]
        assert poly._mag == max(slots, default=0), lam
        top = max((i for d in digits for i, x in enumerate(d) if x), default=0)
        assert poly._span == top + 1, lam


def test_genfun_rejects_a_composite_p_before_any_work(monkeypatch):
    genfun = REGISTRY["GENFUN"]

    def run(params, rng):
        raise AssertionError("the runner ran")

    monkeypatch.setitem(REGISTRY, "GENFUN", Identity(run, genfun.strategies, genfun.params, genfun.work))
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


def test_random_point_report_records_the_seed_it_drew_at(monkeypatch):
    # a case with no seed draws at seed 0 and says so, so replaying from its
    # report draws the same points; a symbolic case draws none and records none
    drawn = []
    sample_points = identities._sample_points

    def recording(*args):
        drawn.append(sample_points(*args))
        return drawn[-1]

    monkeypatch.setattr(identities, "_sample_points", recording)
    params = {"n": 2, "k": 1, "samples": 20}
    report = verify(IdentityCase("FINITE_QBINHL", params))
    assert report.passed and report.seed == 0 and report.as_json()["seed"] == 0
    assert verify(IdentityCase("FINITE_QBINHL", dict(params, seed=report.seed))).seed == 0
    assert len(drawn) == 2 and drawn[0] == drawn[1]
    assert verify(IdentityCase("FINITE_QBINHL", {"n": 2, "k": 1})).seed is None


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


def symbolic_table(n, k):
    """The names of the cleared FINITE_QBINHL sides, and the value of every
    factor name, the one table both checks read."""
    names = _finite_qbinhl_cleared(n, k)
    return names[:3], names[3]


def zero_variable_sides(n, k, xs, a):
    """Both cleared sides at one point through the MPoly chain in 0 variables,
    each symbolic factor evaluated at the point: the sample-point evaluation
    before the Laurent kernel, kept as a reference."""
    (lhs_terms, dfac, rhs_terms), table = symbolic_table(n, k)
    const = lambda f: MPoly.const(f.eval_points([xs + [a]])[0] if isinstance(f, MPoly) else f, 0, "q")
    table = {name: const(f) for name, f in table.items()}
    lhs = _mpoly_product([_mpoly_sum(lhs_terms, table)] + [table[name] for name in dfac])
    rhs = _mpoly_sum(rhs_terms, table)
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


# SHA-256 over (key, num, den, param) of every coefficient of every pair's
# sides, pair by pair, lhs then rhs, keys in sorted order, for each manifest
# case of an id with MPoly sides; the FINITE_QBINHL n=3 digests were pinned
# at the tuple-keyed kernel, the rest at the `_push`-stack and unrolled-chain
# builders.  Both sides run through the same MPoly kernel, so a kernel or
# builder defect that corrupts both alike still passes the comparison; only
# the digest sees it.
SYMBOLIC_DIGESTS = [
    ("QBINHL", {"nx": 2, "d": 4}, "011bef52464f443f268aa2ba28f4529ab4fbe350123e0e2aa65fd1741dfcbd0a"),
    ("QBINHL", {"nx": 3, "d": 3}, "1ca9eb0c8ad32fa3b99a706a75a5ec3a4f2fccd9b96cac236c91e9cdaa11ff67"),
    ("QBINHL", {"nx": 3, "d": 5}, "eb7bcc468d53766b31d9727e4e69800d27932fca8fbbb43df6b70936ca1fd846"),
    ("WARNAAR_A2", {"nx": 2, "ny": 2, "dx": 4, "dy": 4}, "4f1a69b41094de2a6d6b54b5e7b16efb3d559637800b81648e3bc486b04cc567"),
    ("WARNAAR_A2", {"nx": 3, "ny": 3, "dx": 5, "dy": 5}, "7ad844ae8308abb8e297dfbc02e064201a70e4db6ffe25a98e1e35935590b842"),
    ("WARNAAR_A2", {"nx": 3, "ny": 2, "dx": 4, "dy": 3}, "f8649735687dfcf8942f2b87970f7ae0e7857e20f4f375642636a947aa284d7d"),
    ("LASCOUX", {"nx": 2, "ny": 2, "dx": 4, "dy": 4}, "babd70ca18973b90b1a90b741777255bb480939c6639ab571bf1d4aa3271b27a"),
    ("LASCOUX", {"nx": 3, "ny": 3, "dx": 5, "dy": 5}, "e507044187e026b0aa89ef98b1b9849092cd6ae0600d96a8776f215deb600667"),
    ("LASCOUX", {"nx": 3, "ny": 2, "dx": 4, "dy": 3}, "fffda2c42d8dfd2dca7eac9ce3fda44f15cb24e2dc4f7dcf4eb55850d9013f1d"),
    ("FINITE_QBINHL", {"n": 2, "k": 2}, "c4984bcdd01ff5dca3cb99f6a3eef2e7b93757cc8111985fb65902cd8afa70dd"),
    ("FINITE_QBINHL", {"n": 3, "k": 2}, "f5b988fb1846b21aef1d4d0d0e75398b47aeafcb6596610c57fa5122c35105a3"),
    ("FINITE_QBINHL", {"n": 3, "k": 3}, "b133c0d27625ac3ab8fbf02363a540538593aac43f60272466674fc1eeadbea5"),
    ("CSQ", {"n": 2, "k": 2}, "0342fb9e440fccc4403e88bede355094375f9d3bec509ec6829527dbc8496094"),
    ("CSQ", {"n": 3, "k": 2}, "23c1ef1d9ba06441fd59b542f31b8eecc8ee830cfd5c6152ef0efc4043ecde77"),
    ("CSQ", {"n": 3, "k": 3}, "27325ad02672f6d68772d6f19db08e6b36f900cf01f539d26c50c7b29e165087"),
    ("CSQ", {"n": 4, "k": 3}, "a00992d6d2c6eb4f29dbf6ee54fae10e7a717aea0902d4b84a662bb7f839ce4e"),
]


def test_digests_cover_every_manifest_case_with_mpoly_sides():
    ids = ("QBINHL", "WARNAAR_A2", "LASCOUX", "FINITE_QBINHL", "CSQ")
    manifest = [
        (c.case_id, c.params)
        for c in load_manifest()[2]
        if c.case_id in ids and c.strategy != RANDOM_POINT
    ]
    assert sorted(map(repr, manifest)) == sorted(repr(d[:2]) for d in SYMBOLIC_DIGESTS)


@pytest.mark.parametrize(
    "cid,params,digest",
    SYMBOLIC_DIGESTS,
    ids=["%s-%s" % (d[0], "-".join("%s%d" % kv for kv in d[1].items())) for d in SYMBOLIC_DIGESTS],
)
def test_symbolic_sides_are_pinned(cid, params, digest):
    h = hashlib.sha256()
    for _, lhs, rhs in REGISTRY[cid].run(params, random.Random(0)):
        for side in (lhs, rhs):
            side = side.terms if isinstance(side, MPoly) else side
            for key in sorted(side):
                c = side[key]
                h.update(repr((key, c.num, c.den, c.param)).encode())
    assert h.hexdigest() == digest


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


def test_c_sums_by_size_up_to_a_bound_are_the_full_sums_cut_there():
    # UMOY lists only the partitions of m <= most in lam's box, so it
    # builds no C of a larger nu, and keeps every C of a smaller one
    for lam in [(), (1,), (3, 2), (4, 4, 1), (2,) * 7, (6,), (3, 3, 2, 1, 1)]:
        lam = Partition(lam)
        full = _c_by_size(lam)
        for most in range(lam.size + 2):
            assert _c_by_size(lam, most) == full[: most + 1], (lam, most)


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
    combinat = labels("COMBINAT", {"lam": Partition([2, 1]), "zmax": 5})
    assert combinat == ["combinatorial-vs-inversion", "principal-vs-inversion"]
    mirror = labels("MIRROR_SWAP", {"lam": Partition([2, 1])})
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


def test_unreadable_manifest_is_a_usage_error(tmp_path):
    assert issubclass(UsageError, ValueError)
    assert issubclass(ParseError, UsageError) and issubclass(ModeError, UsageError)
    texts = {"not-json": "not json", "no-cases": '{"version": 1}', "list": "[1, 2]"}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    for name in ["missing"] + list(texts):
        with pytest.raises(UsageError, match="unreadable manifest"):
            load_manifest(tmp_path / name)
        with pytest.raises(UsageError, match="unreadable manifest"):
            run_suite(manifest=tmp_path / name)


# (id, strategy, param) refused at 0: the column bound k and the torsion
# exponent ell start at 1, p must be prime and samples start at MIN_SAMPLES
_REFUSED_AT_ZERO = {
    ("CSQ", "symbolic-exact", "k"),
    ("FINITE_QBINHL", "symbolic-exact", "k"),
    ("FINITE_QBINHL", "random-point", "k"),
    ("FINITE_QBINHL", "random-point", "samples"),
    ("DELAUNAY", "truncated-series", "ell"),
    ("UMOY_ABELIAN", "truncated-series", "ell"),
    ("UMOY_TYPE_S", "truncated-series", "ell"),
    ("GENFUN", "truncated-series", "p"),
}


def test_every_param_at_zero_passes_or_is_refused():
    # one param at 0 (lam empty), the rest at the first manifest case of
    # the (id, strategy): each case passes with compared > 0, or raises
    # UsageError before any work
    first = {}
    for case in load_manifest()[2]:
        first.setdefault((case.case_id, case.strategy), case.params)
    walked = set()
    for (cid, strategy), params in first.items():
        names = list(REGISTRY[cid].params) + (["samples"] if strategy == RANDOM_POINT else [])
        for name in names:
            case = IdentityCase(cid, dict(params, **{name: [] if name == "lam" else 0}), strategy)
            walked.add((cid, strategy, name))
            if (cid, strategy, name) in _REFUSED_AT_ZERO:
                with pytest.raises(UsageError):
                    verify(case)
                continue
            rep = verify(case)
            assert rep.passed and rep.compared > 0, (cid, strategy, name)
    assert _REFUSED_AT_ZERO < walked
    assert ("WARNAAR_A2", "truncated-series", "nx") in walked
    assert ("FINITE_QBINHL", "symbolic-exact", "n") in walked


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


def flip_first(pairs):
    """The reference mutation: decode every MPoly pair and negate only the
    first nonzero rhs coefficient, in key order, then compare the maps."""
    mutated, flipped = [], False
    for label, lhs, rhs in pairs:
        if isinstance(lhs, MPoly):
            lhs, rhs = lhs.terms, rhs.terms
        rhs = dict(rhs)
        for k in [] if flipped else sorted(rhs, key=_key_order):
            if rhs[k] is not None and rhs[k] != 0:
                rhs[k], flipped = -rhs[k], True
                break
        mutated.append((label, lhs, rhs))
    return _compare_pairs(mutated)


def test_negating_every_rhs_reports_what_flipping_one_coefficient_did():
    # on every manifest case, --mutate negates each rhs; it must find the
    # same first mismatch, with the same values and count, as the reference
    seen = []

    def keep(pairs, mutate=False):
        seen.append(pairs)
        return _compare_pairs(pairs, mutate)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "_compare_pairs", keep)
        reports = [verify(case) for case in load_manifest()[2]]
    assert len(seen) == len(reports) == 42 and all(r.passed for r in reports)
    for rep, pairs in zip(reports, seen):
        got = _compare_pairs(pairs, mutate=True)
        assert got == flip_first(pairs), rep.case_id
        assert not got[0] and got[2] == rep.compared


def chain(term, table, keep=None):
    """One term's product, its factors multiplied left to right from 1."""
    acc = None
    for name in term:
        f = table[name]
        if acc is None:
            acc = f
        elif isinstance(f, MPoly):
            acc = f.scale(acc) if not isinstance(acc, MPoly) else acc.mul(f, keep)
        else:
            acc = acc.scale(f) if isinstance(acc, MPoly) else acc * f
    return ONE if acc is None else acc


def chain_sum(terms, table):
    """The sum of the terms' products, left to right: the reference for the
    Horner split of `_mpoly_sum`."""
    total = ZERO
    for term in terms:
        total = total + chain(term, table)
    return total


@pytest.mark.parametrize("n,k", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_horner_rhs_equals_the_left_to_right_chains(n, k):
    ((_, lhs, rhs),) = REGISTRY["FINITE_QBINHL"].run({"n": n, "k": k}, None)
    (lhs_terms, dfac, rhs_terms), table = symbolic_table(n, k)
    ref_lhs = chain_sum(lhs_terms, table)
    for name in dfac:
        ref_lhs = ref_lhs.mul(table[name])
    assert lhs == ref_lhs and rhs == chain_sum(rhs_terms, table) and lhs == rhs


# a small factor table over x_0, x_1, x_2: MPolys of degree at most 1 in
# each block and UniRat scalars, so every factor lies inside KEEP
X = [MPoly.var(i, 3, "q") for i in range(3)]
SUM_TABLE = {
    "a": X[0] - X[1].scale(UniRat.mono("q", 1)),
    "b": 1 + X[2],
    "c": MPoly.two_term((0, 0, 0), (1, 0, 1), -2, "q"),
    "d": MPoly.const(UniRat.mono("q", 3, -2), 3, "q"),
    "e": X[1],
    "s": UniRat.mono("q", -1, 3),
    "t": UniRat.const(Fraction(-1, 2)),
    "u": UniRat.mono("q", 2),
}
KEEP = ((0, 2, 2), (2, 3, 1))  # degree in x_0, x_1 at most 2, in x_2 at most 1


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(sorted(SUM_TABLE)), max_size=5), max_size=8),
    st.booleans(),
)
def test_horner_sum_equals_the_left_to_right_chains(terms, truncated):
    keep = KEEP if truncated else None
    assert _mpoly_sum(terms, SUM_TABLE) == chain_sum(terms, SUM_TABLE)
    for term in terms:
        factors = [SUM_TABLE[name] for name in term]
        assert _mpoly_product(factors, keep) == chain(term, SUM_TABLE, keep)


def test_horner_sum_of_many_distinct_terms_does_not_recurse_deeply():
    table = {i: MPoly.mono((i % 7, i // 7), UniRat.mono("q", i % 5), "q") for i in range(2000)}
    terms = [[i] for i in range(2000)]
    total = _mpoly_sum(terms, table)
    assert total == chain_sum(terms, table)
    assert len(total.terms) == 2000


def test_horner_split_takes_fewer_products_than_the_greedy_split(monkeypatch):
    # the greedy split (the name in the most terms) made 161 products of the
    # n=3, k=2 rhs: a name in 7 of its 8 terms peeled one term at a time
    (_, _, rhs_terms), table = symbolic_table(3, 2)
    calls = []
    mul = MPoly.mul

    def counted(self, other, keep=None):
        calls.append(None)
        return mul(self, other, keep)

    monkeypatch.setattr(MPoly, "mul", counted)
    total = _mpoly_sum(rhs_terms, table)
    monkeypatch.undo()
    assert len(calls) < 161
    assert total == chain_sum(rhs_terms, table)


@pytest.mark.parametrize(
    "terms,factors",
    [
        # "e" and "a" sit in every term: both come out at once, in the
        # first term's order, and the inner sum b + c + 1 takes no product
        ([["e", "a", "b"], ["a", "c", "e"], ["e", "a"]], ["e", "a"]),
        # "a" and "b" sit in 3 of 4 terms and "c" in 2: the split is at "c",
        # (a*(b + 1))*c + (a + 1)*b, where the greedy split took "a" first
        ([["a", "c"], ["a", "c", "b"], ["a", "b"], ["b"]], ["a", "c", "b"]),
    ],
)
def test_horner_split_takes_shared_names_then_halves(terms, factors, monkeypatch):
    names = {id(v): k for k, v in SUM_TABLE.items()}
    log = []
    mul = MPoly.mul

    def logged(self, other, keep=None):
        log.append(names[id(other)])
        return mul(self, other, keep)

    monkeypatch.setattr(MPoly, "mul", logged)
    total = _mpoly_sum(terms, SUM_TABLE)
    monkeypatch.undo()
    assert log == factors
    assert total == chain_sum(terms, SUM_TABLE)


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
_, _, rhs_terms, table = I._finite_qbinhl_cleared(n, k)
MPoly.mul = logged
I._mpoly_sum(rhs_terms, table)
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


# -- the work budget, fuzzed ---------------------------------------------------------

# a param value: mostly a small valid int, else a huge, zero or negative
# int, a bool, a float or a string
_ANY_VALUE = st.integers(0, 11).flatmap(lambda kind: [
    st.integers(1, 5), st.integers(1, 8), st.integers(1, 12), st.integers(1, 30), st.integers(1, 60),
    st.integers(10**6, 10**30), st.integers(-3, 0), st.just(0), st.booleans(),
    st.floats(allow_nan=False, width=32), st.text(max_size=3), st.sampled_from([2, 3, 5, 7]),
][kind])
_ANY_LAM = st.integers(0, 7).flatmap(lambda kind: [
    st.lists(st.integers(0, 6), max_size=6).map(lambda xs: sorted(xs, reverse=True)),
    st.lists(st.integers(0, 3), max_size=4).map(lambda xs: sorted(xs, reverse=True)),
    st.lists(st.integers(-2, 6), max_size=5),  # often not weakly decreasing
    st.integers(1, 10**6).map(lambda n: [n]),  # a long row
    st.integers(1, 10**5).map(lambda n: [1] * n),  # a long column
    st.integers(1, 40).map(lambda n: list(range(n, 0, -1))),  # a staircase
    st.lists(st.floats(allow_nan=False, width=32), min_size=1, max_size=3),
    st.one_of(st.text(max_size=3), st.integers()),
][kind])


@st.composite
def _any_case(draw):
    cid = draw(st.sampled_from(IDENTITY_IDS))
    params = {}
    for name in REGISTRY[cid].params:
        if draw(st.integers(0, 19)):  # else a missing param
            params[name] = draw(_ANY_LAM if name == "lam" else _ANY_VALUE)
    if draw(st.integers(0, 3)) == 0:
        params["samples"] = draw(st.one_of(st.integers(20, 40), _ANY_VALUE))
        params["seed"] = draw(st.one_of(st.integers(0, 10**9), _ANY_VALUE))
    return IdentityCase(cid, params)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_any_case())
def test_every_drawn_case_ends_in_a_report_or_a_refusal(case):
    # with the budget cut to 1/50, every case the gate admits is cheap and
    # runs; each ends in a report, a UsageError or a ResourceBoundError, and
    # within 2 s
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "MAX_VERIFY_WORK", MAX_VERIFY_WORK // 50)
        start = time.perf_counter()
        with time_limit(2):
            try:
                rep = verify(case)
            except (UsageError, ResourceBoundError):
                pass
            else:
                assert rep.compared > 0 and rep.passed, case
        assert time.perf_counter() - start < 2, case
