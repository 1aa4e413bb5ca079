"""Tests for the identity verification suite."""

from fractions import Fraction

import pytest

from qmoments.errors import ResourceBoundError
from qmoments.identities import (
    IDENTITY_IDS,
    IdentityCase,
    VerificationReport,
    load_manifest,
    run_suite,
    verify,
    _RUNNERS,
)
from qmoments.partitions import Partition, subpartitions
from qmoments.qrat import ONE, UniRat, ZERO
from qmoments.rbasis import c_coeff

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


def test_random_point_case_is_seed_deterministic():
    params = {"n": 4, "k": 2, "samples": 20, "seed": 777}
    case = IdentityCase("FINITE_QBINHL", params, "random-point")
    assert verify(case).passed
    assert verify(case).passed


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
    import random

    rng = random.Random(0)
    labels = lambda cid, params: [
        t[0] for t in _RUNNERS[cid](params, rng)
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
