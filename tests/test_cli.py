"""End-to-end tests of the command-line interface."""

import contextlib
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmoments
from qmoments import cli, groups, identities, moments, rbasis
from qmoments.errors import ResourceBoundError
from qmoments.cli import main
from qmoments.identities import IDENTITY_IDS, load_manifest
from qmoments.partitions import Partition
from test_mpoly import time_limit


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def run_json(argv):
    code, text = run(argv)
    return code, (json.loads(text) if text else None)


def test_coeff_polynomial_and_metadata():
    code, data = run_json(["coeff", "--lambda", "1,1", "--mu", "1"])
    assert code == 0
    assert data["rows"][0]["coefficients"] == [1, 1]
    meta = data["meta"]
    assert meta["command"].startswith("qmoments coeff")
    assert meta["version"]
    assert isinstance(meta["seed"], int)
    assert meta["bounds"]["max_group_order"] >= 1


def test_coeff_exact_evaluation_renders_fractions_as_strings():
    code, data = run_json(["coeff", "--lambda", "1,1", "--mu", "1", "--eval-at", "2"])
    assert code == 0
    assert data["rows"][0]["value"] == "3"
    code, data = run_json(["coeff", "--lambda", "1,1", "--mu", "1", "--eval-at", "1/2"])
    assert code == 0
    assert data["rows"][0]["value"] == "3/2"


def test_coeff_outside_containment_is_zero():
    code, data = run_json(["coeff", "--lambda", "1", "--mu", "2"])
    assert code == 0
    assert data["rows"][0]["coefficients"] == [0]


def test_coeff_parse_error_exits_2():
    code, _ = run(["coeff", "--lambda", "1,2", "--mu", "1"])
    assert code == 2
    code, _ = run(["coeff", "--lambda", "1,1", "--mu", "1", "--eval-at", "x"])
    assert code == 2


def test_moments_pinned_values():
    code, data = run_json(["moments", "--lambda", "1", "--p", "3", "--u", "0"])
    assert code == 0
    assert data["rows"][0]["value"] == "2"
    code, data = run_json(["moments", "--lambda", "", "--p", "5", "--u", "7"])
    assert code == 0
    assert data["rows"][0]["value"] == "1"
    code, data = run_json(
        ["moments", "--lambda", "1", "--p", "2", "--u", "0", "--type-s"]
    )
    assert code == 0
    assert data["rows"][0]["value"] == "3"
    assert data["rows"][0]["float"] == 3.0


def test_moments_usage_errors():
    code, _ = run(["moments", "--lambda", "1", "--p", "4", "--u", "0"])
    assert code == 2
    code, _ = run(["moments", "--lambda", "1", "--p", "3", "--u", "1/2"])
    assert code == 2
    code, _ = run(["moments", "--lambda", "1", "--p", "3", "--u", "-1"])
    assert code == 2


def test_moments_float_mode_brackets_integer_moments():
    code, data = run_json(
        ["moments", "--lambda", "1", "--p", "3", "--u", "1/2", "--float"]
    )
    assert code == 0
    row = data["rows"][0]
    assert row["value"] is None
    assert 4 / 3 < row["float"] < 2


def test_moments_conjecture_label():
    code, data = run_json(
        [
            "moments",
            "--lambda",
            "1",
            "--p",
            "3",
            "--u",
            "1",
            "--conjecture",
            "class-real",
        ]
    )
    assert code == 0
    row = data["rows"][0]
    assert row["value"] == "4/3"
    assert row["conjecture"] == "class-real"
    assert "real" in row["label"]


def test_oracle_checks_pass():
    for argv, oracle in (
        (["oracle", "--check", "subgroups", "--lambda", "1,1", "--mu", "1", "--p", "2"], 3),
        (["oracle", "--check", "injections", "--lambda", "1", "--mu", "2", "--p", "2"], 1),
        (["oracle", "--check", "aut", "--lambda", "1,1", "--p", "2"], 6),
    ):
        code, data = run_json(argv)
        assert code == 0
        row = data["rows"][0]
        assert row["oracle"] == oracle
        assert row["formula"] == oracle
        assert row["status"] == "PASS"


def test_oracle_rows_unchanged_under_optimize():
    argv = ["oracle", "--check", "aut", "--lambda", "2,1", "--p", "3"]
    env = dict(os.environ, PYTHONPATH=str(Path(qmoments.__file__).parents[1]))
    rows = []
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, "-m", "qmoments.cli", *argv],
            env=env, capture_output=True, text=True, check=True,
        )
        rows.append(json.loads(done.stdout)["rows"])
    assert rows[0] == rows[1] == run_json(argv)[1]["rows"]
    assert rows[0][0]["formula"] == 108


def test_oracle_non_integral_formula_fails(monkeypatch):
    monkeypatch.setattr(cli, "aut_order", lambda lam, p: Fraction(13, 2))
    code, data = run_json(["oracle", "--check", "aut", "--lambda", "1,1", "--p", "2"])
    assert code == 1
    assert data["rows"][0]["formula"] == "13/2"
    assert data["rows"][0]["status"] == "FAIL"
    code, text = run(["--format", "text", "oracle", "--check", "aut", "--lambda", "1,1", "--p", "2"])
    assert code == 1
    assert text.strip() == "aut lambda=1,1 mu=- p=2: oracle 6 vs formula 13/2 FAIL"


def test_oracle_usage_and_bounds():
    code, _ = run(["oracle", "--check", "subgroups", "--lambda", "1,1", "--p", "2"])
    assert code == 2
    code, _ = run(["oracle", "--check", "aut", "--lambda", "13", "--p", "2"])
    assert code == 3


def test_oracle_work_is_bounded():
    # within the order bound, on 2^10 and 3^6: an answer or exit 3 in seconds
    calls = [
        (3, ["--check", "aut", "--lambda", "1^10", "--p", "2"]),
        (3, ["--check", "subgroups", "--lambda", "1^10", "--mu", "1^5", "--p", "2"]),
        (0, ["--check", "subgroups", "--lambda", "1^10", "--mu", "1", "--p", "2"]),
        (3, ["--check", "aut", "--lambda", "1^6", "--p", "3"]),
        (3, ["--check", "injections", "--lambda", "1,1", "--mu", "1^6", "--p", "3"]),
        (0, ["--check", "injections", "--lambda", "1", "--mu", "1^6", "--p", "3"]),
        (0, ["--check", "subgroups", "--lambda", "1^6", "--mu", "1^3", "--p", "3"]),
        (0, ["--check", "subgroups", "--lambda", "1^9", "--mu", "1^3", "--p", "2"]),
    ]
    for code, argv in calls:
        start = time.perf_counter()
        assert run(["oracle"] + argv)[0] == code, argv
        assert time.perf_counter() - start < 5.0, argv
    code, data = run_json(["oracle", "--check", "subgroups", "--lambda", "1^7", "--mu", "1^7", "--p", "2"])
    assert code == 0 and data["rows"][0]["oracle"] == 1
    # the elementary estimate 4 * p^(k(r-k)) admits 1^3 in 2^9 (bound 1,048,576)
    code, data = run_json(["oracle", "--check", "subgroups", "--lambda", "1^9", "--mu", "1^3", "--p", "2"])
    assert code == 0
    assert (data["rows"][0]["oracle"], data["rows"][0]["status"]) == (788035, "PASS")
    assert data["meta"]["bounds"]["max_oracle_work"] == cli.MAX_ORACLE_WORK


def test_cyclic_4096_queries_answer_or_exit_3():
    # Z/4096 at p = 2, the largest group the oracles take: type (k,) has one
    # subgroup and 2^(k-1) injections into it, and (12,) none into Z/2^k;
    # the search refuses k >= 11 (2^(k-1) candidates times 2^k > 2 * 10^6)
    for k in range(1, 13):
        fits = k <= 10
        calls = [
            (["subgroups", "--lambda", "12", "--mu", str(k)], 1 if fits else None),
            (["injections", "--lambda", str(k), "--mu", "12"], 2 ** (k - 1) if fits else None),
            (["injections", "--lambda", "12", "--mu", str(k)], 0 if k < 12 else None),
        ]
        for argv, want in calls:
            code, data = run_json(["oracle", "--check"] + argv + ["--p", "2"])
            if want is None:
                assert code == 3, argv
            else:
                assert code == 0 and data["rows"][0]["oracle"] == want, argv
    assert run(["oracle", "--check", "aut", "--lambda", "12", "--p", "2"])[0] == 3


def test_verify_single_case():
    code, data = run_json(["verify", "--id", "QBIN", "--n", "6"])
    assert code == 0
    assert data["rows"][0]["passed"] is True
    code, data = run_json(
        ["verify", "--id", "UMOY_ABELIAN", "--ell", "2", "--lambda", "2,1", "--zmax", "8"]
    )
    assert code == 0
    assert data["rows"][0]["passed"] is True


def test_verify_exit_codes():
    code, _ = run(["verify", "--id", "NOPE"])
    assert code == 2
    code, _ = run(["verify"])
    assert code == 2
    code, _ = run(["verify", "--id", "QBINHL", "--nx", "5", "--d", "12"])
    assert code == 3


def test_verify_rejects_negative_qbin_size():
    code, out = run(["verify", "--id", "QBIN", "--n", "-1"])
    assert code == 2
    assert out == ""


def test_verify_qbin_size_is_bounded():
    start = time.perf_counter()
    code, out = run(["verify", "--id", "QBIN", "--n", "1000"])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    code, data = run_json(["verify", "--id", "QBIN", "--n", "2"])
    assert data["meta"]["bounds"]["max_verify_work"] == identities.MAX_VERIFY_WORK
    # n = 59 is the last QBIN the work budget admits
    assert identities.REGISTRY["QBIN"].work({"n": 59}) <= identities.MAX_VERIFY_WORK
    assert identities.REGISTRY["QBIN"].work({"n": 60}) > identities.MAX_VERIFY_WORK


def test_verify_series_degree_and_samples_are_bounded(capsys):
    # each refused on its work estimate: series degree 16 in four
    # variables, and 501 random points of n = 4, k = 3 (500 take 3.8 s);
    # LASCOUX's y-degree is at most dx, so only a large dx is refused there
    over = 16
    bad = [
        ["verify", "--id", "QBINHL", "--nx", "4", "--d", str(over)],
        ["verify", "--id", "FINITE_QBINHL", "--n", "4", "--k", "3", "--samples", "501"],
    ]
    for cid, shapes in (("WARNAAR_A2", ((over, 1), (1, over))), ("LASCOUX", ((over, 1),))):
        for dx, dy in shapes:
            bad.append(["verify", "--id", cid, "--nx", "4", "--ny", "4",
                        "--dx", str(dx), "--dy", str(dy)])
    start = time.perf_counter()
    for argv in bad:
        assert run(argv) == (3, "")
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == len(bad) and all(line.startswith("resource bound: ") for line in err)
    assert all("work exceeded" in line for line in err)
    code, data = run_json(["verify", "--id", "QBINHL", "--nx", "2", "--d", "4"])
    assert code == 0
    assert data["meta"]["bounds"]["max_verify_work"] == identities.MAX_VERIFY_WORK
    epilog = cli.build_parser().epilog
    assert "estimated verify work <= %d units" % identities.MAX_VERIFY_WORK in epilog


def test_lascoux_with_no_x_alphabet_is_admitted():
    # with nx = 0 every lam and mu is empty, so the constant is the one
    # kept key and no y alphabet is built: the estimate counts that, not the
    # 3-variable y-keys of degree <= 26 and their hl_p builds (4.07M units)
    params = {"nx": 0, "ny": 3, "dx": 26, "dy": 26}
    assert identities.REGISTRY["LASCOUX"].work(params) < 1000
    argv = ["verify", "--id", "LASCOUX"] + ["--%s=%d" % kv for kv in params.items()]
    start = time.perf_counter()
    code, data = run_json(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert data["rows"][0]["passed"] and data["rows"][0]["compared"] == 3


def test_symbolic_finite_alphabet_is_bounded_but_sampled_runs(capsys):
    # symbolic n = 4, k = 1 compares 276,300 coefficients in about 47 s
    n = "4"
    start = time.perf_counter()
    for k in ("1", "2", "3"):
        assert run(["verify", "--id", "FINITE_QBINHL", "--n", n, "--k", k]) == (3, "")
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert all(line.startswith("resource bound: FINITE_QBINHL work exceeded") for line in err)
    argv = ["verify", "--id", "FINITE_QBINHL", "--n", n, "--k", "1", "--samples", "20"]
    code, data = run_json(argv)
    row = data["rows"][0]
    assert (code, row["passed"], row["strategy"], row["compared"]) == (0, True, "random-point", 20)
    assert data["meta"]["bounds"]["max_verify_work"] == identities.MAX_VERIFY_WORK


def test_every_registry_param_has_a_verify_option():
    parser = cli.build_parser()
    for cid, identity in identities.REGISTRY.items():
        argv = ["verify", "--id", cid]
        for name in identity.params:
            argv += ["--lambda", "1"] if name == "lam" else ["--" + name, "1"]
        params = cli._verify_params(parser.parse_args(argv))
        assert params == {name: [1] if name == "lam" else 1 for name in identity.params}, cid


def _verify_argv(cid, params):
    argv = ["verify", "--id", cid]
    for name, value in params.items():
        if name == "lam":
            argv += ["--lambda", ",".join(map(str, value))]
        else:
            argv += ["--" + name, str(value)]
    return argv


@pytest.mark.parametrize("cid", IDENTITY_IDS)
def test_verify_params_are_checked_before_any_work(cid, capsys):
    # the params of the id's first manifest case, without the sampling ones
    params = next(c.params for c in load_manifest()[2] if c.case_id == cid)
    params = {k: v for k, v in params.items() if k not in ("samples", "seed")}
    for name in params:
        rest = {k: v for k, v in params.items() if k != name}
        # --case-seed keeps the params non-empty, so no manifest case runs
        bad = [_verify_argv(cid, rest) + ["--case-seed", "1"]]
        if name != "lam":
            bad.append(_verify_argv(cid, dict(params, **{name: -1})))
        for argv in bad:
            code, out = run(argv)
            assert (code, out) == (2, "")
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")
    code, out = run(_verify_argv(cid, params) + ["--samples", "20"])
    if cid == "FINITE_QBINHL":
        row = json.loads(out)["rows"][0]
        assert (code, row["strategy"], row["compared"]) == (0, "random-point", 20)
    else:
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith("error: %s has no random-point check" % cid)


def test_coeff_degree_is_bounded(capsys):
    start = time.perf_counter()
    for lam, mu in (("1^300", "1^150"), ("1^600", "1^300")):
        code, out = run(["coeff", "--lambda", lam, "--mu", mu])
        assert (code, out) == (3, "")
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("resource bound: ") for line in err)
    code, data = run_json(["coeff", "--lambda", "1^20", "--mu", "1^10"])
    assert code == 0
    assert data["meta"]["bounds"]["max_c_degree"] == rbasis.MAX_C_DEGREE
    assert "degree of C(lambda; mu) <= %d" % rbasis.MAX_C_DEGREE in cli.build_parser().epilog


def test_float_moment_size_is_bounded():
    start = time.perf_counter()
    argv = ["moments", "--lambda", "1^300", "--p", "3", "--u", "1/2", "--float"]
    for flavor in ([], ["--type-s"]):
        code, out = run(argv + flavor)
        assert (code, out) == (3, "")
    assert time.perf_counter() - start < 1.0


# calls that a bound on the number of subpartitions of lam alone admitted,
# each of which then ran past a 20 s timeout: the work estimate counts the
# degree and columns of every C_{lam,nu} too, so each exits 3 at once
_LONG_LAM_CALLS = [
    ["verify", "--id", "GENFUN", "--lambda", "2^90", "--p", "2", "--zmax", "12"],
    ["verify", "--id", "COMBINAT", "--lambda", "2^90", "--zmax", "12"],
    ["verify", "--id", "MIRROR_SWAP", "--lambda", "2^90"],
    ["verify", "--id", "MIRROR_SWAP", "--lambda", "9999"],
    ["verify", "--id", "UMOY_ABELIAN", "--lambda", "2^90", "--ell", "9999", "--zmax", "12"],
]


@pytest.mark.parametrize("argv", _LONG_LAM_CALLS, ids=" ".join)
def test_long_lam_calls_exit_3_within_a_second(argv, capsys):
    start = time.perf_counter()
    with time_limit(1):
        assert run(argv) == (3, "")
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("resource bound: %s work exceeded" % argv[2]), err


# the same lam in type S, up to z^12, builds only the C of the nu of size
# at most 6, so it answers, in about 0.3 s
@pytest.mark.parametrize("ell", ["2", "9999"])
def test_long_lam_type_s_calls_answer(ell):
    argv = ["verify", "--id", "UMOY_TYPE_S", "--lambda", "2^90", "--ell", ell, "--zmax", "12"]
    with time_limit(10):
        code, out = run(argv)
    assert code == 0 and json.loads(out)["rows"][0]["passed"]


def _verify_case(argv):
    """The IdentityCase that `qmoments verify` builds from `argv`, with its
    params as `verify` checks them (`lam` a Partition)."""
    args = cli.build_parser().parse_args(argv)
    params = cli._verify_params(args)
    case = identities.IdentityCase(args.id.upper(), params)
    if "lam" in params:
        params = dict(params, lam=Partition(params["lam"]))
    return case, params


def test_pinned_calls_sit_well_inside_the_work_budget():
    # every manifest case and every `verify` call of the cli-cold benchmark
    # estimates at most a tenth of MAX_VERIFY_WORK, so a retune of a weight
    # or of the budget cannot refuse a pinned call unnoticed
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    checked = []
    for case in load_manifest()[2]:
        params = dict(case.params)
        if "lam" in params:
            params["lam"] = Partition(params["lam"])
        checked.append((case.case_id, case.params, params))
    argvs = [argv for argv in workloads.cli_pool() if argv[0] == "verify"]
    assert len(argvs) >= 20
    for argv in argvs:
        case, params = _verify_case(argv)
        checked.append((case.case_id, case.params, params))
    over = [(cid, raw) for cid, raw, params in checked
            if identities.REGISTRY[cid].work(params) > identities.MAX_VERIFY_WORK // 10]
    assert over == []


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_PINNED = _PERFBENCH / "pinned.json"


def test_pinned_cli_rows_replay_in_process():
    # every CLI call the benchmark can draw, with its pinned exit code and
    # JSON rows (per-run timings left out)
    pinned = json.loads(_PINNED.read_text())["cli"]
    assert pinned
    mismatched = []
    for key, want in pinned.items():
        argv = json.loads(key)
        code, out = run(argv)
        rows = json.loads(out)["rows"] if out else []
        for row in rows:
            row.pop("elapsed_seconds", None)
        if (code, rows) != (want["exit"], want["rows"]):
            mismatched.append(argv)
    assert mismatched == []


def _readme_examples():
    """(argv, printed lines) of each `$ qmoments ...` example in the README:
    the lines after it, up to a blank line or the end of its code block."""
    examples, printed = [], None
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines():
        if line.startswith("$ qmoments "):
            printed = []
            examples.append((shlex.split(line)[2:], printed))
        elif printed is not None and line.strip() and not line.startswith("```"):
            printed.append(line)
        else:
            printed = None
    return examples


_TIMING = re.compile(r"\d+\.\d+s\)")


def test_readme_examples_print_what_the_readme_shows():
    examples = _readme_examples()
    assert len(examples) >= 5
    for argv, printed in examples:
        code, out = run(argv)
        assert code == 0, argv
        assert _TIMING.sub("<t>s)", out).splitlines() == [_TIMING.sub("<t>s)", x) for x in printed], argv


def test_verify_genfun_rejects_composite_p():
    argv = ["verify", "--id", "GENFUN", "--lambda", "1", "--zmax", "4", "--p"]
    for p in ("4", "1000000"):
        code, out = run(argv + [p])
        assert code == 2
        assert out == ""
    code, data = run_json(argv + ["3"])
    assert code == 0
    assert data["rows"][0]["passed"] is True


_IMPORT_PATH_SCRIPT = """
import io, json, sys
import qmoments.cli
loaded = [m for m in ("mpmath", "dataclasses", "inspect") if m in sys.modules]
out = io.StringIO()
code = qmoments.cli.main(
    ["moments", "--lambda", "1", "--p", "3", "--u", "1/2", "--float"], out=out)
from qmoments import RankProfile, pj_rank_prob
factor, residual = pj_rank_prob(RankProfile((), 1, 2, 0))
print(json.dumps({"loaded": loaded, "code": code,
                  "float": json.loads(out.getvalue())["rows"][0]["float"],
                  "factor": str(factor), "residual": str(residual.value),
                  "mpmath_after": "mpmath" in sys.modules}))
"""


def test_cold_import_leaves_mpmath_and_dataclasses_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(qmoments.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PATH_SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    )
    data = json.loads(done.stdout)
    assert data["loaded"] == []
    # the float paths load mpmath on demand and keep their pinned values
    assert data["code"] == 0
    assert data["float"] == 1.5773502691896257
    assert data["factor"] == "1"
    assert data["residual"] == "0.288788095086865"
    assert data["mpmath_after"] is True


def test_is_prime_is_exact_below_its_bound():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(-3, 5000) if groups._is_prime(n)] == [
        n for n in range(-3, 5000) if trial(n)
    ]
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not groups._is_prime(n)
    for n in (4999, 2**31 - 1, 2**61 - 1, 10**18 + 3):
        assert groups._is_prime(n)
    assert not groups._is_prime(groups.MAX_PRIME)  # even
    with pytest.raises(ResourceBoundError):
        groups._is_prime(groups.MAX_PRIME + 1)


def test_huge_prime_p_answers_fast():
    p = "1000000000000000003"
    start = time.perf_counter()
    code, data = run_json(["table", "--conjecture", "sha", "--lambda", "1", "--p", p, "--u", "1"])
    assert code == 0
    assert data["rows"][0]["value"] == "1000000000000000004/1000000000000000003"
    code, data = run_json(["verify", "--id", "GENFUN", "--lambda", "1", "--p", p, "--zmax", "2"])
    assert code == 0
    assert data["rows"][0]["passed"] is True
    code, out = run(["moments", "--lambda", "1", "--p", str(cli.MAX_PRIME + 2), "--u", "1"])
    assert code == 3
    assert out == ""
    assert time.perf_counter() - start < 1.0
    assert data["meta"]["bounds"]["max_prime"] == cli.MAX_PRIME


def test_exact_moment_size_is_bounded():
    start = time.perf_counter()
    code, out = run(["moments", "--lambda", "1", "--p", "3", "--u", "100000000"])
    assert code == 3
    assert out == ""
    code, out = run(["table", "--conjecture", "sha", "--lambda", "1", "--p", "3", "--u", "100000000"])
    assert code == 3
    assert out == ""
    code, out = run(["moments", "--lambda", "1", "--p", "3", "--u", "100000000", "--type-s"])
    assert code == 3
    assert time.perf_counter() - start < 1.0
    # 5000 * log2(3) = 7925 bits is inside the bound, 5200 * log2(3) = 8242 is not
    code, data = run_json(["moments", "--lambda", "1", "--p", "3", "--u", "5000"])
    assert code == 0
    assert data["rows"][0]["value"] == str(1 + Fraction(1, 3**5000))
    assert data["meta"]["bounds"]["max_moment_bits"] == cli.MAX_MOMENT_BITS
    code, _ = run(["moments", "--lambda", "1", "--p", "3", "--u", "5200"])
    assert code == 3
    assert "exact moments <= %d bits" % cli.MAX_MOMENT_BITS in cli.build_parser().epilog


def test_moment_size_bound_counts_c_at_u_zero():
    # u = 0 leaves only C_{1^300,1^k}(3), of degree up to 150^2 in p
    start = time.perf_counter()
    code, out = run(["table", "--conjecture", "class-imaginary", "--lambda", "1^300", "--p", "3"])
    assert code == 3
    assert out == ""
    code, _ = run(["moments", "--lambda", "1^300", "--p", "3", "--u", "0", "--type-s"])
    assert code == 3
    assert time.perf_counter() - start < 1.0


def test_value_too_large_for_a_float_has_null_float():
    for argv in (
        ["moments", "--lambda", "1^100", "--p", "3", "--u", "0"],
        ["table", "--conjecture", "class-real", "--lambda", "1^100", "--p", "3"],
    ):
        code, data = run_json(argv)
        assert code == 0
        row = data["rows"][0]
        assert row["float"] is None and row["float_overflow"] is True
        assert Fraction(row["value"]) > 2**1024
        code, text = run(argv + ["--format", "text"])
        assert code == 0
        assert text.strip().endswith(str(Fraction(row["value"])))
    # an mpmath value past the float range reads inf: the same null and flag
    code, data = run_json(["moments", "--lambda", "1^60", "--p", "3", "--u", "1/2", "--float"])
    assert code == 0
    row = data["rows"][0]
    assert row["value"] is None and row["float"] is None and row["float_overflow"] is True
    # a value that fits keeps its float and has no flag
    code, data = run_json(["moments", "--lambda", "1^20", "--p", "3", "--u", "0"])
    assert code == 0
    row = data["rows"][0]
    assert row["float"] == float(Fraction(row["value"])) and "float_overflow" not in row


def test_verify_mutation_fails_with_localized_mismatch():
    code, data = run_json(["verify", "--id", "QBIN", "--n", "5", "--mutate"])
    assert code == 1
    row = data["rows"][0]
    assert row["passed"] is False
    assert row["mismatch"]["coefficient"]
    assert row["mismatch"]["lhs"] != row["mismatch"]["rhs"]


def test_verify_all_with_custom_manifest(tmp_path):
    manifest = {
        "version": 1,
        "default_seed": 5,
        "cases": [
            {"id": "QBIN", "strategy": "symbolic-exact", "params": {"n": 3}},
            {"id": "MIRROR_SWAP", "strategy": "symbolic-exact", "params": {"lam": [2, 1]}},
        ],
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, data = run_json(["verify", "--all", "--manifest", str(path)])
    assert code == 0
    assert [r["id"] for r in data["rows"]] == ["MIRROR_SWAP", "QBIN"]


def test_verify_all_applies_mutate(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"version": 1, "cases": [
        {"id": "QBIN", "strategy": "symbolic-exact", "params": {"n": 3}}]}))
    code, data = run_json(["verify", "--all", "--manifest", str(path), "--mutate"])
    assert code == 1
    assert data["rows"][0]["passed"] is False and data["rows"][0]["mismatch"]


def test_table_pinned_values_and_warning():
    code, data = run_json(["table", "--conjecture", "selmer", "--ell", "1", "--m", "3", "--p", "2"])
    assert code == 0
    assert data["rows"][0]["value"] == "135"
    code, data = run_json(["table", "--conjecture", "sha", "--u", "1", "--lambda", "1", "--p", "3"])
    assert code == 0
    assert data["rows"][0]["value"] == "4/3"
    code, data = run_json(["table", "--conjecture", "class-imaginary", "--lambda", "1", "--p", "3"])
    assert code == 0
    assert data["rows"][0]["value"] == "2"
    assert "warning" not in data["rows"][0]
    code, data = run_json(["table", "--conjecture", "class-imaginary", "--lambda", "1", "--p", "2"])
    assert code == 0
    assert "out-of-stated-range" in data["rows"][0]["warning"]


def test_table_usage_errors():
    code, _ = run(["table", "--conjecture", "selmer", "--p", "2"])
    assert code == 2
    code, _ = run(["table", "--conjecture", "sha", "--lambda", "1", "--p", "3"])
    assert code == 2
    code, _ = run(["table", "--conjecture", "class-real", "--lambda", "1", "--p", "6"])
    assert code == 2


def test_csv_output_has_header():
    code, text = run(["--format", "csv", "moments", "--lambda", "1", "--p", "3", "--u", "1"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].startswith("lambda,p,u,flavor,value,float")
    assert "4/3" in lines[1]


def test_format_flag_accepted_after_subcommand():
    code, text = run(["moments", "--lambda", "1", "--p", "3", "--u", "1", "--format", "text"])
    assert code == 0
    assert "4/3" in text


def test_seed_override_is_echoed():
    code, data = run_json(["--seed", "7", "coeff", "--lambda", "1", "--mu", "1"])
    assert code == 0
    assert data["meta"]["seed"] == 7


# a series degree that puts four-variable alphabets past the work budget
# (in x only for LASCOUX, whose y-degree is at most its x-degree)
_OVER = "16"
_MANIFESTS = {
    "not-json": "not json",
    "no-cases": '{"version": 1}',
    "bad-param": '{"version": 1, "cases": [{"id": "QBIN", "strategy": "symbolic-exact",'
                 ' "params": {"n": "abc"}}]}',
    "list-id": '{"version": 1, "cases": [{"id": ["QBIN"], "strategy": "symbolic-exact"}]}',
    "list-seed": '{"version": 1, "cases": [{"id": "FINITE_QBINHL", "strategy": "random-point",'
                 ' "params": {"n": 2, "k": 1, "samples": 20, "seed": [1]}}]}',
    "bool-seed": '{"version": 1, "cases": [{"id": "FINITE_QBINHL", "strategy": "random-point",'
                 ' "params": {"n": 2, "k": 1, "samples": 20, "seed": true}}]}',
    "float-n": '{"version": 1, "cases": [{"id": "QBIN", "strategy": "symbolic-exact",'
               ' "params": {"n": 3.9}}]}',
    "bool-n": '{"version": 1, "cases": [{"id": "QBIN", "strategy": "symbolic-exact",'
              ' "params": {"n": true}}]}',
    "string-n": '{"version": 1, "cases": [{"id": "QBIN", "strategy": "symbolic-exact",'
                ' "params": {"n": "4"}}]}',
    "float-part": '{"version": 1, "cases": [{"id": "MIRROR_SWAP", "strategy": "symbolic-exact",'
                  ' "params": {"lam": [2.5]}}]}',
    "int-lam": '{"version": 1, "cases": [{"id": "MIRROR_SWAP", "strategy": "symbolic-exact",'
               ' "params": {"lam": 3}}]}',
    "string-lam": '{"version": 1, "cases": [{"id": "MIRROR_SWAP", "strategy": "symbolic-exact",'
                  ' "params": {"lam": "21"}}]}',
    "wrong-strategy": '{"version": 1, "cases": [{"id": "FINITE_QBINHL", "strategy": "random-point",'
                      ' "params": {"n": 2, "k": 1}}]}',
    "unread-param": '{"version": 1, "cases": [{"id": "FINITE_QBINHL", "strategy": "symbolic-exact",'
                    ' "params": {"n": 2, "k": 1, "sample": 20}}]}',
}

# every usage-error and resource-bound call of this file, and the refusals
# of k = 0, ell = 0, too few samples, lam_1 > ell, an unreadable manifest, a
# seed, an int param or a part of lam that is not an int, a lam that is not
# a list, a case whose strategy is not the one its params run, a param the
# identity does not read, --all with a single-case option, an out-of-range
# selmer row, a negative or non-integral u where the path needs one, a
# moment of another flavor, u or shape than its --conjecture describes, and
# a table or oracle option the call does not read; and a selmer rectangle,
# a group order, a u and a C table too large to build, each refused before
# it is built; every call here ends within a second
_REFUSED = [
    (2, ["coeff", "--lambda", "1,2", "--mu", "1"]),
    (2, ["coeff", "--lambda", "1,1", "--mu", "1", "--eval-at", "x"]),
    (2, ["moments", "--lambda", "1", "--p", "4", "--u", "0"]),
    (2, ["moments", "--lambda", "1", "--p", "3", "--u", "1/2"]),
    (2, ["moments", "--lambda", "1", "--p", "3", "--u", "-1"]),
    (2, ["moments", "--lambda", "1", "--p", "3", "--u=-1/2", "--float"]),
    (2, ["oracle", "--check", "subgroups", "--lambda", "1,1", "--p", "2"]),
    (2, ["verify", "--id", "NOPE"]),
    (2, ["verify"]),
    (2, ["verify", "--id", "QBIN", "--n", "-1"]),
    (2, ["verify", "--id", "QBINHL", "--nx", "2", "--d", "4", "--samples", "20"]),
    (2, ["verify", "--id", "GENFUN", "--lambda", "1", "--zmax", "4", "--p", "4"]),
    (2, ["verify", "--id", "GENFUN", "--lambda", "1", "--zmax", "4", "--p", "1000000"]),
    (2, ["table", "--conjecture", "selmer", "--p", "2"]),
    (2, ["table", "--conjecture", "sha", "--lambda", "1", "--p", "3"]),
    (2, ["table", "--conjecture", "sha", "--lambda", "1", "--p", "3", "--u", "1/2"]),
    (2, ["table", "--conjecture", "class-real", "--lambda", "1", "--p", "6"]),
    (2, ["verify", "--id", "CSQ", "--n", "1", "--k", "0"]),
    (2, ["verify", "--id", "FINITE_QBINHL", "--n", "1", "--k", "0"]),
    (2, ["verify", "--id", "FINITE_QBINHL", "--n", "1", "--k", "0", "--samples", "20"]),
    (2, ["verify", "--id", "FINITE_QBINHL", "--n", "2", "--k", "1", "--samples", "5"]),
    (2, ["verify", "--id", "DELAUNAY", "--ell", "0", "--zmax", "4"]),
    (2, ["verify", "--id", "UMOY_ABELIAN", "--lambda", "", "--ell", "0", "--zmax", "4"]),
    (2, ["verify", "--id", "UMOY_TYPE_S", "--lambda", "1", "--ell", "0", "--zmax", "4"]),
    (2, ["verify", "--id", "UMOY_ABELIAN", "--lambda", "2", "--ell", "1", "--zmax", "4"]),
    (2, ["verify", "--all", "--manifest", "{missing}"]),
    (2, ["verify", "--all", "--manifest", "{not-json}"]),
    (2, ["verify", "--all", "--manifest", "{no-cases}"]),
    (2, ["verify", "--all", "--manifest", "{bad-param}"]),
    (2, ["verify", "--all", "--manifest", "{list-id}"]),
    (2, ["verify", "--all", "--manifest", "{list-seed}"]),
    (2, ["verify", "--all", "--manifest", "{bool-seed}"]),
    (2, ["verify", "--all", "--manifest", "{float-n}"]),
    (2, ["verify", "--all", "--manifest", "{bool-n}"]),
    (2, ["verify", "--all", "--manifest", "{string-n}"]),
    (2, ["verify", "--all", "--manifest", "{float-part}"]),
    (2, ["verify", "--all", "--manifest", "{int-lam}"]),
    (2, ["verify", "--all", "--manifest", "{string-lam}"]),
    (2, ["verify", "--all", "--manifest", "{wrong-strategy}"]),
    (2, ["verify", "--all", "--manifest", "{unread-param}"]),
    (2, ["verify", "--id", "QBIN", "--n", "3", "--zmax", "4"]),
    (2, ["verify", "--all", "--id", "QBIN"]),
    (2, ["verify", "--all", "--n", "3"]),
    (2, ["table", "--conjecture", "selmer", "--ell", "0", "--m", "1", "--p", "2"]),
    (2, ["table", "--conjecture", "selmer", "--ell", "1", "--m", "-1", "--p", "2"]),
    (2, ["moments", "--lambda", "1", "--p", "3", "--u", "2", "--type-s", "--conjecture", "class-imaginary"]),
    (2, ["moments", "--lambda", "1", "--p", "3", "--u", "0", "--conjecture", "class-real"]),
    (2, ["moments", "--lambda", "1", "--p", "3", "--u", "1", "--conjecture", "sha"]),
    (2, ["moments", "--lambda", "2,1", "--p", "3", "--u", "0", "--type-s", "--conjecture", "selmer"]),
    (2, ["moments", "--lambda", "1", "--p", "3", "--u", "1", "--type-s", "--conjecture", "selmer"]),
    (2, ["table", "--conjecture", "class-real", "--lambda", "1", "--p", "3", "--u", "5"]),
    (2, ["table", "--conjecture", "selmer", "--ell", "1", "--m", "3", "--p", "2", "--lambda", "5", "--u", "7"]),
    (2, ["table", "--conjecture", "sha", "--lambda", "1", "--p", "3", "--u", "1", "--m", "2"]),
    (2, ["oracle", "--check", "aut", "--lambda", "2,1", "--mu", "7,7", "--p", "2"]),
    (3, ["oracle", "--check", "aut", "--lambda", "13", "--p", "2"]),
    (3, ["oracle", "--check", "aut", "--lambda", "1^10", "--p", "2"]),
    (3, ["oracle", "--check", "subgroups", "--lambda", "1^10", "--mu", "1^5", "--p", "2"]),
    (3, ["oracle", "--check", "injections", "--lambda", "1^3", "--mu", "1^6", "--p", "3"]),
    (3, ["verify", "--id", "QBINHL", "--nx", "5", "--d", "12"]),
    (3, ["verify", "--id", "QBIN", "--n", "1000"]),
    (3, ["verify", "--id", "QBINHL", "--nx", "4", "--d", "16"]),
    (3, ["verify", "--id", "FINITE_QBINHL", "--n", "4", "--k", "3", "--samples", "501"]),
    (3, ["verify", "--id", "FINITE_QBINHL", "--n", "1", "--k", "1", "--samples", "100000"]),
    (3, ["verify", "--id", "WARNAAR_A2", "--nx", "4", "--ny", "4", "--dx", _OVER, "--dy", "1"]),
    (3, ["verify", "--id", "LASCOUX", "--nx", "4", "--ny", "4", "--dx", _OVER, "--dy", "1"]),
    (3, ["verify", "--id", "FINITE_QBINHL", "--n", "4", "--k", "1"]),
    (3, ["coeff", "--lambda", "1^300", "--mu", "1^150"]),
    (3, ["coeff", "--lambda", "1^600", "--mu", "1^300"]),
    (3, ["moments", "--lambda", "1^300", "--p", "3", "--u", "1/2", "--float"]),
    (3, ["moments", "--lambda", "1^300", "--p", "3", "--u", "1/2", "--float", "--type-s"]),
    (3, ["moments", "--lambda", "1", "--p", str(cli.MAX_PRIME + 2), "--u", "1"]),
    (3, ["moments", "--lambda", "1", "--p", "3", "--u", "100000000"]),
    (3, ["moments", "--lambda", "1", "--p", "3", "--u", "100000000", "--type-s"]),
    (3, ["moments", "--lambda", "1", "--p", "3", "--u", "5200"]),
    (3, ["table", "--conjecture", "sha", "--lambda", "1", "--p", "3", "--u", "100000000"]),
    (3, ["table", "--conjecture", "class-imaginary", "--lambda", "1^300", "--p", "3"]),
    (3, ["table", "--conjecture", "selmer", "--ell", "2", "--m", "2147483647", "--p", "2"]),
    (3, ["oracle", "--check", "subgroups", "--lambda", "6152", "--mu", "", "--p", "5"]),
    (3, ["oracle", "--check", "aut", "--lambda", "1000000", "--p", "1000000000000000003"]),
    (3, ["moments", "--lambda", "1", "--p", "3", "--u", "1e5000"]),
    (3, ["moments", "--lambda", "1^300", "--p", "3", "--u", "0", "--type-s"]),
    (3, ["moments", "--lambda", "1000,1000", "--p", "2", "--u", "1"]),
    (3, ["moments", "--lambda", "2^90", "--p", "2", "--u", "1"]),
    (3, ["moments", "--lambda", "5^20", "--p", "2", "--u", "1"]),
    (3, ["moments", "--lambda", "10^10", "--p", "2", "--u", "1"]),
    (3, ["moments", "--lambda", "1^175", "--p", "2", "--u", "1"]),
    (3, ["moments", "--lambda", "5^20", "--p", "2", "--u", "1/2", "--float", "--type-s"]),
    (3, ["table", "--conjecture", "class-imaginary", "--lambda", "1000,1000", "--p", "2"]),
    (3, ["table", "--conjecture", "class-imaginary", "--lambda", "2^90", "--p", "2"]),
    (3, ["table", "--conjecture", "class-imaginary", "--lambda", "5^20", "--p", "2"]),
    (3, ["table", "--conjecture", "class-imaginary", "--lambda", "10^10", "--p", "2"]),
]


@pytest.mark.parametrize("code, argv", _REFUSED, ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_refused_call_prints_one_line_and_no_rows(code, argv, tmp_path, capsys):
    for name, text in _MANIFESTS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv]
    start = time.perf_counter()
    with time_limit(1):
        assert run(argv) == (code, "")
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: " if code == 2 else "resource bound: ")


# -- the CLI, fuzzed -------------------------------------------------------------

# partition text: small and valid, malformed, a long row, a long column, a
# staircase or a rectangle in multiplicity form
_PARTITION_TEXT = st.integers(0, 6).flatmap(lambda kind: [
    st.lists(st.integers(1, 6), max_size=5).map(lambda xs: ",".join(map(str, sorted(xs, reverse=True)))),
    st.one_of(st.sampled_from(["a,b", "2,-1", "0", "1.5", "1,2", "2^", "^2", "1^-1", "3 2", ",", "1,,1",
                               "1^2^3", "x^2", " ", "2^0 1", "-1^2"]), st.text(max_size=6)),
    st.integers(1, 10**6).map(str),
    st.integers(1, 10**5).map(lambda n: "1^%d" % n),
    st.integers(1, 40).map(lambda n: ",".join(str(i) for i in range(n, 0, -1))),
    st.tuples(st.integers(1, 40), st.integers(1, 40)).map(lambda t: "%d^%d" % t),
    st.sampled_from(["", "1", "2,1", "1^2", "3,1"]),
][kind])
# an int flag: a prime, a composite, or a huge, zero or negative int, or
# text argparse refuses
_INT_TEXT = st.integers(0, 7).flatmap(lambda kind: [
    st.sampled_from([2, 3, 5, 7, 11, 13]).map(str), st.sampled_from([2, 3, 5]).map(str),
    st.sampled_from([1, 4, 6, 9, 15, 91, 2**31 - 1, 10**18 + 3]).map(str),
    st.integers(10**6, 10**40).map(str), st.integers(-5, 0).map(str), st.integers(0, 12).map(str),
    st.sampled_from(["x", "", "2.0", "1e3"]), st.integers(10**40, 10**90).map(str),
][kind])
# a rational flag: a valid one, or text that is no rational
_RATIONAL_TEXT = st.one_of(
    st.sampled_from(["0", "1", "2", "1/2", "3/7", "-1", "-1/2", "7/3"]),
    st.sampled_from(["1/0", "abc", "", "nan", "inf", "-inf", "1e400", "1.5", "1/2/3", " ", "0x10"]),
    st.fractions(max_denominator=50).map(str), st.integers(-10**30, 10**30).map(str), st.text(max_size=5),
)
_FORMAT = st.lists(st.sampled_from(["--format", "json", "csv", "text"]), max_size=2)


def _maybe(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _argv(head, *parts):
    return st.tuples(*parts).map(lambda ps: head + [a for p in ps for a in p])


_COEFF = _argv(["coeff"], _PARTITION_TEXT.map(lambda t: ["--lambda", t]),
               _PARTITION_TEXT.map(lambda t: ["--mu", t]), _maybe("--eval-at", _RATIONAL_TEXT))
_MOMENTS = _argv(["moments"], _PARTITION_TEXT.map(lambda t: ["--lambda", t]),
                 _INT_TEXT.map(lambda t: ["--p", t]), _RATIONAL_TEXT.map(lambda t: ["--u=" + t]),
                 st.sampled_from([[], ["--type-s"]]), st.sampled_from([[], ["--float"]]),
                 _maybe("--conjecture", st.sampled_from(sorted(moments.CONJECTURES))))
_ORACLE = _argv(["oracle"], st.sampled_from(["subgroups", "injections", "aut"]).map(lambda c: ["--check", c]),
                _PARTITION_TEXT.map(lambda t: ["--lambda", t]), _maybe("--mu", _PARTITION_TEXT),
                _INT_TEXT.map(lambda t: ["--p", t]))
_TABLE = _argv(["table"], st.sampled_from(sorted(moments.CONJECTURES)).map(lambda c: ["--conjecture", c]),
               _INT_TEXT.map(lambda t: ["--p", t]), _maybe("--lambda", _PARTITION_TEXT),
               _maybe("--u", _RATIONAL_TEXT), _maybe("--ell", _INT_TEXT), _maybe("--m", _INT_TEXT))

# a manifest: text that is no JSON, any small JSON value, or a manifest
# whose fields, cases and params may each be missing, mistyped or huge
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 10**20), st.floats(allow_nan=False), st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_PARAM_VALUE = st.one_of(st.integers(0, 6), st.integers(-2, 10**9), st.lists(st.integers(-1, 4), max_size=4), _JSON)
_CASE = st.fixed_dictionaries({}, optional={
    "id": st.one_of(st.sampled_from(IDENTITY_IDS), _JSON),
    "strategy": st.one_of(st.sampled_from(["symbolic-exact", "truncated-series", "random-point"]), _JSON),
    "params": st.one_of(st.dictionaries(
        st.sampled_from(["n", "k", "lam", "ell", "zmax", "p", "nx", "ny", "d", "dx", "dy", "samples", "seed"]),
        _PARAM_VALUE, max_size=5), _JSON),
})
_MANIFEST_TEXT = st.one_of(
    st.text(max_size=20),
    _JSON.map(json.dumps),
    st.fixed_dictionaries({}, optional={
        "version": st.one_of(st.just(1), _JSON), "default_seed": st.one_of(st.integers(0, 10**9), _JSON),
        "cases": st.one_of(st.lists(_CASE, max_size=3), _JSON),
    }).map(json.dumps),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(_COEFF, _MOMENTS, _ORACLE, _TABLE, _MANIFEST_TEXT.map(lambda t: ["verify", "--all", t])),
       _FORMAT)
def test_every_drawn_call_exits_0_2_or_3_without_a_traceback(argv, fmt):
    # with every budget cut to 1/50 each admitted call is cheap; each ends
    # in an answer (0), a usage error (2) or a refusal (3), within 2 s
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(identities, "MAX_VERIFY_WORK", identities.MAX_VERIFY_WORK // 50)
        patch.setattr(moments, "MAX_MOMENT_BITS", moments.MAX_MOMENT_BITS // 50)
        patch.setattr(rbasis, "MAX_C_DEGREE", rbasis.MAX_C_DEGREE // 50)
        patch.setattr(groups, "MAX_ORACLE_WORK", groups.MAX_ORACLE_WORK // 50)
        if argv[:2] == ["verify", "--all"]:
            path = Path(tmp) / "manifest.json"
            path.write_text(argv[2])
            argv = argv[:2] + ["--manifest", str(path)]
        err = io.StringIO()
        start = time.perf_counter()
        with time_limit(2), contextlib.redirect_stderr(err):
            code = main(argv + fmt, out=io.StringIO())
        assert code in (0, 2, 3), (argv + fmt, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert time.perf_counter() - start < 2, argv + fmt
        if code == 0 and argv[0] in ("table", "oracle"):
            # an answered call read every option it was given: its row names
            # each one (every option of these two takes one value)
            out = io.StringIO()
            assert main(argv + ["--format", "json"], out=out) == 0
            row, = json.loads(out.getvalue())["rows"]
            assert [f for f in argv[1::2] if row.get(f[2:]) is None] == [], (argv, row)
