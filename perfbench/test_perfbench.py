"""Fast self-tests of the benchmark's own helpers.

  python3 -m pytest -q perfbench
"""

import statistics
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402
from qmoments.identities import IdentityCase, verify  # noqa: E402


def test_percentile_matches_inclusive_quantiles():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    assert run.percentile(values, 25) == pytest.approx(q1)
    assert run.percentile(values, 50) == statistics.median(values) == q2
    assert run.percentile(values, 75) == pytest.approx(q3)
    assert run.percentile(values, 90) == pytest.approx(8.4)
    assert run.percentile([4.0], 90) == 4.0


def test_tail_percentile_needs_ten_samples_beyond_it():
    hundred = [float(i) for i in range(101)]
    assert run.tail_percentile(hundred) == run.percentile(hundred, 90)
    fifty = [float(i) for i in range(50)]
    assert run.tail_percentile(fifty) == run.percentile(fifty, 80)
    few = [3.0, 1.0, 2.0]
    assert run.tail_percentile(few) == 2.0


def test_fail_frac():
    assert run.fail_frac(12, 3) == 0.25
    assert run.fail_frac(5, 0) == 0.0
    assert run.fail_frac(0, 0) == 1.0


def test_reference_speed_factor():
    assert speed.factor([speed.REF_NOMINAL_S] * 3) == pytest.approx(1.0)
    # a host at half speed half of the time takes 1.5 times as long
    n = speed.REF_NOMINAL_S
    assert speed.factor([n, 2 * n, n, 2 * n]) == pytest.approx(1 / 1.5)
    assert speed.factor([0.2, 0.6], nominal=0.2) == pytest.approx(0.5)


def test_times_at_reference_speed():
    n = speed.REF_PROCESS_NOMINAL_S
    # cli-cold: the host halves its speed midway; each call by the references near it
    cli = run.Batch(wall_s=15.0, calls=[1.0] * 5 + [2.0] * 5, ref=[n] * 5 + [2 * n] * 5,
                    ref_nominal=n, ref_per_call=True)
    wall, calls = run.at_reference_speed(cli)
    assert calls[0] == pytest.approx(1.0) and calls[-1] == pytest.approx(1.0)
    assert wall == pytest.approx(sum(calls))
    # a batch child: one factor from all its samples
    k = speed.REF_NOMINAL_S
    child = run.Batch(wall_s=10.0, calls=[10.5], ref=[2 * k, 2 * k])
    assert run.at_reference_speed(child) == (pytest.approx(5.0), [pytest.approx(5.25)])


def test_sampler_times_the_kernel_during_the_block():
    with speed.Sampler(period=0.02) as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3
    assert sampler.spent >= sum(sampler.samples) > 0
    count = len(sampler.samples)
    time.sleep(0.1)  # the timer is off: no more samples
    assert len(sampler.samples) == count


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    leaf_traced = t.wrap(leaf, "leaf")

    def outer():
        clock.now += 1.0
        leaf_traced()
        clock.now += 0.5
        leaf_traced()

    t.wrap(outer, "outer")()
    assert t.stats["outer"] == [1, 5.5, 1.5]
    assert t.stats["leaf"] == [2, 4.0, 4.0]
    ids = {name: (span_id, parent) for span_id, name, _, _, parent in t.spans}
    assert ids["leaf"][1] == ids["outer"][0]
    assert ids["outer"][1] == 0


def test_aggregated_qrat_op_is_a_child_of_its_caller():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)

    class Value:
        den = (0, 0, 3)  # 3*q^2: a monomial, so Laurent

    def op(a, b):
        clock.now += 0.25
        return Value()

    op_traced = t.wrap_qrat_op(op)

    def caller():
        clock.now += 1.0
        op_traced(None, None)

    t.wrap(caller, "caller")()
    assert t.stats["caller"] == [1, 1.25, 1.0]
    assert t.stats["qrat.ops"] == [1, 0.25, 0.25]
    assert t.counts["qrat.laurent"] == 1
    assert len(t.spans) == 1


def test_mutated_answer_counts_as_failure():
    case = IdentityCase("QBIN", {"n": 5}, "symbolic-exact")
    pinned = wl.load_pinned()["verify"][wl.case_key("QBIN", "symbolic-exact", {"n": 5})]
    good = wl.check_report(verify(case), pinned)
    bad = wl.check_report(verify(case, mutate=True), pinned)
    assert good == (True, "")
    assert bad[0] is False
    records = {0: {"s": 0.1, "ok": good[0], "why": good[1]},
               1: {"s": 0.1, "ok": bad[0], "why": bad[1]}}
    batch = run.Batch(wall_s=0.2)
    run.tally(batch, 2, records, "not reached")
    assert (batch.attempted, batch.failed) == (2, 1)
    assert run.fail_frac(batch.attempted, batch.failed) == 0.5


def test_vacuous_case_counts_as_failure():
    report = verify(IdentityCase("QBIN", {"n": -1}, "symbolic-exact"))
    assert report.passed and report.compared == 0
    assert wl.check_report(report, 0) == (False, "vacuous: compared 0")


def test_unfinished_ops_count_as_failed():
    batch = run.Batch(wall_s=1.0)
    run.tally(batch, 4, {0: {"s": 0.5, "ok": True, "why": ""}}, "timed out after 1 s")
    assert (batch.attempted, batch.failed) == (4, 3)
    assert len(batch.reasons) == 3
    assert all("timed out" in r for r in batch.reasons)


def test_child_past_its_limit_is_killed_and_reaped(tmp_path):
    began = time.monotonic()
    proc = run.run_process([sys.executable, "-c", "import time; time.sleep(30)"],
                           tmp_path / "out", tmp_path / "err", 0.5)
    assert proc.timed_out
    assert proc.code != 0
    assert time.monotonic() - began < 10


def test_install_layers_traces_and_restores():
    from qmoments import groups, identities, qrat

    originals = (identities.verify, groups.count_subgroups_of_type, qrat.UniRat.__add__)
    t = tracing.Tracer()
    tracing.install_layers(t)
    try:
        report = identities.verify(IdentityCase("QBIN", {"n": 4}, "symbolic-exact"))
        count = groups.count_subgroups_of_type(groups.PGroup(2, (1, 1)), (1,))
    finally:
        t.restore()
    assert (identities.verify, groups.count_subgroups_of_type, qrat.UniRat.__add__) == originals
    assert report.passed and count == 3
    values = tracing.layer_metrics(t.summary(), 0.0, 1.0, 1.0)
    assert values["identities.compared"] == report.compared
    assert values["qrat.ops.calls"] > 0
    assert values["groups.subgroups.useful_share"] == 3 / 5
    assert set(values) == {name for name, _ in tracing.LAYER_METRICS}


def test_draws_depend_only_on_the_seed():
    assert wl.oracle_ops(7, 0) == wl.oracle_ops(7, 0)
    assert wl.cli_ops(7, 1) == wl.cli_ops(7, 1)
    assert wl.oracle_ops(7, 0) != wl.oracle_ops(8, 0)
    pinned = wl.load_pinned()["cli"]
    assert all(wl.argv_key(argv) in pinned for argv in wl.cli_pool())
    ops = wl.verify_ops("verify-series", 5, run.MANIFEST)
    assert [op["params"]["seed"] for op in ops if "seed" in op["params"]] == [5, 6]
