"""What each workload runs and how its answers are checked.

The runner (run.py) builds every operation list here from the seed alone;
child.py executes the list inside a fresh interpreter.  Nothing in this
module imports qmoments at import time, so the runner never loads the
package it measures.

Draws are stratified: every batch of a workload has the same slots, and the
seed only chooses among inputs of similar cost inside a slot.  That keeps a
workload's cost independent of the seed, so runs with different seeds can be
compared with each other.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED_PATH = HERE / "pinned.json"

WORKLOADS = ("verify-symbolic", "verify-series", "oracle", "cli-cold")

# The manifest's default seed: with it the two random-point cases get the
# manifest's own seeds (seed and seed + 1).
DEFAULT_SEED = 20260816


def batch_rng(seed, batch):
    return random.Random("%d/%d" % (seed, batch))


def subpartitions(lam):
    """Every partition inside lam (the empty one included), largest first."""
    out = []

    def rec(i, cap, prefix):
        if i == len(lam):
            out.append(tuple(prefix))
            return
        for a in range(min(cap, lam[i]), 0, -1):
            rec(i + 1, a, prefix + [a])
        out.append(tuple(prefix))

    rec(0, lam[0] if lam else 0, [])
    return sorted(set(out), key=lambda mu: (-sum(mu), tuple(-a for a in mu)))


def part_text(lam):
    return ",".join(str(a) for a in lam)


# ---------------------------------------------------------------------------
# verify workloads


def case_key(case_id, strategy, params):
    """Pinned-count key; the random-point seed does not change the count."""
    rest = {k: v for k, v in params.items() if k != "seed"}
    return "%s %s %s" % (case_id, strategy, json.dumps(rest, sort_keys=True))


def verify_ops(workload, seed, manifest_path):
    """Manifest cases in manifest order; random-point seeds come from `seed`."""
    cases = json.loads(Path(manifest_path).read_text())["cases"]
    if workload == "verify-symbolic":
        chosen = [c for c in cases if c["strategy"] == "symbolic-exact"]
    else:
        chosen = [c for c in cases if c["strategy"] != "symbolic-exact"]
    ops = []
    next_seed = seed
    for c in chosen:
        params = dict(c.get("params", {}))
        if c["strategy"] == "random-point":
            params["seed"] = next_seed
            next_seed += 1
        ops.append({"id": c["id"], "strategy": c["strategy"], "params": params})
    return ops


def check_report(report, pinned_compared):
    """(ok, reason) for one VerificationReport against its pinned count."""
    if not report.passed:
        m = report.mismatch
        return False, "FAIL at %s %s" % (m.label, m.key) if m else "FAIL"
    if report.compared == 0:
        return False, "vacuous: compared 0"
    if report.compared != pinned_compared:
        return False, "compared %d, pinned %s" % (report.compared, pinned_compared)
    return True, ""


# ---------------------------------------------------------------------------
# oracle workload
#
# Each slot is (check, p, lam): a fixed group, so every batch costs the
# same.  For "subgroups" the seed picks the asked type mu inside lam (the
# lattice is enumerated whole either way, so mu does not change the cost);
# for "injections" it picks a source of size |lam| - 1 inside the target.

ORACLE_SLOTS = (
    # the elementary group of order 64: 2,825 subgroups, and any one type
    # is a small part of the lattice
    ("subgroups", 2, (1, 1, 1, 1, 1, 1)),
    ("subgroups", 5, (3, 1)),
    ("subgroups", 3, (3, 2)),
    ("subgroups", 7, (2, 1)),
    ("subgroups", 2, (3, 2, 1)),
    ("subgroups", 3, (2, 1, 1)),
    ("subgroups", 2, (2, 2)),
    ("subgroups", 2, (2, 1, 1)),
    ("subgroups", 3, (2, 1)),
    ("subgroups", 7, (1, 1)),
    ("injections", 3, (2, 2, 1)),
    ("injections", 5, (2, 2)),
    ("injections", 7, (2, 1)),
    ("injections", 2, (3, 2, 1)),
    ("aut", 2, (1, 1, 1, 1, 1)),
    ("aut", 5, (2, 1)),
    ("aut", 7, (2, 1)),
    ("aut", 3, (2, 2)),
)


def oracle_ops(seed, batch):
    rng = batch_rng(seed, batch)
    ops = []
    for check, p, lam in ORACLE_SLOTS:
        op = {"check": check, "p": p, "lam": list(lam)}
        if check == "subgroups":
            op["mu"] = list(rng.choice(subpartitions(lam)))
        elif check == "injections":
            sources = [mu for mu in subpartitions(lam) if sum(mu) == sum(lam) - 1]
            op["mu"] = list(rng.choice(sources))
        ops.append(op)
    return ops


def run_oracle(op):
    """Brute-force count against its closed form; returns (ok, reason)."""
    from qmoments import groups, rbasis

    p, lam = op["p"], tuple(op["lam"])
    if op["check"] == "subgroups":
        mu = tuple(op["mu"])
        counted = groups.count_subgroups_of_type(groups.PGroup(p, lam), mu)
        predicted = rbasis.c_coeff(lam, mu).eval_at(Fraction(p))
    elif op["check"] == "injections":
        source = tuple(op["mu"])
        target = groups.PGroup(p, lam)
        counted = groups.count_injective_homs(source, target)
        poly = rbasis.rlambda_poly(source).specialize_param(Fraction(p))
        predicted = groups.eval_on_group(poly, target)
    else:
        counted = groups.count_injective_homs(lam, groups.PGroup(p, lam))
        predicted = groups.aut_order(lam, p)
    if counted != predicted:
        return False, "oracle %s != formula %s" % (counted, predicted)
    return True, ""


# ---------------------------------------------------------------------------
# cli-cold workload


def _coeff_pool():
    small = []
    evals = [None, "2", "3", "1/2", "-1"]
    for lam in [(2, 1), (3, 1), (2, 2), (3, 2, 1), (2, 2, 1, 1), (4, 2), (3, 3)]:
        for i, mu in enumerate(subpartitions(lam)):
            argv = ["coeff", "--lambda", part_text(lam), "--mu", part_text(mu) or ""]
            point = evals[i % len(evals)]
            if point is not None:
                argv += ["--eval-at", point]
            small.append(argv)
    # large rectangles whose q-binomial products take the >= 40-coefficient
    # Kronecker multiply in qrat
    kron = [
        ["coeff", "--lambda", "2^16", "--mu", "2^13"],
        ["coeff", "--lambda", "2^16", "--mu", "1^1 2^11"],
        ["coeff", "--lambda", "3^14", "--mu", "2^2 3^10"],
        ["coeff", "--lambda", "3^14", "--mu", "1^2 2^1 3^10"],
        ["coeff", "--lambda", "4^12", "--mu", "1^1 3^3 4^7"],
        ["coeff", "--lambda", "4^12", "--mu", "2^2 3^2 4^7", "--eval-at", "2"],
    ]
    return small, kron


def _moments_pool():
    lams = ["1", "2", "1,1", "2,1", "3,1", "2,2", "1,1,1"]
    exact, type_s, floats = [], [], []
    for lam in lams:
        for p in ("2", "3", "5", "7"):
            for u in ("0", "1", "2"):
                exact.append(["moments", "--lambda", lam, "--p", p, "--u", u])
                type_s.append(["moments", "--lambda", lam, "--p", p, "--u", u, "--type-s"])
            for u in ("1/2", "3/2"):
                floats.append(["moments", "--lambda", lam, "--p", p, "--u", u, "--float"])
                floats.append(
                    ["moments", "--lambda", lam, "--p", p, "--u", u, "--float", "--type-s"]
                )
    exact[0] = exact[0] + ["--conjecture", "class-imaginary"]
    return exact, type_s, floats


def _table_pool():
    lams = ["1", "2", "1,1", "2,1", "3,1", "2,2"]
    out = {"class-imaginary": [], "class-real": [], "sha": [], "selmer": []}
    for p in ("3", "5", "7"):
        for lam in lams:
            for kind in ("class-imaginary", "class-real"):
                out[kind].append(["table", "--conjecture", kind, "--lambda", lam, "--p", p])
            for u in ("0", "1"):
                out["sha"].append(
                    ["table", "--conjecture", "sha", "--lambda", lam, "--p", p, "--u", u]
                )
    for p in ("2", "3", "5"):
        for ell in ("1", "2"):
            for m in ("1", "2", "3", "4"):
                out["selmer"].append(
                    ["table", "--conjecture", "selmer", "--ell", ell, "--m", m, "--p", p]
                )
    return out


def _oracle_cli_pool():
    groups = [(2, "2,1"), (2, "1,1,1"), (2, "3,1"), (2, "2,2"), (2, "2,1,1"),
              (3, "1,1"), (3, "2,1"), (3, "2,2"), (5, "1,1"), (5, "2,1"),
              (7, "1,1"), (7, "2,1")]
    return [["oracle", "--check", "aut", "--lambda", lam, "--p", str(p)] for p, lam in groups]


def _verify_cli_pool():
    out = [["verify", "--id", "QBIN", "--n", str(n)] for n in range(2, 9)]
    out += [["verify", "--id", "EULER", "--zmax", str(z)] for z in range(4, 9)]
    out += [
        ["verify", "--id", "DELAUNAY", "--ell", "1", "--zmax", "6"],
        ["verify", "--id", "DELAUNAY", "--ell", "2", "--zmax", "8"],
        ["verify", "--id", "MIRROR_SWAP", "--lambda", "2,1"],
        ["verify", "--id", "MIRROR_SWAP", "--lambda", "2,2"],
        ["verify", "--id", "MIRROR_SWAP", "--lambda", "3,1"],
        ["verify", "--id", "CSQ", "--n", "2", "--k", "2"],
        ["verify", "--id", "GENFUN", "--lambda", "1", "--p", "2", "--zmax", "6"],
        ["verify", "--id", "UMOY_ABELIAN", "--ell", "1", "--lambda", "1", "--zmax", "8"],
        ["verify", "--id", "COMBINAT", "--lambda", "1", "--zmax", "6"],
        ["verify", "--id", "QBINHL", "--nx", "2", "--d", "4"],
    ]
    return out


def cli_strata():
    """(pool, calls per batch) for every stratum of the cli-cold mix."""
    small, kron = _coeff_pool()
    exact, type_s, floats = _moments_pool()
    tables = _table_pool()
    return [
        (small, 18),
        (kron, 6),
        (exact, 8),
        (type_s, 8),
        (floats, 8),
        (tables["class-imaginary"], 5),
        (tables["class-real"], 5),
        (tables["sha"], 5),
        (tables["selmer"], 5),
        (_oracle_cli_pool(), 16),
        (_verify_cli_pool(), 16),
    ]


def cli_pool():
    """Every argv the cli-cold workload can draw; each has a pinned answer."""
    return [argv for pool, _ in cli_strata() for argv in pool]


def cli_ops(seed, batch):
    rng = batch_rng(seed, batch)
    ops = []
    for pool, count in cli_strata():
        ops.extend({"argv": argv} for argv in rng.choices(pool, k=count))
    rng.shuffle(ops)
    return ops


def argv_key(argv):
    return json.dumps(argv)


def comparable_rows(payload):
    """The JSON `rows` of one CLI answer, without per-run timing fields."""
    rows = []
    for row in payload["rows"]:
        row = dict(row)
        row.pop("elapsed_seconds", None)
        rows.append(row)
    return rows


def check_cli(argv, exit_code, stdout_text, pinned):
    want = pinned["cli"].get(argv_key(argv))
    if want is None:
        return False, "no pinned answer"
    if exit_code != want["exit"]:
        return False, "exit %s, pinned %s" % (exit_code, want["exit"])
    try:
        rows = comparable_rows(json.loads(stdout_text))
    except (ValueError, KeyError, TypeError) as exc:
        return False, "unreadable output: %s" % exc
    if rows != want["rows"]:
        return False, "rows differ from pinned"
    return True, ""


# ---------------------------------------------------------------------------
# shared


def build_ops(workload, seed, batch, manifest_path):
    if workload in ("verify-symbolic", "verify-series"):
        return verify_ops(workload, seed, manifest_path)
    if workload == "oracle":
        return oracle_ops(seed, batch)
    if workload == "cli-cold":
        return cli_ops(seed, batch)
    raise ValueError("unknown workload %r" % (workload,))


def load_pinned():
    return json.loads(PINNED_PATH.read_text())


def run_op(workload, op, pinned):
    """Execute one operation inside a child; returns (ok, reason)."""
    if workload == "oracle":
        return run_oracle(op)
    if workload == "cli-cold":
        import io

        from qmoments import cli

        buf = io.StringIO()
        code = cli.main(op["argv"], out=buf)
        return check_cli(op["argv"], code, buf.getvalue(), pinned)
    from qmoments import identities

    case = identities.IdentityCase(op["id"], op["params"], op["strategy"])
    report = identities.verify(case)
    key = case_key(op["id"], op["strategy"], op["params"])
    return check_report(report, pinned["verify"].get(key))
