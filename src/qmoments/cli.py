"""Command-line front end: coefficients, moments, group oracles, identity suite, tables."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import __version__
from .errors import ResourceBoundError, UsageError
from .groups import (
    DEFAULT_ORDER_LIMIT,
    MAX_ORACLE_WORK,
    MAX_PRIME,
    PGroup,
    _is_prime,
    aut_order,
    count_injective_homs,
    count_subgroups_of_type,
    eval_on_group,
    order_limit,
)
from .identities import (
    IDENTITY_IDS,
    MAX_ALPHABET,
    MAX_FINITE_K,
    MAX_FINITE_N,
    MAX_QBIN_N,
    MAX_SAMPLES,
    MAX_SERIES_DEGREE,
    MAX_SYMBOLIC_FINITE_N,
    MAX_ZTRUNC,
    RANDOM_POINT,
    REGISTRY,
    IdentityCase,
    load_manifest,
    run_suite,
    verify,
)
from .moments import (
    ABELIAN,
    CLASS_GROUP_IMAGINARY,
    CLASS_GROUP_REAL,
    MAX_MOMENT_BITS,
    SELMER,
    SHA,
    TYPE_S,
    MomentQuery,
    conjecture_table,
    m_u,
    m_u_float,
    m_u_s,
    m_u_s_float,
)
from .partitions import parse_partition
from .rbasis import MAX_C_DEGREE, c_coeff, rlambda_poly

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BOUND = 3

# --conjecture value -> (moments kind, context label)
_TABLES = {
    "class-imaginary": (CLASS_GROUP_IMAGINARY, "conjectural average over class groups of imaginary quadratic fields (odd p)"),
    "class-real": (CLASS_GROUP_REAL, "conjectural average over class groups of real quadratic fields (odd p)"),
    "sha": (SHA, "conjectural average over p-parts of Tate-Shafarevich groups (type-S heuristic)"),
    "selmer": (SELMER, "conjectural p-Selmer moment (type-S heuristic at u=0)"),
}


def _frac(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError("not a rational number: %r" % (text,)) from None


def _fracstr(x):
    return str(Fraction(x))


def _set_float(row, value):
    """row["float"] = float(value); when the value is too large for a float
    (an exact value raises, an mpmath one gives inf), None and
    row["float_overflow"] = True instead."""
    try:
        f = float(value)
    except OverflowError:
        f = float("inf")
    if abs(f) == float("inf"):
        row["float"] = None
        row["float_overflow"] = True
    else:
        row["float"] = f


def _float_text(row):
    """The text-format float suffix, empty when the value overflowed."""
    return "" if row["float"] is None else " (%.12g)" % row["float"]


def _json_safe(value):
    if isinstance(value, Fraction):
        return _fracstr(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


# (meta.bounds key, default value, --help wording) of every resource bound
_BOUNDS = (
    ("max_group_order", DEFAULT_ORDER_LIMIT,
     "group order <= %d (override with QMOMENTS_MAX_GROUP_ORDER)"),
    ("max_oracle_work", MAX_ORACLE_WORK, "oracle search steps <= %d"),
    ("max_alphabet", MAX_ALPHABET, "alphabets <= %d"),
    ("max_z_truncation", MAX_ZTRUNC, "truncation <= %d"),
    ("max_finite_alphabet", MAX_FINITE_N, "finite alphabets <= %d"),
    ("max_symbolic_finite_alphabet", MAX_SYMBOLIC_FINITE_N, "symbolic finite alphabets <= %d"),
    ("max_column_bound", MAX_FINITE_K, "column bound <= %d"),
    ("max_qbin_n", MAX_QBIN_N, "QBIN n <= %d"),
    ("max_series_degree", MAX_SERIES_DEGREE, "series degree d, dx, dy <= %d"),
    ("max_samples", MAX_SAMPLES, "random sample points <= %d"),
    ("max_moment_bits", MAX_MOMENT_BITS, "exact moments <= %d bits"),
    ("max_c_degree", MAX_C_DEGREE, "degree of C(lambda; mu) <= %d"),
    ("max_prime", MAX_PRIME, "p <= %d"),
)


def _metadata(argv, seed):
    bounds = {key: value for key, value, _ in _BOUNDS}
    bounds["max_group_order"] = order_limit()  # read per call: the environment may override it
    return {
        "command": "qmoments " + " ".join(argv),
        "version": __version__,
        "seed": seed,
        "bounds": bounds,
    }


def _emit(fmt, meta, rows, header, text_lines, out):
    """Render one command's result rows in the selected format."""
    if fmt == "json":
        payload = {"meta": meta, "rows": [_json_safe(r) for r in rows]}
        print(json.dumps(payload, indent=2), file=out)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(row.get(h)) for h in header])
        out.write(buf.getvalue())
    else:
        for line in text_lines:
            print(line, file=out)


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return _fracstr(value)
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    if isinstance(value, dict):
        return json.dumps(_json_safe(value), sort_keys=True)
    return value


def _cmd_coeff(args):
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    value = c_coeff(lam, mu)
    coeffs = [int(c) for c in value.poly_coeffs()] or [0]
    row = {"lambda": str(lam), "mu": str(mu), "coefficients": coeffs}
    lines = ["C(%s; %s): coefficients %s" % (str(lam) or "-", str(mu) or "-", coeffs)]
    if args.eval_at is not None:
        point = _frac(args.eval_at)
        row["eval_at"] = point
        row["value"] = value.eval_at(point)
        lines.append("value at %s: %s" % (_fracstr(point), _fracstr(row["value"])))
    return [row], ["lambda", "mu", "coefficients", "eval_at", "value"], lines, True


def _cmd_moments(args):
    if not _is_prime(args.p):
        raise UsageError("p must be prime, got %d" % args.p)
    u = _frac(args.u)
    if u < 0:
        raise UsageError("u must be nonnegative, got %s" % args.u)
    lam = parse_partition(args.lam)
    flavor = TYPE_S if args.type_s else ABELIAN
    integral = u.denominator == 1
    if not integral and not args.as_float:
        raise UsageError("non-integral u %s needs --float" % args.u)
    row = {
        "lambda": str(lam),
        "p": args.p,
        "u": u,
        "flavor": "type-s" if args.type_s else "abelian",
    }
    if integral:
        query = MomentQuery(lam, args.p, int(u), flavor)
        exact = m_u_s(query) if args.type_s else m_u(query)
        row["value"] = exact
        _set_float(row, exact)
    else:
        approx = (
            m_u_s_float(lam, args.p, u) if args.type_s else m_u_float(lam, args.p, u)
        )
        row["value"] = None
        _set_float(row, approx)
    if args.conjecture:
        row["conjecture"] = args.conjecture
        row["label"] = _TABLES[args.conjecture][1]
    lines = [
        "M_%s(%s) at p=%d [%s]: %s%s"
        % (
            _fracstr(u),
            str(lam) or "-",
            args.p,
            row["flavor"],
            _fracstr(row["value"]) if row["value"] is not None else "-",
            _float_text(row),
        )
    ]
    return [row], ["lambda", "p", "u", "flavor", "value", "float"], lines, True


def _cmd_oracle(args):
    if not _is_prime(args.p):
        raise UsageError("p must be prime, got %d" % args.p)
    lam = parse_partition(args.lam)
    p = args.p
    if args.check == "subgroups":
        if args.mu is None:
            raise UsageError("--check subgroups needs --mu")
        mu = parse_partition(args.mu)
        group = PGroup(p, lam)
        counted = count_subgroups_of_type(group, mu)
        predicted = c_coeff(lam, mu).eval_at(Fraction(p))
    elif args.check == "injections":
        if args.mu is None:
            raise UsageError("--check injections needs --mu")
        mu = parse_partition(args.mu)
        group = PGroup(p, mu)
        counted = count_injective_homs(lam, group)
        predicted = eval_on_group(
            rlambda_poly(lam).specialize_param(Fraction(p)), group
        )
    else:
        mu = None
        group = PGroup(p, lam)
        counted = count_injective_homs(lam, group)
        predicted = aut_order(lam, p)
    # compare before any conversion: a non-integral formula value is a FAIL
    predicted = Fraction(predicted)
    match = counted == predicted
    if predicted.denominator == 1:
        predicted = int(predicted)
    row = {
        "check": args.check,
        "lambda": str(lam),
        "mu": str(mu) if mu is not None else None,
        "p": p,
        "oracle": counted,
        "formula": predicted,
        "status": "PASS" if match else "FAIL",
    }
    lines = [
        "%s lambda=%s mu=%s p=%d: oracle %d vs formula %s %s"
        % (
            args.check,
            str(lam) or "-",
            str(mu) or "-" if mu is not None else "-",
            p,
            counted,
            _fracstr(predicted),
            row["status"],
        )
    ]
    return [row], ["check", "lambda", "mu", "p", "oracle", "formula", "status"], lines, match


# the int params a `verify` case can set, one option each: every registry
# param but `lam` (--lambda), and `samples`
_VERIFY_INTS = tuple(
    dict.fromkeys(n for identity in REGISTRY.values() for n in identity.params if n != "lam")
) + ("samples",)


def _verify_params(args):
    params = {}
    if args.lam is not None:
        params["lam"] = list(parse_partition(args.lam))
    for name in _VERIFY_INTS:
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    if args.case_seed is not None:
        params["seed"] = args.case_seed
    return params


def _cmd_verify(args):
    params = _verify_params(args)
    if args.all:
        if args.id is not None or params:
            raise UsageError("--all runs the manifest cases as written: drop --id and the case params")
        reports = run_suite(manifest=args.manifest, mutate=args.mutate)
    elif args.id is None:
        raise UsageError("need --id NAME or --all")
    else:
        cid = args.id.upper()
        if cid not in IDENTITY_IDS:
            raise UsageError(
                "unknown identity id %r (known: %s)" % (args.id, ", ".join(IDENTITY_IDS))
            )
        if params:
            strategy = RANDOM_POINT if "samples" in params else REGISTRY[cid].strategies[0]
            reports = [verify(IdentityCase(cid, params, strategy), mutate=args.mutate)]
        else:
            reports = run_suite([cid], args.manifest, mutate=args.mutate)
    rows = []
    lines = []
    for rep in reports:
        data = rep.as_json()
        data["params"] = json.dumps(_json_safe(rep.params), sort_keys=True)
        rows.append(data)
        lines.append(
            "%s %s %s (compared %d, %.2fs)"
            % (
                "PASS" if rep.passed else "FAIL",
                rep.case_id,
                data["params"],
                rep.compared,
                rep.elapsed,
            )
        )
        if rep.mismatch is not None:
            lines.append(
                "  first mismatch in %s at %s: lhs=%s rhs=%s"
                % (rep.mismatch.label, rep.mismatch.key, rep.mismatch.lhs, rep.mismatch.rhs)
            )
    lines.append(
        "%d/%d cases passed" % (sum(r.passed for r in reports), len(reports))
    )
    header = ["id", "strategy", "passed", "compared", "elapsed_seconds", "params", "mismatch"]
    return rows, header, lines, all(r.passed for r in reports)


def _cmd_table(args):
    kind, label = _TABLES[args.conjecture]
    if not _is_prime(args.p):
        raise UsageError("p must be prime, got %d" % args.p)
    wants_partition = args.conjecture in ("class-imaginary", "class-real", "sha")
    if wants_partition and args.lam is None:
        raise UsageError("--conjecture %s needs --lambda" % args.conjecture)
    row = {"conjecture": args.conjecture, "p": args.p, "label": label}
    if args.conjecture == "sha":
        if args.u is None:
            raise UsageError("--conjecture sha needs --u")
        u = _frac(args.u)
        if u.denominator != 1 or u < 0:
            raise UsageError("sha table needs a nonnegative integer u")
        lam = parse_partition(args.lam)
        value = conjecture_table(kind, lam=lam, p=args.p, u=int(u))
        row.update({"lambda": str(lam), "u": int(u)})
    elif args.conjecture == "selmer":
        if args.ell is None or args.m is None:
            raise UsageError("--conjecture selmer needs --ell and --m")
        value = conjecture_table(kind, p=args.p, lm=(args.ell, args.m))
        row.update({"ell": args.ell, "m": args.m})
    else:
        lam = parse_partition(args.lam)
        value = conjecture_table(kind, lam=lam, p=args.p)
        row["lambda"] = str(lam)
    row["value"] = value
    _set_float(row, value)
    if args.conjecture in ("class-imaginary", "class-real") and args.p == 2:
        row["warning"] = "out-of-stated-range: class-group heuristics assume odd p"
    lines = ["%s p=%d: %s%s" % (args.conjecture, args.p, _fracstr(value), _float_text(row))]
    if "warning" in row:
        lines.append("warning: " + row["warning"])
    header = ["conjecture", "lambda", "ell", "m", "u", "p", "value", "float", "warning", "label"]
    return [row], header, lines, True


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qmoments",
        description="Exact subgroup-counting polynomials, moments of random "
        "finite abelian p-groups, brute-force group oracles, and an exact "
        "identity verification suite.",
        epilog="Exit codes: 0 pass, 1 verification failure, 2 usage error, "
        "3 resource bound exceeded. Default resource bounds: %s. Default "
        "seed: taken from the case manifest."
        % ", ".join(label % value for _, value, label in _BOUNDS),
    )
    parser.add_argument(
        "--format",
        choices=("json", "csv", "text"),
        default="json",
        help="output format (default json)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="random seed echoed in output metadata"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default=argparse.SUPPRESS
    )
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_coeff = sub.add_parser(
        "coeff", help="inversion coefficient C as a polynomial", parents=[common]
    )
    p_coeff.add_argument("--lambda", dest="lam", required=True, help='partition, e.g. "2,1" or "1^2"')
    p_coeff.add_argument("--mu", required=True, help="subpartition")
    p_coeff.add_argument("--eval-at", dest="eval_at", help="evaluate exactly at this rational")
    p_coeff.set_defaults(func=_cmd_coeff)

    p_mom = sub.add_parser("moments", help="u-average of the torsion-count function", parents=[common])
    p_mom.add_argument("--lambda", dest="lam", required=True)
    p_mom.add_argument("--p", type=int, required=True)
    p_mom.add_argument("--u", required=True, help="nonnegative rational")
    p_mom.add_argument("--type-s", dest="type_s", action="store_true")
    p_mom.add_argument("--float", dest="as_float", action="store_true", help="allow non-integral u via high-precision evaluation")
    p_mom.add_argument("--conjecture", choices=sorted(_TABLES), default=None, help="attach a conjectural-context label")
    p_mom.set_defaults(func=_cmd_moments)

    p_orc = sub.add_parser("oracle", help="brute-force group count vs closed formula", parents=[common])
    p_orc.add_argument("--check", choices=("subgroups", "injections", "aut"), required=True)
    p_orc.add_argument("--lambda", dest="lam", required=True)
    p_orc.add_argument("--mu", default=None)
    p_orc.add_argument("--p", type=int, required=True)
    p_orc.set_defaults(func=_cmd_oracle)

    p_ver = sub.add_parser("verify", help="run identity verification cases", parents=[common])
    p_ver.add_argument("--id", default=None, help="identity id, e.g. QBIN")
    p_ver.add_argument("--all", action="store_true", help="run the full manifest grid")
    p_ver.add_argument("--manifest", default=None, help="alternate manifest path")
    p_ver.add_argument("--lambda", dest="lam", default=None)
    for name in _VERIFY_INTS:
        p_ver.add_argument("--" + name, type=int, default=None)
    p_ver.add_argument("--case-seed", dest="case_seed", type=int, default=None)
    p_ver.add_argument(
        "--mutate",
        action="store_true",
        help="flip one sign in the computed right-hand side to exercise "
        "the failure-localization path (expected exit: 1)",
    )
    p_ver.set_defaults(func=_cmd_verify)

    p_tab = sub.add_parser("table", help="conjectural averages with context labels", parents=[common])
    p_tab.add_argument("--conjecture", choices=sorted(_TABLES), required=True)
    p_tab.add_argument("--lambda", dest="lam", default=None)
    p_tab.add_argument("--p", type=int, required=True)
    p_tab.add_argument("--u", default=None)
    p_tab.add_argument("--ell", type=int, default=None)
    p_tab.add_argument("--m", type=int, default=None)
    p_tab.set_defaults(func=_cmd_table)

    return parser


def main(argv=None, out=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    seed = args.seed
    if seed is None:
        try:
            _, seed, _ = load_manifest()
        except UsageError:
            seed = 0
    # the only exit-code map: any other exception is a defect
    try:
        meta = _metadata(argv, seed)
        rows, header, lines, passed = args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ResourceBoundError as exc:
        print("resource bound: %s" % exc, file=sys.stderr)
        return EXIT_BOUND
    _emit(args.format, meta, rows, header, lines, out)
    return EXIT_PASS if passed else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
