"""Layer tracing applied from outside the package.

`install_layers` replaces public qmoments functions and methods with timing
wrappers: on the class or defining module, and on every qmoments module
that imported the same object by name.  `Tracer.restore` puts the originals
back.  Nothing inside the package changes.

A span is (id, name, start, end, parent id).  Spans are kept in memory and
written out when the traced process ends.  The innermost arithmetic layer
(UniRat `+`, `*`, `/`, millions of calls per run) is aggregated only: its
time is charged to the enclosing span's children, but it keeps no span of
its own.  At most `max_spans` spans are kept; the rest are counted as
dropped.  Self time is a span's duration minus the durations of its direct
child spans.
"""

import sys
import time

# (metric name, unit) for every per-layer metric, in report order
IDENTITY_IDS = (
    "CSQ", "COMBINAT", "DELAUNAY", "EULER", "FINITE_QBINHL", "GENFUN",
    "LASCOUX", "MIRROR_SWAP", "QBIN", "QBINHL", "UMOY_ABELIAN", "UMOY_TYPE_S",
    "WARNAAR_A2",
)

LAYER_METRICS = tuple(
    [("identities.verify.%s.s" % i, "s") for i in IDENTITY_IDS]
    + [
        ("identities.compared", "count"),
        ("mpoly.mul.calls", "count"),
        ("mpoly.mul.term_pairs", "count"),
        ("mpoly.mul.self_s", "s"),
        ("mpoly.add.self_s", "s"),
        ("mpoly.scale.self_s", "s"),
        ("mpoly.divexact.self_s", "s"),
        ("qrat.ops.calls", "count"),
        ("qrat.ops.self_s", "s"),
        ("qrat.laurent_share", "share"),
        ("qrat.nonlaurent.self_s", "s"),
        ("qseries.zseries.self_s", "s"),
        ("qseries.euler_coeff.calls", "count"),
        ("qseries.qbinomial.calls", "count"),
        ("partitions.yielded", "count"),
        ("hall_littlewood.hl_p.calls", "count"),
        ("hall_littlewood.hl_p.distinct", "count"),
        ("hall_littlewood.hl_p.self_s", "s"),
        ("hall_littlewood.principal_spec.self_s", "s"),
        ("rbasis.c_coeff.calls", "count"),
        ("rbasis.c_coeff.distinct", "count"),
        ("rbasis.c_coeff.self_s", "s"),
        ("rbasis.rlambda_poly.self_s", "s"),
        ("groups.subgroups.self_s", "s"),
        ("groups.injections.self_s", "s"),
        ("groups.aut.self_s", "s"),
        ("groups.order_sum", "count"),
        ("groups.subgroups.useful_share", "share"),
        ("moments.exact.self_s", "s"),
        ("moments.float.self_s", "s"),
        ("cli.import_s", "s"),
        ("cli.main.self_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.traced_wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
    ]
)


class Tracer:
    """Span stack, per-name totals and counters for one traced process."""

    def __init__(self, clock=time.perf_counter, max_spans=100_000):
        self.clock = clock
        self.origin = clock()
        self.max_spans = max_spans
        self.stack = []  # open spans: [child_seconds, span_id]
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counts = {}
        self.distinct = {}  # name -> set of argument keys
        self.spans = []
        self.dropped = 0
        self._next_id = 1
        self._patches = []

    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        return st

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name, name_of=None, key_of=None, before=None, after=None):
        """A timing wrapper around fn that records one span per call."""
        stack, clock = self.stack, self.clock

        def traced(*args, **kwargs):
            label = name_of(*args, **kwargs) if name_of else name
            if key_of:
                self.distinct.setdefault(label, set()).add(key_of(*args, **kwargs))
            if before:
                before(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else 0
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                st = self.stat(label)
                st[0] += 1
                st[1] += took
                st[2] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if len(self.spans) < self.max_spans:
                    self.spans.append(
                        (span_id, label, start - self.origin, end - self.origin, parent)
                    )
                else:
                    self.dropped += 1
            if after:
                after(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_qrat_op(self, fn):
        """Aggregate-only wrapper for a binary UniRat operator.

        Classifies each result as Laurent (monomial denominator) or not.
        """
        stack, clock = self.stack, self.clock
        ops = self.stat("qrat.ops")
        nonlaurent = self.stat("qrat.nonlaurent")
        counts = self.counts
        counts.setdefault("qrat.laurent", 0)

        def op(a, b):
            start = clock()
            result = fn(a, b)
            took = clock() - start
            if stack:
                stack[-1][0] += took
            ops[0] += 1
            ops[1] += took
            ops[2] += took
            if result is not NotImplemented:
                den = result.den
                if len(den) == 1 or not any(den[:-1]):
                    counts["qrat.laurent"] += 1
                else:
                    nonlaurent[0] += 1
                    nonlaurent[1] += took
                    nonlaurent[2] += took
            return result

        op.__wrapped__ = fn
        return op

    def counting_generator(self, fn, name):
        """Wrap a generator function so every yielded item is counted."""

        def gen(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.count(name)
                yield item

        gen.__wrapped__ = fn
        return gen

    # -- patching ----------------------------------------------------------

    def patch_function(self, module, attr, wrapper):
        """Replace module.attr and every qmoments alias of the same object."""
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "qmoments" and not name.startswith("qmoments."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr, wrapper):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def restore(self):
        while self._patches:
            obj, key, value = self._patches.pop()
            setattr(obj, key, value)

    def summary(self):
        return {
            "stats": self.stats,
            "counts": self.counts,
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "spans": len(self.spans),
            "dropped": self.dropped,
        }


def install_layers(tracer):
    """Wrap the public functions of every qmoments layer."""
    from qmoments import (
        cli,
        groups,
        hall_littlewood,
        identities,
        moments,
        mpoly,
        partitions,
        qrat,
        qseries,
        rbasis,
    )

    t = tracer
    fn = t.patch_function

    def method(cls, attr, name, **kw):
        t.patch_method(cls, attr, t.wrap(cls.__dict__[attr], name, **kw))

    # identities
    fn(identities, "verify", t.wrap(
        identities.verify, None,
        name_of=lambda case, *a, **k: "identities.verify." + case.case_id,
        after=lambda rep, *a, **k: t.count("identities.compared", rep.compared),
    ))

    # mpoly
    MPoly = mpoly.MPoly

    def term_pairs(self, other, keep=None):
        n = len(other.terms) if isinstance(other, MPoly) else 1
        t.count("mpoly.mul.term_pairs", len(self.terms) * n)

    method(MPoly, "mul", "mpoly.mul", before=term_pairs)
    method(MPoly, "__add__", "mpoly.add")
    method(MPoly, "__radd__", "mpoly.add")
    method(MPoly, "scale", "mpoly.scale")
    method(MPoly, "divexact", "mpoly.divexact")

    # qrat: `-` is `+` of a negation and `**` is repeated `*`, so they are
    # counted through these operators
    for attr in ("__add__", "__radd__", "__mul__", "__rmul__", "__truediv__"):
        t.patch_method(qrat.UniRat, attr, t.wrap_qrat_op(qrat.UniRat.__dict__[attr]))

    # qseries
    for attr in ("__add__", "__radd__", "__mul__", "__rmul__", "__pow__",
                 "inverse", "scale", "subs_z"):
        method(qseries.ZSeries, attr, "qseries.zseries")
    fn(qseries, "euler_coeff", t.wrap(qseries.euler_coeff, "qseries.euler_coeff"))
    fn(qseries, "qbinomial", t.wrap(qseries.qbinomial, "qseries.qbinomial"))

    # partitions
    for attr in ("partitions_of", "subpartitions"):
        fn(partitions, attr, t.counting_generator(getattr(partitions, attr), "partitions.yielded"))

    # hall_littlewood
    fn(hall_littlewood, "hl_p", t.wrap(
        hall_littlewood.hl_p, "hall_littlewood.hl_p",
        key_of=lambda lam, n, param="q": (tuple(lam), n, param),
    ))
    fn(hall_littlewood, "principal_spec",
       t.wrap(hall_littlewood.principal_spec, "hall_littlewood.principal_spec"))

    # rbasis
    fn(rbasis, "c_coeff", t.wrap(
        rbasis.c_coeff, "rbasis.c_coeff",
        key_of=lambda lam, mu, param="q": (tuple(lam), tuple(mu), param),
    ))
    fn(rbasis, "rlambda_poly", t.wrap(rbasis.rlambda_poly, "rbasis.rlambda_poly"))

    # groups: the lattice size comes from enumerate_subgroups, read through
    # a hook that adds no span, so subgroup time stays in groups.subgroups
    lattice = []
    enumerate_subgroups = groups.enumerate_subgroups

    def enumerate_hook(H):
        counts = enumerate_subgroups(H)
        lattice.append(sum(counts.values()))
        return counts

    enumerate_hook.__wrapped__ = enumerate_subgroups
    fn(groups, "enumerate_subgroups", enumerate_hook)

    def subgroups_done(result, H, mu):
        t.count("groups.order_sum", H.order)
        t.count("groups.subgroups.asked", result)
        t.count("groups.subgroups.lattice", lattice.pop() if lattice else 0)

    fn(groups, "count_subgroups_of_type", t.wrap(
        groups.count_subgroups_of_type, "groups.subgroups", after=subgroups_done,
    ))

    # injective homs from H_lam onto a group of the same type are its
    # automorphisms, so those calls are charged to groups.aut
    fn(groups, "count_injective_homs", t.wrap(
        groups.count_injective_homs, None,
        name_of=lambda lam, H: (
            "groups.aut" if tuple(lam) == tuple(H.lam) else "groups.injections"
        ),
        after=lambda result, lam, H: t.count("groups.order_sum", H.order),
    ))
    fn(groups, "aut_order", t.wrap(groups.aut_order, "groups.aut"))

    # moments
    for attr in ("m_u", "m_u_s"):
        fn(moments, attr, t.wrap(getattr(moments, attr), "moments.exact"))
    for attr in ("m_u_float", "m_u_s_float"):
        fn(moments, attr, t.wrap(getattr(moments, attr), "moments.float"))

    # cli
    fn(cli, "main", t.wrap(cli.main, "cli.main"))


def layer_metrics(summary, cli_import_s, traced_wall_s, untraced_wall_s):
    """Per-layer metric values from a merged trace summary."""
    stats = summary["stats"]
    counts = summary["counts"]
    distinct = summary["distinct"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def share(num, den):
        return num / den if den else 0.0

    values = {"identities.verify.%s.s" % i: total("identities.verify." + i)
              for i in IDENTITY_IDS}
    values.update({
        "identities.compared": counts.get("identities.compared", 0),
        "mpoly.mul.calls": calls("mpoly.mul"),
        "mpoly.mul.term_pairs": counts.get("mpoly.mul.term_pairs", 0),
        "mpoly.mul.self_s": self_s("mpoly.mul"),
        "mpoly.add.self_s": self_s("mpoly.add"),
        "mpoly.scale.self_s": self_s("mpoly.scale"),
        "mpoly.divexact.self_s": self_s("mpoly.divexact"),
        "qrat.ops.calls": calls("qrat.ops"),
        "qrat.ops.self_s": self_s("qrat.ops"),
        "qrat.laurent_share": share(counts.get("qrat.laurent", 0), calls("qrat.ops")),
        "qrat.nonlaurent.self_s": self_s("qrat.nonlaurent"),
        "qseries.zseries.self_s": self_s("qseries.zseries"),
        "qseries.euler_coeff.calls": calls("qseries.euler_coeff"),
        "qseries.qbinomial.calls": calls("qseries.qbinomial"),
        "partitions.yielded": counts.get("partitions.yielded", 0),
        "hall_littlewood.hl_p.calls": calls("hall_littlewood.hl_p"),
        "hall_littlewood.hl_p.distinct": distinct.get("hall_littlewood.hl_p", 0),
        "hall_littlewood.hl_p.self_s": self_s("hall_littlewood.hl_p"),
        "hall_littlewood.principal_spec.self_s": self_s("hall_littlewood.principal_spec"),
        "rbasis.c_coeff.calls": calls("rbasis.c_coeff"),
        "rbasis.c_coeff.distinct": distinct.get("rbasis.c_coeff", 0),
        "rbasis.c_coeff.self_s": self_s("rbasis.c_coeff"),
        "rbasis.rlambda_poly.self_s": self_s("rbasis.rlambda_poly"),
        "groups.subgroups.self_s": self_s("groups.subgroups"),
        "groups.injections.self_s": self_s("groups.injections"),
        "groups.aut.self_s": self_s("groups.aut"),
        "groups.order_sum": counts.get("groups.order_sum", 0),
        "groups.subgroups.useful_share": share(
            counts.get("groups.subgroups.asked", 0),
            counts.get("groups.subgroups.lattice", 0),
        ),
        "moments.exact.self_s": self_s("moments.exact"),
        "moments.float.self_s": self_s("moments.float"),
        "cli.import_s": cli_import_s,
        "cli.main.self_s": self_s("cli.main"),
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "trace.traced_wall_s": traced_wall_s,
        "trace.untraced_wall_s": untraced_wall_s,
    })
    return values


def merge_summaries(summaries):
    """Sum trace summaries of several processes (distinct counts add up,
    since every process starts with empty caches)."""
    merged = {"stats": {}, "counts": {}, "distinct": {}, "spans": 0, "dropped": 0}
    for s in summaries:
        for name, (c, tot, own) in s["stats"].items():
            st = merged["stats"].setdefault(name, [0, 0.0, 0.0])
            st[0] += c
            st[1] += tot
            st[2] += own
        for key in ("counts", "distinct"):
            for name, n in s[key].items():
                merged[key][name] = merged[key].get(name, 0) + n
        merged["spans"] += s["spans"]
        merged["dropped"] += s["dropped"]
    return merged
