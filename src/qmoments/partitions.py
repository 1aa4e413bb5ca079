"""Integer partitions: parsing, statistics, containment, enumeration."""

from functools import lru_cache
from itertools import accumulate

from .errors import ParseError


@lru_cache(maxsize=None)
def _conjugate(parts):
    # conj_i = k for parts[k] < i <= parts[k - 1] (parts[len] read as 0)
    out = []
    for k in range(len(parts), 0, -1):
        out += [k] * (parts[k - 1] - (parts[k] if k < len(parts) else 0))
    return tuple(out)


class Partition(tuple):
    """Weakly decreasing tuple of positive integers (empty allowed).

    The one coercion to a partition: a Partition is returned as it is.
    Trailing zeros in the input are stripped; input that is not iterable, a
    part that is not an int (a bool, float or string included), and
    anything non-monotone or negative, is rejected.
    """

    def __new__(cls, parts=()):
        if isinstance(parts, Partition):
            return parts
        try:
            parts = tuple(parts)
        except TypeError:
            raise ParseError("a partition is an iterable of ints, got %r" % (parts,)) from None
        for a in parts:
            # a float, bool or string would stand for another partition
            if type(a) is not int:
                raise ParseError("parts must be ints, got %r" % (a,))
        n = len(parts)
        while n and parts[n - 1] == 0:
            n -= 1
        parts = parts[:n]
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ParseError("parts must be weakly decreasing, got %r" % (parts,))
        if parts and parts[-1] < 0:
            raise ParseError("parts must be nonnegative, got %r" % (parts,))
        return tuple.__new__(cls, parts)

    def __repr__(self):
        return "Partition(%s)" % (tuple(self),)

    def __str__(self):
        return ",".join(str(a) for a in self)

    @property
    def size(self):
        return sum(self)

    @property
    def length(self):
        return len(self)

    def part(self, i):
        """The i-th part, 1-based; 0 beyond the length."""
        return self[i - 1] if 1 <= i <= len(self) else 0

    def conjugate(self):
        """Transpose of the Young diagram: part i counts parts >= i."""
        # a conjugate is weakly decreasing and positive: no need to check it
        return tuple.__new__(Partition, _conjugate(tuple(self)))

    def conj(self, i):
        """The i-th part of the conjugate, 1-based; 0 beyond lam_1."""
        c = _conjugate(tuple(self))
        return c[i - 1] if 1 <= i <= len(c) else 0

    def mult(self, i):
        """Multiplicity of the part value i >= 1."""
        return sum(1 for a in self if a == i)

    def nstat(self):
        """Sum of (i-1)*lam_i over 1-based i; equals sum of C(conj_i, 2)."""
        return sum(i * a for i, a in enumerate(self))

    def contains(self, mu):
        """True iff mu_i <= lam_i for every i (missing parts read as 0)."""
        mu = Partition(mu)
        return len(mu) <= len(self) and all(m <= a for m, a in zip(mu, self))


def parse_partition(text):
    """Parse "3,1,1" (comma form) or "1^2 3^1" (multiplicity form).

    Blank text yields the empty partition.  The comma form must already be
    weakly decreasing; the multiplicity form is order-free.
    """
    s = text.strip()
    if not s:
        return Partition()
    if "^" in s:
        mults = {}
        for tok in s.split():
            head, sep, tail = tok.partition("^")
            if not sep:
                raise ParseError("expected value^mult clause, got %r" % (tok,))
            try:
                v, m = int(head), int(tail)
            except ValueError:
                raise ParseError("non-integer token %r" % (tok,)) from None
            if v <= 0:
                raise ParseError("part value must be positive in %r" % (tok,))
            if m < 0:
                raise ParseError("negative multiplicity in %r" % (tok,))
            mults[v] = mults.get(v, 0) + m
        parts = []
        for v in sorted(mults, reverse=True):
            parts.extend([v] * mults[v])
        return Partition(parts)
    parts = []
    for tok in s.split(","):
        tok = tok.strip()
        try:
            a = int(tok)
        except ValueError:
            raise ParseError("non-integer token %r" % (tok,)) from None
        if a <= 0:
            raise ParseError("zero or negative part %r" % (tok,))
        parts.append(a)
    return Partition(parts)


def partitions_of(n, max_part=None, max_length=None):
    """Yield the partitions of n in reverse-lexicographic order on parts."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield Partition()
        return
    mp = n if max_part is None else min(max_part, n)
    ml = n if max_length is None else max_length

    def rec(rem, mx, slots, prefix):
        if rem == 0:
            yield Partition(prefix)
            return
        if slots == 0 or mx == 0:
            return
        lo = -(-rem // slots)  # smallest feasible first part
        for a in range(min(mx, rem), lo - 1, -1):
            yield from rec(rem - a, a, slots - 1, prefix + (a,))

    yield from rec(n, mp, ml, ())


def subpartitions(lam):
    """Yield every mu with mu_i <= lam_i, each exactly once."""
    lam = Partition(lam)

    def rec(i, cap):
        if i == len(lam):
            yield ()
            return
        for a in range(min(cap, lam[i]), 0, -1):
            for rest in rec(i + 1, a):
                yield (a,) + rest
        yield ()

    for parts in rec(0, lam[0] if lam else 0):
        yield Partition(parts)


def subpartition_count(lam, limit):
    """The number of partitions inside lam (`subpartitions`), counted row by
    row from the last without listing them: ways[v] counts the fillings of
    the rows below a row of length v.  The count is at least
    lam_1 * length + 1 (the partitions inside the hook of lam), and that
    lower bound is returned when it passes `limit`, so the count, about
    lam_1 * length steps, runs only below `limit`."""
    lam = Partition(lam)
    top = lam.part(1)
    if top * len(lam) + 1 > limit:
        return top * len(lam) + 1
    ways = [1] * (top + 1)
    for part in reversed(lam):
        prefix = list(accumulate(ways))
        ways = [prefix[min(v, part)] for v in range(top + 1)]
    return ways[top]
