"""q-shifted factorials, q-binomials, and truncated power series in z.

Scalars are UniRat rational functions in the formal parameter "q" (only
`qbinomial` takes another name); series in the extra marker z are explicit
truncations that record their order and never read above it.
"""

from fractions import Fraction
from functools import lru_cache
from math import inf

from .qrat import ONE, UniRat, ZERO, _padd, _pshift, _unify


# ---------------------------------------------------------------------------
# q-shifted factorials


@lru_cache(maxsize=None)
def _qq_raw(k, base):
    """Coefficient tuple of (q^base; q^base)_k."""
    if k == 0:
        return (1,)
    prev = _qq_raw(k - 1, base)
    # multiply by (1 - q^{base*k})
    return _padd(prev, tuple(-c for c in _pshift(prev, base * k)))


def qq(k, base=1):
    """(q^base; q^base)_k = prod_{j=1}^{k} (1 - q^{base*j})."""
    if k < 0:
        raise ValueError("qq needs k >= 0, got %r" % (k,))
    return UniRat(_qq_raw(k, base), (1,), "q")


def qpochhammer(a, k, trunc=None):
    """The q-shifted factorial (a; q)_k.

    `a` is a monomial given as a pair (coeff, spow) meaning coeff * q^spow;
    `coeff` may be an int, Fraction, or UniRat in q.

    k >= 0 gives the finite product prod_{j=0}^{k-1} (1 - a q^j); k = inf
    expands the infinite product as a series in an auxiliary marker z
    attached to `a` (so the argument reads coeff * z * q^spow), and
    requires a truncation order.
    """
    coeff, spow = a
    c = UniRat.const(coeff)
    if k == inf:
        if trunc is None:
            raise ValueError("infinite q-shifted factorial needs a truncation order")
        coeffs = [(c ** j) * euler_coeff(j, spow) for j in range(trunc + 1)]
        return ZSeries(coeffs, trunc, "q")
    if k < 0:
        raise ValueError("qpochhammer needs k >= 0 or inf, got %r" % (k,))
    out = ONE
    for j in range(k):
        out = out * (1 - c * UniRat.mono("q", spow + j))
    return out


def euler_coeff(j, spow, base=1):
    """z^j coefficient of (z q^spow; q^base)_inf:
    (-1)^j q^{spow*j + base*j(j-1)/2} / (q^base; q^base)_j."""
    e = spow * j + base * (j * (j - 1) // 2)
    sign = -1 if j % 2 else 1
    return UniRat.mono("q", e, sign) / qq(j, base)


def euler_coeff_recip(j):
    """z^j coefficient of 1 / (z q; q)_inf: q^j / (q; q)_j."""
    return UniRat.mono("q", j) / qq(j)


# ---------------------------------------------------------------------------
# q-binomial coefficients


@lru_cache(maxsize=None)
def _qbin_raw(n, k):
    if k < 0 or k > n:
        return ()
    if k == 0 or k == n:
        return (1,)
    # q-Pascal: [n k] = [n-1 k-1] + q^k [n-1 k]
    return _padd(_qbin_raw(n - 1, k - 1), _pshift(_qbin_raw(n - 1, k), k))


def qbinomial(n, k, param="q"):
    """The Gaussian binomial [n k] in the given parameter; 0 out of range."""
    return UniRat(_qbin_raw(n, k), (1,), param)


# ---------------------------------------------------------------------------
# truncated power series in the marker z


class ZSeries:
    """Power series in z, truncated: coefficients c_0..c_trunc of UniRat."""

    __slots__ = ("trunc", "coeffs", "param")

    def __init__(self, coeffs, trunc, param=None):
        cs = [UniRat.const(c) for c in coeffs]
        if len(cs) > trunc + 1:
            cs = cs[: trunc + 1]
        while len(cs) < trunc + 1:
            cs.append(ZERO)
        for c in cs:
            param = _unify(param, c.param)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "param", param)

    def __setattr__(self, *a):
        raise AttributeError("ZSeries is immutable")

    @staticmethod
    def one(trunc, param=None):
        return ZSeries([ONE], trunc, param)

    def coeff_at(self, n):
        if not 0 <= n <= self.trunc:
            raise IndexError("coefficient %d above truncation %d" % (n, self.trunc))
        return self.coeffs[n]

    def _coerce(self, other):
        if isinstance(other, ZSeries):
            return other
        if isinstance(other, (int, Fraction, UniRat)):
            return ZSeries([other], self.trunc, self.param)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = min(self.trunc, other.trunc)
        return ZSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)],
            n,
            _unify(self.param, other.param),
        )

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = min(self.trunc, other.trunc)
        out = [ZERO] * (n + 1)
        for i, ci in enumerate(self.coeffs[: n + 1]):
            if ci.is_zero():
                continue
            for j in range(n + 1 - i):
                cj = other.coeffs[j]
                if cj:
                    out[i + j] = out[i + j] + ci * cj
        return ZSeries(out, n, _unify(self.param, other.param))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = ZSeries.one(self.trunc, self.param)
        for _ in range(k):
            out = out * self
        return out

    def scale(self, u):
        u = UniRat.const(u)
        return ZSeries([c * u for c in self.coeffs], self.trunc, self.param)

    def subs_z(self, qpow=0, zpow=1):
        """Substitute z -> q^qpow * z^zpow (zpow >= 1)."""
        if zpow < 1:
            raise ValueError("zpow must be >= 1")
        out = [ZERO] * (self.trunc + 1)
        for n, c in enumerate(self.coeffs):
            if n * zpow > self.trunc:
                break
            if c:
                out[n * zpow] = c * UniRat.mono(self.param or "q", qpow * n)
        return ZSeries(out, self.trunc, self.param)

    def inverse(self):
        """Multiplicative inverse; the constant term must be nonzero."""
        c0 = self.coeffs[0]
        if c0.is_zero():
            raise ZeroDivisionError("series with zero constant term")
        inv = [ONE / c0]
        for n in range(1, self.trunc + 1):
            s = ZERO
            for k in range(1, n + 1):
                ck = self.coeffs[k]
                if ck:
                    s = s + ck * inv[n - k]
            inv.append(-s / c0)
        return ZSeries(inv, self.trunc, self.param)
