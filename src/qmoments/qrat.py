"""Exact rational functions in one formal parameter, integer coefficients.

A UniRat is a reduced fraction of dense integer-coefficient polynomials.
The parameter name (e.g. "q" or "t") is part of the value: combining values
with different names raises, and conversions (renaming, q -> 1/q, q -> q^k)
are explicit.  Constants carry no parameter name at all.
"""

import sys
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from .errors import ParamMismatch

# ---------------------------------------------------------------------------
# dense polynomial helpers: ascending coefficient tuples, () is the zero poly


def _trim(c):
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _trim(out)


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _pack_signed(c, w):
    """Evaluate the integer sequence c at 2^(8w): one w-byte slot per entry.

    Entries may be negative; _unpack_signed recovers them as long as every
    |entry| stays below 2^(8w-1).
    """
    n = len(c)
    if n > 32:
        # split so that the shifts below stay on short ints
        h = n // 2
        return _pack_signed(c[:h], w) + (_pack_signed(c[h:], w) << (8 * w * h))
    s = 8 * w
    p = 0
    for x in reversed(c):
        p = (p << s) + x
    return p


# memoryview formats that read one unsigned w-byte slot (little-endian hosts only)
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"} if sys.byteorder == "little" else {}


def _unpack_signed(p, w, n):
    """The n signed w-byte slots of p, inverse of _pack_signed.

    Every slot must lie in [-2^(8w-1), 2^(8w-1)) and slots >= n must be zero;
    a value too large for n slots raises OverflowError.
    """
    half = 1 << (8 * w - 1)
    # add `half` to every slot so all slots are nonnegative: no borrows
    raw = (p + int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")).to_bytes(
        w * n, "little"
    )
    fmt = _SLOT_FORMATS.get(w)
    if fmt:
        return [x - half for x in memoryview(raw).cast(fmt).tolist()]
    return [int.from_bytes(raw[i * w : (i + 1) * w], "little") - half for i in range(n)]


def _pshift(a, k):
    """Multiply by x^k, k >= 0."""
    return ((0,) * k + tuple(a)) if a else ()


def _pcontent(a):
    g = 0
    for x in a:
        g = gcd(g, x)
        if g == 1:
            return 1
    return g


def _pprim(a):
    """Primitive part with positive leading coefficient."""
    if not a:
        return ()
    g = _pcontent(a)
    if a[-1] < 0:
        g = -g
    if g != 1:
        a = tuple(x // g for x in a)
    return a


def _pgcd(a, b):
    """(g, a/g, b/g) for g the primitive gcd of the nonzero a and b, g[-1] > 0.

    Heuristic gcd (GCDHEU; Char, Geddes and Gonnet 1989): the integer gcd
    h of a(xi) and b(xi), read back in symmetric base-xi digits, has a
    primitive part g that is the gcd as soon as g divides both a and b,
    because xi >= 2*min(||a||_inf, ||b||_inf) + 2 (Geddes, Czapor and
    Labahn 1992, Thm 7.7); the exact divisions are that check.  The loop
    ends: with G the gcd, h = |G(xi)| * k where k divides the nonzero
    resultant of a/G and b/G, so once xi > 2*||kG||_inf the digits are
    +-kG, whose primitive part G passes the check, and the bit length of xi
    grows geometrically, so that point is reached.
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    while True:
        h = gcd(_peval(a, xi), _peval(b, xi))
        digits = []
        while h:
            h, d = divmod(h, xi)
            if 2 * d > xi:
                d -= xi
                h += 1
            digits.append(d)
        g = _pprim(tuple(digits))
        try:
            return g, _pexactdiv(a, g), _pexactdiv(b, g)
        except ArithmeticError:
            xi = 73794 * xi * isqrt(isqrt(xi)) // 27011


def _pexactdiv(a, b):
    """Exact polynomial division over the integers; raises if inexact."""
    if not a:
        return ()
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    nq = len(a) - db
    if nq <= 0:
        raise ArithmeticError("inexact polynomial division")
    q = [0] * nq
    for k in range(nq - 1, -1, -1):
        c = r[k + db]
        if c:
            cq, rem = divmod(c, lb)
            if rem:
                raise ArithmeticError("inexact polynomial division")
            q[k] = cq
            for i, bc in enumerate(b):
                r[k + i] -= cq * bc
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return _trim(q)


def _pval(a):
    """Index of the lowest nonzero coefficient (a nonzero)."""
    for i, x in enumerate(a):
        if x:
            return i
    raise ValueError("zero polynomial has no valuation")


def _ismono(a):
    return bool(a) and not any(a[:-1])


def _peval(a, x):
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def _normalize(num, den):
    num, den = _trim(num), _trim(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return (), (1,)
    # common power of the parameter
    vd = _pval(den)
    if vd:
        vn = _pval(num)
        v = vn if vn < vd else vd
        if v:
            num, den = num[v:], den[v:]
    if den == (1,):
        return num, den
    if len(den) == 1:
        d = den[0]
        g = gcd(_pcontent(num), d) * (-1 if d < 0 else 1)
        if g != 1:
            num = tuple(x // g for x in num)
            d //= g
        return num, (d,)
    if _ismono(den):
        # num has a nonzero constant term here, so only content is shared
        g = gcd(_pcontent(num), den[-1]) * (-1 if den[-1] < 0 else 1)
    elif _ismono(num):
        # only integer content can be shared once the q-power is stripped
        g = gcd(num[-1], _pcontent(den)) * (-1 if den[-1] < 0 else 1)
    else:
        _, num, den = _pgcd(num, den)
        if den == (1,):
            return num, den
        g = gcd(_pcontent(num), _pcontent(den)) * (-1 if den[-1] < 0 else 1)
    if g != 1:
        num = tuple(x // g for x in num)
        den = tuple(x // g for x in den)
    return num, den


def _unify(p1, p2):
    if p1 is None:
        return p2
    if p2 is None or p1 == p2:
        return p1
    raise ParamMismatch("cannot combine parameters %r and %r" % (p1, p2))


class UniRat:
    """Reduced ratio of integer polynomials in one named formal parameter."""

    __slots__ = ("num", "den", "param")

    def __init__(self, num, den=(1,), param=None):
        num, den = _normalize(tuple(num), tuple(den))
        if len(num) <= 1 and len(den) == 1:
            param = None
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "param", param if num else None)

    def __setattr__(self, *a):
        raise AttributeError("UniRat is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(c):
        """A constant (int or Fraction); a UniRat is returned as it is."""
        if isinstance(c, UniRat):
            return c
        f = Fraction(c)
        return UniRat((f.numerator,), (f.denominator,))

    @staticmethod
    def mono(param, k, coeff=1):
        """coeff * q^k, any integer k."""
        f = Fraction(coeff)
        if k >= 0:
            return UniRat(_pshift((f.numerator,), k), (f.denominator,), param)
        return UniRat((f.numerator,), _pshift((f.denominator,), -k), param)

    @staticmethod
    def one():
        return UniRat((1,))

    # -- predicates and views ------------------------------------------------

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def poly_coeffs(self):
        """Ascending coefficients when the value is a polynomial."""
        if len(self.den) > 1:
            raise ValueError("not a polynomial: %s" % (self,))
        d = self.den[0]
        return tuple(Fraction(c, d) for c in self.num)

    def constant(self):
        """The value as a Fraction if constant, else None."""
        if len(self.num) <= 1 and len(self.den) == 1:
            return Fraction(self.num[0] if self.num else 0, self.den[0])
        return None

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, UniRat):
            return other
        if isinstance(other, (int, Fraction)):
            return UniRat.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        param = _unify(self.param, other.param)
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1 == d2:
            return UniRat(_padd(n1, n2), d1, param)
        if _ismono(d1) and _ismono(d2):
            # a/(c1 q^v1) + b/(c2 q^v2) over the common monomial denominator
            v1, v2 = len(d1) - 1, len(d2) - 1
            c1, c2 = d1[-1], d2[-1]
            v = max(v1, v2)
            num = _padd(
                _pshift(tuple(x * c2 for x in n1), v - v1),
                _pshift(tuple(x * c1 for x in n2), v - v2),
            )
            return UniRat(num, _pshift((c1 * c2,), v), param)
        num = _padd(_pmul(n1, d2), _pmul(n2, d1))
        return UniRat(num, _pmul(d1, d2), param)

    __radd__ = __add__

    def __neg__(self):
        r = UniRat.__new__(UniRat)
        object.__setattr__(r, "num", _pneg(self.num))
        object.__setattr__(r, "den", self.den)
        object.__setattr__(r, "param", self.param)
        return r

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        param = _unify(self.param, other.param)
        return UniRat(
            _pmul(self.num, other.num), _pmul(self.den, other.den), param
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        param = _unify(self.param, other.param)
        return UniRat(
            _pmul(self.num, other.den), _pmul(self.den, other.num), param
        )

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return UniRat.one()
        base = self
        if k < 0:
            if not self.num:
                raise ZeroDivisionError("0 ** negative")
            base = UniRat(self.den, self.num, self.param)
            k = -k
        out = None
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniRat.const(other)
        if not isinstance(other, UniRat):
            return NotImplemented
        if self.num != other.num or self.den != other.den:
            return False
        if self.param is None or other.param is None:
            return True
        return self.param == other.param

    def __hash__(self):
        return hash((self.num, self.den, self.param))

    # -- parameter conversions ------------------------------------------------

    def rename(self, param):
        """Same coefficients under a new parameter name."""
        return UniRat(self.num, self.den, param)

    def recip_param(self):
        """Substitute q -> 1/q."""
        if not self.num:
            return self
        dn, dd = len(self.num) - 1, len(self.den) - 1
        num = tuple(reversed(self.num))
        den = tuple(reversed(self.den))
        if dd > dn:
            num = _pshift(num, dd - dn)
        elif dn > dd:
            den = _pshift(den, dn - dd)
        return UniRat(num, den, self.param)

    def pow_param(self, k):
        """Substitute q -> q^k for an integer k >= 1."""
        if k < 1:
            raise ValueError("k must be a positive integer")
        if k == 1:
            return self

        def stretch(c):
            out = [0] * ((len(c) - 1) * k + 1) if c else []
            for i, x in enumerate(c):
                out[i * k] = x
            return tuple(out)

        return UniRat(stretch(self.num), stretch(self.den), self.param)

    def eval_at(self, x):
        """Exact evaluation at a rational point, on ints at an integral one."""
        x = Fraction(x)
        x = x.numerator if x.denominator == 1 else x
        d = _peval(self.den, x)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at %s" % (x,))
        return Fraction(_peval(self.num, x)) / d

    # -- rendering -------------------------------------------------------------

    def _pretty_poly(self, c):
        p = self.param or "q"
        bits = []
        for i, x in enumerate(c):
            if not x:
                continue
            if i == 0:
                bits.append(str(x))
                continue
            mag = "" if abs(x) == 1 else str(abs(x)) + "*"
            term = "%s%s" % (mag, p if i == 1 else "%s^%d" % (p, i))
            if not bits:
                bits.append(term if x > 0 else "-" + term)
            else:
                bits.append(("+ " if x > 0 else "- ") + term)
        return " ".join(bits) if bits else "0"

    def __repr__(self):
        if self.den == (1,):
            return self._pretty_poly(self.num)
        return "(%s)/(%s)" % (
            self._pretty_poly(self.num),
            self._pretty_poly(self.den),
        )


ZERO = UniRat(())
ONE = UniRat.one()


# ---------------------------------------------------------------------------
# sums of products of Laurent factors on one certified slot width


def laurent_sum_of_products(terms):
    """sum over terms of the product of the term's factors, as a UniRat.

    Each factor is a UniRat num(q) / (c q^v), a Laurent polynomial; any
    other denominator raises ValueError.  The parameter name comes from the
    factors.  With d_t the product of term t's c and L their lcm, the sum is
    sum_t (L/d_t) * prod_f num_f(q) * q^(-v_t) / L, and no coefficient of
    that numerator exceeds B = sum_t (L/d_t) * prod_f ||num_f||_1 in
    absolute value.  Kronecker substitution q -> 2^(8w) is a ring map, so
    with one width w chosen up front with 2^(8w-1) > B the whole sum runs
    on bare packed ints (each distinct numerator packed once), and only the
    final int is read back.
    """
    rows = []
    L, param = 1, None
    for t in terms:
        for f in t:
            if any(f.den[:-1]):
                raise ValueError("factor %r is not c*q^v over an integer" % (f,))
            param = _unify(param, f.param)
        cs = [f.num for f in t]
        d, low = prod(f.den[-1] for f in t), -sum(len(f.den) - 1 for f in t)
        rows.append((cs, d, low, low + sum(map(len, cs)) - len(cs)))
        L = lcm(L, d)
    distinct = {c for r in rows for c in r[0]}
    norm = {c: sum(map(abs, c)) for c in distinct}.__getitem__
    B = sum(L // d * prod(map(norm, cs)) for cs, d, _, _ in rows)
    if not B:
        return ZERO
    w = B.bit_length() // 8 + 1
    s = 8 * w
    packed = {c: _pack_signed(c, w) for c in distinct}.__getitem__
    lo = min(r[2] for r in rows)
    total = 0
    for cs, d, low, _ in rows:
        ints = [L // d << s * (low - lo)]
        ints += map(packed, cs)
        # a balanced product tree: small ints meet first, big ones last
        while len(ints) > 1:
            ints = [x * y for x, y in zip(ints[::2], ints[1::2])] + ints[len(ints) & ~1 :]
        total += ints[0]
    span = max(r[3] for r in rows) - lo + 1
    slots = tuple(_unpack_signed(total, w, span))
    if lo < 0:
        return UniRat(slots, (0,) * -lo + (L,), param)
    return UniRat((0,) * lo + slots, (L,), param)
