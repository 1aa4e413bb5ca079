"""Sparse multivariate polynomials with Laurent-polynomial coefficients.

An MPoly maps exponent tuples (one slot per variable) to nonzero UniRat
coefficients.  Variables never appear in denominators; `divexact` divides
exactly by a factor x_i - x_j, for the symmetrize-and-divide oracles of the
tests (no library code calls it; the benchmark tracer hooks it by name).

Every coefficient is a Laurent polynomial in q over an integer (c*q^v in
the denominator): R_lambda, the Hall-Littlewood P_lambda and both cleared
sides of every identity are; 1/(q;q)_k and the like stay in scalar UniRat
and ZSeries values.  So an MPoly is one packed form, on which `mul`, `+`,
`scale`, `divexact` and `eval_points` run: all coefficients over one common
denominator L*q^V, each numerator one Python int holding its
q-coefficients in signed slots of s bits (Kronecker substitution
q -> 2^s).  The form keeps a bound `mag` on every |slot| and a bound `span`
on the slot count.  A product's bound is
min(#terms_A, #terms_B) * min(span_A, span_B) * mag_A * mag_B, a sum's is
the sum of both bounds at the common L (their maximum when no exponent is
in both), and s always satisfies 2^(s-1) > mag, so no slot can carry into
its neighbour.

The exponent tuples are packed too: each variable gets a field of
FIELD = 16 bits, x_1 most significant, so one int keys each coefficient,
the int order is the lex order of the tuples and an exponent sum is one int
addition.  The form keeps a bound `deg` on each variable's exponent.  A
product by a two-term poly (x_i - q^s, 1 - x_j q^s, x_i - x_j, ...) is two
shifted copies of the other operand, merged.  Both packed coefficients of
a `two_term` factor are +-2^m (q^s is slot s, and a negative s moves 1 to
slot -s), so they multiply as bit shifts, a coefficient 1 not at all, and
the second copy is subtracted when its coefficient is negative.

A truncated product keeps only the terms whose exponents of x_lo..x_{hi-1}
sum to at most cap, for each block (lo, hi, cap) it is given.  Each operand
key gets a guard int with each block's exponent sum in a w-bit field,
2^(w-1) > max(cap, the block's degree), so sums add without a carry; one
operand's fields are biased by 2^(w-1) - 1 - cap, so a pair is kept iff
g1 + g2 has no field's top (guard) bit set, and no product key is decoded
(Monagan and Pearce, CASC 2007).  A blocked variable's `deg` is clamped to
its cap.

The constructor packs the term map and raises ValueError for a coefficient
with a non-monomial denominator, a non-constant coefficient with no
parameter name or a negative exponent; an exponent bound (of a poly, a
product or a division's remainder) past 2^FIELD - 1 raises
ResourceBoundError.

`eval_points` at points of rational constants decodes the keys and widens
once, then per point sums the packed ints times integer multipliers and
decodes once, to a UniRat.  `==`, `is_zero`, negation and `swap_vars`
work on the packed form too, so they decode nothing: two packed polys are
compared at one width, L and V.  `terms` decodes to canonical UniRats
afresh and keeps nothing.  `embed` shifts every key.  `divexact` by
+-(x_i - x_j) runs on slots widened to #terms * mag and then measures the
quotient's mag and span.  `specialize_param` and the views work on the
decoded UniRats.
"""

import sys
from fractions import Fraction
from itertools import compress, repeat
from math import lcm, prod
from operator import add, lshift, mul, neg, not_, sub

from .errors import ResourceBoundError
from .qrat import UniRat, ZERO, _pack_signed, _pval, _unify, _unpack_signed

FIELD = 16  # bits per variable in a packed exponent key (`_exponents` reads "H" items)
_TOP = (1 << FIELD) - 1  # the largest exponent a field holds
_SLOT = (1 << 2 * FIELD) - 1  # a block sum's slot in `_guards`


def _fits(deg):
    """Raise ResourceBoundError when an exponent bound passes a field."""
    if deg and max(deg) > _TOP:
        raise ResourceBoundError("exponent of a variable", _TOP, max(deg))


def _slot_width(mag, w=8):
    """Smallest of w, 2w, 4w, ... bytes whose signed slots hold |x| <= mag.

    Slots start at 8 bytes and double: a wider slot costs little in int
    arithmetic, while every change of width re-encodes all coefficients.
    """
    while mag >> (8 * w - 1):
        w *= 2
    return w


def _mul_bound(a, b):
    # a product slot sums at most min(#terms) * min(span) slot products
    return min(len(a._coeffs), len(b._coeffs)) * min(a._span, b._span) * a._mag * b._mag


def _add_bound(a, b):
    L = lcm(a._L, b._L)
    return a._mag * (L // a._L) + b._mag * (L // b._L)


def _eq_bound(a, b):
    # each side's slots, brought to the common L, on their own
    L = lcm(a._L, b._L)
    return max(a._mag * (L // a._L), b._mag * (L // b._L))


def _times(cs, c):
    """The ints cs each times the nonzero int c, lazily: by a shift when c
    is +-2^m (as both coefficients of a `two_term` factor are), and cs
    itself when c is 1."""
    m = abs(c).bit_length() - 1
    if abs(c) != 1 << m:
        return map(mul, cs, repeat(c))
    if m:
        cs = map(lshift, cs, repeat(m))
    return map(neg, cs) if c < 0 else cs


def _unit(nvars, *slots):
    """The exponent tuple of prod_{i in slots} x_i (0-based, repeats allowed)."""
    e = [0] * nvars
    for i in slots:
        e[i] += 1
    return tuple(e)


def _difference(terms):
    """(i, j, sign) when terms is sign * (x_i - x_j) with i < j (so x_i is
    the lex-larger term), else None."""
    if len(terms) != 2:
        return None
    (e1, c1), (e2, c2) = sorted(terms.items(), reverse=True)
    if not {*e1, *e2} <= {0, 1} or sum(e1) != 1 or sum(e2) != 1:
        return None
    if c1 == 1 and c2 == -1:
        return e1.index(1), e2.index(1), 1
    if c1 == -1 and c2 == 1:
        return e1.index(1), e2.index(1), -1
    return None


def _key(e):
    """The packed key of an exponent tuple whose entries fit a field."""
    k = 0
    for x in e:
        k = (k << FIELD) + x
    return k


def _exponents(keys, nvars):
    """The exponent tuples of packed keys, in the same order.

    The fields of all keys are read in one memoryview cast; they come out
    least significant first, so the flat list is reversed and regrouped.
    """
    if not nvars:
        return [()] * len(keys)
    raw = b"".join([k.to_bytes(2 * nvars, "little") for k in keys])
    if sys.byteorder == "little":
        flat = memoryview(raw).cast("H").tolist()
    else:
        flat = [int.from_bytes(raw[i : i + 2], "little") for i in range(0, len(raw), 2)]
    flat.reverse()
    out = list(zip(*[iter(flat)] * nvars))
    out.reverse()
    return out


def _nonzero(out):
    """out, a fresh dict, with its zero values deleted in place: a C-level
    scan finds their keys, since most products and sums have few or none."""
    for k in [*compress(out, map(not_, out.values()))]:
        del out[k]
    return out


def _guards(keys, blocks, deg, biased):
    """(guard ints of keys, guard mask) for truncation blocks (lo, hi, cap) of
    a product with exponent bounds deg before truncation; biased adds
    2^(w-1) - 1 - cap to each field.  A block's sum is its even and odd
    fields added into 2*FIELD-bit slots, which mult sums into the top one:
    no slot passes (hi - lo) * _TOP < 2^(2*FIELD), so nothing carries."""
    out, guard, off = [0] * len(keys), 0, 0
    for lo, hi, cap in blocks:
        if lo == hi:
            continue  # no variables: the block's sum is 0 <= cap
        h = (hi - lo + 1) // 2
        ev = sum(_TOP << 2 * FIELD * t for t in range(h))
        od = sum(_TOP << 2 * FIELD * t for t in range((hi - lo) // 2))
        mult = sum(1 << 2 * FIELD * t for t in range(h))
        sh, top = FIELD * (len(deg) - hi), 2 * FIELD * (h - 1)
        w = max(cap, sum(deg[lo:hi])).bit_length() + 1
        bias = ((1 << (w - 1)) - 1 - cap) if biased else 0
        out = [
            g + ((((((k >> sh) & ev) + ((k >> sh + FIELD) & od)) * mult >> top & _SLOT) + bias) << off)
            for g, k in zip(out, keys)
        ]
        guard |= 1 << (off + w - 1)
        off += w
    return out, guard


def _pack(terms, nvars):
    """The packed fields (coeffs, w, L, V, mag, span, deg) of a UniRat term map.

    Raises ValueError when some coefficient has a non-monomial
    denominator or is non-constant without a parameter name (decoding
    gives every non-constant coefficient the poly's name), or when some
    exponent is negative; ResourceBoundError when one passes a field.
    """
    if not terms:
        return {}, 8, 1, 0, 0, 1, (0,) * nvars
    cols = list(zip(*terms))
    deg = tuple(map(max, cols))
    if cols and min(map(min, cols)) < 0:
        raise ValueError("negative exponent in %r" % (min(terms),))
    _fits(deg)
    L, lo, hi = 1, None, None
    for c in terms.values():
        num, den = c.num, c.den
        if any(den[:-1]) or (c.param is None and (len(num) > 1 or len(den) > 1)):
            raise ValueError("coefficient %r is not c*q^v over an integer" % (c,))
        v = len(den) - 1
        L = lcm(L, den[-1])
        low, high = _pval(num) - v, len(num) - 1 - v
        if lo is None or low < lo:
            lo = low
        if hi is None or high > hi:
            hi = high
    V = -lo
    mag = max(max(map(abs, c.num)) * (L // c.den[-1]) for c in terms.values())
    w = _slot_width(mag)
    coeffs = {}
    for e, c in terms.items():
        num, den = c.num, c.den
        k = L // den[-1]
        sh = V - len(den) + 1
        packed = _pack_signed([x * k for x in num[max(0, -sh):]], w)
        coeffs[_key(e)] = packed << (8 * w * sh) if sh > 0 else packed
    return coeffs, w, L, V, mag, hi - lo + 1, deg


def _unirat(c, w, span, L, V, param):
    """The canonical UniRat of the packed numerator c over L*q^V."""
    lead = (0,) * -V if V < 0 else ()
    den = (0,) * V + (L,) if V > 0 else (L,)
    return UniRat(lead + tuple(_unpack_signed(c, w, span)), den, param)


_set = object.__setattr__


def _fill(p, param, coeffs, w, L, V, mag, span, deg):
    """p with its fields set, past the __setattr__ that refuses them."""
    _set(p, "param", param)
    _set(p, "_coeffs", coeffs)
    _set(p, "_w", w)
    _set(p, "_L", L)
    _set(p, "_V", V)
    _set(p, "_mag", mag)
    _set(p, "_span", span)
    _set(p, "_deg", deg)
    return p


def _new(*fields):
    """The MPoly of (param, coeffs, w, L, V, mag, span, deg)."""
    return _fill(object.__new__(MPoly), *fields)


class MPoly:
    """Polynomial in x_1..x_nvars with UniRat coefficients, held packed:
    n_e(q) * q^-V / L at x^e, with n_e packed in w-byte slots.

    _coeffs maps the packed key of e (`_key`) to its packed numerator, and
    _deg[i] bounds the exponent of x_i in every key.  Slot i of _coeffs[e]
    is L times the coefficient of q^(i-V) in the value at x^e.  Every slot
    lies in [-mag, mag], 2^(8w-1) > mag, and slots at index >= span are
    zero.  No coefficient is zero.
    """

    __slots__ = ("param", "_coeffs", "_w", "_L", "_V", "_mag", "_span", "_deg")

    def __init__(self, terms, nvars, param=None):
        clean = {}
        for e, c in terms.items():
            c = UniRat.const(c)
            if c.is_zero():
                continue
            e = tuple(e)
            if len(e) != nvars:
                raise ValueError("exponent %r has wrong arity" % (e,))
            param = _unify(param, c.param)
            clean[e] = c
        _fill(self, param, *_pack(clean, nvars))

    def __setattr__(self, *a):
        raise AttributeError("MPoly is immutable")

    @property
    def nvars(self):
        return len(self._deg)

    @property
    def terms(self):
        """Exponent tuple -> nonzero UniRat coefficient, decoded afresh.

        Each distinct packed coefficient is decoded once (the 16,000 of a
        FINITE_QBINHL n=3 side hold about 3,000 values), and the immutable
        UniRat is shared.
        """
        w, n, L, V, param = self._w, self._span, self._L, self._V, self.param
        coeffs = self._coeffs.values()
        value = {c: _unirat(c, w, n, L, V, param) for c in set(coeffs)}
        exps = _exponents(list(self._coeffs), len(self._deg))
        return dict(zip(exps, map(value.__getitem__, coeffs)))

    # -- packed bounds and widths ------------------------------------------------

    def measure(self):
        """Replace the bounds `mag` and `span` by the exact largest |slot|
        and slot count, unpacking each distinct coefficient once."""
        w, n = self._w, self._span
        mag, span = 0, 1
        for c in set(self._coeffs.values()):
            d = _unpack_signed(c, w, n)
            mag = max(mag, max(d), -min(d))
            while not d[-1]:
                d.pop()
            span = max(span, len(d))
        _set(self, "_mag", mag)
        _set(self, "_span", span)

    def widen(self, w):
        """The same values in w-byte slots (w >= self._w)."""
        if w == self._w:
            return self
        n = self._span
        coeffs = {
            e: _pack_signed(_unpack_signed(c, self._w, n), w) for e, c in self._coeffs.items()
        }
        return _new(self.param, coeffs, w, self._L, self._V, self._mag, n, self._deg)

    def _common(self, other, bound):
        """Both operands at one width whose slots hold bound(self, other).

        When the certified bound outgrows the current width, both operands'
        bounds are first re-measured exactly; only if that is not enough do
        the slots widen.  Returns (a, b, w, bound).
        """
        w = max(self._w, other._w)
        mag = bound(self, other)
        if mag >> (8 * w - 1):
            self.measure()
            other.measure()
            mag = bound(self, other)
            w = _slot_width(mag, w)
        return self.widen(w), other.widen(w), w, mag

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(nvars, param=None):
        return MPoly({}, nvars, param)

    @staticmethod
    def one(nvars, param=None):
        return MPoly({(0,) * nvars: UniRat.one()}, nvars, param)

    @staticmethod
    def const(c, nvars, param=None):
        return MPoly({(0,) * nvars: c}, nvars, param)

    @staticmethod
    def var(i, nvars, param=None):
        """x_i for 0-based i."""
        return MPoly({_unit(nvars, i): UniRat.one()}, nvars, param)

    @staticmethod
    def mono(exps, coeff=1, param=None):
        exps = tuple(exps)
        return MPoly({exps: coeff}, len(exps), param)

    @staticmethod
    def two_term(u, v, s, param):
        """x^u - param^s x^v for exponent tuples u, v."""
        return MPoly({u: UniRat.one(), v: UniRat.mono(param, s, -1)}, len(u), param)

    # -- views ----------------------------------------------------------------

    def coeff_of(self, exps):
        return self.terms.get(tuple(exps), ZERO)

    def is_zero(self):
        return not self._coeffs

    def __bool__(self):
        return not self.is_zero()

    def homogeneous_degree(self):
        """Common total degree of all terms, or None."""
        degs = set(map(sum, _exponents(list(self._coeffs), len(self._deg))))
        if len(degs) == 1:
            return degs.pop()
        return None if degs else 0

    # -- ring operations -------------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("operand arities differ: %d vs %d" % (self.nvars, other.nvars))

    def __add__(self, other):
        if isinstance(other, (int, Fraction, UniRat)):
            other = MPoly.const(other, self.nvars)
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        param = _unify(self.param, other.param)
        a, b, w, mag = self._common(other, _add_bound)
        L, V = lcm(a._L, b._L), max(a._V, b._V)
        ka, kb = L // a._L, L // b._L
        sa, sb = 8 * w * (V - a._V), 8 * w * (V - b._V)
        out = {e: (c * ka) << sa for e, c in a._coeffs.items()}
        get = out.get
        for e, c in b._coeffs.items():
            out[e] = get(e, 0) + ((c * kb) << sb)
        if len(out) == len(a._coeffs) + len(b._coeffs):
            # no exponent is in both, so every slot comes from one operand
            mag = max(a._mag * ka, b._mag * kb)
        span = max(a._span + V - a._V, b._span + V - b._V)
        out = _nonzero(out)
        return _new(param, out, w, L, V, mag, span, tuple(map(max, a._deg, b._deg)))

    __radd__ = __add__

    def __neg__(self):
        out = {e: -c for e, c in self._coeffs.items()}
        return _new(self.param, out, self._w, self._L, self._V, self._mag, self._span, self._deg)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, UniRat)):
            other = MPoly.const(other, self.nvars)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def mul(self, other, keep=None):
        """Product; keep, when given, is a tuple of blocks (lo, hi, cap) and
        drops every term whose exponents of x_lo..x_{hi-1} sum past cap
        (`_guards`).  ResourceBoundError when an exponent could outgrow its
        field."""
        if isinstance(other, (int, Fraction, UniRat)):
            other = MPoly.const(other, self.nvars)
        self._check(other)
        param = _unify(self.param, other.param)
        deg = tuple(map(add, self._deg, other._deg))
        if keep:
            unclamped = deg
            for lo, hi, cap in keep:
                deg = deg[:lo] + tuple(min(d, cap) for d in deg[lo:hi]) + deg[hi:]
        _fits(deg)
        a, b, w, mag = self._common(other, _mul_bound)
        big, small = a._coeffs, b._coeffs
        if len(big) == 2:
            big, small = small, big
        if keep:
            gs, guard = _guards(small, keep, unclamped, True)
            pairs = list(zip(small.items(), gs))
            out = {}
            get = out.get
            for (k1, c1), g1 in zip(big.items(), _guards(big, keep, unclamped, False)[0]):
                for (k2, c2), g2 in pairs:
                    if not (g1 + g2) & guard:
                        k = k1 + k2
                        out[k] = get(k, 0) + c1 * c2
        elif len(small) == 2:
            # two shifted copies of the larger operand, merged
            (u, cu), (v, cv) = small.items()
            out = dict(zip([k + u for k in big], _times(big.values(), cu)))
            get = out.get
            # a negative cv is subtracted, so no copy is negated first
            merge = sub if cv < 0 else add
            for k, c in zip(big, _times(big.values(), abs(cv))):
                k += v
                out[k] = merge(get(k, 0), c)
        else:
            out = {}
            get = out.get
            for k1, c1 in big.items():
                for k2, c2 in small.items():
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
        out = _nonzero(out)
        return _new(param, out, w, a._L * b._L, a._V + b._V, mag, a._span + b._span - 1, deg)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, UniRat, MPoly)):
            return self.mul(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c):
        """Every coefficient times the scalar c, packed as a 0-variable poly."""
        c = UniRat.const(c)
        if c.is_zero():
            return MPoly.zero(self.nvars, self.param)
        param = _unify(self.param, c.param)
        a, b, w, mag = self._common(MPoly({(): c}, 0), _mul_bound)
        (k,) = b._coeffs.values()
        out = {e: v * k for e, v in a._coeffs.items()}
        return _new(param, out, w, a._L * b._L, a._V + b._V, mag, a._span + b._span - 1, a._deg)

    def divexact(self, other):
        """Exact division by +-(x_i - x_j), the Vandermonde factors of the
        tests' symmetrize-and-divide oracles (`hl_p` builds P_lam by the
        branching rule, with no division).  Raises
        ValueError for any other divisor and ArithmeticError when the
        division leaves a remainder; ResourceBoundError when the remainder
        could outgrow a field.

        It is long division on the packed ints, for sign * (x_i - x_j) with
        i < j: the quotient at m / x_i is sign times the remainder at m,
        which is added to the remainder at m * x_j / x_i.  A step moves one
        unit of exponent from x_i to x_j, so no remainder exponent of x_j
        passes deg_i + deg_j.  Every quotient and remainder slot is a signed
        sum of distinct dividend slots, so |slot| <= #terms * mag; the slots
        widen to that bound first, which also makes each zero test exact.
        The division is not exact when the remainder's largest key has no
        x_i.  The quotient's mag and span are measured, so a chain of
        divisions does not multiply the bound.
        """
        diff = _difference(other.terms) if isinstance(other, MPoly) else None
        if diff is None:
            raise ValueError("divexact divides by +-(x_i - x_j) only, not %r" % (other,))
        self._check(other)
        i, j, sign = diff
        n = self.nvars
        _fits((self._deg[i] + self._deg[j],))
        shift = FIELD * (n - 1 - i)
        unit = 1 << shift  # the key of x_i
        step = (1 << FIELD * (n - 1 - j)) - unit
        mag = len(self._coeffs) * self._mag
        a = self.widen(_slot_width(mag, self._w))
        r = dict(a._coeffs)
        out = {}
        while r:
            m = max(r)
            if not (m >> shift) & _TOP:
                raise ArithmeticError("inexact polynomial division")
            c = r.pop(m)
            out[m - unit] = c if sign > 0 else -c
            t = m + step
            c += r.get(t, 0)
            if c:
                r[t] = c
            else:
                r.pop(t, None)
        param = _unify(self.param, other.param)
        quot = _new(param, out, a._w, a._L, a._V, mag, a._span, a._deg)
        quot.measure()
        return quot

    # -- substitutions ----------------------------------------------------------

    def swap_vars(self, i, j):
        """x_i and x_j exchanged: the two fields of every packed key swap."""
        si, sj = FIELD * (self.nvars - 1 - i), FIELD * (self.nvars - 1 - j)
        rest = ~((_TOP << si) | (_TOP << sj))
        coeffs = {
            (k & rest) | ((k >> si & _TOP) << sj) | ((k >> sj & _TOP) << si): c
            for k, c in self._coeffs.items()
        }
        deg = list(self._deg)
        deg[i], deg[j] = deg[j], deg[i]
        return _new(self.param, coeffs, self._w, self._L, self._V, self._mag, self._span, tuple(deg))

    def embed(self, nvars, offset):
        """View inside a larger variable list: old slot i goes to offset + i."""
        pad = nvars - offset - self.nvars
        if offset < 0 or pad < 0:
            raise ValueError("%d variables at offset %d do not fit %d" % (self.nvars, offset, nvars))
        sh = FIELD * pad
        coeffs = {k << sh: c for k, c in self._coeffs.items()}
        deg = (0,) * offset + self._deg + (0,) * pad
        return _new(self.param, coeffs, self._w, self._L, self._V, self._mag, self._span, deg)

    def eval_points(self, points):
        """The value at each point (a list of rational constants: int,
        Fraction or constant UniRat) as a canonical UniRat.  A non-constant
        value raises ValueError.

        With D the lcm of the denominators of the variables whose degree
        bound is above 0, x_i = n_i / D for integers n_i, so the value is
        sum_e c_e * prod(n_i^e_i) * D^(top-|e|) / D^top with top the largest
        total degree: the sum runs on the packed ints, whose slots widen once
        to #terms * mag * max|multiplier| over all the points, and is decoded
        once per point, over L * D^top.
        """
        exps = _exponents(list(self._coeffs), len(self._deg))
        top = max(map(sum, exps), default=0)
        mults, dens = [], []
        for values in points:
            xs = [v if isinstance(v, (int, Fraction)) else UniRat.const(v).constant() for v in values]
            if len(xs) != self.nvars or any(x is None for x in xs):
                raise ValueError("need %d rational constants, not %r" % (self.nvars, values))
            D = lcm(*(x.denominator for x, d in zip(xs, self._deg) if d))
            ns = [x.numerator * (D // x.denominator) if d else 0 for x, d in zip(xs, self._deg)]
            mults.append([prod(map(pow, ns, e)) * D ** (top - sum(e)) for e in exps])
            dens.append(self._L * D**top)
        big = max((max(map(abs, m), default=0) for m in mults), default=0)
        a = self.widen(_slot_width(len(exps) * self._mag * big, self._w))
        return [
            _unirat(sum(map(mul, a._coeffs.values(), m)), a._w, self._span, d, self._V, self.param)
            for m, d in zip(mults, dens)
        ]

    def specialize_param(self, x):
        """Evaluate every coefficient at the rational point x."""
        return MPoly({e: c.eval_at(x) for e, c in self.terms.items()}, self.nvars)

    # -- comparison ----------------------------------------------------------------

    def __eq__(self, other):
        """Same arity, compatible parameters and the same coefficients.

        Both sides are brought to one width, L and V, where every numerator
        is one int (signed slots that fit have one packing), and the
        key -> int maps are compared.
        """
        if not isinstance(other, MPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        if None not in (self.param, other.param) and self.param != other.param:
            return False
        a, b, w, _ = self._common(other, _eq_bound)
        if a._L == b._L and a._V == b._V:
            return a._coeffs == b._coeffs
        if len(a._coeffs) != len(b._coeffs):
            return False
        # key by key, so that neither side is copied at the common L and V
        L, V = lcm(a._L, b._L), max(a._V, b._V)
        ka, kb = L // a._L, L // b._L
        sa, sb = 8 * w * (V - a._V), 8 * w * (V - b._V)
        get = b._coeffs.get
        for e, c in a._coeffs.items():
            d = get(e)
            if d is None or (c * ka) << sa != (d * kb) << sb:
                return False
        return True

    def compare(self, other):
        """(self == other, the number of exponents with a coefficient on
        either side), on the packed forms: neither side is decoded."""
        a, b = self._coeffs, other._coeffs
        return self == other, len(a) + len(b.keys() - a.keys())
