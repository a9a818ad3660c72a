"""Scalar arithmetic and the q-Pochhammer symbol.

Two scalar types:

* :class:`ExactScalar` -- a Gaussian rational (n + m i)/d, held as three
  arbitrary-size ints in canonical form (d > 0, gcd(n, m, d) = 1).  Closed
  under +, -, *, / (by nonzero) and integer powers; equality is exact.
* :class:`ApproxScalar` -- a complex number in binary floating point at a
  recorded precision of P >= 64 bits (mpmath storage).  Binary operations
  round at the minimum of the operand precisions.

Exact code takes ExactScalars (ints and Fractions too) only: it coerces its
inputs once with :meth:`ExactScalar.coerce`, which raises TypeError on an
ApproxScalar.  Here that is the finite q-Pochhammer product and the
list/product convention.  Certified code, here the infinite product
``(a;q)_inf``, converts exact or mpmath-backed inputs once, to fixed point at
its working precision.  All values are immutable and every operation is a
pure function.

Under the products and series are two private arithmetics.  Exact code (the
finite products here, the terminating sums and coefficient series of
:mod:`qident.series` and :mod:`qident.powerseries`) is fraction-free, on
Gaussian integers (re, im) of Python ints (the sums and series also on one int
per value where every input is real: ``_GAUSS_EXACT``, ``_REAL_EXACT``):
``_gaussian`` splits an ExactScalar into one over a positive int and ``_gmul``
multiplies two; a result is reduced once, by ``_gdiv`` or
``ExactScalar.from_parts``.  Certified code
(the products and series here, in :mod:`qident.series` and
:mod:`qident.products`, and the contour node kernel of
:mod:`qident.integrals`) is fixed point: pairs (re, im) of Python ints scaled
by 2^wp, wp = precision_bits + _GUARD_BITS (the node kernel's wp is from eps).
``_fx`` converts an exact value in as (n << wp) // d, with no mpmath step, and
an mpmath value by its binary digits; ``_mul``, ``_div`` and ``_one_minus``
operate on pairs (the rounding lemma of ``_mul``); ``_qprod`` multiplies the K
factors of a q-Pochhammer product, and ``_approx`` converts a result out, once,
to an :class:`ApproxScalar`.  The certified series step by exact int ratios
instead, built by the exact layer's arithmetic from a fixed-point q^k
(``series._term_ratios``), and round once per term.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence, Union

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp, fzero, round_nearest, to_fixed

from .errors import DomainError, NoConvergence, check_eps

RationalLike = Union[int, Fraction]

# the working precision of every certified evaluator that is given none
DEFAULT_PRECISION_BITS = 256


def _num_den(x: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) of an int or a Fraction."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class ExactScalar:
    """The Gaussian rational (n + m i)/d with exact arithmetic.

    The three ints are kept in canonical form, d > 0 and gcd(n, m, d) = 1, so
    equal values have equal fields.  Operations work on the ints and build no
    Fraction: a result is reduced by one gcd, or, for a sum or a real product,
    by gcds of the smaller operands first, as ``Fraction`` does.  ``re`` and
    ``im`` are read-only Fractions.
    """

    __slots__ = ("_n", "_m", "_d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        a, b = _num_den(re)
        c, e = _num_den(im)
        # two parts in lowest terms over their least common denominator are canonical
        d = b // gcd(b, e) * e
        self._n, self._m, self._d = a * (d // b), c * (d // e), d

    # -- constructors -------------------------------------------------
    @staticmethod
    def coerce(x: "ExactScalar | RationalLike") -> "ExactScalar":
        y = _coerce_exact(x)
        if y is NotImplemented:
            raise TypeError(f"cannot interpret {x!r} as an exact rational")
        return y

    @staticmethod
    def from_parts(n: int, m: int, d: int) -> "ExactScalar":
        """(n + m i)/d for ints with d > 0, in canonical form."""
        if not d > 0:
            raise ValueError(f"denominator must be positive, got {d}")
        return _canonical(n, m, d)

    # -- parts ----------------------------------------------------------
    @property
    def parts(self) -> tuple[int, int, int]:
        """(n, m, d) of the canonical form (n + m i)/d."""
        return self._n, self._m, self._d

    @property
    def re(self) -> Fraction:
        return Fraction(self._n, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._m, self._d)

    # -- predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return not (self._n or self._m)

    def is_real(self) -> bool:
        return not self._m

    def abs2(self) -> Fraction:
        """|self|^2, exact."""
        return Fraction(self._n * self._n + self._m * self._m, self._d * self._d)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if type(other) is not ExactScalar:
            other = _coerce_exact(other)
            if other is NotImplemented:
                return NotImplemented
        return _sum(self._n, self._m, self._d, other._n, other._m, other._d)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not ExactScalar:
            other = _coerce_exact(other)
            if other is NotImplemented:
                return NotImplemented
        return _sum(self._n, self._m, self._d, -other._n, -other._m, other._d)

    def __rsub__(self, other):
        other = _coerce_exact(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(other._n, other._m, other._d, -self._n, -self._m, self._d)

    def __mul__(self, other):
        if type(other) is not ExactScalar:
            other = _coerce_exact(other)
            if other is NotImplemented:
                return NotImplemented
        n1, m1, d1, n2, m2, d2 = self._n, self._m, self._d, other._n, other._m, other._d
        if m1 or m2:
            return _canonical(n1 * n2 - m1 * m2, n1 * m2 + m1 * n2, d1 * d2)
        # real: cancel each numerator against the other denominator first (as
        # Fraction does); n1 n2 / (d1 d2) is then canonical
        g = gcd(n1, d2)
        if g != 1:
            n1, d2 = n1 // g, d2 // g
        g = gcd(n2, d1)
        if g != 1:
            n2, d1 = n2 // g, d1 // g
        return _raw(n1 * n2, 0, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not ExactScalar:
            other = _coerce_exact(other)
            if other is NotImplemented:
                return NotImplemented
        # ((n1 + m1 i)/d1) / ((n2 + m2 i)/d2) = (n1 + m1 i)(n2 - m2 i) d2 / (d1 (n2^2 + m2^2))
        n1, m1, n2, m2, d2 = self._n, self._m, other._n, other._m, other._d
        if not m2:
            if not n2:
                raise ZeroDivisionError("division by exact zero")
            if n2 < 0:
                n2, d2 = -n2, -d2
            return _canonical(n1 * d2, m1 * d2, self._d * n2)
        return _canonical(
            (n1 * n2 + m1 * m2) * d2, (m1 * n2 - n1 * m2) * d2, self._d * (n2 * n2 + m2 * m2)
        )

    def __rtruediv__(self, other):
        other = _coerce_exact(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _raw(-self._n, -self._m, self._d)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exact powers must have integer exponents")
        if k < 0:
            return EXACT_ONE / self ** (-k)
        if not self._m:  # n^k and d^k stay coprime
            return _raw(self._n**k, 0, self._d**k)
        result = EXACT_ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparisons / hashing ----------------------------------------
    def __eq__(self, other):
        if type(other) is not ExactScalar:
            other = _coerce_exact(other)
            if other is NotImplemented:
                return NotImplemented
        return (self._n, self._m, self._d) == (other._n, other._m, other._d)

    def __hash__(self):
        # a real value hashes as its Fraction, as equal ApproxScalar values do
        return hash(self.re) if not self._m else hash((self.re, self.im))

    # -- conversions ----------------------------------------------------
    def to_approx(self, precision_bits: int) -> "ApproxScalar":
        re, im = self.re, self.im
        with mp.workprec(precision_bits):
            v = mpmath.mpc(
                mpmath.mpf(re.numerator) / re.denominator,
                mpmath.mpf(im.numerator) / im.denominator,
            )
        return ApproxScalar(v, precision_bits)

    def __float__(self) -> float:
        if self._m:
            raise ValueError("non-real exact scalar")
        return self._n / self._d

    def __complex__(self) -> complex:
        return complex(self._n / self._d, self._m / self._d)

    def abs_upper(self) -> float:
        """A float upper bound on |self|."""
        return _abs_upper(self._n, self._m, self._d)

    # -- printing -------------------------------------------------------
    def __repr__(self):
        return f"ExactScalar({format_exact(self)!r})"

    def __str__(self):
        return format_exact(self)


_new = object.__new__


def _raw(n: int, m: int, d: int) -> ExactScalar:
    """The ExactScalar (n + m i)/d of fields already in canonical form."""
    x = _new(ExactScalar)
    x._n = n
    x._m = m
    x._d = d
    return x


def _canonical(n: int, m: int, d: int) -> ExactScalar:
    """The ExactScalar (n + m i)/d, d > 0, brought to canonical form by one gcd."""
    g = gcd(d, n, m)  # d first: gcd stops at a unit, as when d = 1
    if g != 1:
        n, m, d = n // g, m // g, d // g
    return _raw(n, m, d)


def _sum(n1: int, m1: int, d1: int, n2: int, m2: int, d2: int) -> ExactScalar:
    """(n1 + m1 i)/d1 + (n2 + m2 i)/d2 in canonical form (Knuth, TAOCP 4.5.1):
    over lcm(d1, d2) the only common factor left can divide g = gcd(d1, d2),
    so no gcd of the full numerators and denominator is needed."""
    g = gcd(d1, d2)
    if g == 1:
        return _raw(n1 * d2 + n2 * d1, m1 * d2 + m2 * d1, d1 * d2)
    s1, s2 = d1 // g, d2 // g
    n, m = n1 * s2 + n2 * s1, m1 * s2 + m2 * s1
    g = gcd(g, n, m)
    if g != 1:
        n, m, d2 = n // g, m // g, d2 // g
    return _raw(n, m, s1 * d2)


def _abs_upper(n: int, m: int, d: int) -> float:
    """A float upper bound on |(n + m i)/d|, d > 0, the same for every form of
    the value: |.|^2 is one correctly rounded int division."""
    return math.sqrt((n * n + m * m) / (d * d)) * (1 + 1e-14) + 1e-300


def _coerce_exact(x) -> "ExactScalar":
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, int):
        return _raw(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _raw(x.numerator, 0, x.denominator)
    return NotImplemented


I = ExactScalar(0, 1)
EXACT_ONE = ExactScalar(1)


def format_exact(x: ExactScalar) -> str:
    """Render as a rational literal: "p/q", "r/s*i" or "p/q+r/s*i", each part
    n/d reduced by one gcd of the canonical ints."""
    n, m, d = x.parts

    def frac(k: int) -> str:
        g = gcd(k, d)
        return str(k // g) if g == d else f"{k // g}/{d // g}"

    if not m:
        return frac(n)
    imag = f"{frac(abs(m))}*i"
    if not n:
        return imag if m > 0 else f"-{imag}"
    return f"{frac(n)}{'+' if m > 0 else '-'}{imag}"


def parse_exact(text: str) -> ExactScalar:
    """Parse a rational literal: "p/q", "p/q+r/s*i", "-r/s*i", "i"."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar literal")

    # split into real and imaginary chunks at a +/- that is not leading and
    # not an exponent's sign
    chunks = []
    start = 0
    for j in range(1, len(s)):
        if s[j] in "+-" and s[j - 1] not in "+-/*eE":
            chunks.append(s[start:j])
            start = j
    chunks.append(s[start:])
    re = Fraction(0)
    im = Fraction(0)
    for chunk in chunks:
        if chunk in ("i", "+i"):
            im += 1
        elif chunk == "-i":
            im -= 1
        elif chunk.endswith("*i"):
            im += Fraction(chunk[:-2])
        elif chunk.endswith("i"):
            im += Fraction(chunk[:-1])
        else:
            re += Fraction(chunk)
    return ExactScalar(re, im)


class ApproxScalar:
    """Complex floating-point value carrying its precision in bits."""

    __slots__ = ("value", "precision_bits")

    MIN_BITS = 64

    def __init__(self, value, precision_bits: int):
        if precision_bits < self.MIN_BITS:
            raise DomainError(f"precision must be >= {self.MIN_BITS} bits")
        with mp.workprec(precision_bits):
            object.__setattr__(self, "value", mpmath.mpc(value))
        object.__setattr__(self, "precision_bits", int(precision_bits))

    def __setattr__(self, *a):
        raise AttributeError("ApproxScalar is immutable")

    @staticmethod
    def coerce(x, precision_bits: int) -> "ApproxScalar":
        if isinstance(x, ApproxScalar):
            return x
        if isinstance(x, ExactScalar):
            return x.to_approx(precision_bits)
        if isinstance(x, (int, Fraction)):
            return ExactScalar(x).to_approx(precision_bits)
        return ApproxScalar(x, precision_bits)

    def is_zero(self) -> bool:
        return self.value == 0

    def _binop(self, other, op):
        if isinstance(other, ExactScalar):
            other = other.to_approx(self.precision_bits)
        elif isinstance(other, (int, Fraction)):
            other = ExactScalar(other).to_approx(self.precision_bits)
        elif not isinstance(other, ApproxScalar):
            return NotImplemented
        bits = min(self.precision_bits, other.precision_bits)
        with mp.workprec(bits):
            return ApproxScalar(op(self.value, other.value), bits)

    def __add__(self, other):
        return self._binop(other, lambda x, y: x + y)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda x, y: x - y)

    def __rsub__(self, other):
        return self._binop(other, lambda x, y: y - x)

    def __mul__(self, other):
        return self._binop(other, lambda x, y: x * y)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, lambda x, y: x / y)

    def __rtruediv__(self, other):
        return self._binop(other, lambda x, y: y / x)

    def __neg__(self):
        return ApproxScalar(-self.value, self.precision_bits)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("powers must have integer exponents")
        with mp.workprec(self.precision_bits):
            return ApproxScalar(self.value ** n, self.precision_bits)

    def __abs__(self):
        with mp.workprec(self.precision_bits):
            return abs(self.value)

    def __eq__(self, other):
        if isinstance(other, ApproxScalar):
            return self.value == other.value
        if isinstance(other, (int, Fraction)):
            other = ExactScalar(other)
        if not isinstance(other, ExactScalar):
            return NotImplemented

        def part_eq(x, f: Fraction) -> bool:
            # a mantissa of precision_bits times the denominator is exact at this precision
            with mp.workprec(self.precision_bits + f.denominator.bit_length()):
                return x * f.denominator == f.numerator

        return part_eq(self.value.real, other.re) and part_eq(self.value.imag, other.im)

    def __hash__(self):
        # as ExactScalar.__hash__, so that equal values hash alike across the types
        re, im = self.value.real, self.value.imag
        return hash(re) if im == 0 else hash((re, im))

    def __repr__(self):
        return f"ApproxScalar({mpmath.nstr(self.value, 20)}, bits={self.precision_bits})"

    def __str__(self):
        digits = max(6, int(self.precision_bits * 0.3010299956639812) - 2)
        return mpmath.nstr(self.value, digits)


Scalar = Union[ExactScalar, ApproxScalar]


@dataclass(frozen=True)
class QBase:
    """A base q with |q| < 1 strictly, carrying a float bound on |q|."""

    value: Scalar
    modulus_bound: float

    @staticmethod
    def of(q) -> "QBase":
        if isinstance(q, QBase):
            return q
        if isinstance(q, (int, Fraction)):
            q = ExactScalar(q)
        if isinstance(q, ExactScalar):
            n, m, d = q.parts
            if n * n + m * m >= d * d:  # |q|^2 >= 1, decided exactly
                raise DomainError(f"|q| must be < 1, got |q|^2 = {q.abs2()}")
            bound = q.abs_upper()
            if bound >= 1:
                raise DomainError(
                    f"|q|^2 = {q.abs2()} is below 1 by less than the float margin: the float "
                    "majorants of the series read |q| >= 1, so a certified tail could come out "
                    "negative")
        elif isinstance(q, ApproxScalar):
            bound = float(abs(q)) * (1 + 1e-14)
            if bound >= 1:
                raise DomainError(f"|q| must be < 1, got |q| ~ {bound}")
        else:
            raise TypeError(f"not a scalar: {q!r}")
        if q.is_zero():
            raise DomainError("q must be nonzero")
        return QBase(q, bound)


@dataclass(frozen=True)
class TruncationCert:
    """Truncation evidence: terms used, tail bound, and the target it met."""

    terms_used: int
    tail_bound: float
    target_eps: float

    @property
    def ok(self) -> bool:
        return self.tail_bound <= self.target_eps


# Gaussian integers (see the module docstring)
def _gaussian(x: ExactScalar) -> tuple:
    """x = (n + m i)/d as ((n, m), d)."""
    return (x._n, x._m), x._d


def _gmul(x: tuple, y: tuple) -> tuple:
    """The product of two Gaussian integers (re, im)."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


# the fraction-free arithmetic of an exact product or series, chosen once for
# its inputs: (numerator of an ExactScalar's parts (n, m, d), x * y, x * int,
# int - x, x + y, zero, one) on Gaussian integers (re, im), or on one int per
# value when every input is real
_GAUSS_EXACT = (operator.itemgetter(0, 1), _gmul, lambda x, s: (x[0] * s, x[1] * s),
                lambda s, x: (s - x[0], -x[1]), lambda x, y: (x[0] + y[0], x[1] + y[1]),
                (0, 0), (1, 0))
_REAL_EXACT = (operator.itemgetter(0), operator.mul, operator.mul, operator.sub, operator.add,
               0, 1)


def _gdiv(num: tuple, den: tuple) -> ExactScalar:
    """The quotient of two Gaussian integers, reduced once."""
    re, im = den
    if im:  # num conj(den) / |den|^2
        num, re = _gmul(num, (re, -im)), re * re + im * im
    elif re < 0:
        num, re = (-num[0], -num[1]), -re
    elif not re:
        raise ZeroDivisionError("division by exact zero")
    return ExactScalar.from_parts(num[0], num[1], re)


def qpoch_finite(a, q, n: int) -> ExactScalar:
    """(a;q)_n = prod_{k=0}^{n-1} (1 - a q^k), exactly; the empty product is 1."""
    return qpoch_list([a], q, n)


def qpoch_list(args: Sequence, q, n: int) -> ExactScalar:
    """(a_1,...,a_k;q)_n, the product convention over a nonempty list, exactly:
    one Gaussian integer over one int, reduced once.
    """
    if not args:
        raise DomainError("qpoch_list requires a nonempty parameter list")
    if n < 0:
        raise DomainError("negative q-Pochhammer index is not supported")
    args = [_gaussian(ExactScalar.coerce(a)) for a in args]
    q_num, q_den = _gaussian(ExactScalar.coerce(q))
    Q, D = (1, 0), 1  # q^k = Q / D
    p, p_den = (1, 0), 1
    for _ in range(n):
        for a_num, a_den in args:
            t, f_den = _gmul(a_num, Q), a_den * D  # 1 - a q^k = (f_den - t) / f_den
            p, p_den = _gmul(p, (f_den - t[0], -t[1])), p_den * f_den
        Q, D = _gmul(Q, q_num), D * q_den
    return ExactScalar.from_parts(p[0], p[1], p_den)


def _log_abs2(x: ExactScalar) -> float:
    """log |x|^2 for a nonzero x, to a few ulps also when |x| is near 1."""
    a, b = x._n * x._n + x._m * x._m, x._d * x._d
    return math.log1p((a - b) / b) if abs(a - b) < b else math.log(a) - math.log(b)


def _qpow_index(x: ExactScalar, q: ExactScalar, kmax: int | None = None) -> int | None:
    """Least k >= 0 (and <= kmax, when given) with x q^k = 1, else None, for
    0 < |q| < 1.  |x q^k| falls strictly with k, so only the k with |x| |q|^k =
    1 can qualify: it is read off the logs of the moduli, whose float error is
    far below the 10^-12 relative slack and the half step of the rounding, and
    tested exactly, so no power of q is formed unless the moduli match."""
    if x._n * x._n + x._m * x._m < x._d * x._d:  # |x| < 1
        return None
    lx, lq = _log_abs2(x), _log_abs2(q)
    k = round(lx / -lq)
    if abs(lx + k * lq) > 1e-12 * max(1.0, lx) or (kmax is not None and k > kmax):
        return None
    return k if x * q**k == EXACT_ONE else None


def _factor_count(abs_a: float, abs_q: float, tail: float) -> tuple[int, float]:
    """(K, tail_log): the least K with |a| |q|^K < 1/2 whose log-majorant tail
    tail_log = |a| |q|^K / ((1 - |q|) (1 - |a| |q|^K)) is at most `tail`.

    Both hold from some K on, as head = |a| |q|^K falls with K, and they hold
    when head <= min(1/2, c / (1 + c)), c = tail (1 - |q|): K is read off the
    logs of that, then confirmed a step either way on the same float tests."""
    def tail_log(K):  # inf while |a| |q|^K >= 1/2
        head = abs_a * abs_q**K
        return head / ((1.0 - abs_q) * (1.0 - head)) if head < 0.5 else math.inf

    c = tail * (1.0 - abs_q)
    h, K = min(0.5, c / (1.0 + c)), 0
    if abs_a > h > 0 and abs_q > 0:
        K = max(0, math.ceil((math.log(h) - math.log(abs_a)) / math.log(abs_q)))
    while K and tail_log(K - 1) <= tail:
        K -= 1
    while not (t := tail_log(K)) <= tail:
        K += 1
    return K, t


def _log_poch_majorant(x: float, Q: float, den: bool) -> float:
    """An upper bound on log (-x; Q)_inf, or with den on -log (x; Q)_inf (x < 1):
    so on log |(y; q)_K|, or on -log |(y; q)_K|, for every K, |y| = x, |q| = Q.
    Past the first K factors, the log-majorant of :func:`_factor_count` bounds both."""
    K, rest = _factor_count(x, Q, 2.0**-20)
    return rest + sum(-math.log1p(-x * Q**k) if den else math.log1p(x * Q**k) for k in range(K))


# fixed point (see the module docstring).  The guard bits are a fixed margin
# for rounding, which the proven truncation bounds of the series
# (series._phi_terms, whose rounding lemma counts the ulps) do not count.
_GUARD_BITS = 30


def _fx(x, wp: int) -> tuple:
    """x as a fixed-point pair: an exact x (an ExactScalar, int or Fraction)
    as ((n << wp) // d, (m << wp) // d), each part the exact one rounded down
    by less than 2^-wp; an ApproxScalar, mpf, mpc or float rounded down the
    same way from its binary value; a triple (n, m, d) as the exact (n + m
    i)/d, d > 0, in any form, to the same pair.  No exact input goes through
    mpmath."""
    if isinstance(x, (ExactScalar, int, Fraction)):
        x = ExactScalar.coerce(x).parts
    if isinstance(x, tuple):
        return (x[0] << wp) // x[2], (x[1] << wp) // x[2]
    x = x.value if isinstance(x, ApproxScalar) else mpmath.mpmathify(x)
    re, im = x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_, fzero)
    return to_fixed(re, wp), to_fixed(im, wp)


def _mul(a, b, wp: int) -> tuple:
    """a b for fixed-point pairs (ints scaled by 2^wp).  The rounding lemma:
    each part of the result is that part of the exact product truncated
    toward zero onto the grid 2^-wp, so it is off by less than 2^-wp and never
    larger in modulus; a product of moduli bounds every computed product."""
    re = a[0] * b[0] - a[1] * b[1]
    im = a[0] * b[1] + a[1] * b[0]
    return (re >> wp if re >= 0 else -(-re >> wp)), (im >> wp if im >= 0 else -(-im >> wp))


def _div(a, b, wp: int) -> tuple:
    """a / b for fixed-point pairs, b != 0: a conj(b) / |b|^2 is formed exactly
    on ints, so each part is that of the exact quotient truncated toward zero
    onto the grid 2^-wp, as in :func:`_mul`'s lemma."""
    br, bi = b
    if bi:  # a conj(b) / |b|^2
        a, br = (a[0] * br + a[1] * bi, a[1] * br - a[0] * bi), br * br + bi * bi
    elif br < 0:
        a, br = (-a[0], -a[1]), -br
    re, im = a
    return (
        (re << wp) // br if re >= 0 else -((-re << wp) // br),
        (im << wp) // br if im >= 0 else -((-im << wp) // br),
    )


def _one_minus(x, wp: int) -> tuple:
    """1 - x for a fixed-point pair, exactly."""
    return (1 << wp) - x[0], -x[1]


def _fabs(x, wp: int) -> float:
    """|x| as a float, taken 2^-40 above the computed value: an upper bound that
    covers the rounding of a few float operations on it.  A real x's modulus is
    one correctly rounded int division.  NoConvergence when |x| passes the float
    range."""
    re, im = x
    try:
        if not im:
            return abs(re) / (1 << wp) * (1 + 2.0**-40)
        s = max(0, max(abs(re), abs(im)).bit_length() - 1000)  # float range
        return math.ldexp(math.hypot(re >> s, im >> s), s - wp) * (1 + 2.0**-40)
    except OverflowError:
        top = max(abs(re), abs(im)).bit_length()
        raise NoConvergence(
            f"a magnitude of about 2^{top - wp} passes the float range (2^1024)"
        ) from None


def _abs_at_least_one(x) -> bool:
    """|x| >= 1, decided exactly for an exact x (an ExactScalar, int or Fraction)."""
    if isinstance(x, (ExactScalar, int, Fraction)):
        return ExactScalar.coerce(x).abs2() >= 1
    return abs(x) >= 1


def _approx(x, wp: int, precision_bits: int) -> "ApproxScalar":
    """A fixed-point pair as an ApproxScalar, each part rounded once to nearest
    at precision_bits, as mpmath.ldexp rounds it at that working precision."""
    value = mp.make_mpc(tuple(from_man_exp(v, -wp, precision_bits, round_nearest) for v in x))
    out = object.__new__(ApproxScalar)
    object.__setattr__(out, "value", value)
    object.__setattr__(out, "precision_bits", int(precision_bits))
    return out


def _qprod(x, q, K: int, wp: int) -> tuple:
    """prod_{k<K} (1 - x q^k), x and q fixed-point.  With x and q real it runs
    on one int per value, to the values of the pair loop."""
    xr, xi = x
    qr, qi = q
    pr, pi = 1 << wp, 0
    if qi or xi:
        for _ in range(K):
            pr, pi = pr - ((pr * xr - pi * xi) >> wp), pi - ((pr * xi + pi * xr) >> wp)
            xr, xi = (xr * qr - xi * qi) >> wp, (xr * qi + xi * qr) >> wp
    else:
        for _ in range(K):
            pr, xr = pr - (pr * xr >> wp), xr * qr >> wp
    return pr, pi


def qpoch_infinite(
    a,
    q,
    eps: float,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> tuple[ApproxScalar, TruncationCert]:
    """(a;q)_inf with a certificate: |V - (a;q)_inf| <= eps * max(1, |V|).

    a and q are exact or ApproxScalars, converted once by :func:`_fx` (an
    exact one with no mpmath step) to fixed point at precision_bits +
    _GUARD_BITS; the value is rounded once to precision_bits (by default
    DEFAULT_PRECISION_BITS).

    The tail past the first K factors is controlled through
    |log prod_{k>=K} (1 - a q^k)| <= sum_{k>=K} |a||q|^k / (1 - |a||q|^K),
    applied once |a||q|^K < 1/2.  Exact inputs get an exact vanishing-factor
    prescan: when some 1 - a q^k = 0 the product is exact zero, returned with
    a trivial certificate.  The K factors are multiplied in fixed point
    (:func:`_qpoch_fixed`).
    """
    check_eps(eps)
    wp = precision_bits + _GUARD_BITS
    p, K, tail_log = _qpoch_fixed(a, QBase.of(q), eps, wp)
    abs_p = _fabs(p, wp)
    tail_bound = abs_p * (math.expm1(tail_log) if tail_log < 1 else 2 * tail_log)
    return _approx(p, wp, precision_bits), TruncationCert(K, tail_bound, eps * max(1.0, abs_p))


def _qpoch_fixed(a, qb: QBase, eps: float, wp: int) -> tuple[tuple, int, float]:
    """(p, K, tail_log): the first K factors of (a; q)_inf as a fixed-point
    pair at wp (:func:`_qprod`), K and tail_log from :func:`_factor_count` at
    eps / 4; p = (0, 0) and K = 0 when the exact prescan finds a q^k = 1."""
    qv = qb.value
    if isinstance(a, (int, Fraction)):
        a = ExactScalar(a)
    if (isinstance(a, ExactScalar) and isinstance(qv, ExactScalar)
            and _qpow_index(a, qv) is not None):
        return (0, 0), 0, 0.0
    a = _fx(a, wp)
    K, tail_log = _factor_count(_fabs(a, wp), qb.modulus_bound, eps / 4)
    return _qprod(a, _fx(qv, wp), K, wp), K, tail_log


def _product_quotient(num_args, den_args, precision_bits, eps):
    """prod (x; base)_inf over num_args / prod over den_args, each factor
    certified to eps (:func:`_qpoch_fixed`): 0 when a numerator factor
    vanishes, and ZeroDivisionError when a denominator factor does.

    Each running product is a fixed-point pair at wp with a binary exponent e
    (its value is the pair's times 2^e), renormalised after every factor to
    wp + 1 significant bits (truncated toward zero, as in :func:`_mul`), so
    that a quotient far below 2^-wp, such as a contour prefactor at a large
    theta parameter, keeps its relative precision instead of rounding to 0;
    the quotient is rounded once."""
    check_eps(eps)
    wp = precision_bits + _GUARD_BITS
    parts = []
    for den, args in enumerate((num_args, den_args)):
        prod, e = (1 << wp, 0), 0
        for x, base in args:
            p, _, _ = _qpoch_fixed(x, QBase.of(base), eps, wp)
            if p == (0, 0):
                if den:
                    raise ZeroDivisionError("infinite-product denominator vanishes")
                return ApproxScalar(0, precision_bits)
            prod = _mul(prod, p, wp)
            s = max(map(abs, prod)).bit_length() - wp - 1
            if s > 0:
                prod = tuple(v >> s if v >= 0 else -(-v >> s) for v in prod)
            else:
                prod = (prod[0] << -s, prod[1] << -s)
            e += s
        parts.append((prod, e))
    (num, e_num), (den, e_den) = parts
    return _approx(_div(num, den, wp), wp - e_num + e_den, precision_bits)
