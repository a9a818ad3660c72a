"""Truncated power series with exact coefficients.

A product of two series is a Cauchy product of plain ints on common
denominators (Knuth, TAOCP vol. 2, 4.5.1): for output coefficient k, each
operand's coefficients 0..k are numerators over L_k, the lcm of their
denominators, and the coefficient is one convolution of those numerators over
the product of the two L_k, reduced once, by one gcd.  A q-series'
denominators nearly nest, so L_k is about the size of the k-th denominator and
L_(k+1) / L_k is small: the numerators are rescaled by it, step by step, and
output k multiplies ints no larger than the coefficients it uses.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd

from .errors import DomainError
from .qkernel import EXACT_ONE, ExactScalar, _canonical, _gaussian, _gdiv, _gmul, _raw
from .series import _term_ratios

_ZERO = ExactScalar(0)


def _over_prefix_lcms(coeffs, real: bool):
    """Yield (parts, L) for k = 0, 1, ...: parts holds the real parts of
    coefficients 0..k, and their imaginary parts unless real, as numerators over
    L = lcm(d_0, ..., d_k); the lists grow in place, so each is read before the
    next is yielded."""
    parts, L = ([],) if real else ([], []), 1
    for c in coeffs:
        n, m, d = c.parts
        s = d // gcd(L, d)  # L s = lcm(L, d)
        if s != 1:
            parts, L = tuple([x * s for x in p] for p in parts), L * s
        r = L // d
        for p, v in zip(parts, (n, m)):
            p.append(v * r)
        yield parts, L


@dataclass(frozen=True)
class PowerSeriesTrunc:
    """Coefficients c0..cT in one expansion variable; ops drop degrees > T."""

    coeffs: tuple
    order: int

    @staticmethod
    def make(coeffs) -> "PowerSeriesTrunc":
        coeffs = tuple(coeffs)
        if not coeffs:
            raise DomainError("a truncated series needs at least the constant term")
        return PowerSeriesTrunc(coeffs, len(coeffs) - 1)

    def __add__(self, other: "PowerSeriesTrunc") -> "PowerSeriesTrunc":
        return PowerSeriesTrunc.make([x + y for x, y in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other) -> "PowerSeriesTrunc":
        """The truncated product with a series, on common denominators (see
        the module docstring): one int product per pair of coefficients when
        both series are real, three sums of products (Karatsuba's split of the
        Gaussian product) otherwise, and one gcd per output coefficient; or the
        product with a scalar, coefficient by coefficient."""
        if not isinstance(other, PowerSeriesTrunc):
            return PowerSeriesTrunc.make([c * other for c in self.coeffs])
        K = min(self.order, other.order)
        x, y = self.coeffs[: K + 1], other.coeffs[: K + 1]
        real = all(c.is_real() for c in x + y)
        out = []
        for (xs, Lx), (ys, Ly) in zip(_over_prefix_lcms(x, real), _over_prefix_lcms(y, real)):
            xr, yr = xs[0], ys[0][::-1]
            re, im = sum(map(operator.mul, xr, yr)), 0
            if not real:  # (a + bi)(c + di) = ac - bd + ((a + b)(c + d) - ac - bd)i
                xi, yi = xs[1], ys[1][::-1]
                bd = sum(map(operator.mul, xi, yi))
                mixed = sum(map(operator.mul, map(operator.add, xr, xi), map(operator.add, yr, yi)))
                re, im = re - bd, mixed - re - bd
            out.append(_canonical(re, im, Lx * Ly))
        return PowerSeriesTrunc(tuple(out), K)

    __rmul__ = __mul__

    def shift(self, amount: int) -> "PowerSeriesTrunc":
        """Multiply by the variable^amount (degree shift, same order)."""
        if amount < 0:
            raise DomainError("negative shifts are not defined for truncations")
        shifted = [_ZERO] * amount + list(self.coeffs)
        return PowerSeriesTrunc.make(shifted[: self.order + 1])

    def dilate_square(self, order: int) -> "PowerSeriesTrunc":
        """Substitute variable -> variable^2 (series in z^2 read as series in z)
        through z^order: the coefficients 0..order // 2 are used, so a series
        built to order // 2 suffices."""
        out = [_ZERO] * (order + 1)
        out[::2] = self.coeffs[: order // 2 + 1]
        return PowerSeriesTrunc.make(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeriesTrunc):
            return NotImplemented
        return all(x == y for x, y in zip(self.coeffs, other.coeffs))


def phi_series_coeffs(upper, lower, q, zfactor, order: int) -> PowerSeriesTrunc:
    """Coefficients of r-phi-s(upper; lower; q, zfactor * z) as a series in z.

    coefficient_n = prod (a_i;q)_n / ((q;q)_n prod (b_j;q)_n)
                    * ((-1)^n q^binom(n,2))^(1+s-r) * zfactor^n,

    the running products of the series' term ratios (``series._term_ratios``).
    When q, zfactor and every parameter are real, each ratio top/bot is one
    int over one int, brought to lowest terms by their gcd, and the product
    with the coefficient n/d is cross-cancelled by gcd(n, bot) and gcd(top, d),
    as ``Fraction`` multiplies: no gcd of the full products is formed.  Complex
    data run on Gaussian integers, each coefficient reduced once.  A lower
    parameter q^-k raises PoleError naming index k+1; after an upper factor
    vanishes every coefficient is 0.  A base with q^j = 1 for some
    1 <= j <= order, which zeroes (q;q)_j, raises DomainError; the roots of
    unity among Gaussian rationals are 1, -1 and +-i, so j <= 4 covers them,
    and the powers q^j are formed only when |q|^2 = 1 exactly.
    """
    qe = ExactScalar.coerce(q)
    qn, qm, qd = qe.parts
    for j in range(1, min(order, 4) + 1) if qn * qn + qm * qm == qd * qd else ():
        if qe**j == EXACT_ONE:
            raise DomainError(f"the base q = {qe} has q^{j} = 1, so the coefficient "
                              f"series is undefined from degree {j}")
    coeffs = [EXACT_ONE] + [_ZERO] * order
    ratios = _term_ratios(upper, lower, q, zfactor, order)
    if next(ratios):
        n, d = 1, 1  # the coefficient n/d, in lowest terms
        for k, (top, bot) in enumerate(ratios):
            g = gcd(top, bot)
            top, bot = (top // g, bot // g) if bot > 0 else (-top // g, -bot // g)
            g, h = gcd(n, bot), gcd(top, d)
            n, d = (n // g) * (top // h), (d // h) * (bot // g)
            coeffs[k + 1] = _raw(n, 0, d)
    else:
        for k, (top, bot) in enumerate(ratios):
            num, d = _gaussian(coeffs[k])
            coeffs[k + 1] = _gdiv(_gmul(num, top), (bot[0] * d, bot[1] * d))
    return PowerSeriesTrunc.make(coeffs)
