"""Truncated power series with exact (or uniform approximate) coefficients."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .qkernel import EXACT_ONE, ExactScalar, _gaussian, _gdiv, _gmul
from .series import _term_ratios


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
        if isinstance(other, PowerSeriesTrunc):
            x, y = self.coeffs, other.coeffs
            return PowerSeriesTrunc.make(
                sum((x[i] * y[k - i] for i in range(1, k + 1)), x[0] * y[k])
                for k in range(min(self.order, other.order) + 1)
            )
        return PowerSeriesTrunc.make([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def shift(self, amount: int) -> "PowerSeriesTrunc":
        """Multiply by the variable^amount (degree shift, same order)."""
        if amount < 0:
            raise DomainError("negative shifts are not defined for truncations")
        shifted = [ExactScalar(0)] * amount + list(self.coeffs)
        return PowerSeriesTrunc.make(shifted[: self.order + 1])

    def dilate_square(self) -> "PowerSeriesTrunc":
        """Substitute variable -> variable^2 (series in z^2 read as series in z)."""
        out = [ExactScalar(0)] * (self.order + 1)
        out[::2] = self.coeffs[: self.order // 2 + 1]
        return PowerSeriesTrunc.make(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeriesTrunc):
            return NotImplemented
        return all(x == y for x, y in zip(self.coeffs, other.coeffs))


def phi_series_coeffs(upper, lower, q, zfactor, order: int) -> PowerSeriesTrunc:
    """Coefficients of r-phi-s(upper; lower; q, zfactor * z) as a series in z.

    coefficient_n = prod (a_i;q)_n / ((q;q)_n prod (b_j;q)_n)
                    * ((-1)^n q^binom(n,2))^(1+s-r) * zfactor^n,

    the running products of the series' term ratios (``series._term_ratios``),
    each reduced once.  A lower parameter q^-k raises PoleError naming index
    k+1; after an upper factor vanishes every coefficient is 0.  A base with
    q^j = 1 for some 1 <= j <= order, which zeroes (q;q)_j, raises DomainError;
    the roots of unity among Gaussian rationals are 1, -1 and +-i, so j <= 4
    covers them.
    """
    qe = ExactScalar.coerce(q)
    for j in range(1, min(order, 4) + 1):
        if qe**j == EXACT_ONE:
            raise DomainError(f"the base q = {qe} has q^{j} = 1, so the coefficient "
                              f"series is undefined from degree {j}")
    coeffs = [EXACT_ONE] + [ExactScalar(0)] * order
    for k, (top, bot) in enumerate(_term_ratios(upper, lower, q, zfactor, order)):
        num, d = _gaussian(coeffs[k])
        coeffs[k + 1] = _gdiv(_gmul(num, top), (bot[0] * d, bot[1] * d))
    return PowerSeriesTrunc.make(coeffs[: order + 1])
