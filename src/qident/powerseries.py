"""Truncated power series with exact (or uniform approximate) coefficients."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .qkernel import EXACT_ONE, ExactScalar


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
        T = min(self.order, other.order)
        return PowerSeriesTrunc.make(
            [self.coeffs[i] + other.coeffs[i] for i in range(T + 1)]
        )

    def __sub__(self, other: "PowerSeriesTrunc") -> "PowerSeriesTrunc":
        T = min(self.order, other.order)
        return PowerSeriesTrunc.make(
            [self.coeffs[i] - other.coeffs[i] for i in range(T + 1)]
        )

    def __mul__(self, other) -> "PowerSeriesTrunc":
        if isinstance(other, PowerSeriesTrunc):
            T = min(self.order, other.order)
            out = []
            for k in range(T + 1):
                acc = None
                for i in range(k + 1):
                    term = self.coeffs[i] * other.coeffs[k - i]
                    acc = term if acc is None else acc + term
                out.append(acc)
            return PowerSeriesTrunc.make(out)
        return PowerSeriesTrunc.make([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def shift(self, amount: int) -> "PowerSeriesTrunc":
        """Multiply by the variable^amount (degree shift, same order)."""
        if amount < 0:
            raise DomainError("negative shifts are not defined for truncations")
        zeros = [ExactScalar(0)] * amount
        kept = list(self.coeffs[: max(0, self.order + 1 - amount)])
        return PowerSeriesTrunc.make(zeros + kept)

    def dilate_square(self) -> "PowerSeriesTrunc":
        """Substitute variable -> variable^2 (series in z^2 read as series in z)."""
        out = [ExactScalar(0)] * (self.order + 1)
        for i, c in enumerate(self.coeffs):
            if 2 * i > self.order:
                break
            out[2 * i] = c
        return PowerSeriesTrunc.make(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeriesTrunc):
            return NotImplemented
        T = min(self.order, other.order)
        return all(self.coeffs[i] == other.coeffs[i] for i in range(T + 1))


def phi_series_coeffs(upper, lower, q, zfactor, order: int) -> PowerSeriesTrunc:
    """Coefficients of r-phi-s(upper; lower; q, zfactor * z) as a series in z.

    coefficient_n = prod (a_i;q)_n / ((q;q)_n prod (b_j;q)_n)
                    * ((-1)^n q^binom(n,2))^(1+s-r) * zfactor^n.
    """
    e = 1 + len(lower) - len(upper)
    coeffs = []
    term = EXACT_ONE
    qn = EXACT_ONE  # q^n
    for n in range(order + 1):
        coeffs.append(term)
        num = EXACT_ONE
        for a in upper:
            num = num * (1 - a * qn)
        den = 1 - qn * q
        for b in lower:
            den = den * (1 - b * qn)
        term = term * num / den * zfactor
        if e:
            term = term * ((-qn) ** e)
        qn = qn * q
    return PowerSeriesTrunc.make(coeffs)
