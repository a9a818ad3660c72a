"""Reference formulas that more than one test module checks the engine against.

Each is written from its display, independently of the engine's own code path
for the same value.
"""

import itertools
import math

from qident.qkernel import EXACT_ONE, ExactScalar, I, qpoch_finite, qpoch_list
from qident.series import BalanceClass, SeriesSpec

E = ExactScalar


def derive_balance(spec: SeriesSpec) -> BalanceClass:
    """The balance class of an r-phi-s read off its exact parameters:
    k-balanced when prod(lower) = q^k prod(upper), k < 64; else well-poised
    when q a1 = a2 b1 = ... = ar b_{r-1} under some pairing, very well-poised
    when two of the upper parameters are +-q sqrt(a1); else none."""
    if spec.r != spec.s + 1:
        return BalanceClass("none")
    q = E.coerce(spec.base.value)
    upper, lower = ([E.coerce(x) for x in xs] for xs in (spec.upper, spec.lower))
    up, low = (math.prod(xs, start=EXACT_ONE) for xs in (upper, lower))
    if not up.is_zero():
        ratio, probe = low / up, q
        for k in range(1, 64):
            if ratio == probe:
                return BalanceClass("balanced", k)
            probe = probe * q
    a1, rest = upper[0], upper[1:]
    for perm in itertools.permutations(range(len(lower))):
        if all(rest[i] * lower[perm[i]] == q * a1 for i in range(len(rest))):
            if any(x * x == q * q * a1 and -x in rest for x in rest):
                return BalanceClass("very_well_poised")
            return BalanceClass("well_poised")
    return BalanceClass("none")


def qhermite(w, q, n: int) -> ExactScalar:
    """The continuous q-Hermite value H_n(x | q), x = (w + 1/w)/2:
    sum_j (q;q)_n / ((q;q)_j (q;q)_(n-j)) w^(n-2j)."""
    w, q = E.coerce(w), E.coerce(q)
    qq = [qpoch_finite(q, q, j) for j in range(n + 1)]
    return sum((qq[n] / (qq[j] * qq[n - j]) * w ** (n - 2 * j) for j in range(n + 1)), E(0))


def newquad_product_form(a, b, q, n: int) -> ExactScalar:
    """NEWQUAD's single-product display, h = ceil(n/2):
    (-i)^n b^(2h - n) (q b^2, ab, -ab; q)_n (q, a^2; q^2)_h
    / ((q b^2; q^2)_h (a^2 b^2; q^2)_h)."""
    a, b, q = E.coerce(a), E.coerce(b), E.coerce(q)
    h = (n + 1) // 2
    return ((-I) ** n * b ** (2 * h - n) * qpoch_list([q * b * b, a * b, -a * b], q, n)
            * qpoch_list([q, a * a], q * q, h) / qpoch_list([q * b * b, a * a * b * b], q * q, h))
