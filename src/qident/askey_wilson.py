"""Askey-Wilson polynomial evaluation and quadratic special values.

The polynomial p_n(x; a,b,c,d | q), x = (w + 1/w)/2, is evaluated through
three terminating balanced 4phi3 representations (R1, R2, R3) and the
convolution form (CONV), which also covers zero parameters (continuous
q-Hermite at a=b=c=d=0).  Every evaluation is exact: x is always carried as w
so that it stays inside Gaussian rationals; special points like x = 0 enter
through w = i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .errors import DomainError, PoleError, check_names
from .qkernel import (
    ExactScalar,
    I,
    QBase,
    _gaussian,
    _gdiv,
    _gmul,
    _qpow_index,
    qpoch_list,
)
from .series import SeriesSpec, eval_phi_terminating

Representation = Literal["R1", "R2", "R3", "CONV"]


@dataclass(frozen=True)
class AWParams:
    """The exact parameters of p_n(x; a,b,c,d | q) at x = (w + 1/w)/2."""

    a: ExactScalar
    b: ExactScalar
    c: ExactScalar
    d: ExactScalar
    q: QBase
    w: ExactScalar
    n: int

    @staticmethod
    def make(a, b, c, d, q, w, n: int) -> "AWParams":
        if n < 0:
            raise DomainError(f"polynomial degree must be nonnegative, got n = {n}")
        qb = QBase.of(q)
        a, b, c, d, w, _ = (ExactScalar.coerce(x) for x in (a, b, c, d, w, qb.value))
        if w.is_zero():
            raise DomainError("w must be nonzero")
        return AWParams(a, b, c, d, qb, w, n)


def _check_no_pole(x: ExactScalar, q: ExactScalar, length: int, label: str):
    """Reject x in Omega_q^length = {q^-k : 0 <= k < length}."""
    k = _qpow_index(x, q, length - 1)
    if k is not None:
        raise PoleError(f"{label} = q^-{k} lies in the pole set", index=k)


def eval_aw(params: AWParams, rep: Representation = "R1") -> ExactScalar:
    """p_n(x; a,b,c,d | q) via the requested representation.

    All four representations agree exactly; R1..R3 reject zero parameters
    (only CONV supports them).
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    q = params.q.value
    w = params.w
    n = params.n

    if rep == "CONV":
        _check_no_pole(a * b, q, n, "ab")
        _check_no_pole(c * d, q, n, "cd")
        return _aw_convolution(a, b, c, d, q, w, n)

    for name, v in (("a", a), ("b", b), ("c", c), ("d", d)):
        if v.is_zero():
            raise DomainError(f"representation {rep} requires nonzero {name}")

    abcd = a * b * c * d
    if rep == "R1":
        for label, x in (("ab", a * b), ("ac", a * c), ("ad", a * d)):
            _check_no_pole(x, q, n, label)
        spec = SeriesSpec.make(
            [q ** (-n), q ** (n - 1) * abcd, a * w, a / w],
            [a * b, a * c, a * d],
            params.q,
            q,
            terminates_at=n,
        )
        return a ** (-n) * qpoch_list([a * b, a * c, a * d], q, n) * eval_phi_terminating(spec)

    if rep == "R2":
        for label, x in (
            ("q^(2-2n)/abcd", q ** (2 - 2 * n) / abcd),
            ("q^(1-n)w/a", q ** (1 - n) * w / a),
            ("q^(1-n)/(aw)", q ** (1 - n) / (a * w)),
        ):
            _check_no_pole(x, q, n, label)
        # (abcd/q; q)_2n / (abcd/q; q)_n = (abcd q^(n-1); q)_n
        pref = (
            q ** (-(n * (n - 1) // 2))
            * ((-a) ** (-n))
            * qpoch_list([abcd * q ** (n - 1), a * w, a / w], q, n)
        )
        spec = SeriesSpec.make(
            [q ** (-n), q ** (1 - n) / (a * b), q ** (1 - n) / (a * c), q ** (1 - n) / (a * d)],
            [q ** (2 - 2 * n) / abcd, q ** (1 - n) * w / a, q ** (1 - n) / (a * w)],
            params.q,
            q,
            terminates_at=n,
        )
        return pref * eval_phi_terminating(spec)

    if rep == "R3":
        for label, x in (
            ("ab", a * b),
            ("q^(1-n)w/c", q ** (1 - n) * w / c),
            ("q^(1-n)w/d", q ** (1 - n) * w / d),
        ):
            _check_no_pole(x, q, n, label)
        spec = SeriesSpec.make(
            [q ** (-n), a * w, b * w, q ** (1 - n) / (c * d)],
            [a * b, q ** (1 - n) * w / c, q ** (1 - n) * w / d],
            params.q,
            q,
            terminates_at=n,
        )
        return (w**n) * qpoch_list([a * b, c / w, d / w], q, n) * eval_phi_terminating(spec)

    raise DomainError(f"unknown representation {rep!r}")


def _aw_convolution(a, b, c, d, q, w, n: int) -> ExactScalar:
    """(q,ab,cd;q)_n sum_j [(aw,bw;q)_j/((q,ab;q)_j)]
    [(c/w,d/w;q)_{n-j}/((q,cd;q)_{n-j})] w^{n-2j}, in one pass.

    With the suffix products S_x[j] = prod_{k=j}^{n-1} (1 - x q^k) and
    S_q[j] = prod_{k=j}^{n-1} (1 - q^(k+1)), (ab;q)_n / (ab;q)_j = S_ab[j] and
    (q;q)_n / ((q;q)_j (q;q)_{n-j}) = S_q[j] S_q[n-j] / (q;q)_n, so the sum is
    sum_j A_j B_{n-j} w^{n-2j} / (q;q)_n with A_j = (aw,bw;q)_j S_ab[j] S_q[j]
    and B_i = (c/w,d/w;q)_i S_cd[i] S_q[i]: prefix and suffix products, each
    formed once, on Gaussian integers.  A factor 1 - x q^k is a numerator over
    x's denominator times qd^k (q = qn/qd); the k-th prefix pair, scaled by
    xy's denominator and qd, and the k-th suffix pair, scaled by x's and y's
    denominators, then share one denominator, and A_j holds one of the two
    for each k, so every term of the sum has the same denominator and the
    value is reduced once.  The form builds no 2phi1 coefficient series:
    ``awgf_coefficient_check`` compares it against the product of two.
    """
    (qn, qd), (wn, wd) = _gaussian(q), _gaussian(w)
    powers = [((1, 0), 1)]  # q^k, k = 0..n, as Gaussian integer over int
    for _ in range(n):
        powers.append((_gmul(powers[-1][0], qn), powers[-1][1] * qd))
    q_factors = [(den - num[0], -num[1]) for num, den in powers[1:]]  # 1 - q^(k+1)

    def factors(x):  # 1 - x q^k, k = 0..n-1, over x's denominator times qd^k
        (xn, xd), out = x, []
        for num, den in powers[:n]:
            t = _gmul(xn, num)
            out.append((xd * den - t[0], -t[1]))
        return out

    def side(x, y, xy, step):  # A_j (or B_j) over (xd yd xyd)^n qd^(n^2), times step^j
        x, y, xy = (_gaussian(v) for v in (x, y, xy))
        pre_scale, suf_scale = _gmul(step, (xy[1] * qd, 0)), (x[1] * y[1], 0)
        pre, suf = [(1, 0)], [(1, 0)]
        for f, g in zip(factors(x), factors(y)):
            pre.append(_gmul(pre[-1], _gmul(_gmul(f, g), pre_scale)))
        for f, g in zip(factors(xy)[::-1], q_factors[::-1]):
            suf.append(_gmul(suf[-1], _gmul(_gmul(f, g), suf_scale)))
        return [_gmul(p, s) for p, s in zip(pre, suf[::-1])], x[1] * y[1] * xy[1]

    # w^(n-2j) = wn^(2(n-j)) wd^(2j) / (wn wd)^n
    left, left_den = side(a * w, b * w, a * b, (wd * wd, 0))
    right, right_den = side(c / w, d / w, c * d, _gmul(wn, wn))
    re = im = 0
    for x, y in zip(left, right[::-1]):
        t = _gmul(x, y)
        re, im = re + t[0], im + t[1]
    den = (1, 0)  # (q;q)_n qd^(n(n+1)/2) wn^n
    for f in q_factors:
        den = _gmul(den, _gmul(f, wn))
    scale = (left_den * right_den * wd) ** n * qd ** (2 * n * n - n * (n + 1) // 2)
    return _gdiv((re, im), (den[0] * scale, den[1] * scale))


def aw_w_equals_d_value(a, b, c, d, q, n: int) -> ExactScalar:
    """Closed form at w = d: d^-n (ad, bd, cd; q)_n."""
    return (d ** (-n)) * qpoch_list([a * d, b * d, c * d], q, n)


# id -> (q, a, b) -> (the point (a, b, c, d) of p_n at w = i, the right side
# at even n, the right side at odd n).  A right side is a quotient (pref, num,
# den), a list of quotients to add, or None for an exact zero (see _right_side).
_SPECIAL = {
    "BAILEY0": lambda q, a, b: (
        (I * a, -I * a, I * b, -I * b),
        (1, [q, a * a, b * b, a * b, -a * b, q * a * b, -q * a * b], [a * a * b * b]),
        None,
    ),
    "ANDREWS_WHIPPLE0": lambda q, a, b: (
        (I * a, I * q / a, -I * b, -I * q / b),
        (1, [-q, -q * q, a * b, q * q / (a * b), q * a / b, q * b / a], []),
        ((I * q / b) * (1 + q) * (1 - a * b / q) * (1 - b / a),
         [-q * q, -q**3, q * a * b, q**3 / (a * b), q * q * a / b, q * q * b / a], []),
    ),
    "NEWQUAD": lambda q, a, b: (
        (I * a, -I * a, I * b, -I * q * b),
        (1, [q, a * a, q * q * b * b, a * b, -a * b, q * a * b, -q * a * b], [a * a * b * b]),
        (-I * (1 - q) * (1 - a * a) * b,
         [q**3, q * q * a * a, q * q * b * b, q * a * b, -q * a * b, q * q * a * b, -q * q * a * b],
         [q * q * a * a * b * b]),
    ),
    "ESOTERIC": lambda q, a, b: (
        (I * a, -I * a, I * b, -I * q * q * b),
        _esoteric_even(q, a, b),
        (-I * b * (1 - q * q) * (1 - a * a),
         [q**3, q * q * a * a, q**4 * b * b, q * a * b, -q * a * b, q * q * a * b, -q * q * a * b],
         [q * q * a * a * b * b]),
    ),
}
SPECIAL_VALUE_IDS = ("AW32", *_SPECIAL)


def _esoteric_even(q, a, b) -> list:
    """ESOTERIC's even right side, two quotients over a common part.  The
    second's (q^3, q a^2; q^2)_m runs in base q^2 (base q fails the exact
    convolution cross-check from n = 4 on)."""
    num = [a * a, q * q * b * b, a * b, -a * b, q * a * b, -q * a * b]
    den = [q * q * a * a * b * b]
    scale = (1 - q * q * b * b) * (1 - a * a * b * b)
    return [
        ((1 - q * b * b) * (1 - q * a * a * b * b) / scale,
         num + [q, q**3 * b * b, q**3 * a * a * b * b], den + [q * b * b, q * a * a * b * b]),
        (q * b * b * (1 - q) * (1 - a * a / q) / scale, num + [q**3, q * a * a], den + [a * a / q]),
    ]


def _right_side(side, q2, m: int) -> ExactScalar:
    """The sum over the side's quotients (pref, num, den) of
    (-1)^m pref (num; q^2)_m / (den; q^2)_m; None is exact zero."""
    if side is None:
        return ExactScalar(0)
    total = ExactScalar(0)
    for pref, num, den in side if isinstance(side, list) else [side]:
        term = pref * qpoch_list(num, q2, m)
        total = total + (term / qpoch_list(den, q2, m) if den else term)
    return ExactScalar(-1) ** m * total


def eval_special_value(
    sv_id: str, params: dict, n: int, n_max: int = 10
) -> tuple[ExactScalar, ExactScalar]:
    """(lhs, rhs) for a quadratic special value; the caller asserts equality.

    Parameters are exact Gaussian rationals: q, a, b, and for AW32 also c, d.
    lhs is always the convolution evaluation of p_n at the prescribed
    substitution; rhs is the parity-split closed form of the _SPECIAL row, at
    m = floor(n/2).  n_max caps the exact-arithmetic cost.
    """
    if sv_id not in SPECIAL_VALUE_IDS:
        raise DomainError(f"unknown special value id {sv_id!r}")
    names = "qabcd" if sv_id == "AW32" else "qab"
    check_names(sv_id, names, params)
    if n > n_max:
        raise DomainError(f"n = {n} exceeds the degree cap {n_max} of the exact special values")
    q, a, b, *cd = (ExactScalar.coerce(params[k]) for k in names)
    qb = QBase.of(q)
    if sv_id == "AW32":
        lhs = eval_aw(AWParams.make(a, b, *cd, qb, cd[1], n), "CONV")
        return lhs, aw_w_equals_d_value(a, b, *cd, q, n)
    point, *sides = _SPECIAL[sv_id](q, a, b)
    lhs = eval_aw(AWParams.make(*point, qb, I, n), "CONV")
    return lhs, _right_side(sides[n % 2], q * q, n // 2)

