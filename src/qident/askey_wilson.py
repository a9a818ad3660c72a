"""Askey-Wilson polynomial evaluation and quadratic special values.

The polynomial p_n(x; a,b,c,d | q), x = (w + 1/w)/2, is evaluated through
three terminating balanced 4phi3 representations (R1, R2, R3) and the
convolution form (CONV), which also covers zero parameters (continuous
q-Hermite at a=b=c=d=0).  x is always carried as w so that exact mode stays
inside Gaussian rationals; special points like x = 0 enter through w = i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .errors import DomainError, PoleError
from .qkernel import (
    ExactScalar,
    I,
    QBase,
    Scalar,
    qpoch_finite,
    qpoch_list,
    scalar_mode,
)
from .series import SeriesSpec, eval_phi_terminating, _exact_is_qpow

Representation = Literal["R1", "R2", "R3", "CONV"]

SPECIAL_VALUE_IDS = ("AW32", "BAILEY0", "ANDREWS_WHIPPLE0", "NEWQUAD", "ESOTERIC")


@dataclass(frozen=True)
class AWParams:
    a: Scalar
    b: Scalar
    c: Scalar
    d: Scalar
    q: QBase
    w: Scalar
    n: int

    @staticmethod
    def make(a, b, c, d, q, w, n: int) -> "AWParams":
        if n < 0:
            raise DomainError("polynomial degree must be nonnegative")
        w = ExactScalar.coerce(w) if isinstance(w, (int,)) else w
        if (isinstance(w, ExactScalar) and w.is_zero()) or w == 0:
            raise DomainError("w must be nonzero")
        return AWParams(a, b, c, d, QBase.of(q), w, n)

    def scalars(self):
        return [self.a, self.b, self.c, self.d, self.q.value, self.w]


def _check_no_pole(x, q, length: int, label: str):
    """Reject x in Omega_q^length = {q^-k : 0 <= k < length} (exact mode)."""
    if isinstance(x, ExactScalar) and isinstance(q, ExactScalar):
        k = _exact_is_qpow(x, q, length - 1)
        if k is not None:
            raise PoleError(f"{label} = q^-{k} lies in the pole set", index=k)


def eval_aw(params: AWParams, rep: Representation = "R1") -> Scalar:
    """p_n(x; a,b,c,d | q) via the requested representation.

    All four representations agree exactly; R1..R3 reject zero parameters
    (only CONV supports them).
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    q = params.q.value
    w = params.w
    n = params.n
    mode = scalar_mode(params.scalars())

    if rep == "CONV":
        _check_no_pole(a * b, q, n, "ab")
        _check_no_pole(c * d, q, n, "cd")
        return _aw_convolution(a, b, c, d, q, w, n)

    for name, v in (("a", a), ("b", b), ("c", c), ("d", d)):
        if (isinstance(v, ExactScalar) and v.is_zero()) or v == 0:
            raise DomainError(f"representation {rep} requires nonzero {name}")
    if mode != "exact":
        raise DomainError("representations R1-R3 are exact-mode evaluators")

    abcd = a * b * c * d
    if rep == "R1":
        for label, x in (("ab", a * b), ("ac", a * c), ("ad", a * d)):
            _check_no_pole(x, q, n, label)
        qinvn = ExactScalar.coerce(q) ** (-n)
        spec = SeriesSpec.make(
            [qinvn, (ExactScalar.coerce(q) ** (n - 1)) * abcd, a * w, a / w],
            [a * b, a * c, a * d],
            params.q,
            q,
            terminates_at=n,
        )
        return (a ** (-n) if isinstance(a, ExactScalar) else 1 / a**n) * qpoch_list(
            [a * b, a * c, a * d], q, n
        ) * eval_phi_terminating(spec)

    if rep == "R2":
        qe = ExactScalar.coerce(q)
        for label, x in (
            ("q^(2-2n)/abcd", qe ** (2 - 2 * n) / abcd),
            ("q^(1-n)w/a", qe ** (1 - n) * w / a),
            ("q^(1-n)/(aw)", qe ** (1 - n) / (a * w)),
        ):
            _check_no_pole(x, q, n, label)
        pref = (
            qe ** (-(n * (n - 1) // 2))
            * ((-a) ** (-n))
            * qpoch_finite(abcd / q, q, 2 * n)
            / qpoch_finite(abcd / q, q, n)
            * qpoch_list([a * w, a / w], q, n)
        )
        spec = SeriesSpec.make(
            [qe ** (-n), qe ** (1 - n) / (a * b), qe ** (1 - n) / (a * c), qe ** (1 - n) / (a * d)],
            [qe ** (2 - 2 * n) / abcd, qe ** (1 - n) * w / a, qe ** (1 - n) / (a * w)],
            params.q,
            q,
            terminates_at=n,
        )
        return pref * eval_phi_terminating(spec)

    if rep == "R3":
        qe = ExactScalar.coerce(q)
        for label, x in (
            ("ab", a * b),
            ("q^(1-n)w/c", qe ** (1 - n) * w / c),
            ("q^(1-n)w/d", qe ** (1 - n) * w / d),
        ):
            _check_no_pole(x, q, n, label)
        spec = SeriesSpec.make(
            [qe ** (-n), a * w, b * w, qe ** (1 - n) / (c * d)],
            [a * b, qe ** (1 - n) * w / c, qe ** (1 - n) * w / d],
            params.q,
            q,
            terminates_at=n,
        )
        return (w**n) * qpoch_list([a * b, c / w, d / w], q, n) * eval_phi_terminating(spec)

    raise DomainError(f"unknown representation {rep!r}")


def _aw_convolution(a, b, c, d, q, w, n: int) -> Scalar:
    """(q,ab,cd;q)_n sum_j [(aw,bw;q)_j/((q,ab;q)_j)]
    [(c/w,d/w;q)_{n-j}/((q,cd;q)_{n-j})] w^{n-2j}."""
    aw_up = [qpoch_list([a * w, b * w], q, j) for j in range(n + 1)]
    cw_up = [qpoch_list([c / w, d / w], q, j) for j in range(n + 1)]
    qj = [qpoch_finite(q, q, j) for j in range(n + 1)]
    abj = [qpoch_finite(a * b, q, j) for j in range(n + 1)]
    cdj = [qpoch_finite(c * d, q, j) for j in range(n + 1)]
    total = None
    for j in range(n + 1):
        term = (
            aw_up[j]
            / (qj[j] * abj[j])
            * cw_up[n - j]
            / (qj[n - j] * cdj[n - j])
            * w ** (n - 2 * j)
        )
        total = term if total is None else total + term
    return total * qj[n] * abj[n] * cdj[n]


def aw_hermite_degenerate(w, q, n: int) -> Scalar:
    """Continuous q-Hermite value: CONV at a=b=c=d=0."""
    if (isinstance(w, ExactScalar) and w.is_zero()) or w == 0:
        raise DomainError("w must be nonzero")
    qj = [qpoch_finite(q, q, j) for j in range(n + 1)]
    total = None
    for j in range(n + 1):
        term = w ** (n - 2 * j) / (qj[j] * qj[n - j])
        total = term if total is None else total + term
    return total * qj[n]


def aw_w_equals_d_value(a, b, c, d, q, n: int) -> Scalar:
    """Closed form at w = d: d^-n (ad, bd, cd; q)_n."""
    return (d ** (-n)) * qpoch_list([a * d, b * d, c * d], q, n)


def _ceil_half(n: int) -> int:
    return (n + 1) // 2


def eval_special_value(
    sv_id: str, params: dict, n: int, n_max: int = 10
) -> tuple[Scalar, Scalar]:
    """(lhs, rhs) for a quadratic special value; the caller asserts equality.

    Parameters are exact Gaussian rationals.  lhs is always the convolution
    evaluation of p_n at the prescribed substitution; rhs is the parity-split
    closed form.  n_max caps the exact-arithmetic cost.
    """
    if sv_id not in SPECIAL_VALUE_IDS:
        raise DomainError(f"unknown special value id {sv_id!r}")
    if n > n_max:
        raise DomainError(f"n = {n} exceeds n_max = {n_max} (raise n_max to go deeper)")
    q = ExactScalar.coerce(params["q"])
    qb = QBase.of(q)

    if sv_id == "AW32":
        a, b, c, d = (ExactScalar.coerce(params[k]) for k in "abcd")
        lhs = eval_aw(AWParams.make(a, b, c, d, qb, d, n), "CONV")
        rhs = aw_w_equals_d_value(a, b, c, d, q, n)
        return lhs, rhs

    a = ExactScalar.coerce(params["a"])
    b = ExactScalar.coerce(params["b"])
    q2 = q * q
    h = _ceil_half(n)
    m = n // 2 if n % 2 == 0 else (n - 1) // 2

    if sv_id == "BAILEY0":
        lhs = eval_aw(AWParams.make(I * a, -I * a, I * b, -I * b, qb, I, n), "CONV")
        if n % 2 == 1:
            return lhs, ExactScalar(0)
        rhs = (
            ExactScalar(-1) ** m
            * qpoch_list([q, a * a, b * b, a * b, -a * b, q * a * b, -q * a * b], q2, m)
            / qpoch_finite(a * a * b * b, q2, m)
        )
        return lhs, rhs

    if sv_id == "ANDREWS_WHIPPLE0":
        lhs = eval_aw(
            AWParams.make(I * a, I * q / a, -I * b, -I * q / b, qb, I, n), "CONV"
        )
        if n % 2 == 0:
            rhs = ExactScalar(-1) ** m * qpoch_list(
                [-q, -q * q, a * b, q * q / (a * b), q * a / b, q * b / a], q2, m
            )
        else:
            rhs = (
                (I * q / b)
                * (1 + q)
                * (1 - a * b / q)
                * (1 - b / a)
                * ExactScalar(-1) ** m
                * qpoch_list(
                    [-q * q, -q**3, q * a * b, q**3 / (a * b), q * q * a / b, q * q * b / a],
                    q2,
                    m,
                )
            )
        return lhs, rhs

    if sv_id == "NEWQUAD":
        lhs = eval_aw(AWParams.make(I * a, -I * a, I * b, -I * q * b, qb, I, n), "CONV")
        if n % 2 == 0:
            rhs = (
                ExactScalar(-1) ** m
                * qpoch_list(
                    [q, a * a, q * q * b * b, a * b, -a * b, q * a * b, -q * a * b], q2, m
                )
                / qpoch_finite(a * a * b * b, q2, m)
            )
        else:
            rhs = (
                -I
                * (1 - q)
                * (1 - a * a)
                * b
                * ExactScalar(-1) ** m
                * qpoch_list(
                    [
                        q**3,
                        q * q * a * a,
                        q * q * b * b,
                        q * a * b,
                        -q * a * b,
                        q * q * a * b,
                        -q * q * a * b,
                    ],
                    q2,
                    m,
                )
                / qpoch_finite(q * q * a * a * b * b, q2, m)
            )
        return lhs, rhs

    # ESOTERIC
    lhs = eval_aw(AWParams.make(I * a, -I * a, I * b, -I * q * q * b, qb, I, n), "CONV")
    if n % 2 == 1:
        rhs = (
            -I
            * b
            * (1 - q * q)
            * (1 - a * a)
            * ExactScalar(-1) ** m
            * qpoch_list(
                [
                    q**3,
                    q * q * a * a,
                    q**4 * b * b,
                    q * a * b,
                    -q * a * b,
                    q * q * a * b,
                    -q * q * a * b,
                ],
                q2,
                m,
            )
            / qpoch_finite(q * q * a * a * b * b, q2, m)
        )
        return lhs, rhs
    # even branch.  The bracketed sum's first product runs in base q^2
    # (base q fails the exact convolution cross-check from n = 4 on).
    common = (
        ExactScalar(-1) ** m
        * qpoch_list([a * a, q * q * b * b, a * b, -a * b, q * a * b, -q * a * b], q2, m)
        / (
            (1 - q * q * b * b)
            * (1 - a * a * b * b)
            * qpoch_finite(q * q * a * a * b * b, q2, m)
        )
    )
    bracket = (
        (1 - q * b * b)
        * (1 - q * a * a * b * b)
        * qpoch_list([q, q**3 * b * b, q**3 * a * a * b * b], q2, m)
        / (qpoch_finite(q * b * b, q2, m) * qpoch_finite(q * a * a * b * b, q2, m))
        + q
        * b
        * b
        * (1 - q)
        * (1 - a * a / q)
        * qpoch_list([q**3, q * a * a], q2, m)
        / qpoch_finite(a * a / q, q2, m)
    )
    return lhs, common * bracket


def newquad_product_form(a, b, q, n: int) -> ExactScalar:
    """The single-product form of the NEWQUAD special value.

    (-i)^n b^(2 ceil(n/2) - n) (qb^2, ab, -ab; q)_n (q, a^2; q^2)_ceil(n/2)
    / ((qb^2; q^2)_ceil(n/2) (a^2 b^2; q^2)_ceil(n/2)).
    """
    a = ExactScalar.coerce(a)
    b = ExactScalar.coerce(b)
    q = ExactScalar.coerce(q)
    q2 = q * q
    h = _ceil_half(n)
    return (
        ((-I) ** n)
        * b ** (2 * h - n)
        * qpoch_list([q * b * b, a * b, -a * b], q, n)
        * qpoch_list([q, a * a], q2, h)
        / (qpoch_finite(q * b * b, q2, h) * qpoch_finite(a * a * b * b, q2, h))
    )
