"""Registry of terminating 4phi3 / 3phi2 summations and transformations.

The 22 records are one table, `_REGISTRY`, each entry one `_record(...)`
call: the parameter names, the balance class, the anchor, the left side, the
right side, and a flag (the RHS vanishes at odd n).  `_record` is the one
code path that reads a record: `_scalars` checks the parameter names and
hands each side the parameters as positional ExactScalars, the left side
gives only (upper, lower, base) of a series that terminates at n (or at a
fourth entry m), and the right side gives its closed-form value or a plain
quotient pref * (num; base)_m / (den; base)_m as data.  The seeded sampler is
derived from the parameter names.  Every record is exact: the two whose
printed right sides are infinite-product quotients (T_GASPER_RAHMAN_WATSON,
T_ANDREWS_WHIPPLE_E) are written as the finite quotients those reduce to.

A sweep evaluates each (params, n) point once: `_sides` is the one place that
sums an LHS and evaluates an RHS, `draw_params` screens a draw with the pairs
it computes and returns them, and `sweep` hands each pair to
`verify(..., sides=)`.

Square roots never appear at this layer: records are parameterized by the
square-root variables themselves (sa, sc, sqa, p), and `_scalars` appends the
squares each formula needs (a = sa^2, a = sqa^2/q, c = sc^2, q = p^2).
Parameter names are part of the public record contract (see each record's
`param_names`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .errors import (
    ConstraintViolation,
    DomainError,
    PoleError,
    SamplerExhausted,
    UnknownIdentity,
    check_eps,
    check_names,
)
from .qkernel import EXACT_ONE, ExactScalar, I, qpoch_finite, qpoch_list
from .reporting import VerificationReport, compare_exact, make_report
from .series import BalanceClass, SeriesSpec, eval_phi_terminating

E = ExactScalar.coerce


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    param_names: tuple
    balance: BalanceClass
    anchor: str
    lhs_spec: Callable[[dict, int], SeriesSpec]
    rhs_value: Callable
    sampler: Callable[[random.Random], dict]
    structural_zero: bool = False  # the RHS vanishes at every odd n


def lookup(identity_id: str) -> IdentityRecord:
    try:
        return _REGISTRY[identity_id]
    except KeyError:
        raise UnknownIdentity(f"no identity registered under {identity_id!r}") from None


def list_ids() -> list[str]:
    return sorted(_REGISTRY)


# --------------------------------------------------------------------------
# samplers
# --------------------------------------------------------------------------

def _frac(rng: random.Random) -> Fraction:
    num = rng.randint(1, 4)
    den = rng.randint(num + 1, 8)
    return Fraction(num, den)


def _frac_q(rng: random.Random) -> Fraction:
    den = rng.randint(3, 9)
    num = rng.randint(1, den - 1)
    return Fraction(num, den)


def _sampler(names: tuple) -> Callable:
    def draw(rng: random.Random) -> dict:
        return {name: (_frac_q(rng) if name in ("q", "p") else _frac(rng)) for name in names}

    return draw


# --------------------------------------------------------------------------
# reading a table entry
# --------------------------------------------------------------------------

_ROOTS = ("sa", "sqa", "sc", "p")


def _scalars(identity_id: str, names: tuple, params: dict) -> list:
    """The parameters as ExactScalars in `names` order, followed by the square
    of each square-root parameter: a = sa^2, a = sqa^2/q, c = sc^2, q = p^2."""
    check_names(identity_id, names, params)
    xs = [E(params[name]) for name in names]
    for name, x in zip(names, xs):
        if name in _ROOTS:
            xs.append(x * x / xs[0] if name == "sqa" else x * x)
    return xs


def _record(ident, names, k, anchor, lhs, rhs, odd_zero=False):
    """The IdentityRecord of one table entry.

    `names` lists the parameters, space-separated, in sampler order; the
    record is k-balanced.  `lhs(*scalars, n)` is (upper, lower, base) of the
    left side, which terminates at n, or (upper, lower, base, m) when it
    terminates at m.  `rhs(*scalars, n)` is the closed-form value or the
    quotient (pref, num, den, base, m), read as pref * (num; base)_m /
    (den; base)_m.  A record with odd_zero is exact zero at odd n without
    evaluating its RHS."""
    names = tuple(names.split())

    def lhs_spec(params, n):
        upper, lower, base, *m = lhs(*_scalars(ident, names, params), n)
        return SeriesSpec.make(upper, lower, base, base, terminates_at=m[0] if m else n)

    def rhs_value(params, n):
        xs = _scalars(ident, names, params)
        if odd_zero and n % 2 == 1:
            return ExactScalar(0)
        value = rhs(*xs, n)
        if isinstance(value, tuple):
            pref, num, den, base, m = value
            value = pref * qpoch_list(num, base, m) / qpoch_list(den, base, m)
        return value

    return IdentityRecord(
        ident, names, BalanceClass("balanced", k), anchor, lhs_spec, rhs_value,
        _sampler(names), odd_zero,
    )


def _phi(upper, lower, base, m):
    """The terminating series sum_k (upper)_k / (base, lower)_k base^k, k <= m."""
    return eval_phi_terminating(SeriesSpec.make(upper, lower, base, base, terminates_at=m))


# --------------------------------------------------------------------------
# right sides that are not a plain quotient
# --------------------------------------------------------------------------

def _bailey41_rhs(q, a, b, n):
    m = n // 2
    return (
        qpoch_list([q, a * a, b * b], q * q, m)
        * qpoch_finite(a * b, q, n)
        / (qpoch_list([a, b], q, n) * qpoch_finite(a * a * b * b, q * q, m))
    )


def _aw_c_rhs(q, a, b, n):
    Q = q * q
    if n % 2 == 0:
        return a**n, [Q / b, q * b / (a * a)], [q * b, Q * a * a / b], Q, n // 2
    pref = (
        q
        * (1 - b / q)
        * (1 - a * a / b)
        / ((1 - b) * (1 - q * a * a / b))
        * (-a) ** (n - 1)
    )
    return pref, [q**3 / b, Q * b / (a * a)], [Q * b, q**3 * a * a / b], Q, (n - 1) // 2


def _bw_sum_rhs(q, a, b, n):
    if n == 0:
        # the printed form gives 2 at n = 0; the empty sum is 1
        return EXACT_ONE
    return (
        qpoch_list([-a, a / b], q, n) + qpoch_list([a, -a / b], q, n)
    ) / qpoch_list([ExactScalar(-1), a * a / b], q, n)


def _bw_transform_rhs(q, a, b, c, n):
    Q = q * q
    pref = (
        qpoch_finite(a * a / b, q, n)
        * qpoch_finite(c * c, Q, n)
        / (qpoch_list([-a / b, a, c * c], q, n))
    )
    return pref * _phi(
        [q**-n, q ** (1 - n), a * a / (b * b), a * a / (c * c)],
        [q ** (2 - 2 * n) / (c * c), a * a / b, q * a * a / b],
        Q,
        n // 2,
    )


def _n5_rhs(q, sa, sc, a, c, n):
    h, Q = (n + 1) // 2, q * q
    base = (
        c**h
        / (1 - Q * c)
        * qpoch_list([q, a / c], Q, h)
        / (qpoch_finite(a, Q, (n + 2) // 2) * qpoch_finite(q**3 * c, Q, n // 2))
    )
    if n % 2 == 1:
        return base * (1 + q)
    return base * (
        (q * c - q**n * a) * (1 - q ** (n + 1))
        + (1 - q ** (n + 1) * a) * (1 - q ** (n + 1) * c)
    )


def _n3_rhs(q, sqa, sc, a, c, n):
    h, Q = (n + 1) // 2, q * q
    return (
        c**h
        * qpoch_finite(q, Q, h)
        * qpoch_finite(q * a / c, Q, n // 2)
        / (qpoch_finite(q * a, Q, n // 2) * qpoch_finite(q * c, Q, h))
    )


def _n4_rhs(q, sa, sc, a, c, n):
    h, Q = (n + 1) // 2, q * q
    return (
        (q**n * a) ** n
        * (q ** (-2 * n) * c / (a * a)) ** (n // 2)
        * (1 - a)
        / (1 - a * q ** (2 * n))
        * qpoch_finite(q, Q, h)
        * qpoch_finite(Q * a / c, Q, n // 2)
        / (qpoch_finite(a, Q, h) * qpoch_finite(q * c, Q, n // 2))
    )


def _n8_rhs(q, sa, sc, a, c, n):
    h, Q = (n + 1) // 2, q * q
    base = (
        ExactScalar(-1) ** n
        * q**n
        * c ** (n // 2)
        * (1 - a)
        / ((1 - q ** (2 * n) * a) * (1 - q ** (2 * n - 2) * a))
        * qpoch_finite(q, Q, h)
        * qpoch_finite(a / c, Q, n // 2)
        / (qpoch_finite(a, Q, n // 2) * qpoch_finite(q * c, Q, h))
    )
    if n % 2 == 1:
        return base * (c * (1 + q ** (2 * n - 1) * a) - q ** (n - 2) * a * (1 + q))
    return base * ((1 + q ** (2 * n - 1) * a) - q ** (n - 2) * a * (1 + q))


def _n7_rhs(q, sa, sc, a, c, n):
    h, Q = (n + 1) // 2, q * q
    base = (
        c**h
        / ((c - a) * (1 - q ** (2 * n) * a) * (1 - q ** (2 * n - 2) * a))
        * qpoch_finite(q, Q, h)
        * qpoch_finite(a / c, Q, n // 2)
        / (qpoch_finite(Q * a, Q, h) * qpoch_finite(q * c, Q, n // 2))
    )
    if n % 2 == 1:
        return base * (
            q ** (n - 1)
            * a
            * (1 + q)
            * (1 - q ** (n + 1) * a)
            * (1 - q ** (n - 1) * a)
            * (1 - q ** (n - 1) * a / c)
        )
    return base * (
        (1 - q**n * a)
        * (
            q ** (2 * n - 2) * a * (a - c) * (1 - q ** (2 * n) * a)
            + (c - q**n * a) * (1 + q ** (2 * n - 1) * a) * (1 - q ** (n - 1) * a)
        )
    )


def _n6_rhs(p, sc, q, c, n):
    h, fh, Q = (n + 1) // 2, n // 2, q * q
    return (
        ExactScalar(-1) ** n
        * (1 + q ** (1 - 2 * n))
        / (1 + q)
        * qpoch_finite(q, Q, h)
        * qpoch_finite(-(q ** (1 + 2 * fh)) * c, Q, fh)
        / (qpoch_finite(q * c, Q, fh) * qpoch_finite(-(q ** (1 + 2 * h)), Q, fh))
    )


def _sears_rhs(q, a, b, c, d, e, n):
    f = a * b * c * q ** (1 - n) / (d * e)
    pref = qpoch_list([e / a, f / a], q, n) / qpoch_list([e, f], q, n) * a**n
    return pref * _phi(
        [q**-n, a, d / b, d / c], [d, a * q ** (1 - n) / e, a * q ** (1 - n) / f], q, n
    )


# --------------------------------------------------------------------------
# the table
# --------------------------------------------------------------------------

_REGISTRY: dict[str, IdentityRecord] = {rec.id: rec for rec in (
    _record(
        "T_ANDREWS_WATSON", "q sqa sc", 1,
        "Andrews' q-analogue of terminating Watson 3F2(1); DLMF 17.7.9 / GR Ex. 2.8; "
        "a=sqa^2/q, c=sc^2",
        lambda q, sqa, sc, a, c, n: ([q**-n, q**n * a, sc, -sc], [sqa, -sqa, c], q),
        lambda q, sqa, sc, a, c, n: (
            sc**n, [q, sqa * sqa / c], [sqa * sqa, q * c], q * q, n // 2
        ),
        odd_zero=True,
    ),
    _record(
        "T_GASPER_RAHMAN_WATSON", "q b c", 1,
        "balanced 4phi3 from Gasper-Rahman's nonterminating q-Watson sum "
        "(DLMF 17.7.8 via 17.9.16); base q^2",
        lambda q, b, c, n: (
            [q ** (-2 * n), c, -(q ** (1 - n)) / b, q ** (1 - n) * b / c],
            [q ** (2 - 2 * n) / c, -(q ** (1 - n)) * b, q ** (1 - n) * c / b],
            q * q,
        ),
        # the printed quotient of infinite products pairs into products (x; q^2)_n;
        # at even n = 2m each splits as (x; q^4)_m (x q^2; q^4)_m, and (q^2 c^2; q^4)_m cancels
        lambda q, b, c, n: (
            EXACT_ONE,
            [q ** (1 - n) * b, q ** (3 - n) * b, c * c, q ** (2 - 2 * n), q * q * c * c / (b * b)],
            [c, q * q * c, q ** (1 - n) * c / b, q ** (3 - n) * c / b, q ** (2 - 2 * n) * b * b],
            q**4,
            n // 2,
        ),
        odd_zero=True,
    ),
    _record(
        "T_BAILEY41", "q a b", 1,
        "Bailey (1941) / Jackson (1941) balanced terminating 4phi3; GR Ex. 2.6",
        lambda q, a, b, n: (
            [q**-n, -(q ** (1 - n)) / (a * b), a, b],
            [-(a * b), q ** (1 - n) / a, q ** (1 - n) / b],
            q,
        ),
        _bailey41_rhs,
        odd_zero=True,
    ),
    _record(
        "T_ANDREWS_WHIPPLE_E", "q c e", 1,
        "Andrews' q-analogue of terminating Whipple 3F2(1), product form; "
        "GR (II.19) / DLMF 17.7.11",
        lambda q, c, e, n: ([q**-n, q ** (n + 1), c, -c], [-q, e, q * c * c / e], q),
        # the printed quotient of infinite products, with (x; q)_inf = (x; q^2)_inf
        # (x q; q^2)_inf, pairs into base-q^2 products of length ceil(n/2)
        lambda q, c, e, n: (
            q ** (n * (n + 1) // 2),
            [q**-n * e, q ** (1 - n) * c * c / e],
            [q * e, q * q * c * c / e] if n % 2 == 0 else [e, q * c * c / e],
            q * q,
            (n + 1) // 2,
        ),
    ),
    _record(
        "T_ANDREWS_WHIPPLE_C", "q a b", 1,
        "Andrews' terminating q-Whipple sum, compact parity form",
        lambda q, a, b, n: ([q**-n, q ** (n + 1), a, -a], [-q, b, q * a * a / b], q),
        _aw_c_rhs,
    ),
    _record(
        "T_QBAILEY_1", "q a b", 1,
        "first q-analogue of Bailey's 4F3(1) sum; DLMF 17.7.12; base q^2",
        lambda q, a, b, n: (
            [q ** (-2 * n), q ** (2 * n) * b * b, a, q * a], [b, q * b, q * q * a * a], q * q
        ),
        lambda q, a, b, n: (a**n, [-q, b / a], [-q * a, b], q, n),
    ),
    _record(
        "T_QBAILEY_2", "q a b", 1,
        "second q-analogue of Bailey's 4F3(1) sum; DLMF 17.7.13; base q^2",
        lambda q, a, b, n: (
            [q ** (-2 * n), q ** (2 * n - 2) * b * b, a, q * a], [b, q * b, a * a], q * q
        ),
        lambda q, a, b, n: (
            a**n * (1 - b * q ** (n - 1)) / (1 - b * q ** (2 * n - 1)),
            [-q, b / a],
            [-a, b],
            q,
            n,
        ),
    ),
    _record(
        "T_QPFAFF_SAALSCHUTZ", "q a b c d", 1,
        "q-Pfaff-Saalschutz 3phi2 in the Jackson/Dougall reduction form; DLMF 17.7.4/17.7.14",
        lambda q, a, b, c, d, n: (
            [q**-n, q ** (n + 1) * a * a / (b * c * d), d], [q * a / b, q * a / c], q
        ),
        lambda q, a, b, c, d, n: (
            d**n, [q * a / (b * d), q * a / (c * d)], [q * a / b, q * a / c], q, n
        ),
    ),
    _record(
        "T_GR_EX214", "q a b", 1,
        "GR Exercise 2.14(i) with a -> a^2",
        lambda q, a, b, n: ([q**-n, b, a * a, q * a], [b * b * q ** (1 - n), q * a * a / b, a], q),
        lambda q, a, b, n: (
            (1 + (a / b) * q**n) / (1 + a / b),
            [a * a / (b * b), 1 / b],
            [q * a * a / b, 1 / (b * b)],
            q,
            n,
        ),
    ),
    _record(
        "T_GR_3109", "q a b", 1,
        "GR (3.10.9) with a -> a^2, w -> a b q^(1-n)",
        lambda q, a, b, n: (
            [q**-n, -b * q**-n, a * a, q * a], [a * b * q ** (1 - n), -a * q ** (1 - n), a], q
        ),
        lambda q, a, b, n: (
            (q * a * a) ** (-n) * (1 - (a / b) * q ** (2 * n)) / (1 - (a / b) * q**n),
            [q * a / b, -a],
            [1 / (a * b), -1 / a],
            q,
            n,
        ),
    ),
    _record(
        "T_GR_31010", "q a b", 1,
        "GR (3.10.10) with a -> a b",
        lambda q, a, b, n: (
            [q**-n, -b * q ** (1 - n), a * b, b], [b * b * q ** (1 - n), -b * q**-n, q * a], q
        ),
        lambda q, a, b, n: (
            (1 + 1 / b) * (1 - (a / b) * q ** (2 * n)) / ((1 + q**n / b) * (1 - a / b)),
            [a / b, 1 / b],
            [a * q, 1 / (b * b)],
            q,
            n,
        ),
    ),
    # not an n-th order Askey-Wilson value with n-free parameters; verified standalone
    _record(
        "T_BW_SUM", "q a b", 1,
        "quadratic sum from the Berkovich-Warnaar transformation in the c -> 1 limit; base q^2",
        lambda q, a, b, n: (
            [q**-n, q ** (1 - n), a * a, a * a / (b * b)],
            [q ** (2 - 2 * n), a * a / b, q * a * a / b],
            q * q,
            n // 2,
        ),
        _bw_sum_rhs,
    ),
    _record(
        "T_BW_TRANSFORM", "q a b c", 1,
        "Berkovich-Warnaar 4phi3 transformation (sum-vs-sum equality)",
        lambda q, a, b, c, n: ([q**-n, b, c, -c], [-(q ** (1 - n)) * b / a, a, c * c], q),
        _bw_transform_rhs,
    ),
    _record(
        "T_NEW_N2", "q sa sc", 1,
        "quadratic balanced terminating 4phi3 summation, plain-root form; a=sa^2, c=sc^2",
        lambda q, sa, sc, a, c, n: ([q**-n, q**n * a, sc, -sc], [q * c, sa, -sa], q),
        lambda q, sa, sc, a, c, n: (
            c ** ((n + 1) // 2), [q, a / c], [a, q * c], q * q, (n + 1) // 2
        ),
    ),
    _record(
        "T_NEW_N1", "q sa sc", 1,
        "quadratic balanced terminating 4phi3 summation, q-shifted-root form; a=sa^2, c=sc^2",
        lambda q, sa, sc, a, c, n: (
            [q**-n, q**n * a, q * sc, -q * sc], [q * c, q * sa, -q * sa], q
        ),
        lambda q, sa, sc, a, c, n: (
            (-q) ** n * c ** ((n + 1) // 2) * (1 - a) / (1 - q ** (2 * n) * a),
            [q, a / c],
            [a, q * c],
            q * q,
            (n + 1) // 2,
        ),
    ),
    _record(
        "T_NEW_N5", "q sa sc", 1,
        "esoteric quadratic balanced terminating 4phi3, complete product for odd n; "
        "a=sa^2, c=sc^2",
        lambda q, sa, sc, a, c, n: (
            [q**-n, q ** (n + 1) * a, sc, -sc], [q * q * c, sa, -sa], q
        ),
        _n5_rhs,
    ),
    _record(
        "T_NEW_N3", "q sqa sc", 2,
        "quadratic 2-balanced terminating 4phi3 summation; qa=sqa^2, c=sc^2",
        lambda q, sqa, sc, a, c, n: ([q**-n, q**n * a, sc, -sc], [sqa, -sqa, q * c], q),
        _n3_rhs,
    ),
    _record(
        "T_NEW_N4", "q sa sc", 2,
        "quadratic 2-balanced terminating 4phi3 summation; a=sa^2, c=sc^2",
        lambda q, sa, sc, a, c, n: ([q**-n, q**n * a, sc, -sc], [q * sa, -q * sa, c], q),
        _n4_rhs,
    ),
    _record(
        "T_NEW_N8", "q sa sc", 2,
        "esoteric quadratic 2-balanced terminating 4phi3; a=sa^2, c=sc^2",
        lambda q, sa, sc, a, c, n: (
            [q**-n, q ** (n - 1) * a, q * sc, -q * sc], [q * sa, -q * sa, q * c], q
        ),
        _n8_rhs,
    ),
    _record(
        "T_NEW_N7", "q sa sc", 3,
        "quadratic 3-balanced terminating 4phi3, complete product for odd n; a=sa^2, c=sc^2",
        lambda q, sa, sc, a, c, n: (
            [q**-n, q ** (n - 1) * a, sc, -sc], [q * sa, -q * sa, c], q
        ),
        _n7_rhs,
    ),
    # specializes the 3-balanced sum T_NEW_N7 at a = -q^(1-2n)
    _record(
        "T_NEW_N6", "p sc", 3,
        "quadratic 3-balanced terminating 4phi3 with completely factored RHS; q=p^2, c=sc^2",
        lambda p, sc, q, c, n: (
            [q**-n, -(q**-n), sc, -sc], [I * p ** (3 - 2 * n), -I * p ** (3 - 2 * n), c], q
        ),
        _n6_rhs,
    ),
    _record(
        "X_SEARS", "q a b c d e", 1,
        "Sears' balanced terminating 4phi3 transformation; DLMF 17.9.14 "
        "(f fixed by the balance condition)",
        lambda q, a, b, c, d, e, n: (
            [q**-n, a, b, c], [d, e, a * b * c * q ** (1 - n) / (d * e)], q
        ),
        _sears_rhs,
    ),
)}


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------

def _sides(rec: IdentityRecord, params: dict, n: int):
    """(lhs, rhs) at one point: the exact LHS sum and the exact RHS."""
    return eval_phi_terminating(rec.lhs_spec(params, n)), rec.rhs_value(params, n)


def verify(
    identity_id: str,
    params: dict,
    n: int,
    eps: Optional[float] = None,
    *,
    sides: Optional[tuple] = None,
) -> VerificationReport:
    """Check one identity at one exact parameter point, by strict equality.

    A given eps must be positive; every record is exact, so it has no other
    effect.  `sides` is the (lhs, rhs) pair already evaluated at this point,
    as `draw_params` returns it; when given, neither side is evaluated again.
    """
    if eps is not None:
        check_eps(eps)
    rec = lookup(identity_id)
    return exact_report(identity_id, params, n, lambda: sides or _sides(rec, params, n))


def exact_report(identity_id: str, params: dict, n: int, evaluate: Callable) -> VerificationReport:
    """The exact report of lhs == rhs for the pair (lhs, rhs) = evaluate() at
    one point.  A closed-form denominator that vanishes there, or a series
    pole, is a ConstraintViolation: the point is outside the identity, not a
    failed verdict."""
    try:
        lhs, rhs = evaluate()
    except ZeroDivisionError as exc:
        raise ConstraintViolation(
            f"{identity_id}: closed-form denominator vanishes at "
            f"{', '.join(f'{k}={v}' for k, v in params.items())}, n={n}",
            predicate="closed-form denominator nonzero",
        ) from exc
    except PoleError as exc:
        raise ConstraintViolation(
            f"{identity_id}: {exc}", predicate="series pole absent"
        ) from exc
    return make_report(
        identity_id, params, lhs, rhs, compare_exact(lhs, rhs), mode="exact",
        n=n, degenerate=lhs.is_zero() and rhs.is_zero(),
    )


def draw_params(
    rec: IdentityRecord, rng: random.Random, n_values: Iterable[int]
) -> tuple[dict, dict]:
    """Constraint-filtered deterministic draw from the record's sampler.

    Returns the accepted parameters and, for each n, the (lhs, rhs) pair the
    screens evaluated."""
    n_values = list(n_values)
    for _ in range(1000):
        ps = rec.sampler(rng)
        pairs = {}
        for n in n_values:
            try:
                pairs[n] = _sides(rec, ps, n)
            except (ZeroDivisionError, PoleError, DomainError):
                break
            # reject draws that produce accidental (non-structural) zeros
            rhs = pairs[n][1]
            if rhs.is_zero() != (rec.structural_zero and n % 2 == 1):
                break
        else:
            return ps, pairs
    raise SamplerExhausted(
        f"{rec.id}: 1000 consecutive draws rejected by the constraints"
    )


def sweep(
    identity_id: str,
    trials: int,
    seed: int,
    n_range: Iterable[int],
    eps: Optional[float] = None,
) -> list[VerificationReport]:
    """Deterministic seeded sweep: `trials` parameter points, each n in range.
    A given eps must be positive, as in `verify`."""
    if eps is not None:
        check_eps(eps)
    if trials < 1:
        raise DomainError("trials must be >= 1")
    rec = lookup(identity_id)
    rng = random.Random(seed)
    n_values = list(n_range)
    reports = []
    for _ in range(trials):
        ps, pairs = draw_params(rec, rng, n_values)
        reports.extend(verify(identity_id, ps, n, sides=pairs[n]) for n in n_values)
    return reports


# Every record is exact.  The benchmark sweeps these two groups apart: the
# two records whose printed right sides are infinite-product quotients, and
# the other 20.
APPROX_ONLY_IDS = ("T_GASPER_RAHMAN_WATSON", "T_ANDREWS_WHIPPLE_E")
EXACT_IDS = tuple(sorted(set(_REGISTRY) - set(APPROX_ONLY_IDS)))
