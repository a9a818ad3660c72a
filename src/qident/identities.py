"""Registry of terminating 4phi3 / 3phi2 summations and transformations.

Every record carries an exact LHS (a terminating series builder), an RHS
closed-form evaluator (parity splits, floor exponents), a validity predicate,
a deterministic parameter sampler, and its balance class.  Records whose RHS
involves infinite products (T_GASPER_RAHMAN_WATSON, T_ANDREWS_WHIPPLE_E) are
approx-only: their LHS is still summed exactly, the RHS is certified to a
configurable eps (default 1e-40 at 256 bits) with an exact vanishing-factor
prescan so parity zeros stay exact.

A sweep evaluates each (params, n) point once: `_sides` is the one place that
sums an LHS and evaluates an RHS, `draw_params` screens a draw with the pairs
it computes and returns them, and `sweep` hands each exact record's pair to
`verify(..., sides=)`.  Approx-only records are screened at 128 bits, so
`sweep` hands `verify` only their exact LHS, and `verify` certifies the RHS
again at the sweep's precision and eps.

Square roots never appear at this layer: records are parameterized by the
square-root variables themselves (sa, sc, sqa, p), with a = sa^2, c = sc^2,
qa = sqa^2, q = p^2 as each formula requires.  Parameter names are part of
the public record contract (see each record's `param_names`).
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
)
from .qkernel import (
    ApproxScalar,
    EXACT_ONE,
    ExactScalar,
    I,
    qpoch_finite,
    qpoch_infinite,
    qpoch_list,
)
from .reporting import VerificationReport, compare_approx, compare_exact, value_str
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
    approx_only: bool = False
    structural_zero: Callable[[int], bool] = staticmethod(lambda n: False)
    note: str = ""


_REGISTRY: dict[str, IdentityRecord] = {}


def _register(rec: IdentityRecord):
    _REGISTRY[rec.id] = rec


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

def _frac(rng: random.Random, signed: bool = False) -> Fraction:
    num = rng.randint(1, 4)
    den = rng.randint(num + 1, 8)
    f = Fraction(num, den)
    if signed and rng.random() < 0.5:
        f = -f
    return f


def _frac_q(rng: random.Random) -> Fraction:
    den = rng.randint(3, 9)
    num = rng.randint(1, den - 1)
    return Fraction(num, den)


def _sampler(names: tuple, q_names: tuple = ("q", "p")) -> Callable:
    def draw(rng: random.Random) -> dict:
        return {
            name: (_frac_q(rng) if name in q_names else _frac(rng))
            for name in names
        }

    return draw


# --------------------------------------------------------------------------
# record definitions
# --------------------------------------------------------------------------

def _fh(n: int) -> int:  # floor(n/2)
    return n // 2


def _ch(n: int) -> int:  # floor((n+1)/2) = ceil(n/2)
    return (n + 1) // 2


def _andrews_watson_lhs(ps, n):
    q, sqa, sc = E(ps["q"]), E(ps["sqa"]), E(ps["sc"])
    a, c = sqa * sqa / q, sc * sc
    return SeriesSpec.make(
        [q**-n, q**n * a, sc, -sc], [sqa, -sqa, c], q, q, terminates_at=n
    )


def _andrews_watson_rhs(ps, n):
    if n % 2 == 1:
        return ExactScalar(0)
    q, sqa, sc = E(ps["q"]), E(ps["sqa"]), E(ps["sc"])
    qa, c = sqa * sqa, sc * sc
    m = n // 2
    return (
        sc**n
        * qpoch_list([q, qa / c], q * q, m)
        / qpoch_list([qa, q * c], q * q, m)
    )


_register(
    IdentityRecord(
        id="T_ANDREWS_WATSON",
        param_names=("q", "sqa", "sc"),
        balance=BalanceClass("balanced", 1),
        anchor="Andrews' q-analogue of terminating Watson 3F2(1); DLMF 17.7.9 / GR Ex. 2.8; a=sqa^2/q, c=sc^2",
        lhs_spec=_andrews_watson_lhs,
        rhs_value=_andrews_watson_rhs,
        sampler=_sampler(("q", "sqa", "sc")),
        structural_zero=lambda n: n % 2 == 1,
    )
)


def _product_quotient(pref, num_args, den_args, precision_bits, eps):
    """pref * prod (x; base)_inf over num_args / prod over den_args, each
    factor certified to eps: exact 0 when a numerator factor vanishes, and
    ZeroDivisionError when a denominator factor does."""
    num = ApproxScalar.coerce(pref, precision_bits)
    for x, base in num_args:
        v, _ = qpoch_infinite(x, base, eps, precision_bits)
        if v.is_zero():
            return ExactScalar(0)
        num = num * v
    den = ApproxScalar.coerce(1, precision_bits)
    for x, base in den_args:
        v, _ = qpoch_infinite(x, base, eps, precision_bits)
        if v.is_zero():
            raise ZeroDivisionError("infinite-product denominator vanishes")
        den = den * v
    return num / den


def _grw_lhs(ps, n):
    q, b, c = E(ps["q"]), E(ps["b"]), E(ps["c"])
    Q = q * q
    return SeriesSpec.make(
        [q ** (-2 * n), c, -(q ** (1 - n)) / b, q ** (1 - n) * b / c],
        [q ** (2 - 2 * n) / c, -(q ** (1 - n)) * b, q ** (1 - n) * c / b],
        Q,
        Q,
        terminates_at=n,
    )


def _grw_rhs(ps, n, precision_bits=256, eps=1e-40):
    q, b, c = E(ps["q"]), E(ps["b"]), E(ps["c"])
    Q, Q4 = q * q, (q * q) ** 2
    num_args = [
        (q ** (1 - n) * b, Q),
        (c * c, Q),
        (q ** (2 * n) * c, Q),
        (q ** (1 + n) * c / b, Q),
        (q ** (2 - 2 * n), Q4),
        (Q * b * b, Q4),
        (q ** (2 * n + 2) * c * c, Q4),
        (Q * c * c / (b * b), Q4),
    ]
    den_args = [
        (q ** (n + 1) * b, Q),
        (c, Q),
        (q ** (2 * n) * c * c, Q),
        (q ** (1 - n) * c / b, Q),
        (Q, Q4),
        (q ** (2 - 2 * n) * b * b, Q4),
        (Q * c * c, Q4),
        (q ** (2 * n + 2) * c * c / (b * b), Q4),
    ]
    return _product_quotient(1, num_args, den_args, precision_bits, eps / 32)


_register(
    IdentityRecord(
        id="T_GASPER_RAHMAN_WATSON",
        param_names=("q", "b", "c"),
        balance=BalanceClass("balanced", 1),
        anchor="balanced 4phi3 from Gasper-Rahman's nonterminating q-Watson sum (DLMF 17.7.8 via 17.9.16); base q^2",
        lhs_spec=_grw_lhs,
        rhs_value=_grw_rhs,
        sampler=_sampler(("q", "b", "c")),
        approx_only=True,
        structural_zero=lambda n: n % 2 == 1,
    )
)


def _bailey41_lhs(ps, n):
    q, a, b = E(ps["q"]), E(ps["a"]), E(ps["b"])
    return SeriesSpec.make(
        [q**-n, -(q ** (1 - n)) / (a * b), a, b],
        [-(a * b), q ** (1 - n) / a, q ** (1 - n) / b],
        q,
        q,
        terminates_at=n,
    )


def _bailey41_rhs(ps, n):
    if n % 2 == 1:
        return ExactScalar(0)
    q, a, b = E(ps["q"]), E(ps["a"]), E(ps["b"])
    m = n // 2
    return (
        qpoch_list([q, a * a, b * b], q * q, m)
        * qpoch_finite(a * b, q, n)
        / (qpoch_list([a, b], q, n) * qpoch_finite(a * a * b * b, q * q, m))
    )


_register(
    IdentityRecord(
        id="T_BAILEY41",
        param_names=("q", "a", "b"),
        balance=BalanceClass("balanced", 1),
        anchor="Bailey (1941) / Jackson (1941) balanced terminating 4phi3; GR Ex. 2.6",
        lhs_spec=_bailey41_lhs,
        rhs_value=_bailey41_rhs,
        sampler=_sampler(("q", "a", "b")),
        structural_zero=lambda n: n % 2 == 1,
    )
)


def _aw_e_lhs(ps, n):
    q, c, e = E(ps["q"]), E(ps["c"]), E(ps["e"])
    return SeriesSpec.make(
        [q**-n, q ** (n + 1), c, -c], [-q, e, q * c * c / e], q, q, terminates_at=n
    )


def _aw_e_rhs(ps, n, precision_bits=256, eps=1e-40):
    q, c, e = E(ps["q"]), E(ps["c"]), E(ps["e"])
    Q = q * q
    tops = (q**-n * e, q ** (n + 1) * e, q ** (1 - n) * c * c / e, q ** (n + 2) * c * c / e)
    num_args = [(x, Q) for x in tops]
    den_args = [(e, q), (q * c * c / e, q)]
    return _product_quotient(q ** ((n + 1) * n // 2), num_args, den_args, precision_bits, eps / 16)


_register(
    IdentityRecord(
        id="T_ANDREWS_WHIPPLE_E",
        param_names=("q", "c", "e"),
        balance=BalanceClass("balanced", 1),
        anchor="Andrews' q-analogue of terminating Whipple 3F2(1), product form; GR (II.19) / DLMF 17.7.11",
        lhs_spec=_aw_e_lhs,
        rhs_value=_aw_e_rhs,
        sampler=_sampler(("q", "c", "e")),
        approx_only=True,
    )
)


def _aw_c_lhs(ps, n):
    q, a, b = E(ps["q"]), E(ps["a"]), E(ps["b"])
    return SeriesSpec.make(
        [q**-n, q ** (n + 1), a, -a], [-q, b, q * a * a / b], q, q, terminates_at=n
    )


def _aw_c_rhs(ps, n):
    q, a, b = E(ps["q"]), E(ps["a"]), E(ps["b"])
    Q = q * q
    if n % 2 == 0:
        m = n // 2
        return (
            a**n
            * qpoch_list([Q / b, q * b / (a * a)], Q, m)
            / qpoch_list([q * b, Q * a * a / b], Q, m)
        )
    m = (n - 1) // 2
    return (
        q
        * (1 - b / q)
        * (1 - a * a / b)
        / ((1 - b) * (1 - q * a * a / b))
        * (-a) ** (n - 1)
        * qpoch_list([q**3 / b, Q * b / (a * a)], Q, m)
        / qpoch_list([Q * b, q**3 * a * a / b], Q, m)
    )


_register(
    IdentityRecord(
        id="T_ANDREWS_WHIPPLE_C",
        param_names=("q", "a", "b"),
        balance=BalanceClass("balanced", 1),
        anchor="Andrews' terminating q-Whipple sum, compact parity form",
        lhs_spec=_aw_c_lhs,
        rhs_value=_aw_c_rhs,
        sampler=_sampler(("q", "a", "b")),
    )
)


def _qbailey1_lhs(ps, n):
    q, a, b = E(ps["q"]), E(ps["a"]), E(ps["b"])
    Q = q * q
    return SeriesSpec.make(
        [q ** (-2 * n), q ** (2 * n) * b * b, a, q * a],
        [b, q * b, Q * a * a],
        Q,
        Q,
        terminates_at=n,
    )


def _qbailey1_rhs(ps, n):
    q, a, b = E(ps["q"]), E(ps["a"]), E(ps["b"])
    return a**n * qpoch_list([-q, b / a], q, n) / qpoch_list([-q * a, b], q, n)


_register(
    IdentityRecord(
        id="T_QBAILEY_1",
        param_names=("q", "a", "b"),
        balance=BalanceClass("balanced", 1),
        anchor="first q-analogue of Bailey's 4F3(1) sum; DLMF 17.7.12; base q^2",
        lhs_spec=_qbailey1_lhs,
        rhs_value=_qbailey1_rhs,
        sampler=_sampler(("q", "a", "b")),
    )
)


def _qbailey2_lhs(ps, n):
    q, a, b = E(ps["q"]), E(ps["a"]), E(ps["b"])
    Q = q * q
    return SeriesSpec.make(
        [q ** (-2 * n), q ** (2 * n - 2) * b * b, a, q * a],
        [b, q * b, a * a],
        Q,
        Q,
        terminates_at=n,
    )


def _qbailey2_rhs(ps, n):
    q, a, b = E(ps["q"]), E(ps["a"]), E(ps["b"])
    return (
        a**n
        * (1 - b * q ** (n - 1))
        * qpoch_list([-q, b / a], q, n)
        / ((1 - b * q ** (2 * n - 1)) * qpoch_list([-a, b], q, n))
    )


_register(
    IdentityRecord(
        id="T_QBAILEY_2",
        param_names=("q", "a", "b"),
        balance=BalanceClass("balanced", 1),
        anchor="second q-analogue of Bailey's 4F3(1) sum; DLMF 17.7.13; base q^2",
        lhs_spec=_qbailey2_lhs,
        rhs_value=_qbailey2_rhs,
        sampler=_sampler(("q", "a", "b")),
    )
)


def _qps_lhs(ps, n):
    q, a, b, c, d = (E(ps[k]) for k in ("q", "a", "b", "c", "d"))
    return SeriesSpec.make(
        [q**-n, q ** (n + 1) * a * a / (b * c * d), d],
        [q * a / b, q * a / c],
        q,
        q,
        terminates_at=n,
    )


def _qps_rhs(ps, n):
    q, a, b, c, d = (E(ps[k]) for k in ("q", "a", "b", "c", "d"))
    return (
        d**n
        * qpoch_list([q * a / (b * d), q * a / (c * d)], q, n)
        / qpoch_list([q * a / b, q * a / c], q, n)
    )


_register(
    IdentityRecord(
        id="T_QPFAFF_SAALSCHUTZ",
        param_names=("q", "a", "b", "c", "d"),
        balance=BalanceClass("balanced", 1),
        anchor="q-Pfaff-Saalschutz 3phi2 in the Jackson/Dougall reduction form; DLMF 17.7.4/17.7.14",
        lhs_spec=_qps_lhs,
        rhs_value=_qps_rhs,
        sampler=_sampler(("q", "a", "b", "c", "d")),
    )
)


def _gr214_lhs(ps, n):
    q, a, b = E(ps["q"]), E(ps["a"]), E(ps["b"])
    return SeriesSpec.make(
        [q**-n, b, a * a, q * a],
        [b * b * q ** (1 - n), q * a * a / b, a],
        q,
        q,
        terminates_at=n,
    )


def _gr214_rhs(ps, n):
    q, a, b = E(ps["q"]), E(ps["a"]), E(ps["b"])
    return (
        (1 + (a / b) * q**n)
        * qpoch_list([a * a / (b * b), 1 / b], q, n)
        / ((1 + a / b) * qpoch_list([q * a * a / b, 1 / (b * b)], q, n))
    )


_register(
    IdentityRecord(
        id="T_GR_EX214",
        param_names=("q", "a", "b"),
        balance=BalanceClass("balanced", 1),
        anchor="GR Exercise 2.14(i) with a -> a^2",
        lhs_spec=_gr214_lhs,
        rhs_value=_gr214_rhs,
        sampler=_sampler(("q", "a", "b")),
    )
)


def _gr3109_lhs(ps, n):
    q, a, b = E(ps["q"]), E(ps["a"]), E(ps["b"])
    return SeriesSpec.make(
        [q**-n, -b * q**-n, a * a, q * a],
        [a * b * q ** (1 - n), -a * q ** (1 - n), a],
        q,
        q,
        terminates_at=n,
    )


def _gr3109_rhs(ps, n):
    q, a, b = E(ps["q"]), E(ps["a"]), E(ps["b"])
    return (
        (q * a * a) ** (-n)
        * (1 - (a / b) * q ** (2 * n))
        * qpoch_list([q * a / b, -a], q, n)
        / ((1 - (a / b) * q**n) * qpoch_list([1 / (a * b), -1 / a], q, n))
    )


_register(
    IdentityRecord(
        id="T_GR_3109",
        param_names=("q", "a", "b"),
        balance=BalanceClass("balanced", 1),
        anchor="GR (3.10.9) with a -> a^2, w -> a b q^(1-n)",
        lhs_spec=_gr3109_lhs,
        rhs_value=_gr3109_rhs,
        sampler=_sampler(("q", "a", "b")),
    )
)


def _gr31010_lhs(ps, n):
    q, a, b = E(ps["q"]), E(ps["a"]), E(ps["b"])
    return SeriesSpec.make(
        [q**-n, -b * q ** (1 - n), a * b, b],
        [b * b * q ** (1 - n), -b * q**-n, q * a],
        q,
        q,
        terminates_at=n,
    )


def _gr31010_rhs(ps, n):
    q, a, b = E(ps["q"]), E(ps["a"]), E(ps["b"])
    return (
        (1 + 1 / b)
        * (1 - (a / b) * q ** (2 * n))
        * qpoch_list([a / b, 1 / b], q, n)
        / (
            (1 + q**n / b)
            * (1 - a / b)
            * qpoch_list([a * q, 1 / (b * b)], q, n)
        )
    )


_register(
    IdentityRecord(
        id="T_GR_31010",
        param_names=("q", "a", "b"),
        balance=BalanceClass("balanced", 1),
        anchor="GR (3.10.10) with a -> a b",
        lhs_spec=_gr31010_lhs,
        rhs_value=_gr31010_rhs,
        sampler=_sampler(("q", "a", "b")),
    )
)


def _bws_lhs(ps, n):
    q, a, b = E(ps["q"]), E(ps["a"]), E(ps["b"])
    Q = q * q
    return SeriesSpec.make(
        [q**-n, q ** (1 - n), a * a, a * a / (b * b)],
        [q ** (2 - 2 * n), a * a / b, q * a * a / b],
        Q,
        Q,
        terminates_at=n // 2,
    )


def _bws_rhs(ps, n):
    if n == 0:
        # the printed form gives 2 at n = 0; the empty sum is 1
        return EXACT_ONE
    q, a, b = E(ps["q"]), E(ps["a"]), E(ps["b"])
    return (
        qpoch_list([-a, a / b], q, n) + qpoch_list([a, -a / b], q, n)
    ) / qpoch_list([ExactScalar(-1), a * a / b], q, n)


_register(
    IdentityRecord(
        id="T_BW_SUM",
        param_names=("q", "a", "b"),
        balance=BalanceClass("balanced", 1),
        anchor="quadratic sum from the Berkovich-Warnaar transformation in the c -> 1 limit; base q^2",
        lhs_spec=_bws_lhs,
        rhs_value=_bws_rhs,
        sampler=_sampler(("q", "a", "b")),
        note="not an n-th order Askey-Wilson value with n-free parameters; verified standalone",
    )
)


def _bwt_lhs(ps, n):
    q, a, b, c = (E(ps[k]) for k in ("q", "a", "b", "c"))
    return SeriesSpec.make(
        [q**-n, b, c, -c],
        [-(q ** (1 - n)) * b / a, a, c * c],
        q,
        q,
        terminates_at=n,
    )


def _bwt_rhs(ps, n):
    q, a, b, c = (E(ps[k]) for k in ("q", "a", "b", "c"))
    Q = q * q
    pref = (
        qpoch_finite(a * a / b, q, n)
        * qpoch_finite(c * c, Q, n)
        / (qpoch_list([-a / b, a, c * c], q, n))
    )
    inner = SeriesSpec.make(
        [q**-n, q ** (1 - n), a * a / (b * b), a * a / (c * c)],
        [q ** (2 - 2 * n) / (c * c), a * a / b, q * a * a / b],
        Q,
        Q,
        terminates_at=n // 2,
    )
    return pref * eval_phi_terminating(inner)


_register(
    IdentityRecord(
        id="T_BW_TRANSFORM",
        param_names=("q", "a", "b", "c"),
        balance=BalanceClass("balanced", 1),
        anchor="Berkovich-Warnaar 4phi3 transformation (sum-vs-sum equality)",
        lhs_spec=_bwt_lhs,
        rhs_value=_bwt_rhs,
        sampler=_sampler(("q", "a", "b", "c")),
    )
)


def _n2_lhs(ps, n):
    q, sa, sc = E(ps["q"]), E(ps["sa"]), E(ps["sc"])
    a, c = sa * sa, sc * sc
    return SeriesSpec.make(
        [q**-n, q**n * a, sc, -sc], [q * c, sa, -sa], q, q, terminates_at=n
    )


def _n2_rhs(ps, n):
    q, sa, sc = E(ps["q"]), E(ps["sa"]), E(ps["sc"])
    a, c = sa * sa, sc * sc
    h = _ch(n)
    return (
        c**h * qpoch_list([q, a / c], q * q, h) / qpoch_list([a, q * c], q * q, h)
    )


_register(
    IdentityRecord(
        id="T_NEW_N2",
        param_names=("q", "sa", "sc"),
        balance=BalanceClass("balanced", 1),
        anchor="quadratic balanced terminating 4phi3 summation, plain-root form; a=sa^2, c=sc^2",
        lhs_spec=_n2_lhs,
        rhs_value=_n2_rhs,
        sampler=_sampler(("q", "sa", "sc")),
    )
)


def _n1_lhs(ps, n):
    q, sa, sc = E(ps["q"]), E(ps["sa"]), E(ps["sc"])
    a, c = sa * sa, sc * sc
    return SeriesSpec.make(
        [q**-n, q**n * a, q * sc, -q * sc],
        [q * c, q * sa, -q * sa],
        q,
        q,
        terminates_at=n,
    )


def _n1_rhs(ps, n):
    q, sa, sc = E(ps["q"]), E(ps["sa"]), E(ps["sc"])
    a, c = sa * sa, sc * sc
    h = _ch(n)
    return (
        (-q) ** n
        * c**h
        * (1 - a)
        / (1 - q ** (2 * n) * a)
        * qpoch_list([q, a / c], q * q, h)
        / qpoch_list([a, q * c], q * q, h)
    )


_register(
    IdentityRecord(
        id="T_NEW_N1",
        param_names=("q", "sa", "sc"),
        balance=BalanceClass("balanced", 1),
        anchor="quadratic balanced terminating 4phi3 summation, q-shifted-root form; a=sa^2, c=sc^2",
        lhs_spec=_n1_lhs,
        rhs_value=_n1_rhs,
        sampler=_sampler(("q", "sa", "sc")),
    )
)


def _n5_lhs(ps, n):
    q, sa, sc = E(ps["q"]), E(ps["sa"]), E(ps["sc"])
    a, c = sa * sa, sc * sc
    return SeriesSpec.make(
        [q**-n, q ** (n + 1) * a, sc, -sc],
        [q * q * c, sa, -sa],
        q,
        q,
        terminates_at=n,
    )


def _n5_rhs(ps, n):
    q, sa, sc = E(ps["q"]), E(ps["sa"]), E(ps["sc"])
    a, c = sa * sa, sc * sc
    h = _ch(n)
    Q = q * q
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


_register(
    IdentityRecord(
        id="T_NEW_N5",
        param_names=("q", "sa", "sc"),
        balance=BalanceClass("balanced", 1),
        anchor="esoteric quadratic balanced terminating 4phi3, complete product for odd n; a=sa^2, c=sc^2",
        lhs_spec=_n5_lhs,
        rhs_value=_n5_rhs,
        sampler=_sampler(("q", "sa", "sc")),
    )
)


def _n3_lhs(ps, n):
    q, sqa, sc = E(ps["q"]), E(ps["sqa"]), E(ps["sc"])
    a, c = sqa * sqa / q, sc * sc
    return SeriesSpec.make(
        [q**-n, q**n * a, sc, -sc], [sqa, -sqa, q * c], q, q, terminates_at=n
    )


def _n3_rhs(ps, n):
    q, sqa, sc = E(ps["q"]), E(ps["sqa"]), E(ps["sc"])
    a, c = sqa * sqa / q, sc * sc
    h = _ch(n)
    Q = q * q
    return (
        c**h
        * qpoch_finite(q, Q, h)
        * qpoch_finite(q * a / c, Q, n // 2)
        / (qpoch_finite(q * a, Q, n // 2) * qpoch_finite(q * c, Q, h))
    )


_register(
    IdentityRecord(
        id="T_NEW_N3",
        param_names=("q", "sqa", "sc"),
        balance=BalanceClass("balanced", 2),
        anchor="quadratic 2-balanced terminating 4phi3 summation; qa=sqa^2, c=sc^2",
        lhs_spec=_n3_lhs,
        rhs_value=_n3_rhs,
        sampler=_sampler(("q", "sqa", "sc")),
    )
)


def _n4_lhs(ps, n):
    q, sa, sc = E(ps["q"]), E(ps["sa"]), E(ps["sc"])
    a, c = sa * sa, sc * sc
    return SeriesSpec.make(
        [q**-n, q**n * a, sc, -sc], [q * sa, -q * sa, c], q, q, terminates_at=n
    )


def _n4_rhs(ps, n):
    q, sa, sc = E(ps["q"]), E(ps["sa"]), E(ps["sc"])
    a, c = sa * sa, sc * sc
    h = _ch(n)
    Q = q * q
    return (
        (q**n * a) ** n
        * (q ** (-2 * n) * c / (a * a)) ** (n // 2)
        * (1 - a)
        / (1 - a * q ** (2 * n))
        * qpoch_finite(q, Q, h)
        * qpoch_finite(Q * a / c, Q, n // 2)
        / (qpoch_finite(a, Q, h) * qpoch_finite(q * c, Q, n // 2))
    )


_register(
    IdentityRecord(
        id="T_NEW_N4",
        param_names=("q", "sa", "sc"),
        balance=BalanceClass("balanced", 2),
        anchor="quadratic 2-balanced terminating 4phi3 summation; a=sa^2, c=sc^2",
        lhs_spec=_n4_lhs,
        rhs_value=_n4_rhs,
        sampler=_sampler(("q", "sa", "sc")),
    )
)


def _n8_lhs(ps, n):
    q, sa, sc = E(ps["q"]), E(ps["sa"]), E(ps["sc"])
    a, c = sa * sa, sc * sc
    return SeriesSpec.make(
        [q**-n, q ** (n - 1) * a, q * sc, -q * sc],
        [q * sa, -q * sa, q * c],
        q,
        q,
        terminates_at=n,
    )


def _n8_rhs(ps, n):
    q, sa, sc = E(ps["q"]), E(ps["sa"]), E(ps["sc"])
    a, c = sa * sa, sc * sc
    h = _ch(n)
    Q = q * q
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


_register(
    IdentityRecord(
        id="T_NEW_N8",
        param_names=("q", "sa", "sc"),
        balance=BalanceClass("balanced", 2),
        anchor="esoteric quadratic 2-balanced terminating 4phi3; a=sa^2, c=sc^2",
        lhs_spec=_n8_lhs,
        rhs_value=_n8_rhs,
        sampler=_sampler(("q", "sa", "sc")),
    )
)


def _n7_lhs(ps, n):
    q, sa, sc = E(ps["q"]), E(ps["sa"]), E(ps["sc"])
    a, c = sa * sa, sc * sc
    return SeriesSpec.make(
        [q**-n, q ** (n - 1) * a, sc, -sc],
        [q * sa, -q * sa, c],
        q,
        q,
        terminates_at=n,
    )


def _n7_rhs(ps, n):
    q, sa, sc = E(ps["q"]), E(ps["sa"]), E(ps["sc"])
    a, c = sa * sa, sc * sc
    h = _ch(n)
    Q = q * q
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


_register(
    IdentityRecord(
        id="T_NEW_N7",
        param_names=("q", "sa", "sc"),
        balance=BalanceClass("balanced", 3),
        anchor="quadratic 3-balanced terminating 4phi3, complete product for odd n; a=sa^2, c=sc^2",
        lhs_spec=_n7_lhs,
        rhs_value=_n7_rhs,
        sampler=_sampler(("q", "sa", "sc")),
    )
)


def _n6_lhs(ps, n):
    p, sc = E(ps["p"]), E(ps["sc"])
    q = p * p
    c = sc * sc
    root = I * p ** (3 - 2 * n)
    return SeriesSpec.make(
        [q**-n, -(q**-n), sc, -sc], [root, -root, c], q, q, terminates_at=n
    )


def _n6_rhs(ps, n):
    p, sc = E(ps["p"]), E(ps["sc"])
    q = p * p
    c = sc * sc
    h = _ch(n)
    fh = n // 2
    Q = q * q
    return (
        ExactScalar(-1) ** n
        * (1 + q ** (1 - 2 * n))
        / (1 + q)
        * qpoch_finite(q, Q, h)
        * qpoch_finite(-(q ** (1 + 2 * fh)) * c, Q, fh)
        / (qpoch_finite(q * c, Q, fh) * qpoch_finite(-(q ** (1 + 2 * h)), Q, fh))
    )


_register(
    IdentityRecord(
        id="T_NEW_N6",
        param_names=("p", "sc"),
        balance=BalanceClass("balanced", 3),
        anchor="quadratic 3-balanced terminating 4phi3 with completely factored RHS; q=p^2, c=sc^2",
        lhs_spec=_n6_lhs,
        rhs_value=_n6_rhs,
        sampler=_sampler(("p", "sc")),
        note="specializes the 3-balanced sum T_NEW_N7 at a = -q^(1-2n)",
    )
)


def _sears_lhs(ps, n):
    q, a, b, c, d, e = (E(ps[k]) for k in ("q", "a", "b", "c", "d", "e"))
    f = a * b * c * q ** (1 - n) / (d * e)
    return SeriesSpec.make([q**-n, a, b, c], [d, e, f], q, q, terminates_at=n)


def _sears_rhs(ps, n):
    q, a, b, c, d, e = (E(ps[k]) for k in ("q", "a", "b", "c", "d", "e"))
    f = a * b * c * q ** (1 - n) / (d * e)
    pref = (
        qpoch_list([e / a, f / a], q, n) / qpoch_list([e, f], q, n) * a**n
    )
    inner = SeriesSpec.make(
        [q**-n, a, d / b, d / c],
        [d, a * q ** (1 - n) / e, a * q ** (1 - n) / f],
        q,
        q,
        terminates_at=n,
    )
    return pref * eval_phi_terminating(inner)


_register(
    IdentityRecord(
        id="X_SEARS",
        param_names=("q", "a", "b", "c", "d", "e"),
        balance=BalanceClass("balanced", 1),
        anchor="Sears' balanced terminating 4phi3 transformation; DLMF 17.9.14 (f fixed by the balance condition)",
        lhs_spec=_sears_lhs,
        rhs_value=_sears_rhs,
        sampler=_sampler(("q", "a", "b", "c", "d", "e")),
    )
)


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------

DEFAULT_APPROX_EPS = 1e-40
DEFAULT_PRECISION_BITS = 256


def _sides(rec: IdentityRecord, params: dict, n: int, precision_bits: int, eps: float, lhs=None):
    """(lhs, rhs) at one point: the exact LHS sum (unless given) and the RHS
    closed form, which approx-only records certify to eps at precision_bits."""
    if lhs is None:
        lhs = eval_phi_terminating(rec.lhs_spec(params, n))
    if rec.approx_only:
        return lhs, rec.rhs_value(params, n, precision_bits=precision_bits, eps=eps)
    return lhs, rec.rhs_value(params, n)


# the precision of the constraint and accidental-zero screens on approx-only RHS
_SCREEN_BITS, _SCREEN_EPS = 128, 1e-10


def constraints(identity_id: str, params: dict, n: int) -> Optional[str]:
    """None if (params, n) is valid; otherwise the violated predicate's name."""
    try:
        _sides(lookup(identity_id), params, n, _SCREEN_BITS, _SCREEN_EPS)
    except ZeroDivisionError:
        return "closed-form denominator nonzero"
    except PoleError as exc:
        return f"series pole absent ({exc})"
    except DomainError as exc:
        return f"domain ({exc})"
    return None


def verify(
    identity_id: str,
    params: dict,
    n: int,
    mode: str = "exact",
    eps: float = 0.0,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    *,
    sides: Optional[tuple] = None,
) -> VerificationReport:
    """Check one identity at one exact parameter point.

    Exact records compare with strict equality; approx-only records certify
    the RHS infinite products to eps (default 1e-40) and compare relatively.
    `sides` is the (lhs, rhs) pair already evaluated at this point, as
    `draw_params` returns it; when given, neither side is evaluated again,
    except an rhs of None, which is evaluated at precision_bits and eps.
    """
    rec = lookup(identity_id)
    if rec.approx_only and mode == "exact":
        raise DomainError(f"{identity_id} is approx-only (its RHS has infinite products)")
    if not rec.approx_only and mode not in ("exact",):
        mode = "exact"  # exact records are strictly exact; approx adds nothing

    try:
        lhs, rhs = sides or (None, None)
        if rhs is None:
            lhs, rhs = _sides(rec, params, n, precision_bits, eps or DEFAULT_APPROX_EPS, lhs)
    except ZeroDivisionError as exc:
        raise ConstraintViolation(
            f"{identity_id}: closed-form denominator vanishes at {params}, n={n}",
            predicate="closed-form denominator nonzero",
        ) from exc
    except PoleError as exc:
        raise ConstraintViolation(
            f"{identity_id}: {exc}", predicate="series pole absent"
        ) from exc

    if isinstance(rhs, ExactScalar) and not rec.approx_only:
        passed, abs_err, rel_err = compare_exact(lhs, rhs)
        degenerate = lhs.is_zero() and rhs.is_zero()
        used_mode = "exact"
    else:
        if isinstance(rhs, ExactScalar):
            # exact zero detected inside an approx-only RHS
            passed = lhs.is_zero() and rhs.is_zero()
            abs_err = 0.0 if passed else lhs.abs_upper()
            rel_err = abs_err
            degenerate = passed
            used_mode = "approx"
        else:
            lhs_a = lhs.to_approx(precision_bits)
            passed, abs_err, rel_err = compare_approx(lhs_a, rhs, eps or DEFAULT_APPROX_EPS)
            degenerate = lhs.is_zero() and rhs.is_zero()
            used_mode = "approx"

    return VerificationReport(
        identity_id=identity_id,
        params={k: value_str(E(v)) for k, v in sorted(params.items())},
        n=n,
        mode=used_mode,
        lhs=value_str(lhs),
        rhs=value_str(rhs),
        abs_err=abs_err,
        rel_err=rel_err,
        passed=passed,
        degenerate=degenerate,
    )


def draw_params(
    rec: IdentityRecord, rng: random.Random, n_values: Iterable[int]
) -> tuple[dict, dict]:
    """Constraint-filtered deterministic draw from the record's sampler.

    Returns the accepted parameters and, for each n, the (lhs, rhs) pair the
    screens evaluated (approx-only RHS at the screens' 128 bits)."""
    n_values = list(n_values)
    for _ in range(1000):
        ps = rec.sampler(rng)
        pairs = {}
        for n in n_values:
            try:
                pairs[n] = _sides(rec, ps, n, _SCREEN_BITS, _SCREEN_EPS)
            except (ZeroDivisionError, PoleError, DomainError):
                break
            # reject draws that produce accidental (non-structural) zeros
            rhs = pairs[n][1]
            is_zero = rhs.is_zero() if isinstance(rhs, (ExactScalar, ApproxScalar)) else False
            if is_zero != rec.structural_zero(n):
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
    eps: float = 0.0,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> list[VerificationReport]:
    """Deterministic seeded sweep: `trials` parameter points, each n in range."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    rec = lookup(identity_id)
    rng = random.Random(seed)
    n_values = list(n_range)
    mode = "approx" if rec.approx_only else "exact"
    reports = []
    for _ in range(trials):
        ps, pairs = draw_params(rec, rng, n_values)
        for n in n_values:
            lhs, rhs = pairs[n]
            # approx-only records certify their RHS again at the sweep's precision and eps
            sides = (lhs, None if rec.approx_only else rhs)
            reports.append(
                verify(identity_id, ps, n, mode=mode, eps=eps, precision_bits=precision_bits,
                       sides=sides)
            )
    return reports


def elementary_identity_check(kind: str, params: dict) -> VerificationReport:
    """The two proof-level elementary identities (exact).

    ELID:  (1-q^(-n-1))(1-q^(n+k) a) / ((1-q^(-n-1+k))(1-q^n a))
           = 1 - q^(-n-1) (1-q^k)(1-q^(2n+1) a) / ((1-q^(-n-1+k))(1-q^n a))
    ELID2: (1-c)/(1-q^k c) = 1 - c (1-q^k)/(1-q^k c)
    """
    if kind == "ELID":
        q, a = E(params["q"]), E(params["a"])
        n, k = params["n"], params["k"]
        lhs = ((1 - q ** (-n - 1)) * (1 - q ** (n + k) * a)) / (
            (1 - q ** (-n - 1 + k)) * (1 - q**n * a)
        )
        rhs = 1 - q ** (-n - 1) * (1 - q**k) * (1 - q ** (2 * n + 1) * a) / (
            (1 - q ** (-n - 1 + k)) * (1 - q**n * a)
        )
        shown = {"q": value_str(E(params["q"])), "a": value_str(E(params["a"])), "n": str(n), "k": str(k)}
    elif kind == "ELID2":
        c, q = E(params["c"]), E(params["q"])
        k = params["k"]
        lhs = (1 - c) / (1 - q**k * c)
        rhs = 1 - c * (1 - q**k) / (1 - q**k * c)
        shown = {"c": value_str(E(params["c"])), "q": value_str(E(params["q"])), "k": str(k)}
    else:
        raise DomainError(f"unknown elementary identity kind {kind!r}")
    passed, abs_err, rel_err = compare_exact(lhs, rhs)
    return VerificationReport(
        identity_id=kind,
        params=shown,
        n=params.get("n"),
        mode="exact",
        lhs=value_str(lhs),
        rhs=value_str(rhs),
        abs_err=abs_err,
        rel_err=rel_err,
        passed=passed,
        degenerate=lhs.is_zero() and rhs.is_zero(),
    )


APPROX_ONLY_IDS = tuple(r.id for r in _REGISTRY.values() if r.approx_only)
EXACT_IDS = tuple(sorted(r.id for r in _REGISTRY.values() if not r.approx_only))
