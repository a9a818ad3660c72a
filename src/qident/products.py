"""Generating-function identities and nonterminating product transformations.

Each of the 18 product identities is one row of ``_ROWS``, read by
``verify_product``.  The rows of the generating function (AWGF), the twelve
product transformations and the two Cayley-Orr lemmas also hold their sides as
data, built from the exact parameters by ``product_sides``: a side is a sum of
terms prefactor * z^k * a product of r-phi-s factors (``Phi``), or, for a
lemma's right side, such a sum weighted coefficient by coefficient
(``Weighted``).  The sides are read by ``side_value`` (certified values),
``side_series`` (exact power series), the value checks' term tables and the
contour integrals.  ``product_coefficient_check`` is the one exact z^0..z^N
check of a row with sides: it compares both tabled sides of the 14
COEFF_CHECK_IDS, and for AWGF, whose right side p_n / (q, ab, cd; q)_n comes
from ``eval_aw``, it runs ``awgf_coefficient_check``.  Identities whose
displays contain q^(1/2) take the square root p as the parameter, with q =
p^2, so every exponent stays integral.  The five classical limits are a table
of rFs products (``_classical_sides``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .askey_wilson import AWParams, eval_aw
from .errors import (DivergenceError, DomainError, UnknownIdentity, ZeroArgument, check_eps,
                     check_names)
from .powerseries import PowerSeriesTrunc, phi_series_coeffs
from .qkernel import (
    _GUARD_BITS,
    DEFAULT_PRECISION_BITS,
    ApproxScalar,
    EXACT_ONE,
    ExactScalar,
    QBase,
    _approx,
    _fabs,
    _fx,
    _mul,
    _product_quotient,
)
from .reporting import VerificationReport, compare_approx, make_report, matched
from .series import (
    SeriesSpec,
    _cauchy_terms,
    _phi_terms,
    _poch_majorant,
    _Table,
    _weight_sup,
    _weighted_cauchy,
    certified_sum,
    eval_phi_nonterminating,
    eval_qappell_phi1,
    eval_rfs,
)

E = ExactScalar.coerce

CLASSICAL_IDS = ("CLAUSEN", "ORR_A", "ORR_B", "BAILEY_211", "COR_3F2")

# value checks refuse |z| beyond this, well inside every series' disc of convergence
SAFETY_RADIUS = 0.25


def _coefficient_report(
    identity_id: str, params: dict, lhs_desc: str, rhs_desc: str, got, expected, n_max: int,
    note: str = "", at: str = "degree ",
) -> VerificationReport:
    """The exact report of got[n] == expected(n) for n = 0..n_max.  A failing
    report's note names the first mismatching n, as "first mismatch at " + at + n."""
    bad = next((n for n in range(n_max + 1) if got[n] != expected(n)), None)
    if bad is not None:
        note = "; ".join(filter(None, (note, f"first mismatch at {at}{bad}")))
    return make_report(
        identity_id, params, lhs_desc, rhs_desc, matched(bad is None), mode="exact", n=n_max,
        note=note,
    )


# --------------------------------------------------------------------------
# generating function (coefficient level, exact)
# --------------------------------------------------------------------------

def awgf_coefficient_check(a, b, c, d, w, q, n_max: int) -> VerificationReport:
    """t^n coefficients of 2phi1(aw,bw;ab;q,t/w) 2phi1(c/w,d/w;cd;q,tw)
    against p_n(x;a,b,c,d|q)/(q,ab,cd;q)_n, exactly, through n_max."""
    a, b, c, d, w, q = (E(v) for v in (a, b, c, d, w, q))
    ab, cd = a * b, c * d
    params = {"a": a, "b": b, "c": c, "d": d, "w": w, "q": q}
    product = side_series(product_sides("AWGF", params)[0], n_max)
    qb = QBase.of(q)
    dens, qk = [EXACT_ONE], EXACT_ONE  # (q, ab, cd; q)_n as one running product
    for _ in range(n_max):
        dens.append(dens[-1] * (1 - q * qk) * (1 - ab * qk) * (1 - cd * qk))
        qk = qk * q

    def expected(n):
        return eval_aw(AWParams.make(a, b, c, d, qb, w, n), "CONV") / dens[n]

    return _coefficient_report(
        "AWGF", params, f"t^0..t^{n_max} product coefficients", "p_n/(q,ab,cd;q)_n",
        product.coeffs, expected, n_max, at="n=",
    )


# --------------------------------------------------------------------------
# triple and quadruple sums (two weighted Cauchy products)
# --------------------------------------------------------------------------

def _triple_sum_engine(u, t, w, a, b, c, d, q, eps, pb):
    """sum over n,k,l of the shifted-parameter Askey-Wilson triple sum with
    weight t^n u^(k+l): the generating-function extension, and at u = t the
    closed-form quadruple sum; the parameters are exact, with |u| < min(|a|, |c|)
    and |t| < min(|w|, 1/|w|).

    The convolution form of p_n(x; q^k a, b, q^l c, d | q) makes the k- and
    l-sums depend only on the split index j, and t^n w^(n-2j) = (t/w)^j
    (tw)^(n-j), so after exact Pochhammer index splitting the triple sum is X Y:
        X = sum_j (t/w)^j (bw;q)_j/(q;q)_j KA(j),  Y = sum_i (tw)^i (d/w;q)_i/(q;q)_i KC(i),
        KA(j) = sum_k (u/a)^k (a/w;q)_k (aw;q)_(k+j) / ((q;q)_k (ab;q)_(k+j)),
        KC(i) = sum_l (u/c)^l (cw;q)_l (c/w;q)_(l+i) / ((q;q)_l (cd;q)_(l+i)),
    an absolutely convergent reordering of the displayed sum, not a different
    identity.  Summed over j + k, X is a weighted Cauchy product of two 1phi0
    series (series._weighted_cauchy), and so is Y.  |X| <= M_X = sup |(aw;q)_i
    / (ab;q)_i| times both 1phi0 majorants (series._poch_majorant), and so for
    Y; X is certified to eps / (4 max(1, M_Y)) and Y to eps / (4 max(1, M_X)),
    absolutely, so X Y is off by at most eps/2 + eps^2/16.  Returns the value
    at pb + 20 bits and the number of diagonals summed.
    """
    wp = pb + _GUARD_BITS
    Q = _fabs(_fx(q, wp), wp)

    def majorant(heads, weight):  # the factor's terms' moduli, summed
        m = _weight_sup(weight, q, wp)
        for f, r in heads:
            fm, rm = (_fabs(_fx(x, wp), wp) for x in (f, r))
            m *= _poch_majorant(fm * rm, rm, Q)
        return m

    # X: W[j] = (bw;q)_j (t/w)^j / (q;q)_j and H[k] = (a/w;q)_k (u/a)^k / (q;q)_k,
    # weighted by (aw;q)_i / (ab;q)_i at i = j + k; Y likewise
    X = (((b * w, t / w), (a / w, u / a)), (a * w, a * b))
    Y = (((d / w, t * w), (c * w, u / c)), (c / w, c * d))
    (x, cx), (y, cy) = (
        _weighted_cauchy(*(_Table(_phi_terms([f], [], q, r, wp)) for f, r in heads), weight, q,
                         eps / (4 * max(1.0, majorant(*other))), pb, absolute=True)
        for (heads, weight), other in ((X, Y), (Y, X)))
    return _approx(_mul(x, y, wp), wp, pb + 20), cx.terms_used + cy.terms_used


def _triple_value(P: dict, eps: float, pb: int) -> tuple:
    """Product of the two extra-parameter 3phi2 series against the
    prefactored triple sum over shifted-parameter Askey-Wilson values."""
    u, w, t, a, b, c, d, q = (P[k] for k in "uwtabcdq")
    lhs_side = _plain(
        Phi([u / t, a * w, b * w], [a * b, u * w], q, 1 / w),
        Phi([u / t, c / w, d / w], [c * d, u / w], q, w),
    )
    lhs, lhs_terms = side_value(lhs_side, t, eps / 8, pb)
    qb = QBase.of(q)
    triple, terms = _triple_sum_engine(u, t, w, a, b, c, d, q, eps / 8, pb)
    rhs = triple * _product_quotient([(u / a, qb), (u / c, qb)], [(u * w, qb), (u / w, qb)],
                                     pb, eps / 32)
    return lhs, rhs, lhs_terms + terms


def _quad_value(P: dict, eps: float, pb: int) -> tuple:
    """The quadruple sum (the triple sum at u = t) against (t w^+-; q)_inf / (t/a, t/c; q)_inf."""
    t, w, a, b, c, d, q = (P[k] for k in "twabcdq")
    qb = QBase.of(q)
    quad, terms = _triple_sum_engine(t, t, w, a, b, c, d, q, eps / 8, pb)
    rhs = _product_quotient([(t * w, qb), (t / w, qb)], [(t / a, qb), (t / c, qb)], pb, eps / 32)
    return ApproxScalar(quad.value, pb), rhs, terms


# --------------------------------------------------------------------------
# product transformations as data
# --------------------------------------------------------------------------

class Phi(NamedTuple):
    """r-phi-s(upper; lower; base, zscale * z), or zscale * z^2 when squared."""

    upper: list
    lower: list
    base: ExactScalar
    zscale: ExactScalar = EXACT_ONE
    squared: bool = False


class Weighted(NamedTuple):
    """The side whose z^n coefficient is that of the weight times that of the
    terms: a coefficient-wise (Hadamard) product, as each Cayley-Orr lemma
    weights its auxiliary coefficients a_n."""

    weight: Phi
    terms: list


# A side is a list of terms (prefactor | None, power of z, [Phi, ...]): the sum
# over terms of prefactor * z^power * the product of the Phi factors.  A None
# prefactor always comes with power 0.  A Weighted side weights such a list.


def _plain(*factors):
    """A side of one term without prefactor."""
    return [(None, 0, list(factors))]


def _sq(upper, lower, base):
    return Phi(upper, lower, base, squared=True)


def _over(num, *factors):
    """num over the product of factors, each a pair (value, its text); a
    ZeroDivisionError naming each factor that vanishes."""
    zeros = [f"{text} = 0" for value, text in factors if value.is_zero()]
    if zeros:
        raise ZeroDivisionError(f"a prefactor's denominator vanishes: {', '.join(zeros)}")
    return num / math.prod((value for value, _ in factors), start=EXACT_ONE)


def _schlosser_t4(q, a, b):
    Q = q * q
    lhs = _plain(Phi([a, q / a], [-q], q), Phi([b, q / b], [-q], q, -EXACT_ONE))
    rhs = [
        (None, 0, [_sq([a * b, Q / (a * b), q * a / b, q * b / a], [-Q, q, -q], Q)]),
        ((b - a) * (1 - q / (a * b)) / (1 - Q), 1, [
            _sq([q * a * b, q * Q / (a * b), Q * a / b, Q * b / a], [-Q, q**3, -(q**3)], Q)
        ]),
    ]
    return lhs, rhs


def _sriv_jain(q, a, b):
    Q, ab = q * q, a * b
    lhs = _plain(Phi([a, -a], [a * a], q), Phi([b, -b], [b * b], q, -EXACT_ONE))
    rhs = _plain(_sq([ab, -ab, q * ab, -q * ab], [q * a * a, q * b * b, ab * ab], Q))
    return lhs, rhs


def _jackson_clausen(p, a, b):
    q, A, B, ab = p * p, a * a, b * b, a * b
    Q = q * q
    lhs = _plain(Phi([A, B], [q * A * B], Q), Phi([A, B], [q * A * B], Q, q))
    return lhs, _plain(Phi([A, B, ab, -ab], [A * B, p * ab, -p * ab], q))


def _nassrallah_1(p, a, b):
    q, A, B, ab = p * p, a * a, b * b, a * b
    Q = q * q
    lhs = _plain(Phi([A, B], [A * B / q], Q), Phi([A, B], [q * A * B], Q, q))
    return lhs, _plain(Phi([A, B, ab, -ab], [A * B / q, p * ab, -p * ab], q))


def _nassrallah_2(p, a, b):
    q, A, B, ab = p * p, a * a, b * b, a * b
    Q = q * q
    lhs = _plain(Phi([q * A, q * B], [q * A * B], Q), Phi([A / q, q * B], [q * A * B], Q, q))
    return lhs, _plain(Phi([A, q * B, ab, -ab], [A * B, p * ab, -p * ab], q))


def _thm21(p, a, b):
    q, A, B, ab = p * p, a * a, b * b, a * b
    Q = q * q
    lhs = _plain(Phi([q * A, q * B], [q * A * B], Q), Phi([A / q, B / q], [A * B / q], Q, q))
    return lhs, _plain(Phi([A, B, ab, -ab], [A * B / q, p * ab, -p * ab], q))


def _trivial_21_32(p, a):
    q = p * p
    Q = q * q
    return _plain(Phi([Q, a * a], [q * a * a], Q)), _plain(Phi([q, a, -a], [p * a, -p * a], q))


def _srivastava_313(q, a, b):
    Q, ab = q * q, a * b
    lhs = _plain(Phi([a, b], [-ab], q), Phi([a, b], [-ab], q, -EXACT_ONE))
    rhs = _plain(_sq([ab, q * ab, a * a, b * b], [-ab, -q * ab, ab * ab], Q))
    return lhs, rhs


def _t515(q, a, c):
    Q, A, C, ac = q * q, a * a, c * c, a * c
    lhs = _plain(Phi([-c, q * c], [q * C], q), Phi([a, -a], [A], q, -EXACT_ONE))
    rhs = [
        (None, 0, [_sq([ac, -ac, q * ac, -q * ac], [q * A, q * C, A * C], Q)]),
        (_over(c, (1 - q * C, "1 - q c^2")), 1, [
            _sq([q * ac, -q * ac, Q * ac, -Q * ac], [q * A, q**3 * C, Q * A * C], Q)
        ]),
    ]
    return lhs, rhs


def _t516(q, a, c):
    Q, A, C, ac = q * q, a * a, c * c, a * c
    lhs = _plain(Phi([-a, -c], [-ac], q), Phi([-a, -q * c], [-q * ac], q, -EXACT_ONE))
    rhs = [
        (None, 0, [_sq([A, Q * C, ac, q * ac], [-q * ac, -Q * ac, A * C], Q)]),
        (_over(c * (1 - A), (1 + ac, "1 + ac"), (1 + q * ac, "1 + q ac")), 1, [
            _sq([Q * A, Q * C, q * ac, Q * ac], [-Q * ac, -(q**3) * ac, Q * A * C], Q)
        ]),
    ]
    return lhs, rhs


def _t517(q, a, c):
    Q, A, C, ac = q * q, a * a, c * c, a * c
    lhs = _plain(Phi([-c, Q * c], [Q * C], q), Phi([a, -a], [A], q, -EXACT_ONE))
    den = (1 - Q * C, "1 - q^2 c^2"), (1 - A * C, "1 - a^2 c^2")
    rhs = [
        (_over(c * (1 + q), den[0]), 1, [
            _sq([q * ac, -q * ac, Q * ac, -Q * ac], [q * A, q**3 * C, Q * A * C], Q)
        ]),
        (_over((1 - q * C) * (1 - q * A * C), *den), 0, [_sq(
            [q**3 * A * C, ac, -ac, q * ac, -q * ac], [q * A, q * C, q * A * C, Q * A * C], Q
        )]),
        (_over(q * C * (1 - q) * (1 - A / q), *den), 0, [
            _sq([q**3, ac, -ac, q * ac, -q * ac], [q, A / q, q**3 * C, Q * A * C], Q)
        ]),
    ]
    return lhs, rhs


def _t518(q, a, c):
    Q, A, C, ac = q * q, a * a, c * c, a * c
    lhs = _plain(Phi([-a, -c], [-ac], q), Phi([-a, -Q * c], [-Q * ac], q, -EXACT_ONE))
    den = (1 - Q * C, "1 - q^2 c^2"), (1 - A * C, "1 - a^2 c^2")
    rhs = [
        (_over(c * (1 + q) * (1 - A), (1 + ac, "1 + ac"), (1 + Q * ac, "1 + q^2 ac")), 1, [
            _sq([Q * A, q**4 * C, q * ac, Q * ac], [-(q**3) * ac, -(q**4) * ac, Q * A * C], Q)
        ]),
        (_over((1 - q * C) * (1 - q * A * C), *den), 0, [_sq(
            [A, Q * C, q**3 * C, ac, q * ac, q**3 * A * C],
            [q * C, -Q * ac, -(q**3) * ac, q * A * C, Q * A * C],
            Q,
        )]),
        (_over(q * C * (1 - q) * (1 - A / q), *den), 0, [_sq(
            [q**3, A, q * A, Q * C, ac, q * ac], [q, A / q, -Q * ac, -(q**3) * ac, Q * A * C], Q
        )]),
    ]
    return lhs, rhs


def _awgf(q, a, b, c, d, w):
    """The product of two 2phi1 in t; its t^n coefficient is p_n/(q, ab, cd; q)_n,
    which eval_aw gives, so the row tables no right side."""
    return _plain(Phi([a * w, b * w], [a * b], q, 1 / w), Phi([c / w, d / w], [c * d], q, w)), None


def _lemma(lhs, q, alpha, upper, lower, zscale, wn, wd):
    """A Cayley-Orr lemma's sides: the right side weights the z^n coefficient a_n
    of (alpha z; q^2)_inf / (z; q^2)_inf 2phi1(upper; lower; q, zscale z), whose
    prefactor is 1phi0(alpha; -; q^2, z) by the q-binomial theorem, by
    (wn; q^2)_n / (wd; q^2)_n, the z^n coefficient of 2phi1(wn, q^2; wd; q^2, z)."""
    Q = q * q
    return lhs, Weighted(Phi([wn, Q], [wd], Q),
                         _plain(Phi([alpha], [], Q), Phi(upper, lower, q, zscale)))


def _cayley_orr_a(q, a, b, c):
    Q = q * q
    lhs = _plain(
        Phi([Q * c / a, Q * c / b], [Q * c], Q), Phi([a / q, b / q], [c], Q, Q * c / (a * b))
    )
    return _lemma(lhs, q, q**3 * c / (a * b), [a / q, b / q], [c], Q * c / (a * b), q * c, Q * c)


def _cayley_orr_b(q, a, b, c):
    Q = q * q
    lhs = _plain(Phi([q * c / a, c / (q * b)], [c], Q), Phi([a, b], [c], Q, c / (a * b)))
    return _lemma(lhs, q, q * c / (a * b), [a / q, b], [c / q], c / (a * b), c / q, c)


def product_sides(identity_id: str, params: dict) -> tuple:
    """(lhs, rhs) sides of a tabled identity at exact params; rhs is None for AWGF."""
    row = _ROWS[identity_id]
    names = row.names[:-1]
    try:
        return row.sides(*(E(params[k]) for k in names))
    except ZeroDivisionError as exc:  # the builders divide by parameters, or through _over
        _nonzero(identity_id, params, names)
        raise DomainError(f"{identity_id}: {exc}") from None


def _nonzero(identity_id: str, params: dict, names) -> None:
    """ZeroArgument naming each parameter in names whose value is zero."""
    zeros = [f"{k} = 0" for k in names if E(params[k]).is_zero()]
    if zeros:
        raise ZeroArgument(f"{identity_id} divides by a zero parameter: {', '.join(zeros)}")


def side_value(side, z, eps: float, pb: int) -> tuple:
    """(certified value, terms used) of a side at exact z; eps goes to each
    factor.  Each term, its exact prefactor and its factor values are
    multiplied in fixed point, and the sum is rounded once."""
    wp = pb + _GUARD_BITS
    re = im = terms = 0
    for pref, power, factors in side:
        prod = _fx(EXACT_ONE if pref is None else pref * z**power, wp)
        for f in factors:
            spec = SeriesSpec.make(f.upper, f.lower, f.base, f.zscale * (z * z if f.squared else z))
            v, cert = eval_phi_nonterminating(spec, eps, pb)
            terms += cert.terms_used
            prod = _mul(prod, _fx(v, wp), wp)
        re, im = re + prod[0], im + prod[1]
    return _approx((re, im), wp, pb), terms


def side_series(side, order: int) -> PowerSeriesTrunc:
    """A side as an exact truncated power series in z through z^order."""
    if isinstance(side, Weighted):
        weights = phi_series_coeffs(*side.weight[:4], order).coeffs
        return PowerSeriesTrunc.make(
            [w * x for w, x in zip(weights, side_series(side.terms, order).coeffs)])
    total = None
    for pref, power, factors in side:
        prod = None
        for f in factors:
            # a factor in z^2 is built to order // 2 (Phi's first four fields are the args)
            s = phi_series_coeffs(*f[:4], order // 2 if f.squared else order)
            s = s.dilate_square(order) if f.squared else s
            prod = s if prod is None else prod * s
        if pref is not None:
            prod = (pref * prod).shift(power)
        total = prod if total is None else total + prod
    return total


def _sides_value(identity_id: str, P: dict, eps: float, pb: int) -> tuple:
    """Both tabled sides at the row's series variable, each certified to eps/8."""
    z = P[_ROWS[identity_id].zname]
    (lhs, lhs_terms), (rhs, rhs_terms) = (
        side_value(side, z, eps / 8, pb) for side in product_sides(identity_id, P))
    return lhs, rhs, lhs_terms + rhs_terms


def _wd_appell_value(P, eps, pb):
    q, u, t, a, b, d = (P[k] for k in "qutabd")
    qb = QBase.of(q)
    lhs_side = _plain(Phi([u / t, a * d, b * d], [a * b, d * u], q, 1 / d))
    lhs, terms = side_value(lhs_side, t, eps / 8, pb)
    pref = _product_quotient([(u / a, qb)], [(d * u, qb)], pb, eps / 32)
    appell, cert = eval_qappell_phi1(a * d, b * d, a / d, a * b, t / d, u / a, q, eps / 8, pb)
    return lhs, pref * appell, terms + cert.terms_used


def _term_table(f: Phi, z, wp: int) -> _Table:
    """The fixed-point (term, ratio majorant) table of factor f at exact z."""
    return _Table(_phi_terms(f.upper, f.lower, f.base, f.zscale * z, wp))


def _awgf_value(P, eps, pb):
    side, _ = product_sides("AWGF", P)
    rhs, terms = side_value(side, P["t"], eps / 8, pb)
    wp = pb + _GUARD_BITS
    # t^n p_n / (q, ab, cd; q)_n = sum_j X[j] Y[n-j], X and Y the terms of the two 2phi1
    X, Y = (_term_table(f, P["t"], wp) for f in side[0][2])
    total, cert = certified_sum(_cauchy_terms(X, Y, wp), eps / 8, pb)
    return _approx(total, wp, pb), rhs, terms + cert.terms_used


def _cayley_orr_value(identity_id: str, P: dict, eps: float, pb: int) -> tuple:
    """(lhs, rhs, terms) of a Cayley-Orr lemma at a z value, both sides certified.
    The right side, sum_n (wn; q^2)_n / (wd; q^2)_n a_n z^n, a_n z^n the Cauchy
    diagonal n of its two series, is one weighted Cauchy product
    (series._weighted_cauchy), weighted in base q^2."""
    z = P["z"]
    lhs_side, rhs = product_sides(identity_id, P)
    lhs, terms = side_value(lhs_side, z, eps / 8, pb)
    wp = pb + _GUARD_BITS
    # a_n z^n = sum_i (alpha; q^2)_i/(q^2; q^2)_i z^i * [z^(n-i)] 2phi1(upper; lower; q, zscale z)
    X, Y = (_term_table(f, z, wp) for f in rhs.terms[0][2])
    lemma = rhs.weight  # Phi([wn, q^2], [wd], q^2), whose terms are (wn; q^2)_n / (wd; q^2)_n
    total, cert = _weighted_cauchy(X, Y, (lemma.upper[0], lemma.lower[0]), lemma.base, eps / 8, pb)
    return lhs, _approx(total, wp, pb), terms + cert.terms_used


class _Row(NamedTuple):
    """One product identity's value check, as verify_product reads it."""

    names: str  # the parameter names, in order, one letter each
    divisors: str  # the parameters the check divides by, refused when zero
    zname: str | None  # the series variable that SAFETY_RADIUS bounds
    hypothesis: tuple | None  # (holds(m), error type, message), m.x = |x|^2 exactly
    value: Callable  # (P, eps, pb) -> certified (lhs, rhs, terms summed)
    sides: Callable | None = None  # the tabled sides, built from the names but the last, z
    note: str = ""
    unused: dict = {}  # a name accepted and not used -> the note's words on its value


def _pair(identity_id: str, names: str, zname: str, build) -> _Row:
    """The row of a product transformation: both sides tabled, in zname."""
    return _Row(names + zname, "", zname, None, partial(_sides_value, identity_id), build)


_LEMMA = (lambda m: m.q**2 * m.c * m.z < m.a * m.b, DomainError, "the lemma needs |q^2 c z| < |ab|")


_ROWS = {
    # the left side is the Cauchy diagonals of the term tables of the two 2phi1
    # whose product is the right side, so this check cannot refuse a wrong
    # Askey-Wilson polynomial; the generating function's content is checked by
    # awgf_coefficient_check against eval_aw's CONV, together with R1 = CONV
    "AWGF": _Row("qabcdwt", "w", "t", (lambda m: m.t < min(m.w, 1 / m.w), DivergenceError,
                                       "need |t| < min(|w|, 1/|w|)"), _awgf_value, _awgf),
    "TRIPLE_32PF": _Row("uwtabcdq", "tw", None, (
        lambda m: m.u < min(m.a, m.c) and m.t < min(m.w, 1 / m.w), DivergenceError,
        "hypotheses |u| < min(|a|,|c|), |t| < min(|w|,1/|w|) fail",
    ), _triple_value, note="extra-parameter generating function"),
    # TRIPLE_32PF at u = t: it accepts that check's point, and the note names u
    "QUAD_COR13": _Row("twabcdq", "w", None, (
        lambda m: m.t < min(m.a, m.c, m.w, 1 / m.w), DivergenceError,
        "hypothesis |t| < min(|a|,|c|,|w|,1/|w|) fails",
    ), _quad_value, note="closed-form quadruple summation",
        unused={"u": "evaluated at u = t, the given u = {} not used"}),
    "WD_APPELL": _Row("qutabd", "adt", "t", (lambda m: m.t < m.d and m.u < m.a, DivergenceError,
                                             "need |t| < |d| and |u| < |a|"), _wd_appell_value),
    "SCHLOSSER_T4": _pair("SCHLOSSER_T4", "qab", "z", _schlosser_t4),
    "SRIV_JAIN": _pair("SRIV_JAIN", "qab", "z", _sriv_jain),
    "JACKSON_CLAUSEN": _pair("JACKSON_CLAUSEN", "pab", "z", _jackson_clausen),
    "NASSRALLAH_1": _pair("NASSRALLAH_1", "pab", "z", _nassrallah_1),
    "NASSRALLAH_2": _pair("NASSRALLAH_2", "pab", "z", _nassrallah_2),
    "THM21": _pair("THM21", "pab", "z", _thm21),
    "TRIVIAL_21_32": _pair("TRIVIAL_21_32", "pa", "z", _trivial_21_32),
    "SRIVASTAVA_313": _pair("SRIVASTAVA_313", "qab", "t", _srivastava_313),
    "T515": _pair("T515", "qac", "t", _t515),
    "T516": _pair("T516", "qac", "t", _t516),
    "T517": _pair("T517", "qac", "t", _t517),
    "T518": _pair("T518", "qac", "t", _t518),
    "CAYLEY_ORR_A": _Row("qabcz", "", "z", _LEMMA, partial(_cayley_orr_value, "CAYLEY_ORR_A"),
                         _cayley_orr_a, "lemma value check"),
    # the left side's 2phi1(a, b; c; q^2, c z/(ab)) needs more than _LEMMA
    "CAYLEY_ORR_B": _Row("qabcz", "", "z", (lambda m: m.c * m.z < m.a * m.b, DomainError,
                                            "the lemma needs |c z| < |ab|"),
                         partial(_cayley_orr_value, "CAYLEY_ORR_B"), _cayley_orr_b,
                         "lemma value check"),
}
PRODUCT_IDS = tuple(_ROWS)
# both sides tabled: AWGF's right side, p_n / (q, ab, cd; q)_n, comes from eval_aw
COEFF_CHECK_IDS = tuple(k for k in _ROWS if _ROWS[k].sides and k != "AWGF")


def verify_product(identity_id: str, params: dict, eps: float = 1e-30,
                   precision_bits: int = DEFAULT_PRECISION_BITS) -> VerificationReport:
    """Value check of one product identity at one exact parameter point."""
    check_eps(eps)
    row = _ROWS.get(identity_id)
    if row is None:
        raise UnknownIdentity(f"no product identity registered under {identity_id!r}")
    named = {k: v for k, v in params.items() if k not in row.unused}
    check_names(identity_id, row.names, named)
    _nonzero(identity_id, named, row.divisors)
    P = {k: E(v) for k, v in named.items()}
    m = SimpleNamespace(**{k: x.abs2() for k, x in P.items()})  # m.x = |x|^2, exact
    if row.zname and getattr(m, row.zname) > SAFETY_RADIUS**2:  # 1/16 exactly
        raise DomainError(f"|{row.zname}| = {P[row.zname].abs_upper():.4g} "
                          f"exceeds the safety radius {SAFETY_RADIUS}")
    if row.hypothesis and not row.hypothesis[0](m):
        raise row.hypothesis[1](row.hypothesis[2])
    lhs, rhs, terms = row.value(P, eps, precision_bits)
    note = "; ".join(filter(None, [row.note, *(row.unused[k].format(v) for k, v in params.items()
                                               if k in row.unused)]))
    return make_report(identity_id, named, lhs, rhs, compare_approx(lhs, rhs, eps),
                       truncation_terms=terms, note=note)


# --------------------------------------------------------------------------
# exact coefficient checks in z (or t)
# --------------------------------------------------------------------------

def product_coefficient_check(
    identity_id: str, params: dict, order: int = 9
) -> VerificationReport:
    """Exact power-series comparison of both sides through z^order (t^order),
    at params without the series variable: the row's two tabled sides, or
    for AWGF awgf_coefficient_check."""
    row = _ROWS.get(identity_id)
    if row is None or row.sides is None:
        raise UnknownIdentity(f"{identity_id} has no exact coefficient check")
    check_names(identity_id, row.names[:-1], params)
    if identity_id == "AWGF":
        return awgf_coefficient_check(*(params[k] for k in "abcdwq"), order)
    lhs_side, rhs_side = product_sides(identity_id, params)
    lhs, rhs = side_series(lhs_side, order), side_series(rhs_side, order)
    return _coefficient_report(
        identity_id, params, f"series coefficients z^0..z^{order}",
        "identity right-hand side coefficients", lhs.coeffs, rhs.coeffs.__getitem__, order,
    )


# --------------------------------------------------------------------------
# classical (q -> 1 target) limits
# --------------------------------------------------------------------------

class _Rfs(NamedTuple):
    """Classical rFs(upper; lower; zscale * z), or zscale * z^2 when squared."""

    upper: tuple
    lower: tuple
    zscale: Fraction = Fraction(1)
    squared: bool = False


def _classical_sides(a: Fraction, b: Fraction) -> dict:
    """id -> (lhs, rhs) of each classical limit, each side a product of rFs factors."""
    h, s = Fraction(1, 2), a + b
    f = _Rfs((a, b), (s + h,))
    g = _Rfs((a, b), (s - h,))
    return {
        "CLAUSEN": ([f, f], [_Rfs((2 * a, 2 * b, s), (s + h, 2 * s))]),
        "ORR_A": ([g, f], [_Rfs((2 * a, 2 * b, s), (2 * s - 1, s + h))]),
        "ORR_B": (
            [g, _Rfs((a, b - 1), (s - h,))],
            [_Rfs((2 * a, 2 * b - 1, s - 1), (2 * s - 2, s - h))],
        ),
        "BAILEY_211": (
            [_Rfs((a,), (2 * a,)), _Rfs((b,), (2 * b,), Fraction(-1))],
            [_Rfs((s / 2, (s + 1) / 2), (a + h, b + h, s), Fraction(1, 4), True)],
        ),
        "COR_3F2": (
            [f, _Rfs((a + 1, b + 1), (s + 3 * h,))],
            [_Rfs((2 * a + 1, 2 * b + 1, s + 1), (2 * s + 1, s + 3 * h))],
        ),
    }


def _rfs_product(side, z: Fraction, eps: float):
    """The product of a side's factors at z, left to right; a factor that
    repeats is evaluated once."""
    values, prod = {}, None
    for f in side:
        if f not in values:
            values[f] = eval_rfs(f.upper, f.lower, f.zscale * (z * z if f.squared else z), eps)
        prod = values[f] if prod is None else prod * values[f]
    return prod


def classical_limit_check(which: str, params: dict, eps: float = 1e-10) -> VerificationReport:
    """The classical hypergeometric product formulas the q-identities extend."""
    check_eps(eps)
    if which not in CLASSICAL_IDS:
        raise UnknownIdentity(f"no classical limit registered under {which!r}")
    check_names(which, ("a", "b", "z"), params)
    for k in ("a", "b", "z"):
        if isinstance(params[k], ExactScalar) and not params[k].is_real():
            raise DomainError(
                f"{which}: parameter {k} = {params[k]} is complex; "
                "the classical limits take real parameters only"
            )
    a, b, z = (E(params[k]).re for k in ("a", "b", "z"))
    if which in ("CLAUSEN", "COR_3F2") and 2 * a + 2 * b <= 0 and (2 * a + 2 * b).denominator == 1:
        raise DomainError("2a + 2b must avoid nonpositive integers")
    lhs, rhs = (_rfs_product(side, z, eps * 1e-3) for side in _classical_sides(a, b)[which])
    return make_report(
        which, params, lhs, rhs, compare_approx(lhs, rhs, eps), note="classical limit target"
    )


# --------------------------------------------------------------------------
# consistency of two product formulas with the Cayley-Orr lemmas
# --------------------------------------------------------------------------

# product identity -> (Cayley-Orr lemma, its (a, b, c) as a function of
# (q, a^2, b^2), the left side's description, the note)
_CONSISTENCY = {
    "THM21": (
        "CAYLEY_ORR_A",
        lambda q, A, B: (A, B, A * B / q),
        "weighted Cayley-Orr A coefficients (c = ab/q)",
        "consistency of the product formula with the coefficient lemma",
    ),
    "NASSRALLAH_2": (
        "CAYLEY_ORR_B",
        lambda q, A, B: (q * B, A / q, q * A * B),
        "weighted Cayley-Orr B coefficients (c = qab)",
        "consistency of the corrected product formula with the coefficient lemma",
    ),
}


def _cayley_consistency(identity_id: str, p, a, b, n_max: int) -> VerificationReport:
    """The identity's 4phi3 right side, as tabled in _ROWS, against the
    weighted coefficients of its Cayley-Orr lemma."""
    lemma_id, lemma_params, lhs_desc, note = _CONSISTENCY[identity_id]
    pe, ae, be = E(p), E(a), E(b)
    q = pe * pe
    params = {"p": pe, "a": ae, "b": be}
    lemma = dict(zip("abc", lemma_params(q, ae * ae, be * be)), q=q)
    weighted, rhs = (side_series(product_sides(i, P)[1], n_max).coeffs
                     for i, P in ((lemma_id, lemma), (identity_id, params)))
    return _coefficient_report(
        identity_id, params, lhs_desc, "4phi3 coefficients", weighted, rhs.__getitem__,
        n_max, note,
    )


def thm21_cayley_consistency(p, a, b, n_max: int = 10) -> VerificationReport:
    """THM21's 4phi3 coefficients against the weighted A-lemma coefficients
    at c = ab/q (identifying the lemma's (a, b) with (a^2, b^2))."""
    return _cayley_consistency("THM21", p, a, b, n_max)


def nassrallah2_cayley_consistency(p, a, b, n_max: int = 10) -> VerificationReport:
    """NASSRALLAH_2's 4phi3 coefficients against the weighted B-lemma
    coefficients under (a, b, c) -> (q b^2, a^2/q, q a^2 b^2)."""
    return _cayley_consistency("NASSRALLAH_2", p, a, b, n_max)
