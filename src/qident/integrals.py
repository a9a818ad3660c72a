"""Contour-integral representations verified by periodic trapezoidal quadrature.

Each representation writes a product of two 2phi1 series as a prefactor times
an integral over psi in [-pi, pi] of theta-paired infinite products times a
3phi2 kernel, with w = e^(i psi) on the unit circle.  The trapezoid rule on
periodic analytic integrands converges geometrically; nodes double until two
successive estimates agree.

The five representations are data: the denominator moduli, the prefactor's
q-Pochhammer arguments, five numerator and five denominator node arguments
(constants times sigma/w or w/sigma) and the 3phi2 kernel's arguments.  One
node function evaluates all of them.  The series side of IR_X is the left
side of product transformation X (IR_SCHLOSSER: SCHLOSSER_T4) in the table of
:mod:`qident.products`.

The node kernel runs on the fixed-point primitives of :mod:`qident.qkernel`
(``_fx``, ``_mul``, ``_div``, ``_one_minus``, and ``_qprod`` for its ten
products, the loop :func:`qident.qkernel.qpoch_infinite` runs).  Every node
argument is a constant times w or times 1/w = conj(w), so the constants, the
base, the 3phi2 kernel's parameters and the tolerance are converted once per
integrand; a node converts w in and its value out (as an mpc).  Each product's
factor count comes from the rule qpoch_infinite uses, at the node tolerance
eps * 1e-4, and the kernel stops after four successive terms below that
tolerance.

The hypothesis that every denominator q-Pochhammer argument keeps modulus
below one (which also places all kernel poles correctly relative to the
contour) is pre-scanned on 64 coarse nodes before any full quadrature runs.
Those 64 values are the first level of the quadrature, which reuses them.

theta(x; q) here is (x; q)_inf (q/x; q)_inf.  Displays whose f-elements did
not form theta pairs (x, q/x) as printed are implemented with the paired form
(if, -iq/f): the pairing is forced by quasi-periodicity in f, and both the
f-independence and sigma-independence of the results confirm it numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath
from mpmath import mp

from .errors import (
    DomainError,
    HypothesisViolation,
    NoConvergence,
    PoleOnContour,
    UnknownIdentity,
    ZeroArgument,
    check_names,
)
from .products import _VALUE_PARAMS, product_sides, side_value
from .qkernel import (
    _GUARD_BITS,
    DEFAULT_PRECISION_BITS,
    ApproxScalar,
    ExactScalar,
    QBase,
    _div,
    _factor_count,
    _fx,
    _mul,
    _one_minus,
    _qprod,
    qpoch_infinite,
)
from .reporting import VerificationReport, compare_approx, make_report

E = ExactScalar.coerce

INTEGRAL_IDS = (
    "IR_SCHLOSSER",
    "IR_NASSRALLAH_1",
    "IR_NASSRALLAH_2",
    "IR_SRIV_JAIN",
    "IR_THM21",
)

DEFAULT_EPS = 1e-25


@dataclass(frozen=True)
class QuadratureSpec:
    nodes: int = 64
    eps: float = DEFAULT_EPS
    max_doublings: int = 14

    def __post_init__(self):
        if self.nodes < 16 or self.nodes & (self.nodes - 1):
            raise DomainError("node count must be a power of two >= 16")
        if self.eps <= 0:
            raise DomainError("eps must be positive")


def theta(x, q, eps: float = 1e-30, precision_bits: int = DEFAULT_PRECISION_BITS) -> ApproxScalar:
    """Modified theta function (x; q)_inf (q/x; q)_inf."""
    if (isinstance(x, ExactScalar) and x.is_zero()) or x == 0:
        raise ZeroArgument("theta requires a nonzero argument")
    qb = QBase.of(q)
    xe = E(x) if isinstance(x, (int, Fraction, ExactScalar)) else x
    first, _ = qpoch_infinite(xe, qb, eps / 4, precision_bits)
    second, _ = qpoch_infinite(qb.value / xe, qb, eps / 4, precision_bits)
    return first * second


def _node_psi(j: int, n: int):
    """psi of node j of the uniform n-node grid on [-pi, pi), at the working precision."""
    return -mpmath.pi + 2 * mpmath.pi * j / n


def integrate_periodic(
    integrand: Callable,
    spec: QuadratureSpec,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    *,
    first_level: list | None = None,
) -> tuple[ApproxScalar, float, int]:
    """Integral over [-pi, pi] of a 2pi-periodic integrand.

    Returns (value, achieved_eps, nodes).  The trapezoid rule on the uniform
    periodic grid is the plain node average times 2pi; levels double (reusing
    previous nodes) until two successive estimates agree within
    eps * max(1, |I|).  first_level, when given, holds the integrand's values at
    the spec.nodes first-level nodes (as :func:`hypothesis_prescan` returns them),
    which are then not evaluated again.
    """
    with mp.workprec(precision_bits + 10):
        def node_value(j, n_nodes):
            v = integrand(_node_psi(j, n_nodes))
            if not mpmath.isfinite(v):
                raise PoleOnContour(f"integrand not finite at node {j}/{n_nodes}")
            return v

        n = spec.nodes
        if first_level is not None and len(first_level) != n:
            raise DomainError(f"first_level holds {len(first_level)} values, not {n}")
        vals = first_level or [node_value(j, n) for j in range(n)]
        two_pi = 2 * mpmath.pi
        estimate = two_pi * mpmath.fsum(vals) / n
        for _ in range(spec.max_doublings):
            new_vals = []
            for j in range(n):
                new_vals.append(vals[j])
                new_vals.append(node_value(2 * j + 1, 2 * n))
            n *= 2
            vals = new_vals
            new_estimate = two_pi * mpmath.fsum(vals) / n
            achieved = float(abs(new_estimate - estimate))
            estimate = new_estimate
            if achieved <= spec.eps * max(1.0, float(abs(estimate))):
                return ApproxScalar(estimate, precision_bits), achieved, n
        raise NoConvergence(
            f"quadrature not converged after {spec.max_doublings} doublings ({n} nodes)"
        )


# --------------------------------------------------------------------------
# per-identity descriptors
# --------------------------------------------------------------------------

# Forms of a node argument (c, form): c sigma/w, c w/sigma, or sigma/(c w).
_SO, _WS, _SO_OVER = "sigma/w", "w/sigma", "sigma/(c w)"


def _series_side(identity_id: str, params: dict, eps: float, pb: int) -> ApproxScalar:
    """The product of two 2phi1 series that the integral must reproduce: the
    left side of the matching product transformation."""
    product_id = "SCHLOSSER_T4" if identity_id == "IR_SCHLOSSER" else identity_id[3:]
    check_names(identity_id, _VALUE_PARAMS[product_id], params)
    lhs, _ = product_sides(product_id, params)
    value, _ = side_value(lhs, E(params["z"]), eps / 4, pb)
    return value


def _prefactor(num_args, den_args, base, eps: float, pb: int) -> ApproxScalar:
    """prod (x; base)_inf over num_args / prod over den_args."""
    num = ApproxScalar.coerce(1, pb)
    for x in num_args:
        v, _ = qpoch_infinite(x, base, eps / 64, pb)
        num = num * v
    den = ApproxScalar.coerce(1, pb)
    for x in den_args:
        v, _ = qpoch_infinite(x, base, eps / 64, pb)
        if v.is_zero():
            raise HypothesisViolation("a prefactor denominator product vanishes", factor=str(x))
        den = den * v
    return num / den


def _node_integrand(num, den, kernel, base, sgv, eps: float, pb: int) -> Callable:
    """psi -> prod (x; base)_K over num / prod over den * 3phi2 kernel, w = e^(i psi).

    num and den hold node arguments (c, form); kernel ([u1, u2, u3], [l1, l2], zc)
    stands for 3phi2(u1, u2, u3 sigma/w; l1, l2 w/sigma; base, zc w/sigma).  K is
    each product's factor count at tail eps * 1e-4.  Values are fixed-point
    pairs at wp = pb + _GUARD_BITS bits (see :mod:`qident.qkernel`).
    """
    wp = pb + _GUARD_BITS
    one = 1 << wp
    tol = eps * 1e-4
    tol2 = int(Fraction(tol) ** 2 * 4**wp)
    abs_q = float(abs(base))

    def node_args(args):
        # (C, conj, K): the argument is C w, or C conj(w) when conj
        out = []
        for c, form in args:
            C = c / sgv if form == _WS else c * sgv if form == _SO else sgv / c
            K, _ = _factor_count(float(abs(C)) + 1e-300, abs_q, tol)
            out.append((_fx(C, wp), form != _WS, K))
        return out

    (u1, u2, u3), (l1, l2), zc = kernel
    with mp.workprec(wp):
        nums, dens = node_args(num), node_args(den)
        q = _fx(base, wp)
        powers = [_fx(x, wp) for x in (u1, u2, u3 * sgv, l1, l2 / sgv, base)]
        zw = _fx(zc / sgv, wp)
    # Kernel term k is term k-1 times n_k / d_k where, as w conj(w) = 1,
    #   n_k = (1 - u1 q^k) (1 - u2 q^k) (zc/sigma) (w - u3 sigma q^k),
    #   d_k = (1 - q^(k+1)) (1 - l1 q^k) (1 - (l2/sigma) q^k w).
    # steps[k] keeps what does not depend on w; powers holds the six q^k multiples.
    steps = []

    def phi32(w):
        term = total = (one, 0)
        small = 0
        for k in range(4000):
            if k == len(steps):
                a1, a2, a3, b1, b2, qk1 = powers
                n = _mul(_mul(_one_minus(a1, wp), _one_minus(a2, wp), wp), zw, wp)
                steps.append((n, a3, _mul(_one_minus(qk1, wp), _one_minus(b1, wp), wp), b2))
                powers[:] = [_mul(x, q, wp) for x in powers]
            n, a3, d, b2 = steps[k]
            n = _mul(n, (w[0] - a3[0], w[1] - a3[1]), wp)
            term = _div(_mul(term, n, wp), _mul(d, _one_minus(_mul(b2, w, wp), wp), wp), wp)
            total = total[0] + term[0], total[1] + term[1]
            small = small + 1 if term[0] * term[0] + term[1] * term[1] < tol2 else 0
            if small >= 4:
                return total
        raise NoConvergence("3phi2 kernel did not settle within 4000 terms")

    def integrand(psi):
        w = _fx(mpmath.expjpi(psi / mpmath.pi), wp)
        wc = w[0], -w[1]
        value = phi32(w)
        for args, op in ((nums, _mul), (dens, _div)):
            for C, conj, K in args:
                value = op(value, _qprod(_mul(C, wc if conj else w, wp), q, K, wp), wp)
        re, im = value
        return mpmath.mpc(mpmath.ldexp(re, -wp), mpmath.ldexp(im, -wp))

    return integrand


def _descriptor(identity_id: str, params: dict, sigma, f, eps: float, pb: int):
    """(prefactor, integrand, denominator-modulus list) for one identity.

    Parameter values are rounded at pb + 20 bits; node constants are formed at
    the pb + 10 bits the quadrature evaluates nodes at.
    """
    sig = E(sigma)
    fe = E(f)
    if fe.is_zero():
        raise ZeroArgument("the theta parameter f must be nonzero")
    sv = float(sig.abs_upper())
    i = mpmath.mpc(0, 1)

    if identity_id in ("IR_SCHLOSSER", "IR_SRIV_JAIN"):
        q, a, b, z = (E(params[k]) for k in "qabz")
        qv, av, bv, zv, fv, sgv = (x.to_approx(pb + 20).value for x in (q, a, b, z, fe, sig))
        base, node_base = q, qv
        theta_den = [fe, q / fe, -fe, -q / fe]
        moduli = [
            ("i sigma/w", sv),
            ("-i sigma/w", sv),
            ("-i a w/sigma", a.abs_upper() / sv),
            ("i b w/sigma", b.abs_upper() / sv),
        ]
        with mp.workprec(pb + 10):
            num = [(i * fv, _SO), (-i * (qv / fv), _SO), (i * fv, _WS), (-i * (qv / fv), _WS)]
            den = [(i, _SO), (-i, _SO), (-i * av, _WS), (i * bv, _WS)]
            if identity_id == "IR_SCHLOSSER":
                moduli.append(("i (q/b) w/sigma", (q / b).abs_upper() / sv))
                pref_num = [q, a, -a, b, -b, q / b, -q / b]
                pref_den = theta_den + [-q, a * b, q * a / b]
                num.append((i * qv * av, _WS))
                den.append((i * (qv / bv), _WS))
                kernel = ([av * bv, qv * av / bv, -(i * qv / av)], [-qv, i * qv * av], i * zv)
            else:  # IR_SRIV_JAIN
                moduli.append(("-i b w/sigma", b.abs_upper() / sv))
                pref_num = [q, a, -a, b, -b, b, -b]
                pref_den = theta_den + [a * b, -a * b, b * b]
                num.append((-i * av * bv * bv, _WS))
                den.append((-i * bv, _WS))
                kernel = ([av * bv, -av * bv, i * av], [av * av, -i * av * bv * bv], i * zv)
    else:
        # base-q^2 family: q = p^2, everything runs in base Q = q^2 = p^4
        p, a, b, z = (E(params[k]) for k in "pabz")
        q = p * p
        Q = q * q
        A, B = a * a, b * b
        pv, av, bv, zv, fv, sgv = (x.to_approx(pb + 20).value for x in (p, a, b, z, fe, sig))
        with mp.workprec(pb + 20):
            qv = pv * pv
            Qv = qv * qv
            Av, Bv = av * av, bv * bv
        base, node_base = Q, Qv
        theta_den = [fe, Q / fe, q * fe, q / fe]
        moduli = [
            ("p sigma/w", p.abs_upper() * sv),
            ("sigma/(p w)", sv / float(p.abs_upper())),
            ("p a^2 w/sigma", (p * A).abs_upper() / sv),
            ("a^2/p w/sigma", (A / p).abs_upper() / sv),
        ]
        with mp.workprec(pb + 10):
            num = [(pv * fv, _SO), (pv**3 / fv, _SO), (pv * fv, _WS), (pv**3 / fv, _WS)]
            den = [(pv, _SO), (pv, _SO_OVER), (pv * Av, _WS), (Av / pv, _WS)]
            if identity_id == "IR_NASSRALLAH_1":
                moduli.append(("p b^2 w/sigma", (p * B).abs_upper() / sv))
                pref_num = [Q, A, A, q * A, A / q, B, q * B]
                pref_den = theta_den + [A * A, A * B, q * A * B]
                num.append((pv * Av * Av * Bv, _WS))
                den.append((pv * Bv, _WS))
                kernel = ([Av * Av, Av * Bv, Bv / pv], [Av * Bv / qv, pv * Av * Av * Bv], pv * zv)
            elif identity_id == "IR_NASSRALLAH_2":
                moduli.append(("p^3 b^2 w/sigma", (p**3 * B).abs_upper() / sv))
                pref_num = [Q, q * A, A, A, A / q, q * B, Q * B]
                pref_den = theta_den + [A * A, q * A * B, Q * A * B]
                num.append((pv**3 * Av * Av * Bv, _WS))
                den.append((pv**3 * Bv, _WS))
                kernel = (
                    [Av * Av, Qv * Av * Bv, pv * Bv], [qv * Av * Bv, pv**3 * Av * Av * Bv], pv * zv
                )
            else:  # IR_THM21
                moduli.append(("b^2/p w/sigma", (B / p).abs_upper() / sv))
                pref_num = [Q, q * A, A, A, A / q, B, B / q]
                pref_den = theta_den + [A * A, A * B, A * B / q]
                num.append((Av * Av * Bv / pv, _WS))
                den.append((Bv / pv, _WS))
                kernel = ([Av * Av, Av * Bv, pv * Bv], [qv * Av * Bv, Av * Av * Bv / pv], pv * zv)

    pref = _prefactor(pref_num, pref_den, QBase.of(base), eps, pb)
    return pref, _node_integrand(num, den, kernel, node_base, sgv, eps, pb), moduli


def hypothesis_prescan(moduli, integrand, pb: int) -> list:
    """Check the modulus-below-one hypothesis, then probe 64 coarse nodes.

    Returns the integrand's values at those nodes: the first level of a 64-node
    :func:`integrate_periodic` at the same precision.
    """
    for name, m in moduli:
        if m >= 1.0:
            raise HypothesisViolation(
                f"denominator element {name} has modulus {m:.6g} >= 1", factor=name
            )
    vals = []
    with mp.workprec(pb + 10):
        for j in range(64):
            v = integrand(_node_psi(j, 64))
            if not mpmath.isfinite(v):
                raise HypothesisViolation(
                    f"integrand blows up during the coarse prescan at node {j}",
                    factor="prescan",
                )
            vals.append(v)
    return vals


def verify_integral_rep(
    identity_id: str,
    params: dict,
    sigma,
    f,
    eps: float = DEFAULT_EPS,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> VerificationReport:
    """Prefactor times contour integral against the series-side product; the
    quadrature starts from the 64 prescan nodes and doubles, at most 14 times, to eps/16."""
    if identity_id not in INTEGRAL_IDS:
        raise UnknownIdentity(f"no integral representation registered under {identity_id!r}")
    sig = E(sigma)
    if sig.is_zero() or not sig.is_real() or sig.re <= 0:
        raise DomainError("sigma must be a positive real")
    series = _series_side(identity_id, params, eps, precision_bits)
    pref, integrand, moduli = _descriptor(identity_id, params, sigma, f, eps, precision_bits)
    coarse = hypothesis_prescan(moduli, integrand, precision_bits)
    spec = QuadratureSpec(nodes=len(coarse), eps=eps / 16, max_doublings=14)
    integral, achieved, nodes = integrate_periodic(
        integrand, spec, precision_bits, first_level=coarse
    )
    with mp.workprec(precision_bits + 10):
        value = pref * integral * ApproxScalar(1 / (2 * mpmath.pi), precision_bits)
    return make_report(
        identity_id, {**params, "sigma": sigma, "f": f}, value, series,
        compare_approx(value, series, eps), quadrature_nodes=nodes,
        note=f"quadrature achieved_eps={achieved:.3e}",
    )
