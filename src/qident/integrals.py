"""Contour-integral representations verified by periodic trapezoidal quadrature.

Each representation writes a product of two 2phi1 series as a prefactor times
an integral over psi in [-pi, pi] of theta-paired infinite products times a
3phi2 kernel, with w = e^(i psi).  The five are one table, ``_REPS``, one row
each: the product transformation of :mod:`qident.products` whose left side is
the series side, and the row's prefactor q-Pochhammer arguments, node arguments
(exact constants times sigma/w or w/sigma) and kernel arguments, built from the
exact parameters after its family, in base q or in base p^4, has built the
entries its rows share.  One node function evaluates them all.

The node count N is chosen in advance.  On a periodic integrand analytic, and
bounded by M, in |Im psi| < a, the N-node trapezoid rule errs by at most
4 pi M / (e^(a N) - 1) (Trefethen & Weideman, *The exponentially convergent
trapezoidal rule*, SIAM Rev. 56(3), 2014, Thm 3.2); N is the least multiple of
4 that meets the target.  M is a majorant on the circles |w| = e^(+-a) of a
strip, a = a_max (1 - 2^-i), i = 1, ..., 10, a_max -log of the largest
denominator modulus: |(x; q)_inf| <= (-|x|; |q|)_inf for a numerator product,
1/|(x; q)_inf| <= 1/(|x|; |q|)_inf for a denominator product, and the 3phi2
kernel's absolute majorant series, summed until its rest is at most 2^-20 of
the partial sum.  The log of that majorant is convex in log |w|, so the strips
are scanned from the middle, and a strip whose count a lower value (the
partial sums) already shows above the best is skipped; N and its bound are
those of the ten-strip scan.  The same majorants on |w| = 1, the kernel's cut
at an absolute tail, fix the truncations and the working bits, so the nodes
evaluate one fixed analytic function, which M bounds.

Before any node runs, everything free of w is computed once, and each factor
becomes a series in w or conj(w): a theta pair theta(C w^e; q) of numerator
arguments C w^e and (q/C) w^-e is a Jacobi triple-product series; a product
(C^2 w^(2e); q^2)_inf of denominator arguments +-C w^e, and each other
argument's product, is Euler's series in w^e, its coefficients from the shared
term ratios (:func:`qident.series._term_ratios`), unreduced; the 3phi2
kernel's first T terms are one power series in w, cut by Cauchy's estimate on
the one circle |w| = r^(1 - 2^-10), r the kernel's radius.  The pairs are
read off the exact data, and the product of a pair's two majorants bounds
it, so M and N are as unfolded.  Each series is a cosine sum
plus i times a sine sum, S(w) = E(w^2) + w O(w^2) with E its even and O its
odd coefficients, split once at build time; the nodes come in pairs (w, -w),
and two Clenshaw recurrences of about D/2 steps at w^2 give S(w) and S(-w)
(:func:`_clenshaw`: one product per coefficient and sum, its roundings under
2^-wp / 8); where the mirror below says the constants are real, or imaginary
and real after w = -i v, every coefficient is one int.  The denominators are
divided once per node, on fixed-point ints, and each node w is the last times
e^(2 pi i/N).

Every denominator argument, and the kernel's l2 w/sigma and zc w/sigma, must
keep modulus below one on the contour (which also places the kernel's poles),
checked before any node runs.  At a real point (real parameters, f and sigma)
f(-psi), or f(pi - psi), is conj f(psi), and N/4 + 1 pairs give the same N-node
sum (:func:`integrate_periodic`); any other point evaluates all N/2 pairs.

theta(x; q) here is (x; q)_inf (q/x; q)_inf.  Displays whose f-elements did
not form theta pairs (x, q/x) as printed are implemented with the paired form
(if, -iq/f): the pairing is forced by quasi-periodicity in f, and both the
f-independence and sigma-independence of the results confirm it numerically.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple

import mpmath
from mpmath import mp

from .errors import (
    DomainError,
    HypothesisViolation,
    NoConvergence,
    UnknownIdentity,
    ZeroArgument,
    check_eps,
    check_names,
)
from .products import _ROWS, product_sides, side_value
from .qkernel import (
    DEFAULT_PRECISION_BITS,
    ApproxScalar,
    ExactScalar,
    I,
    QBase,
    _abs_upper,
    _div,
    _factor_count,
    _fx,
    _gmul,
    _log_poch_majorant,
    _mul,
    _one_minus,
    _product_quotient,
    _qprod,
)
from .reporting import VerificationReport, compare_approx, make_report
from .series import _ratio_majorant, _term_ratios

E = ExactScalar.coerce

DEFAULT_EPS = 1e-25

# the node-count step: N is a multiple of it, as the mirror needs.  Past
# _MAX_NODES a bound is taken as unreachable.
_NODE_STEP = 4
_MAX_NODES = 1 << 20


def theta(x, q, eps: float = 1e-30, precision_bits: int = DEFAULT_PRECISION_BITS) -> ApproxScalar:
    """Modified theta function (x; q)_inf (q/x; q)_inf."""
    if x == 0:
        raise ZeroArgument("theta requires a nonzero argument")
    qb = QBase.of(q)
    return _product_quotient([(x, qb), (qb.value / x, qb)], [], precision_bits, eps / 4)


def trapezoid_bound(a: float, M: float, n: int) -> float:
    """4 pi M / (e^(a n) - 1): the error bound of the n-node trapezoid rule on
    a 2pi-periodic integrand analytic, and bounded by M, in |Im psi| < a."""
    # in logs, so that a large M does not meet an underflowed e^(-a n) as inf * 0
    return 4 * math.pi * math.exp(math.log(M) - a * n) / -math.expm1(-a * n)


def _strip_nodes(a: float, M: float, target: float) -> tuple[int, float]:
    """(n, bound) on one strip (a, M): the least multiple n of _NODE_STEP nodes
    whose trapezoid bound is at most target, log1p(4 pi M / target) / a up to
    the step, confirmed a step either way; n > _MAX_NODES when none is."""
    x = math.log(4 * math.pi) + math.log(M) - math.log(target)  # log(4 pi M / target)
    least = (max(x, 0) + math.log1p(math.exp(-abs(x)))) / a  # log1p(e^x) / a
    n = _NODE_STEP * max(1, math.ceil(min(least, _MAX_NODES + 1) / _NODE_STEP))
    while n > _NODE_STEP and trapezoid_bound(a, M, n - _NODE_STEP) <= target:
        n -= _NODE_STEP
    while n <= _MAX_NODES and not trapezoid_bound(a, M, n) <= target:
        n += _NODE_STEP
    return n, trapezoid_bound(a, M, n)


def trapezoid_nodes(strips, target: float) -> tuple[int, float]:
    """(N, bound): the least multiple of _NODE_STEP nodes whose trapezoid bound on
    a strip (a, M) is at most target, and the least such bound
    (:func:`_strip_nodes`).  M = inf never does."""
    best = min([(_MAX_NODES + _NODE_STEP, math.inf)]
               + [_strip_nodes(a, M, target) for a, M in strips])
    if best[0] > _MAX_NODES:
        raise NoConvergence(f"no strip meets the quadrature target {target:.3e} "
                            f"within {_MAX_NODES} nodes")
    return best


def _nodes(n: int, wp: int, mirror: int | None):
    """The nodes w_j = e^(i psi_j), psi_j = -pi + 2 pi j / n, that
    :func:`integrate_periodic` evaluates, each with its negative w_(j + n/2), as
    fixed-point pairs at wp: the two on the axes, w_j0 and w_(j0 + n/4), then
    the n/4 - 1 between them, and with mirror None the n/4 - 1 after w_(j0 +
    n/4); j0 = n/4 at mirror -1, else 0.

    w_j = -omega^j, omega = e^(2 pi i/n): each power of omega is the last times
    omega at g = wp + s bits, s = ceil(log2 n) + 4, from the exact omega^j0 or i
    omega^j0, its parts rounded to nearest at wp.  Lemma: |w_j - e^(i psi_j)| <
    2^-wp.  With u = 2^-g, omega is within 2u and a product rounds by under
    sqrt(2) u, so the m-th power past the start errs by e_m <= e_(m-1) (1 + 2u)
    + (2 + sqrt 2) u, at most 3.5 m u <= (7/128) 2^-wp (m < n/4 <= 2^18);
    rounding adds at most 2^-wp / sqrt 2.  The nodes on the axes are exact, and
    so are their negatives."""
    s = (n - 1).bit_length() + 4
    g, half = wp + s, 1 << (s - 1)
    with mp.workprec(g + 10):
        wr, wi = _fx(mpmath.expjpi(mpmath.mpf(2) / n), g)
    zr, zi = (0, 1 << g) if mirror == -1 else (1 << g, 0)
    starts = [(zr, zi), (-zi, zr)]  # omega^j0 and omega^(j0 + n/4) = i omega^j0
    for zr, zi in starts:
        yield -zr >> s, -zi >> s
    for zr, zi in starts[:1 if mirror else 2]:
        for _ in range(n // 4 - 1):
            zr, zi = (zr * wr - zi * wi) >> g, (zr * wi + zi * wr) >> g
            yield -((zr + half) >> s), -((zi + half) >> s)


def integrate_periodic(integrand: Callable, strips, target: float, wp: int,
                       precision_bits: int = DEFAULT_PRECISION_BITS,
                       mirror: int | None = None) -> tuple[ApproxScalar, float, int]:
    """Integral over [-pi, pi] of a 2pi-periodic integrand, with a proven bound.

    strips holds pairs (a, M): the integrand is analytic in |Im psi| < a and
    bounded there by M.  Returns (value, bound, nodes), the trapezoid rule on
    the node count :func:`trapezoid_nodes` picks, which is the plain node
    average times 2pi, at precision_bits, and that count's error bound.  The
    integrand takes w = e^(i psi_j), psi_j = -pi + 2 pi j / N, as a fixed-point
    pair at wp (:func:`_nodes`), and returns the pair (f(w), f(-w)), each a
    fixed-point pair; the ints are summed exactly.  -w is a node too, as N is a
    multiple of 4, so N/2 evaluations give the N-node sum.

    mirror = 1 says f(-psi) = conj f(psi), and mirror = -1 that f(pi - psi) =
    conj f(psi).  Either map sends the N nodes, and the pairs (w, -w), to
    themselves: it fixes the pair at psi = -pi and 0, or -pi/2 and pi/2,
    swaps the two nodes of the quarter pair a quarter turn on, and maps the
    N/4 - 1 pairs strictly between those onto the other N/4 - 1.  With P(w) =
    Re f(w) + Re f(-w), the same N-node sum is P at the two axis pairs plus 2
    P(w_j) over the N/4 - 1 between: N/4 + 1 evaluations, and the same bound.
    2 P(w_j) stands for the values at four nodes, so the rounding errors it
    carries are those nodes' own share of the budget.  With mirror None each
    of the N/2 pairs is evaluated once.
    """
    n, bound = trapezoid_nodes(strips, target)
    pairs = map(integrand, _nodes(n, wp, mirror))
    if mirror is None:
        sr, si = map(sum, zip(*itertools.chain.from_iterable(pairs)))
    else:
        (a, b), (c, d) = next(pairs), next(pairs)
        sr, si = a[0] + b[0] + c[0] + d[0] + 2 * sum(x[0] + y[0] for x, y in pairs), 0
    with mp.workprec(precision_bits + 10):
        estimate = 2 * mpmath.pi * mpmath.mpc(mpmath.ldexp(sr, -wp), mpmath.ldexp(si, -wp)) / n
    return ApproxScalar(estimate, precision_bits), bound, n


# --------------------------------------------------------------------------
# per-identity descriptors
# --------------------------------------------------------------------------

# Forms of a node argument (c, form), which also name it: c sigma/w or c w/sigma.
_SO, _WS = "{} sigma/w", "{} w/sigma"


def _base_q(P: dict, fe) -> tuple:
    """The family in base q: (base, the values its rows read, the four
    f-dependent prefactor denominators, the four theta-pair node arguments,
    the four node denominators)."""
    q, a, b, z = (E(P[k]) for k in "qabz")
    return (q, (q, a, b, z), [fe, q / fe, -fe, -q / fe],
            [(I * fe, _SO), (-I * q / fe, _SO), (I * fe, _WS), (-I * q / fe, _WS)],
            [(I, _SO), (-I, _SO), (-I * a, _WS), (I * b, _WS)])


def _base_p4(P: dict, fe) -> tuple:
    """The base-q^2 family, q = p^2, run in base Q = q^2 = p^4, as :func:`_base_q`;
    its rows read (p, q, Q, A = a^2, B = b^2, z)."""
    p, a, b, z = (E(P[k]) for k in "pabz")
    q = p * p
    Q, A = q * q, a * a
    return (Q, (p, q, Q, A, b * b, z), [fe, Q / fe, q * fe, q / fe],
            [(p * fe, _SO), (p**3 / fe, _SO), (p * fe, _WS), (p**3 / fe, _WS)],
            [(p, _SO), (1 / p, _SO), (p * A, _WS), (A / p, _WS)])


class _Rep(NamedTuple):
    """One contour-integral representation, as :func:`_descriptor` reads it."""

    product_id: str  # the product transformation whose left side is the series side
    family: Callable  # (params, f) -> its base, the values args reads, the shared entries
    # values -> (prefactor numerators, the prefactor denominators past the family's
    # four, the fifth node numerator and denominator, the 3phi2 kernel ([u1, u2,
    # u3], [l1, l2], zc) of :func:`_node_integrand`)
    args: Callable


_REPS = {
    "IR_SCHLOSSER": _Rep("SCHLOSSER_T4", _base_q, lambda q, a, b, z: (
        [q, a, -a, b, -b, q / b, -q / b], [-q, a * b, q * a / b], (I * q * a, _WS),
        (I * q / b, _WS), ([a * b, q * a / b, -I * q / a], [-q, I * q * a], I * z))),
    "IR_NASSRALLAH_1": _Rep("NASSRALLAH_1", _base_p4, lambda p, q, Q, A, B, z: (
        [Q, A, A, q * A, A / q, B, q * B], [A * A, A * B, q * A * B], (p * A * A * B, _WS),
        (p * B, _WS), ([A * A, A * B, B / p], [A * B / q, p * A * A * B], p * z))),
    "IR_NASSRALLAH_2": _Rep("NASSRALLAH_2", _base_p4, lambda p, q, Q, A, B, z: (
        [Q, q * A, A, A, A / q, q * B, Q * B], [A * A, q * A * B, Q * A * B],
        (p**3 * A * A * B, _WS), (p**3 * B, _WS),
        ([A * A, Q * A * B, p * B], [q * A * B, p**3 * A * A * B], p * z))),
    "IR_SRIV_JAIN": _Rep("SRIV_JAIN", _base_q, lambda q, a, b, z: (
        [q, a, -a, b, -b, b, -b], [a * b, -a * b, b * b], (-I * a * b * b, _WS),
        (-I * b, _WS), ([a * b, -a * b, I * a], [a * a, -I * a * b * b], I * z))),
    "IR_THM21": _Rep("THM21", _base_p4, lambda p, q, Q, A, B, z: (
        [Q, q * A, A, A, A / q, B, B / q], [A * A, A * B, A * B / q], (A * A * B / p, _WS),
        (B / p, _WS), ([A * A, A * B, p * B], [q * A * B, A * A * B / p], p * z))),
}
INTEGRAL_IDS = tuple(_REPS)


def _series_side(identity_id: str, params: dict, eps: float, pb: int) -> ApproxScalar:
    """The product of two 2phi1 series that the integral must reproduce: the
    left side of the row's product transformation."""
    product_id = _REPS[identity_id].product_id
    check_names(identity_id, _ROWS[product_id].names, params)
    lhs, _ = product_sides(product_id, params)
    value, _ = side_value(lhs, E(params["z"]), eps / 4, pb)
    return value


def _kernel_majorant(kabs, Q: float, rho: float,
                     tail: float | None) -> tuple[float, float, int | None]:
    """(S, rest, T) for the 3phi2 kernel on |w| = rho: S is the sum of its
    first T terms' modulus majorants, and rest, at most tail (with tail None,
    at most 2^-20 S), bounds the moduli of the terms from T on; (S, inf, None)
    when that takes more than 10000 terms.

    kabs = (|u1|, |u2|, |u3| sigma, |l1|, |l2| / sigma, |zc| / sigma).  R_k, the
    series ratio majorant at z rho, upper (u1, u2, u3 / rho), lower (l1, l2 rho),
    bounds term k + 1 over term k and does not increase once l1, l2 rho < |q|^-k,
    so from such a k with R_k < 1 the rest is at most the term majorant / (1 - R_k).
    """
    u1, u2, u3, l1, l2, z = kabs
    args, top, S, m = (z * rho, (u1, u2, u3 / rho), (l1, l2 * rho), Q), max(l1, l2 * rho), 0.0, 1.0
    for k in range(10_000):
        R = _ratio_majorant(*args, k)
        if top * Q**k < 1 and R < 1:
            rest = m / (1 - R)
            if rest <= (2.0**-20 * S if tail is None else tail):
                return S, rest, k
        S, m = S + m, m * R
    return S, math.inf, None


def _kernel_degree(kabs, Q: float, T: int, budget: float) -> int:
    """N: the power series of the kernel's first T terms has coefficients past
    w^N of moduli summing to at most budget, by the Cauchy lemma of
    :func:`_node_integrand` at the one radius R = r^(1 - 2^-10), r =
    min(sigma/|l2|, sigma/|zc|); T > 1, so that zc is not 0."""
    u1, u2, u3, l1, l2, z = kabs
    R = (1 / max(l2, z)) ** (1 - 2.0**-10)
    rs = (_ratio_majorant(z * R, (u1, u2, u3 / R), (l1, l2 * R), Q, k) for k in range(T - 1))
    S = sum(itertools.accumulate(rs, lambda m, x: m * x, initial=1.0))  # the T term majorants
    n = (math.log(S) - math.log1p(-1 / R) - math.log(budget)) / math.log(R)
    if not n < math.inf:  # S past float range
        raise NoConvergence("the 3phi2 kernel's series has no finite majorant off the unit circle")
    return max(0, math.ceil(n) - 1)


def _kernel_fixed(kernel, base, sig, T: int, N: int, wp: int) -> tuple[list, list]:
    """The fixed-point coefficients of w^0, ..., w^N of the kernel's first T
    terms, as (re, im) int lists, K_0: K_(T-1) = 1, K_k = 1 + rho_k (w - u3 sigma
    q^k) K_(k+1) / (1 - (l2/sigma) q^k w) cut at w^N, exact up to w^N as no step
    lowers a degree; dividing f by 1 - c w is h_n = f_n + c h_(n-1).  When every
    step's constants are real, so is each K_k, and a step runs on the real parts
    alone: 3 products per coefficient, not 12."""
    (u1, u2, u3), (l1, l2), zc = kernel
    q, zw, one = _fx(base, wp), _fx(zc / sig, wp), 1 << wp
    powers, steps = [_fx(x, wp) for x in (u1, u2, u3 * sig, l1, l2 / sig, base)], []
    for _ in range(T - 1):  # (rho_k, rho_k u3 sigma q^k, (l2/sigma) q^k)
        a1, a2, a3, b1, b2, qk1 = powers
        rho = _div(_mul(_mul(_one_minus(a1, wp), _one_minus(a2, wp), wp), zw, wp),
                   _mul(_one_minus(qk1, wp), _one_minus(b1, wp), wp), wp)
        steps.append((*rho, *_mul(rho, a3, wp), *b2))
        powers = [_mul(x, q, wp) for x in powers]
    kr, ki = [one] + [0] * N, [0] * (N + 1)
    real = not any(ri or pi or bi for _, ri, _, pi, _, bi in steps)
    for rr, ri, pr, pi, br, bi in reversed(steps):
        # h_n = rho_k (f_(n-1) - u3 sigma q^k f_n) + c h_(n-1)
        hr = hi = gr = gi = 0  # h_(n-1) and f_(n-1)
        if real:
            for n, fr in enumerate(kr):
                hr = (rr * gr - pr * fr + br * hr) >> wp
                kr[n], gr = hr, fr
        else:
            for n in range(N + 1):
                fr, fi = kr[n], ki[n]
                hr, hi = ((rr * gr - ri * gi - pr * fr + pi * fi + br * hr - bi * hi) >> wp,
                          (rr * gi + ri * gr - pr * fi - pi * fr + br * hi + bi * hr) >> wp)
                kr[n], ki[n], gr, gi = hr, hi, fr, fi
        kr[0] += one
    return kr, ki


def _euler(C, base, budget: float, theta: bool = False) -> list:
    """c_0, ..., c_K: sum_(n<=K) c_n x^n is within budget, on |x| = 1, of
    Euler's series (C x; q)_inf = 0phi0(-; -; q, C x) = sum_n (-1)^n q^(n(n-1)/2)
    (C x)^n / (q; q)_n, q = base, |q| < 1 (Gasper & Rahman, *Basic
    Hypergeometric Series*, 2nd ed., (1.3.16)), or with theta of sum_n (-1)^n
    q^(n(n-1)/2) (C x)^n = 1phi1(q; 0; q, C x).

    Each c_n is exact, an unreduced triple (n, m, d), d > 0, for (n + m i)/d:
    the running product of the term ratios top / bot that
    :func:`series._term_ratios` yields, the generator
    :func:`qident.powerseries.phi_series_coeffs` reduces, here with no gcd.
    The nodes read only _fx and _abs_upper of a coefficient, the same for every
    form of its value.  A real bot is positive, as |q| < 1: with q = P/D it
    is a product of denominators and of D^(k+1) - P^(k+1) (for 1 - q^(k+1),
    which the upper q cancels with theta) or D^k (the lower 0's, with theta).
    A complex ratio enters as top conj(bot) / |bot|^2.

    |c_(n+1) / c_n| <= r_n = |C| |q|^n / (1 - |q|^(n+1)), or |C| |q|^n with
    theta, decreases, so a cut at c_K with r_K < 1 has a tail of at most |c_K|
    r_K / (1 - r_K).  Without theta the |c_n| sum to at most (-|C|; |q|)_inf.
    """
    Q = base.abs_upper()
    c, xa, Qk = 1.0, C.abs_upper(), 0.0 if theta else Q  # |c_K|, |C q^K|, |q^(K+1)|
    ratios = _term_ratios(*(([base], [0]) if theta else ([], [])), base, C)
    real = next(ratios)
    coeffs, n, d = [(1, 0, 1)], 1 if real else (1, 0), 1
    while xa >= (u := 1 - Qk) or c * xa / (u - xa) > budget:  # r_K >= 1, or the tail
        c, xa, Qk = c * xa / u, xa * Q, Qk * Q
        top, bot = next(ratios)
        if real:
            n, d = n * top, d * bot
            coeffs.append((n, 0, d))
        else:
            n, d = _gmul(n, _gmul(top, (bot[0], -bot[1]))), d * (bot[0] ** 2 + bot[1] ** 2)
            coeffs.append((*n, d))
    return coeffs


def _theta_pair(C, base, budget: float) -> tuple[tuple, tuple, int]:
    """(plus, minus, K): theta(C x; q) is within budget, on |x| = 1, of
    sum_(k>=0) plus[k] x^k + sum_(m>=1) minus[m-1] conj(x)^m over (q; q)_K,
    q = base, the coefficients exact.

    By the Jacobi triple product (Gasper & Rahman, (1.6.1)), theta(y; q) (q;
    q)_inf is the sum over all integers k of (-1)^k q^(k(k-1)/2) y^k: plus
    holds k >= 0, in C, and minus k = -m, the same series in q/C, each an
    :func:`_euler` series with theta cut at budget / (4G), G = e^lambda >=
    1/(|q|; |q|)_inf.  (q; q)_K has log-tail L <= (2/5) budget / (G S), S the
    series' absolute majorant, so 1/(q; q)_K errs by at most (5/4) L G: each
    part contributes at most budget / 2.
    """
    Q = base.abs_upper()
    G = math.exp(_log_poch_majorant(Q, Q, True))
    tail = budget / (4 * G)
    plus, minus = (_euler(x, base, tail, theta=True) for x in (C, base / C))
    minus = minus[1:]
    S = 2 * tail + sum(_abs_upper(*c) for c in plus + minus)
    return plus, minus, _factor_count(Q, Q, 0.4 * budget / (G * S))[0]


def _theta_fixed(series, base, wp: int) -> tuple[tuple, tuple]:
    """A :func:`_theta_pair` series on |x| = 1, x = e^(i theta), as sum_k A_k cos
    k theta + i sum_k B_k sin k theta: A_k = plus[k] + minus[k-1] and B_k =
    plus[k] - minus[k-1] (minus[-1] = 0), in fixed point over (q; q)_K, as
    (re, im) int lists.  1/(q; q)_K, up to G, magnifies the K roundings of (q;
    q)_K, so (q; q)_K is formed at log2(K G) bits more."""
    plus, minus, K = series
    Q = base.abs_upper()
    hi = wp + K.bit_length() + math.ceil(_log_poch_majorant(Q, Q, True) / math.log(2))
    q = _fx(base, hi)
    scale = _div((1 << wp, 0), _qprod(q, q, K, hi), hi)
    c, d, A, B = [_fx(x, wp) for x in plus], [_fx(x, wp) for x in [0, *minus]], [], []
    for (cr, ci), (dr, di) in itertools.zip_longest(c, d, fillvalue=(0, 0)):
        A.append(_mul((cr + dr, ci + di), scale, wp))
        B.append(_mul((cr - dr, ci - di), scale, wp))
    return tuple(zip(*A)), tuple(zip(*B))


def _parts(A, B, e: int) -> tuple[int, list]:
    """(g, parts): the parts (u, v, a_0, [a_2M, ..., a_2], a_1, [a_(2M'+1), ...,
    a_3]), u and v flat, that :func:`_clenshaw` sums, at w and at -w, to sum_k
    A_k cos k phi + i sum_k B_k sin k phi, x = e^(i phi) = w^e, e = +-1 or +-2,
    from (re, im) int lists of A and B (B None: B = A, a series in x, whose
    parts then give both sums), each int shifted up by the lemma's g = 2
    bit_length(D) + 2 bits, D the degree in x.  The even and odd coefficients
    in w are split here, once: a series in w^(+-2) is one whose odd part is
    empty (a_1 = 0, no rest), and at e < 0 (x = conj w) v changes sign.  u and
    v are the Gaussian units (or 0) that weigh a part's cosine and sine sums; a
    part whose ints are all 0 is left out, so real coefficients hold one int
    each."""
    g, units, zero = 2 * (len(A[0]) - 1).bit_length() + 2, ((1, 0), (0, 1)), ((0, 0),) * 2
    parts, sign = [], 1 if e > 0 else -1
    for u, v, a in zip(units + zero, units if B is None else zero + units, A + (B or ())):
        if any(a):
            a = [x << g for x in a]
            even, odd = (a, [0]) if e in (2, -2) else (a[::2], a[1::2] or [0])
            parts.append((*u, sign * v[0], sign * v[1], even[0], even[:0:-1], odd[0], odd[:0:-1]))
    return g, parts


def _clenshaw(parts: list, w: tuple, w2: tuple, wp: int) -> tuple:
    """(S(w), S(-w)), S the sum over parts (u, v, a_0, even, a_1, odd) of u sum_k
    a_k cos k theta + i v sum_k a_k sin k theta: w = (cos theta, sin theta) and
    w2 = (c, s), w^2 rounded, fixed-point pairs at wp, and the coefficients and
    both values fixed point at any W >= wp bits (each product by c, s, cos
    theta or sin theta is cut back by wp bits).

    With C + i S the cosine and sine sums of the even coefficients a_2m at 2
    theta, and C' + i S' those of the odd ones a_(2m+1), sum_k a_k cos k theta
    = C +- (cos theta C' - sin theta S') and sum_k a_k sin k theta = S +- (sin
    theta C' + cos theta S'), + at w and - at -w: two recurrences of about D/2
    steps give both values.  Each is Clenshaw's (C. W. Clenshaw, *A note on the
    summation of Chebyshev series*, Math. Comp. 9, 1955): b_m = a_m + 2c
    b_(m+1) - b_(m+2) from b_(M+1) = b_(M+2) = 0 gives sum_m a_m cos 2m theta =
    a_0 + b_1 c - b_2 and sum_m a_m sin 2m theta = b_1 s, one product per
    coefficient.

    Lemma: each step but the first, which is exact, rounds 2c b_(m+1) down by
    under one unit 2^-W, and an error at step m reaches b_1 as U_(m-1)(c) times
    it and b_2 as U_(m-2)(c) times it.  |c| may pass 1 only by the roundings of
    w^2, under 3 2^-wp, and not at a node of :func:`_nodes` (n <= 2^20, wp >=
    64): there c is within 4 2^-wp of cos 2 psi, which is +-1 on the axes,
    where the node and w^2 are exact, and off them is at least 1 - cos(4 pi /
    n) > 2^-34 from +-1.  So |c| <= 1, |U_j(c)| <= j + 1, and an M-step
    recurrence moves its sine sum by under M(M-1)/2 + 1 units (|s| <= 1 + 3
    2^-wp) and its cosine sum, whose errors meet T_m(c) = c U_(m-1)(c) -
    U_(m-2)(c), |T_m(c)| <= 1, by under M (at M = 0 both are exact).  The odd
    part's combination rounds once more and takes its sums' errors times |cos
    theta|, |sin theta| <= 1 + 2^-wp.  At floor(D/2) and floor((D-1)/2) steps
    each value moves by under D^2/4 + 3 <= (D+1)^2/2 units for D >= 2 (under
    one at D = 1, none at D = 0), and a series in w^(+-2), D steps and no odd
    part, by under D(D-1)/2 + 1 <= (D+1)^2/2.  At W = wp + g, g = 2
    bit_length(D) + 2, that is under 2^-wp / 8."""
    (c1, s1), (c, s) = w, w2
    c2, pr, pi, mr, mi = 2 * c, 0, 0, 0, 0
    for ur, ui, vr, vi, a0, even, a1, odd in parts:
        b1 = b2 = d1 = d2 = 0
        for a in even:
            b1, b2 = a + (c2 * b1 >> wp) - b2, b1
        for a in odd:
            d1, d2 = a + (c2 * d1 >> wp) - d2, d1
        ec, es = a0 + (b1 * c >> wp) - b2, b1 * s >> wp
        oc, os_ = a1 + (d1 * c >> wp) - d2, d1 * s >> wp
        oc, os_ = (c1 * oc - s1 * os_) >> wp, (s1 * oc + c1 * os_) >> wp
        pc, ps, mc, ms = ec + oc, es + os_, ec - oc, es - os_
        pr, pi = pr + ur * pc - vi * ps, pi + ui * pc + vr * ps
        mr, mi = mr + ur * mc - vi * ms, mi + ui * mc + vr * ms
    return (pr, pi), (mr, mi)


def _fold(num, den, base, sig) -> tuple[list, list, list, list]:
    """(nums, dens, thetas, pms): each node argument as (C, |C|, e), for C w^e,
    and the index pairs read off the exact data that fold: (i, j) of nums with
    C_i C_j = base and e_j = -e_i, theta(C_i w^e_i; base), and (i, j) of dens
    with C_j = -C_i and e_j = e_i, (C_i^2 w^(2 e_i); base^2)_inf."""
    def node_arg(c, form):  # on the unit circle w^-1 = conj(w)
        C = c / sig if form == _WS else c * sig
        return C, C.abs_upper(), 1 if form == _WS else -1

    def pairs(args, joins):  # the first match first, each index in one pair at most
        out = []
        for i, j in itertools.combinations(range(len(args)), 2):
            if not {i, j} & {k for pair in out for k in pair} and joins(args[i], args[j]):
                out.append((i, j))
        return out

    nums, dens = ([node_arg(c, form) for c, form in args] for args in (num, den))
    thetas = pairs(nums, lambda x, y: y[2] == -x[2] and x[0] * y[0] == base)
    return nums, dens, thetas, pairs(dens, lambda x, y: y[2] == x[2] and y[0] == -x[0])


def _strips(circle, a_max: float, target: float) -> list:
    """The strips (a, M), of the ten at a = a_max (1 - 2^-i), i = 1, ..., 10,
    that can set :func:`trapezoid_nodes`' (N, bound) at target, the others
    skipped by the rule of :func:`_node_integrand`, the middle strips first.
    circle(rho) is (M, log m), the integrand's majorant on |w| = rho at most M
    and at least m; a strip's M is the larger of its two circles' times 1 +
    2^-30."""
    runs, best = [], math.inf  # (a, M, log m) per strip run
    for i in (5, 6, 4, 7, 3, 8, 2, 9, 1, 10):
        a = a_max * (1 - 2.0**-i)
        low = max([m for b, _, m in runs if b <= a]
                  + [m + (m - math.log(M)) * (b - a) / (c - b)
                     for b, _, m in runs for c, M, _ in runs if min(a, c) < b < max(a, c)],
                  default=-math.inf)
        if a * best + 2.0**-20 < low + math.log(4 * math.pi / target):
            continue
        (M1, m1), (M2, m2) = circle(math.exp(a)), circle(math.exp(-a))
        runs.append((a, max(M1, M2) * (1 + 2.0**-30), max(m1, m2)))
        n, _ = _strip_nodes(*runs[-1][:2], target)
        best = min(best, n if n <= _MAX_NODES else math.inf)
    return [(a, M) for a, M, _ in runs]


def _node_integrand(num, den, kernel, base, sig,
                    tol: float) -> tuple[Callable, int | None, list, int]:
    """(integrand, mirror, strips, wp): psi -> prod (x; base)_inf over num / prod
    over den * 3phi2 kernel at w = e^(i psi), to within tol.

    num and den hold exact node arguments (c, form); kernel ([u1, u2, u3], [l1,
    l2], zc) stands for 3phi2(u1, u2, u3 sigma/w; l1, l2 w/sigma; base, zc
    w/sigma).  The majorant pass gives strips, the pairs (a, M) for
    :func:`integrate_periodic` (:func:`_strips`), and on |w| = 1 the bound mag,
    the kernel's term count T and the working bits wp.  Everything free of w
    is computed here.

    Lemma (the strips): with s = log |w|, log (-m e^(e s); Q)_inf for a
    numerator argument of modulus m e^(e s), -log (m e^(e s); Q)_inf for a
    denominator's and the log of each kernel term majorant (the ratio
    majorants' logs: s, log(1 + c e^-s) and -log(1 - c e^s), c >= 0, and
    constants) are convex in s, so the integrand's majorant F, their product
    times the sum of the term majorants, is log-convex, and Phi(a) =
    max(log F(e^a), log F(e^-a)) is convex and nondecreasing in a >= 0 (a lies
    between -b and b for b > a).  A strip run at b gives log m_b <= Phi(b) <=
    log M_b: M is the majorant and m the majorant less its tails.  Each
    product's log-tail is under 2^-20 (:func:`_log_poch_majorant`); the
    kernel's term majorants are summed until the rest is at most 2^-20 of the
    partial sum S (:func:`_kernel_majorant`), so M takes S plus that rest and
    m takes S, a sum of some of the terms.  So Phi(a) >= log m_b for b <= a,
    and, by convexity, Phi(a) >= log m_b + (log m_b - log M_c) (b - a) / (c -
    b) for b between a and c.  Skip rule: the quadrature's
    target is 2 pi tol, and a strip (a, M) needs at least log(4 pi M / target)
    / a >= (Phi(a) + log(4 pi / target)) / a nodes.  :func:`_strips` skips a
    strip when that bound exceeds the least count n of the strips run so far
    by 2^-20 / a: its trapezoid bound at n nodes or fewer is then above target
    e^(2^-20), a margin for the float roundings, so its count is above n and
    it sets neither N nor the bound.

    :func:`_fold` gives the pairs; each theta pair is a :func:`_theta_pair`
    series, each +- pair (in base^2) and each other argument an :func:`_euler`
    series.  Each of these n factors, its majorant m_j the product of its
    arguments' majorants, errs by at most t m_j, t = tol / (4 n mag).  A
    numerator's series is cut at t m_j, and its partial sums, as a theta
    series', are at most m_j.  A denominator's, P*, is cut at t / (2 m_j) from
    its product P; as |P| >= 1/m_j, 1/P* is within t m_j / (2 - t) <= t m_j of
    1/P and exceeds m_j by at most the factor 1 / (1 - t/2).  Telescoping with
    the d denominators first, an error meets d - 1 such factors at most, and
    (1 - t/2)^-d <= 2 as d t <= n t <= tol / 4 <= 1 (mag >= 1, tol <= 4): the
    products err by at most sum_j t m_j prod_(i!=j) m_i = tol / 4.  The
    kernel's truncation takes a quarter, tail: its first T terms are within
    tail / 2 of it (:func:`_kernel_majorant`), and their power series cut at
    w^N within tail / 2 of them (:func:`_kernel_degree`).  Term k + 1 over term
    k is rho_k (w - u3 sigma q^k) / (1 - (l2/sigma) q^k w), as w conj(w) = 1,
    rho_k = (1 - u1 q^k)(1 - u2 q^k)(zc/sigma) / ((1 - q^(k+1))(1 - l1 q^k)), so
    the T terms' sum is analytic in |w| < sigma/|l2|.  Lemma (Cauchy): on |w| =
    R, 1 < R < r = min(sigma/|l2|, sigma/|zc|), the sum S_R of the T term
    majorants bounds it, so its w^n coefficient has modulus at most S_R R^-n,
    and those past w^N sum to at most S_R R^(-N-1) / (1 - 1/R).  Any such R
    proves it; :func:`_kernel_degree` sums S_R once, at R = r^(1 - 2^-10).
    The strips' relative tails leave this unit-circle tail absolute: it is the
    truncation budget.  Rounding has the other
    half by a margin, not yet a proof: each operation errs by under 2^-wp and
    the majorants bound every factor, so wp is log2(operations x mag / tol) +
    4, counting the series terms and 8 per kernel coefficient.  A series is
    summed at a node pair (w, -w) by two Clenshaw recurrences at w^2, on its
    even and odd coefficients shifted up by g at build time; by the lemma of
    :func:`_clenshaw` (|U_j(cos 2 theta)| <= j + 1, so each of a degree-D
    series' two values moves by under (D+1)^2/2 units of 2^-(wp+g), g = 2
    bit_length(D) + 2) each value is within 2^-wp / 8 of the same
    coefficients' exact sum, less than the one operation per coefficient
    counted for it.

    mirror, for :func:`integrate_periodic`, is read off the exact data: with
    the base, u1, u2 and l1 real, it is 1 when every w-dependent constant C
    (of the node arguments and of u3 sigma/w, l2 w/sigma and zc w/sigma) is
    real, -1 when every C is imaginary, and otherwise None.  At mirror -1 the
    nodes run on v = i w, and each C w^e is C (-i)^e v^e with C (-i)^e real,
    rotated exactly before any series is built; so at either mirror every
    series has real coefficients, one int each, and the kernel's backward
    recurrence takes 3 products per step, not 12.
    """
    nums, dens, thetas, pms = _fold(num, den, base, sig)
    (u1, u2, u3), (l1, l2), zc = kernel
    cs = [C for C, _, _ in nums + dens] + [u3 * sig, l2 / sig, zc / sig]
    mirror = None
    if all(x.is_real() for x in (base, u1, u2, l1)):
        if all(C.is_real() for C in cs):
            mirror = 1
        elif all(C.re == 0 for C in cs):
            mirror = -1
    kabs = [x.abs_upper() for x in (u1, u2, u3 * sig, l1, l2 / sig, zc / sig)]
    # the hypothesis, and the strips below a_max: -log of the largest modulus
    moduli = [(form.format(c), m) for (c, form), (_, m, _) in zip(den, dens)]
    moduli += [("3phi2 kernel l2 w/sigma", kabs[4]), ("3phi2 kernel zc w/sigma", kabs[5])]
    for name, m in moduli:
        if m >= 1:
            raise HypothesisViolation(f"{name} has modulus {m:.6g} >= 1", factor=name)
    a_max = -math.log(max(m for _, m in moduli))
    Q = base.abs_upper()

    def log_majorants(rho):  # of each argument's product on |w| = rho
        return [_log_poch_majorant(m * rho**e, Q, is_den)
                for args, is_den in ((nums, False), (dens, True)) for _, m, e in args]

    # the unit circle: term counts, working bits
    lm = log_majorants(1.0)
    if sum(lm) >= 700:
        raise NoConvergence(f"the node products' majorant on the unit circle passes the float "
                            f"range: its log is {sum(lm):.6g} >= 700")
    products_1 = math.exp(sum(lm))
    tail = tol / (4 * products_1)
    S, rest, T = _kernel_majorant(kabs, Q, 1.0, tail / 2)
    mag = products_1 * (S + rest + tail / 2)  # the kernel's series cut at w^N too
    if T is None or mag == math.inf:
        raise NoConvergence("the node integrand has no finite majorant on the unit circle")

    def circle(rho):  # (M, log m) on |w| = rho; m less the tails (the lemma)
        log_p, (S, rest, _) = sum(log_majorants(rho)), _kernel_majorant(kabs, Q, rho, None)
        low = log_p - len(lm) * 2.0**-20 + (math.log(S) if S < math.inf else 0.0)
        return (math.exp(log_p) if log_p < 700 else math.inf) * (S + rest), low

    strips = _strips(circle, a_max, 2 * math.pi * tol)
    if all(M == math.inf for _, M in strips):
        raise NoConvergence("no strip off the unit circle has a finite integrand majorant")

    if mirror == -1:  # the nodes run on v = i w: C w^e = C (-i)^e v^e, C (-i)^e real
        nums, dens = ([(C * (-I if e == 1 else I), m, e) for C, m, e in args]
                      for args in (nums, dens))
        kernel = ([u1, u2, u3 * I], [l1, -I * l2], -I * zc)
    # (C, power of w, base, log m_j, den) per product, each +- pair one in base^2
    k = len(nums)  # lm holds nums, then dens
    paired = set(itertools.chain(*thetas, *((k + i, k + j) for i, j in pms)))
    prods = [(C, e, base, lm[i], i >= k) for i, (C, _, e) in enumerate(nums + dens)
             if i not in paired]
    prods += [(dens[i][0] ** 2, 2 * dens[i][2], base * base, lm[k + i] + lm[k + j], True)
              for i, j in pms]
    t = tol / (4 * (len(thetas) + len(prods)) * mag)
    series = [_theta_pair(nums[i][0], base, t * math.exp(lm[i] + lm[j])) for i, j in thetas]
    # each Euler series cut at t m_j, or at t / (2 m_j) for a denominator
    eulers = [(_euler(C, b, t / (2 * math.exp(L)) if den else t * math.exp(L)), e, den)
             for C, e, b, L, den in prods]
    N = _kernel_degree(kabs, Q, T, tail / 2) if T > 1 else 0  # the first term is 1
    ops = sum(len(p) + len(m) for p, m, _ in series) + sum(len(e[0]) for e in eulers) + 8 * (N + 1)
    wp = max(64, math.ceil(math.log2(ops) + math.log2(mag) - math.log2(tol)) + 4)

    # (Clenshaw parts at W = wp + g bits, W, den) per series
    series = [(_parts(*_theta_fixed(sr, base, wp), nums[i][2]), 0)
              for sr, (i, _) in zip(series, thetas)]
    series += [(_parts(tuple(zip(*(_fx(c, wp) for c in cs))), None, e), den)
               for cs, e, den in eulers]
    series.append((_parts(_kernel_fixed(kernel, base, sig, T, N, wp), None, 1), 0))
    series = [(terms, wp + g, den) for (g, terms), den in series]
    one = 1 << wp, 0

    def integrand(w):
        if mirror == -1:
            w = -w[1], w[0]  # v = i w
        w2 = _mul(w, w, wp)
        # at w and at -w, the numerator and the denominator, divided once; each
        # factor at W = wp + g times the product so far at wp, from 1, is cut to wp
        num_w = num_m = den_w = den_m = one
        for terms, W, den in series:
            at_w, at_m = _clenshaw(terms, w, w2, wp)
            if den:
                den_w, den_m = _mul(den_w, at_w, W), _mul(den_m, at_m, W)
            else:
                num_w, num_m = _mul(num_w, at_w, W), _mul(num_m, at_m, W)
        return _div(num_w, den_w, wp), _div(num_m, den_m, wp)

    return integrand, mirror, strips, wp


def _arguments(identity_id: str, params: dict, fe) -> tuple:
    """(base, prefactor numerators, prefactor denominators, node numerators,
    node denominators, kernel) of one representation at exact params and f:
    its family's shared entries first, then its row's."""
    rep = _REPS[identity_id]
    base, values, pref_den, num, den = rep.family(params, fe)
    pref_num, more_den, n, d, kernel = rep.args(*values)
    return base, pref_num, pref_den + more_den, num + [n], den + [d], kernel


def _descriptor(identity_id: str, params: dict, sigma, f, eps: float, pb: int):
    """(prefactor, integrand, mirror, strips, working bits) for one identity; the
    integrand is accurate to eps / 16 over max(1, |prefactor|)."""
    sig, fe = E(sigma), E(f)
    if not sig.is_real() or sig.re <= 0:
        raise DomainError("sigma must be a positive real")
    if fe.is_zero():
        raise ZeroArgument("the theta parameter f must be nonzero")
    base, pref_num, pref_den, num, den, kernel = _arguments(identity_id, params, fe)
    qb = QBase.of(base)
    try:
        pref = _product_quotient([(x, qb) for x in pref_num], [(x, qb) for x in pref_den],
                                 pb, eps / 64)
    except ZeroDivisionError:
        raise HypothesisViolation("a prefactor denominator product vanishes",
                                  factor="prefactor") from None
    tol = eps / (16 * max(1.0, float(abs(pref))))
    return (pref, *_node_integrand(num, den, kernel, base, sig, tol))


def verify_integral_rep(identity_id: str, params: dict, sigma, f, eps: float = DEFAULT_EPS,
                        precision_bits: int = DEFAULT_PRECISION_BITS) -> VerificationReport:
    """Prefactor times contour integral against the series-side product; the
    hypothesis is checked on the moduli before any node runs, and the
    quadrature runs on the node count whose proven bound is at most eps/16."""
    check_eps(eps)
    if identity_id not in INTEGRAL_IDS:
        raise UnknownIdentity(f"no integral representation registered under {identity_id!r}")
    series = _series_side(identity_id, params, eps, precision_bits)
    pref, integrand, mirror, strips, wp = _descriptor(identity_id, params, sigma, f, eps,
                                                      precision_bits)
    # the value is pref * integral / (2 pi): a bound on the integral times scale bounds it
    scale = max(1.0, float(abs(pref))) / (2 * math.pi)
    integral, bound, nodes = integrate_periodic(integrand, strips, eps / 16 / scale, wp,
                                                max(precision_bits, wp), mirror)
    with mp.workprec(precision_bits + 10):
        value = pref * integral * ApproxScalar(1 / (2 * mpmath.pi), precision_bits)
    return make_report(
        identity_id, {**params, "sigma": sigma, "f": f}, value, series,
        compare_approx(value, series, eps), quadrature_nodes=nodes,
        note=f"quadrature nodes={nodes} bound={bound * scale:.3e} working_bits={wp}",
    )
