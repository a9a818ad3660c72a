"""Theta function, periodic quadrature, and the contour-integral checks."""

import itertools
import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import mp

from qident import integrals, powerseries, qkernel
from qident.errors import (
    DomainError,
    HypothesisViolation,
    NoConvergence,
    QIdentError,
    UnknownIdentity,
    ZeroArgument,
)
from qident.integrals import (
    INTEGRAL_IDS,
    _series_side,
    integrate_periodic,
    theta,
    trapezoid_bound,
    trapezoid_nodes,
    verify_integral_rep,
)
from qident.powerseries import phi_series_coeffs
from qident.products import product_sides, side_value
from qident.qkernel import (
    ApproxScalar,
    ExactScalar,
    _abs_upper,
    _div,
    _fx,
    _mul,
    _one_minus,
    qpoch_infinite,
)
from qident.series import SeriesSpec, _ratio_majorant, eval_phi_nonterminating

E = ExactScalar

POINTS = {
    "IR_SCHLOSSER": ({"q": F(1, 2), "a": F(1, 3), "b": F(7, 10), "z": F(1, 5)}, F(4, 5), F(9, 10)),
    "IR_SRIV_JAIN": ({"q": F(1, 2), "a": F(1, 3), "b": F(2, 5), "z": F(1, 5)}, F(3, 5), F(7, 10)),
    "IR_NASSRALLAH_1": ({"p": F(7, 10), "a": F(1, 2), "b": F(2, 5), "z": F(1, 5)}, F(1, 2), F(3, 5)),
    "IR_NASSRALLAH_2": ({"p": F(7, 10), "a": F(1, 2), "b": F(2, 5), "z": F(1, 5)}, F(1, 2), F(3, 5)),
    "IR_THM21": ({"p": F(7, 10), "a": F(1, 2), "b": F(2, 5), "z": F(1, 5)}, F(1, 2), F(3, 5)),
}


class TestTheta:
    def test_zero_argument(self):
        with pytest.raises(ZeroArgument):
            theta(E(0), E(F(1, 2)))

    def test_vanishes_on_lattice(self):
        # x = q^k makes (q/x;q)_inf ... (x;q)_inf contain an exact zero factor
        q = E(F(1, 2))
        v = theta(q**3, q, eps=1e-30)
        assert v.is_zero()

    def test_symmetry_x_to_q_over_x(self):
        q, x = E(F(1, 2)), E(F(2, 7))
        with mp.workprec(280):
            a = theta(x, q, 1e-35)
            b = theta(q / x, q, 1e-35)
            assert abs(a.value - b.value) < 1e-33

    def test_against_long_product_oracle(self):
        # theta(-1; 1/2) = (-1;q)_inf (-1/2;q)_inf via a 300-term direct product
        with mp.workprec(520):
            q = mpmath.mpf(1) / 2
            ref = mpmath.mpf(1)
            for k in range(300):
                ref *= (1 + q**k) * (1 + q * q**k)
            v = theta(E(F(-1)), E(F(1, 2)), 1e-35, 256)
            assert abs(v.value - ref) < 1e-33


def _unit(t):
    """The exact point ((1 - t^2) + 2t i) / (1 + t^2) of the unit circle."""
    return E(1 - t * t, 2 * t) / (1 + t * t)


def _clenshaw_at(A, B, e, w, wp):
    """The node's sum of a series (A, B) in w^e (:func:`integrals._parts`) at
    the fixed-point w = (cos theta, sin theta) at wp, run as the node runs it
    at wp + g bits, paired with -w, and its value at w shifted back to a pair
    at wp."""
    g, parts = integrals._parts(A, B, e)
    (re, im), _ = integrals._clenshaw(parts, w, _mul(w, w, wp), wp)
    return re >> g, im >> g


class TestThetaSeries:
    # the node's theta evaluator (the triple-product series over (q; q)_K and
    # its Clenshaw sum) against mpmath's products at four times its precision;
    # budgets from 1e-5 to 1e-40 keep the truncation a visible part of the error
    @given(
        st.fractions(min_value=F(1, 20), max_value=F(9, 10), max_denominator=20),
        st.sampled_from([F(0), F(1, 3), F(-2, 5), F(3, 2)]),
        st.fractions(min_value=F(1, 10), max_value=10, max_denominator=10),
        st.fractions(min_value=-2, max_value=2, max_denominator=5),
        st.sampled_from([1, -1]), st.integers(0, 255), st.integers(5, 40),
    )
    # q = 9/10: 1/(q; q)_K is about 7.8e5, and K = 1171 roundings of (q; q)_K
    # at wp alone put the value 4.6e-35 off, past the budget 1e-35
    @example(F(9, 10), F(0), F(1, 10), F(-3, 2), 1, 74, 35)
    # psi = -pi and psi = 0, where sin psi = 0 and |U_j(cos psi)| = j + 1 is largest
    @example(F(1, 2), F(0), F(3, 2), F(0), 1, 0, 40)
    @example(F(4, 5), F(1, 3), F(9, 10), F(1, 2), -1, 128, 40)
    @settings(max_examples=20, deadline=None)
    def test_series_against_qp_oracle(self, r, t, R, s, e, j, digits):
        # q = r u(t), real when t = 0; x = C w^e, C = R u(s), |x| = R on |w| = 1
        q, C = E(r) * _unit(t), E(R) * _unit(s)
        budget, wp = 10.0**-digits, 200
        A, B = integrals._theta_fixed(integrals._theta_pair(C, q, budget), q, wp)
        with mp.workprec(4 * wp):
            w = mpmath.expjpi(mpmath.mpf(j) / 128 - 1)  # psi = -pi + 2 pi j / 256
            u = _fx(w, wp)
            re, im = _clenshaw_at(A, B, e, u, wp)
            got = mpmath.mpc(mpmath.ldexp(re, -wp), mpmath.ldexp(im, -wp))
            qv, x = (mpmath.mpc(mpmath.mpf(v.re.numerator) / v.re.denominator,
                                mpmath.mpf(v.im.numerator) / v.im.denominator) for v in (q, C))
            x *= w**e
            ref = mpmath.qp(x, qv) * mpmath.qp(qv / x, qv)
            # rounding: each of the fewer than 2^12 operations errs by under
            # 2^-wp relative to the series' absolute majorant
            majorant = mpmath.qp(-abs(x), abs(qv)) * mpmath.qp(-abs(qv / x), abs(qv))
            assert abs(got - ref) <= budget + 2.0 ** (12 - wp) * majorant, (budget, abs(got - ref))


def _euler_at(C, q, budget, e, j, wp):
    """The node's Euler series for (C w^e; q)_inf at psi = -pi + 2 pi j / 256,
    fixed point at wp, and x = C w^e and q as mpmath values at the working
    precision (set it to 4 wp)."""
    A = tuple(zip(*(_fx(c, wp) for c in integrals._euler(C, q, budget))))
    w = mpmath.expjpi(mpmath.mpf(j) / 128 - 1)
    u = _fx(w, wp)
    value = _clenshaw_at(A, None, e, u, wp)
    qv, x = (mpmath.mpc(mpmath.mpf(v.re.numerator) / v.re.denominator,
                        mpmath.mpf(v.im.numerator) / v.im.denominator) for v in (q, C))
    return value, x * w**e, qv


def _mp(value, wp):
    return mpmath.mpc(mpmath.ldexp(value[0], -wp), mpmath.ldexp(value[1], -wp))


# |q| from 1/20 to 9/10, q real when its angle t is 0, the angle s of C, the
# power e of w, the node j and the budget's digits
_EULER_DRAWS = (
    st.fractions(min_value=F(1, 20), max_value=F(9, 10), max_denominator=20),
    st.sampled_from([F(0), F(1, 3), F(-2, 5), F(3, 2)]),
    st.fractions(min_value=-2, max_value=2, max_denominator=5),
    st.sampled_from([1, -1]), st.integers(0, 255), st.integers(5, 40),
)


class TestEulerSeries:
    # the node's Euler series for a single product and the reciprocal it
    # divides by, against mpmath's products at four times its precision;
    # budgets from 1e-5 to 1e-40 keep the truncation a visible part of the error
    @given(st.fractions(min_value=F(1, 10), max_value=10, max_denominator=10), *_EULER_DRAWS)
    # psi = -pi and psi = 0, where sin psi = 0 and |U_j(cos psi)| = j + 1 is largest
    @example(F(10), F(1, 2), F(0), F(0), 1, 0, 40)
    @example(F(7, 2), F(9, 10), F(-2, 5), F(1, 5), -1, 128, 40)
    @settings(max_examples=10, deadline=None)
    def test_numerator_against_qp_oracle(self, R, r, t, s, e, j, digits):
        budget, wp = 10.0**-digits, 200
        with mp.workprec(4 * wp):
            value, x, qv = _euler_at(E(R) * _unit(s), E(r) * _unit(t), budget, e, j, wp)
            # rounding: each of the fewer than 2^12 operations errs by under
            # 2^-wp relative to the series' absolute majorant (-|x|; |q|)_inf
            majorant = mpmath.qp(-abs(x), abs(qv))
            err = abs(_mp(value, wp) - mpmath.qp(x, qv))
            assert err <= budget + 2.0 ** (12 - wp) * majorant, (budget, err)

    @given(st.fractions(min_value=F(1, 10), max_value=F(19, 20), max_denominator=20),
           *_EULER_DRAWS)
    @example(F(19, 20), F(9, 10), F(0), F(0), 1, 0, 40)
    @example(F(9, 10), F(1, 2), F(1, 3), F(-1, 2), -1, 128, 40)
    @settings(max_examples=10, deadline=None)
    def test_reciprocal_against_qp_oracle(self, R, r, t, s, e, j, digits):
        # summed to budget / (2m), m = 1/(|x|; |q|)_inf >= 1/|(x; q)_inf|, the
        # reciprocal is within budget m; rounding as above, times m^2
        budget, wp = 10.0**-digits, 200
        with mp.workprec(4 * wp):
            m = 1 / mpmath.qp(abs(R), r)
            value, x, qv = _euler_at(E(R) * _unit(s), E(r) * _unit(t), budget / (2 * m), e, j, wp)
            majorant = mpmath.qp(-abs(x), abs(qv))
            err = abs(_mp(_div((1 << wp, 0), value, wp), wp) - 1 / mpmath.qp(x, qv))
            assert err <= budget * m + 2.0 ** (14 - wp) * majorant * m * m, (budget, err)


def _lemma_units(D, e):
    """The lemma of integrals._clenshaw: the bound on one sum's rounding error, in
    units of 2^-(wp + g), for a series of degree D in w^e."""
    if D < 2:
        return D
    return D * (D - 1) / 2 + 1 if e in (2, -2) else D * D / 4 + 3


class TestClenshaw:
    # the pair evaluator's own rounding: both values, at w and at -w, against
    # the same coefficients summed term by term at four times the bits, with
    # cos k theta and sin k theta from T_m(c) and s U_(m-1)(c) at the
    # fixed-point w^2 = (c, s) as the integrand forms it, an odd k's turned by
    # the fixed-point w; the lemma of integrals._clenshaw bounds each sum's
    # error by _lemma_units at its g = 2 bit_length(D) + 2, so each part of a
    # value, one sum or two (Gaussian data), is within twice that, under 2^-wp
    # / 4; random ints of either sign up to 2^(wp+4), real or Gaussian, a
    # series in x = w^e (B = A) or a theta's (A, B), e = +-1, and +-2, a
    # series whose odd part is empty
    @given(st.integers(0, 450), st.integers(64, 200), st.integers(0, 255),
           st.booleans(), st.booleans(), st.sampled_from([1, -1, 2, -2]),
           st.randoms(use_true_random=False))
    # the |zc|/sigma = 9/10 kernel's length, at a node where c is not +-1 or 0
    @example(424, 160, 37, False, False, 1, random.Random(1))
    @example(424, 69, 201, True, True, -1, random.Random(2))
    @example(423, 80, 90, True, False, 2, random.Random(3))
    # D = 1, where the lemma's one unit is tight: one rounding a value, each
    # on the finest grid the lemma allows
    @example(1, 64, 37, False, False, 1, random.Random(4))
    @example(1, 96, 150, True, True, -1, random.Random(5))
    @example(0, 64, 37, True, True, 1, random.Random(6))
    @settings(max_examples=16, deadline=None)
    def test_rounding_lemma(self, D, wp, j, gaussian, theta, e, rng):
        def ints():
            return [rng.randint(-1 << (wp + 4), 1 << (wp + 4)) for _ in range(D + 1)]

        A = (ints(), ints() if gaussian else [0] * (D + 1))
        B = (ints(), ints() if gaussian else [0] * (D + 1)) if theta else None
        g, parts = integrals._parts(A, B, e)
        with mp.workprec(4 * wp):
            w = _fx(mpmath.expjpi(mpmath.mpf(j) / 128 - 1), wp)
            w2 = _mul(w, w, wp)
            got = integrals._clenshaw(parts, w, w2, wp)
            (c1, s1), (c, s) = ([mpmath.ldexp(v, -wp) for v in x] for x in (w, w2))
            t, u = [mpmath.mpf(1), c], [mpmath.mpf(0), s]  # T_m(c), s U_(m-1)(c)
            for _ in range(D):
                t.append(2 * c * t[-1] - t[-2])
                u.append(2 * c * u[-1] - u[-2])

            def at(seqs, polys):  # sum_k a_k p_k, for the re and im ints of a
                return mpmath.mpc(*(mpmath.fsum(mpmath.ldexp(a, -wp) * p
                                                for a, p in zip(seq, polys)) for seq in seqs))

            units = (2 if gaussian else 1) * _lemma_units(D, e) * (1 + 2.0**-40)
            for sign, value in zip((1, -1), got):
                if e in (2, -2):  # cos 2k theta, sin 2k theta
                    cos, sin = t[:D + 1], u[:D + 1]
                else:  # cos (2m+1) theta = cos theta cos 2m theta - sin theta sin 2m theta
                    cos = [t[k // 2] if k % 2 == 0 else sign * (c1 * t[k // 2] - s1 * u[k // 2])
                           for k in range(D + 1)]
                    sin = [u[k // 2] if k % 2 == 0 else sign * (s1 * t[k // 2] + c1 * u[k // 2])
                           for k in range(D + 1)]
                ref = at(A, cos) + 1j * (1 if e > 0 else -1) * at(B or A, sin)
                err = mpmath.mpc(mpmath.ldexp(value[0], -wp - g), mpmath.ldexp(value[1], -wp - g))
                err -= ref
                bound = units * 2.0 ** -(wp + 2 * D.bit_length() + 2)
                assert max(abs(err.real), abs(err.imag)) <= bound <= 2.0**-wp / 4, (
                    sign, float(max(abs(err.real), abs(err.imag)) / bound))


def _mpc(v):
    """An exact Gaussian rational as an mpmath value at the working precision."""
    return mpmath.mpc(mpmath.mpf(v.re.numerator) / v.re.denominator,
                      mpmath.mpf(v.im.numerator) / v.im.denominator)


class TestKernelSeries:
    # the node's 3phi2 kernel, 3phi2(u1, u2, u3/w; l1, l2 w; q, zc w) at sigma = 1,
    # as its power series in w summed by Clenshaw's recurrence, against mpmath.qhyper at
    # four times its precision; budgets from 1e-5 to 1e-40 keep the two cuts (at
    # T terms and at w^N) a visible part of the error
    @given(
        *_EULER_DRAWS[:2],
        st.fractions(min_value=F(1, 20), max_value=F(9, 10), max_denominator=20),
        st.fractions(min_value=0, max_value=F(9, 10), max_denominator=20),
        *_EULER_DRAWS[2:],
    )
    # psi = -pi and psi = 0, where sin psi = 0 and |U_j(cos psi)| = j + 1 is largest
    @example(F(1, 2), F(0), F(1, 2), F(1, 4), F(0), 1, 0, 40)
    @example(F(1, 5), F(1, 3), F(3, 4), F(1, 2), F(1, 2), -1, 128, 40)
    # |zc| = 9/10: T = 369 terms as N + 1 = 425 coefficients, the shape of the
    # longest kernel series at a contour point, where the roundings grow most
    @example(F(3, 4), F(0), F(9, 10), F(1, 2), F(0), 1, 128, 9)
    @settings(max_examples=10, deadline=None)
    def test_series_against_qhyper_oracle(self, r, t, Z, L, s, e, j, digits):
        # |zc| = Z and |l2| = L, at angles s and e s; u3 at angle -s
        q, zc, l2 = E(r) * _unit(t), E(Z) * _unit(s), E(L) * _unit(e * s)
        u1, u2, u3, l1 = E(F(1, 3)), E(F(-1, 5), F(1, 5)), E(F(3, 2)) * _unit(-s), E(F(2, 5))
        budget, wp = 10.0**-digits, 160
        kabs = [x.abs_upper() for x in (u1, u2, u3, l1, l2, zc)]
        Q = q.abs_upper()
        _, _, T = integrals._kernel_majorant(kabs, Q, 1.0, budget / 2)
        N = integrals._kernel_degree(kabs, Q, T, budget / 2)
        coeffs = integrals._kernel_fixed(([u1, u2, u3], [l1, l2], zc), q, E(1), T, N, wp)
        assert len(coeffs[0]) == len(coeffs[1]) == N + 1
        with mp.workprec(4 * wp):
            w = mpmath.expjpi(mpmath.mpf(j) / 128 - 1)  # psi = -pi + 2 pi j / 256
            got = _mp(_clenshaw_at(coeffs, None, 1, _fx(w, wp), wp), wp)
            qv, zv, lv, a1, a2, a3, b1 = map(_mpc, (q, zc, l2, u1, u2, u3, l1))
            ref = mpmath.qhyper([a1, a2, a3 / w], [b1, lv * w], qv, zv * w, maxterms=10**6)
        with mp.workprec(64):
            # rounding: under 2^-wp per operation, relative to the absolute
            # majorant series, for at most 2^16 (N + 1) operations
            majorant = mpmath.qhyper([-abs(a1), -abs(a2), -abs(a3)], [abs(b1), abs(lv)],
                                     abs(qv), abs(zv), maxterms=10**6)
            err = abs(got - ref)
            assert err <= budget + 2.0 ** (16 - wp) * (N + 1) * majorant, (budget, err, T, N)


def _geometric(r):
    """f(psi) = 1/(1 - r e^(i psi)), whose integral over [-pi, pi] is 2 pi."""
    return lambda psi: 1 / (1 - r * mpmath.expjpi(psi / mpmath.pi))


def _geometric_fx(r, wp):
    """The same f on the fixed-point node w = e^(i psi) at wp, as integrate_periodic
    evaluates it: 1/(1 - r w), fixed point at wp."""
    rw = _fx(r, wp)
    return lambda w: _div((1 << wp, 0), _one_minus(_mul(rw, w, wp), wp), wp)


def _paired(f):
    """A one-node integrand f as integrate_periodic takes it: w -> (f(w), f(-w))."""
    return lambda w: (f(w), f((-w[0], -w[1])))


def _node(psi, wp):
    """e^(i psi) as a fixed-point pair at wp, each part rounded down once."""
    return _fx(mpmath.expjpi(psi / mpmath.pi), wp)


def _kernel_lengths(monkeypatch):
    """(T, coefficients) of every kernel series the integral checks build."""
    lengths, build = [], integrals._kernel_fixed

    def recording(kernel, base, sig, T, N, wp):
        coeffs = build(kernel, base, sig, T, N, wp)
        lengths.append((T, len(coeffs[0])))
        return coeffs

    monkeypatch.setattr(integrals, "_kernel_fixed", recording)
    return lengths


def _count_nodes(monkeypatch):
    """(calls, mirrors): the psi of every node the integral checks evaluate,
    and the mirror each node integrand declares."""
    calls, mirrors = [], []
    build = integrals._node_integrand

    def counting(*args):
        integrand, mirror, strips, wp = build(*args)
        mirrors.append(mirror)

        def counted(w):
            calls.append(w)
            return integrand(w)

        return counted, mirror, strips, wp

    monkeypatch.setattr(integrals, "_node_integrand", counting)
    return calls, mirrors


class TestQuadrature:
    def test_constant_integrand(self):
        val, bound, nodes = integrate_periodic(lambda w: ((1 << 128, 0),) * 2, [(1.0, 1.0)],
                                               1e-30, 128)
        assert bound <= 1e-30 and nodes % 4 == 0
        with mp.workprec(150):
            assert abs(val.value - 2 * mpmath.pi) < 1e-30

    def test_pure_oscillation_integrates_to_zero(self):
        # e^(5 i psi) = w^5 is entire: on |Im psi| < 1 it is at most e^5
        k, wp = 5, 192

        def power(w):
            v = (1 << wp, 0)
            for _ in range(k):
                v = _mul(v, w, wp)
            return v

        val, _, _ = integrate_periodic(_paired(power), [(1.0, math.exp(k))], 1e-28, wp)
        assert abs(val.value) < 1e-28

    def test_geometric_convergence_on_analytic_integrand(self):
        # analytic for |w| < 1/r, so in |Im psi| < log 3, and at most 1/(1 - r e^a) there
        r = mpmath.mpf(1) / 3
        strips = [(a, 1 / (1 - float(r) * math.exp(a))) for a in (0.5, 0.8, 1.0)]
        val, bound, nodes = integrate_periodic(_paired(_geometric_fx(r, 192)), strips, 1e-30, 192)
        assert bound <= 1e-30
        with mp.workprec(220):
            assert abs(val.value - 2 * mpmath.pi) <= bound + 1e-50

    @pytest.mark.parametrize("r, mirror", [(mpmath.mpf(1) / 3, 1), (mpmath.mpc(0, 1) / 3, -1)])
    def test_mirror_evaluates_half_the_nodes(self, r, mirror):
        # 1/(1 - r e^(i psi)) is conj f at -psi for a real r, and at pi - psi for
        # an imaginary r: the N-node sum takes N/4 + 1 distinct pairs (w, -w)
        calls = []
        f = _paired(_geometric_fx(r, 192))

        def counted(w):
            calls.append(w)
            return f(w)

        strips = [(a, 1 / (1 - float(abs(r)) * math.exp(a))) for a in (0.5, 0.8, 1.0)]
        val, bound, nodes = integrate_periodic(counted, strips, 1e-30, 192, 192, mirror)
        assert bound <= 1e-30
        assert len(calls) == len(set(calls)) == nodes // 4 + 1
        with mp.workprec(220):
            assert abs(val.value - 2 * mpmath.pi) <= bound + 1e-50

    @pytest.mark.parametrize("r", [F(1, 5), F(1, 3), F(1, 2), F(4, 5), F(9, 10)])
    @pytest.mark.parametrize("n", [64, 128, 192, 512])
    def test_bound_covers_closed_form_error(self, r, n):
        # the n-node trapezoid error on 1/(1 - r e^(i psi)) is exactly
        # 2 pi r^n / (1 - r^n); the proven bound must be at least that on
        # every strip the integrand is analytic in
        exact = 2 * math.pi * float(r) ** n / (1 - float(r) ** n)
        a_max = -math.log(r)
        for frac in (0.25, 0.5, 0.75, 0.9, 0.99):
            a = a_max * frac
            assert trapezoid_bound(a, 1 / (1 - float(r) * math.exp(a)), n) >= exact
        if n <= 128:
            with mp.workprec(400):
                f = _geometric(mpmath.mpf(r.numerator) / r.denominator)
                vals = [f(-mpmath.pi + 2 * mpmath.pi * j / n) for j in range(n)]
                error = abs(2 * mpmath.pi * mpmath.fsum(vals) / n - 2 * mpmath.pi)
                assert abs(error - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("a, M, target", [
        (0.1, 1e3, 1e-10), (0.3, 2.0, 1e-25), (1.0, 1.0, 1e-30), (2.0, 0.5, 1.0),
        (0.05, 1e9, 1e-12),
    ])
    def test_chosen_n_is_least_multiple_of_4(self, a, M, target):
        n, bound = trapezoid_nodes([(a, M)], target)
        assert n % 4 == 0 and bound == trapezoid_bound(a, M, n) <= target
        assert n == 4 or trapezoid_bound(a, M, n - 4) > target
        # of several strips, the one that needs the fewest nodes is taken
        assert trapezoid_nodes([(a / 2, M), (a, M)], target) == (n, bound)

    def test_closed_form_matches_linear_scan(self):
        # the closed-form N against the least multiple of 4 a plain scan finds
        for a in (0.003, 0.05, 0.3, 1.0, 4.0):
            for M in (1e-3, 1.0, 7.5, 1e9, 1e200):
                for target in (1e-300, 1e-40, 1e-10, 1.0, 1e3):
                    n = 4
                    while n <= 1 << 20 and not trapezoid_bound(a, M, n) <= target:
                        n += 4
                    if n > 1 << 20:
                        with pytest.raises(NoConvergence):
                            trapezoid_nodes([(a, M)], target)
                    else:
                        assert trapezoid_nodes([(a, M)], target) == (
                            n, trapezoid_bound(a, M, n)), (a, M, target)

    def test_strip_with_infinite_majorant_is_never_chosen(self):
        # an infinite M proves nothing, also once e^(-a n) underflows to 0
        with pytest.raises(NoConvergence):
            trapezoid_nodes([(0.01, math.inf)], 1e-10)
        finite = trapezoid_nodes([(0.01, 1.0)], 1e-10)
        assert trapezoid_nodes([(0.5, math.inf), (0.01, 1.0)], 1e-10) == finite
        assert math.isfinite(finite[1]) and finite[1] <= 1e-10
        assert trapezoid_bound(0.01, math.inf, 80_000) == math.inf
        # a large finite M is not lost to the underflow either
        assert 0 < trapezoid_bound(0.01, 1e300, 80_000) < 1e-40

    def test_invalid_specs(self):
        # eps must be positive
        params, sigma, _ = POINTS["IR_SRIV_JAIN"]
        with pytest.raises(DomainError, match="eps must be positive, got 0.0"):
            verify_integral_rep("IR_SRIV_JAIN", params, sigma=sigma, f=F(3, 2), eps=0.0)

    def test_doubling_converges_geometrically(self):
        # inter-level differences shrink by at least 4x per doubling once
        # they are below 1e-5 (analytic periodic integrand)
        r = mpmath.mpf(2) / 5

        def f(psi):
            return 1 / (1 - r * mpmath.expjpi(psi / mpmath.pi))

        with mp.workprec(240):
            n = 16
            vals = [f(-mpmath.pi + 2 * mpmath.pi * j / n) for j in range(n)]
            est = 2 * mpmath.pi * mpmath.fsum(vals) / n
            diffs = []
            for _ in range(6):
                new = []
                for j in range(n):
                    new.append(vals[j])
                    new.append(f(-mpmath.pi + 2 * mpmath.pi * (2 * j + 1) / (2 * n)))
                n *= 2
                vals = new
                nxt = 2 * mpmath.pi * mpmath.fsum(vals) / n
                diffs.append(float(abs(nxt - est)))
                est = nxt
        # ignore levels already at the working-precision noise floor
        small = [d for d in diffs if 1e-60 < d < 1e-5]
        assert len(small) >= 2
        for a, b in zip(small, small[1:]):
            assert b <= a / 4

    def test_no_convergence_error(self):
        # a strip this thin cannot reach 1e-40 within 2^20 nodes; no node is evaluated
        def f(psi):
            raise AssertionError("no node should be evaluated")

        with pytest.raises(NoConvergence):
            integrate_periodic(f, [(1e-6, 1.0)], 1e-40, 128)

    @given(st.integers(1, 1024), st.integers(64, 800), st.sampled_from([None, 1, -1]))
    @settings(max_examples=12, deadline=None)
    def test_nodes_are_accurate(self, k, wp, mirror):
        # each node within 2^-wp of e^(i psi_j), mpmath's at four times the
        # bits: the two on the axes, exact, then the N/4 - 1 between them, and
        # with no mirror the N/4 - 1 after; each stands for itself and its
        # negative, so the N/2 pairs cover the N nodes
        n, one = 4 * k, 1 << wp
        nodes = list(integrals._nodes(n, wp, mirror))
        j0 = n // 4 if mirror == -1 else 0
        js = [j0, j0 + n // 4, *range(j0 + 1, j0 + n // 4)]
        if mirror is None:
            js += range(n // 4 + 1, n // 2)
            assert sorted(js + [j + n // 2 for j in js]) == list(range(n))
        axes = [(-one, 0), (0, -one)] if mirror != -1 else [(0, -one), (one, 0)]
        assert len(nodes) == len(js) and nodes[:2] == axes
        with mp.workprec(4 * wp):
            for j, w in zip(js, nodes):
                err = abs(_mp(w, wp) - mpmath.expjpi(mpmath.mpf(2 * j - n) / n))
                assert err <= 2.0**-wp, (n, wp, mirror, j, float(err * 2**wp))

    @pytest.mark.parametrize("point", [*sorted(INTEGRAL_IDS), "complex"])
    def test_no_mpmath_at_a_node(self, point, monkeypatch):
        # e^(i psi) is formed once per quadrature, for omega; every node is a
        # rotation of the last, in ints
        calls, during, expjpi = [], [], mpmath.expjpi
        integrate = integrals.integrate_periodic

        def counted(*args):
            before = len(calls)
            result = integrate(*args)
            during.append(len(calls) - before)
            return result

        monkeypatch.setattr(mpmath, "expjpi", lambda *args: calls.append(args) or expjpi(*args))
        monkeypatch.setattr(integrals, "integrate_periodic", counted)
        ident = "IR_SRIV_JAIN" if point == "complex" else point
        params, sigma, _ = POINTS[ident]
        if point == "complex":
            params = {**params, "z": E(F(1, 5), F(1, 10))}
        rep = verify_integral_rep(ident, params, sigma=sigma, f=F(3, 2), eps=1e-15)
        assert rep.passed and len(during) == 1 and during[0] <= 1


class TestIntegralReps:
    @pytest.mark.parametrize("ident", sorted(INTEGRAL_IDS))
    def test_series_side_is_product_lhs(self, ident):
        # IR_X reproduces the left side of product transformation X
        params, _, _ = POINTS[ident]
        product_id = "SCHLOSSER_T4" if ident == "IR_SCHLOSSER" else ident[3:]
        lhs_side, _ = product_sides(product_id, params)
        expected, _ = side_value(lhs_side, E(params["z"]), 1e-25 / 4, 256)
        assert _series_side(ident, params, 1e-25, 256).value == expected.value

    @pytest.mark.parametrize("ident", sorted(INTEGRAL_IDS))
    def test_matches_series_side(self, ident):
        params, sigma, _ = POINTS[ident]
        rep = verify_integral_rep(ident, params, sigma=sigma, f=F(3, 2), eps=1e-25)
        assert rep.passed, (ident, rep.rel_err)
        assert rep.rel_err <= 1e-25

    def test_z_zero_gives_one(self):
        # the series side of the product at z = 0 is exactly 1
        params, sigma, _ = POINTS["IR_SRIV_JAIN"]
        params = dict(params)
        params["z"] = F(0)
        rep = verify_integral_rep("IR_SRIV_JAIN", params, sigma=sigma, f=F(3, 2), eps=1e-25)
        assert rep.passed

    def test_sigma_independence(self):
        # both sigma choices reproduce the same series value within 2 eps
        params, s1, s2 = POINTS["IR_THM21"]
        r1 = verify_integral_rep("IR_THM21", params, sigma=s1, f=F(3, 2), eps=1e-25)
        r2 = verify_integral_rep("IR_THM21", params, sigma=s2, f=F(3, 2), eps=1e-25)
        assert r1.passed and r2.passed
        assert abs(r1.abs_err) + abs(r2.abs_err) <= 2e-25

    def test_f_independence(self):
        params, sigma, _ = POINTS["IR_SCHLOSSER"]
        r1 = verify_integral_rep("IR_SCHLOSSER", params, sigma=sigma, f=F(3, 2), eps=1e-25)
        r2 = verify_integral_rep("IR_SCHLOSSER", params, sigma=sigma, f=F(5, 2), eps=1e-25)
        assert r1.passed and r2.passed

    def test_hypothesis_violation_names_factor(self):
        params, _, _ = POINTS["IR_SRIV_JAIN"]
        with pytest.raises(HypothesisViolation) as err:
            verify_integral_rep("IR_SRIV_JAIN", params, sigma=F(6, 5), f=F(3, 2))
        assert err.value.factor is not None

    def test_kernel_argument_outside_unit_disc_is_named(self):
        # |zc|/sigma = (1/2)/(2/5) > 1: the 3phi2 kernel diverges on the contour
        params = {"q": F(1, 2), "a": F(1, 5), "b": F(1, 5), "z": F(1, 2)}
        with pytest.raises(HypothesisViolation) as err:
            verify_integral_rep("IR_SRIV_JAIN", params, sigma=F(2, 5), f=F(3, 2))
        assert err.value.factor == "3phi2 kernel zc w/sigma"

    def test_kernel_argument_near_unit_circle(self, monkeypatch):
        # |zc|/sigma = 9/10 is the largest modulus: strips close to it, where
        # the kernel's majorant settles slowly or not at all, are passed over;
        # the kernel's T = 369 terms run as a series of 425 coefficients, built once
        lengths = _kernel_lengths(monkeypatch)
        params = {"q": F(1, 2), "a": F(1, 5), "b": F(1, 5), "z": F(9, 20)}
        rep = verify_integral_rep("IR_SRIV_JAIN", params, sigma=F(1, 2), f=F(3, 2), eps=1e-8)
        assert rep.passed and rep.quadrature_nodes <= 512 and lengths == [(369, 425)]

    def test_kernel_majorant_settles_near_circle(self):
        # |zc|/sigma = 0.99: each strip circle's kernel majorant stops at a tail
        # of 2^-20 of its partial sum, so the strips settle near the kernel's
        # radius, where an absolute tail took more than 10000 terms on every
        # strip, and the check proves its bound and passes
        params = {"q": F(1, 2), "a": F(1, 5), "b": F(1, 5), "z": F(99, 200)}
        rep = verify_integral_rep("IR_SRIV_JAIN", params, sigma=F(1, 2), f=F(3, 2), eps=1e-6)
        assert rep.passed and rep.note == "quadrature nodes=4848 bound=6.128e-08 working_bits=69"

    def test_products_past_float_range_are_named(self):
        # f = 10^10 puts the node products' log-majorant on |w| = 1 past 700:
        # the refusal gives that log, not a missing majorant of the integrand
        params, sigma, _ = POINTS["IR_SRIV_JAIN"]
        with pytest.raises(NoConvergence, match=r"products' majorant .* log is 801\.662 >= 700"):
            verify_integral_rep("IR_SRIV_JAIN", params, sigma=sigma, f=F(10**10), eps=1e-10)

    @pytest.mark.parametrize("f", [10**4, 10**6, 10**8])
    def test_large_f_prefactor_keeps_its_precision(self, f):
        # the README point at large f: the prefactor's denominator holds
        # theta(f; q), and at f = 10^8 the prefactor is about -2^-733, which a
        # fixed-point quotient at 286 bits rounded to 0, a left side of 0
        params, sigma, _ = POINTS["IR_SRIV_JAIN"]
        rep = verify_integral_rep("IR_SRIV_JAIN", params, sigma=sigma, f=F(f), eps=1e-10)
        assert rep.passed, (rep.lhs, rep.rel_err)

    def test_sigma_one_rejected_by_prescan(self):
        # sigma = 1 puts |i sigma/w| = 1 on the contour
        params, _, _ = POINTS["IR_SRIV_JAIN"]
        with pytest.raises(HypothesisViolation):
            verify_integral_rep("IR_SRIV_JAIN", params, sigma=F(1), f=F(3, 2))

    def test_bad_sigma_and_id(self):
        params, sigma, _ = POINTS["IR_SRIV_JAIN"]
        with pytest.raises(DomainError):
            verify_integral_rep("IR_SRIV_JAIN", params, sigma=F(-1, 2), f=F(3, 2))
        with pytest.raises(UnknownIdentity):
            verify_integral_rep("IR_NOPE", params, sigma=sigma, f=F(3, 2))

    def test_report_is_deterministic(self):
        # the note states N, the proven bound and the working bits, the same each run
        params, sigma, _ = POINTS["IR_SCHLOSSER"]
        r1, r2 = (verify_integral_rep("IR_SCHLOSSER", params, sigma=sigma, f=F(3, 2), eps=1e-10)
                  for _ in range(2))
        assert r1 == r2 and r1.passed
        assert r1.note == "quadrature nodes=480 bound=4.442e-12 working_bits=81"

    def test_zero_f_rejected(self):
        params, sigma, _ = POINTS["IR_SRIV_JAIN"]
        with pytest.raises(ZeroArgument):
            verify_integral_rep("IR_SRIV_JAIN", params, sigma=sigma, f=F(0))


class TestNodeKernel:
    @pytest.mark.parametrize("ident", sorted(INTEGRAL_IDS))
    def test_nodes_match_certified_products_and_series(self, ident, monkeypatch):
        # the fixed-point node, the first value of its pair, against
        # qpoch_infinite for the ten products and eval_phi_nonterminating for
        # the 3phi2 kernel, at 8 nodes; the node's
        # own truncation and rounding (eps / 16 / max(1, |prefactor|)) are far
        # below the 1e-60 asked for
        seen = []
        build = integrals._node_integrand

        def recording(*args):
            seen.append(args)
            return build(*args)

        monkeypatch.setattr(integrals, "_node_integrand", recording)
        params, sigma, _ = POINTS[ident]
        _, integrand, _, _, wp = integrals._descriptor(ident, params, sigma, F(3, 2), 1e-62, 256)
        num, den, ((u1, u2, u3), (l1, l2), zc), base, sgv, _ = seen[0]
        bits, tight = 320, 1e-72
        # the exact node data, at the reference precision
        u1, u2, u3, l1, l2, zc, base, sgv = (
            x.to_approx(bits).value for x in (u1, u2, u3, l1, l2, zc, base, sgv)
        )
        num, den = ([(c.to_approx(bits).value, form) for c, form in args] for args in (num, den))

        def approx(x):
            return ApproxScalar(x, bits)

        for j in range(0, 64, 8):
            with mp.workprec(266):
                psi = -mpmath.pi + 2 * mpmath.pi * j / 64
                got = _mp(integrand(_node(psi, wp))[0], wp)
            with mp.workprec(bits):
                w = mpmath.expjpi(psi / mpmath.pi)
                so, ws = sgv / w, w / sgv
                forms = {integrals._SO: lambda c: c * so, integrals._WS: lambda c: c * ws}
                ref = approx(1)
                for args, power in ((num, 1), (den, -1)):
                    for c, form in args:
                        v, _ = qpoch_infinite(approx(forms[form](c)), approx(base), tight, bits)
                        ref = ref * v if power == 1 else ref / v
                spec = SeriesSpec.make(
                    [approx(u1), approx(u2), approx(u3 * so)], [approx(l1), approx(l2 * ws)],
                    approx(base), approx(zc * ws),
                )
                kernel, _ = eval_phi_nonterminating(spec, tight, bits)
                ref = ref * kernel
                assert abs(got - ref.value) <= 1e-60 * abs(ref.value), (ident, j)

    def test_no_node_evaluated_twice(self, monkeypatch):
        # the hypothesis is checked on the moduli, so each node runs once: a
        # pair (w, -w) a call, and the mirror leaves N/4 + 1 of the N/2 pairs
        calls, _ = _count_nodes(monkeypatch)
        params, sigma, _ = POINTS["IR_THM21"]
        rep = verify_integral_rep("IR_THM21", params, sigma=sigma, f=F(3, 2), eps=1e-15)
        assert rep.passed
        # the bound's N (the node doubling took 256)
        assert rep.quadrature_nodes == 160
        assert len(calls) == len(set(calls)) == 160 // 4 + 1 == 41
        assert rep.note.startswith("quadrature nodes=160 bound=")

    @pytest.mark.parametrize("point", [*sorted(INTEGRAL_IDS), "complex z", "complex f",
                                       "a = 0", "b = 0", "z = 0"])
    def test_mirrored_sum_matches_all_nodes(self, point, monkeypatch):
        # the base-p^4 family is conj f at -psi, IR_SCHLOSSER and IR_SRIV_JAIN
        # at pi - psi, and a complex z or f has no mirror; IR_THM21 at a, b or z
        # = 0 has series of degree 0.  The paired sum is the N-node sum of f
        # evaluated at every node by _direct_sums, to within the node
        # tolerance tol: each pair of nodes may differ from conjugates by 2 tol
        eps, bits = 1e-10, 256
        ident = point if point in POINTS else "IR_SRIV_JAIN" if point == "complex z" else "IR_THM21"
        params, sigma, _ = POINTS[ident]
        f = E(F(3, 2), F(1, 2)) if point == "complex f" else F(3, 2)
        if point == "complex z":
            params = {**params, "z": E(F(1, 5), F(1, 10))}
        elif "=" in point:
            params = {**params, point[0]: F(0)}
        pref, integrand, mirror, strips, wp = integrals._descriptor(
            ident, params, sigma, f, eps, bits)
        assert mirror == (None if point.startswith("complex") else
                          -1 if ident in ("IR_SCHLOSSER", "IR_SRIV_JAIN") else 1)
        tol = eps / (16 * max(1.0, float(abs(pref))))
        paired, _, n = integrate_periodic(integrand, strips, 2 * math.pi * tol, wp, bits, mirror)
        monkeypatch.setattr(integrals, "_clenshaw", _direct_sums)
        with mp.workprec(bits + 10):
            vals = [integrand(_node(-mpmath.pi + 2 * mpmath.pi * j / n, wp))[0] for j in range(n)]
            full = 2 * mpmath.pi * _mp([sum(parts) for parts in zip(*vals)], wp) / n
            assert abs(paired.value - full) <= 2 * math.pi * tol, (point, n)

    @pytest.mark.parametrize("ident, eps, pinned", [
        ("IR_SCHLOSSER", 1e-10, "quadrature nodes=480 bound=4.442e-12"),
        ("IR_SRIV_JAIN", 1e-15, "quadrature nodes=160 bound=5.363e-17"),
        ("IR_NASSRALLAH_1", 1e-15, "quadrature nodes=156 bound=5.608e-17"),
        ("IR_NASSRALLAH_2", 1e-15, "quadrature nodes=156 bound=4.483e-17"),
        ("IR_THM21", 1e-15, "quadrature nodes=160 bound=2.265e-17"),
    ])
    def test_nodes_run_no_factor_loop(self, ident, eps, pinned, monkeypatch):
        # every single and +- product is an Euler series summed by Clenshaw's
        # recurrence: no _qprod runs at a node, only each theta pair's (q; q)_K
        # while the integrand is built, and the 3phi2 kernel's T terms are one
        # series of N + 1 coefficients, built once; N and the bound are those
        # of the factor products and the kernel term loop the series replaced
        lengths = _kernel_lengths(monkeypatch)
        calls, during, qprod, integrate = [], [], integrals._qprod, integrals.integrate_periodic

        def counted(*args):
            before = len(calls)
            result = integrate(*args)
            during.append(len(calls) - before)
            return result

        monkeypatch.setattr(integrals, "_qprod", lambda *args: calls.append(args) or qprod(*args))
        monkeypatch.setattr(integrals, "integrate_periodic", counted)
        params, sigma, _ = POINTS[ident]
        rep = verify_integral_rep(ident, params, sigma=sigma, f=F(3, 2), eps=eps)
        # (T, N + 1) of the kernel series
        kernel = {"IR_SCHLOSSER": (38, 42), "IR_SRIV_JAIN": (52, 56)}.get(ident, (39, 42))
        assert rep.passed and during == [0] and len(calls) == 2 and lengths == [kernel]
        assert rep.note.startswith(pinned + " working_bits="), rep.note

    @pytest.mark.parametrize("point", [*sorted(INTEGRAL_IDS), "complex z", "complex f"])
    def test_real_coefficients_hold_one_int(self, point, monkeypatch):
        # at the workload points (mirror 1, or -1 after w = -i v) every series
        # the nodes sum has real coefficients, one int each; the series that a
        # complex z (the kernel, last) or f (the two theta pairs, first) enters
        # keep (re, im) pairs, and the value is that of the Horner sums the
        # recurrence replaced, within the stated bound
        built, build = [], integrals._parts
        monkeypatch.setattr(integrals, "_parts",
                            lambda *args: built.append(build(*args)) or built[-1])
        ident, f, eps = {"complex z": ("IR_SRIV_JAIN", F(3, 2), 1e-15),
                         "complex f": ("IR_THM21", E(F(3, 2), F(1, 2)), 1e-15)}.get(
                             point, (point, F(3, 2), 1e-10 if point == "IR_SCHLOSSER" else 1e-15))
        params, sigma, _ = POINTS[ident]
        if point == "complex z":
            params = {**params, "z": E(F(1, 5), F(1, 10))}
        rep = verify_integral_rep(ident, params, sigma=sigma, f=f, eps=eps)
        assert rep.passed
        imag = [any(ui or vi for _, ui, _, vi, *_ in parts) for _, parts in built]
        assert all(isinstance(a, int) for _, parts in built for *_, a0, even, a1, odd in parts
                   for a in (a0, *even, a1, *odd))
        if point == "complex z":
            assert imag[-1] and rep.quadrature_nodes == 164
            horner = ("1.044435041074346580853735701049482809719",
                      "0.06523754146939585191446112189775060400483")
        elif point == "complex f":
            assert imag[:2] == [True, True] and rep.quadrature_nodes == 156
            horner = ("1.336769224203325942416815329125325665449",
                      "9.380742778355648508272656859659414614667e-19")
        else:
            assert not any(imag)
            return
        bound = float(rep.note.split("bound=")[1].split()[0])
        with mp.workprec(256):
            value = mpmath.mpmathify(rep.lhs.replace(" ", ""))
            assert abs(value - mpmath.mpc(*horner)) <= bound, value

    def test_complex_point_evaluates_every_node(self, monkeypatch):
        # a complex z breaks both mirrors: all N nodes run, N/2 pairs (w, -w)
        # that cover them, and the check passes
        calls, mirrors = _count_nodes(monkeypatch)
        params, sigma, _ = POINTS["IR_SRIV_JAIN"]
        params = {**params, "z": E(F(1, 5), F(1, 10))}
        rep = verify_integral_rep("IR_SRIV_JAIN", params, sigma=sigma, f=F(3, 2))
        assert rep.passed and mirrors == [None] and rep.quadrature_nodes == 220
        assert len(calls) == len(set(calls)) == 110
        assert len(set(calls) | {(-x, -y) for x, y in calls}) == 220


def _direct_sums(parts, w, w2, wp):
    """The values at w and at -w of the series whose :func:`integrals._parts`
    are given, for the integrand in place of :func:`integrals._clenshaw`, term
    by term: the coefficients in w are the parts' even and odd ones
    interleaved, and w^k, formed by products at wp, gives cos k theta + i sin
    k theta."""
    values = []
    for x in (w, (-w[0], -w[1])):
        re = im = 0
        for ur, ui, vr, vi, a0, even, a1, odd in parts:
            coeffs = [a for pair in itertools.zip_longest([a0, *reversed(even)],
                                                          [a1, *reversed(odd)], fillvalue=0)
                      for a in pair]
            cos = sin = 0
            power = (1 << wp, 0)
            for a in coeffs:
                cos, sin = cos + a * power[0], sin + a * power[1]
                power = _mul(power, x, wp)
            cos, sin = cos >> wp, sin >> wp
            re, im = re + ur * cos - vi * sin, im + ui * cos + vr * sin
        values.append((re, im))
    return values


def _folds(monkeypatch, nudge=None):
    """The (theta pairs, +- pairs) that every integrand built folds, the node
    arguments first passed through nudge(num, den) when given."""
    folds, fold, build = [], integrals._fold, integrals._node_integrand

    def recording(*args):
        nums, dens, thetas, pms = fold(*args)
        folds.append((len(thetas), len(pms)))
        return nums, dens, thetas, pms

    def nudged(num, den, *rest):
        return build(*nudge(list(num), list(den)), *rest)

    monkeypatch.setattr(integrals, "_fold", recording)
    if nudge is not None:
        monkeypatch.setattr(integrals, "_node_integrand", nudged)
    return folds


def _scale(args, indices, factor=1 + F(1, 10**40)):
    return [(c * factor, form) if i in indices else (c, form) for i, (c, form) in enumerate(args)]


class TestFolding:
    @pytest.mark.parametrize("ident", sorted(INTEGRAL_IDS))
    def test_pairs_are_read_off_the_data(self, ident, monkeypatch):
        # two theta pairs of the five numerator arguments everywhere; +- pairs
        # (i sigma/w, -i sigma/w) in both, and (i b w/sigma, -i b w/sigma) in
        # IR_SRIV_JAIN; none in the base-p^4 family
        folds = _folds(monkeypatch)
        params, sigma, _ = POINTS[ident]
        integrals._descriptor(ident, params, sigma, F(3, 2), 1e-15, 256)
        assert folds == [(2, {"IR_SCHLOSSER": 1, "IR_SRIV_JAIN": 2}.get(ident, 0))]

    @pytest.mark.parametrize("ident, num_nudged, den_nudged, expected", [
        # sigma nudged in the two sigma/w numerator arguments: C_i C_j = base nowhere
        ("IR_THM21", (0, 1), (), (0, 0)),
        ("IR_SCHLOSSER", (), (0,), (2, 0)),
        ("IR_SRIV_JAIN", (0,), (3,), (1, 1)),
    ])
    def test_nudged_constant_is_not_folded(self, ident, num_nudged, den_nudged, expected,
                                           monkeypatch):
        # a pair off by 1e-40 runs as its two products, and the check still passes
        folds = _folds(monkeypatch,
                       lambda num, den: (_scale(num, num_nudged), _scale(den, den_nudged)))
        params, sigma, _ = POINTS[ident]
        rep = verify_integral_rep(ident, params, sigma=sigma, f=F(3, 2), eps=1e-20)
        assert folds == [expected] and rep.passed, rep.rel_err


def _euler_reference(C, q, budget, theta=False):
    """The ExactScalar recurrence c_(n+1) = -c_n C q^n / (1 - q^(n+1)), or -c_n C
    q^n with theta, cut where :func:`integrals._euler` cuts, each coefficient
    reduced by a gcd."""
    Q = q.abs_upper()
    coeffs, x, qk = [E(1)], C, E(0) if theta else q
    c, xa, Qk = 1.0, C.abs_upper(), 0.0 if theta else Q
    while xa >= 1 - Qk or c * xa / (1 - Qk - xa) > budget:
        coeffs.append(-coeffs[-1] * x / (1 - qk))
        c, xa, Qk, x, qk = c * xa / (1 - Qk), xa * Q, Qk * Q, x * q, qk * q
    return coeffs


_EULER_DATA = pytest.mark.parametrize("C", [E(F(3, 7)), E(F(-5, 2)), E(0, F(2, 3)),
                                             E(F(1, 3), F(-2, 5))])
_EULER_BASES = pytest.mark.parametrize("q", [E(F(1, 2)), E(F(7, 10)) ** 4, E(0, F(1, 2))])


class TestFractionFreeCoefficients:
    @_EULER_DATA
    @_EULER_BASES
    @pytest.mark.parametrize("theta", [False, True])
    def test_coefficients_are_the_reduced_ones(self, C, q, theta):
        # _euler's unreduced triples hold the values of the reduced coefficients
        # that phi_series_coeffs gives Euler's series (0phi0, or 1phi1(q; 0; q,
        # C x) with theta), which are the recurrence's, cut alike: every node
        # series converts to the same fixed-point ints and moduli
        got = integrals._euler(C, q, 1e-30, theta)
        ref = phi_series_coeffs(*(([q], [0]) if theta else ([], [])), q, C, len(got) - 1).coeffs
        assert len(got) > 5 and list(ref) == _euler_reference(C, q, 1e-30, theta)
        for wp in (64, 90, 256):
            assert [_fx(c, wp) for c in got] == [_fx(c, wp) for c in ref]
        assert [_abs_upper(*c) for c in got] == [c.abs_upper() for c in ref]

    @_EULER_DATA
    @_EULER_BASES
    @pytest.mark.parametrize("theta", [False, True])
    def test_no_gcd_runs(self, C, q, theta, monkeypatch):
        # the cost as a count: the coefficients are running products of the
        # term ratios, left unreduced, real or Gaussian
        calls = []
        for module in (qkernel, powerseries):
            monkeypatch.setattr(module, "gcd", lambda *args, gcd=module.gcd: calls.append(args)
                                or gcd(*args))
        assert len(integrals._euler(C, q, 1e-30, theta)) > 5 and calls == []


# the second point of each representation in criterion 9, with its two sigmas
SECOND_POINTS = {
    "IR_SCHLOSSER": ({"q": F(2, 5), "a": F(1, 4), "b": F(3, 5), "z": F(1, 6)}, F(4, 5), F(9, 10)),
    "IR_SRIV_JAIN": ({"q": F(2, 5), "a": F(1, 4), "b": F(1, 2), "z": F(1, 6)}, F(7, 10), F(4, 5)),
    "IR_NASSRALLAH_1": ({"p": F(3, 5), "a": F(2, 5), "b": F(1, 2), "z": F(1, 6)}, F(2, 5), F(1, 2)),
    "IR_NASSRALLAH_2": ({"p": F(3, 5), "a": F(2, 5), "b": F(1, 2), "z": F(1, 6)}, F(2, 5), F(1, 2)),
    "IR_THM21": ({"p": F(3, 5), "a": F(2, 5), "b": F(1, 2), "z": F(1, 6)}, F(1, 2), F(11, 20)),
}


def _strip_scan(ident, params, sigma, f, eps):
    """(pruned, full, targets): the strips the pruned scan keeps and the ten
    of the full scan, from the same circles, and the pruned scan's target
    beside the one verify_integral_rep passes to the quadrature."""
    scans, pruned_scan = [], integrals._strips

    def recording(circle, a_max, target):
        full = []
        for i in range(1, 11):
            a = a_max * (1 - 2.0**-i)
            full.append((a, max(circle(math.exp(a))[0], circle(math.exp(-a))[0]) * (1 + 2.0**-30)))
        scans.append((pruned_scan(circle, a_max, target), full, target))
        return scans[-1][0]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integrals, "_strips", recording)
        pref, *_ = integrals._descriptor(ident, params, sigma, f, eps, 256)
    (pruned, full, target), = scans
    return pruned, full, (target, eps / 16 / (max(1.0, float(abs(pref))) / (2 * math.pi)))


def _same_count(pruned, full, targets):
    for target in targets:
        assert trapezoid_nodes(pruned, target) == trapezoid_nodes(full, target), target


class TestStripScan:
    @pytest.mark.parametrize("ident", sorted(INTEGRAL_IDS))
    def test_workload_points_keep_the_count_on_six_strips(self, ident):
        # the note's N and bound are the full scan's, from at most 6 strips
        params, sigma, _ = POINTS[ident]
        eps = 1e-10 if ident == "IR_SCHLOSSER" else 1e-15
        pruned, full, targets = _strip_scan(ident, params, sigma, F(3, 2), eps)
        _same_count(pruned, full, targets)
        assert len(pruned) <= 6, len(pruned)
        rep = verify_integral_rep(ident, params, sigma=sigma, f=F(3, 2), eps=eps)
        n, _ = trapezoid_nodes(full, targets[1])
        assert rep.quadrature_nodes == n and rep.note.startswith(f"quadrature nodes={n} bound=")

    @pytest.mark.parametrize("ident", sorted(INTEGRAL_IDS))
    def test_criterion_9_points(self, ident):
        # both points at both sigmas at f = 3/2, and f = 5/2 at the first point, as
        # criterion 9 checks it (at the second, q = 2/5 puts 5/2 on a prefactor
        # pole of IR_SCHLOSSER and IR_SRIV_JAIN)
        (p1, s1, s2), (p2, s3, s4) = POINTS[ident], SECOND_POINTS[ident]
        for params, sigma, f in [(p1, s1, F(3, 2)), (p1, s2, F(3, 2)), (p1, s1, F(5, 2)),
                                 (p2, s3, F(3, 2)), (p2, s4, F(3, 2))]:
            _same_count(*_strip_scan(ident, params, sigma, f, 1e-25))

    @pytest.mark.parametrize("ident, params, sigma, f, eps", [
        ("IR_SRIV_JAIN", {**POINTS["IR_SRIV_JAIN"][0], "z": E(F(1, 5), F(1, 10))}, F(3, 5),
         F(3, 2), 1e-15),
        ("IR_SRIV_JAIN", {**POINTS["IR_SRIV_JAIN"][0], "q": E(0, F(1, 2))}, F(3, 5),
         F(3, 2), 1e-15),
        ("IR_THM21", POINTS["IR_THM21"][0], F(1, 2), E(F(3, 2), F(1, 2)), 1e-15),
        # |zc|/sigma = 9/10: the top six strips' kernel majorants do not settle
        ("IR_SRIV_JAIN", {"q": F(1, 2), "a": F(1, 5), "b": F(1, 5), "z": F(9, 20)}, F(1, 2),
         F(3, 2), 1e-8),
    ], ids=["complex z", "complex base", "complex f", "zc near the circle"])
    def test_complex_and_edge_points(self, ident, params, sigma, f, eps):
        _same_count(*_strip_scan(ident, params, sigma, f, eps))

    @given(st.sampled_from(sorted(INTEGRAL_IDS)), st.data(),
           st.sampled_from([F(3, 2), F(5, 2), F(1, 3)]), st.sampled_from([1e-8, 1e-15, 1e-25]))
    @settings(max_examples=25, deadline=None)
    def test_real_points(self, ident, data, f, eps):
        # real points, sigma drawn between the moduli it must exceed (the
        # denominator arguments and the kernel's l2 and zc times sigma) and
        # the bound it must stay below (1, or p for the base-p^4 family)
        qp = ident in ("IR_SCHLOSSER", "IR_SRIV_JAIN")
        q, a, b, z = (data.draw(st.fractions(lo, hi, max_denominator=20)) for lo, hi in [
            (F(1, 5), F(1, 2)) if qp else (F(3, 5), F(4, 5)),
            *[(F(1, 5), F(7, 10) if qp else F(1, 2))] * 2, (F(1, 20), F(1, 4))])
        if qp:
            params, top = {"q": q, "a": a, "b": b, "z": z}, F(1)
            low = [a, b, z] + ([q / b, q * a] if ident == "IR_SCHLOSSER" else [a * b * b])
        else:
            A, B = a * a, b * b
            params, top = {"p": q, "a": a, "b": b, "z": z}, q
            low = [q * A, A / q, q * z] + {"IR_NASSRALLAH_1": [q * B, q * A * A * B],
                                            "IR_NASSRALLAH_2": [q**3 * B, q**3 * A * A * B],
                                            "IR_THM21": [B / q, A * A * B / q]}[ident]
        assume(max(low) < top)
        t = data.draw(st.fractions(F(1, 5), F(4, 5), max_denominator=10))
        sigma = max(low) + (top - max(low)) * t
        try:
            scan = _strip_scan(ident, params, sigma, f, eps)
        except (HypothesisViolation, NoConvergence):  # a prefactor pole, or no finite strip
            assume(False)
        _same_count(*scan)


# the eps of each representation's pinned CI note
NOTE_EPS = {ident: 1e-10 if ident == "IR_SCHLOSSER" else 1e-15 for ident in INTEGRAL_IDS}


def _ten_radius_degree(kabs, Q, T, budget):
    """The kernel degree N of the scan that one radius replaced: the Cauchy
    lemma at R = r^(1 - 2^-i), i = 1, 2, ..., 10, until N stops falling."""
    u1, u2, u3, l1, l2, z = kabs
    r, best = 1 / max(l2, z), math.inf
    for i in range(1, 11):
        R = r ** (1 - 2.0**-i)
        rs = (_ratio_majorant(z * R, (u1, u2, u3 / R), (l1, l2 * R), Q, k) for k in range(T - 1))
        S = sum(itertools.accumulate(rs, lambda m, x: m * x, initial=1.0))
        n = (math.log(S) - math.log1p(-1 / R) - math.log(budget)) / math.log(R)
        if not n < best:
            break
        best = n
    return max(0, math.ceil(best) - 1)


def _degree_calls(monkeypatch, points):
    """((kabs, Q, T, budget), N) of every kernel degree the descriptors at
    points (ident, params, sigma, f, eps) find."""
    calls, degree = [], integrals._kernel_degree

    def recording(*args):
        calls.append((args, degree(*args)))
        return calls[-1][1]

    monkeypatch.setattr(integrals, "_kernel_degree", recording)
    for ident, params, sigma, f, eps in points:
        integrals._descriptor(ident, params, sigma, f, eps, 256)
    return calls


class TestKernelDegree:
    def test_one_radius_is_the_ten_radius_scan(self, monkeypatch):
        # the workload points at their notes' eps, the criterion-9 points at
        # 1e-25 and |zc|/sigma = 9/10: the scan's estimate fell at all ten
        # radii, so its last, r^(1 - 2^-10), gives the same N
        points = [(ident, POINTS[ident][0], POINTS[ident][1], F(3, 2), NOTE_EPS[ident])
                  for ident in INTEGRAL_IDS]
        for ident in INTEGRAL_IDS:
            (p1, s1, s2), (p2, s3, s4) = POINTS[ident], SECOND_POINTS[ident]
            points += [(ident, params, sigma, f, 1e-25) for params, sigma, f in [
                (p1, s1, F(3, 2)), (p1, s2, F(3, 2)), (p1, s1, F(5, 2)), (p2, s3, F(3, 2)),
                (p2, s4, F(3, 2))]]
        points.append(("IR_SRIV_JAIN", {"q": F(1, 2), "a": F(1, 5), "b": F(1, 5), "z": F(9, 20)},
                       F(1, 2), F(3, 2), 1e-8))
        calls = _degree_calls(monkeypatch, points)
        assert len(calls) == len(points) == 31
        for args, N in calls:
            assert N == _ten_radius_degree(*args), args

    def test_one_radius_is_summed(self, monkeypatch):
        # the cost as a count: T - 1 ratio majorants, where the scan summed
        # them at each of its ten radii
        (args, N), = _degree_calls(monkeypatch, [(
            "IR_SCHLOSSER", POINTS["IR_SCHLOSSER"][0], POINTS["IR_SCHLOSSER"][1], F(3, 2), 1e-10)])
        calls, majorant = [], integrals._ratio_majorant
        monkeypatch.setattr(integrals, "_ratio_majorant",
                            lambda *a: calls.append(a) or majorant(*a))
        assert integrals._kernel_degree(*args) == N and len(calls) == args[2] - 1 == 37

    @given(*_EULER_DRAWS[:2],
           st.fractions(min_value=F(1, 20), max_value=F(9, 10), max_denominator=20),
           st.fractions(min_value=0, max_value=F(9, 10), max_denominator=20),
           _EULER_DRAWS[2], _EULER_DRAWS[3], _EULER_DRAWS[5])
    @example(F(1, 2), F(0), F(9, 10), F(1, 2), F(0), 1, 9)
    @settings(max_examples=10, deadline=None)
    def test_coefficients_past_the_degree_sum_to_the_budget(self, r, t, Z, L, s, e, digits):
        # the kernel series of TestKernelSeries: its first T terms as a power
        # series, built to twice the degree N and more at 256 bits, whose
        # coefficients past w^N sum to at most the budget (Cauchy's estimate)
        q, zc, l2 = E(r) * _unit(t), E(Z) * _unit(s), E(L) * _unit(e * s)
        u1, u2, u3, l1 = E(F(1, 3)), E(F(-1, 5), F(1, 5)), E(F(3, 2)) * _unit(-s), E(F(2, 5))
        budget, wp = 10.0**-digits, 256
        kabs = [x.abs_upper() for x in (u1, u2, u3, l1, l2, zc)]
        Q = q.abs_upper()
        _, _, T = integrals._kernel_majorant(kabs, Q, 1.0, budget)
        N = integrals._kernel_degree(kabs, Q, T, budget)
        kr, ki = integrals._kernel_fixed(([u1, u2, u3], [l1, l2], zc), q, E(1), T, 2 * N + 32, wp)
        past = sum(math.hypot(x, y) for x, y in zip(kr[N + 1:], ki[N + 1:])) / 2.0**wp
        assert past <= budget, (past, budget, T, N)


class TestVerdictResolution:
    """A contour verdict can refuse: at each workload point, at its note's eps,
    the series side moved by 4 eps max(1, |r|) fails and moved by eps/4 max(1,
    |r|) passes, through verify_integral_rep and its comparison."""

    @pytest.mark.parametrize("shift, passes", [(4, False), (0.25, True)])
    @pytest.mark.parametrize("ident", INTEGRAL_IDS)
    def test_moved_series_side(self, ident, shift, passes, monkeypatch):
        params, sigma, _ = POINTS[ident]
        eps = NOTE_EPS[ident]
        series = _series_side(ident, params, eps, 256)
        delta = shift * eps * max(1.0, float(abs(series.value)))
        for moved in (series + ApproxScalar(delta, 256), series - ApproxScalar(delta * 1j, 256)):
            monkeypatch.setattr(integrals, "_series_side", lambda *args: moved)
            rep = verify_integral_rep(ident, params, sigma=sigma, f=F(3, 2), eps=eps)
            assert rep.passed is passes, (ident, moved, rep.rel_err)


def _row_mutants(ident, params, f):
    """(name, arguments) per single-datum mutant of the representation's
    arguments (:func:`integrals._arguments`) at params and f: each prefactor,
    node and kernel argument times the row's base, one at a time."""
    base, pref_num, pref_den, num, den, (upper, lower, zc) = integrals._arguments(ident, params, E(f))
    lists = {"prefactor numerator": pref_num, "prefactor denominator": pref_den,
             "node numerator": num, "node denominator": den,
             "kernel upper": upper, "kernel lower": lower, "kernel zc": [zc]}
    for name, xs in lists.items():
        for i, x in enumerate(xs):
            x = (x[0] * base, x[1]) if isinstance(x, tuple) else x * base
            moved = {**lists, name: xs[:i] + [x] + xs[i + 1:]}
            pn, pd, n, d, u, lo, (z,) = moved.values()
            yield f"{name} {i}", (base, pn, pd, n, d, (u, lo, z))


# the row mutants that verify_integral_rep passes, each with why it is the same
# identity; none is
SURVIVING_ROW_MUTANTS = {}


class TestRowMutants:
    # ROADMAP 11(b)'s contour part: every mutant generated from a row (30 a row,
    # 150 in all) fails or is refused at the row's workload point, eps 1e-8
    @pytest.mark.parametrize("ident", INTEGRAL_IDS)
    def test_every_mutant_fails_or_is_refused(self, ident, monkeypatch):
        params, sigma, _ = POINTS[ident]
        mutants, survivors = list(_row_mutants(ident, params, F(3, 2))), []
        assert len(mutants) == 30
        for name, args in mutants:
            monkeypatch.setattr(integrals, "_arguments", lambda *_: args)
            try:
                rep = verify_integral_rep(ident, params, sigma=sigma, f=F(3, 2), eps=1e-8)
            except QIdentError:
                continue
            if rep.passed:
                survivors.append(name)
        assert survivors == sorted(SURVIVING_ROW_MUTANTS.get(ident, {})), survivors
