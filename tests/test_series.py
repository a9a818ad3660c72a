"""Basic hypergeometric series evaluators."""

import dataclasses
import hashlib
import itertools
import json
import math
import random
import re
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp

from qident import series
from qident.errors import DivergenceError, DomainError, NoConvergence, PoleError, check_names
from qident.qkernel import (_GAUSS_EXACT, ApproxScalar, ExactScalar, QBase, TruncationCert,
                            _approx, _fabs, _fx, _qpow_index, qpoch_finite, qpoch_infinite)
from qident.reporting import compare_approx, make_report, matched
from qident.series import (
    BalanceClass,
    SeriesSpec,
    eval_phi_nonterminating,
    eval_phi_terminating,
    eval_qappell_phi1,
    eval_rfs,
)

from oracles import derive_balance

E = ExactScalar

qs = st.fractions(min_value=F(1, 8), max_value=F(7, 8), max_denominator=8)
small = st.fractions(min_value=F(-2), max_value=F(2), max_denominator=6).filter(
    lambda f: f != 0
)


def terminating_phi(upper, lower, q, z, n):
    return SeriesSpec.make(
        [E.coerce(u) for u in upper],
        [E.coerce(b) for b in lower],
        E.coerce(q),
        E.coerce(z),
        terminates_at=n,
    )


class TestTerminating:
    def test_n_zero_is_one(self):
        q = F(1, 2)
        spec = terminating_phi([1, F(1, 3)], [F(1, 5)], q, q, 0)
        assert eval_phi_terminating(spec) == E(1)

    def test_upper_one_collapses(self):
        # (1;q)_k = 0 for k >= 1: only the k = 0 term survives
        q = F(1, 2)
        spec = terminating_phi([E(q) ** -4, 1, F(1, 3), F(1, 7)], [F(1, 5), F(2, 7), F(3, 5)], q, q, 4)
        assert eval_phi_terminating(spec) == E(1)

    @given(qs, small, st.integers(0, 6))
    @settings(max_examples=40)
    def test_terminating_qbinomial_closed_form(self, q, z, n):
        # 1phi0(q^-n; -; q, z) = (z q^-n; q)_n
        qe, ze = E(q), E(z)
        spec = terminating_phi([qe**-n], [], qe, ze, n)
        assert eval_phi_terminating(spec) == qpoch_finite(ze * qe**-n, qe, n)

    def test_pole_error_names_index(self):
        q = E(F(1, 2))
        # lower parameter q^-2 produces a zero factor at index 3
        spec = terminating_phi([q**-5, F(1, 3), F(1, 7), F(2, 3)], [q**-2, F(1, 5), F(3, 7)], q, q, 5)
        with pytest.raises(PoleError) as err:
            eval_phi_terminating(spec)
        assert err.value.index == 3

    def test_termination_validation(self):
        q = E(F(1, 2))
        with pytest.raises(DomainError):
            eval_phi_terminating(terminating_phi([F(1, 3)], [F(1, 5)], q, q, 2))

    @given(qs, st.integers(0, 5), st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_parameter_permutation_invariance(self, q, n, rng):
        qe = E(q)
        upper = [qe**-n, E(F(1, 3)), E(F(2, 5)), E(F(3, 7))]
        lower = [E(F(1, 7)), E(F(2, 9)), E(F(5, 3))]
        # a lower parameter equal to q^-k with k < n is a genuine pole (PoleError)
        assume(all(b * qe**k != E(1) for b in lower for k in range(n)))
        ref = eval_phi_terminating(terminating_phi(upper, lower, qe, qe, n))
        up2, lo2 = list(upper), list(lower)
        rng.shuffle(up2)
        rng.shuffle(lo2)
        assert eval_phi_terminating(terminating_phi(up2, lo2, qe, qe, n)) == ref


class TestNonterminating:
    def test_z_zero(self):
        spec = SeriesSpec.make([E(F(1, 3))], [E(F(1, 5))], E(F(1, 2)), E(0))
        v, cert = eval_phi_nonterminating(spec, 1e-30, 256)
        assert v.value == 1 and cert.terms_used == 1

    def test_2phi1_against_direct_summation_oracle(self):
        # 500-term direct summation at 512 bits
        a, b, c, q, z = F(1, 3), F(1, 5), F(1, 7), F(1, 2), F(1, 4)
        spec = SeriesSpec.make([E(a), E(b)], [E(c)], E(q), E(z))
        v, cert = eval_phi_nonterminating(spec, 1e-40, 256)
        with mp.workprec(512):
            tot = mpmath.mpf(0)
            for k in range(500):
                term = (
                    _qp_direct(a, q, k) * _qp_direct(b, q, k)
                    / (_qp_direct(q, q, k) * _qp_direct(c, q, k))
                    * mpmath.mpf(z.numerator) ** k / mpmath.mpf(z.denominator) ** k
                )
                tot += term
            assert abs(v.value - tot) < 1e-40
        assert cert.ok

    def test_against_mpmath_qhyper_oracle(self):
        with mp.workprec(280):
            ref = mpmath.qhyper(
                [mpmath.mpf(1) / 3, mpmath.mpf(1) / 5],
                [mpmath.mpf(1) / 7],
                mpmath.mpf(1) / 2,
                mpmath.mpf(1) / 4,
            )
            spec = SeriesSpec.make(
                [E(F(1, 3)), E(F(1, 5))], [E(F(1, 7))], E(F(1, 2)), E(F(1, 4))
            )
            v, _ = eval_phi_nonterminating(spec, 1e-40, 256)
            assert abs(v.value - ref) < 1e-38

    def test_divergence_guard(self):
        spec = SeriesSpec.make([E(F(1, 3)), E(F(1, 5))], [E(F(1, 7))], E(F(1, 2)), E(F(3, 2)))
        with pytest.raises(DivergenceError):
            eval_phi_nonterminating(spec, 1e-20, 128)

    @given(qs, st.integers(0, 6))
    @settings(max_examples=25, deadline=None)
    def test_terminating_matches_nonterminating(self, q, n):
        qe = E(q)
        upper = [qe**-n, E(F(1, 3)), E(F(2, 5))]
        lower = [E(F(1, 7)), E(F(2, 9))]
        spec = terminating_phi(upper, lower, qe, qe, n)
        exact = eval_phi_terminating(spec)
        approx, _ = eval_phi_nonterminating(spec, 1e-35, 256)
        with mp.workprec(300):
            assert abs(approx.value - exact.to_approx(300).value) < 1e-33

    def test_tail_bounds_hold_on_random_sample(self):
        # randomized spot check of the certification contract
        rng = random.Random(20240817)
        for _ in range(300):
            q = F(rng.randint(1, 6), rng.randint(7, 12))
            a = F(rng.randint(1, 8), rng.randint(9, 16))
            b = F(rng.randint(1, 8), rng.randint(9, 16))
            c = F(rng.randint(1, 8), rng.randint(9, 16))
            z = F(rng.randint(1, 8), 16)
            spec = SeriesSpec.make([E(a), E(b)], [E(c)], E(q), E(z))
            v, cert = eval_phi_nonterminating(spec, 1e-30, 192)
            assert cert.tail_bound <= cert.target_eps
            with mp.workprec(480):
                ref, _ = eval_phi_nonterminating(spec, 1e-60, 448)
                assert abs(v.value - ref.value) <= 1e-29 * max(1.0, float(abs(ref.value)))

    @pytest.mark.parametrize("r", [2, 3])
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_mpmath_qhyper_at_twice_the_precision(self, r, data):
        # 2phi1 and 3phi2 summed in fixed point against mpmath.qhyper at 256
        # bits, for Gaussian parameters.  With lower parameters of modulus below
        # one no factor 1 - b q^k (k >= 1) nears zero; lower parameters near a
        # pole are test_near_pole_lower_parameter's.
        def draw(bound):
            part = st.fractions(min_value=-bound, max_value=bound, max_denominator=9)
            return E(data.draw(part), data.draw(part))

        upper = [draw(F(3, 2)) for _ in range(r)]
        lower = [draw(F(2, 3)) for _ in range(r - 1)]
        q, z = draw(F(5, 8)), draw(F(1, 3))
        assume(not q.is_zero() and not z.is_zero())  # z = 0 is test_z_zero
        eps, bits = 1e-30, 128
        v, _ = eval_phi_nonterminating(SeriesSpec.make(upper, lower, q, z), eps, bits)
        # an upper parameter q^-n ends the series after term n; mpmath.qhyper
        # then sums zero terms until its term cap, so the reference sums directly
        ends = [n for a in upper for n in range(64) if (a * q**n - E(1)).is_zero()]
        with mp.workprec(2 * bits):
            A, B, (Q,), (Z,) = ([x.to_approx(2 * bits).value for x in xs]
                                for xs in (upper, lower, [q], [z]))
            ref = mpmath.fsum(
                mpmath.fprod(mpmath.qp(a, Q, k) for a in A) * Z**k
                / mpmath.fprod(mpmath.qp(b, Q, k) for b in B + [Q])
                for k in range(min(ends) + 1)
            ) if ends else mpmath.qhyper(A, B, Q, Z)
            assert abs(v.value - ref) <= eps * max(1, abs(ref)), (upper, lower, q, z)

    def test_float_parameters_are_taken_at_their_binary_value(self):
        # a float or complex parameter is converted as the mpf or mpc of equal value
        floats = SeriesSpec.make([0.5 + 0.1j], [0.25], E(F(1, 2)), 0.3)
        mpfs = SeriesSpec.make([mpmath.mpc(0.5, 0.1)], [mpmath.mpf(0.25)], E(F(1, 2)),
                               mpmath.mpf(0.3))
        assert eval_phi_nonterminating(floats, 1e-20) == eval_phi_nonterminating(mpfs, 1e-20)

    @pytest.mark.parametrize("q", [E(F(1, 2)), E(F(-1, 2)), E(0, F(1, 2))])
    def test_lower_pole_names_index(self, q):
        # a lower parameter q^-3 makes the factor 1 - b q^3 exactly 0 in fixed
        # point: index 4, on the real ints and on the pairs alike
        spec = SeriesSpec.make([E(F(1, 3))], [E(F(1, 7)), q**-3], q, E(F(1, 5)))
        with pytest.raises(PoleError) as err:
            eval_phi_nonterminating(spec, 1e-30)
        assert err.value.index == 4

    @pytest.mark.parametrize("q", [E(F(1, 3)), E(F(-2, 3)), E(F(1, 3), F(1, 3))])
    def test_pole_off_the_fixed_point_grid_is_found(self, q):
        # b = q^-3 with q not a power of 2: b q^3 rounds off 1 in fixed point,
        # and the factor is only small there; decided exactly, it is a pole
        spec = SeriesSpec.make([E(F(1, 3))], [E(F(1, 7)), q**-3], q, E(F(1, 5)))
        with pytest.raises(PoleError) as err:
            eval_phi_nonterminating(spec, 1e-30)
        assert err.value.index == 4

    def test_factor_below_the_grid_is_not_a_pole(self):
        # b = 32 (1 + 2^-300) at q = 1/2: 1 - b q^5 = -2^-300 lies below the grid
        # 2^-286, but each factor is an exact int, so it is no pole and no
        # refusal: the terms jump by about 2^300 after index 5, and the value is
        # the direct sum's
        q, z, eps = F(1, 2), F(1, 5), 1e-30
        upper, lower = [F(1, 3)], [32 * (1 + q**300)]
        spec = SeriesSpec.make([E(a) for a in upper], [E(b) for b in lower], E(q), E(z))
        v, cert = eval_phi_nonterminating(spec, eps)
        ref = _direct_sum(upper, lower, q, z, 200, 1200)
        with mp.workprec(1200):
            assert abs(ref) > 2**200 and abs(v.value - ref) <= eps * abs(ref), cert

    def test_denominator_below_the_grid_is_summed(self):
        # two lower factors of about -+2^-150 at index 6, whose product -2^-300
        # truncated to 0 on the grid when each factor was rounded: exact ints
        # keep it, and the value is the direct sum's
        q, z, eps = F(1, 2), F(1, 5), 1e-30
        upper, lower = [F(1, 3)], [32 * (1 + q**150), 32 * (1 - q**150)]
        spec = SeriesSpec.make([E(a) for a in upper], [E(b) for b in lower], E(q), E(z))
        v, cert = eval_phi_nonterminating(spec, eps)
        ref = _direct_sum(upper, lower, q, z, 200, 1200)
        with mp.workprec(1200):
            assert abs(ref) > 2**200 and abs(v.value - ref) <= eps * abs(ref), cert

    def test_upper_qpow_ends_the_series(self):
        # an exact upper parameter q^-n ends the series after term n: 1 = q^0
        # leaves the one term 1, and q^-3 the four terms of a terminating sum
        spec = SeriesSpec.make([E(F(-3, 2)), E(1)], [E(0)], E(0, F(1, 3)), E(F(2, 7)))
        v, cert = eval_phi_nonterminating(spec, 1e-30, 128)
        assert cert.terms_used == 1 and v.value == 1
        q = E(F(1, 2))
        upper, lower, z = [q**-3, E(F(1, 3))], [E(F(1, 5))], E(F(1, 3))
        v, cert = eval_phi_nonterminating(SeriesSpec.make(upper, lower, q, z), 1e-30, 256)
        exact = eval_phi_terminating(terminating_phi(upper, lower, q, z, 3))
        assert cert.terms_used == 4 and abs(v.value - exact.to_approx(256).value) < 1e-70

    def test_near_pole_hump_is_summed(self):
        # 2phi1(3 2^130, 1/3; 2^130 (1 + 10^-45); 1/2, 1/10): the factor
        # 1 - b q^130 = -10^-45 makes the terms rise again after k = 130, past
        # a long run of small term ratios
        upper, lower = [F(3 * 2**130), F(1, 3)], [F(2**130) * (1 + F(1, 10**45))]
        q, z, eps = F(1, 2), F(1, 10), 1e-30
        spec = SeriesSpec.make([E(a) for a in upper], [E(b) for b in lower], E(q), E(z))
        v, cert = eval_phi_nonterminating(spec, eps)
        ref = _direct_sum(upper, lower, q, z, 1500, 1200)
        with mp.workprec(1200):
            assert abs(v.value - ref) <= eps * max(1, abs(ref)), cert

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    def test_cancelling_terms_within_the_certificate(self):
        # 3phi2(-1/4, -3/4, 9/2; 684/485, -94/291; 99/100, 4/5): the terms rise
        # far above the sum, about -3.016e91, and cancel; the fixed-point
        # roundings of the terms, which the certificate does not count, move
        # the value by 1.6e-21 relative, while the certificate claims 1e-30
        upper, lower, q, z = [F(-1, 4), F(-3, 4), F(9, 2)], [F(684, 485), F(-94, 291)], \
            F(99, 100), F(4, 5)
        eps = 1e-30
        v, cert = eval_phi_nonterminating(
            SeriesSpec.make([E(a) for a in upper], [E(b) for b in lower], E(q), E(z)), eps)
        oracle = _direct_sum(upper, lower, q, z, 840, 1024)
        with mp.workprec(1024):
            assert abs(v.value - oracle) <= cert.tail_bound + eps * abs(v.value)

    @given(
        st.integers(5, 60), qs, st.integers(10, 40), st.sampled_from([1, -1]),
        st.fractions(min_value=1, max_value=3, max_denominator=3),
        st.fractions(min_value=F(1, 16), max_value=F(1, 4), max_denominator=16),
    )
    @settings(max_examples=25, deadline=None)
    def test_near_pole_lower_parameter(self, K, q, digits, sign, c, z):
        # lower parameter b = q^-K (1 + delta): 1 - b q^K = -delta, so the
        # terms jump by about 1/delta at k = K + 1, after K small term ratios;
        # the upper c q^-K keeps the terms before it from vanishing
        upper, lower = [c / q**K, F(1, 3)], [(1 + F(sign, 10**digits)) / q**K]
        eps, bits = 1e-10, 256
        spec = SeriesSpec.make([E(a) for a in upper], [E(b) for b in lower], E(q), E(z))
        v, _ = eval_phi_nonterminating(spec, eps, bits)
        ref = _direct_sum(upper, lower, q, z, K + 400, 2 * bits)
        with mp.workprec(2 * bits):
            assert abs(v.value - ref) <= eps * max(1, abs(ref))


def _gaussian_ops_on_ints():
    """qkernel._GAUSS_EXACT run on the real path's ints: each op takes ints as
    Gaussian integers (x, 0) and must give a real result, whose real part it
    returns; the table has _REAL_EXACT's layout."""
    part, mul, scale, rsub, add, _, _ = _GAUSS_EXACT

    def real(r):
        assert r[1] == 0
        return r[0]

    return (lambda x: real(part(x)), lambda x, y: real(mul((x, 0), (y, 0))),
            lambda x, s: real(scale((x, 0), s)), lambda s, x: real(rsub(s, (x, 0))),
            lambda x, y: real(add((x, 0), (y, 0))), 0, 1)


def _first_terms(upper, lower, q, z, wp, n=25) -> tuple:
    """The first n (term, R(k)) of series._phi_terms, then the index of its
    PoleError, NoConvergence when q^k is 0 in fixed point and r > s+1, or None."""
    table, out = series._Table(series._phi_terms(upper, lower, q, z, wp)), []
    try:
        for k in range(n):
            out.append(table[k])
    except PoleError as err:
        return out, err.index
    except NoConvergence:
        return out, NoConvergence
    return out, None


class TestRealArithmetic:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_real_ratios_are_the_gaussian_ratios(self, data):
        # real data: _term_ratios' fixed-point ratios, and so the terms, on one
        # int per value against the same generator over the Gaussian ops, term
        # for term; a base +-2^-j makes q^k exact in fixed point, so an upper
        # q^-k ends the terms and a lower q^-k is a pole
        wp = data.draw(st.integers(20, 200))
        power = st.integers(1, 3).map(lambda j: F(1, 2**j))
        q = data.draw(st.one_of(power, power.map(lambda x: -x),
                                st.fractions(F(-7, 8), F(7, 8), max_denominator=8).filter(bool)))
        param = st.one_of(st.fractions(F(-3), F(3), max_denominator=8),
                          st.integers(1, 6).map(lambda k: q**-k))
        upper, lower = (data.draw(st.lists(param.map(E), max_size=3)) for _ in range(2))
        z = data.draw(st.fractions(F(-2), F(2), max_denominator=9).filter(bool))
        args = upper, lower, E(q), E(z), wp
        real = _first_terms(*args)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(series, "_REAL_EXACT", _gaussian_ops_on_ints())
            assert _first_terms(*args) == real


class TestTermRounding:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_terms_within_the_rounding_lemma(self, data):
        # each term of _phi_terms lies within the bound of its rounding lemma of
        # the exact term, computed here on Fractions: real and Gaussian data, a
        # series with e = 0 or e = 1, at a base near 1 and a base p^4
        q = data.draw(st.sampled_from([F(99, 100), F(7, 10) ** 4]))
        part = st.fractions(F(-3), F(3), max_denominator=7)
        im = part if data.draw(st.booleans()) else st.just(F(0))
        value = st.tuples(part, im)
        s_, e = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 1))
        upper = data.draw(st.lists(value, min_size=s_ + 1 - e, max_size=s_ + 1 - e))
        lower = data.draw(st.lists(value, min_size=s_, max_size=s_))
        z = data.draw(st.tuples(part, im).filter(any))
        wp = data.draw(st.integers(40, 160))
        expected = _lemma_terms(upper, lower, q, z, wp, 30)
        assume(expected is not None)
        terms = series._phi_terms([E(*a) for a in upper], [E(*b) for b in lower], E(q), E(*z),
                                  wp)[0]
        for k, ((t, bound), (re, im_)) in enumerate(zip(expected, terms)):
            err = _cabs((F(re, 2**wp) - t[0], F(im_, 2**wp) - t[1]))
            assert err <= bound * (1 + 1e-9), (k, err * 2**wp, bound * 2**wp)

    def test_mpf_parameter_is_its_dyadic_exact_value(self):
        # an mpmath parameter enters as the exact value of its fixed-point pair:
        # the same value and certificate as that ExactScalar, bit for bit
        bits = 128
        wp = bits + series._GUARD_BITS
        upper = [mpmath.mpf(1) / 3, mpmath.mpc("0.25", "-0.125")]
        lower, z = [mpmath.mpf(2) / 7], mpmath.mpf(1) / 5
        dyadic = [E.from_parts(*_fx(x, wp), 2**wp) for x in (*upper, *lower, z)]
        for q in (E(F(1, 2)), E(F(99, 100))):
            got = eval_phi_nonterminating(SeriesSpec.make(upper, lower, q, z), 1e-30, bits)
            want = eval_phi_nonterminating(SeriesSpec.make(dyadic[:2], dyadic[2:3], q, dyadic[3]),
                                           1e-30, bits)
            assert (got[0].value, got[1]) == (want[0].value, want[1])


def _tail_test_every_term(spec, eps: float, bits: int) -> tuple:
    """(value, cert) of a nonterminating r-phi-s series summed with its tail
    test formed at every term: the terms and majorants R(k) of
    series._phi_terms, poles as eval_phi_nonterminating decides them, and the
    first k with |t_k| R(k) / (1 - R(k)) <= eps max(1, |S_k|) ends the sum."""
    wp = bits + series._GUARD_BITS
    q = spec.base.value
    poles = {j: _qpow_index(b, q) for j, b in enumerate(spec.lower)}
    terms, ratio, _ = series._phi_terms(spec.upper, spec.lower, q, spec.arg, wp, poles)
    re = im = 0
    for k, t in enumerate(itertools.islice(terms, series._MAX_TERMS)):
        re, im = re + t[0], im + t[1]
        R = ratio(k)
        tail = _fabs(t, wp) * R / (1 - R) if R < 1 else math.inf
        if tail < math.inf:
            target = eps * max(1.0, _fabs((re, im), wp))
            if tail <= target:
                return _approx((re, im), wp, bits), TruncationCert(k + 1, tail, target)
    raise NoConvergence("not certified")


def _outcome(f, *args):
    try:
        value, cert = f(*args)
    except (NoConvergence, PoleError) as err:
        return type(err), str(err)
    return value.value, cert.terms_used, cert.tail_bound


@st.composite
def _pretest_data(draw):
    """(upper, lower, q, z, eps) of a nonterminating r-phi-s series: real or
    Gaussian data, e = 1+s-r in 0..2, |q| <= 99/100, |z| <= 9/10, some lower
    parameters q^-k (1 + delta) near a pole, eps 1e-10..1e-60."""
    gauss = draw(st.booleans())
    part = st.fractions(F(-2), F(2), max_denominator=9)
    im = part if gauss else st.just(F(0))

    def within(r):  # a Gaussian rational 0 < |x| <= r, its imaginary part at most 1/2
        re = st.one_of(st.fractions(-r, r, max_denominator=100), st.sampled_from([r, -r]))
        return st.tuples(re, im.map(lambda x: x / 4)).filter(
            lambda x: 0 < x[0]**2 + x[1]**2 <= r**2).map(lambda x: E(*x))

    q, z = draw(within(F(99, 100))), draw(within(F(9, 10)))
    s = draw(st.integers(0, 2))
    e = draw(st.integers(0, 2 if s else 1))
    upper = [E(*draw(st.tuples(part, im))) for _ in range(s + 1 - e)]
    near = st.tuples(st.integers(1, 40), st.integers(5, 40), st.sampled_from([1, -1])).map(
        lambda x: (1 + F(x[2], 10**x[1])) / q**x[0])
    lower = [draw(st.one_of(st.tuples(part, im).map(lambda x: E(*x)), near)) for _ in range(s)]
    assume(all(_qpow_index(a, q) is None for a in upper))  # no upper q^-n ends the series
    return upper, lower, q, z, 10.0 ** -draw(st.integers(10, 60))


class TestPreTest:
    @given(_pretest_data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_stops_where_the_tail_test_at_every_term_stops(self, data):
        # the bit-length pre-test skips only terms whose tail test fails: the
        # same value, stopping index and tail bound as the test at every term
        upper, lower, q, z, eps = data
        spec = SeriesSpec.make(upper, lower, q, z)
        assert _outcome(eval_phi_nonterminating, spec, eps, 256) == \
            _outcome(_tail_test_every_term, spec, eps, 256)

    # (upper, lower, q, z, eps, the terms drawn when the refusal fires, the magnitude it names)
    FLOAT_RANGE = {
        # SRIV_JAIN at q = 9999/10000: the terms of this 2phi1 rise past 2^1024
        # long before R(k) < 1; the test at that term reads |t_k| and refuses
        "SRIV_JAIN": ([F(1, 3), F(-1, 3)], [F(1, 9)], F(9999, 10000), F(1, 5), 1e-30 / 8,
                      3924, 2474),
        # a lower parameter 2^20 (1 + 10^-400): term 21 jumps past 2^1024 and
        # R(k) < 1 from k = 23, where the tail test reads |t_k| and refuses;
        # the pre-test alone would skip that test, as it fails for sure, so
        # only its float-range guard keeps the refusal at that term
        "near_pole": ([3 * F(2)**20, F(1, 3)], [(1 + F(1, 10**400)) * F(2)**20], F(1, 2),
                      F(1, 2), 1e-30, 24, 1339),
    }

    @pytest.mark.parametrize("case", sorted(FLOAT_RANGE))
    def test_float_range_refusal_keeps_its_term(self, case, monkeypatch):
        upper, lower, q, z, eps, drawn, bits = self.FLOAT_RANGE[case]
        count, phi_terms = [], series._phi_terms

        def counted(*args):
            terms, ratio, low = phi_terms(*args)
            return (count.append(k) or t for k, t in enumerate(terms)), ratio, low

        monkeypatch.setattr(series, "_phi_terms", counted)
        spec = SeriesSpec.make([E(a) for a in upper], [E(b) for b in lower], E(q), E(z))
        with pytest.raises(NoConvergence, match=re.escape(
                f"a magnitude of about 2^{bits} passes the float range (2^1024)")):
            eval_phi_nonterminating(spec, eps)
        assert len(count) == drawn


def _cmul(x, y):
    """The product of two Gaussian rationals (re, im) of Fractions."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _cdiv(x, y):
    d = y[0] * y[0] + y[1] * y[1]
    return _cmul(x, (y[0] / d, -y[1] / d))


def _cabs(x) -> float:
    return math.hypot(x[0], x[1])


def _lemma_terms(upper, lower, q, z, wp, K):
    """(t_k, B_k) for the k < K of the r-phi-s series of Gaussian rationals
    (re, im) of Fractions and real q, e = 1+s-r >= 0, as long as the rounding
    lemma of series._phi_terms applies with each fixed-point q^k within half of
    |q|^k: t_k the exact term, B_k the lemma's bound on |term k - t_k|, from
    D = c u / (1 - |q|) and, per ratio, each factor's relative error and a
    bound on the computed ratio's modulus.  None when a lower factor could
    vanish."""
    e = 1 + len(lower) - len(upper)
    u = 2.0**-wp
    c = 1.0 if not any(x[1] for x in (z, *upper, *lower)) else math.sqrt(2)
    D = c * u / (1 - abs(q))
    one = (F(1), F(0))
    t, log_rel, E_k, out = one, 0.0, 0.0, []  # exp(log_rel) - 1 bounds |s_k / t_k - 1|
    qk = F(1)
    for k in range(K):
        if e and D > abs(q) ** k / 2:
            break
        out.append((t, _cabs(t) * math.expm1(log_rel) + E_k))
        # r_k = z (-q^k)^e prod (1 - a q^k) / ((1 - q^(k+1)) prod (1 - b q^k)); the
        # computed one has q^k, q^(k+1) within D, so |ratio| <= rho and its
        # relative error is at most exp(h) - 1, h the sum of the factors' (1 + x
        # <= e^x)
        ratio = _cmul(z, ((-qk) ** e, F(0)))
        rho, h = _cabs(z) * (abs(qk) + D) ** e, e * D / abs(qk)
        for a in upper:
            f, size = (1 - a[0] * qk, -a[1] * qk), _cabs(a)
            if not any(f):
                return None
            ratio, rho, h = _cmul(ratio, f), rho * (_cabs(f) + size * D), h + size * D / _cabs(f)
        dens = [((1 - q * qk, F(0)), 1.0)]
        dens += [((1 - b[0] * qk, -b[1] * qk), _cabs(b)) for b in lower]
        for f, size in dens:
            low = _cabs(f) - size * D
            if low <= 0:
                return None
            ratio, rho, h = _cdiv(ratio, f), rho / low, h + size * D / low
        t, log_rel, E_k = _cmul(t, ratio), log_rel + h, rho * E_k + c * u
        qk *= q
    return out

def _infinite_quotient(num, den, q, eps, bits):
    """(num; q)_inf / (den; q)_inf from two certified products."""
    return qpoch_infinite(num, q, eps, bits)[0] / qpoch_infinite(den, q, eps, bits)[0]


def _jackson_22_to_21(a, b, c, z, q, eps, bits):
    """The 2phi2 -> 2phi1 transformation, both sides from the public evaluators:
    2phi2(a, c/b; c, az; q, bz) = (z;q)inf/(az;q)inf 2phi1(a, b; c; q, z), at b = 0
    the 1phi1(a; c, az; q, cz) limit of the left side."""
    upper, z2 = ([a], c * z) if b == 0 else ([a, c / b], b * z)
    lhs, _ = eval_phi_nonterminating(SeriesSpec.make(upper, [c, a * z], q, z2), eps / 4, bits)
    phi, _ = eval_phi_nonterminating(SeriesSpec.make([a, b], [c], q, z), eps / 4, bits)
    return compare_approx(lhs, _infinite_quotient(z, a * z, q, eps / 8, bits) * phi, eps)[0]


class TestJackson:
    def test_generic_point(self):
        assert _jackson_22_to_21(
            E(F(1, 3)), E(F(1, 4)), E(F(1, 5)), E(F(1, 6)), E(F(1, 2)), 1e-35, 256
        )

    def test_b_zero_degenerate_pair(self):
        assert _jackson_22_to_21(
            E(F(1, 3)), E(0), E(F(1, 5)), E(F(1, 6)), E(F(1, 2)), 1e-35, 256
        )

    def test_z_zero(self):
        assert _jackson_22_to_21(
            E(F(1, 3)), E(F(1, 4)), E(F(1, 5)), E(0), E(F(1, 2)), 1e-35, 256
        )


def _qbinomial_report(kind, params, eps=1e-30, precision_bits=256):
    """The two q-binomial theorems as one report, from the public evaluators.

    terminating: (u/t;q)_k t^k equals the alternating double-product sum
    sum_j (-1)^(k-j) q^binom(k-j,2) [k j]_q u^(k-j) t^j, exactly.
    nonterminating: 1phi0(a;-;q,z) = (az;q)inf/(z;q)inf within eps.
    """
    ident = f"QBINOMIAL_{kind.upper()}"
    check_names(ident, "utqk" if kind == "terminating" else "azq", params)
    if kind == "terminating":
        (u, t, q), k = (E.coerce(params[x]) for x in "utq"), params["k"]
        lhs = qpoch_finite(u / t, q, k) * t**k
        qq = [qpoch_finite(q, q, j) for j in range(k + 1)]
        rhs = sum(((-1) ** (k - j) * q ** ((k - j) * (k - j - 1) // 2) * qq[k] / (qq[j] * qq[k - j])
                   * u ** (k - j) * t**j for j in range(k + 1)), E(0))
        return make_report(ident, params, lhs, rhs, matched(lhs == rhs), mode="exact", n=k,
                           degenerate=lhs.is_zero() and rhs.is_zero())
    a, z, q = (params[x] for x in "azq")
    lhs, cert = eval_phi_nonterminating(SeriesSpec.make([a], [], q, z), eps / 4, precision_bits)
    rhs = _infinite_quotient(a * z, z, q, eps / 8, precision_bits)
    return make_report(ident, params, lhs, rhs, compare_approx(lhs, rhs, eps),
                       truncation_terms=cert.terms_used)


class TestQBinomial:
    def test_terminating_k0(self):
        rep = _qbinomial_report("terminating", {"u": F(1, 2), "t": F(1, 3), "q": F(1, 5), "k": 0})
        assert rep.passed

    def test_terminating_example(self):
        rep = _qbinomial_report("terminating", {"u": F(1, 2), "t": F(1, 3), "q": F(1, 5), "k": 4})
        assert rep.passed and rep.mode == "exact"

    def test_terminating_report_bytes_are_pinned(self):
        # SHA-256 of json.dumps(dataclasses.asdict(report), sort_keys=True)
        rep = _qbinomial_report("terminating", {"u": F(1, 2), "t": F(1, 3), "q": F(1, 5), "k": 4})
        blob = json.dumps(dataclasses.asdict(rep), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "d199507dac2f54dc7d2834842e168ba7967887c00b5ba0ceee07db2f3a059b3c"
        )

    @given(small, small, qs, st.integers(0, 12))
    @settings(max_examples=30)
    def test_terminating_random(self, u, t, q, k):
        rep = _qbinomial_report("terminating", {"u": u, "t": t, "q": q, "k": k})
        assert rep.passed

    @pytest.mark.parametrize("kind, params, problem", [
        ("terminating", {"u": F(1, 2), "t": F(1, 3), "q": F(1, 5)}, "(u, t, q, k): missing k"),
        ("terminating", {"u": F(1, 2), "t": F(1, 3), "q": F(1, 5), "k": 2, "z": 1},
         "(u, t, q, k): unexpected z"),
        ("nonterminating", {"a": F(1, 2), "z": F(1, 3)}, "(a, z, q): missing q"),
        ("nonterminating", {"a": F(1, 2), "z": F(1, 3), "q": F(1, 2), "extra": 1},
         "(a, z, q): unexpected extra"),
    ])
    def test_parameter_names_are_checked(self, kind, params, problem):
        expected = re.escape(f"QBINOMIAL_{kind.upper()} takes parameters {problem}") + "$"
        with pytest.raises(DomainError, match=expected):
            _qbinomial_report(kind, params)

    def test_nonterminating_against_product(self):
        rep = _qbinomial_report(
            "nonterminating",
            {"a": E(F(1, 2)), "z": E(F(1, 3)), "q": E(F(1, 2))},
            eps=1e-35,
            precision_bits=256,
        )
        assert rep.passed

    def test_nonterminating_a_equals_q(self):
        q = E(F(1, 2))
        rep = _qbinomial_report(
            "nonterminating", {"a": q, "z": E(F(1, 3)), "q": q}, eps=1e-35, precision_bits=256
        )
        assert rep.passed


class TestClassicalRFS:
    def test_z_zero(self):
        assert eval_rfs([F(1, 2)], [F(1, 3)], 0).value == 1

    def test_upper_zero(self):
        assert eval_rfs([0, F(1, 2)], [F(1, 3)], F(1, 2)).value == 1

    def test_2f1_log_oracle(self):
        # 2F1(1,1;2;1/2) = -log(1-z)/z at z = 1/2, i.e. 2 log 2
        v = eval_rfs([1, 1], [2], F(1, 2), eps=1e-14, precision_bits=128)
        with mp.workprec(160):
            assert abs(v.value - 2 * mpmath.log(2)) < 1e-12

    def test_against_mpmath_hyper(self):
        with mp.workprec(160):
            ref = mpmath.hyper([mpmath.mpf(1) / 3, mpmath.mpf(1) / 5], [mpmath.mpf(3) / 7], mpmath.mpf(1) / 4)
            v = eval_rfs([F(1, 3), F(1, 5)], [F(3, 7)], F(1, 4), eps=1e-20, precision_bits=128)
            assert abs(v.value - ref) < 1e-18

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            eval_rfs([F(1, 2)], [-2], F(1, 3))

    def test_nonpositive_eps_rejected(self):
        # before any term is summed
        for eps in (0.0, -1e-10):
            with pytest.raises(DomainError, match="eps must be positive"):
                eval_rfs([F(1, 3), F(1, 5)], [F(3, 7)], F(1, 4), eps=eps)


class TestQAppell:
    def test_origin(self):
        v, _ = eval_qappell_phi1(F(1, 3), F(1, 5), F(1, 7), F(2, 5), 0, 0, F(1, 2))
        assert v.value == 1

    def test_y_zero_row_collapse(self):
        # y = 0 collapses the double sum to 2phi1(a, b; c; q, x)
        a, b, b2, c, x, q = F(1, 3), F(1, 5), F(2, 7), F(2, 5), F(1, 4), F(1, 2)
        v, _ = eval_qappell_phi1(a, b, b2, c, x, 0, q, eps=1e-32, precision_bits=256)
        spec = SeriesSpec.make([E(a), E(b)], [E(c)], E(q), E(x))
        ref, _ = eval_phi_nonterminating(spec, 1e-32, 256)
        with mp.workprec(280):
            assert abs(v.value - ref.value) < 1e-30

    def test_b2_zero_against_explicit_double_sum(self):
        a, b, c, x, y, q = F(1, 3), F(1, 5), F(2, 5), F(1, 4), F(1, 5), F(1, 2)
        v, _ = eval_qappell_phi1(a, b, 0, c, x, y, q, eps=1e-30, precision_bits=256)
        with mp.workprec(400):
            # (x;q)_k for k <= 238, the products _qp_direct forms, each tabulated once
            A, B, Q, C = (_qp_prefixes(f, q, 238) for f in (a, b, q, c))
            tot = mpmath.mpf(0)
            for m in range(120):
                for n in range(120):
                    tot += (
                        A[m + n] * B[m]
                        / (Q[m] * Q[n] * C[m + n])
                        * mpmath.mpf(x.numerator) ** m / mpmath.mpf(x.denominator) ** m
                        * mpmath.mpf(y.numerator) ** n / mpmath.mpf(y.denominator) ** n
                    )
            assert abs(v.value - tot) < 1e-28


def _weighted_cauchy_oracle(f, x, g, y, u, v, q, n_max):
    """sum_{n<n_max} A[n] sum_{j<=n} X[j] Y[n-j] at the working precision, X and
    Y the terms of 1phi0(f; q, x) and 1phi0(g; q, y), A[n] = (u;q)_n / (v;q)_n,
    every value a (re, im) pair of Fractions: three plain loops, no qident."""
    f, x, g, y, u, v, q = (mpmath.mpc(mpmath.mpf(re.numerator) / re.denominator,
                                      mpmath.mpf(im.numerator) / im.denominator)
                           for re, im in (f, x, g, y, u, v, q))
    X, Y, A, qk = [mpmath.mpc(1)], [mpmath.mpc(1)], [mpmath.mpc(1)], mpmath.mpc(1)
    for n in range(1, n_max):  # qk = q^(n-1)
        X.append(X[-1] * (1 - f * qk) * x / (1 - qk * q))
        Y.append(Y[-1] * (1 - g * qk) * y / (1 - qk * q))
        A.append(A[-1] * (1 - u * qk) / (1 - v * qk))
        qk *= q
    total = mpmath.mpc(0)
    for n in range(n_max):
        diagonal = mpmath.mpc(0)
        for j in range(n + 1):
            diagonal += X[j] * Y[n - j]
        total += A[n] * diagonal
    return total


_PART = st.fractions(min_value=F(-1, 3), max_value=F(1, 3), max_denominator=9)


@st.composite
def _weighted_cauchy_data(draw):
    """(f, x, g, y, u, v, q) as (re, im) Fraction pairs, all real or not:
    |x|, |y|, |u|, |v| <= 1/2, |f|, |g| <= 1 and 0 < |q| <= 9/10."""
    gauss = draw(st.booleans())
    im = _PART if gauss else st.just(F(0))
    small = st.tuples(_PART, im)  # modulus at most sqrt(2)/3 < 1/2
    unit = st.tuples(_PART.map(lambda r: 2 * r), im.map(lambda r: 2 * r))
    base = st.tuples(st.fractions(min_value=F(-9, 10), max_value=F(9, 10), max_denominator=10),
                     st.just(F(0))) if not gauss else st.tuples(_PART.map(lambda r: 2 * r),
                                                                 _PART.map(lambda r: 2 * r))
    q = draw(base.filter(any))
    return draw(unit), draw(small), draw(unit), draw(small), draw(small), draw(small), q


class TestWeightedCauchy:
    @given(_weighted_cauchy_data())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_against_triple_loop(self, data):
        # |value - oracle| <= the certified tail + 2^-pb, the oracle at 4 pb bits
        f, x, g, y, u, v, q = data
        pb = 64
        wp = pb + 30
        X = series._Table(series._phi_terms([E(*f)], [], E(*q), E(*x), wp))
        Y = series._Table(series._phi_terms([E(*g)], [], E(*q), E(*y), wp))
        total, cert = series._weighted_cauchy(X, Y, (E(*u), E(*v)), E(*q), 2.0**-50, pb,
                                              absolute=True)
        with mp.workprec(4 * pb):
            oracle = _weighted_cauchy_oracle(f, x, g, y, u, v, q, 120)
            value = mpmath.mpc(total[0], total[1]) / 2**wp
            assert abs(value - oracle) <= cert.tail_bound + mpmath.mpf(2) ** -pb

    def test_weight_majorant_runs_log_n_times(self, monkeypatch):
        # M(n) is formed at powers of two, not per diagonal: O(log N) log-sums
        calls = []
        poch = series._poch_majorant
        monkeypatch.setattr(series, "_poch_majorant", lambda *a: calls.append(a) or poch(*a))
        q, wp = E(F(99, 100)), 350
        X, Y = (series._Table(series._phi_terms([E(F(1, 3))], [], q, E(z), wp))
                for z in (F(1, 2), F(1, 3)))
        _, cert = series._weighted_cauchy(X, Y, (E(F(1, 2)), E(F(1, 3))), q, 1e-60, 320)
        n = cert.terms_used
        assert n > 200 and len(calls) <= n.bit_length() + 1


class TestBalance:
    def test_balanced_one(self):
        q = E(F(1, 2))
        n = 3
        a, b = E(F(1, 3)), E(F(1, 5))
        # Bailey-type balanced series
        spec = terminating_phi(
            [q**-n, -(q ** (1 - n)) / (a * b), a, b],
            [-(a * b), q ** (1 - n) / a, q ** (1 - n) / b],
            q,
            q,
            n,
        )
        assert derive_balance(spec) == BalanceClass("balanced", 1)

    def test_invariance_under_permutation(self):
        q = E(F(1, 2))
        n = 2
        a, c = E(F(1, 9)), E(F(1, 4))
        sa, sc = E(F(1, 3)), E(F(1, 2))
        spec = terminating_phi([q**-n, q**n * a, sc, -sc], [sa * q, -sa * q, c], q, q, n)
        b1 = derive_balance(spec)
        spec2 = terminating_phi([sc, q**-n, -sc, q**n * a], [c, sa * q, -sa * q], q, q, n)
        assert derive_balance(spec2) == b1

    def test_very_well_poised_detection(self):
        q = E(F(1, 2))
        a = E(F(1, 9))
        sa = E(F(1, 3))  # sqrt(a)
        b, c = E(F(1, 5)), E(F(1, 7))
        spec = SeriesSpec.make(
            [a, q * sa, -q * sa, b, c],
            [sa, -sa, q * a / b, q * a / c],
            q,
            q * a / (b * c),
        )
        assert derive_balance(spec).kind == "very_well_poised"


def _direct_sum(upper, lower, q, z, terms, bits):
    """The first `terms` terms of an r-phi-s series of rational parameters,
    r <= s+1, summed directly at `bits` bits."""
    e = 1 + len(lower) - len(upper)
    with mp.workprec(bits):
        A, B, (Q,), (Z,) = ([mpmath.mpf(x.numerator) / x.denominator for x in xs]
                            for xs in (upper, lower, [q], [z]))
        total, term, qk = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(1)
        for _ in range(terms):
            total += term
            term *= (mpmath.fprod(1 - a * qk for a in A) * Z * (-qk) ** e
                     / mpmath.fprod(1 - b * qk for b in B + [Q]))
            qk *= Q
        return total


def _qp_prefixes(x, q, k):
    """[(x;q)_0, ..., (x;q)_k] at the working precision, each product formed
    from the previous one: the same factors, multiplied in the same order, as
    :func:`_qp_direct`."""
    prods = [mpmath.mpf(1)]
    xv = mpmath.mpf(x.numerator) / x.denominator
    qv = mpmath.mpf(q.numerator) / q.denominator
    for j in range(k):
        prods.append(prods[-1] * (1 - xv * qv**j))
    return prods


def _qp_direct(x, q, k):
    return _qp_prefixes(x, q, k)[k]
