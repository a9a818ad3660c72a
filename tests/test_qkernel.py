"""Scalar arithmetic and q-Pochhammer layer."""

import math
from fractions import Fraction as F
from math import gcd, isqrt

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qident.askey_wilson import AWParams
from qident.errors import DomainError, PoleError
from qident.qkernel import (
    ApproxScalar,
    ExactScalar,
    I,
    QBase,
    _div,
    _fabs,
    _factor_count,
    _fx,
    _mul,
    _one_minus,
    _product_quotient,
    _qpow_index,
    _qprod,
    format_exact,
    parse_exact,
    qpoch_finite,
    qpoch_infinite,
    qpoch_list,
)
from qident.powerseries import phi_series_coeffs
from qident.series import SeriesSpec, eval_phi_terminating

E = ExactScalar


small_fracs = st.fractions(
    min_value=F(-3), max_value=F(3), max_denominator=6
)
nonzero_fracs = small_fracs.filter(lambda f: f != 0)
qs = st.fractions(min_value=F(1, 8), max_value=F(7, 8), max_denominator=8)


# Gaussian rationals (re, im) as Fraction pairs, a third of them real
wide_fracs = st.fractions(min_value=F(-10**6), max_value=F(10**6), max_denominator=10**6)
gaussians = st.tuples(wide_fracs, st.one_of(st.just(F(0)), wide_fracs, wide_fracs))


def _pair_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def _pair_div(x, y):
    (a, b), (c, d) = x, y
    m = c * c + d * d
    return (a * c + b * d) / m, (b * c - a * d) / m


def _pair_pow(x, k):
    out = (F(1), F(0))
    for _ in range(abs(k)):
        out = _pair_mul(out, x)
    return out if k >= 0 else _pair_div((F(1), F(0)), out)


class TestExactScalar:
    def test_lowest_terms_and_identity(self):
        x = E(F(2, 4), F(-6, 9))
        assert x.re == F(1, 2) and x.im == F(-2, 3)
        assert I * I == E(-1)

    def test_field_ops(self):
        x = E(F(1, 2), F(1, 3))
        y = E(F(-2, 5), F(3, 7))
        assert (x + y) - y == x
        assert (x * y) / y == x
        assert x * (1 / x) == E(1)
        with pytest.raises(ZeroDivisionError):
            _ = x / E(0)

    def test_integer_powers(self):
        x = E(F(2, 3), F(1, 5))
        assert x**0 == E(1)
        assert x**3 == x * x * x
        assert x**-2 == 1 / (x * x)

    def test_parse_format_roundtrip_examples(self):
        for s in ["3", "-3/4", "1/2+2/3*i", "-1/3*i", "i", "-i", "0", "5/7-1/9*i"]:
            v = parse_exact(s)
            assert parse_exact(format_exact(v)) == v

    @pytest.mark.parametrize(
        "x_real,y_real", [(True, True), (True, False), (False, True), (False, False)]
    )
    @given(small_fracs, nonzero_fracs, small_fracs, nonzero_fracs, st.integers(-9, 9))
    def test_ops_match_gaussian_formulas(self, x_real, y_real, a, b, c, d, k):
        # real operands take the real branch of each operation; the results
        # must be what the Gaussian-rational formulas give on (re, im) Fraction pairs
        b, d = (F(0) if x_real else b), (F(0) if y_real else d)
        x, y = E(a, b), E(c, d)
        expected = {
            "+": (x + y, (a + c, b + d)),
            "-": (x - y, (a - c, b - d)),
            "*": (x * y, (a * c - b * d, a * d + b * c)),
            "int -": (k - x, (k - a, -b)),
        }
        if c or d:
            m = c * c + d * d
            expected["/"] = (x / y, ((a * c + b * d) / m, (b * c - a * d) / m))
        for op, (got, (re, im)) in expected.items():
            assert type(got.re) is F and type(got.im) is F, op
            assert (got.re, got.im) == (re, im), op
            if im == 0:
                assert got.im == 0 and got == re and hash(got) == hash(re), op

    @given(gaussians, gaussians, st.integers(-5, 5), st.integers(-50, 50))
    def test_matches_fraction_pair_model(self, x, y, k, j):
        # every result against the same operation on (re, im) Fraction pairs
        X, Y = E(*x), E(*y)
        expected = {
            "E(re, im)": (X, x),
            "+": (X + Y, (x[0] + y[0], x[1] + y[1])),
            "-": (X - Y, (x[0] - y[0], x[1] - y[1])),
            "*": (X * Y, _pair_mul(x, y)),
            "int -": (j - X, (j - x[0], -x[1])),
            "Fraction *": (x[0] * Y, (x[0] * y[0], x[0] * y[1])),
            "neg": (-X, (-x[0], -x[1])),
        }
        if y == (0, 0):
            for divide in (lambda: X / Y, lambda: j / Y, lambda: Y**-1, lambda: X / 0):
                with pytest.raises(ZeroDivisionError):
                    divide()
        else:
            expected["/"] = (X / Y, _pair_div(x, y))
            expected["int /"] = (j / Y, _pair_div((F(j), F(0)), y))
            expected["**"] = (Y**k, _pair_pow(y, k))
        for op, (got, (re, im)) in expected.items():
            assert type(got) is E and type(got.re) is F and type(got.im) is F, op
            assert (got.re, got.im) == (re, im), op
            n, m, d = got.parts
            assert d > 0 and gcd(n, m, d) == 1 and got == E.from_parts(n * 3, m * 3, d * 3), op
            assert got == E(re, im) and (got == re) == (re == got) == (im == 0), op
            assert (got == X) == ((re, im) == x), op
            if im == 0:
                assert hash(got) == hash(re), op
                if re.denominator == 1:
                    assert got == re.numerator and hash(got) == hash(re.numerator), op

    @given(st.integers(-(2**60), 2**60), st.integers(-(2**60), 2**60), st.integers(0, 30))
    def test_hash_matches_equal_values(self, n, m, k):
        # a dyadic value reached by division is equal, and hashes alike, as an
        # int, a Fraction and an ApproxScalar of the same value
        z = E(n, m) / 2**k
        assert z == E(F(n, 2**k), F(m, 2**k))
        az = ApproxScalar.coerce(z, 128)
        assert az == z and z == az and hash(az) == hash(z)
        r = E(n) / 2**k
        assert hash(r) == hash(F(n, 2**k)) == hash(ApproxScalar.coerce(r, 128))
        if k == 0:
            assert r == n and hash(r) == hash(n)

    @given(small_fracs, small_fracs)
    def test_division_by_exact_zero(self, a, b):
        for x in (E(a), E(a, b)):
            for zero in (E(0), 0, F(0)):
                with pytest.raises(ZeroDivisionError):
                    _ = x / zero

    @given(small_fracs, small_fracs)
    def test_parse_format_roundtrip_random(self, re, im):
        v = E(re, im)
        assert parse_exact(format_exact(v)) == v

    @given(st.sampled_from(("real", "imaginary", "gaussian")),
           st.one_of(st.integers(-9, 9), st.integers(-(2**90), 2**90)),
           st.one_of(st.integers(-9, 9), st.integers(-(2**90), 2**90)),
           st.one_of(st.integers(1, 12), st.integers(1, 2**90)), st.integers(1, 12))
    @example("real", 0, 0, 5, 1)
    @example("gaussian", 4, -6, 8, 1)
    def test_format_matches_fraction_rendering(self, kind, a, b, d, e):
        # format_exact reduces each part of the canonical ints by one gcd; the
        # rendering through Fractions that it replaced is the reference
        def frac(f):
            return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

        def by_fractions(x):
            if x.im == 0:
                return frac(x.re)
            imag = f"{frac(abs(x.im))}*i"
            if x.re == 0:
                return imag if x.im > 0 else f"-{imag}"
            return f"{frac(x.re)}{'+' if x.im > 0 else '-'}{imag}"

        v = E(F(a, d) if kind != "imaginary" else 0, F(b, d * e) if kind != "real" else 0)
        assert format_exact(v) == by_fractions(v) == str(v)

    @given(st.integers(-999, 999), st.integers(-9, 9), st.integers(-999, 999), st.integers(-9, 9))
    def test_parse_exponent_literals(self, m, k, m2, k2):
        v = parse_exact(f"{m}e{k}{m2:+d}E{k2}*i")
        assert v == E(F(m) * F(10) ** k, F(m2) * F(10) ** k2)
        assert parse_exact(format_exact(v)) == v


class TestApproxScalar:
    def test_min_precision_rule(self):
        a = ApproxScalar(mpmath.mpf(2), 256)
        b = ApproxScalar(mpmath.mpf(3), 128)
        assert (a * b).precision_bits == 128
        assert (a + b).precision_bits == 128

    @given(
        st.integers(-(2**40), 2**40),
        st.integers(-(2**40), 2**40),
        st.integers(0, 20),
        st.sampled_from([64, 128, 256]),
    )
    def test_equality_across_types(self, n, m, k, bits):
        # every dyadic value here is exact at 64 bits, so it equals its own
        # int/Fraction/ExactScalar, and equal values hash alike
        f = F(n, 2**k)
        a = ApproxScalar.coerce(f, bits)
        assert a == f and f == a
        assert a == E(f) and E(f) == a
        assert hash(a) == hash(E(f)) == hash(f)
        assert a == ApproxScalar.coerce(f, 64)
        assert (a == f.numerator) == (f.denominator == 1)
        assert a != f + F(1, 3)
        assert a != E(f + F(1, 3)) and E(f + F(1, 3)) != a
        z = E(f, F(m, 2**k))
        az = ApproxScalar.coerce(z, bits)
        assert az == z and z == az
        assert hash(az) == hash(z)
        assert (az == f) == (m == 0)
        assert az != z + I * F(1, 3) and z + I * F(1, 3) != az

    def test_precision_floor(self):
        with pytest.raises(DomainError):
            ApproxScalar(mpmath.mpf(1), 32)

    def test_exact_conversion(self):
        x = E(F(1, 3), F(1, 7))
        ax = x.to_approx(256)
        with mpmath.mp.workprec(300):
            ref = mpmath.mpc(mpmath.mpf(1) / 3, mpmath.mpf(1) / 7)
            assert abs(ax.value - ref) < mpmath.mpf(2) ** -250


class TestQBase:
    def test_rejects_modulus_ge_one(self):
        with pytest.raises(DomainError):
            QBase.of(E(1))
        with pytest.raises(DomainError):
            QBase.of(E(F(3, 2)))
        QBase.of(E(F(1, 2)))  # fine

    @pytest.mark.parametrize("q, shown", [(E(-1), "1"), (E(F(3, 2)), "9/4"),
                                          (E(F(3, 5), F(4, 5)), "1"), (E(0, F(-7, 5)), "49/25")])
    def test_modulus_is_stated_exactly(self, q, shown):
        # |q|^2 >= 1 is decided on the canonical ints and printed as it is
        with pytest.raises(DomainError, match=rf"^\|q\| must be < 1, got \|q\|\^2 = {shown}$"):
            QBase.of(q)

    def test_base_within_the_float_margin_is_refused_as_such(self):
        # |q| < 1, but the float majorants read |q| >= 1: refused, and the message says so
        q = E(1 - F(1, 10**20))
        with pytest.raises(DomainError) as info:
            QBase.of(q)
        assert str(info.value).startswith(f"|q|^2 = {q.abs2()} is below 1 by less than the float "
                                          "margin")
        assert "a certified tail could come out negative" in str(info.value)
        assert QBase.of(E(1 - F(1, 10**12))).modulus_bound < 1


class TestQPochFinite:
    def test_empty_product_is_one(self):
        assert qpoch_finite(E(F(17, 5)), E(F(1, 2)), 0) == E(1)

    def test_zero_argument(self):
        assert qpoch_finite(E(0), E(F(1, 2)), 5) == E(1)

    def test_direct_product_value(self):
        # (1/2; 1/3)_2 = (1 - 1/2)(1 - 1/6) = 5/12
        assert qpoch_finite(E(F(1, 2)), E(F(1, 3)), 2) == E(F(5, 12))

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            qpoch_finite(E(1), E(F(1, 2)), -1)

    def test_approx_scalar_rejected_by_exact_layer(self):
        half, third = E(F(1, 2)), E(F(1, 3))
        x = ApproxScalar(mpmath.mpf(0.5), 128)
        exact_calls = [
            lambda: qpoch_finite(half, x, 3),
            lambda: qpoch_finite(x, half, 0),
            lambda: qpoch_list([half, x], third, 2),
            lambda: eval_phi_terminating(SeriesSpec.make([half**-2, x], [third], half, half, 2)),
            lambda: eval_phi_terminating(SeriesSpec.make([half**-2], [third], x, half, 2)),
            lambda: AWParams.make(half, third, half, third, half, x, 2),
            lambda: AWParams.make(half, third, half, third, x, half, 2),
        ]
        for call in exact_calls:
            with pytest.raises(TypeError, match="cannot interpret"):
                call()

    @given(small_fracs, qs, st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=60)
    def test_index_splitting(self, a, q, m, n):
        a, q = E(a), E(q)
        lhs = qpoch_finite(a, q, m + n)
        rhs = qpoch_finite(a, q, m) * qpoch_finite(a * q**m, q, n)
        assert lhs == rhs


class TestQPochList:
    def test_singleton_empty(self):
        assert qpoch_list([E(F(2, 7))], E(F(1, 2)), 0) == E(1)

    def test_two_entry_product(self):
        # (1/2, 1/3; 1/2)_1 = (1/2)(2/3) = 1/3
        assert qpoch_list([E(F(1, 2)), E(F(1, 3))], E(F(1, 2)), 1) == E(F(1, 3))

    @given(small_fracs, qs, st.integers(0, 6))
    @settings(max_examples=60)
    def test_square_argument_identity(self, a, q, n):
        a, q = E(a), E(q)
        assert qpoch_list([a, -a], q, n) == qpoch_finite(a * a, q * q, n)

    @given(st.lists(small_fracs, min_size=2, max_size=4), qs, st.integers(0, 5),
           st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_reassociation_invariance(self, vals, q, n, rng):
        xs = [E(v) for v in vals]
        q = E(q)
        ref = qpoch_list(xs, q, n)
        shuffled = list(xs)
        rng.shuffle(shuffled)
        assert qpoch_list(shuffled, q, n) == ref


# Reference products for the fraction-free exact layer: (re, im) pairs of
# Fractions multiplied factor by factor.  A parameter is a Gaussian rational,
# 0, or q^-k for a drawn k (a factor 1 - a q^k that vanishes).
small_gaussians = st.tuples(small_fracs, st.one_of(st.just(F(0)), small_fracs))


@st.composite
def gaussian_bases(draw):
    """A base (n/d, m/e) != 0 with (n/d)^2 + (m/e)^2 < 1 by construction, d and
    e at most 6: (m d)^2 < e^2 (d^2 - n^2).  With n != 0, about half are real."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1 - d, d - 1))
    e = draw(st.integers(1 if n else 2, 6))
    m_max = isqrt(e * e * (d * d - n * n) - 1) // d
    if n:
        m = draw(st.one_of(st.just(0), st.integers(-m_max, m_max)))
    else:
        m = draw(st.integers(1, m_max)) * draw(st.sampled_from((1, -1)))
    return F(n, d), F(m, e)


parameters = st.one_of(
    small_gaussians, st.just((F(0), F(0))), st.integers(0, 12).map(lambda k: ("q^-k", k))
)

# the real values, bases and parameters among those
real_values = small_fracs.map(lambda x: (x, F(0)))
real_bases = gaussian_bases().filter(lambda q: not q[1])
real_parameters = st.one_of(
    real_values, st.just((F(0), F(0))), st.integers(0, 12).map(lambda k: ("q^-k", k))
)


def _param(x, q):
    """A drawn parameter as a Fraction pair, q^-k taken at the pair q."""
    return _pair_pow(q, -x[1]) if x[0] == "q^-k" else x


def _ref_qpoch(a, q, n):
    out, aqk = (F(1), F(0)), a
    for _ in range(n):
        out = _pair_mul(out, (1 - aqk[0], -aqk[1]))
        aqk = _pair_mul(aqk, q)
    return out


def _ref_phi_terms(upper, lower, q, z, n):
    """Terms 0..n of sum_k (upper;q)_k / (q, lower;q)_k ((-1)^k q^binom(k,2))^e z^k,
    or None when a lower factor vanishes among the first n."""
    e = 1 + len(lower) - len(upper)
    terms = []
    for k in range(n + 1):
        num, den = _pair_pow(z, k), _ref_qpoch(q, q, k)
        for a in upper:
            num = _pair_mul(num, _ref_qpoch(a, q, k))
        for b in lower:
            den = _pair_mul(den, _ref_qpoch(b, q, k))
        if den == (0, 0):
            return None
        sign = -1 if k % 2 and e % 2 else 1
        num = _pair_mul(num, _pair_pow(q, k * (k - 1) // 2 * e))
        terms.append(_pair_div((sign * num[0], sign * num[1]), den))
    return terms


class TestFractionFreeAgainstReference:
    @given(parameters, gaussian_bases(), st.integers(0, 12))
    @settings(max_examples=50, deadline=None)
    def test_qpoch_finite(self, a, q, n):
        a = _param(a, q)
        assert qpoch_finite(E(*a), E(*q), n) == E(*_ref_qpoch(a, q, n))

    @given(st.lists(parameters, min_size=1, max_size=4), gaussian_bases(), st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_qpoch_list(self, args, q, n):
        args = [_param(a, q) for a in args]
        ref = (F(1), F(0))
        for a in args:
            ref = _pair_mul(ref, _ref_qpoch(a, q, n))
        assert qpoch_list([E(*a) for a in args], E(*q), n) == E(*ref)

    @given(st.lists(parameters, max_size=3), st.lists(small_gaussians, max_size=3),
           gaussian_bases(), small_gaussians, st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_phi_series_coeffs(self, upper, lower, q, z, order):
        _check_phi_series_coeffs(upper, lower, q, z, order)

    @given(st.lists(parameters, max_size=3), st.lists(small_gaussians, max_size=3),
           gaussian_bases(), small_gaussians, st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_eval_phi_terminating(self, upper, lower, q, z, n):
        _check_eval_phi_terminating(upper, lower, q, z, n)

    # the same checks where q, z and every parameter are real, which runs the
    # ratios on one int per value; e = 1+s-r of both signs and z = 0 as examples
    @given(st.lists(real_parameters, max_size=3), st.lists(real_values, max_size=3),
           real_bases, real_values, st.integers(0, 12))
    @example([(F(1, 3), F(0))] * 3, [], (F(1, 2), F(0)), (F(-2, 5), F(0)), 9)  # e = -2
    @example([], [(F(1, 3), F(0)), (F(-3, 4), F(0))], (F(-1, 2), F(0)), (F(5, 2), F(0)), 9)  # e = 3
    @example([(F(1, 3), F(0))], [(F(3), F(0))], (F(1, 2), F(0)), (F(0), F(0)), 6)  # z = 0
    @settings(max_examples=40, deadline=None)
    def test_real_phi_series_coeffs(self, upper, lower, q, z, order):
        _check_phi_series_coeffs(upper, lower, q, z, order)

    @given(st.lists(real_parameters, max_size=3), st.lists(real_values, max_size=3),
           real_bases, real_values, st.integers(0, 12))
    @example([(F(1, 3), F(0))] * 3, [], (F(1, 2), F(0)), (F(-2, 5), F(0)), 7)  # e = -3
    @example([], [(F(1, 3), F(0))], (F(-1, 2), F(0)), (F(5, 2), F(0)), 7)  # e = 1
    @example([(F(1, 3), F(0))], [(F(3), F(0))], (F(1, 2), F(0)), (F(0), F(0)), 6)  # z = 0
    @settings(max_examples=40, deadline=None)
    def test_real_eval_phi_terminating(self, upper, lower, q, z, n):
        _check_eval_phi_terminating(upper, lower, q, z, n)

    @pytest.mark.parametrize("k", [0, 2, 5])
    @pytest.mark.parametrize("upper_vanishes", [False, True])
    def test_pole_is_named_alike_on_both_paths(self, k, upper_vanishes):
        # b = q^-k at q = 1/2 with a real z (one int per value) and with an
        # imaginary z (Gaussian integers): the same PoleError, index k+1, also
        # when an upper factor vanishes at the same k
        q = E(F(1, 2))
        upper = [q**-k if upper_vanishes else E(F(1, 3))]
        errors = []
        for z in (E(F(1, 5)), E(0, F(1, 5))):
            for run in (lambda: phi_series_coeffs(upper, [q**-k], q, z, k + 3),
                        lambda: eval_phi_terminating(SeriesSpec.make(
                            [q**-(k + 2)] + upper, [q**-k], q, z, k + 2))):
                with pytest.raises(PoleError) as err:
                    run()
                errors.append((err.value.index, str(err.value)))
        msg = f"lower parameter {2**k} produces a zero factor at index {k + 1}"
        assert errors == [(k + 1, msg)] * 4


def _check_phi_series_coeffs(upper, lower, q, z, order):
    upper = [_param(a, q) for a in upper]
    ref = _ref_phi_terms(upper, lower, q, z, order)
    assume(ref is not None)
    got = phi_series_coeffs(*([E(*x) for x in xs] for xs in (upper, lower)),
                            E(*q), E(*z), order)
    assert got.coeffs == tuple(E(*t) for t in ref)


def _check_eval_phi_terminating(upper, lower, q, z, n):
    upper = [_pair_pow(q, -n)] + [_param(a, q) for a in upper]
    ref = _ref_phi_terms(upper, lower, q, z, n)
    assume(ref is not None)
    total = (sum(t[0] for t in ref), sum(t[1] for t in ref))
    spec = SeriesSpec.make([E(*x) for x in upper], [E(*x) for x in lower],
                           E(*q), E(*z), n)
    assert eval_phi_terminating(spec) == E(*total)


def _ref_qpow_index(x, q, kmax):
    """The least k <= kmax with x q^k = 1, by stepping k up until |x q^k| < 1."""
    k = 0
    while kmax is None or k <= kmax:
        if x == 1:
            return k
        if x.abs2() < 1:
            return None
        x, k = x * q, k + 1
    return None


class TestQPowIndex:
    # the index read off the moduli' logs and tested exactly against the
    # stepping search: q^-k times 1, a unit, or 1 +- 10^-40, and any small x
    @given(gaussian_bases(), st.integers(0, 60),
           st.sampled_from([1, -1, I, 1 + F(1, 10**40), 1 - F(1, 10**40)]),
           st.one_of(st.none(), st.integers(-1, 60)), small_gaussians)
    @settings(max_examples=60, deadline=None)
    def test_matches_the_stepping_search(self, q, k, unit, kmax, other):
        q = E(*q)
        for x in (unit * q**-k, E(*other)):
            assert _qpow_index(x, q, kmax) == _ref_qpow_index(x, q, kmax), (x, q, kmax)

    def test_base_near_one_takes_no_step_search(self):
        # |x| = 10 at q = 1 - 10^-6: no k has |x q^k| = 1 exactly; the stepping
        # search would form 2.3 million exact powers
        assert _qpow_index(E(10), E(1 - F(1, 10**6))) is None
        q = E(F(999, 1000))
        assert _qpow_index(q**-2302, q) == 2302 and _qpow_index(q**-2302, q, 2301) is None


class TestQPochInfinite:
    def test_zero_argument_trivial(self):
        v, cert = qpoch_infinite(E(0), E(F(1, 2)), 1e-30, 256)
        assert v.value == 1 and cert.tail_bound == 0.0

    def test_long_product_oracle(self):
        # (q; q)_inf at q = 1/2 against a 200-term direct product at 512 bits
        v, cert = qpoch_infinite(E(F(1, 2)), E(F(1, 2)), 1e-30, 256)
        with mpmath.mp.workprec(512):
            ref = mpmath.mpf(1)
            for k in range(1, 201):
                ref *= 1 - mpmath.mpf(2) ** -k
        assert abs(v.value - ref) < 1e-30
        assert cert.ok

    def test_precision_doubling_oracle(self):
        a, q = E(F(1, 2)), E(F(1, 2))
        v1, _ = qpoch_infinite(a, q, 1e-40, 256)
        v2, _ = qpoch_infinite(a, q, 1e-40, 512)
        assert abs(v1.value - v2.value) < 1e-40

    def test_exact_zero_factor_detected(self):
        # a = q^-3 makes the k = 3 factor vanish: the product is exactly 0
        q = E(F(1, 2))
        v, cert = qpoch_infinite(q ** -3, q, 1e-30, 128)
        assert v.value == 0 and cert.tail_bound == 0.0

    def test_domain_error_on_large_q(self):
        with pytest.raises(DomainError):
            qpoch_infinite(E(F(1, 3)), E(F(3, 2)), 1e-20, 128)

    def test_agreement_with_mpmath_qp(self):
        # independent oracle: mpmath.qp
        with mpmath.mp.workprec(300):
            ref = mpmath.qp(mpmath.mpf(1) / 3, mpmath.mpf(1) / 2)
            v, _ = qpoch_infinite(E(F(1, 3)), E(F(1, 2)), 1e-35, 256)
            assert abs(v.value - ref) < 1e-35

    @given(qs, st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_head_tail_splitting(self, q, n):
        # (a;q)_inf = (a;q)_N (a q^N; q)_inf within 2 eps
        a = E(F(2, 3))
        q = E(q)
        eps = 1e-30
        whole, _ = qpoch_infinite(a, q, eps, 256)
        head = qpoch_finite(a, q, n).to_approx(256)
        tail, _ = qpoch_infinite(a * q**n, q, eps, 256)
        assert abs(whole.value - (head * tail).value) <= 2 * eps * max(
            1.0, float(abs(whole.value))
        )

    @pytest.mark.parametrize("gaussian", [False, True])
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_mpmath_qp_at_twice_the_precision(self, gaussian, data):
        # the fixed-point product against mpmath.qp at 256 bits, for real and
        # Gaussian a and q; the certificate promises eps * max(1, |v|)
        def draw(bound):
            part = st.fractions(min_value=-bound, max_value=bound, max_denominator=9)
            return E(data.draw(part), data.draw(part) if gaussian else 0)

        a, q = draw(2), draw(F(5, 8))
        assume(not q.is_zero())
        eps, bits = 1e-30, 128
        v, _ = qpoch_infinite(a, q, eps, bits)
        with mpmath.mp.workprec(2 * bits):
            ref = mpmath.qp(a.to_approx(2 * bits).value, q.to_approx(2 * bits).value)
            assert abs(v.value - ref) <= eps * max(1, abs(ref)), (a, q)


class TestProductQuotient:
    @pytest.mark.parametrize("x", [F(10**8), F(10**8, 3) + F(10**7, 7) * I, F(-(10**30))])
    def test_tiny_quotient_keeps_relative_precision(self, x):
        # (1/3; 1/2)_inf / (x; 1/2)_inf is below 2^-286, the fixed-point grid
        # of 256-bit working precision: the running products carry exponents,
        # so the quotient is relative, not rounded to 0
        q = F(1, 2)
        v = _product_quotient([(F(1, 3), q)], [(x, q), (F(1, 5), q)], 256, 1e-30)
        with mpmath.mp.workprec(1200):
            mq = mpmath.mpf(1) / 2
            ref = mpmath.qp(mpmath.mpf(1) / 3, mq) / (
                mpmath.qp(E.coerce(x).to_approx(1200).value, mq) * mpmath.qp(mpmath.mpf(1) / 5, mq))
            assert 0 < abs(ref) < mpmath.mpf(2) ** -286
            assert abs(v.value - ref) <= 1e-30 * abs(ref)

    def test_vanishing_factors(self):
        q = E(F(1, 2))
        assert _product_quotient([(q**-2, q)], [(F(1, 3), q)], 128, 1e-20).is_zero()
        with pytest.raises(ZeroDivisionError):
            _product_quotient([(F(1, 3), q)], [(q**-2, q)], 128, 1e-20)


# Fixed-point values: pairs of ints scaled by 2^wp, signs and sizes mixed
fixed_parts = st.one_of(st.integers(-(2**40), 2**40), st.integers(-(2**400), 2**400))
fixed_pairs = st.tuples(fixed_parts, st.one_of(st.just(0), fixed_parts))


def _value(x, wp):
    return F(x[0], 2**wp), F(x[1], 2**wp)


def _truncated(got, exact, wp):
    """got (a Fraction) is exact cut toward zero onto the grid 2^-wp."""
    return got * 2**wp % 1 == 0 and 0 <= abs(exact) - abs(got) < F(1, 2**wp) and got * exact >= 0


class TestRoundingLemma:
    """Each part of _mul and _div is the exact product's or quotient's part cut
    toward zero onto the grid 2^-wp; _one_minus is exact and _fx rounds an exact
    value down by less than 2^-wp; a real modulus is one correctly rounded division."""

    @given(fixed_pairs, fixed_pairs, st.integers(1, 300))
    @settings(max_examples=200, deadline=None)
    def test_mul_and_div_truncate_the_exact_result(self, a, b, wp):
        x, y = _value(a, wp), _value(b, wp)
        product = _pair_mul(x, y)
        assert all(_truncated(g, e, wp) for g, e in zip(_value(_mul(a, b, wp), wp), product))
        assert _one_minus(a, wp) == (2**wp - a[0], -a[1])
        if b != (0, 0):
            quotient = _pair_div(x, y)
            assert all(_truncated(g, e, wp) for g, e in zip(_value(_div(a, b, wp), wp), quotient))
        if not a[1]:
            assert _fabs(a, wp) == float(F(abs(a[0]), 2**wp)) * (1 + 2.0**-40)

    @given(gaussians, st.integers(1, 300))
    @settings(max_examples=100, deadline=None)
    def test_fx_rounds_an_exact_value_down(self, x, wp):
        got = _value(_fx(E(*x), wp), wp)
        assert all(0 <= e - g < F(1, 2**wp) and g * 2**wp % 1 == 0 for g, e in zip(got, x))
        if not x[1]:
            assert _fx(x[0], wp) == _fx(E(*x), wp)


def _factor_count_loop(abs_a, abs_q, tail):
    """The step-by-step search that _factor_count's closed form replaces."""
    K = 0
    while abs_a * abs_q**K >= 0.5:
        K += 1
    while True:
        head = abs_a * abs_q**K
        tail_log = head / ((1.0 - abs_q) * (1.0 - head))
        if tail_log <= tail:
            return K, tail_log
        K += 1


class _CountedBase(float):
    """A float base that counts the powers taken of it."""

    def __new__(cls, value, calls):
        self = super().__new__(cls, value)
        self.calls = calls
        return self

    def __pow__(self, k):
        self.calls.append(k)
        return float(self) ** k


class TestFactorCount:
    @given(st.floats(1e-12, 0.99), st.floats(1e-3, 0.9999), st.floats(-40, math.log10(2.0**-20)),
           st.sampled_from([1.0, 2.0, 64.0]))
    @example(1 / 3, 0.9999, math.log10(2.5e-31), 1.0)
    @example(0.5, 0.5, -20.0, 1.0)
    @settings(max_examples=60, deadline=None)
    def test_closed_form_is_the_loop(self, x, Q, digits, scale):
        # x / scale and x * scale: moduli below and above 1/2, as the node
        # arguments and the prefactor's are
        for a in (x / scale, x * scale):
            assert _factor_count(a, Q, 10.0**digits) == _factor_count_loop(a, Q, 10.0**digits)

    def test_count_is_read_off_the_logs(self):
        # K = 785,717 at |q| = 0.9999, found with a handful of powers of |q|
        calls = []
        K, tail = _factor_count(1 / 3, _CountedBase(0.9999, calls), 2.5e-31)
        assert (K, tail) == _factor_count_loop(1 / 3, 0.9999, 2.5e-31) and K == 785_717
        assert len(calls) <= 4, calls


def _qprod_pairs(x, q, K, wp):
    """The pair recurrence of _qprod, which its one-int path for a real x and
    q replaces."""
    (xr, xi), (qr, qi), pr, pi = x, q, 1 << wp, 0
    for _ in range(K):
        pr, pi = pr - ((pr * xr - pi * xi) >> wp), pi - ((pr * xi + pi * xr) >> wp)
        xr, xi = (xr * qr - xi * qi) >> wp, (xr * qi + xi * qr) >> wp
    return pr, pi


class TestQProd:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_real_path_is_the_pair_path(self, data):
        # real x and q of either sign, |x| past 1 and |q| up to 1, at 20-300 bits
        wp = data.draw(st.integers(20, 300))
        x = data.draw(st.integers(-(2 << wp), 2 << wp))
        q = data.draw(st.integers(-(1 << wp), 1 << wp))
        K = data.draw(st.integers(0, 60))
        assert _qprod((x, 0), (q, 0), K, wp) == _qprod_pairs((x, 0), (q, 0), K, wp)
