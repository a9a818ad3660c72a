"""Generating functions, product transformations, classical limits, Cayley-Orr."""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction as F
from functools import partial

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from qident import powerseries, products, series
from qident.errors import DivergenceError, DomainError, PoleError, UnknownIdentity
from qident.powerseries import PowerSeriesTrunc, phi_series_coeffs
from qident.products import (
    COEFF_CHECK_IDS,
    PRODUCT_IDS,
    Weighted,
    awgf_coefficient_check,
    classical_limit_check,
    nassrallah2_cayley_consistency,
    product_coefficient_check,
    product_sides,
    side_series,
    side_value,
    thm21_cayley_consistency,
    verify_product,
)
from qident.qkernel import ApproxScalar, ExactScalar, I, qpoch_list
from qident.reporting import compare_approx

E = ExactScalar


def _schoolbook(x, y) -> tuple:
    """The truncated Cauchy product of two series, one ExactScalar operation at a time."""
    return tuple(sum((x.coeffs[i] * y.coeffs[k - i] for i in range(k + 1)), E(0))
                 for k in range(min(x.order, y.order) + 1))


def _part(kind, re, im):
    """A coefficient of the given kind from two drawn parts."""
    return E(re if kind != "imaginary" else 0, im if kind != "real" else 0)


@st.composite
def _exact_series(draw):
    """A series of real, imaginary or Gaussian coefficients, often zero, over
    one shared denominator or one each (small, or near 2^70)."""
    kind = draw(st.sampled_from(("real", "imaginary", "gaussian")))
    dens = st.one_of(st.integers(1, 12), st.integers(2**70, 2**70 + 40))
    nums = st.one_of(st.just(0), st.integers(-(10**6), 10**6))
    shared = draw(st.one_of(st.none(), dens))
    coeffs = []
    for _ in range(draw(st.integers(1, 8))):
        d = shared or draw(dens)
        coeffs.append(_part(kind, F(draw(nums), d), F(draw(nums), d)))
    return PowerSeriesTrunc.make(coeffs)


def _series_of(kind, length):
    """A fixed series of the given kind, with distinct denominators and no zero."""
    return PowerSeriesTrunc.make([_part(kind, F(k + 1, k + 2), F(2 * k - 7, 3 * k + 5))
                                  for k in range(length)])


def _full_order_series(side, order) -> tuple:
    """A side's coefficients through z^order with each factor in z^2 built to
    order and its coefficients past order // 2 dropped."""
    total = None
    for pref, power, factors in side:
        prod = None
        for f in factors:
            s = phi_series_coeffs(f.upper, f.lower, f.base, f.zscale, order)
            if f.squared:
                coeffs = [E(0)] * (order + 1)
                coeffs[::2] = s.coeffs[: order // 2 + 1]
                s = PowerSeriesTrunc.make(coeffs)
            prod = s if prod is None else prod * s
        if pref is not None:
            prod = (pref * prod).shift(power)
        total = prod if total is None else total + prod
    return total.coeffs


class TestPowerSeries:
    def test_mul_and_shift(self):
        one = PowerSeriesTrunc.make([E(1), E(2), E(3)])
        other = PowerSeriesTrunc.make([E(1), E(-1), E(0)])
        prod = one * other
        assert prod.coeffs == (E(1), E(1), E(1))
        assert one.shift(1).coeffs == (E(0), E(1), E(2))

    def test_dilate_square(self):
        s = PowerSeriesTrunc.make([E(5), E(7), E(9), E(0), E(0)])
        assert s.dilate_square(4).coeffs == (E(5), E(0), E(7), E(0), E(9))
        # a series to order // 2 is enough
        half = PowerSeriesTrunc.make([E(5), E(7), E(9)])
        assert half.dilate_square(4).coeffs == (E(5), E(0), E(7), E(0), E(9))
        assert half.dilate_square(5).coeffs == (E(5), E(0), E(7), E(0), E(9), E(0))

    @given(_exact_series(), _exact_series())
    @settings(max_examples=60, deadline=None)
    def test_mul_matches_the_schoolbook_product(self, x, y):
        assert (x * y).coeffs == _schoolbook(x, y)
        assert (y * x).coeffs == _schoolbook(x, y)

    @pytest.mark.parametrize("kinds", [("real", "real"), ("real", "gaussian"),
                                       ("imaginary", "gaussian"), ("gaussian", "gaussian")])
    def test_mul_reduces_each_output_once(self, monkeypatch, kinds):
        # one gcd per output coefficient: K + 1 reductions for order K, and
        # the longer operand's extra terms are never reduced
        calls = []
        canonical = powerseries._canonical
        monkeypatch.setattr(powerseries, "_canonical", lambda *a: calls.append(a) or canonical(*a))
        K = 9
        x, y = (_series_of(kind, length) for kind, length in zip(kinds, (K + 1, K + 4)))
        prod = x * y
        assert len(calls) == K + 1 and prod.order == K
        monkeypatch.undo()
        assert prod.coeffs == _schoolbook(x, y)

    def test_geometric_series_coeffs(self):
        # 1phi0(q; -; q, z) = (qz;q)inf/(z;q)inf = (1-qz...)/... with a = q the
        # coefficients are (q;q)_n/(q;q)_n = 1 (geometric series)
        q = E(F(1, 2))
        s = phi_series_coeffs([q], [], q, E(1), 6)
        assert all(c == E(1) for c in s.coeffs)


    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_lower_pole_names_its_index(self, k):
        q = E(F(1, 2))
        with pytest.raises(PoleError) as info:
            phi_series_coeffs([E(F(1, 3)), E(F(2, 5))], [q**-k], q, E(1), 6)
        assert info.value.index == k + 1


    @pytest.mark.parametrize("q, j", [(E(1), 1), (E(-1), 2), (I, 4)], ids=["1", "-1", "i"])
    def test_root_of_unity_base_is_a_domain_error(self, q, j):
        # 1 - q^j vanishes when q^j = 1: the coefficient series, and the exact
        # coefficient checks built on it, name the base from order j on
        with pytest.raises(DomainError, match=f"base q = .* has q\\^{j} = 1"):
            phi_series_coeffs([E(F(1, 3))], [E(F(1, 5))], q, E(1), 5)
        assert phi_series_coeffs([E(F(1, 3))], [E(F(1, 5))], q, E(1), j - 1).order == j - 1
        with pytest.raises(DomainError, match="base q"):
            product_coefficient_check("CAYLEY_ORR_A", {"q": q, "a": F(1, 3), "b": F(1, 5),
                                                       "c": F(2, 7)}, order=4)
        with pytest.raises(DomainError, match="base q"):
            product_coefficient_check("JACKSON_CLAUSEN", {"p": q, "a": F(1, 3), "b": F(1, 5)},
                                      order=4)


class TestAWGF:
    def test_coefficients_at_random_exact_points(self):
        rng = random.Random(31)
        for _ in range(3):
            vals = [F(rng.randint(1, 4), rng.randint(5, 9)) for _ in range(5)]
            rep = awgf_coefficient_check(*vals, F(1, 2), n_max=8)
            assert rep.passed, rep.note

    def test_n0_coefficient(self):
        rep = awgf_coefficient_check(F(1, 3), F(1, 5), F(2, 3), F(1, 7), F(3, 4), F(1, 2), 0)
        assert rep.passed

    def test_hermite_degeneration(self):
        # at a = b = c = d = 0 both 2phi1 factors are 1phi0(0; -; q, .) and p_n
        # is the continuous q-Hermite value
        rep = awgf_coefficient_check(0, 0, 0, 0, F(3, 4), F(1, 2), 10)
        assert rep.passed

    def test_quartic_base_point(self):
        # q = p^4 keeps w = 1/p rational for the fractional-power substitutions
        p = F(2, 3)
        rep = awgf_coefficient_check(
            p * F(1, 2), F(1, 3) / p, p * F(1, 3), p**3 * F(1, 2), 1 / p, p**4, 6
        )
        assert rep.passed

    def test_swap_symmetry(self):
        # swapping (a,b) with (c,d) while w -> 1/w preserves all coefficients
        a, b, c, d, w, q = F(1, 3), F(1, 5), F(2, 3), F(1, 7), F(3, 4), F(1, 2)
        left1 = phi_series_coeffs([E(a) * E(w), E(b) * E(w)], [E(a) * E(b)], E(q), 1 / E(w), 8)
        right1 = phi_series_coeffs([E(c) / E(w), E(d) / E(w)], [E(c) * E(d)], E(q), E(w), 8)
        left2 = phi_series_coeffs([E(c) / E(w), E(d) / E(w)], [E(c) * E(d)], E(q), E(w), 8)
        right2 = phi_series_coeffs([E(a) * E(w), E(b) * E(w)], [E(a) * E(b)], E(q), 1 / E(w), 8)
        assert (left1 * right1) == (left2 * right2)

    VALUE_POINT = {"q": F(1, 2), "a": F(1, 3), "b": F(1, 5), "c": F(2, 3), "d": F(1, 7),
                   "w": F(9, 10), "t": F(1, 5)}

    def test_awgf_value_check(self):
        rep = verify_product("AWGF", self.VALUE_POINT, eps=1e-30)
        assert rep.passed and rep.rel_err < 1e-30

    def test_product_coefficient_check_runs_it(self):
        # the row's exact check is awgf_coefficient_check, to the report byte; its
        # parameters omit the series variable t
        params = {k: v for k, v in self.VALUE_POINT.items() if k != "t"}
        rep = product_coefficient_check("AWGF", params, order=10)
        assert rep.passed and rep == awgf_coefficient_check(*(params[k] for k in "abcdwq"), 10)
        with pytest.raises(DomainError, match=r"^AWGF takes parameters \(q, a, b, c, d, w\): "
                                              r"unexpected t$"):
            product_coefficient_check("AWGF", self.VALUE_POINT)


def _triple_factor_oracle(heads, weight, q, n_max):
    """sum_{j,k<n_max} W[j] H[k] A[j+k] at the working precision, W and H the
    terms (f;q)_j r^j / (q;q)_j of (f, r) in heads, A[i] = (u;q)_i / (v;q)_i for
    weight = (u, v), every value a Fraction: plain loops, no qident."""
    def mp(x):
        return mpmath.mpf(x.numerator) / x.denominator

    q = mp(q)
    terms = []
    for f, r in heads:
        T, qk = [mpmath.mpf(1)], mpmath.mpf(1)
        for _ in range(1, n_max):
            T.append(T[-1] * (1 - mp(f) * qk) * mp(r) / (1 - qk * q))
            qk *= q
        terms.append(T)
    A, qk = [mpmath.mpf(1)], mpmath.mpf(1)
    for _ in range(1, 2 * n_max):
        A.append(A[-1] * (1 - mp(weight[0]) * qk) / (1 - mp(weight[1]) * qk))
        qk *= q
    W, H = terms
    return sum(W[j] * H[k] * A[j + k] for j in range(n_max) for k in range(n_max))


class TestTripleQuad:
    POINT = {
        "u": F(1, 10), "t": F(1, 8), "w": F(9, 10),
        "a": F(1, 2), "b": F(1, 3), "c": F(1, 2), "d": F(1, 5), "q": F(1, 3),
    }

    QUAD_POINT = {k: v for k, v in POINT.items() if k != "u"}

    def test_triple_sum_sample_point(self):
        rep = verify_product("TRIPLE_32PF", self.POINT, eps=1e-30)
        assert rep.passed and rep.rel_err < 1e-30

    def test_u_equals_t_reproduces_quadruple_sum(self):
        # at u = t both 3phi2 factors collapse to 1, so the triple sum equals
        # the closed form verified by the quadruple-sum check
        pt = dict(self.POINT)
        pt["u"] = pt["t"]
        rep1 = verify_product("TRIPLE_32PF", pt, eps=1e-28)
        assert rep1.passed
        rep2 = verify_product("QUAD_COR13", self.QUAD_POINT, eps=1e-28)
        assert rep2.passed

    def test_quad_t_zero(self):
        rep = verify_product("QUAD_COR13", dict(self.QUAD_POINT, t=0), eps=1e-30)
        assert rep.passed

    def test_quad_w_inversion(self):
        r1 = verify_product("QUAD_COR13", dict(self.QUAD_POINT, w=F(9, 10)), eps=1e-28)
        r2 = verify_product("QUAD_COR13", dict(self.QUAD_POINT, w=F(10, 9)), eps=1e-28)
        assert r1.passed and r2.passed
        assert r1.rhs == r2.rhs

    def test_quad_note_names_the_unused_u(self):
        # QUAD_COR13 is TRIPLE_32PF at u = t: a given u is accepted and named
        rep = verify_product("QUAD_COR13", self.POINT, eps=1e-30)
        assert rep.passed and rep.note == (
            "closed-form quadruple summation; evaluated at u = t, the given u = 1/10 not used"
        )
        plain = verify_product("QUAD_COR13", self.QUAD_POINT)
        assert plain.passed and plain.note == "closed-form quadruple summation"

    def test_hypothesis_guard(self):
        with pytest.raises(DivergenceError):
            verify_product("TRIPLE_32PF", dict(self.POINT, u=F(3, 4)))

    # |bw| = 72: X's a priori majorant is far above 10, and a factor certified
    # to eps/4 without its cofactor's majorant misses eps/2 here
    WIDE_POINT = dict(POINT, b=F(-80))

    @pytest.mark.parametrize("wide", [False, True])
    def test_product_error_is_composed(self, wide):
        # the engine's X Y against a double-sum oracle for each factor, at 4 pb bits
        pt = self.WIDE_POINT if wide else self.POINT
        u, w, t, a, b, c, d, q = (pt[k] for k in "uwtabcdq")
        eps, pb = 1e-12, 128
        value, _ = products._triple_sum_engine(
            *(ExactScalar.coerce(pt[k]) for k in "utwabcdq"), eps, pb)
        if wide:
            bw, r = float(abs(b * w)), float(t / w)
            assert series._poch_majorant(bw * r, r, float(q)) > 10
        with mpmath.mp.workprec(4 * pb):
            X = _triple_factor_oracle(((b * w, t / w), (a / w, u / a)), (a * w, a * b), q, 120)
            Y = _triple_factor_oracle(((d / w, t * w), (c * w, u / c)), (c / w, c * d), q, 120)
            assert abs(value.value - X * Y) <= eps / 2 + eps**2 / 16 + mpmath.mpf(2) ** -pb

    def test_one_certified_sum_per_factor(self, monkeypatch):
        # X and Y are each one weighted Cauchy product: no per-row sums
        calls = []
        certified_sum = series.certified_sum
        monkeypatch.setattr(series, "certified_sum",
                            lambda *a, **k: calls.append(a) or certified_sum(*a, **k))
        products._triple_sum_engine(
            *(ExactScalar.coerce(self.POINT[k]) for k in "utwabcdq"), 1e-30 / 8, 256)
        assert len(calls) == 2

    @pytest.mark.parametrize("ident", ["TRIPLE_32PF", "WD_APPELL"])
    @pytest.mark.parametrize("moved", ["swapped", "u q", "v q"])
    def test_wrong_weight_fails(self, ident, moved, monkeypatch):
        # a weight (u, v) moved off (u;q)_n / (v;q)_n makes the value check FAIL
        engine = series._weighted_cauchy

        def wrong(X, Y, weight, q, *args, **kwargs):
            u, v = weight
            weight = {"swapped": (v, u), "u q": (u * q, v), "v q": (u, v * q)}[moved]
            return engine(X, Y, weight, q, *args, **kwargs)

        monkeypatch.setattr(series, "_weighted_cauchy", wrong)
        monkeypatch.setattr(products, "_weighted_cauchy", wrong)
        point = self.POINT if ident == "TRIPLE_32PF" else TestWDAppell.POINT
        assert not verify_product(ident, point, eps=1e-30).passed

    def test_u_zero_reduces_to_generating_function(self):
        # at u = 0 both 3phi2 collapse to the plain 2phi1 pair and the triple
        # sum loses its k, l shifts: the check must agree with the AWGF value
        pt = self.POINT
        rep = verify_product("TRIPLE_32PF", dict(pt, u=0), eps=1e-30)
        assert rep.passed
        awgf = verify_product(
            "AWGF",
            {"q": pt["q"], "a": pt["a"], "b": pt["b"], "c": pt["c"], "d": pt["d"],
             "w": pt["w"], "t": pt["t"]},
            eps=1e-30,
        )
        assert awgf.passed
        # both sides of each check are the same product of basic series
        assert rep.rhs is not None and awgf.lhs is not None


PRODUCT_POINTS = {
    "SCHLOSSER_T4": {"q": F(1, 2), "a": F(1, 3), "b": F(7, 10), "z": F(1, 5)},
    "SRIV_JAIN": {"q": F(1, 2), "a": F(1, 3), "b": F(1, 4), "z": F(1, 5)},
    "JACKSON_CLAUSEN": {"p": F(7, 10), "a": F(1, 2), "b": F(2, 5), "z": F(1, 5)},
    "NASSRALLAH_1": {"p": F(7, 10), "a": F(1, 2), "b": F(2, 5), "z": F(1, 5)},
    "NASSRALLAH_2": {"p": F(7, 10), "a": F(1, 2), "b": F(2, 5), "z": F(1, 5)},
    "THM21": {"p": F(7, 10), "a": F(1, 2), "b": F(2, 5), "z": F(1, 5)},
    "TRIVIAL_21_32": {"p": F(7, 10), "a": F(1, 2), "z": F(1, 5)},
    "SRIVASTAVA_313": {"q": F(1, 2), "a": F(1, 3), "b": F(1, 4), "t": F(1, 5)},
    "T515": {"q": F(1, 2), "a": F(1, 3), "c": F(1, 5), "t": F(1, 6)},
    "T516": {"q": F(1, 2), "a": F(1, 3), "c": F(1, 5), "t": F(1, 6)},
    "T517": {"q": F(1, 2), "a": F(1, 3), "c": F(1, 5), "t": F(1, 6)},
    "T518": {"q": F(1, 2), "a": F(1, 3), "c": F(1, 5), "t": F(1, 6)},
    "CAYLEY_ORR_A": {"q": F(1, 2), "a": F(1, 3), "b": F(1, 5), "c": F(2, 7), "z": F(1, 5)},
    "CAYLEY_ORR_B": {"q": F(1, 2), "a": F(1, 3), "b": F(1, 5), "c": F(2, 7), "z": F(1, 5)},
}


class TestProductValues:
    @pytest.mark.parametrize("ident", sorted(PRODUCT_POINTS))
    def test_sample_point(self, ident):
        rep = verify_product(ident, PRODUCT_POINTS[ident], eps=1e-30)
        assert rep.passed, (ident, rep.rel_err)

    @pytest.mark.parametrize("ident", sorted(PRODUCT_POINTS))
    def test_z_zero_is_trivial(self, ident):
        params = dict(PRODUCT_POINTS[ident])
        zname = "z" if "z" in params else "t"
        params[zname] = F(0)
        rep = verify_product(ident, params, eps=1e-30)
        assert rep.passed

    def test_safety_radius_enforced(self):
        params = dict(PRODUCT_POINTS["SRIV_JAIN"])
        params["z"] = F(1, 2)
        with pytest.raises(DomainError):
            verify_product("SRIV_JAIN", params)

    @pytest.mark.parametrize("z", [F(1, 4), E(0, F(1, 4))], ids=["1/4", "i/4"])
    def test_safety_radius_admits_its_boundary(self, z):
        # |z| is compared with the radius exactly, not through a padded float bound
        rep = verify_product("SRIV_JAIN", dict(PRODUCT_POINTS["SRIV_JAIN"], z=z), eps=1e-30)
        assert rep.passed

    def test_safety_radius_refuses_just_past_its_boundary(self):
        with pytest.raises(DomainError, match="exceeds the safety radius 0.25"):
            verify_product("SRIV_JAIN", dict(PRODUCT_POINTS["SRIV_JAIN"], z=F(1, 4) + F(1, 10**20)))

    @pytest.mark.parametrize("z", [F(1, 4), F(-1, 4)])
    def test_cayley_orr_b_hypothesis_is_its_own(self, z):
        # |c z| = 1/14 > |ab| = 1/15: lemma B's 2phi1(a, b; c; q^2, c z/(ab)) diverges
        # although |q^2 c z| < |ab|, and the row's own hypothesis names it; lemma A,
        # which needs only |q^2 c z| < |ab|, passes at the same point
        point = dict(PRODUCT_POINTS["CAYLEY_ORR_B"], z=z)
        with pytest.raises(DomainError, match=r"^the lemma needs \|c z\| < \|ab\|$"):
            verify_product("CAYLEY_ORR_B", point)
        assert verify_product("CAYLEY_ORR_A", point).passed

    def test_unknown_id(self):
        with pytest.raises(UnknownIdentity):
            verify_product("NOPE", {})

    def test_t517_three_term_point(self):
        rep = verify_product("T517", {"q": F(1, 2), "a": F(1, 3), "c": F(1, 5), "t": F(1, 6)},
                             eps=1e-30)
        assert rep.passed and rep.rel_err < 1e-30

    def test_sriv_jain_tight_eps(self):
        rep = verify_product("SRIV_JAIN", PRODUCT_POINTS["SRIV_JAIN"], eps=1e-35)
        assert rep.passed and rep.rel_err <= 1e-35


class TestVerdictResolution:
    """A value verdict can refuse: at each product identity's point, the right
    side moved by 4 eps max(1, |r|) fails and moved by eps/4 max(1, |r|) passes.
    Both sides are the certified values verify_product compares, from the
    value function of the identity's row."""

    @pytest.mark.parametrize("shift, passes", [(4, False), (0.25, True)])
    @pytest.mark.parametrize("ident", PRODUCT_IDS)
    def test_moved_right_side(self, ident, shift, passes):
        eps = 1e-30
        params = {k: E(v) for k, v in VALUE_POINTS[ident].items()}
        lhs, rhs, _ = products._ROWS[ident].value(params, eps, 256)
        delta = shift * eps * max(1.0, float(abs(rhs.value)))
        for moved in (rhs + ApproxScalar(delta, 256), rhs - ApproxScalar(delta * 1j, 256)):
            assert compare_approx(lhs, moved, eps)[0] is passes, (ident, moved)


# Item 1(b) of the roadmap: at a base near 1, side_value multiplies factors each
# certified to eps/8 absolute without composing their bounds, so true identities
# FAIL at eps 1e-30 (rel_err 2.1e-30 to 4.4e-30 at 19/20, 6.8e-29 to 2.6e-21 at
# 99/100); SRIVASTAVA_313, T515 and T517 still pass at 19/20
_FALSE_FAIL = pytest.mark.xfail(strict=True, reason="ROADMAP item 1(b)")
MOVED_BASE_ROWS = [
    pytest.param(ident, q, marks=marks, id=f"{ident}-{q}")
    for q, marks, ids in [
        (F(19, 20), _FALSE_FAIL, ("SRIV_JAIN", "T516", "T518")),
        (F(19, 20), (), ("SRIVASTAVA_313", "T515", "T517")),
        (F(99, 100), _FALSE_FAIL, ("SRIVASTAVA_313", "SRIV_JAIN", "T515", "T516", "T517", "T518")),
    ]
    for ident in ids
]


@pytest.mark.parametrize("ident, q", MOVED_BASE_ROWS)
def test_product_value_at_a_base_near_one(ident, q):
    rep = verify_product(ident, dict(PRODUCT_POINTS[ident], q=q), eps=1e-30)
    assert rep.passed, rep.rel_err


class TestCoefficientChecks:
    @pytest.mark.parametrize("ident", sorted(COEFF_CHECK_IDS))
    def test_through_z9(self, ident):
        params = {k: v for k, v in PRODUCT_POINTS[ident].items() if k not in ("z", "t")}
        rep = product_coefficient_check(ident, params, order=9)
        assert rep.passed, (ident, rep.note)

    @pytest.mark.parametrize("ident", sorted(COEFF_CHECK_IDS))
    def test_squared_factors_built_to_half_order(self, ident, monkeypatch):
        # a factor in z^2 is built to order // 2 and dilated to order: the same
        # series as the full-order build, kept here as the reference
        params = {k: v for k, v in PRODUCT_POINTS[ident].items() if k not in ("z", "t")}
        orders = []
        monkeypatch.setattr(products, "phi_series_coeffs",
                            lambda *args: orders.append(args[-1]) or phi_series_coeffs(*args))
        for side in product_sides(ident, params):
            if isinstance(side, Weighted):  # its weight is one factor in z, built to order
                side = side.terms
            factors = [f for _, _, term in side for f in term]
            for order in (0, 1, 2, 5, 20):
                orders.clear()
                assert side_series(side, order).coeffs == _full_order_series(side, order), order
                assert orders == [order // 2 if f.squared else order for f in factors]

    def test_pole_past_half_order_in_a_squared_factor(self):
        # the lower parameter q^-3 has its pole at index 4: a factor in z^2 reaches
        # it from order 8 on, a factor in z from order 4 on
        q = E(F(1, 4))
        plain = products.Phi([E(F(1, 3))], [q**-3], q)
        squared = plain._replace(squared=True)
        for order in (4, 7):
            assert side_series([(None, 0, [squared])], order).order == order
            with pytest.raises(PoleError) as info:
                side_series([(None, 0, [plain])], order)
            assert info.value.index == 4
        with pytest.raises(PoleError) as info:
            side_series([(None, 0, [squared])], 8)
        assert info.value.index == 4

    @pytest.mark.parametrize("ident", ["TRIPLE_32PF", "QUAD_COR13", "WD_APPELL", "CLAUSEN"])
    def test_ids_without_exact_sides_are_refused(self, ident):
        with pytest.raises(UnknownIdentity, match=f"^{ident} has no exact coefficient check$"):
            product_coefficient_check(ident, {})

    def test_coefficient_check_parameter_names_checked(self):
        with pytest.raises(DomainError, match=r"THM21 takes parameters \(p, a, b\): missing b"):
            product_coefficient_check("THM21", {"p": F(1, 2), "a": F(1, 3)})
        with pytest.raises(DomainError, match="unexpected zz"):
            product_coefficient_check("THM21", {"p": F(7, 10), "a": F(1, 2), "b": F(2, 5), "zz": 1})

    def test_lhs_series_vs_values(self):
        # the truncated LHS series evaluated at z agrees with the product of
        # certified series values, independently of the RHS path
        for ident in COEFF_CHECK_IDS:
            params = PRODUCT_POINTS[ident]
            z = E(params["z" if "z" in params else "t"])
            if ident == "CAYLEY_ORR_B":
                # its second argument c z/(ab) is 6/7 at z = 1/5: 60 terms leave 1e-4
                z = E(F(1, 40))
            lhs_side, _ = product_sides(ident, params)
            acc = E(0)
            zn = E(1)
            for ccoef in side_series(lhs_side, 60).coeffs:
                acc = acc + ccoef * zn
                zn = zn * z
            lhs_val, _ = side_value(lhs_side, z, 1e-32, 256)
            ok, _, rel = compare_approx(acc.to_approx(256), lhs_val, 1e-25)
            assert ok, (ident, rel)


def _terms(side) -> list:
    """A side's list of terms; for a Weighted side, the terms it weights."""
    return side.terms if isinstance(side, Weighted) else side


def _with_side(sides, s, side) -> tuple:
    """The sides with side s replaced."""
    return tuple(side if k == s else other for k, other in enumerate(sides))


def _with_term(sides, s, t, term) -> tuple:
    """The sides with term t of side s replaced."""
    terms = list(_terms(sides[s]))
    terms[t] = term
    side = sides[s]._replace(terms=terms) if isinstance(sides[s], Weighted) else terms
    return _with_side(sides, s, side)


def _with_factor(sides, s, t, f, phi) -> tuple:
    """The sides with factor f of term t of side s replaced by phi."""
    pref, power, factors = _terms(sides[s])[t]
    return _with_term(sides, s, t, (pref, power, factors[:f] + [phi] + factors[f + 1:]))


def _with_weight(sides, s, phi) -> tuple:
    """The sides with the weight of Weighted side s replaced by phi."""
    return _with_side(sides, s, sides[s]._replace(weight=phi))


def _row_mutants(sides):
    """(label, mutated sides) for each one-datum mutant of built sides: each
    upper or lower parameter of each factor (a Weighted side's weight among
    them) times the factor's base, then each one negated, one at a time; then
    each zscale times the factor's base; then each prefactor (an absent one is
    1) times the base of its term's first factor."""
    factors = []  # (label, factor, factor -> the sides with it in its place)
    for s, side in enumerate(sides):
        if isinstance(side, Weighted):
            factors.append((f"{'lr'[s]}hs weight", side.weight, partial(_with_weight, sides, s)))
        for t, (_, _, fs) in enumerate(_terms(side)):
            factors += [(f"{'lr'[s]}hs term {t} factor {f}", phi,
                         partial(_with_factor, sides, s, t, f)) for f, phi in enumerate(fs)]
    for change in ("times base", "negated"):
        for label, phi, replace in factors:
            for field in ("upper", "lower"):
                for i, x in enumerate(getattr(phi, field)):
                    values = list(getattr(phi, field))
                    values[i] = x * phi.base if change == "times base" else -x
                    yield f"{label} {field}[{i}] {change}", replace(phi._replace(**{field: values}))
    for label, phi, replace in factors:
        yield f"{label} zscale", replace(phi._replace(zscale=phi.zscale * phi.base))
    for s, side in enumerate(sides):
        for t, (pref, power, fs) in enumerate(_terms(side)):
            base = fs[0].base
            yield (f"{'lr'[s]}hs term {t} prefactor",
                   _with_term(sides, s, t, (base if pref is None else pref * base, power, fs)))


# (id, mutant label) -> why a row mutant is equivalent to the row, and so
# passes the coefficient check: none is
SURVIVING_ROW_MUTANTS = {}


class TestRowMutants:
    """ROADMAP 11(b), product part: each one-datum mutant of a coefficient-check
    row's built sides, AWGF's product side among them, must FAIL
    product_coefficient_check at order 9."""

    @pytest.mark.parametrize("ident", sorted(COEFF_CHECK_IDS))
    def test_each_mutant_fails(self, ident, monkeypatch):
        params = {k: v for k, v in PRODUCT_POINTS[ident].items() if k not in ("z", "t")}
        built = product_sides(ident, params)
        mutants = list(_row_mutants(built))
        survivors = set()
        for label, sides in [("unmutated", built)] + mutants:
            monkeypatch.setattr(products, "product_sides", lambda *_, sides=sides: sides)
            if product_coefficient_check(ident, params, order=9).passed:
                survivors.add((ident, label))
        assert len(mutants) >= 12
        assert survivors == {(ident, "unmutated")} | {
            key for key in SURVIVING_ROW_MUTANTS if key[0] == ident}

    def test_each_awgf_mutant_fails(self, monkeypatch):
        # awgf_coefficient_check reads its product of two 2phi1 from the row
        params = {k: v for k, v in TestAWGF.VALUE_POINT.items() if k != "t"}
        side, _ = product_sides("AWGF", params)
        mutants = list(_row_mutants((side,)))
        survivors = set()
        for label, (mutant,) in [("unmutated", (side,))] + mutants:
            monkeypatch.setattr(products, "product_sides", lambda *_, m=mutant: (m, None))
            if product_coefficient_check("AWGF", params, order=9).passed:
                survivors.add(("AWGF", label))
        assert len(mutants) >= 12
        assert survivors == {("AWGF", "unmutated")} | {
            key for key in SURVIVING_ROW_MUTANTS if key[0] == "AWGF"}


class TestClassicalLimits:
    POINTS = [
        {"a": F(1, 3), "b": F(1, 4), "z": F(1, 5)},
        {"a": F(1, 2), "b": F(1, 3), "z": F(1, 4)},
        {"a": F(2, 5), "b": F(3, 7), "z": F(1, 2)},
    ]

    @pytest.mark.parametrize("which", ("CLAUSEN", "ORR_A", "ORR_B", "BAILEY_211", "COR_3F2"))
    def test_three_points(self, which):
        for pt in self.POINTS:
            rep = classical_limit_check(which, pt)
            assert rep.passed, (which, pt, rep.rel_err)

    def test_z_zero(self):
        rep = classical_limit_check("CLAUSEN", {"a": F(1, 3), "b": F(1, 4), "z": F(0)})
        assert rep.passed


# the Cayley-Orr lemmas' point without z, for their exact checks
CAYLEY_POINT = {"q": F(1, 2), "a": F(1, 3), "b": F(1, 5), "c": F(2, 7)}


def _lemma_a_an(a, b, c, q, order: int) -> tuple:
    """Lemma A's auxiliary coefficients a_0..a_order: the z^n coefficients of
    its row's right side before the weights."""
    rhs = product_sides("CAYLEY_ORR_A", {"q": q, "a": a, "b": b, "c": c})[1]
    return side_series(rhs.terms, order).coeffs


def cayley_orr_a_closed_form_check(a, b, q, n_max: int = 8, an=_lemma_a_an):
    """The exact report that at c = ab/q lemma A's a_n, from an, collapse to
    (a, b; q)_n / (q, ab/q; q)_n (q-Pfaff-Saalschutz), the right side written
    from the display."""
    ae, be, qe = (E.coerce(v) for v in (a, b, q))
    ce = ae * be / qe
    return products._coefficient_report(
        "CAYLEY_ORR_A", {"a": ae, "b": be, "q": qe}, "a_n at c = ab/q",
        "(a,b;q)_n / ((q, ab/q;q)_n)", an(ae, be, ce, qe, n_max),
        lambda n: qpoch_list([ae, be], qe, n) / qpoch_list([qe, ce], qe, n), n_max,
        "q-Pfaff-Saalschutz collapse", at="n=",
    )


class TestCayleyOrr:
    def test_lemma_a_coefficients(self):
        rep = product_coefficient_check("CAYLEY_ORR_A", CAYLEY_POINT, order=10)
        assert rep.passed

    def test_lemma_b_coefficients(self):
        rep = product_coefficient_check("CAYLEY_ORR_B", CAYLEY_POINT, order=10)
        assert rep.passed

    def test_a0_is_one(self):
        an = _lemma_a_an(F(1, 3), F(1, 5), F(2, 7), F(1, 2), 0)
        assert an == (E(1),)

    def test_closed_form_at_pfaff_saalschutz_point(self):
        rep = cayley_orr_a_closed_form_check(F(1, 3), F(1, 5), F(1, 2), n_max=8)
        assert rep.passed

    def test_thm21_consistency(self):
        rep = thm21_cayley_consistency(F(7, 10), F(1, 2), F(2, 5), n_max=10)
        assert rep.passed

    def test_nassrallah2_consistency(self):
        rep = nassrallah2_cayley_consistency(F(7, 10), F(1, 2), F(2, 5), n_max=10)
        assert rep.passed

    def test_complex_parameters_reported_in_full(self):
        a = E(F(1, 3), F(1, 5))
        cases = [
            (product_coefficient_check("CAYLEY_ORR_A", dict(CAYLEY_POINT, a=a), 4), "a"),
            (cayley_orr_a_closed_form_check(a, F(1, 5), F(1, 2), 4), "a"),
            (awgf_coefficient_check(a, F(1, 5), F(2, 7), F(1, 3), F(1, 2), F(1, 2), 3), "a"),
            (awgf_coefficient_check(0, 0, 0, 0, a, F(1, 2), 3), "w"),
            (thm21_cayley_consistency(F(7, 10), a, F(2, 5), 4), "a"),
        ]
        for rep, name in cases:
            assert rep.passed and rep.params[name] == "1/3+1/5*i", rep.identity_id

    def test_failing_checks_name_the_first_mismatch(self, monkeypatch):
        # one expected coefficient is moved off its value at a time
        def bump(values, k):
            return [v + 1 if n == k else v for n, v in enumerate(values)]

        side_series_ = products.side_series
        calls = []

        def rhs_bumped(side, order):  # lhs, then rhs series
            calls.append(side)
            s = side_series_(side, order)
            return PowerSeriesTrunc.make(bump(s.coeffs, 5)) if len(calls) == 2 else s

        monkeypatch.setattr(products, "side_series", rhs_bumped)
        rep = product_coefficient_check("SCHLOSSER_T4", {"q": F(1, 2), "a": F(1, 3), "b": F(7, 10)},
                                        order=9)
        assert not rep.passed and rep.note == "first mismatch at degree 5"
        monkeypatch.undo()

        eval_aw = products.eval_aw
        monkeypatch.setattr(products, "eval_aw", lambda p, rep: eval_aw(p, rep) + (p.n == 4))
        rep = awgf_coefficient_check(0, 0, 0, 0, F(3, 4), F(1, 2), 10)
        assert not rep.passed and rep.note == "first mismatch at n=4"
        monkeypatch.undo()

        rep = cayley_orr_a_closed_form_check(F(1, 3), F(1, 5), F(1, 2), n_max=8,
                                             an=lambda *args: bump(_lemma_a_an(*args), 6))
        assert not rep.passed and rep.note == "q-Pfaff-Saalschutz collapse; first mismatch at n=6"

        def lemma_bumped(side, order):  # the weighted lemma side, not the 4phi3
            s = side_series_(side, order)
            return PowerSeriesTrunc.make(bump(s.coeffs, 7)) if isinstance(side, Weighted) else s

        monkeypatch.setattr(products, "side_series", lemma_bumped)
        rep = thm21_cayley_consistency(F(7, 10), F(1, 2), F(2, 5), n_max=10)
        assert not rep.passed
        assert rep.note.endswith("with the coefficient lemma; first mismatch at degree 7")

    def test_consistency_random_points(self):
        rng = random.Random(99)
        for _ in range(3):
            p = F(rng.randint(2, 8), rng.randint(9, 12))
            a = F(rng.randint(1, 4), rng.randint(5, 9))
            b = F(rng.randint(1, 4), rng.randint(5, 9))
            assert thm21_cayley_consistency(p, a, b, 8).passed
            assert nassrallah2_cayley_consistency(p, a, b, 8).passed


class TestWDAppell:
    POINT = {"q": F(1, 3), "u": F(1, 10), "t": F(1, 8), "a": F(1, 2), "b": F(1, 3), "d": F(9, 10)}

    def test_value_check(self):
        rep = verify_product("WD_APPELL", self.POINT, eps=1e-30)
        assert rep.passed and rep.rel_err < 1e-30


# SHA-256 of json.dumps(dataclasses.asdict(report), sort_keys=True) for the
# Cayley-Orr, zero-parameter AWGF, WD_APPELL and classical-limit reports at
# the points of the tests above (the Cayley-Orr coefficient checks at
# CAYLEY_POINT, classical ids at TestClassicalLimits.POINTS[i]): these reports
# are byte-identical across builds
GOLDEN_REPORT_SHA256 = {
    "awgf_coefficient_check a=b=c=d=0":
        "2249c38082db7a5dea4f7b5fc58e5b5e67fcd077073670667d90e4c8591aa052",
    "product_coefficient_check CAYLEY_ORR_A":
        "97b1393bd18432ed9c5b2a84de9f6c854f068f5469206f066b40fa75f3083c39",
    "product_coefficient_check CAYLEY_ORR_B":
        "6614a4870aaf0de078fef7ff63fdae1345fd52d6838eb8305917df83eea99ad6",
    "cayley_orr_a_closed_form_check":
        "a9359b89bb33935dc9ba722d4b269ac6da9bfb852fda9db3689f9586b0888a05",
    "thm21_cayley_consistency":
        "fc695dd3fe671add5c1db7328ca94797f9324e882367c51a6ced5e1154c418be",
    "nassrallah2_cayley_consistency":
        "21ec9d3f9b78b0915824abc4ec96144d803307f131ddb418f248f36bfd2cba14",
    "verify_product CAYLEY_ORR_A":
        "92a3cc07c205f0ffd898e7c0eb99c8bcbf96ea917e8c43426f1ce446157817aa",
    "verify_product CAYLEY_ORR_A z=0":
        "9383e3337d035a99a2fca1bef63049f20d900b4263b2253aa96f4ebd76599fbd",
    "verify_product CAYLEY_ORR_B":
        "ea5f5ef1a7afe1b69ea269baa302d06ad2e8a034573ae030004bf86b1779143d",
    "verify_product CAYLEY_ORR_B z=0":
        "1edbd11cb183cfc8089fc51f36723e78a7eb4459abebfe9354e59a9bb6ec2046",
    "verify_product WD_APPELL":
        "e09e50c9a341a20735d55048e6dd808b753e310d6faeaf55e9fd07b14a4ae9e0",
    "classical_limit_check CLAUSEN 0":
        "a4906726425df921cbfdbf6a32b60a81b4b89456573aabd66e424c96b85c49ba",
    "classical_limit_check CLAUSEN 1":
        "404c59a5ec50cc662f36bc1d63310976fa944201db1a960b21c4be7028383416",
    "classical_limit_check CLAUSEN 2":
        "a2ac3f0208add3ef3f429fbebb15f2770b26d1a5b0b2c0f2334e19169cc4e947",
    "classical_limit_check ORR_A 0":
        "3b070dad776aae4d32b04d05d17cfdbb720bb7835fc9bf72b22afa8e4c127d5c",
    "classical_limit_check ORR_A 1":
        "2831c16fa5681fb43ebdfebc7092e9fc8d154e328b635c7a3aa484b8d7aeaa30",
    "classical_limit_check ORR_A 2":
        "6f30c814ac7e61dba241369488b57fbd9aba8f57ac1c2fa4787299efe7693ea6",
    "classical_limit_check ORR_B 0":
        "fa12bba2a54f9c131bcfe6872271cb02acd90542d890e6d467e422432a71a0f6",
    "classical_limit_check ORR_B 1":
        "0c6419e838b54315e78a28fca9457198729ac3aea46df201657532f8c7481c0a",
    "classical_limit_check ORR_B 2":
        "74df0f85e49ca38a566b58e30de1ebfb02c50f0a58b3c07560d05399351c3d81",
    "classical_limit_check BAILEY_211 0":
        "29f6eaeb0ca2f2eb028cc8d2d3ab07f0865369906e6528d7ce03caca3b947e2c",
    "classical_limit_check BAILEY_211 1":
        "4cc537b6f2d6d63183af9811f92358c021a9d3c3dd9d780bcd7006f01fa836ab",
    "classical_limit_check BAILEY_211 2":
        "ad05decbc3740110a780598cdedd4aecf78023e439079a958aa341cc983301d6",
    "classical_limit_check COR_3F2 0":
        "32c9312f03322f346a44d42f577413f009e625cb9fc9d8934d3d4d9917be0847",
    "classical_limit_check COR_3F2 1":
        "c9b2648cfa9b49449470de123d8dc459ee8be02094da76bb557933a55f3fccf1",
    "classical_limit_check COR_3F2 2":
        "a5ff20b6332e1cd762c2a7b917eeecd92e6b85a46aef33013dda90d2630abde9",
}


def _golden_report(key):
    kind, *args = key.split()
    pab = (F(7, 10), F(1, 2), F(2, 5))
    if kind == "awgf_coefficient_check":
        return awgf_coefficient_check(0, 0, 0, 0, F(3, 4), F(1, 2), 10)
    if kind == "product_coefficient_check":
        return product_coefficient_check(args[0], CAYLEY_POINT, order=10)
    if kind == "cayley_orr_a_closed_form_check":
        return cayley_orr_a_closed_form_check(F(1, 3), F(1, 5), F(1, 2), n_max=8)
    if kind == "thm21_cayley_consistency":
        return thm21_cayley_consistency(*pab, n_max=10)
    if kind == "nassrallah2_cayley_consistency":
        return nassrallah2_cayley_consistency(*pab, n_max=10)
    if kind == "verify_product":
        params = dict(PRODUCT_POINTS.get(args[0], TestWDAppell.POINT))
        if args[1:] == ["z=0"]:
            params["z"] = F(0)
        return verify_product(args[0], params, eps=1e-30)
    return classical_limit_check(args[0], TestClassicalLimits.POINTS[int(args[1])])


@pytest.mark.parametrize("key", sorted(GOLDEN_REPORT_SHA256))
def test_golden_report(key):
    blob = json.dumps(dataclasses.asdict(_golden_report(key)), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_REPORT_SHA256[key]


# the terms of every certified_sum the check runs (a weighted Cauchy product's
# are its diagonals), which truncation_terms of the report counts, at the
# benchmark's four multi-sum points and two pair points, recorded when each sum
# came to stop at its first proven tail bound: the truncation rule sets the
# counts, and a change of the arithmetic alone must not move one
GOLDEN_TERM_COUNTS = {
    "AWGF": (TestAWGF.VALUE_POINT, 138),
    "TRIPLE_32PF": (TestTripleQuad.POINT, 161),
    "QUAD_COR13": (TestTripleQuad.QUAD_POINT, 108),
    "WD_APPELL": (TestWDAppell.POINT, 80),
    "SRIV_JAIN": (PRODUCT_POINTS["SRIV_JAIN"], 114),
    "CAYLEY_ORR_B": (PRODUCT_POINTS["CAYLEY_ORR_B"], 973),
}


@pytest.mark.parametrize("ident", sorted(GOLDEN_TERM_COUNTS))
def test_golden_term_counts(ident, monkeypatch):
    point, sum_terms = GOLDEN_TERM_COUNTS[ident]
    counted = []
    certified_sum = series.certified_sum

    def counting(*args, **kwargs):
        value, cert = certified_sum(*args, **kwargs)
        counted.append(cert.terms_used)
        return value, cert

    monkeypatch.setattr(series, "certified_sum", counting)
    monkeypatch.setattr(products, "certified_sum", counting)
    rep = verify_product(ident, point, eps=1e-30)
    assert rep.passed
    assert rep.truncation_terms == sum(counted) == sum_terms


# SHA-256 of each exact coefficient check's report followed by the
# coefficients it compares (both sides through z^COEFF_PIN_ORDER, as printed),
# at PRODUCT_POINTS and TestAWGF.VALUE_POINT: a change of the exact arithmetic
# may not move a digit of them
COEFF_PIN_ORDER = 20
GOLDEN_COEFF_SHA256 = {
    "AWGF":
        "79010aa6b10a5dd0e2b41753499cecda3b794230c031e819e72333c1186a1321",
    "JACKSON_CLAUSEN":
        "7979fd1e623d016a912b0b614441563ece6cfe97cb3d61fb0edb672afca22618",
    "NASSRALLAH_1":
        "43218038e14d59a4e2cbafa759920603903aa55593cd260d9328d7574b599a31",
    "NASSRALLAH_2":
        "01e3059dbbbcf141130d7bd7114007cffa083c3bf6f9359f41e7d243b7892ce7",
    "SCHLOSSER_T4":
        "7bb5aad3ba6198f1757d77616feeebf24f7e896d386e546093a3d0b15ff85f0c",
    "SRIVASTAVA_313":
        "ddb5d577eb220006e708d698a78e9b992d1659c4fb1ebf5e4b0794d5fbff8fd2",
    "SRIV_JAIN":
        "5d7eb345bbe0f02831385e54c7c4e4f7a1f888b69e297400222bdb6961471e6f",
    "T515":
        "188405bbfbab20065874398acb682eb3bc68e38847fa0f79b69f6ca6deaa9cd9",
    "T516":
        "e44cabaab57e264fc052960c478cb36d1e44bba7c7a4040aec6d76bf0d587a49",
    "T517":
        "6a3b6e0f207c911fa517fc8637eaf287d06b43dbf962bf54df873012e89793ff",
    "T518":
        "95bb39e836305d07971df926cf659cb04c77bb17f17595b18652fea64df18ae3",
    "THM21":
        "25c5c3c1999c7b8254933fc1fbde10d10c2c2f8019ee4850b059f250bd739120",
    "TRIVIAL_21_32":
        "1160c346f3e63799da35173923c5c5042d838e51c934538a1a351c16cd9d4c64",
}


def _coefficient_pin(key):
    if key == "AWGF":
        P = {k: E(v) for k, v in TestAWGF.VALUE_POINT.items()}
        a, b, c, d, w, q = (P[k] for k in "abcdwq")
        rep = awgf_coefficient_check(a, b, c, d, w, q, n_max=COEFF_PIN_ORDER)
        left = phi_series_coeffs([a * w, b * w], [a * b], q, 1 / w, COEFF_PIN_ORDER)
        right = phi_series_coeffs([c / w, d / w], [c * d], q, w, COEFF_PIN_ORDER)
        sides = [left * right]
    else:
        params = {k: v for k, v in PRODUCT_POINTS[key].items() if k not in ("z", "t")}
        rep = product_coefficient_check(key, params, order=COEFF_PIN_ORDER)
        sides = [side_series(side, COEFF_PIN_ORDER) for side in product_sides(key, params)]
    lines = [json.dumps(dataclasses.asdict(rep), sort_keys=True)]
    lines += [str(c) for s in sides for c in s.coeffs]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN_COEFF_SHA256))
def test_golden_coefficients(key):
    assert _coefficient_pin(key) == GOLDEN_COEFF_SHA256[key]


# every product id at its test point (the multi-sums at their term-count points)
VALUE_POINTS = {**{k: point for k, (point, _) in GOLDEN_TERM_COUNTS.items()}, **PRODUCT_POINTS}


@pytest.mark.parametrize("ident", PRODUCT_IDS)
def test_no_exact_input_goes_through_mpmath(ident, monkeypatch):
    # the value path takes each exact input straight to fixed point: with the
    # exact-to-mpmath conversion made to fail, every check still runs and passes
    def refused(self, precision_bits):
        raise AssertionError(f"{self} was converted to mpmath at {precision_bits} bits")

    monkeypatch.setattr(ExactScalar, "to_approx", refused)
    assert verify_product(ident, VALUE_POINTS[ident], eps=1e-30).passed
