"""Generating functions, product transformations, classical limits, Cayley-Orr."""

import random
from fractions import Fraction as F

import pytest

from qident.errors import DivergenceError, DomainError, UnknownIdentity
from qident.powerseries import PowerSeriesTrunc, phi_series_coeffs
from qident.products import (
    COEFF_CHECK_IDS,
    PRODUCT_IDS,
    awgf_coefficient_check,
    awgf_hermite_degeneration_check,
    cayley_orr_a_closed_form_check,
    cayley_orr_an,
    cayley_orr_check,
    classical_limit_check,
    nassrallah2_cayley_consistency,
    product_coefficient_check,
    product_sides,
    quad_cor13,
    schlosser_t4_parity_check,
    side_series,
    side_value,
    thm21_cayley_consistency,
    triple_sum_32pf,
    verify_product,
)
from qident.qkernel import ExactScalar
from qident.reporting import compare_approx

E = ExactScalar


class TestPowerSeries:
    def test_mul_and_shift(self):
        one = PowerSeriesTrunc.make([E(1), E(2), E(3)])
        other = PowerSeriesTrunc.make([E(1), E(-1), E(0)])
        prod = one * other
        assert prod.coeffs == (E(1), E(1), E(1))
        assert one.shift(1).coeffs == (E(0), E(1), E(2))

    def test_dilate_square(self):
        s = PowerSeriesTrunc.make([E(5), E(7), E(9), E(0), E(0)])
        assert s.dilate_square().coeffs == (E(5), E(0), E(7), E(0), E(9))

    def test_geometric_series_coeffs(self):
        # 1phi0(q; -; q, z) = (qz;q)inf/(z;q)inf = (1-qz...)/... with a = q the
        # coefficients are (q;q)_n/(q;q)_n = 1 (geometric series)
        q = E(F(1, 2))
        s = phi_series_coeffs([q], [], q, E(1), 6)
        assert all(c == E(1) for c in s.coeffs)


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
        rep = awgf_hermite_degeneration_check(F(3, 4), F(1, 2), 10)
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

    def test_awgf_value_check(self):
        rep = verify_product(
            "AWGF",
            {"q": F(1, 2), "a": F(1, 3), "b": F(1, 5), "c": F(2, 3), "d": F(1, 7),
             "w": F(9, 10), "t": F(1, 5)},
            eps=1e-30,
        )
        assert rep.passed and rep.rel_err < 1e-30


class TestTripleQuad:
    POINT = {
        "u": F(1, 10), "t": F(1, 8), "w": F(9, 10),
        "a": F(1, 2), "b": F(1, 3), "c": F(1, 2), "d": F(1, 5), "q": F(1, 3),
    }

    def test_triple_sum_sample_point(self):
        rep = triple_sum_32pf(
            self.POINT["u"], self.POINT["w"], self.POINT["t"],
            self.POINT["a"], self.POINT["b"], self.POINT["c"], self.POINT["d"],
            self.POINT["q"], eps=1e-30,
        )
        assert rep.passed and rep.rel_err < 1e-30

    def test_u_equals_t_reproduces_quadruple_sum(self):
        # at u = t both 3phi2 factors collapse to 1, so the triple sum equals
        # the closed form verified by the quadruple-sum check
        pt = dict(self.POINT)
        pt["u"] = pt["t"]
        rep1 = triple_sum_32pf(
            pt["u"], pt["w"], pt["t"], pt["a"], pt["b"], pt["c"], pt["d"], pt["q"],
            eps=1e-28,
        )
        assert rep1.passed
        rep2 = quad_cor13(
            pt["t"], pt["w"], pt["a"], pt["b"], pt["c"], pt["d"], pt["q"], eps=1e-28
        )
        assert rep2.passed

    def test_quad_t_zero(self):
        rep = quad_cor13(0, F(9, 10), F(1, 2), F(1, 3), F(1, 2), F(1, 5), F(1, 3), eps=1e-30)
        assert rep.passed

    def test_quad_w_inversion(self):
        r1 = quad_cor13(F(1, 8), F(9, 10), F(1, 2), F(1, 3), F(1, 2), F(1, 5), F(1, 3), eps=1e-28)
        r2 = quad_cor13(F(1, 8), F(10, 9), F(1, 2), F(1, 3), F(1, 2), F(1, 5), F(1, 3), eps=1e-28)
        assert r1.passed and r2.passed
        assert r1.rhs == r2.rhs

    def test_hypothesis_guard(self):
        with pytest.raises(DivergenceError):
            triple_sum_32pf(F(3, 4), F(9, 10), F(1, 8), F(1, 2), F(1, 3), F(1, 2),
                            F(1, 5), F(1, 3))

    def test_u_zero_reduces_to_generating_function(self):
        # at u = 0 both 3phi2 collapse to the plain 2phi1 pair and the triple
        # sum loses its k, l shifts: the check must agree with the AWGF value
        pt = self.POINT
        rep = triple_sum_32pf(0, pt["w"], pt["t"], pt["a"], pt["b"], pt["c"],
                              pt["d"], pt["q"], eps=1e-30)
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


class TestCoefficientChecks:
    @pytest.mark.parametrize("ident", sorted(COEFF_CHECK_IDS))
    def test_through_z9(self, ident):
        params = {k: v for k, v in PRODUCT_POINTS[ident].items() if k not in ("z", "t")}
        rep = product_coefficient_check(ident, params, order=9)
        assert rep.passed, (ident, rep.note)

    def test_schlosser_parity_structure(self):
        rep = schlosser_t4_parity_check({"q": F(1, 2), "a": F(1, 3), "b": F(7, 10)}, order=9)
        assert rep.passed

    def test_lhs_series_vs_values(self):
        # the truncated LHS series evaluated at z agrees with the product of
        # certified series values, independently of the RHS path
        for ident in COEFF_CHECK_IDS + ("CAYLEY_ORR_A", "CAYLEY_ORR_B"):
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


class TestCayleyOrr:
    def test_lemma_a_coefficients(self):
        rep = cayley_orr_check("A", F(1, 3), F(1, 5), F(2, 7), F(1, 2), n_max=10)
        assert rep.passed

    def test_lemma_b_coefficients(self):
        rep = cayley_orr_check("B", F(1, 3), F(1, 5), F(2, 7), F(1, 2), n_max=10)
        assert rep.passed

    def test_a0_is_one(self):
        an = cayley_orr_an("A", F(1, 3), F(1, 5), F(2, 7), F(1, 2), 0)
        assert an[0] == E(1)

    def test_closed_form_at_pfaff_saalschutz_point(self):
        rep = cayley_orr_a_closed_form_check(F(1, 3), F(1, 5), F(1, 2), n_max=8)
        assert rep.passed

    def test_thm21_consistency(self):
        rep = thm21_cayley_consistency(F(7, 10), F(1, 2), F(2, 5), n_max=10)
        assert rep.passed

    def test_nassrallah2_consistency(self):
        rep = nassrallah2_cayley_consistency(F(7, 10), F(1, 2), F(2, 5), n_max=10)
        assert rep.passed

    def test_consistency_random_points(self):
        rng = random.Random(99)
        for _ in range(3):
            p = F(rng.randint(2, 8), rng.randint(9, 12))
            a = F(rng.randint(1, 4), rng.randint(5, 9))
            b = F(rng.randint(1, 4), rng.randint(5, 9))
            assert thm21_cayley_consistency(p, a, b, 8).passed
            assert nassrallah2_cayley_consistency(p, a, b, 8).passed


class TestWDAppell:
    def test_value_check(self):
        rep = verify_product(
            "WD_APPELL",
            {"q": F(1, 3), "u": F(1, 10), "t": F(1, 8), "a": F(1, 2), "b": F(1, 3),
             "d": F(9, 10)},
            eps=1e-30,
        )
        assert rep.passed and rep.rel_err < 1e-30
