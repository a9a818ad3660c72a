"""Terminating-summation registry: lookup, verify, sweep, elementary identities."""

import dataclasses
import hashlib
import json
import math
import re
from fractions import Fraction as F

import mpmath
import pytest

from qident.errors import (ConstraintViolation, DomainError, SamplerExhausted, UnknownIdentity,
                           check_names)
from qident.identities import APPROX_ONLY_IDS, EXACT_IDS, list_ids, lookup, sweep, verify
from qident.qkernel import ExactScalar, I
from qident.reporting import compare_exact, make_report
from qident.series import BalanceClass, eval_phi_terminating

from oracles import derive_balance

E = ExactScalar

# SHA-256 of the report file of `qident sweep <id> --trials 25 --seed 7
# --n-range 0..8 --output <file>`: seeded sweeps are byte-identical across builds
GOLDEN_SWEEP_SHA256 = {
    "T_ANDREWS_WATSON": "946b5c19acb54d5aeada3c433b59bc021de541c6ded953043003ce9ba97b6e80",
    "T_ANDREWS_WHIPPLE_C": "d1e03b55b3444ce73d25a76a2bbea096089592ca957d9a963c787487eee533e9",
    "T_ANDREWS_WHIPPLE_E": "238faac4166bb4a7fb6de6c692e9406a1ab6f46fdc89419871553a49688527a4",
    "T_BAILEY41": "c54241c818f61965f8b61da5f52556c78f19eb1a6773945791607d2e1bd83bfd",
    "T_BW_SUM": "3974e7a9b4c7705da0dde08587b6d1444f875b938f24441bb06c08727d48ca20",
    "T_BW_TRANSFORM": "11ee6d56ee7080034f566a9be046949bf23e546e433a307db49daf4bcfc0fd61",
    "T_GASPER_RAHMAN_WATSON": "378581c3f9d35fa251dff10a16ec1c2af22c80f8b07049ab7d0f83518c1553b0",
    "T_GR_31010": "6cf8e7929782896e6afee450afdd2c9e1e1a2141366b0abf3ba2e91d7708419a",
    "T_GR_3109": "8fc0e367d3748784486d8a5a9390e197378d3958b27ae6b805df24d06bee71eb",
    "T_GR_EX214": "73af2ad7cbc81c04f4c07396ad9c43a719f80a8a7ec89e6ce284a82f9fc0b25e",
    "T_NEW_N1": "925da9e884d0e66da8e2e31e9055e5500464ed84fa91b09bd45d48d6a06f4622",
    "T_NEW_N2": "1cce1f1c255eb2cdf7300cbd5c7523af7810d5dfaf55d0279f52b690909f08db",
    "T_NEW_N3": "76085e734bc96738fdf20e01ba1d750624ca8cbe8c87348dac7b513f4843a366",
    "T_NEW_N4": "25020012a7de1a0201380c8d2b213a83a5a9fb740f6e8d6c08be2f6e709e4721",
    "T_NEW_N5": "2ac546bba0b12fa60432f9f8d6a485ac08a501d1103ee94f870eaa39def491ac",
    "T_NEW_N6": "7719ca9732f31f5d2bbb42acbb3dcfd10153a7700fe878b2edb0d04b36421138",
    "T_NEW_N7": "168560d73e0928cdf9198f33a3c924754e7e56136268f1ef0bdafb7251839def",
    "T_NEW_N8": "6a3b9177a487d1d3710301d3f4d4a73e57ad044dfbc337a02838cc27598ae7d7",
    "T_QBAILEY_1": "8d2d537d2ff62bf2cae62c2110532aa686561b9f18c3a0a8c6e99578af725da9",
    "T_QBAILEY_2": "ebe48caca45d1663d2c2095d3c106a170d33c37423a70446529fc8ec94d0da6a",
    "T_QPFAFF_SAALSCHUTZ": "b3e02e5358fd2079fa277fc08b9e79388325f2c28602cf2aad23fe47f4072fe1",
    "X_SEARS": "ecc7728b1d988f766b25ce7c9a8acaab102ebe9d816c3bbb4c15476197968a11",
}


class TestLookup:
    def test_listing_is_stable_and_sorted(self):
        ids = list_ids()
        assert ids == sorted(ids)
        assert len(ids) == 22
        # the benchmark sweeps these two groups apart, in this order
        assert APPROX_ONLY_IDS == ("T_GASPER_RAHMAN_WATSON", "T_ANDREWS_WHIPPLE_E")
        assert EXACT_IDS == tuple(sorted(set(ids) - set(APPROX_ONLY_IDS)))
        assert len(EXACT_IDS) == 20

    def test_balance_metadata(self):
        assert lookup("T_BAILEY41").balance == BalanceClass("balanced", 1)
        assert lookup("T_NEW_N3").balance == BalanceClass("balanced", 2)
        assert lookup("T_NEW_N7").balance == BalanceClass("balanced", 3)

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentity):
            lookup("nope")

    def test_declared_balance_matches_derivation(self):
        # re-derive each record's balance class from its own series spec
        cases = {
            "T_ANDREWS_WATSON": ({"q": F(1, 2), "sqa": F(1, 3), "sc": F(1, 5)}, 4),
            "T_GASPER_RAHMAN_WATSON": ({"q": F(1, 2), "b": F(1, 3), "c": F(1, 5)}, 4),
            "T_BAILEY41": ({"q": F(1, 2), "a": F(1, 3), "b": F(1, 5)}, 4),
            "T_ANDREWS_WHIPPLE_E": ({"q": F(1, 2), "c": F(1, 3), "e": F(1, 5)}, 4),
            "T_ANDREWS_WHIPPLE_C": ({"q": F(1, 2), "a": F(1, 3), "b": F(1, 5)}, 4),
            "T_QBAILEY_1": ({"q": F(1, 2), "a": F(1, 3), "b": F(1, 5)}, 4),
            "T_QBAILEY_2": ({"q": F(1, 2), "a": F(1, 3), "b": F(1, 5)}, 4),
            "T_QPFAFF_SAALSCHUTZ": (
                {"q": F(1, 2), "a": F(1, 3), "b": F(1, 5), "c": F(2, 3), "d": F(1, 7)},
                4,
            ),
            "T_GR_EX214": ({"q": F(1, 2), "a": F(1, 3), "b": F(1, 5)}, 4),
            "T_GR_3109": ({"q": F(1, 2), "a": F(1, 3), "b": F(1, 5)}, 4),
            "T_GR_31010": ({"q": F(1, 2), "a": F(1, 3), "b": F(1, 5)}, 4),
            "T_BW_SUM": ({"q": F(1, 2), "a": F(1, 3), "b": F(1, 5)}, 4),
            "T_BW_TRANSFORM": ({"q": F(1, 2), "a": F(1, 3), "b": F(1, 5), "c": F(2, 7)}, 4),
            "T_NEW_N2": ({"q": F(1, 2), "sa": F(1, 3), "sc": F(2, 5)}, 4),
            "T_NEW_N1": ({"q": F(1, 2), "sa": F(1, 3), "sc": F(2, 5)}, 4),
            "T_NEW_N5": ({"q": F(1, 2), "sa": F(1, 3), "sc": F(2, 5)}, 4),
            "T_NEW_N3": ({"q": F(1, 2), "sqa": F(1, 3), "sc": F(2, 5)}, 4),
            "T_NEW_N4": ({"q": F(1, 2), "sa": F(1, 3), "sc": F(2, 5)}, 4),
            "T_NEW_N8": ({"q": F(1, 2), "sa": F(1, 3), "sc": F(2, 5)}, 4),
            "T_NEW_N7": ({"q": F(1, 2), "sa": F(1, 3), "sc": F(2, 5)}, 4),
            "T_NEW_N6": ({"p": F(2, 3), "sc": F(2, 5)}, 4),
            "X_SEARS": (
                {"q": F(1, 2), "a": F(1, 3), "b": F(1, 5), "c": F(2, 3), "d": F(1, 7), "e": F(3, 5)},
                4,
            ),
        }
        assert set(cases) == set(list_ids())
        for ident, (ps, n) in cases.items():
            rec = lookup(ident)
            derived = derive_balance(rec.lhs_spec(ps, n))
            assert derived == rec.balance, ident


class TestVerify:
    def test_all_records_n0_is_one(self):
        import random

        from qident.identities import draw_params

        for ident in list_ids():
            rec = lookup(ident)
            ps, _ = draw_params(rec, random.Random(11), [0])
            rep = verify(ident, ps, 0)
            assert rep.passed, ident
            assert rep.lhs == "1", ident

    def test_parity_vanishing_is_exact_zero(self):
        ps = {"q": F(1, 2), "sqa": F(1, 3), "sc": F(1, 5)}
        rep = verify("T_ANDREWS_WATSON", ps, 3)
        assert rep.passed and rep.degenerate
        assert rep.lhs == "0" and rep.rhs == "0"

    def test_new_n2_example_point(self):
        rep = verify("T_NEW_N2", {"q": F(1, 2), "sa": F(1, 7), "sc": F(1, 3)}, 4)
        assert rep.passed and rep.mode == "exact" and rep.abs_err == 0.0

    def test_bailey41_cli_example_point(self):
        rep = verify("T_BAILEY41", {"q": F(1, 2), "a": F(1, 3), "b": F(1, 5)}, 4)
        assert rep.passed

    def test_approx_only_records_pass(self):
        # the two records with infinite-product right sides compare exactly
        rep = verify("T_GASPER_RAHMAN_WATSON", {"q": F(1, 2), "b": F(1, 3), "c": F(1, 5)}, 4)
        assert rep.passed and rep.abs_err == 0 and rep.mode == "exact"
        rep = verify("T_ANDREWS_WHIPPLE_E", {"q": F(1, 2), "c": F(1, 3), "e": F(1, 5)}, 5)
        assert rep.passed and rep.abs_err == 0 and rep.mode == "exact"

    def test_grw_odd_n_exact_zero_in_approx_mode(self):
        rep = verify("T_GASPER_RAHMAN_WATSON", {"q": F(1, 2), "b": F(1, 3), "c": F(1, 5)}, 3)
        assert rep.passed and rep.degenerate and rep.lhs == "0" and rep.rhs == "0"
        assert rep.abs_err == 0 and rep.mode == "exact"

    def test_constraints_name_predicate(self):
        # a = 1 makes (1 - q^0 a) vanish inside the Bailey sum's RHS
        with pytest.raises(ConstraintViolation) as info:
            verify("T_BAILEY41", {"q": F(1, 2), "a": 1, "b": F(1, 5)}, 2)
        assert info.value.predicate == "closed-form denominator nonzero"

    @pytest.mark.parametrize("params, problem", [
        ({"q": F(1, 2), "a": F(1, 3), "x": F(1, 5)}, "missing b; unexpected x"),
        ({"q": F(1, 2), "a": F(1, 3)}, "missing b"),
        ({"q": F(1, 2), "a": F(1, 3), "b": F(1, 5), "c": F(1, 7)}, "unexpected c"),
    ])
    def test_parameter_names_are_checked(self, params, problem):
        expected = f"T_BAILEY41 takes parameters \\(q, a, b\\): {problem}$"
        with pytest.raises(DomainError, match=expected):
            verify("T_BAILEY41", params, 2)


class TestEquivalences:
    def test_grw_reduces_to_bailey41_exactly(self):
        # substitute (b, c) -> (-q^(1-n)/b, a) in the base-q^2 quadratic sum,
        # then read q^2 as the new base: term-for-term it is the Bailey-41 LHS
        bailey41_lhs = lookup("T_BAILEY41").lhs_spec
        a, b = E(F(1, 5)), E(F(2, 3))
        qr = E(F(1, 2))  # square root of the target base, Q = 1/4
        Q = qr * qr
        for n in range(0, 7):
            grw = eval_phi_terminating(_spec_subst_grw(qr, a, b, n))
            bail41 = eval_phi_terminating(bailey41_lhs({"q": Q.re, "a": a.re, "b": b.re}, n))
            assert grw == bail41

    def test_sears_connects_n1_to_n2(self):
        # the 3-parameter substitution turning the q-shifted-root sum into the
        # plain-root sum: lhs(N1) = prefactor * lhs(N2)
        from qident.qkernel import qpoch_list

        n1_lhs, n2_lhs = lookup("T_NEW_N1").lhs_spec, lookup("T_NEW_N2").lhs_spec
        q, sa, sc = E(F(1, 2)), E(F(1, 3)), E(F(2, 5))
        a = sa * sa
        for n in range(0, 7):
            n1 = eval_phi_terminating(n1_lhs({"q": q.re, "sa": sa.re, "sc": sc.re}, n))
            n2 = eval_phi_terminating(n2_lhs({"q": q.re, "sa": sa.re, "sc": sc.re}, n))
            pref = (
                qpoch_list([q ** (1 - n) / sa, -(q ** (1 - n)) / sa], q, n)
                / qpoch_list([q * sa, -q * sa], q, n)
                * (q**n * a) ** n
            )
            assert n1 == pref * n2

    def test_sears_record_on_connecting_substitution(self):
        # the substitution that carries the q-shifted-root sum onto the
        # plain-root sum: (a,b,c,d,e) = (q^n sa^2, q sc, -q sc, q sc^2, q sa)
        q, sa, sc = F(1, 2), F(1, 3), F(2, 5)
        for n in range(0, 6):
            rep = verify(
                "X_SEARS",
                {
                    "q": q,
                    "a": sa**2 * q**n,
                    "b": q * sc,
                    "c": -(q * sc),
                    "d": q * sc**2,
                    "e": q * sa,
                },
                n,
            )
            assert rep.passed

    def test_andrews_whipple_e_and_c_rhs_agree(self):
        aw_c_rhs = lookup("T_ANDREWS_WHIPPLE_C").rhs_value
        aw_e_rhs = lookup("T_ANDREWS_WHIPPLE_E").rhs_value

        ps = {"q": F(1, 2), "a": F(1, 3), "b": F(1, 5)}
        for n in range(0, 9):
            rhs_c = aw_c_rhs(ps, n)
            rhs_e = aw_e_rhs({"q": ps["q"], "c": ps["a"], "e": ps["b"]}, n)
            assert rhs_c == rhs_e, n

    def test_n6_specializes_n7(self):
        # a -> -q^(1-2n) in the 3-balanced sum, i.e. sa = i p^(1-2n), q = p^2
        n6_lhs, n6_rhs = lookup("T_NEW_N6").lhs_spec, lookup("T_NEW_N6").rhs_value
        p, sc = E(F(2, 3)), E(F(2, 5))
        q = p * p
        for n in range(0, 7):
            sa = I * p ** (1 - 2 * n)
            lhs7 = eval_phi_terminating(_spec_n7_gaussian(q, sa, sc, n))
            lhs6 = eval_phi_terminating(n6_lhs({"p": p.re, "sc": sc.re}, n))
            assert lhs7 == lhs6
            assert lhs6 == n6_rhs({"p": p.re, "sc": sc.re}, n)


# The printed right sides of the two records whose closed forms are quotients
# of infinite products (DLMF 17.7.8 via 17.9.16, and GR (II.19)), evaluated
# with mpmath.qp alone, at four points given in each record's parameter order.
def _qp_quotient(pref, num, den):
    value = pref
    for x, base in num:
        value *= mpmath.qp(x, base)
    for x, base in den:
        value /= mpmath.qp(x, base)
    return value


PRINTED_RHS = {
    "T_GASPER_RAHMAN_WATSON": ("q b c", lambda q, b, c, n: _qp_quotient(
        1,
        [(q ** (1 - n) * b, q**2), (c * c, q**2), (q ** (2 * n) * c, q**2),
         (q ** (1 + n) * c / b, q**2), (q ** (2 - 2 * n), q**4), (q**2 * b * b, q**4),
         (q ** (2 * n + 2) * c * c, q**4), (q**2 * c * c / (b * b), q**4)],
        [(q ** (n + 1) * b, q**2), (c, q**2), (q ** (2 * n) * c * c, q**2),
         (q ** (1 - n) * c / b, q**2), (q**2, q**4), (q ** (2 - 2 * n) * b * b, q**4),
         (q**2 * c * c, q**4), (q ** (2 * n + 2) * c * c / (b * b), q**4)],
    )),
    "T_ANDREWS_WHIPPLE_E": ("q c e", lambda q, c, e, n: _qp_quotient(
        q ** (n * (n + 1) // 2),
        [(q**-n * e, q**2), (q ** (n + 1) * e, q**2), (q ** (1 - n) * c * c / e, q**2),
         (q ** (n + 2) * c * c / e, q**2)],
        [(e, q), (q * c * c / e, q)],
    )),
}
PRINTED_POINTS = [
    (F(1, 2), F(1, 3), F(1, 5)),
    (F(2, 5), F(4, 5), F(1, 8)),
    (F(2, 3), F(3, 7), F(2, 9)),
    (F(3, 5), E(F(-1, 4), F(1, 3)), F(2, 7)),
]


def _mp(x):
    x = E.coerce(x)
    return mpmath.mpc(mpmath.mpf(x.re.numerator) / x.re.denominator,
                      mpmath.mpf(x.im.numerator) / x.im.denominator)


class TestPrintedProducts:
    @pytest.mark.parametrize("ident", sorted(PRINTED_RHS))
    def test_rhs_data_matches_printed_products(self, ident):
        names, printed = PRINTED_RHS[ident]
        rhs_value = lookup(ident).rhs_value
        for point in PRINTED_POINTS:
            params = dict(zip(names.split(), point))
            for n in range(7):
                exact = rhs_value(params, n)
                if lookup(ident).structural_zero and n % 2 == 1:
                    # a numerator factor (q^(-4m); q^4)_inf vanishes at n = 2m + 1
                    assert exact == E(0), (point, n)
                    continue
                with mpmath.workprec(256):
                    reference = printed(*map(_mp, point), n)
                    assert abs(_mp(exact) - reference) <= 1e-60 * abs(reference), (point, n)


class TestSweep:
    def test_qbailey1_sweep_all_pass(self):
        reports = sweep("T_QBAILEY_1", trials=25, seed=7, n_range=range(0, 9))
        assert len(reports) == 225
        assert all(r.passed for r in reports)
        nondegenerate = [r for r in reports if not r.degenerate]
        assert all(r.abs_err == 0.0 for r in nondegenerate)

    def test_determinism(self):
        r1 = sweep("T_NEW_N2", trials=3, seed=42, n_range=range(0, 5))
        r2 = sweep("T_NEW_N2", trials=3, seed=42, n_range=range(0, 5))
        assert [vars(a) for a in r1] == [vars(b) for b in r2]

    def test_new_n7_sweep_odd_branch(self):
        reports = sweep("T_NEW_N7", trials=5, seed=3, n_range=range(0, 9))
        assert all(r.passed for r in reports)
        assert any(r.n % 2 == 1 and not r.degenerate for r in reports)

    def test_each_point_evaluated_once(self, monkeypatch):
        # counters wrapped around each record's sides, as the benchmark tracer
        # does; seed 7 accepts its first draw, so no rejected draw adds
        # evaluations and each of the 9 points is evaluated exactly once
        import dataclasses

        from qident import identities

        def counted(calls, key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        for ident, rhs_evals in (("T_BAILEY41", 9), ("T_GASPER_RAHMAN_WATSON", 9)):
            rec = lookup(ident)
            calls = {"lhs": 0, "rhs": 0, "draws": 0}
            monkeypatch.setitem(identities._REGISTRY, rec.id, dataclasses.replace(
                rec,
                lhs_spec=counted(calls, "lhs", rec.lhs_spec),
                rhs_value=counted(calls, "rhs", rec.rhs_value),
                sampler=counted(calls, "draws", rec.sampler),
            ))
            reports = sweep(ident, trials=1, seed=7, n_range=range(0, 9))
            assert len(reports) == 9 and all(r.passed for r in reports)
            assert calls == {"lhs": 9, "rhs": rhs_evals, "draws": 1}, ident

    @pytest.mark.parametrize("ident", sorted(GOLDEN_SWEEP_SHA256))
    def test_golden_sweep_file(self, tmp_path, ident):
        import hashlib

        from qident.cli import EXIT_OK, main

        path = tmp_path / "sweep.json"
        argv = ["sweep", ident, "--trials", "25", "--seed", "7", "--n-range", "0..8"]
        assert main(argv + ["--output", str(path)]) == EXIT_OK
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SWEEP_SHA256[ident]

    def test_trials_must_be_positive(self):
        with pytest.raises(DomainError):
            sweep("T_BAILEY41", trials=0, seed=1, n_range=[1])

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_given_eps_must_be_positive(self, eps):
        message = f"eps must be positive, got {eps!r}"
        with pytest.raises(DomainError, match=message):
            sweep("T_ANDREWS_WHIPPLE_E", trials=1, seed=1, n_range=[2], eps=eps)
        with pytest.raises(DomainError, match=message):
            verify("T_BAILEY41", {"q": F(1, 2), "a": F(1, 3), "b": F(1, 5)}, 2, eps=eps)


def _elementary_report(kind: str, params: dict):
    """The two proof-level elementary identities as one exact report.

    ELID:  (1-q^(-n-1))(1-q^(n+k) a) / ((1-q^(-n-1+k))(1-q^n a))
           = 1 - q^(-n-1) (1-q^k)(1-q^(2n+1) a) / ((1-q^(-n-1+k))(1-q^n a))
    ELID2: (1-c)/(1-q^k c) = 1 - c (1-q^k)/(1-q^k c)

    A vanishing denominator is a ConstraintViolation naming its factor.
    """
    check_names(kind, {"ELID": "qank", "ELID2": "cqk"}[kind], params)
    q, k = E.coerce(params["q"]), params["k"]
    if kind == "ELID":
        a, n = E.coerce(params["a"]), params["n"]
        dens = {"1-q^(-n-1+k)": 1 - q ** (-n - 1 + k), "1-q^n a": 1 - q**n * a}
    else:
        c = E.coerce(params["c"])
        dens = {"1-q^k c": 1 - q**k * c}
    for name, factor in dens.items():
        if factor.is_zero():
            raise ConstraintViolation(
                f"{kind}: denominator {name} vanishes at {params}", predicate=f"{name} nonzero"
            )
    den = math.prod(dens.values(), start=E(1))
    if kind == "ELID":
        lhs = (1 - q ** (-n - 1)) * (1 - q ** (n + k) * a) / den
        rhs = 1 - q ** (-n - 1) * (1 - q**k) * (1 - q ** (2 * n + 1) * a) / den
    else:
        lhs = (1 - c) / den
        rhs = 1 - c * (1 - q**k) / den
    return make_report(
        kind, params, lhs, rhs, compare_exact(lhs, rhs), mode="exact", n=params.get("n"),
        degenerate=lhs.is_zero() and rhs.is_zero(),
    )


class TestElementary:
    def test_elid_example(self):
        rep = _elementary_report("ELID", {"q": F(1, 2), "a": F(1, 3), "n": 2, "k": 1})
        assert rep.passed and rep.mode == "exact"

    def test_elid2_c_zero(self):
        rep = _elementary_report("ELID2", {"c": 0, "q": F(1, 2), "k": 3})
        assert rep.passed and rep.lhs == "1"

    def test_elid2_example(self):
        rep = _elementary_report("ELID2", {"c": F(1, 4), "q": F(1, 2), "k": 3})
        assert rep.passed

    @pytest.mark.parametrize("kind, params, digest", [
        ("ELID", {"q": F(1, 2), "a": F(1, 3), "n": 2, "k": 1},
         "88f359868e6562337c9f34f6e2041e7b78d10e8eb6b7d8a410fd3dca6c633cc8"),
        ("ELID2", {"c": F(1, 4), "q": F(1, 2), "k": 3},
         "a86491c8e9cb8536648bded5a72e0baa533b4bf66a1cc7fcda90ef0cb0e9a0f8"),
    ])
    def test_report_bytes_are_pinned(self, kind, params, digest):
        # SHA-256 of json.dumps(dataclasses.asdict(report), sort_keys=True)
        rep = _elementary_report(kind, params)
        blob = json.dumps(dataclasses.asdict(rep), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest

    @pytest.mark.parametrize("kind, params, problem", [
        ("ELID", {"q": F(1, 2), "a": F(1, 3), "n": 2}, "(q, a, n, k): missing k"),
        ("ELID", {"q": F(1, 2), "a": F(1, 3), "n": 2, "k": 1, "x": 1}, "(q, a, n, k): unexpected x"),
        ("ELID2", {"c": F(1, 4), "k": 3}, "(c, q, k): missing q"),
        ("ELID2", {"c": F(1, 4), "q": F(1, 2), "k": 3, "n": 2}, "(c, q, k): unexpected n"),
    ])
    def test_parameter_names_are_checked(self, kind, params, problem):
        expected = re.escape(f"{kind} takes parameters {problem}") + "$"
        with pytest.raises(DomainError, match=expected):
            _elementary_report(kind, params)

    @pytest.mark.parametrize("kind, params, factor", [
        ("ELID", {"q": F(1, 2), "a": F(1, 3), "n": 0, "k": 1}, "1-q^(-n-1+k)"),
        ("ELID", {"q": F(1, 2), "a": F(4), "n": 2, "k": 1}, "1-q^n a"),
        ("ELID2", {"c": 4, "q": F(1, 2), "k": 2}, "1-q^k c"),
    ])
    def test_vanishing_denominator_is_a_constraint_violation(self, kind, params, factor):
        expected = re.escape(f"{kind}: denominator {factor} vanishes")
        with pytest.raises(ConstraintViolation, match=expected) as info:
            _elementary_report(kind, params)
        assert info.value.predicate == f"{factor} nonzero"

    def test_elid_random(self):
        import random

        rng = random.Random(9)
        for _ in range(20):
            q = F(rng.randint(1, 5), rng.randint(6, 9))
            a = F(rng.randint(1, 5), rng.randint(6, 9))
            n, k = rng.randint(0, 6), rng.randint(0, 6)
            rep = _elementary_report("ELID", {"q": q, "a": a, "n": n, "k": k})
            assert rep.passed


# -- helpers ----------------------------------------------------------------

def _spec_subst_grw(qr, a, b, n):
    """The base-q^2 quadratic sum after (b,c) -> (-q^(1-n)/b, a), written in
    the square root qr of the target base."""
    from qident.series import SeriesSpec

    q = qr
    Q = q * q
    return SeriesSpec.make(
        [q ** (-2 * n), a, b, -(q ** (2 - 2 * n)) / (a * b)],
        [q ** (2 - 2 * n) / a, q ** (2 - 2 * n) / b, -(a * b)],
        Q,
        Q,
        terminates_at=n,
    )


def _spec_n7_gaussian(q, sa, sc, n):
    """The 3-balanced sum's series spec with a Gaussian-rational root sa."""
    from qident.series import SeriesSpec

    a, c = sa * sa, sc * sc
    return SeriesSpec.make(
        [q**-n, q ** (n - 1) * a, sc, -sc],
        [q * sa, -q * sa, c],
        q,
        q,
        terminates_at=n,
    )
