"""Askey-Wilson evaluation: representations, degenerations, special values."""

import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qident import askey_wilson, powerseries, products, qkernel
from qident.askey_wilson import AWParams, aw_w_equals_d_value, eval_aw, eval_special_value
from qident.errors import DomainError, PoleError
from qident.qkernel import ExactScalar, I, qpoch_finite, qpoch_list

from oracles import newquad_product_form, qhermite

E = ExactScalar


def params(a, b, c, d, q, w, n):
    return AWParams.make(E.coerce(a), E.coerce(b), E.coerce(c), E.coerce(d), E.coerce(q), E.coerce(w), n)


def rand_fracs(rng, count, den_max=7):
    out = []
    while len(out) < count:
        f = F(rng.randint(1, 5) * rng.choice([1, -1]), rng.randint(2, den_max))
        if f != 0 and abs(f) < 2:
            out.append(f)
    return out


class TestRepresentations:
    def test_degree_zero(self):
        p = params(F(1, 3), F(1, 5), F(2, 3), F(1, 7), F(1, 2), F(3, 4), 0)
        for rep in ("R1", "R2", "R3", "CONV"):
            assert eval_aw(p, rep) == E(1)

    def test_cross_representation_fixed_point(self):
        p = params(F(1, 3), F(1, 5), F(2, 3), F(1, 7), F(1, 2), F(3, 4), 4)
        vals = [eval_aw(p, rep) for rep in ("R1", "R2", "R3", "CONV")]
        assert vals[0] == vals[1] == vals[2] == vals[3]

    def test_cross_representation_random(self):
        rng = random.Random(77)
        for _ in range(25):
            a, b, c, d, w = rand_fracs(rng, 5)
            q = F(rng.randint(1, 5), rng.randint(6, 9))
            n = rng.randint(0, 6)
            try:
                p = params(a, b, c, d, q, w, n)
                vals = [eval_aw(p, rep) for rep in ("R1", "R2", "R3", "CONV")]
            except (DomainError, PoleError):
                continue
            assert vals[0] == vals[1] == vals[2] == vals[3]

    def test_w_inversion_symmetry(self):
        base = (F(1, 3), F(1, 5), F(2, 3), F(1, 7), F(1, 2))
        for n in range(6):
            p1 = params(*base, F(3, 4), n)
            p2 = params(*base, F(4, 3), n)
            assert eval_aw(p1, "CONV") == eval_aw(p2, "CONV")

    def test_abcd_permutation_symmetry(self):
        import itertools

        rng = random.Random(123)
        for _ in range(4):
            a, b, c, d, w = rand_fracs(rng, 5)
            q = F(1, 2)
            n = rng.randint(1, 5)
            try:
                ref = eval_aw(params(a, b, c, d, q, w, n), "R1")
            except DomainError:
                continue
            for perm in itertools.permutations((a, b, c, d)):
                assert eval_aw(params(*perm, q, w, n), "R1") == ref

    def test_r2_at_abcd_equal_to_q(self):
        # (abcd/q; q)_2n / (abcd/q; q)_n is (abcd q^(n-1); q)_n, which stays
        # finite where (abcd/q; q)_n = (1; q)_n vanishes
        for n in range(7):
            p = params(F(1, 3), 1, F(3, 2), 1, F(1, 2), F(3, 5), n)
            assert eval_aw(p, "R2") == eval_aw(p, "R1") == eval_aw(p, "CONV")

    def test_zero_parameter_rejected_in_phi_reps(self):
        p = params(0, F(1, 5), F(2, 3), F(1, 7), F(1, 2), F(3, 4), 3)
        for rep in ("R1", "R2", "R3"):
            with pytest.raises(DomainError):
                eval_aw(p, rep)
        eval_aw(p, "CONV")  # allowed

    def test_w_equals_d_special_value(self):
        a, b, c, d, q = E(F(1, 3)), E(F(1, 5)), E(F(2, 3)), E(F(1, 7)), E(F(1, 2))
        for n in range(7):
            p = AWParams.make(a, b, c, d, q, d, n)
            assert eval_aw(p, "CONV") == aw_w_equals_d_value(a, b, c, d, q, n)

    def test_polynomiality_in_x(self):
        # values at n+2 points of x = (w + 1/w)/2 fit a polynomial of degree
        # exactly n (leading coefficient nonzero, degree-(n+1) coefficient zero)
        a, b, c, d, q = E(F(1, 3)), E(F(1, 5)), E(F(2, 3)), E(F(1, 7)), E(F(1, 2))
        for n in range(1, 6):
            ws = [E(F(k + 2, 2 * k + 5)) for k in range(n + 2)]
            xs = [(w + 1 / w) / 2 for w in ws]
            ys = [eval_aw(AWParams.make(a, b, c, d, q, w, n), "CONV") for w in ws]
            coeffs = _exact_polyfit(xs, ys)
            assert coeffs[n + 1] == E(0)
            assert coeffs[n] != E(0)


def _rebuild_convolution(a, b, c, d, q, w, n):
    """CONV with every q-Pochhammer symbol of every term built from scratch and
    each operation reduced: the reference for the one-pass form."""
    aw_up = [qpoch_list([a * w, b * w], q, j) for j in range(n + 1)]
    cw_up = [qpoch_list([c / w, d / w], q, j) for j in range(n + 1)]
    qj = [qpoch_finite(q, q, j) for j in range(n + 1)]
    abj = [qpoch_finite(a * b, q, j) for j in range(n + 1)]
    cdj = [qpoch_finite(c * d, q, j) for j in range(n + 1)]
    total = E(0)
    for j in range(n + 1):
        total = total + (aw_up[j] / (qj[j] * abj[j]) * cw_up[n - j] / (qj[n - j] * cdj[n - j])
                         * w ** (n - 2 * j))
    return total * qj[n] * abj[n] * cdj[n]


_PART = st.builds(F, st.integers(-9, 9), st.integers(1, 9))


@st.composite
def _conv_points(draw):
    """(a, b, c, d, q, w, n): real, negative or Gaussian parameters, or all zero
    (continuous q-Hermite); w = i, w = d or drawn; 0 < |q| < 1."""
    kind = draw(st.sampled_from(("real", "negative", "gaussian", "hermite")))
    value = {"real": st.builds(E, _PART), "negative": st.builds(lambda x: E(-abs(x)), _PART),
             "gaussian": st.builds(E, _PART, _PART), "hermite": st.just(E(0))}[kind]
    a, b, c, d = (draw(value) for _ in range(4))
    q = draw(st.builds(E, st.builds(F, st.integers(-8, 8), st.just(9)),
                       st.sampled_from((0, F(1, 3), F(-2, 5))) if kind == "gaussian" else st.just(0))
             .filter(lambda x: not x.is_zero()))
    w = draw(st.sampled_from((I, d, draw(value), draw(st.builds(E, _PART, _PART)))))
    assume(not w.is_zero())
    return a, b, c, d, q, w, draw(st.integers(0, 14))


class TestConvolution:
    @given(_conv_points())
    @settings(max_examples=80, deadline=None)
    @example((E(F(1, 3), F(1, 4)), E(F(-1, 5)), E(F(2, 7)), E(F(1, 2)), E(F(1, 2)), I, 14))
    @example((E(0), E(0), E(0), E(0), E(F(2, 5)), E(F(3, 5)), 14))
    @example((E(F(-1, 3)), E(F(-1, 5)), E(F(-2, 7)), E(F(-1, 2)), E(F(1, 2)), E(F(-1, 2)), 9))
    def test_matches_the_rebuilt_terms(self, point):
        try:
            expected = _rebuild_convolution(*point)
        except ZeroDivisionError:  # ab or cd on the pole set, which eval_aw refuses
            assume(False)
        assert askey_wilson._aw_convolution(*point).parts == expected.parts

    def test_builds_no_series_or_pochhammer(self, monkeypatch):
        # CONV is the independent side of awgf_coefficient_check, which multiplies
        # two coefficient series: it may not be computed through them
        def refuse(*args):
            raise AssertionError("CONV called a series or q-Pochhammer builder")

        for owner, name in ((askey_wilson, "qpoch_list"), (qkernel, "qpoch_finite"),
                            (qkernel, "qpoch_list"), (powerseries, "phi_series_coeffs"),
                            (products, "phi_series_coeffs"),
                            (powerseries.PowerSeriesTrunc, "__mul__")):
            monkeypatch.setattr(owner, name, refuse)
        point = (E(F(1, 3), F(1, 4)), F(-1, 5), F(2, 7), F(1, 2), E(F(1, 2), F(1, 3)))
        values = [eval_aw(params(*point, w, 8), "CONV") for w in (I, F(3, 4))]
        monkeypatch.undo()
        assert values == [eval_aw(params(*point, w, 8), "R1") for w in (I, F(3, 4))]

    @pytest.mark.parametrize("n", [10, 20, 40])
    def test_products_grow_linearly_in_n(self, monkeypatch, n):
        calls = []
        gmul = askey_wilson._gmul
        monkeypatch.setattr(askey_wilson, "_gmul", lambda x, y: calls.append(1) or gmul(x, y))
        eval_aw(params(E(F(1, 3), F(1, 4)), F(-1, 5), F(2, 7), F(1, 2), F(1, 2), I, n), "CONV")
        assert n <= len(calls) <= 25 * n


def hermite_conv(w, q, n):
    """CONV at a = b = c = d = 0: the continuous q-Hermite degeneration."""
    return eval_aw(params(0, 0, 0, 0, q, w, n), "CONV")


class TestHermiteDegeneration:
    def test_n0_n1(self):
        w, q = E(F(3, 4)), E(F(1, 2))
        assert hermite_conv(w, q, 0) == qhermite(w, q, 0) == E(1)
        assert hermite_conv(w, q, 1) == qhermite(w, q, 1) == w + 1 / w

    def test_matches_conv_at_zero_params(self):
        w, q = E(F(3, 5)), E(F(2, 5))
        for n in range(7):
            assert hermite_conv(w, q, n) == qhermite(w, q, n)

    def test_negative_degree_is_a_domain_error(self):
        with pytest.raises(DomainError, match="got n = -1"):
            hermite_conv(E(F(1, 2)), E(F(1, 2)), -1)

    def test_w_inversion(self):
        q = E(F(1, 2))
        for n in range(9):
            assert hermite_conv(E(F(3, 4)), q, n) == hermite_conv(E(F(4, 3)), q, n)


class TestSpecialValues:
    def test_all_ids_at_n0(self):
        base = {"q": F(1, 2), "a": F(1, 3), "b": F(2, 5)}
        aw32 = {"q": F(1, 2), "a": F(1, 3), "b": F(1, 5), "c": F(2, 3), "d": F(1, 7)}
        for sv_id in ("AW32", "BAILEY0", "ANDREWS_WHIPPLE0", "NEWQUAD", "ESOTERIC"):
            lhs, rhs = eval_special_value(sv_id, aw32 if sv_id == "AW32" else base, 0)
            assert lhs == rhs == E(1)

    @pytest.mark.parametrize("n", range(11))
    def test_bailey_matches(self, n):
        lhs, rhs = eval_special_value("BAILEY0", {"q": F(1, 2), "a": F(1, 3), "b": F(2, 5)}, n)
        assert lhs == rhs
        if n % 2 == 1:
            assert lhs == E(0)

    @pytest.mark.parametrize("n", range(11))
    def test_andrews_whipple_matches(self, n):
        lhs, rhs = eval_special_value(
            "ANDREWS_WHIPPLE0", {"q": F(1, 2), "a": F(1, 3), "b": F(2, 5)}, n
        )
        assert lhs == rhs

    @pytest.mark.parametrize("n", range(11))
    def test_newquad_matches_both_forms(self, n):
        ps = {"q": F(1, 2), "a": F(1, 3), "b": F(1, 5)}
        lhs, rhs = eval_special_value("NEWQUAD", ps, n)
        assert lhs == rhs
        assert newquad_product_form(ps["a"], ps["b"], ps["q"], n) == rhs

    @pytest.mark.parametrize("n", range(11))
    def test_esoteric_matches(self, n):
        lhs, rhs = eval_special_value("ESOTERIC", {"q": F(1, 2), "a": F(1, 3), "b": F(1, 5)}, n)
        assert lhs == rhs

    def test_newquad_example_point(self):
        lhs, rhs = eval_special_value("NEWQUAD", {"q": F(1, 2), "a": F(1, 3), "b": F(1, 5)}, 4)
        assert lhs == rhs
        assert newquad_product_form(F(1, 3), F(1, 5), F(1, 2), 4) == lhs

    def test_random_points(self):
        rng = random.Random(5)
        for _ in range(6):
            a, b = rand_fracs(rng, 2, den_max=6)
            q = F(rng.randint(1, 4), rng.randint(5, 8))
            for sv_id in ("BAILEY0", "ANDREWS_WHIPPLE0", "NEWQUAD", "ESOTERIC"):
                for n in range(9):
                    try:
                        lhs, rhs = eval_special_value(sv_id, {"q": q, "a": a, "b": b}, n)
                    except (ZeroDivisionError, PoleError):
                        continue  # degenerate collision, resample territory
                    assert lhs == rhs, (sv_id, q, a, b, n)
                    if sv_id == "NEWQUAD":
                        # both displayed forms agree at every random point
                        assert newquad_product_form(a, b, q, n) == rhs

    def test_special_value_parameter_names_checked(self):
        with pytest.raises(DomainError, match=r"BAILEY0 takes parameters \(q, a, b\): missing b"):
            eval_special_value("BAILEY0", {"q": F(1, 2), "a": F(1, 3)}, 2)
        with pytest.raises(DomainError, match="unexpected zz"):
            eval_special_value("NEWQUAD", {"q": F(1, 2), "a": F(1, 3), "b": F(1, 5), "zz": 1}, 2)
        with pytest.raises(DomainError, match="missing c, d"):
            eval_special_value("AW32", {"q": F(1, 2), "a": F(1, 3), "b": F(1, 5)}, 2)

    def test_special_value_n_max_guard(self):
        with pytest.raises(DomainError, match=r"^n = 11 exceeds the degree cap 10 "):
            eval_special_value("BAILEY0", {"q": F(1, 2), "a": F(1, 3), "b": F(2, 5)}, 11)
        lhs, rhs = eval_special_value(
            "BAILEY0", {"q": F(1, 2), "a": F(1, 3), "b": F(2, 5)}, 12, n_max=12
        )
        assert lhs == rhs


def _exact_polyfit(xs, ys):
    """Solve the Vandermonde system exactly (small sizes only)."""
    m = len(xs)
    rows = [[x**j for j in range(m)] + [y] for x, y in zip(xs, ys)]
    # Gaussian elimination over ExactScalar
    for col in range(m):
        piv = next(r for r in range(col, m) if not rows[r][col].is_zero())
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(m):
            if r != col and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return [rows[r][m] for r in range(m)]


# SHA-256 of the printed values of p_n at fixed points, n = 0..8, one digest
# per representation, and of the printed (lhs, rhs) of the five special values
# at two points each, n = 0..10: a change of the exact arithmetic may not move
# a digit of them.  The Gaussian point and x = 0 run the complex path.
AW_PIN_POINTS = (
    (F(-1, 3), F(-1, 5), F(-2, 7), F(-1, 2), F(1, 2), F(3, 4)),
    (F(1, 3), F(2, 5), F(-3, 4), F(1, 7), F(2, 3), F(5, 6)),
    (E(F(1, 3), F(1, 4)), F(-1, 5), F(2, 7), F(1, 2), F(1, 2), E(F(1, 2), F(-1, 3))),
)
SPECIAL_PIN_POINTS = (
    {"q": F(1, 2), "a": F(1, 3), "b": F(2, 5)},
    {"q": F(2, 7), "a": F(-1, 3), "b": F(3, 5)},
)
AW32_PIN_POINTS = (
    {"q": F(1, 2), "a": F(1, 3), "b": F(1, 5), "c": F(2, 3), "d": F(1, 7)},
    {"q": F(2, 7), "a": F(-1, 3), "b": F(3, 5), "c": F(1, 4), "d": F(-2, 5)},
)
GOLDEN_AW_SHA256 = {
    "eval_aw R1":
        "bf8b31051f5aa3b069a488ac3c7aa50226310be366d3cb005b66c613260a8870",
    "eval_aw R2":
        "bf8b31051f5aa3b069a488ac3c7aa50226310be366d3cb005b66c613260a8870",
    "eval_aw R3":
        "bf8b31051f5aa3b069a488ac3c7aa50226310be366d3cb005b66c613260a8870",
    "eval_aw CONV":
        "bf8b31051f5aa3b069a488ac3c7aa50226310be366d3cb005b66c613260a8870",
    "eval_special_value AW32":
        "64f5b8193bec995c0b96bdc585418523ca386e2587956268ea4fb059b55a501b",
    "eval_special_value BAILEY0":
        "f5e33904782fc9e3efb6020d94e05008e554b31930f08f4f19660c376e9684b4",
    "eval_special_value ANDREWS_WHIPPLE0":
        "1751c065b6cb1538528063c19f18fd7bf7674b58b48e660618f85b42c83b109f",
    "eval_special_value NEWQUAD":
        "2653a8f0e268ecdff1b5ab3cb45ef9fe36d884d791d10b79d07039ad6b0b62ed",
    "eval_special_value ESOTERIC":
        "595d33d980dd1736af4d11e5044162b7ec9d069023024830f4972ada419ec1cd",
}


def _pin(values) -> str:
    return hashlib.sha256("\n".join(str(v) for v in values).encode()).hexdigest()


def _aw_pin(key):
    kind, name = key.split()
    if kind == "eval_aw":
        return _pin(eval_aw(params(*pt, n), name) for pt in AW_PIN_POINTS for n in range(9))
    points = AW32_PIN_POINTS if name == "AW32" else SPECIAL_PIN_POINTS
    return _pin(v for P in points for n in range(11) for v in eval_special_value(name, P, n))


@pytest.mark.parametrize("key", sorted(GOLDEN_AW_SHA256))
def test_golden_values(key):
    assert _aw_pin(key) == GOLDEN_AW_SHA256[key]
