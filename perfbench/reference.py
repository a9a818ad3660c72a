"""Reference computations for the benchmark's correctness checks.

Nothing here imports qident.  Terminating sums and z^n coefficients are plain
``fractions.Fraction`` term products (each term rebuilt from its Pochhammer
products, not from a term ratio); certified values use ``mpmath.qhyper`` and
``mpmath.qp`` at REF_BITS.  The identity displays are transcribed from the
literature anchors the registry cites, so a check never reruns the code it
checks.
"""

from __future__ import annotations

import re
from fractions import Fraction

import mpmath
from mpmath import mp

REF_BITS = 400


class G:
    """Gaussian rational, only as much of it as the reference sums need."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def of(x):
        return x if isinstance(x, G) else G(x)

    def __add__(self, o):
        o = G.of(o)
        return G(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = G.of(o)
        return G(self.re - o.re, self.im - o.im)

    def __rsub__(self, o):
        return G.of(o) - self

    def __mul__(self, o):
        o = G.of(o)
        return G(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = G.of(o)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("reference division by zero")
        return G((self.re * o.re + self.im * o.im) / d, (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, o):
        return G.of(o) / self

    def __neg__(self):
        return G(-self.re, -self.im)

    def __pow__(self, n: int):
        if n < 0:
            return 1 / (self ** (-n))
        out = G(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, o):
        if isinstance(o, (int, Fraction, G)):
            o = G.of(o)
            return self.re == o.re and self.im == o.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))


I = G(0, 1)


def to_mp(x):
    """Exact rational or Gaussian rational -> mpc at the working precision."""
    x = G.of(x)
    return mpmath.mpc(
        mpmath.mpf(x.re.numerator) / x.re.denominator,
        mpmath.mpf(x.im.numerator) / x.im.denominator,
    )


# --------------------------------------------------------------------------
# parsing report strings
# --------------------------------------------------------------------------

def parse_exact(text: str) -> G:
    """A report literal "p/q", "r/s*i", "p/q+r/s*i" or "p/q-r/s*i"."""
    s = text.strip()
    if not s.endswith("*i"):
        return G(Fraction(s))
    body = s[:-2]
    cut = max(body.rfind("+", 1), body.rfind("-", 1))
    if cut <= 0:
        return G(0, Fraction(body))
    return G(Fraction(body[:cut]), Fraction(body[cut:]))


_MPC = re.compile(r"\((\S+) ([+-]) (\S+)j\)")


def parse_value(text: str):
    """Any report value (exact literal or mpmath decimal) as an mpc."""
    s = text.strip()
    with mp.workprec(REF_BITS):
        m = _MPC.fullmatch(s)
        if m:
            return mpmath.mpc(mpmath.mpf(m.group(1)), mpmath.mpf(m.group(2) + m.group(3)))
        if "/" in s or s.endswith("*i") or re.fullmatch(r"-?\d+", s):
            return to_mp(parse_exact(s))
        return mpmath.mpc(mpmath.mpf(s))


def close(x, y, eps: float) -> bool:
    """|x - y| <= eps * max(1, |y|), the certified-value convention."""
    with mp.workprec(REF_BITS):
        return abs(x - y) <= eps * max(1, abs(y))


# --------------------------------------------------------------------------
# exact series, one term at a time
# --------------------------------------------------------------------------

def poch(a, q, k: int):
    """(a;q)_k as a plain product."""
    out = Fraction(1)
    x = a
    for _ in range(k):
        out = out * (1 - x)
        x = x * q
    return out


def phi_term(upper, lower, q, z, k: int):
    """The k-th term of r-phi-s(upper; lower; q, z); 0 once an upper factor vanished."""
    num = Fraction(1)
    for a in upper:
        num = num * poch(a, q, k)
    if num == 0:
        return 0
    den = poch(q, q, k)
    for b in lower:
        den = den * poch(b, q, k)
    e = 1 + len(lower) - len(upper)
    sign = (-1) ** k * q ** (k * (k - 1) // 2)
    return num / den * sign**e * z**k


def terminating_sum(upper, lower, q, z, last: int):
    """Sum of the terms 0..last (terms past a vanished upper factor are 0)."""
    total = 0
    for k in range(last + 1):
        total = total + phi_term(upper, lower, q, z, k)
    return total


def phi(upper, lower, base, zmul=1, dil=1):
    """One series factor phi(upper; lower; base, zmul * z^dil)."""
    return (tuple(upper), tuple(lower), base, zmul, dil)


def side_coeffs(terms, order: int) -> list:
    """z^0..z^order coefficients of sum coef * z^zpow * prod(factors)."""
    total = [0] * (order + 1)
    for coef, zpow, factors in terms:
        acc = [1] + [0] * order
        for upper, lower, base, zmul, dil in factors:
            f = [0] * (order + 1)
            for k in range(order // dil + 1):
                f[dil * k] = phi_term(upper, lower, base, zmul, k)
            acc = [sum(acc[i] * f[m - i] for i in range(m + 1)) for m in range(order + 1)]
        for m in range(order + 1 - zpow):
            total[m + zpow] = total[m + zpow] + coef * acc[m]
    return total


def terminating_index(a, q):
    """Least k >= 0 with a q^k = 1 (the series then stops), else None."""
    x = G.of(a)
    for k in range(400):
        if x == 1:
            return k
        if x.re * x.re + x.im * x.im < 1:
            return None
        x = x * q
    return None


def side_value(terms, z):
    """The same side as a number: each factor through mpmath.qhyper, or
    summed exactly when an upper parameter makes it terminate."""
    with mp.workprec(REF_BITS):
        total = mpmath.mpc(0)
        for coef, zpow, factors in terms:
            v = to_mp(coef * z**zpow)
            for upper, lower, base, zmul, dil in factors:
                arg = zmul * z**dil
                stops = [k for k in (terminating_index(a, base) for a in upper) if k is not None]
                if stops:
                    v *= to_mp(terminating_sum(upper, lower, base, arg, min(stops)))
                else:
                    v *= mpmath.qhyper([to_mp(a) for a in upper], [to_mp(b) for b in lower],
                                       to_mp(base), to_mp(arg))
            total += v
        return total


# --------------------------------------------------------------------------
# product identities, transcribed as data: side = [(coef, zpow, factors)]
# --------------------------------------------------------------------------

def _pair_sides(ident: str, P: dict):
    """(lhs, rhs) of the twelve identities with exact z^n coefficient checks."""
    if ident in ("SCHLOSSER_T4", "SRIV_JAIN", "SRIVASTAVA_313", "T515", "T516", "T517", "T518"):
        q = P["q"]
    else:
        p = P["p"]
        q = p * p
    Q = q * q
    a = P["a"]
    if ident == "SCHLOSSER_T4":
        b = P["b"]
        lhs = [(1, 0, [phi([a, q / a], [-q], q), phi([b, q / b], [-q], q, -1)])]
        rhs = [
            (1, 0, [phi([a * b, Q / (a * b), q * a / b, q * b / a], [-Q, q, -q], Q, 1, 2)]),
            ((b - a) * (1 - q / (a * b)) / (1 - Q), 1,
             [phi([q * a * b, q * Q / (a * b), Q * a / b, Q * b / a], [-Q, q**3, -(q**3)], Q, 1, 2)]),
        ]
    elif ident == "SRIV_JAIN":
        b = P["b"]
        lhs = [(1, 0, [phi([a, -a], [a * a], q), phi([b, -b], [b * b], q, -1)])]
        rhs = [(1, 0, [phi([a * b, -a * b, q * a * b, -q * a * b],
                           [q * a * a, q * b * b, a * a * b * b], Q, 1, 2)])]
    elif ident in ("JACKSON_CLAUSEN", "NASSRALLAH_1", "NASSRALLAH_2", "THM21"):
        b = P["b"]
        A, B = a * a, b * b
        first, second, low = {
            "JACKSON_CLAUSEN": (([A, B], [q * A * B]), ([A, B], [q * A * B]), A * B),
            "NASSRALLAH_1": (([A, B], [A * B / q]), ([A, B], [q * A * B]), A * B / q),
            "NASSRALLAH_2": (([q * A, q * B], [q * A * B]), ([A / q, q * B], [q * A * B]), A * B),
            "THM21": (([q * A, q * B], [q * A * B]), ([A / q, B / q], [A * B / q]), A * B / q),
        }[ident]
        upper2 = q * B if ident == "NASSRALLAH_2" else B
        lhs = [(1, 0, [phi(*first, Q), phi(*second, Q, q)])]
        rhs = [(1, 0, [phi([A, upper2, a * b, -a * b], [low, p * a * b, -p * a * b], q)])]
    elif ident == "TRIVIAL_21_32":
        lhs = [(1, 0, [phi([Q, a * a], [q * a * a], Q)])]
        rhs = [(1, 0, [phi([q, a, -a], [p * a, -p * a], q)])]
    elif ident == "SRIVASTAVA_313":
        b = P["b"]
        lhs = [(1, 0, [phi([a, b], [-a * b], q), phi([a, b], [-a * b], q, -1)])]
        rhs = [(1, 0, [phi([a * b, q * a * b, a * a, b * b], [-a * b, -q * a * b, a * a * b * b], Q, 1, 2)])]
    elif ident in ("T515", "T517"):
        c = P["c"]
        s = q if ident == "T515" else Q
        lhs = [(1, 0, [phi([-c, s * c], [s * c * c], q), phi([a, -a], [a * a], q, -1)])]
        odd = [phi([q * a * c, -q * a * c, Q * a * c, -Q * a * c],
                   [q * a * a, q**3 * c * c, Q * a * a * c * c], Q, 1, 2)]
        if ident == "T515":
            rhs = [
                (1, 0, [phi([a * c, -a * c, q * a * c, -q * a * c],
                            [q * a * a, q * c * c, a * a * c * c], Q, 1, 2)]),
                (c / (1 - q * c * c), 1, odd),
            ]
        else:
            den = (1 - Q * c * c) * (1 - a * a * c * c)
            rhs = [
                (c * (1 + q) / (1 - Q * c * c), 1, odd),
                ((1 - q * c * c) * (1 - q * a * a * c * c) / den, 0,
                 [phi([q**3 * a * a * c * c, a * c, -a * c, q * a * c, -q * a * c],
                      [q * a * a, q * c * c, q * a * a * c * c, Q * a * a * c * c], Q, 1, 2)]),
                (q * c * c * (1 - q) * (1 - a * a / q) / den, 0,
                 [phi([q**3, a * c, -a * c, q * a * c, -q * a * c],
                      [q, a * a / q, q**3 * c * c, Q * a * a * c * c], Q, 1, 2)]),
            ]
    elif ident in ("T516", "T518"):
        c = P["c"]
        s = q if ident == "T516" else Q
        lhs = [(1, 0, [phi([-a, -c], [-a * c], q), phi([-a, -s * c], [-s * a * c], q, -1)])]
        if ident == "T516":
            rhs = [
                (1, 0, [phi([a * a, Q * c * c, a * c, q * a * c],
                            [-q * a * c, -Q * a * c, a * a * c * c], Q, 1, 2)]),
                (c * (1 - a * a) / ((1 + a * c) * (1 + q * a * c)), 1,
                 [phi([Q * a * a, Q * c * c, q * a * c, Q * a * c],
                      [-Q * a * c, -(q**3) * a * c, Q * a * a * c * c], Q, 1, 2)]),
            ]
        else:
            den = (1 - Q * c * c) * (1 - a * a * c * c)
            rhs = [
                (c * (1 + q) * (1 - a * a) / ((1 + a * c) * (1 + Q * a * c)), 1,
                 [phi([Q * a * a, q**4 * c * c, q * a * c, Q * a * c],
                      [-(q**3) * a * c, -(q**4) * a * c, Q * a * a * c * c], Q, 1, 2)]),
                ((1 - q * c * c) * (1 - q * a * a * c * c) / den, 0,
                 [phi([a * a, Q * c * c, q**3 * c * c, a * c, q * a * c, q**3 * a * a * c * c],
                      [q * c * c, -Q * a * c, -(q**3) * a * c, q * a * a * c * c, Q * a * a * c * c],
                      Q, 1, 2)]),
                (q * c * c * (1 - q) * (1 - a * a / q) / den, 0,
                 [phi([q**3, a * a, q * a * a, Q * c * c, a * c, q * a * c],
                      [q, a * a / q, -Q * a * c, -(q**3) * a * c, Q * a * a * c * c], Q, 1, 2)]),
            ]
    else:
        raise KeyError(ident)
    return lhs, rhs


COEFF_IDS = (
    "SCHLOSSER_T4", "SRIV_JAIN", "JACKSON_CLAUSEN", "NASSRALLAH_1", "NASSRALLAH_2", "THM21",
    "TRIVIAL_21_32", "SRIVASTAVA_313", "T515", "T516", "T517", "T518",
)


def coefficient_identity_holds(ident: str, P: dict, order: int) -> bool:
    """Both sides of a product identity, expanded in z through z^order, agree."""
    lhs, rhs = _pair_sides(ident, P)
    return side_coeffs(lhs, order) == side_coeffs(rhs, order)


def product_value_side(ident: str, P: dict):
    """("lhs" | "rhs", value) for the side of a product identity that is a
    plain product of series (or of infinite products), evaluated at P."""
    if ident in COEFF_IDS:
        lhs, _ = _pair_sides(ident, P)
        return "lhs", side_value(lhs, P["t" if "t" in P else "z"])
    if ident in ("CAYLEY_ORR_A", "CAYLEY_ORR_B"):
        q, a, b, c = P["q"], P["a"], P["b"], P["c"]
        Q = q * q
        if ident == "CAYLEY_ORR_A":
            side = [(1, 0, [phi([Q * c / a, Q * c / b], [Q * c], Q),
                            phi([a / q, b / q], [c], Q, Q * c / (a * b))])]
        else:
            side = [(1, 0, [phi([q * c / a, c / (q * b)], [c], Q),
                            phi([a, b], [c], Q, c / (a * b))])]
        return "lhs", side_value(side, P["z"])
    if ident == "AWGF":
        q, a, b, c, d, w, t = (P[k] for k in ("q", "a", "b", "c", "d", "w", "t"))
        side = [(1, 0, [phi([a * w, b * w], [a * b], q, t / w), phi([c / w, d / w], [c * d], q, t * w)])]
        return "rhs", side_value(side, 1)
    if ident == "TRIPLE_32PF":
        q, u, w, t, a, b, c, d = (P[k] for k in ("q", "u", "w", "t", "a", "b", "c", "d"))
        side = [(1, 0, [phi([u / t, a * w, b * w], [a * b, u * w], q, t / w),
                        phi([u / t, c / w, d / w], [c * d, u / w], q, t * w)])]
        return "lhs", side_value(side, 1)
    if ident == "WD_APPELL":
        q, u, t, a, b, d = (P[k] for k in ("q", "u", "t", "a", "b", "d"))
        side = [(1, 0, [phi([u / t, a * d, b * d], [a * b, d * u], q, t / d)])]
        return "lhs", side_value(side, 1)
    if ident == "QUAD_COR13":
        q, t, w, a, c = (P[k] for k in ("q", "t", "w", "a", "c"))
        with mp.workprec(REF_BITS):
            qq = to_mp(q)
            value = (mpmath.qp(to_mp(t * w), qq) * mpmath.qp(to_mp(t / w), qq)
                     / (mpmath.qp(to_mp(t / a), qq) * mpmath.qp(to_mp(t / c), qq)))
        return "rhs", value
    raise KeyError(ident)


INTEGRAL_SERIES = {
    "IR_SCHLOSSER": "SCHLOSSER_T4",
    "IR_SRIV_JAIN": "SRIV_JAIN",
    "IR_NASSRALLAH_1": "NASSRALLAH_1",
    "IR_NASSRALLAH_2": "NASSRALLAH_2",
    "IR_THM21": "THM21",
}


def integral_series_side(ident: str, P: dict):
    """The series product an integral representation must reproduce."""
    return product_value_side(INTEGRAL_SERIES[ident], P)[1]


# --------------------------------------------------------------------------
# Askey-Wilson polynomials (representation R1, any nonzero parameter first)
# --------------------------------------------------------------------------

def aw_poly(a, b, c, d, q, w, n: int):
    """p_n((w + 1/w)/2; a, b, c, d | q) = a^-n (ab, ac, ad; q)_n
    4phi3(q^-n, abcd q^(n-1), aw, a/w; ab, ac, ad; q, q).  The polynomial is
    symmetric in a, b, c, d, so the first ordering without a zero or a pole
    is used."""
    params = [a, b, c, d]
    for i in range(4):
        x = params[i]
        rest = params[:i] + params[i + 1:]
        if x == 0:
            continue
        try:
            lows = [x * y for y in rest]
            series = terminating_sum(
                [q ** (-n), a * b * c * d * q ** (n - 1), x * w, x / w], lows, q, q, n
            )
            return x ** (-n) * poch(lows[0], q, n) * poch(lows[1], q, n) * poch(lows[2], q, n) * series
        except ZeroDivisionError:
            continue
    raise ZeroDivisionError("no pole-free ordering of the Askey-Wilson parameters")


def special_value_point(sv: str, P: dict):
    """(a, b, c, d, w) at which a quadratic special value evaluates p_n."""
    q, a, b = P["q"], P["a"], P["b"]
    if sv == "BAILEY0":
        return I * a, -I * a, I * b, -I * b, I
    if sv == "ANDREWS_WHIPPLE0":
        return I * a, I * q / a, -I * b, -I * q / b, I
    if sv == "NEWQUAD":
        return I * a, -I * a, I * b, -I * q * b, I
    if sv == "ESOTERIC":
        return I * a, -I * a, I * b, -I * q * q * b, I
    raise KeyError(sv)


def awgf_identity_holds(a, b, c, d, w, q, n_max: int) -> bool:
    """t^n coefficients of 2phi1(aw, bw; ab; q, t/w) 2phi1(c/w, d/w; cd; q, tw)
    equal p_n / (q, ab, cd; q)_n for n <= n_max."""
    left = side_coeffs(
        [(1, 0, [phi([a * w, b * w], [a * b], q, 1 / w), phi([c / w, d / w], [c * d], q, w)])], n_max
    )
    for n in range(n_max + 1):
        expected = aw_poly(a, b, c, d, q, w, n) / (poch(q, q, n) * poch(a * b, q, n) * poch(c * d, q, n))
        if left[n] != expected:
            return False
    return True


# --------------------------------------------------------------------------
# terminating registry: left-hand sides as (upper, lower, base, z, last index)
# --------------------------------------------------------------------------

def registry_lhs(ident: str, P: dict, n: int):
    """The registry's left-hand 4phi3 (or 3phi2), summed exactly."""
    q = P.get("q")
    if ident == "T_ANDREWS_WATSON":
        sqa, sc = P["sqa"], P["sc"]
        spec = ([q**-n, q**n * sqa * sqa / q, sc, -sc], [sqa, -sqa, sc * sc], q, q, n)
    elif ident == "T_GASPER_RAHMAN_WATSON":
        b, c = P["b"], P["c"]
        Q = q * q
        spec = ([q ** (-2 * n), c, -(q ** (1 - n)) / b, q ** (1 - n) * b / c],
                [q ** (2 - 2 * n) / c, -(q ** (1 - n)) * b, q ** (1 - n) * c / b], Q, Q, n)
    elif ident == "T_BAILEY41":
        a, b = P["a"], P["b"]
        spec = ([q**-n, -(q ** (1 - n)) / (a * b), a, b],
                [-(a * b), q ** (1 - n) / a, q ** (1 - n) / b], q, q, n)
    elif ident == "T_ANDREWS_WHIPPLE_E":
        c, e = P["c"], P["e"]
        spec = ([q**-n, q ** (n + 1), c, -c], [-q, e, q * c * c / e], q, q, n)
    elif ident == "T_ANDREWS_WHIPPLE_C":
        a, b = P["a"], P["b"]
        spec = ([q**-n, q ** (n + 1), a, -a], [-q, b, q * a * a / b], q, q, n)
    elif ident in ("T_QBAILEY_1", "T_QBAILEY_2"):
        a, b = P["a"], P["b"]
        Q = q * q
        shift = 2 * n if ident == "T_QBAILEY_1" else 2 * n - 2
        low = Q * a * a if ident == "T_QBAILEY_1" else a * a
        spec = ([q ** (-2 * n), q**shift * b * b, a, q * a], [b, q * b, low], Q, Q, n)
    elif ident == "T_QPFAFF_SAALSCHUTZ":
        a, b, c, d = P["a"], P["b"], P["c"], P["d"]
        spec = ([q**-n, q ** (n + 1) * a * a / (b * c * d), d], [q * a / b, q * a / c], q, q, n)
    elif ident == "T_GR_EX214":
        a, b = P["a"], P["b"]
        spec = ([q**-n, b, a * a, q * a], [b * b * q ** (1 - n), q * a * a / b, a], q, q, n)
    elif ident == "T_GR_3109":
        a, b = P["a"], P["b"]
        spec = ([q**-n, -b * q**-n, a * a, q * a], [a * b * q ** (1 - n), -a * q ** (1 - n), a], q, q, n)
    elif ident == "T_GR_31010":
        a, b = P["a"], P["b"]
        spec = ([q**-n, -b * q ** (1 - n), a * b, b], [b * b * q ** (1 - n), -b * q**-n, q * a], q, q, n)
    elif ident == "T_BW_SUM":
        a, b = P["a"], P["b"]
        Q = q * q
        spec = ([q**-n, q ** (1 - n), a * a, a * a / (b * b)],
                [q ** (2 - 2 * n), a * a / b, q * a * a / b], Q, Q, n // 2)
    elif ident == "T_BW_TRANSFORM":
        a, b, c = P["a"], P["b"], P["c"]
        spec = ([q**-n, b, c, -c], [-(q ** (1 - n)) * b / a, a, c * c], q, q, n)
    elif ident == "T_NEW_N6":
        p, sc = P["p"], P["sc"]
        q = p * p
        root = I * p ** (3 - 2 * n)
        spec = ([q**-n, -(q**-n), sc, -sc], [root, -root, sc * sc], q, q, n)
    elif ident == "X_SEARS":
        a, b, c, d, e = P["a"], P["b"], P["c"], P["d"], P["e"]
        f = a * b * c * q ** (1 - n) / (d * e)
        spec = ([q**-n, a, b, c], [d, e, f], q, q, n)
    elif ident in ("T_NEW_N1", "T_NEW_N2", "T_NEW_N3", "T_NEW_N4", "T_NEW_N5", "T_NEW_N7", "T_NEW_N8"):
        sc = P["sc"]
        c = sc * sc
        if ident == "T_NEW_N3":
            sqa = P["sqa"]
            spec = ([q**-n, q**n * sqa * sqa / q, sc, -sc], [sqa, -sqa, q * c], q, q, n)
        else:
            sa = P["sa"]
            a = sa * sa
            upper, lower = {
                "T_NEW_N1": ([q**-n, q**n * a, q * sc, -q * sc], [q * c, q * sa, -q * sa]),
                "T_NEW_N2": ([q**-n, q**n * a, sc, -sc], [q * c, sa, -sa]),
                "T_NEW_N4": ([q**-n, q**n * a, sc, -sc], [q * sa, -q * sa, c]),
                "T_NEW_N5": ([q**-n, q ** (n + 1) * a, sc, -sc], [q * q * c, sa, -sa]),
                "T_NEW_N7": ([q**-n, q ** (n - 1) * a, sc, -sc], [q * sa, -q * sa, c]),
                "T_NEW_N8": ([q**-n, q ** (n - 1) * a, q * sc, -q * sc], [q * sa, -q * sa, q * c]),
            }[ident]
            spec = (upper, lower, q, q, n)
    else:
        raise KeyError(ident)
    return terminating_sum(*spec)


# --------------------------------------------------------------------------
# the near-pole 2phi1 of the kept failing operation
# --------------------------------------------------------------------------

NEAR_POLE = {
    "upper": (Fraction(3 * 2**130), Fraction(1, 3)),
    "lower": (Fraction(2**130) * (1 + Fraction(1, 10**45)),),
    "q": Fraction(1, 2),
    "z": Fraction(1, 10),
    "eps": 1e-30,
}


def near_pole_reference(terms: int = 1500, bits: int = 1200):
    """The near-pole 2phi1 summed directly, far past its k = 130 hump."""
    with mp.workprec(bits):
        (a1, a2), (b1,), q, z = (
            [to_mp(x) for x in NEAR_POLE["upper"]],
            [to_mp(x) for x in NEAR_POLE["lower"]],
            to_mp(NEAR_POLE["q"]),
            to_mp(NEAR_POLE["z"]),
        )
        total = mpmath.mpc(0)
        num = den = mpmath.mpc(1)
        qk = mpmath.mpc(1)
        for k in range(terms):
            total += num / den * z**k
            num *= (1 - a1 * qk) * (1 - a2 * qk)
            den *= (1 - q * qk) * (1 - b1 * qk)
            qk *= q
        return total
