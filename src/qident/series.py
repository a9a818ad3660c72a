"""Evaluation of basic hypergeometric series.

One generator, ``_term_ratios``, gives the term ratios of every r-phi-s
series as exact unreduced ints (one int per value when q, z and every
parameter are real, Gaussian integers otherwise).  Terminating series are
summed from them exactly, fraction-free, and they give the exact coefficient
series of :mod:`qident.powerseries`.  Nonterminating series run on the same
generator in fixed point at wp bits: q^k is one int at 2^-wp, cut toward zero
once per step, each factor 1 - a q^k is exact from there, and the one term
recurrence (``_phi_terms``) multiplies each term by the exact ratio with one
truncating division, so a term is rounded once per step (its rounding lemma
is in ``_phi_terms``).  Parameters come in exact; an mpmath one enters as the
exact value of its ``_fx`` pair.  Each term comes with a non-increasing
majorant R_k of every later term ratio (F. Johansson, *Computing
hypergeometric functions rigorously*, ACM TOMS 45(3), 2019), so
|t_k| R_k / (1 - R_k) bounds the tail after term k; a real term's modulus is
one correctly rounded int division.  Every weighted double series, the
q-Appell Phi1, the triple sum's two factors and the Cayley-Orr right sides, is
one weighted Cauchy product (``_weighted_cauchy``) of two tables of such terms
(``_Table``), summed diagonal by diagonal (``_cauchy_terms``), its tail built
from the tables' own.  ``certified_sum`` stops at the first term whose proven
tail bound meets the target; until a majorant is finite, terms are summed one
by one, which covers any hump of the terms near a pole.

Also here: the classical rFs series.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import DivergenceError, DomainError, NoConvergence, PoleError, check_eps
from .qkernel import (
    _GAUSS_EXACT,
    _GUARD_BITS,
    _REAL_EXACT,
    DEFAULT_PRECISION_BITS,
    ApproxScalar,
    ExactScalar,
    QBase,
    Scalar,
    TruncationCert,
    _abs_at_least_one,
    _approx,
    _div,
    _fabs,
    _fx,
    _gdiv,
    _gmul,
    _log_poch_majorant,
    _mul,
    _qpow_index,
)


@dataclass(frozen=True)
class BalanceClass:
    kind: str  # "balanced" | "well_poised" | "very_well_poised" | "none"
    k: Optional[int] = None

    def __str__(self):
        if self.kind == "balanced":
            return f"balanced({self.k})"
        return self.kind


@dataclass(frozen=True)
class SeriesSpec:
    """An r-phi-s description; termination = n means an upper parameter is q^-n."""

    upper: tuple
    lower: tuple
    base: QBase
    arg: Scalar
    termination: Optional[int] = None

    @staticmethod
    def make(upper: Sequence, lower: Sequence, q, z, terminates_at: Optional[int] = None):
        return SeriesSpec(tuple(upper), tuple(lower), QBase.of(q), z, terminates_at)

    @property
    def r(self) -> int:
        return len(self.upper)

    @property
    def s(self) -> int:
        return len(self.lower)


def validate_termination(spec: SeriesSpec) -> None:
    """An exact spec that terminates at n must have an upper parameter equal to q^-n."""
    n = spec.termination
    if n is None:
        return
    if n < 0:
        raise DomainError("termination index must be nonnegative")
    q = ExactScalar.coerce(spec.base.value)
    for a in spec.upper:
        if _qpow_index(ExactScalar.coerce(a), q, n) == n:
            return
    raise DomainError(f"no upper parameter equals q^-{n}; spec does not terminate there")


def eval_phi_terminating(spec: SeriesSpec) -> ExactScalar:
    """Exact finite sum of the n+1 terms of a terminating series."""
    if spec.termination is None:
        raise DomainError("spec does not terminate")
    validate_termination(spec)
    ratios = _term_ratios(spec.upper, spec.lower, spec.base.value, spec.arg, spec.termination)
    real = next(ratios)
    _, mul, _, _, add, _, one = _REAL_EXACT if real else _GAUSS_EXACT
    # the sum 1 + r_0 (1 + r_1 (1 + ...)) is formed backwards, in Horner form,
    # on the ratios' ints, and reduced once, at the end
    A = B = one  # the sum is A / B
    for top, bot in reversed(list(ratios)):
        t, B = mul(A, top), mul(B, bot)
        A = add(B, t)
    return _gdiv((A, 0), (B, 0)) if real else _gdiv(A, B)


def _term_ratios(upper, lower, q, z, n: Optional[int] = None, wp: Optional[int] = None,
                 poles: Optional[dict] = None):
    """Yield r_k = term k+1 / term k, k = 0, ..., n-1 (every k when n is None), of
    the r-phi-s series sum_k (upper;q)_k / (q, lower;q)_k ((-1)^k q^binom(k,2))^e
    z^k, e = 1+s-r, as a pair (top, bot) of unreduced values: one int each when
    q, z and every parameter are real, Gaussian integers (re, im) otherwise; the
    first item yielded says which (True when real).  The inputs are coerced once
    with ExactScalar.coerce.

    r_k = z (-q^k)^e prod (1 - a q^k) / ((1 - q^(k+1)) prod (1 - b q^k)), with
    q^k = Q / D: each factor 1 - x q^k is the int x_den D - x_num Q over x_den
    D, and these powers of D cancel against those of (-q^k)^e, since s - r - e
    = -1, so top and bot hold the factors' ints, z's and the parameters'
    denominators, and Q^|e|, the sign (-1)^e taken into the constant part; with
    q^(k+1) = Q' / D', top also holds D' / D.  An upper parameter equal to q
    cancels the factor 1 - q^(k+1): both are left out (the two ints are equal,
    in exact arithmetic only).  A lower factor that vanishes raises PoleError
    naming index k+1, even when an upper factor vanishes at the same k
    (simultaneous 0/0 is excluded).  A vanishing upper factor ends the series:
    no later ratio is formed, so no later pole is looked for.

    Given wp, q^k is carried in fixed point instead: Q = X and D = 2^wp, X an
    int (or Gaussian integer) that q X replaces, each part cut toward zero,
    once per step, so the ints stay near wp bits at every k; each factor is
    then the exact int of 1 - a X / 2^wp, and an input that is not exact enters
    as the exact value of its fixed-point pair _fx(x, wp), the value that fixed
    point at wp sums for it.  The lower parameter j of ``poles`` has its pole
    decided there (index poles[j] + 1, or none when poles[j] is None) rather
    than by its factor, which X leaves off 0 unless q is a power of 2; a factor
    of such a parameter that is 0 in fixed point though not exactly raises
    NoConvergence naming it.
    """
    e = 1 + len(lower) - len(upper)

    def parts(x):  # (n, m, d) of x: exact, or of its fixed-point pair at wp
        if not isinstance(x, ExactScalar):
            x = ExactScalar.coerce(x) if wp is None or isinstance(x, (int, Fraction)) else \
                ExactScalar.from_parts(*_fx(x, wp), 1 << wp)
        return x.parts

    ups, los, q, z = [*map(parts, upper)], [*map(parts, lower)], parts(q), parts(z)
    real = not any(m for _, m, _ in (q, z, *ups, *los))
    part, mul, scale, rsub, _, zero, one = _REAL_EXACT if real else _GAUSS_EXACT
    yield real
    (q_num, q_den), (z_num, z_den) = (part(q), q[2]), (part(z), z[2])
    ups = [(part(a), a[2]) for a in ups]
    # b, its numerator and denominator, and the k of its pole, or -1 when 1 - b q^k = 0 decides
    poles = poles or {}
    los = [(b, part(x), x[2], poles.get(j, -1)) for j, (b, x) in enumerate(zip(lower, los))]
    Q, D = one, 1  # q^k = Q / D
    if wp is not None:
        Q, D = scale(one, 1 << wp), 1 << wp
    # r_k = (z_num prod b_den D'/D) (-Q)^e prod (a_den D - a_num Q)
    #       / ((z_den prod a_den) (D' - Q') prod (b_den D - b_num Q)),
    # the sign of (-Q)^e in the constant parts, Q^|e| formed per step
    sign = -1 if e % 2 else 1
    top_c = scale(z_num, (sign if e > 0 else 1) * (q_den if wp is None else 1)
                  * math.prod(b_den for _, _, b_den, _ in los))
    bot_c = (sign if e < 0 else 1) * z_den * math.prod(a_den for _, a_den in ups)
    e_top, e_bot = range(max(e, 0)), range(max(-e, 0))
    qq = wp is not None or (q_num, q_den) not in ups  # False: an upper q cancels D' - Q'
    if not qq:
        ups.remove((q_num, q_den))
    for k in range(n) if n is not None else itertools.count():
        if wp is None:
            Q1, D1 = mul(Q, q_num), D * q_den
        else:
            Q1, D1 = _cut(mul(Q, q_num), q_den), D
        bot = scale(rsub(D1, Q1) if qq else one, bot_c)
        for b, b_num, b_den, pole in los:
            f = rsub(b_den * D, mul(b_num, Q))
            if k == pole or f == zero:
                if k != pole and pole != -1:  # only in fixed point: b's pole is decided exactly
                    raise NoConvergence(f"the factor 1 - b q^{k} of the lower parameter b = {b} "
                                        f"is not zero but is 0 at {wp} bits")
                raise PoleError(f"lower parameter {b} produces a zero factor at index {k + 1}",
                                index=k + 1)
            bot = mul(bot, f)
        top = one
        for a_num, a_den in ups:
            top = mul(top, rsub(a_den * D, mul(a_num, Q)))
        if top == zero:  # tested before z enters: z = 0 skips no later pole check
            return
        top = mul(top, top_c)
        if e:
            for _ in e_top:
                top = mul(top, Q)
            for _ in e_bot:
                if Q == zero:  # only in fixed point
                    raise NoConvergence(f"q^{k} is 0 at {wp} bits, and each term of an r-phi-s "
                                        "series with r > s+1 divides by it")
                bot = mul(bot, Q)
        yield top, bot
        Q, D = Q1, D1


def _cut(x, d: int):
    """x / d for d > 0, cut toward zero: an int, or each part of a Gaussian integer."""
    if type(x) is int:
        return x // d if x >= 0 else -(-x // d)
    return _cut(x[0], d), _cut(x[1], d)


def _ratio_majorant(z: float, upper, lower, Q: float, k: int, e: int = 0) -> float:
    """|z| Q^(ek) prod (1 + |a| Q^k) / ((1 - Q^(k+1)) prod |1 - |b| Q^k|), of moduli
    and Q >= |q|: a bound on |term k+1 / term k| of sum_k (upper;q)_k / (q, lower;q)_k
    ((-1)^k q^binom(k,2))^e z^k, not increasing from the first k with all |b| Q^k < 1."""
    Qk = Q**k
    R = z * Qk**e / (1 - Q * Qk)
    for a in upper:
        R *= 1 + a * Qk
    for b in lower:
        R /= abs(1 - b * Qk)
    return R


def _poch_majorant(x: float, y: float, Q: float) -> float:
    """A bound on (-x; Q)_inf / (y; Q)_inf, inf unless y < 1.  With Q >= |q| it
    bounds sum_k |(f;q)_k r^k / (q;q)_k| at x = |f||r|, y = |r| (the q-binomial
    theorem), and |(u q^m;q)_j / (v q^m;q)_j| for all j at x = |u||q|^m, y = |v||q|^m."""
    log_m = _log_poch_majorant(x, Q, False) + _log_poch_majorant(y, Q, True) if y < 1 else math.inf
    return math.exp(log_m + 2.0**-40) if log_m < 700 else math.inf


class _Table:
    """f(0), f(1), ... grown on demand: each value is computed once, in order."""

    def __init__(self, f: Callable[[int], tuple]):
        self.f, self.vals = f, []

    def __getitem__(self, i: int):
        vals = self.vals
        while len(vals) <= i:
            vals.append(self.f(len(vals)))
        return vals[i]


def _phi_terms(upper, lower, q, z, wp: int, poles=None) -> Callable[[int], tuple]:
    """k -> (term k, R_k) of the r-phi-s series sum_k (upper;q)_k / (q, lower;q)_k
    ((-1)^k q^binom(k,2))^e z^k, e = 1+s-r, called for k = 0, 1, 2, ... in turn.

    Term k is a fixed-point pair at wp bits: term k-1 times the exact ratio
    top / bot of :func:`_term_ratios` in fixed point at wp (poles as there),
    cut toward zero once (a bot that is not real as top conj(bot) / |bot|^2).
    Once an upper factor vanishes, every later term is 0.  R_k, the
    :func:`_ratio_majorant` of the moduli of the parameters' fixed-point pairs,
    bounds |term j+1 / term j| for every j >= k; it is inf before every
    |b||q|^k < 1, and for e < 0.

    Rounding lemma.  Let u = 2^-wp, c = 1 when q, z and every parameter are
    real and c = sqrt 2 otherwise, d = c u / (1 - |q|), r~_j the ratio as
    computed and s_k = prod_{j<k} r~_j.
    (i) X_k / 2^wp, the fixed-point q^k, is within d of q^k: its error is 0 at
        k = 0 and grows by at most |q| times itself plus c u per step.
    (ii) r~_j is r_j with q^j and q^(j+1) replaced by X_j / 2^wp and
        X_(j+1) / 2^wp, exact from there: each factor 1 - y q^j is off by at
        most |y| d and q^j by d, so s_k / t_k - 1, t_k the exact term, is at
        most the product of 1 + each factor's relative error, minus 1.
    (iii) |term k - s_k| < c u sum_{j=1..k} prod_{i=j..k-1} |r~_i|: one cut of
        less than c u per division, carried on by the later ratios.
    """
    e = 1 + len(lower) - len(upper)
    ratios = _term_ratios(upper, lower, q, z, None, wp, poles)
    real = next(ratios)
    Q, za = (_fabs(_fx(x, wp), wp) for x in (q, z))
    am, bm = ([_fabs(_fx(x, wp), wp) for x in xs] for xs in (upper, lower))
    b_max = max(bm, default=0.0)

    def ratio(k: int) -> float:
        if e < 0 or b_max * Q**k >= 1:
            return math.inf
        return _ratio_majorant(za, am, bm, Q, k, e)

    t = 1 << wp if real else (1 << wp, 0)  # term k-1
    ended = (0, 1) if real else ((0, 0), (1, 0))  # the ratio 0 / 1, once an upper factor vanished

    def term(k: int) -> tuple:  # term k = term k-1 top / bot, cut
        nonlocal t
        if k:
            top, bot = next(ratios, ended)
            if real:
                t = _cut(t * top, bot) if bot > 0 else _cut(-t * top, -bot)
            else:
                br, bi = bot
                if bi:  # top / bot = top conj(bot) / |bot|^2
                    top, br = _gmul(top, (br, -bi)), br * br + bi * bi
                elif br < 0:
                    top, br = (-top[0], -top[1]), -br
                t = _cut(_gmul(t, top), br)
        return ((t, 0) if real else t), ratio(k)

    return term


def _tailed(entry: tuple, wp: int) -> tuple:
    """(t, |t| R / (1 - R)) from a term t and a bound R < 1 on every later term
    ratio: t and a bound on the sum of the later terms' moduli (inf unless R < 1)."""
    t, R = entry
    return t, _fabs(t, wp) * R / (1 - R) if R < 1 else math.inf


def _cauchy_terms(X, Y, wp: int):
    """n -> (sum_{j<=n} X[j] Y[n-j], tail after it), from tables of two series'
    terms and ratio majorants.  A pair with j + i > n has i > n - j or j > M, so
    for each M <= n the tail is at most sum_{j<=M} |X[j]| tau_Y(n-j) + tau_X(M)
    sum |Y|, tau(k) the tail after term k; the least over M is taken."""
    parts = [], [], [], []  # the real and imaginary parts of X[j], then of Y[j], j <= n
    ax, tx, ty = [], [], []  # |X[j]|, tau_X(j), tau_Y(j) for j <= n
    sy = 0.0  # sum_{j<=n} |Y[j]|

    def term(n: int) -> tuple:
        nonlocal sy
        for p, v in zip(parts, (*X[n][0], *Y[n][0])):
            p.append(v)
        ax.append(_fabs(X[n][0], wp))
        tx.append(_tailed(X[n], wp)[1])
        ty.append(_tailed(Y[n], wp)[1])
        sy += _fabs(Y[n][0], wp)
        xr, xi, yr, yi = parts
        yr, yi = yr[::-1], yi[::-1]
        # exact products of ints, one rounding for the whole sum
        re, im = sum(map(operator.mul, xr, yr)), 0
        if any(xi) or any(yi):
            re -= sum(map(operator.mul, xi, yi))
            im = sum(map(operator.mul, xr, yi)) + sum(map(operator.mul, xi, yr))
        if ty[n] == math.inf:
            return _mul((re, im), (1, 0), wp), math.inf
        s, head, tail = sy + ty[n], 0.0, math.inf
        for a, t, x in zip(ax, reversed(ty), tx):
            if a:
                head += a * t
            if head + x * s < tail:
                tail = head + x * s
        return _mul((re, im), (1, 0), wp), tail

    return term


def _weighted_cauchy(X, Y, weight, q, eps: float, pb: int, absolute: bool = False):
    """certified_sum(terms, eps, pb, absolute) of sum_n A[n] (X * Y)[n],
    A[n] = (u;q)_n / (v;q)_n for weight = (u, v), from the term tables X and Y
    of two series (:func:`_cauchy_terms` gives each diagonal (X * Y)[n]).

    The tail after diagonal n is at most sup_{i>=n} |A[i]| times that of the
    diagonals, and sup_{i>=n} |A[i]| <= |A[n]| M(n), M(n) the
    :func:`_poch_majorant` of |u||q|^n and |v||q|^n.  Each factor of M(n) falls
    toward 1 as n grows, so M(m) bounds M(n) for m <= n: M is formed at each n
    with a finite diagonal tail until it is finite, and then only at powers of
    two, O(log N) log-sums for N diagonals."""
    wp = pb + _GUARD_BITS
    A = _Table(_phi_terms([weight[0], q], [weight[1]], q, 1, wp))
    Q, un, vn = (_fabs(_fx(x, wp), wp) for x in (q, *weight))
    diagonal = _cauchy_terms(X, Y, wp)
    M = math.inf

    def term(n: int) -> tuple:
        nonlocal M
        value, tail = diagonal(n)
        a = A[n][0]
        if tail < math.inf and (M == math.inf or n & (n - 1) == 0):
            M = _poch_majorant(un * Q**n, vn * Q**n, Q)
        return _mul(a, value, wp), _fabs(a, wp) * M * tail

    return certified_sum(term, eps, pb, absolute)


def _weight_sup(weight, q, wp: int) -> float:
    """A bound on sup_i |(u;q)_i / (v;q)_i|, weight = (u, v): the largest term
    before the first n whose M(n) (:func:`_weighted_cauchy`) is finite, and
    |term n| M(n)."""
    A = _phi_terms([weight[0], q], [weight[1]], q, 1, wp)
    Q, un, vn = (_fabs(_fx(x, wp), wp) for x in (q, *weight))
    top = 0.0
    for n in itertools.count():
        a, M = _fabs(A(n)[0], wp), _poch_majorant(un * Q**n, vn * Q**n, Q)
        if M < math.inf:
            return max(top, a * M)
        top = max(top, a)


_MAX_TERMS = 100_000


def certified_sum(
    terms: Callable[[int], tuple], eps: float, precision_bits: int, absolute: bool = False
) -> tuple[tuple, TruncationCert]:
    """Sum t_0 + t_1 + ... for terms(k) = (t_k, tail_k), fixed-point pairs at
    precision_bits + _GUARD_BITS bits and a proven bound on sum_{j>k} |t_j| (inf
    while none is known), up to the first k whose tail_k is at most eps (times
    max(1, |sum|) unless `absolute`)."""
    wp = precision_bits + _GUARD_BITS
    re = im = 0
    for k in range(_MAX_TERMS):
        (tr, ti), tail = terms(k)
        re += tr
        im += ti
        if tail < math.inf:
            target = eps if absolute else eps * max(1.0, _fabs((re, im), wp))
            if tail <= target:
                return (re, im), TruncationCert(k + 1, tail, target)
    raise NoConvergence(f"series tail not certified within {_MAX_TERMS} terms")


def eval_phi_nonterminating(
    spec: SeriesSpec,
    eps: float,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> tuple[ApproxScalar, TruncationCert]:
    """Certified value of an r-phi-s series, summed in fixed point.

    The parameters are exact, or ApproxScalars, mpmath values or floats, each
    of which enters as the exact value of its :func:`_fx` pair at
    precision_bits + _GUARD_BITS; the terms are those of :func:`_phi_terms`,
    and the sum is rounded once to precision_bits.  A
    terminating spec sums its n+1 terms, as does a spec of exact base with an
    exact upper parameter equal to q^-n.  With an exact base, an exact lower
    parameter's pole is decided exactly, as :func:`_term_ratios` decides it."""
    n = spec.termination
    base = spec.base.value
    exact = isinstance(base, ExactScalar)

    def qpow_indices(xs, kmax=None):  # j -> the least k with x_j q^k = 1, each exact x_j
        return {j: _qpow_index(ExactScalar.coerce(x), base, kmax) for j, x in enumerate(xs)
                if exact and isinstance(x, (ExactScalar, int, Fraction))}

    if n is None:
        n = min((k for k in qpow_indices(spec.upper).values() if k is not None), default=None)
    if spec.arg == 0:
        return ApproxScalar(1, precision_bits), TruncationCert(1, 0.0, eps)
    if n is None:
        if spec.r > spec.s + 1:
            raise DivergenceError("r > s+1 does not converge without termination")
        if spec.r == spec.s + 1 and _abs_at_least_one(spec.arg):
            raise DivergenceError(f"|z| >= 1 for an r = s+1 series, z = {spec.arg}")

    wp = precision_bits + _GUARD_BITS
    term = _phi_terms(spec.upper, spec.lower, base, spec.arg, wp, qpow_indices(spec.lower, n))
    if n is not None:
        # a term that is exactly 0 (an upper factor vanished) ends the series
        terms = list(itertools.takewhile(any, (term(k)[0] for k in range(n + 1))))
        total = sum(t[0] for t in terms), sum(t[1] for t in terms)
        return _approx(total, wp, precision_bits), TruncationCert(n + 1, 0.0, eps)
    total, cert = certified_sum(lambda k: _tailed(term(k), wp), eps, precision_bits)
    return _approx(total, wp, precision_bits), cert


def eval_rfs(
    upper: Sequence,
    lower: Sequence,
    z,
    eps: float = 1e-12,
    precision_bits: int = 128,
) -> ApproxScalar:
    """Classical rFs via rising-factorial term recurrence, summed in fixed point.
    For j >= k > max |b|, |t_(j+1) / t_j| = |z prod (a + j) / ((j + 1) prod (b +
    j))| is at most |z| times max(1, (|a| + k) / (k - |b|)) per upper parameter,
    paired with a lower one or k + 1, and 1 / (k - |b|) per unpaired one."""
    check_eps(eps)
    ups, los = (
        [ApproxScalar.coerce(x, precision_bits + 10).value for x in xs] for xs in (upper, lower)
    )
    zz = ApproxScalar.coerce(z, precision_bits + 10).value

    def nonpositive_integer(v) -> bool:
        return v.imag == 0 and v.real <= 0 and v.real == int(v.real)

    for b in los:
        if nonpositive_integer(b):
            raise PoleError(f"lower parameter {b.real} is a nonpositive integer")
    ends = [int(-a.real) for a in ups if nonpositive_integer(a)]
    term_n = min(ends) if ends else None
    abs_z = float(abs(zz))
    r, s = len(ups), len(los)
    if term_n is None and (r > s + 1 or r == s + 1 and abs_z >= 1):
        raise DivergenceError(f"an r = {r}, s = {s} series does not converge at |z| = {abs_z}")
    if zz == 0:
        return ApproxScalar.coerce(1, precision_bits)

    wp = precision_bits + _GUARD_BITS
    ups, los, zz = [_fx(a, wp) for a in ups], [_fx(b, wp) for b in los], _fx(zz, wp)
    am, bm = [_fabs(a, wp) for a in ups], [_fabs(b, wp) for b in los] + [-1.0]  # k + 1 = k - (-1)
    t = (1 << wp, 0)

    def ratio(k: int) -> float:
        if term_n is not None and k >= term_n:
            return 0.0  # the terms after t_n are exactly 0
        if k <= max(bm) or len(am) > len(bm):
            return math.inf
        R = _fabs(zz, wp)
        for a, b in itertools.zip_longest(am, bm):
            R *= 1 / (k - b) if a is None else max(1.0, (a + k) / (k - b))
        return R

    def term(k: int) -> tuple:
        # term k = term k-1 * prod (a + k-1) z / (k prod (b + k-1))
        nonlocal t
        if k:
            shift = (k - 1) << wp
            num, den = zz, (k << wp, 0)
            for a in ups:
                num = _mul(num, (a[0] + shift, a[1]), wp)
            for b in los:
                den = _mul(den, (b[0] + shift, b[1]), wp)
            t = _div(_mul(t, num, wp), den, wp)
        return _tailed((t, ratio(k)), wp)

    total, _ = certified_sum(term, eps, precision_bits)
    return _approx(total, wp, precision_bits)


def eval_qappell_phi1(
    a, b, b2, c, x, y, q, eps: float = 1e-30, precision_bits: int = DEFAULT_PRECISION_BITS
) -> tuple[ApproxScalar, TruncationCert]:
    """q-Appell Phi1 double series, summed over i = m + n as one weighted Cauchy
    product (:func:`_weighted_cauchy`); the certificate counts its diagonals.

    Phi1(a; b, b2; c; q; x, y)
      = sum_{m,n>=0} (a;q)_{m+n} (b;q)_m (b2;q)_n x^m y^n
                     / ((q;q)_m (q;q)_n (c;q)_{m+n})
      = sum_i (a;q)_i / (c;q)_i sum_{m+n=i} P[m] B[n],
    with P[m] = (b;q)_m x^m / (q;q)_m and B[n] = (b2;q)_n y^n / (q;q)_n.
    """
    if _abs_at_least_one(x) or _abs_at_least_one(y):
        raise DivergenceError("q-Appell Phi1 needs |x| < 1 and |y| < 1")
    wp = precision_bits + _GUARD_BITS
    P, B = (_Table(_phi_terms([f], [], q, r, wp)) for f, r in ((b, x), (b2, y)))
    total, cert = _weighted_cauchy(P, B, (a, c), q, eps, precision_bits)
    return _approx(total, wp, precision_bits), cert
