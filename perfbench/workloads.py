"""The four workloads: inputs drawn from the seed, one round at a time.

A round is a fixed list of operations (the same kinds, in the same order, in
every round and for every seed); only the drawn inputs change.  Each
operation calls one public qident entry point, always through its module
attribute so that a traced run sees the call, and yields one or more
verdicts; its check runs after it, outside the timed region, and compares
the outputs with reference.py, which shares no code with qident.

Check outcome of one operation: ``(failed, problems)``.  ``failed`` counts
verdicts of the known near-pole fault (kept on purpose, see README.md);
``problems`` lists outputs that are wrong, which makes the run incorrect.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Any, Callable

import mpmath
from mpmath import mp

import reference as R
from qident import askey_wilson, cli, identities, integrals, products, series
from qident.qkernel import ExactScalar, QBase

WORKLOADS = ("exact_sweep", "exact_coefficients", "certified_values", "contour_integrals")

# Rounds run by a traced run; its counts then depend on the seed alone.
TRACE_ROUNDS = {"exact_sweep": 8, "exact_coefficients": 8, "certified_values": 1, "contour_integrals": 1}

# Share of verdicts re-derived by reference.py where that costs as much as
# the verdict itself; cheaper checks run on every verdict.
SAMPLE_SHARE = {"exact_sweep": 1 / 8, "exact_coefficients": 1 / 3}

COEFF_ORDER = 20
AWGF_ORDER = 14
CAYLEY_ORDER = 12
PAIR_EPS = 1e-30
APPROX_EPS = 1e-40
CLASSICAL_EPS = 1e-10
# eps 1e-25 (512 nodes; IR_SCHLOSSER 2048) makes one round take over a minute
# on a 2-core machine; 1e-15 keeps 256 nodes and the same integrand.
INTEGRAL_EPS = {"IR_SCHLOSSER": 1e-10}
DEFAULT_INTEGRAL_EPS = 1e-15


@dataclass
class Op:
    label: str
    verdicts: int
    call: Callable[[], Any]
    check: Callable[[Any, random.Random], tuple]


# --------------------------------------------------------------------------
# samplers
# --------------------------------------------------------------------------

def _unit(rng: random.Random, den_max: int = 9) -> F:
    """A fraction in (0, 1) with a small denominator."""
    den = rng.randint(2, den_max)
    return F(rng.randint(1, den - 1), den)


def _small_z(rng: random.Random) -> F:
    """|z| in [1/12, 1/5], inside the product checks' safety radius 1/4."""
    return F(rng.choice((1, -1)), rng.randint(5, 12))


def _pair_point(ident: str, rng: random.Random) -> dict:
    """Parameters of a product identity, away from every pole of its series.

    All parameters lie in (0, 1), so lower parameters like q a^2 b^2 never
    reach 1; ab < p keeps a^2 b^2 / q below 1, and a^2 != q keeps the
    (a^2/q; q^2) denominators of T517/T518 nonzero."""
    while True:
        if ident in ("JACKSON_CLAUSEN", "NASSRALLAH_1", "NASSRALLAH_2", "THM21", "TRIVIAL_21_32"):
            P = {"p": _unit(rng), "a": _unit(rng), "b": _unit(rng)}
            if P["a"] * P["b"] >= P["p"]:
                continue
            if ident == "TRIVIAL_21_32":
                del P["b"]
            return P
        third = "c" if ident in ("T515", "T516", "T517", "T518") else "b"
        P = {"q": _unit(rng), "a": _unit(rng), third: _unit(rng)}
        if P["a"] * P["a"] != P["q"]:
            return P


def _z_name(ident: str) -> str:
    return "t" if ident in ("SRIVASTAVA_313", "T515", "T516", "T517", "T518") else "z"


def _params_of(printed: dict) -> dict:
    """A report's printed parameters as exact fractions."""
    return {k: R.parse_exact(v).re for k, v in printed.items()}


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------

def _report_problems(report, eps: float) -> list:
    """lhs/rhs parsed by the benchmark: equal when exact, within eps otherwise."""
    where = f"{report.identity_id} n={report.n}"
    if not report.passed:
        return [f"{where}: verdict fail"]
    if report.mode == "exact":
        if R.parse_exact(report.lhs) != R.parse_exact(report.rhs):
            return [f"{where}: lhs != rhs"]
    elif not R.close(R.parse_value(report.lhs), R.parse_value(report.rhs), eps):
        return [f"{where}: |lhs-rhs| > eps"]
    return []


def _check_sweep_file(path: Path, ident: str, share: float):
    def check(code, rng):
        if code != cli.EXIT_OK:
            return 0, [f"{ident}: qident sweep exited {code}"]
        payload = json.loads(path.read_text(encoding="utf-8"))
        reports = payload["reports"]
        problems = []
        if len(reports) != 9:
            problems.append(f"{ident}: {len(reports)} reports, expected 9")
        for rep in reports:
            if not rep["passed"] or rep["mode"] != "exact":
                problems.append(f"{ident} n={rep['n']}: not an exact pass")
                continue
            lhs, rhs = R.parse_exact(rep["lhs"]), R.parse_exact(rep["rhs"])
            if lhs != rhs:
                problems.append(f"{ident} n={rep['n']}: lhs != rhs")
            if rep["degenerate"] != (lhs == 0):
                problems.append(f"{ident} n={rep['n']}: degenerate flag wrong")
            if rng.random() < share:
                if R.registry_lhs(ident, _params_of(rep["params"]), rep["n"]) != lhs:
                    problems.append(f"{ident} n={rep['n']}: reference sum differs")
        return 0, problems

    return check


def _check_passed(label: str, recompute=None, share: float = 1.0):
    """A report that only says pass/fail; recompute() -> bool re-derives it."""

    def check(report, rng):
        if not report.passed:
            return 0, [f"{label}: verdict fail ({report.note})"]
        if recompute is not None and rng.random() < share and not recompute():
            return 0, [f"{label}: reference disagrees with the verdict"]
        return 0, []

    return check


def _check_value_report(label: str, eps: float, reference, other_eps: float | None = None):
    """A certified report; reference() -> ("lhs" | "rhs", value) recomputes one side."""

    def check(report, rng):
        problems = _report_problems(report, eps)
        if problems:
            return 0, problems
        side, value = reference()
        got = R.parse_value(report.lhs if side == "lhs" else report.rhs)
        if not R.close(got, value, other_eps or eps):
            problems.append(f"{label}: reference {side} differs")
        return 0, problems

    return check


# --------------------------------------------------------------------------
# exact_sweep
# --------------------------------------------------------------------------

def exact_sweep_round(rng: random.Random, out: Path, small: bool) -> list:
    ops = []
    ids = identities.EXACT_IDS[:3] if small else identities.EXACT_IDS
    for ident in ids:
        sweep_seed = rng.randrange(1, 2**31)
        path = out / f"sweep-{ident}.json"
        argv = ["sweep", ident, "--trials", "1", "--seed", str(sweep_seed),
                "--n-range", "0..8", "--output", str(path)]
        ops.append(Op(f"sweep {ident} seed={sweep_seed}", 9,
                      lambda argv=argv: cli.main(argv),
                      _check_sweep_file(path, ident, SAMPLE_SHARE["exact_sweep"])))
    return ops


# --------------------------------------------------------------------------
# exact_coefficients
# --------------------------------------------------------------------------

def _aw_cross(point):
    a, b, c, d, q, w, n = point
    params = askey_wilson.AWParams.make(*(ExactScalar(x) for x in (a, b, c, d, q, w)), n)
    return [askey_wilson.eval_aw(params, rep) for rep in ("R1", "R2", "R3", "CONV")]


def _check_aw_cross(point, share):
    def check(values, rng):
        vals = [R.parse_exact(str(v)) for v in values]
        if any(v != vals[0] for v in vals):
            return 0, [f"AW {point}: representations disagree"]
        if rng.random() < share and R.aw_poly(*point[:5], point[5], point[6]) != vals[0]:
            return 0, [f"AW {point}: reference p_n differs"]
        return 0, []

    return check


def _check_special(sv, P, n, share):
    def check(pair, rng):
        lhs, rhs = (R.parse_exact(str(v)) for v in pair)
        if lhs != rhs:
            return 0, [f"{sv} n={n}: lhs != rhs"]
        if rng.random() < share:
            a, b, c, d, w = R.special_value_point(sv, P)
            if R.aw_poly(a, b, c, d, P["q"], w, n) != lhs:
                return 0, [f"{sv} n={n}: reference p_n differs"]
        return 0, []

    return check


def exact_coefficients_round(rng: random.Random, out: Path, small: bool) -> list:
    share = SAMPLE_SHARE["exact_coefficients"]
    order = 10 if small else COEFF_ORDER
    ops = []
    for ident in (R.COEFF_IDS[:2] if small else R.COEFF_IDS):
        P = _pair_point(ident, rng)
        ops.append(Op(f"coeff {ident} {P}", 1,
                      lambda ident=ident, P=P: products.product_coefficient_check(ident, P, order=order),
                      _check_passed(ident, lambda ident=ident, P=P: R.coefficient_identity_holds(ident, P, order),
                                    share)))

    # the generating function: signed parameters, |ab|, |cd| < 1
    g = [_unit(rng) * rng.choice((1, -1)) for _ in range(5)] + [_unit(rng)]
    awgf_order = 6 if small else AWGF_ORDER
    ops.append(Op(f"awgf {g}", 1,
                  lambda: products.awgf_coefficient_check(*g, n_max=awgf_order),
                  _check_passed("AWGF", lambda: R.awgf_identity_holds(*g, awgf_order), share)))

    # R1 = R2 = R3 = CONV: a..d < 0 < w keeps w/a, w/c, w/d off the pole set
    # q^-k, and abcd != q keeps (abcd/q; q)_n of R2 nonzero
    for _ in range(1 if small else 6):
        while True:
            a, b, c, d = (-_unit(rng) for _ in range(4))
            q, w = _unit(rng), _unit(rng)
            if a * b * c * d != q:
                break
        point = (a, b, c, d, q, w, rng.randint(2, 10))
        ops.append(Op(f"aw {point}", 1, lambda point=point: _aw_cross(point), _check_aw_cross(point, share)))

    # quadratic special values at x = 0; a^2 < q keeps (a^2/q; q^2) nonzero
    while True:
        P = {"q": _unit(rng), "a": _unit(rng), "b": _unit(rng)}
        if P["a"] * P["a"] < P["q"]:
            break
    for sv in (("BAILEY0",) if small else ("BAILEY0", "ANDREWS_WHIPPLE0", "NEWQUAD", "ESOTERIC")):
        for n in rng.sample(range(11), 1 if small else 2):
            ops.append(Op(f"special {sv} {P} n={n}", 1,
                          lambda sv=sv, n=n: askey_wilson.eval_special_value(sv, P, n),
                          _check_special(sv, P, n, share)))

    if not small:
        while True:
            p, a, b = _unit(rng), _unit(rng), _unit(rng)
            if a * b < p:
                break
        ops.append(Op(f"cayley thm21 {(p, a, b)}", 1,
                      lambda: products.thm21_cayley_consistency(p, a, b, n_max=CAYLEY_ORDER),
                      _check_passed("THM21 Cayley-Orr")))
        ops.append(Op(f"cayley nassrallah2 {(p, a, b)}", 1,
                      lambda: products.nassrallah2_cayley_consistency(p, a, b, n_max=CAYLEY_ORDER),
                      _check_passed("NASSRALLAH_2 Cayley-Orr")))
    return ops


# --------------------------------------------------------------------------
# certified_values
# --------------------------------------------------------------------------

# The multi-sums cost 1-5 s a verdict and that cost moves by 2x between the
# acceptance points, so they run at one fixed point each: a seeded point
# would move a round's time by more than the bounds allow.
MULTI_SUM_POINTS = {
    "AWGF": {"q": F(1, 2), "a": F(1, 3), "b": F(1, 5), "c": F(2, 3), "d": F(1, 7), "w": F(9, 10), "t": F(1, 5)},
    "TRIPLE_32PF": {"u": F(1, 10), "t": F(1, 8), "w": F(9, 10), "a": F(1, 2), "b": F(1, 3),
                    "c": F(1, 2), "d": F(1, 5), "q": F(1, 3)},
    "QUAD_COR13": {"u": F(1, 10), "t": F(1, 8), "w": F(9, 10), "a": F(1, 2), "b": F(1, 3),
                   "c": F(1, 2), "d": F(1, 5), "q": F(1, 3)},
    "WD_APPELL": {"q": F(1, 3), "u": F(1, 10), "t": F(1, 8), "a": F(1, 2), "b": F(1, 3), "d": F(9, 10)},
}

# The pair products keep the acceptance base points and draw only z: a drawn
# base point moves the median verdict time by 15% from seed to seed.
PAIR_BASE_POINTS = {
    "SCHLOSSER_T4": {"q": F(1, 2), "a": F(1, 3), "b": F(7, 10)},
    "SRIV_JAIN": {"q": F(1, 2), "a": F(1, 3), "b": F(1, 4)},
    "JACKSON_CLAUSEN": {"p": F(7, 10), "a": F(1, 2), "b": F(2, 5)},
    "NASSRALLAH_1": {"p": F(7, 10), "a": F(1, 2), "b": F(2, 5)},
    "NASSRALLAH_2": {"p": F(7, 10), "a": F(1, 2), "b": F(2, 5)},
    "THM21": {"p": F(7, 10), "a": F(1, 2), "b": F(2, 5)},
    "TRIVIAL_21_32": {"p": F(7, 10), "a": F(1, 2)},
    "SRIVASTAVA_313": {"q": F(1, 2), "a": F(1, 3), "b": F(1, 4)},
    "T515": {"q": F(1, 2), "a": F(1, 3), "c": F(1, 5)},
    "T516": {"q": F(1, 2), "a": F(1, 3), "c": F(1, 5)},
    "T517": {"q": F(1, 2), "a": F(1, 3), "c": F(1, 5)},
    "T518": {"q": F(1, 2), "a": F(1, 3), "c": F(1, 5)},
    "CAYLEY_ORR_A": {"q": F(1, 2), "a": F(1, 3), "b": F(1, 5), "c": F(2, 7)},
    "CAYLEY_ORR_B": {"q": F(1, 2), "a": F(1, 3), "b": F(1, 5), "c": F(1, 7)},
}
PAIR_Z_PER_ID = 4

# The approx-only sweeps cost 0.02-0.15 s a verdict depending on the q their
# sampler draws, which moved the median verdict time by 40% from seed to
# seed; they run at the fixed sweep seed 7 (q = 2/5).
APPROX_SWEEP_SEED = 7

CLASSICAL_SIDES = {
    "CLAUSEN": lambda a, b, h: ([2 * a, 2 * b, a + b], [a + b + h, 2 * a + 2 * b], 1),
    "ORR_A": lambda a, b, h: ([2 * a, 2 * b, a + b], [2 * a + 2 * b - 1, a + b + h], 1),
    "ORR_B": lambda a, b, h: ([2 * a, 2 * b - 1, a + b - 1], [2 * a + 2 * b - 2, a + b - h], 1),
    "BAILEY_211": lambda a, b, h: ([(a + b) / 2, (a + b + 1) / 2], [a + h, b + h, a + b], 2),
    "COR_3F2": lambda a, b, h: ([2 * a + 1, 2 * b + 1, a + b + 1], [2 * a + 2 * b + 1, a + b + 3 * h], 1),
}


def _classical_rhs(which: str, P: dict):
    """The right-hand rFs of a classical product formula, via mpmath.hyper."""
    upper, lower, power = CLASSICAL_SIDES[which](P["a"], P["b"], F(1, 2))
    z = P["z"] if power == 1 else P["z"] ** 2 / 4
    with mp.workprec(R.REF_BITS):
        return "rhs", mpmath.hyper([R.to_mp(x) for x in upper], [R.to_mp(x) for x in lower], R.to_mp(z))


def _near_pole_op():
    NP = R.NEAR_POLE
    reference = R.near_pole_reference()
    spec = series.SeriesSpec.make(
        [ExactScalar(x) for x in NP["upper"]], [ExactScalar(x) for x in NP["lower"]],
        QBase.of(ExactScalar(NP["q"])), ExactScalar(NP["z"]))

    def check(result, rng):
        value, _ = result
        right = R.close(value.value, reference, NP["eps"])
        # a wrong value under a certificate that claims eps is the kept fault
        return (0 if right else 1), []

    return Op("near-pole 2phi1 certificate", 1,
              lambda: series.eval_phi_nonterminating(spec, NP["eps"]), check)


def _check_approx_sweep(ident):
    def check(reports, rng):
        problems = []
        if len(reports) != 9:
            problems.append(f"{ident}: {len(reports)} reports, expected 9")
        for rep in reports:
            problems += _report_problems(rep, APPROX_EPS)
            if R.registry_lhs(ident, _params_of(rep.params), rep.n) != R.parse_exact(rep.lhs):
                problems.append(f"{ident} n={rep.n}: reference sum differs")
        return 0, problems

    return check


def certified_values_round(rng: random.Random, out: Path, small: bool) -> list:
    """PAIR_Z_PER_ID groups of pair products (one z per identity each), with
    one multi-sum and an approx-only sweep after each group, so that the
    pair verdicts behind the median are spread over the whole round."""

    def pair_op(ident, P):
        return Op(f"value {ident} {P}", 1,
                  lambda: products.verify_product(ident, P, eps=PAIR_EPS),
                  _check_value_report(ident, PAIR_EPS, lambda: R.product_value_side(ident, P)))

    groups = []
    for _ in range(1 if small else PAIR_Z_PER_ID):
        group = []
        for ident in tuple(PAIR_BASE_POINTS)[:2] if small else PAIR_BASE_POINTS:
            group.append(pair_op(ident, dict(PAIR_BASE_POINTS[ident], **{_z_name(ident): _small_z(rng)})))
        groups.append(group)
    extras = [[] for _ in groups]
    if not small:
        for group_extra, (ident, P) in zip(extras, MULTI_SUM_POINTS.items()):
            group_extra.append(pair_op(ident, P))
        for group_extra, ident in zip(extras[::2], identities.APPROX_ONLY_IDS):
            group_extra.append(Op(f"approx sweep {ident} seed={APPROX_SWEEP_SEED}", 9,
                                  lambda ident=ident: identities.sweep(
                                      ident, trials=1, seed=APPROX_SWEEP_SEED, n_range=range(9),
                                      eps=APPROX_EPS),
                                  _check_approx_sweep(ident)))
    ops = [op for group, extra in zip(groups, extras) for op in group + extra]

    # a + b off {1/2, 1} keeps every lower rFs parameter off the poles 0, -1, ...
    while True:
        P = {"a": _unit(rng), "b": _unit(rng), "z": F(1, rng.randint(2, 6))}
        if P["a"] + P["b"] not in (F(1, 2), 1):
            break
    for which in (("CLAUSEN",) if small else products.CLASSICAL_IDS):
        ops.append(Op(f"classical {which} {P}", 1,
                      lambda which=which: products.classical_limit_check(which, P, eps=CLASSICAL_EPS),
                      _check_value_report(which, CLASSICAL_EPS,
                                          lambda which=which: _classical_rhs(which, P))))
    ops.append(_near_pole_op())
    return ops


# --------------------------------------------------------------------------
# contour_integrals
# --------------------------------------------------------------------------

INTEGRAL_POINTS = {
    "IR_SCHLOSSER": ({"q": F(1, 2), "a": F(1, 3), "b": F(7, 10), "z": F(1, 5)}, F(4, 5)),
    "IR_SRIV_JAIN": ({"q": F(1, 2), "a": F(1, 3), "b": F(2, 5), "z": F(1, 5)}, F(3, 5)),
    "IR_NASSRALLAH_1": ({"p": F(7, 10), "a": F(1, 2), "b": F(2, 5), "z": F(1, 5)}, F(1, 2)),
    "IR_NASSRALLAH_2": ({"p": F(7, 10), "a": F(1, 2), "b": F(2, 5), "z": F(1, 5)}, F(1, 2)),
    "IR_THM21": ({"p": F(7, 10), "a": F(1, 2), "b": F(2, 5), "z": F(1, 5)}, F(1, 2)),
}


def contour_integrals_round(rng: random.Random, out: Path, small: bool) -> list:
    ops = []
    for ident in integrals.INTEGRAL_IDS:
        if small and ident != "IR_THM21":
            continue
        params, sigma = INTEGRAL_POINTS[ident]
        eps = 1e-8 if small else INTEGRAL_EPS.get(ident, DEFAULT_INTEGRAL_EPS)
        ops.append(Op(f"integral {ident} eps={eps:g}", 1,
                      lambda ident=ident, params=params, sigma=sigma, eps=eps: integrals.verify_integral_rep(
                          ident, params, sigma=sigma, f=F(3, 2), eps=eps),
                      _check_value_report(ident, eps,
                                          lambda ident=ident, params=params: (
                                              "rhs", R.integral_series_side(ident, params)),
                                          other_eps=eps / 2)))
    return ops


ROUNDS = {
    "exact_sweep": exact_sweep_round,
    "exact_coefficients": exact_coefficients_round,
    "certified_values": certified_values_round,
    "contour_integrals": contour_integrals_round,
}
