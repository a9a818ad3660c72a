"""Command-line driver: list, verify, sweep, report.

Parameters are exact rational literals ("p/q" or Gaussian "p/q+r/s*i") even
for the certified checks, so every run is reproducible bit for bit.  Exit
codes: 0 all pass, 1 verification failure, 2 configuration error, 3 numerical
non-convergence.

``CHECKS`` holds each listed id's check and the optional flags it reads:
--n/--n-range for the exact checks (the terminating summations, the special
values, and a product id with exact sides, whose value check --n replaces by
its exact z^0..z^n check), --sigma/--f for the integral representations.
verify refuses any other of these flags with exit 2, naming it and the id.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from typing import Callable, NamedTuple

from . import __version__
from .errors import DomainError, NoConvergence, QIdentError, UnknownIdentity, check_eps
from . import askey_wilson, identities, integrals, products
from .qkernel import DEFAULT_PRECISION_BITS, ApproxScalar, parse_exact
from .reporting import ReportFile

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NOCONV = 3


def _parse_params(text: str) -> dict:
    """"q=1/2,sa=1/3" -> {"q": Fraction(1,2), ...}; Gaussian values stay exact."""
    out = {}
    if not text:
        return out
    for piece in text.split(","):
        if "=" not in piece:
            raise DomainError(f"parameter {piece!r} is not of the form name=value")
        name, _, value = piece.partition("=")
        name = name.strip()
        if name in out:
            raise DomainError(f"parameter {name!r} is given twice")
        out[name] = _parse_scalar(f"parameter {name!r}:", value)
    return out


def _parse_scalar(name: str, text: str):
    """An exact literal (:func:`parse_exact`), as a Fraction when real."""
    try:
        scalar = parse_exact(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"{name} {text!r} is not a rational literal") from None
    return scalar if not scalar.is_real() else scalar.re


def _parse_n_range(text: str) -> list[int]:
    """"2..5" -> [2, 3, 4, 5]; "3" -> [3]."""
    lo, dots, hi = text.partition("..")
    try:
        n_values = list(range(int(lo), int(hi if dots else lo) + 1))
    except ValueError:
        raise DomainError(f"--n-range {text!r} is not of the form n or lo..hi") from None
    if not n_values:
        raise DomainError(f"--n-range {text!r} is empty")
    return n_values


def _echo_config(args: argparse.Namespace) -> dict:
    keep = ("command", "identity", "params", "n", "n_range", "precision_bits", "eps", "seed",
            "trials", "sigma", "f", "format")
    return {k: getattr(args, k) for k in keep if getattr(args, k, None) is not None}


def _emit(report_file: ReportFile, args) -> int:
    """Write the report file where --output and --format say; its exit code.

    --output is overwritten in place: the report is written from the start of
    the file, and a regular file is then cut to the report's length (a device
    such as /dev/null is not cut).  Truncating an old report to zero before
    writing costs more than the write itself on a filesystem that discards
    freed blocks.  Like a truncating open, this is not atomic: a reader can
    see a partly written report.
    """
    text = report_file.to_csv() if args.format == "csv" else report_file.to_json()
    if args.output:
        try:
            with open(os.open(args.output, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
                fh.write(text.encode("utf-8"))
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate()
        except OSError as exc:
            raise DomainError(f"cannot write report {args.output!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)
    return EXIT_OK if report_file.all_passed else EXIT_FAIL


def _eps(args) -> dict:
    """--eps when given: a check given no --eps uses its own default."""
    return {} if args.eps is None else {"eps": args.eps}


def _options(args) -> dict:
    return {"precision_bits": args.precision_bits, **_eps(args)}


def _n_values(ident: str, args) -> list[int]:
    """The degrees of --n or --n-range, which an exact check needs one of."""
    if args.n is not None and args.n_range:
        raise DomainError("--n and --n-range exclude each other; give one of them")
    n_values = _parse_n_range(args.n_range) if args.n_range else [args.n]
    if n_values == [None]:
        raise DomainError(f"verify needs --n or --n-range for {ident}")
    return n_values


def _verify_summation(ident: str, params: dict, args) -> list:
    return [identities.verify(ident, params, n, **_eps(args)) for n in _n_values(ident, args)]


def _verify_special_value(ident: str, params: dict, args) -> list:
    return [identities.exact_report(ident, params, n, functools.partial(
        askey_wilson.eval_special_value, ident, params, n)) for n in _n_values(ident, args)]


def _verify_product(ident: str, params: dict, args) -> list:
    """The certified value check, or with --n/--n-range the exact check through each z^n."""
    if args.n is None and args.n_range is None:
        return [products.verify_product(ident, params, **_options(args))]
    return [products.product_coefficient_check(ident, params, n) for n in _n_values(ident, args)]


def _verify_integral(ident: str, params: dict, args) -> list:
    if args.sigma is None or args.f is None:
        raise DomainError("integral representations need --sigma and --f")
    sigma, f = _parse_scalar("--sigma", args.sigma), _parse_scalar("--f", args.f)
    return [integrals.verify_integral_rep(ident, params, sigma, f, **_options(args))]


class _Check(NamedTuple):
    """An id `list` prints: its section, the text after the id, the run of its
    check, (id, params, parsed arguments) -> reports, whether `sweep` draws its
    parameters, and the optional verify flags (argparse dests) the run reads."""

    section: str
    detail: str
    run: Callable
    sweeps: bool = False
    flags: tuple = ()


_DEGREE, _CONTOUR = ("n", "n_range"), ("sigma", "f")
CHECKS = {
    rec.id: _Check(
        "terminating summations",
        f"  params({', '.join(rec.param_names)})  -- {rec.anchor}",
        _verify_summation,
        sweeps=True,
        flags=_DEGREE,
    )
    for rec in map(identities.lookup, identities.list_ids())
}
CHECKS.update(
    (ident, _Check(section, "", run, flags=flags if ident in exact else ()))
    for section, ids, run, flags, exact in (
        ("product transformations and generating functions", products.PRODUCT_IDS,
         _verify_product, _DEGREE, (*products.COEFF_CHECK_IDS, "AWGF")),
        ("classical limit targets", products.CLASSICAL_IDS,
         lambda ident, params, args: [products.classical_limit_check(ident, params, **_eps(args))],
         (), ()),
        ("integral representations", integrals.INTEGRAL_IDS, _verify_integral, _CONTOUR,
         integrals.INTEGRAL_IDS),
        ("quadratic special values", askey_wilson.SPECIAL_VALUE_IDS, _verify_special_value,
         _DEGREE, askey_wilson.SPECIAL_VALUE_IDS),
    )
    for ident in ids
)


def _check(ident: str) -> _Check:
    if ident not in CHECKS:
        raise UnknownIdentity(f"no identity registered under {ident!r}")
    return CHECKS[ident]


def cmd_list(args) -> int:
    section = None
    for ident, check in CHECKS.items():
        if check.section != section:
            section = check.section
            print(f"{section}:")
        print(f"  {ident}{check.detail}")
    return EXIT_OK


def cmd_verify(args) -> int:
    check = _check(args.identity)
    for flag in ("n", "n_range", "sigma", "f"):
        if getattr(args, flag) is not None and flag not in check.flags:
            raise DomainError(f"--{flag.replace('_', '-')} does not apply to {args.identity}")
    params = _parse_params(args.params or "")
    reports = check.run(args.identity, params, args)
    rf = ReportFile(tool_version=__version__, config=_echo_config(args), entries=reports)
    return _emit(rf, args)


def cmd_sweep(args) -> int:
    if not _check(args.identity).sweeps:
        raise DomainError("sweep drives the terminating-summation registry only")
    n_values = _parse_n_range(args.n_range or "0..8")
    reports = identities.sweep(args.identity, trials=args.trials, seed=args.seed,
                               n_range=n_values, **_eps(args))
    rf = ReportFile(tool_version=__version__, config=_echo_config(args), entries=reports)
    return _emit(rf, args)


def cmd_report(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            rf = ReportFile.from_json(fh.read())
    except OSError as exc:
        raise DomainError(f"cannot read report {args.input!r}: {exc.strerror}") from None
    return _emit(rf, args)


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qident",
        description="exact and certified-precision verification of q-series identities",
    )
    parser.add_argument("--version", action="version", version=f"qident {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="print every registered identity ID")
    p_list.set_defaults(func=cmd_list)

    def common(p):
        p.add_argument("identity", help="identity ID (see `qident list`)")
        p.add_argument("--params", help="comma-separated name=rational pairs")
        p.add_argument(
            "--precision-bits", type=int, default=DEFAULT_PRECISION_BITS, dest="precision_bits"
        )
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--output", help="write the report to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_verify = sub.add_parser("verify", help="check one identity at one point")
    common(p_verify)
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--n-range", dest="n_range", help="e.g. 0..8")
    p_verify.add_argument("--sigma", help="contour scale for integral representations")
    p_verify.add_argument("--f", help="theta parameter for integral representations")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="seeded random sweep over one identity")
    common(p_sweep)
    p_sweep.add_argument("--trials", type=int, default=25)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--n-range", dest="n_range", default="0..8")
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report", help="re-render a stored JSON report")
    p_report.add_argument("input", help="path to a JSON report file")
    p_report.add_argument("--output")
    p_report.add_argument("--format", choices=("json", "csv"), default="csv")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        eps, bits = getattr(args, "eps", None), getattr(args, "precision_bits", None)
        if eps is not None:
            check_eps(eps)  # the value as given, before any check derives its own
        if bits is not None and bits < ApproxScalar.MIN_BITS:
            raise DomainError(f"--precision-bits must be >= {ApproxScalar.MIN_BITS}, got {bits}")
        # a value's rounding at precision_bits is a few units of 2^-precision_bits
        # relative, so a smaller eps would fail a true identity
        if eps is not None and bits is not None and eps < 2.0 ** (16 - bits):
            raise DomainError(f"--eps {eps!r} is below what --precision-bits {bits} resolves: "
                              f"eps < 2^(16 - precision_bits) = {2.0 ** (16 - bits):.3g}")
        return args.func(args)
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except (QIdentError, ValueError) as exc:  # every engine error but NoConvergence
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
