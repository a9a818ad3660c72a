"""Verification reports and the versioned report file (JSON / CSV).

The JSON file is written by :func:`_json`, not by :mod:`json`, to the same
bytes: those of ``json.dumps(payload, sort_keys=True, indent=2)`` and a final
newline, which ``json.loads`` reads back.  Given an ``indent``, ``json.dumps``
leaves its C encoder for the pure-Python one, a generator per nesting level
that yields every separator and indentation as its own chunk, and takes about
1.8 times as long on a sweep's report file.  ``_json`` builds each level's
text with one join, writes each scalar by its type, quoting strings with the
same C ``encode_basestring_ascii``, and renders numbers as ``json`` does
(``int.__repr__``, ``float.__repr__``, ``NaN`` and ``Infinity``).  Dict keys
must be str, as they are in the schema.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

import mpmath

from .qkernel import ApproxScalar, ExactScalar

SCHEMA_VERSION = "1"

CSV_COLUMNS = [
    "identity_id",
    "n",
    "params",
    "mode",
    "lhs",
    "rhs",
    "abs_err",
    "rel_err",
    "pass",
    "degenerate",
    "truncation_terms",
    "quadrature_nodes",
]


@dataclass
class VerificationReport:
    identity_id: str
    params: dict
    n: Optional[int]
    mode: str  # "exact" | "approx"
    lhs: str
    rhs: str
    abs_err: Optional[float]
    rel_err: Optional[float]
    passed: bool
    degenerate: bool = False
    truncation_terms: Optional[int] = None
    quadrature_nodes: Optional[int] = None
    note: str = ""

    def row(self) -> list:
        return [
            self.identity_id,
            "" if self.n is None else self.n,
            ";".join(f"{k}={v}" for k, v in sorted(self.params.items())),
            self.mode,
            self.lhs,
            self.rhs,
            _err_str(self.abs_err),
            _err_str(self.rel_err),
            str(self.passed).lower(),
            str(self.degenerate).lower(),
            "" if self.truncation_terms is None else self.truncation_terms,
            "" if self.quadrature_nodes is None else self.quadrature_nodes,
        ]


def _err_str(e: Optional[float]) -> str:
    return "" if e is None else repr(float(e))


def make_report(
    identity_id: str, params: dict, lhs, rhs, verdict: tuple, mode: str = "approx",
    n: Optional[int] = None, **fields,
) -> VerificationReport:
    """The report of one check: the parameters and both sides shown by str
    (values, or descriptions for coefficient checks), the (passed, abs_err,
    rel_err) verdict, and the optional fields degenerate, truncation_terms,
    quadrature_nodes and note."""
    passed, abs_err, rel_err = verdict
    return VerificationReport(
        identity_id=identity_id,
        params={k: str(v) for k, v in sorted(params.items())},
        n=n,
        mode=mode,
        lhs=str(lhs),
        rhs=str(rhs),
        abs_err=abs_err,
        rel_err=rel_err,
        passed=passed,
        **fields,
    )


def matched(ok: bool) -> tuple:
    """The verdict of an exact check that compares coefficient lists rather
    than two values: no error on a match, an unmeasured one otherwise."""
    return (True, 0.0, 0.0) if ok else (False, None, None)


def compare_exact(lhs: ExactScalar, rhs: ExactScalar):
    """(passed, abs_err, rel_err) under strict equality."""
    if lhs == rhs:
        return True, 0.0, 0.0
    abs_err = (lhs - rhs).abs_upper()
    return False, abs_err, abs_err / max(1.0, rhs.abs_upper())


def compare_approx(lhs, rhs, eps: float):
    """(passed, abs_err, rel_err) with pass iff rel_err <= eps.

    rel_err is measured against max(1, |rhs|), matching the certified-error
    convention used by the evaluators.
    """
    bits = max([64] + [v.precision_bits for v in (lhs, rhs) if isinstance(v, ApproxScalar)])
    with mpmath.mp.workprec(bits + 10):
        la, ra = (mpmath.mpc(v.value if isinstance(v, ApproxScalar) else v) for v in (lhs, rhs))
        abs_err = float(abs(la - ra))
        rel_err = abs_err / max(1.0, float(abs(ra)))
    return rel_err <= eps, abs_err, rel_err


_FLOATS = {math.inf: "Infinity", -math.inf: "-Infinity"}


def _float(o: float) -> str:
    return "NaN" if o != o else _FLOATS.get(o) or float.__repr__(o)


# each scalar's text as json writes it, by exact type; a subclass of str,
# int or float is written as its base is
_SCALARS = {str: _quote, int: int.__repr__, float: _float, type(None): lambda o: "null",
            bool: lambda o: "true" if o else "false"}


def _json(o, pad: str = "\n") -> str:
    """o as ``json.dumps(o, sort_keys=True, indent=2)`` writes it, its inner
    lines indented by pad + two spaces."""
    scalar = _SCALARS.get(type(o))
    if scalar is not None:
        return scalar(o)
    inner = pad + "  "
    if isinstance(o, dict):
        if not o:
            return "{}"
        # most values are scalars: each is written here, without a call of _json
        items = [f"{_quote(k)}: {_SCALARS[type(v)](v) if type(v) in _SCALARS else _json(v, inner)}"
                 for k, v in sorted(o.items())]
        return "{" + inner + f",{inner}".join(items) + pad + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return "[" + inner + f",{inner}".join([_json(v, inner) for v in o]) + pad + "]"
    for base in (str, int, float):
        if isinstance(o, base):
            return _SCALARS[base](o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


@dataclass
class ReportFile:
    """Versioned container for verification runs; serializes deterministically."""

    tool_version: str
    config: dict
    entries: list = field(default_factory=list)
    schema_version: str = SCHEMA_VERSION

    def add(self, report: VerificationReport):
        self.entries.append(report)

    @property
    def summary(self) -> dict:
        total, passed = len(self.entries), sum(1 for e in self.entries if e.passed)
        degenerate = sum(1 for e in self.entries if e.degenerate)
        return dict(total=total, passed=passed, failed=total - passed, degenerate=degenerate)

    @property
    def all_passed(self) -> bool:
        return self.summary["failed"] == 0

    def to_json(self) -> str:
        """The file as JSON: the bytes of ``json.dumps(payload, sort_keys=True,
        indent=2)`` and a newline, written by :func:`_json` without the
        pure-Python encoder that ``indent`` selects in :mod:`json` (see the
        module docstring)."""
        payload = {
            "schema_version": self.schema_version,
            "tool_version": self.tool_version,
            "config": self.config,
            "reports": [vars(e) for e in self.entries],  # the fields, not a deep copy
            "summary": self.summary,
        }
        return _json(payload) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")  # RFC 4180
        writer.writerow(CSV_COLUMNS)
        for e in self.entries:
            writer.writerow(e.row())
        return buf.getvalue()

    @staticmethod
    def from_json(text: str) -> "ReportFile":
        payload = json.loads(text)
        return ReportFile(payload["tool_version"], payload["config"],
                          [VerificationReport(**e) for e in payload["reports"]],
                          payload["schema_version"])
