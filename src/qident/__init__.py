"""qident: exact and certified-precision verification of q-series identities."""

from .qkernel import (
    ApproxScalar,
    ExactScalar,
    I,
    QBase,
    TruncationCert,
    format_exact,
    parse_exact,
    qpoch_finite,
    qpoch_infinite,
    qpoch_list,
)
from .series import (
    BalanceClass,
    SeriesSpec,
    eval_phi_nonterminating,
    eval_phi_terminating,
    eval_qappell_phi1,
    eval_rfs,
)
from .askey_wilson import AWParams, eval_aw

__version__ = "0.1.0"

__all__ = [
    "ApproxScalar",
    "AWParams",
    "BalanceClass",
    "ExactScalar",
    "I",
    "QBase",
    "SeriesSpec",
    "TruncationCert",
    "__version__",
    "eval_aw",
    "eval_phi_nonterminating",
    "eval_phi_terminating",
    "eval_qappell_phi1",
    "eval_rfs",
    "format_exact",
    "parse_exact",
    "qpoch_finite",
    "qpoch_infinite",
    "qpoch_list",
]
