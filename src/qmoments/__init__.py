"""Exact q-series toolkit for partition-indexed polynomial bases and
moments of random finite abelian p-groups."""

__version__ = "0.1.0"

from .errors import (
    ModeError,
    ParamMismatch,
    ParseError,
    QmomentsError,
    ResourceBoundError,
    UsageError,
)
from .groups import (
    PGroup,
    aut_order,
    count_injective_homs,
    count_subgroups_of_type,
    eval_on_group,
    torsion_order,
)
from .hall_littlewood import HLValue, b_lambda, hl_p, principal_spec
from .identities import (
    IDENTITY_IDS,
    IdentityCase,
    VerificationReport,
    load_manifest,
    run_suite,
    verify,
)
from .moments import (
    ABELIAN,
    CLASS_GROUP_IMAGINARY,
    CLASS_GROUP_REAL,
    SELMER,
    SHA,
    TYPE_S,
    MomentQuery,
    RankProfile,
    coherence_check,
    conjecture_table,
    m_u,
    m_u_float,
    m_u_s,
    m_u_s_float,
    pj_rank_prob,
)
from .partitions import (
    Partition,
    parse_partition,
    partitions_of,
    subpartitions,
)
from .qrat import UniRat
from .rbasis import c_coeff, mirror_poly, qprime_skew, rlambda_poly

__all__ = [
    "ABELIAN",
    "CLASS_GROUP_IMAGINARY",
    "CLASS_GROUP_REAL",
    "HLValue",
    "IDENTITY_IDS",
    "IdentityCase",
    "ModeError",
    "MomentQuery",
    "PGroup",
    "ParamMismatch",
    "ParseError",
    "Partition",
    "QmomentsError",
    "RankProfile",
    "ResourceBoundError",
    "SELMER",
    "SHA",
    "TYPE_S",
    "UniRat",
    "UsageError",
    "VerificationReport",
    "aut_order",
    "b_lambda",
    "c_coeff",
    "coherence_check",
    "conjecture_table",
    "count_injective_homs",
    "count_subgroups_of_type",
    "eval_on_group",
    "hl_p",
    "load_manifest",
    "m_u",
    "m_u_float",
    "m_u_s",
    "m_u_s_float",
    "mirror_poly",
    "parse_partition",
    "partitions_of",
    "pj_rank_prob",
    "principal_spec",
    "qprime_skew",
    "rlambda_poly",
    "run_suite",
    "subpartitions",
    "torsion_order",
    "verify",
    "__version__",
]
