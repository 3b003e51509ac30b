"""Desk-scale simulator for vacillatory learning in the limit."""

from .construction import Construction, DiagonalView
from .criteria import (
    Status,
    Text,
    Trace,
    Verdict,
    canonical_text,
    check_txtfex,
    check_txtfext,
    run_learner,
    verify_witness,
)
from .encodings import (
    content,
    finite_set_decode,
    finite_set_encode,
    is_prefix,
    pair,
    unpair,
)
from .learners import (
    ConstantLearner,
    FreshLengthLearner,
    GapParityLearner,
    Learner,
    LengthParityLearner,
    ProfiledLearner,
)
from .reports import canonical_json, make_report
from .stabilizing import (
    StabWitness,
    base_qualifies,
    check_stabilizing,
    stab_witness_valid,
)
from .suite import SuiteContext, run_battery, run_suite
from .universe import (
    DiscoveryCursor,
    Enumerator,
    FiniteSetEnumerator,
    Registry,
    StepFunctionEnumerator,
    UnionEnumerator,
    check_monotone,
)
from .workspace import SAMPLE_LEARNERS, Workspace

__version__ = "0.1.0"

__all__ = [
    "Construction",
    "DiagonalView",
    "Status",
    "Text",
    "Trace",
    "Verdict",
    "canonical_text",
    "check_txtfex",
    "check_txtfext",
    "run_learner",
    "verify_witness",
    "content",
    "finite_set_decode",
    "finite_set_encode",
    "is_prefix",
    "pair",
    "unpair",
    "ConstantLearner",
    "FreshLengthLearner",
    "GapParityLearner",
    "Learner",
    "LengthParityLearner",
    "ProfiledLearner",
    "canonical_json",
    "make_report",
    "StabWitness",
    "base_qualifies",
    "check_stabilizing",
    "stab_witness_valid",
    "SuiteContext",
    "run_battery",
    "run_suite",
    "DiscoveryCursor",
    "Enumerator",
    "FiniteSetEnumerator",
    "Registry",
    "StepFunctionEnumerator",
    "UnionEnumerator",
    "check_monotone",
    "SAMPLE_LEARNERS",
    "Workspace",
]
