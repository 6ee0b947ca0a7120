"""Workbench for finite pi-calculus processes.

Parsing, early transition semantics, strong/weak bisimilarity, weighted
depth and norm metrics, stutter-free normalization, and unique parallel
decomposition checking at desk scale.
"""

from .errors import (
    Aborted,
    CyclicLts,
    Inconclusive,
    MalformedSum,
    NormalizationIncomplete,
    NotFinite,
    ParseError,
    PiwbError,
    TooLarge,
    UnknownDemo,
)
from .syntax import (
    NIL,
    TAU,
    TAU_ACT,
    Action,
    BoundOut,
    FreeOut,
    In,
    Input,
    Match,
    Nil,
    Output,
    Par,
    Prefixed,
    Process,
    Repl,
    Restrict,
    Sum,
    Tau,
    TauAction,
    alpha_canonical,
    alpha_equivalent,
    bound_names,
    free_names,
    is_replication_free,
    names,
    prefix_count,
    substitute,
    term_size,
    validate,
)
from .parser import ParseError, SourceSpan, action_text, parse, pretty
from .semantics import NameUniverse, transitions
from .lts import (
    Lts,
    action_weight,
    build_lts,
    build_lts_bounded,
    depth,
    is_deadlocked,
    norm,
    state_depths,
)
from .equivalence import (
    STRONG,
    WEAK,
    BehaviorIndex,
    Partition,
    bisim,
    bisimilar_to_nil,
    naive_bisim_oracle,
    refine,
    strong_bisim,
    weak_bisim,
)
from .normalize import (
    BoundOutputPrefix,
    HeadNormalForm,
    expand_hnf,
    has_stuttering,
    stutter_free,
    weak_depth,
)
from .decompose import (
    Decomposition,
    NoSplitWithinUniverse,
    SplitFound,
    SweepReport,
    TermUniverse,
    Verdict,
    decomposition,
    find_split,
    multiset_eq_mod_bisim,
    parallel_factors,
    scope_narrow,
    upd_sweep,
    verify_upd,
)
from .gen import TermGen

__version__ = "0.1.0"
