"""Exact Coxeter group combinatorics.

Cap-bounded ShortLex enumeration of Coxeter systems, strong Bruhat order,
parabolic decompositions, fixed subgroups of involutive diagram
automorphisms, and minimal-coset-element analysis, with verification
suites built on independent oracles.
"""

from .core import (
    DEFAULT_CAP,
    INF,
    CoxeterSystem,
    Element,
    bruhat_leq,
    build_system,
    descents,
    element_from_word,
    enumerate_ball,
    inverse,
    inversion_set,
    is_reflection,
    longest_element,
    multiply,
    parabolic_decompose,
    reflections,
)
from .cosets import (
    CosetAnalysis,
    DominationResult,
    EscalationTrace,
    StepVerdict,
    all_cosets,
    connect_minimals,
    coset,
    dominate,
    dominated_minimal,
    escalation_trace,
    is_minimal,
    min_graph_dot,
    min_set,
)
from .descriptions import GroupDescription, RealizedCase, named_matrix, product_matrix
from .errors import (
    AutomorphismError,
    BadElementWord,
    BondMismatch,
    CapExceeded,
    CoxeterError,
    DescriptionError,
    InfiniteParabolic,
    MalformedMatrix,
    NotFixed,
    NotInWL,
    NotInvolutive,
    NotMinimal,
    NotSameCoset,
    OutOfEnumeratedRegion,
    OutOfL,
    TheoremViolation,
)
from .twisted import (
    DiagramAutomorphism,
    GeneratorParity,
    TwistedGenerator,
    TwistedSubgroup,
    apply_theta,
    enumerate_fixed_subgroup,
    is_fixed,
    orbits,
    skipped_orbits,
    twisted_generators,
    twisted_length,
    twisted_reduced_word,
    validate_automorphism,
)
from .verify import (
    VerificationReport,
    VerificationRun,
    default_config,
    oracle_bruhat,
    run_suite,
)

__version__ = "0.1.0"
