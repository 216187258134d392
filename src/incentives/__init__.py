"""Monoids of invoice totals under adjustment constraints.

A constraint set C of integer adjustments is honoured by a submonoid M
of the naturals when s + t + c stays in M for all non-zero s, t in M and
all c in C.  This package decides admissibility, computes smallest
closures two independent ways, models the pricing sequences that
motivate the definition, and enumerates the tree of all numerical
semigroups honouring a constraint set.
"""

from .closure import (
    MULTIPLE,
    NUMERICAL,
    TRIVIAL,
    ClosureResult,
    IncentiveSpec,
    closure_membership,
    closure_msg,
    half_theta_is_incentive,
    is_admissible,
    is_incentive,
    theta,
)
from .errors import (
    BoundTooLarge,
    DomainError,
    GcdNotOne,
    InternalInvariant,
    InvalidGenerators,
    InvalidModel,
    InvalidRemoval,
    InvalidSequence,
    NotAdmissible,
    RootMissesX,
    ValueOutOfRange,
)
from .monoid import (
    GenSet,
    NumericalSemigroup,
    gcd_of,
    membership,
    monoid_from_generators,
    msg,
    numerical_semigroup,
)
from .sequences import (
    SequenceModel,
    invoice,
    is_ab_sequence,
    m_ab_membership,
    m_ab_set,
    verify_theorem5,
)
from .tree import (
    MAX_DEPTH,
    MAX_FROBENIUS,
    MAX_GENUS,
    Decomposition,
    EnumerationBound,
    IncentiveTree,
    TreeNode,
    brute_force_family,
    child_viable,
    children,
    decompose,
    enumerate_tree,
    is_finite_family,
    max_numerical_incentive,
    msg_after_removal,
)

__version__ = "0.1.0"

__all__ = [
    "BoundTooLarge",
    "ClosureResult",
    "Decomposition",
    "DomainError",
    "EnumerationBound",
    "GcdNotOne",
    "GenSet",
    "IncentiveSpec",
    "IncentiveTree",
    "InternalInvariant",
    "InvalidGenerators",
    "InvalidModel",
    "InvalidRemoval",
    "InvalidSequence",
    "MAX_DEPTH",
    "MAX_FROBENIUS",
    "MAX_GENUS",
    "MULTIPLE",
    "NUMERICAL",
    "NotAdmissible",
    "NumericalSemigroup",
    "RootMissesX",
    "SequenceModel",
    "TRIVIAL",
    "TreeNode",
    "ValueOutOfRange",
    "brute_force_family",
    "child_viable",
    "children",
    "closure_membership",
    "closure_msg",
    "decompose",
    "enumerate_tree",
    "gcd_of",
    "half_theta_is_incentive",
    "invoice",
    "is_ab_sequence",
    "is_admissible",
    "is_finite_family",
    "is_incentive",
    "m_ab_membership",
    "m_ab_set",
    "max_numerical_incentive",
    "membership",
    "monoid_from_generators",
    "msg",
    "msg_after_removal",
    "numerical_semigroup",
    "theta",
    "verify_theorem5",
]
