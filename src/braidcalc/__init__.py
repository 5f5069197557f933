"""Braid word calculus.

Free group words, braid words with equality decided by the Dynnikov
action on the laminations of the punctured disk, strand deletion and
insertion, Markov combing, Cohen and Brunnian predicates, lifting
constructions, the face-system solver, and small exactly-verified
finite models of surface braid groups.
"""

from .braids import (
    BraidWord,
    BudgetExceededError,
    Perm,
    half_twist,
    is_pure,
    same_braid,
)
from .cohen import (
    Braidlike,
    NotCohenError,
    StrandPartition,
    band_commutator,
    brunnian_generator,
    common_face,
    delta_square_word,
    is_brunnian,
    is_cohen,
    is_generalized_cohen,
    is_unary,
    unary_factor,
)
from .combing import (
    DEFAULT_COMPONENT_BUDGET,
    CombedForm,
    PureAWord,
    comb,
    conj_rule,
)
from .expr import (
    NotAWordError,
    ParseError,
    format_aword,
    format_braid,
    parse,
)
from .faces import coface_on_pure_gen
from .finite_models import (
    FiniteGroupModel,
    build_p1_rp2,
    build_p2_rp2,
    build_p3_s2,
    derive_rp2_face_assignments,
    enumerate_brunnian,
    enumerate_cohen,
    h_element_check,
    trivial_model,
)
from .lifting import (
    full_lift,
    hopf_decompose,
    james_hopf,
    reassemble,
    solve_cohen_system,
    tau_spread,
)
from .words import GroupWord, a_sym, commutator

__all__ = [
    "Braidlike",
    "BraidWord",
    "BudgetExceededError",
    "CombedForm",
    "DEFAULT_COMPONENT_BUDGET",
    "FiniteGroupModel",
    "GroupWord",
    "NotAWordError",
    "NotCohenError",
    "ParseError",
    "Perm",
    "PureAWord",
    "StrandPartition",
    "a_sym",
    "band_commutator",
    "brunnian_generator",
    "build_p1_rp2",
    "build_p2_rp2",
    "build_p3_s2",
    "coface_on_pure_gen",
    "comb",
    "common_face",
    "commutator",
    "conj_rule",
    "delta_square_word",
    "derive_rp2_face_assignments",
    "enumerate_brunnian",
    "enumerate_cohen",
    "format_aword",
    "format_braid",
    "full_lift",
    "h_element_check",
    "half_twist",
    "hopf_decompose",
    "is_brunnian",
    "is_cohen",
    "is_generalized_cohen",
    "is_pure",
    "is_unary",
    "james_hopf",
    "parse",
    "reassemble",
    "same_braid",
    "solve_cohen_system",
    "tau_spread",
    "trivial_model",
    "unary_factor",
]
