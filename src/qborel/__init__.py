"""Executable constructions for countable equivalence relations on
quotient Borel spaces over effective carriers.

Two carrier kinds are supported end to end: finite indexed sets and the
integer line with semilinear subsets and piecewise translations. On top
of them sit quotient spaces, enumerated equivalence relations, the
two-bijection representation pipeline, group actions with cocycles, and
a decidable symbolic sequence space, all with certificate output via
the command line.
"""

from .actions import (
    Cocycle,
    FiniteGroup,
    GroupAction,
    cocycle_from_free_action,
    excess_domain,
    freeness_witness,
    involution_fiber_report,
    normalizer,
    orbit_equivalence,
    verify_cocycle,
)
from .cantor import (
    EventuallyPeriodicWord,
    GalleryInstance,
    TruncatedModel,
    canonicalize,
    e0_equivalent,
    et_equivalent,
    example_gallery,
    letter_action,
    make_restricted_model,
    make_truncated_model,
)
from .carriers import (
    FiniteCarrier,
    IntCarrier,
    IntSet,
    PiecewiseTranslation,
    format_intset,
    format_ptmap,
    parse_intset,
    parse_ptmap,
)
from .errors import QBorelError
from .feldman_moore import (
    classical_construction,
    cover_finite,
    cover_int,
    greedy_extend,
    greedy_extend_int,
    levels_finite,
    levels_int,
    lusin_novikov_decompose,
    psi_split,
    psi_split_int,
    quotient_construction,
    quotient_construction_int,
    weak_uniformize,
    weak_uniformize_int,
)
from .quotient import (
    FiniteQuotient,
    IntClassQuotient,
    IntQuotient,
    Partition,
    QMap,
    compose,
    descend,
    lift,
    product,
    saturate,
)
from .relations import (
    EnumeratedEquivalence,
    IntBlockRelation,
    chain_witness,
    generate_equivalence,
    index2_involution,
    index_over,
    min_selector,
    selector_to_transversal,
    tail_equivalence,
    verify_enumeration,
)

__version__ = "0.1.0"
