"""Executable constructions for countable equivalence relations on
quotient Borel spaces over effective carriers.

Two carrier kinds are supported end to end: finite indexed sets and the
integer line with semilinear subsets and piecewise translations. On top
of them sit quotient spaces, enumerated equivalence relations, the
two-bijection representation pipeline, group actions with cocycles, and
a decidable symbolic sequence space, all with certificate output via
the command line.

Each public name is imported from its module on first use (PEP 562), so
`import qborel` loads no submodule and a command loads only what it runs.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "actions": "Cocycle FiniteGroup GroupAction cocycle_from_free_action excess_domain "
    "freeness_witness involution_fiber_report normalizer orbit_equivalence verify_cocycle",
    "cantor": "EventuallyPeriodicWord GalleryInstance TruncatedModel canonicalize "
    "e0_equivalent et_equivalent example_gallery letter_action make_restricted_model "
    "make_truncated_model",
    "carriers": "IntBlockRelation IntSet PiecewiseTranslation format_intset format_ptmap "
    "parse_intset parse_ptmap",
    "errors": "QBorelError",
    "feldman_moore": "classical_construction cover_finite cover_int greedy_extend "
    "greedy_extend_int levels_int lusin_novikov_decompose psi_split "
    "psi_split_int quotient_construction quotient_construction_int weak_uniformize "
    "weak_uniformize_int",
    "quotient": "Partition",
    "relations": "EnumeratedEquivalence chain_witness enumerated_partition generate_equivalence "
    "index2_involution index_over min_selector selector_to_transversal tail_equivalence "
    "verify_enumeration",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
