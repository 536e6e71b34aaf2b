"""The public surface of the qborel package."""

import types

import qborel

# one name per line, so that adding or removing an export is an edit here
EXPORTS = [
    "Cocycle",
    "EnumeratedEquivalence",
    "EventuallyPeriodicWord",
    "FiniteGroup",
    "GalleryInstance",
    "GroupAction",
    "IntBlockRelation",
    "IntClassQuotient",
    "IntSet",
    "Partition",
    "PiecewiseTranslation",
    "QBorelError",
    "TruncatedModel",
    "canonicalize",
    "chain_witness",
    "classical_construction",
    "cocycle_from_free_action",
    "cover_finite",
    "cover_int",
    "e0_equivalent",
    "et_equivalent",
    "example_gallery",
    "excess_domain",
    "format_intset",
    "format_ptmap",
    "freeness_witness",
    "generate_equivalence",
    "greedy_extend",
    "greedy_extend_int",
    "index2_involution",
    "index_over",
    "involution_fiber_report",
    "letter_action",
    "levels_finite",
    "levels_int",
    "lusin_novikov_decompose",
    "make_restricted_model",
    "make_truncated_model",
    "min_selector",
    "normalizer",
    "orbit_equivalence",
    "parse_intset",
    "parse_ptmap",
    "psi_split",
    "psi_split_int",
    "quotient_construction",
    "quotient_construction_int",
    "selector_to_transversal",
    "tail_equivalence",
    "verify_cocycle",
    "verify_enumeration",
    "weak_uniformize",
    "weak_uniformize_int",
]


def test_public_exports_are_pinned():
    public = sorted(
        name for name, value in vars(qborel).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == EXPORTS


CLI_EXPORTS = [
    "CHECKERS",
    "Certificate",
    "reverify",
    "run_check",
    "InstanceFile",
    "parse_instance",
    "COMMANDS",
    "build_parser",
    "main",
]


def test_cli_exports_are_pinned():
    import qborel.cli

    assert qborel.cli.__all__ == CLI_EXPORTS
