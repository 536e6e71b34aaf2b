"""The public surface of the qborel package."""

import sys
import types

import pytest

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
    "enumerated_partition",
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
    # names are served on first use, so dir() lists them before vars() holds them
    public = sorted(
        name for name in dir(qborel)
        if not name.startswith("_") and not isinstance(getattr(qborel, name), types.ModuleType)
    )
    assert public == EXPORTS
    for name in EXPORTS:
        value = getattr(qborel, name)
        assert value.__module__.startswith("qborel.")
        assert getattr(sys.modules[value.__module__], name) is value


@pytest.mark.parametrize("name", ["nonexistent", "invert_map"])
def test_unknown_name_is_an_attribute_error(name):
    # invert_map is defined in feldman_moore, but it is not exported
    with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
        getattr(qborel, name)


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from qborel import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == EXPORTS


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
