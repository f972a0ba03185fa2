"""Exact cohomology of moment-angle complexes and their Massey products.

Every public name is imported from its submodule on first use (PEP 562), so
``import moment_angle`` loads no submodule and a request loads only the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SUBMODULE_OF = {
    **dict.fromkeys(
        ("SimplicialComplex", "from_maximal_faces", "from_minimal_nonfaces", "induced_subcomplex",
         "join", "maximal_faces", "stellar_vertex_cut", "structure_report"),
        "complexes",
    ),
    **dict.fromkeys(
        ("AmbientMismatchError", "CapacityError", "GhostVertexError", "InputError",
         "NotACocycleError", "VerificationError"),
        "errors",
    ),
    **dict.fromkeys(("FamilySpec", "family_complex", "polygon_nerve"), "families"),
    **dict.fromkeys(
        ("BuildingSet", "FormalityVerdict", "Graph", "associahedron_nerve", "formality_classify",
         "graphical_building_set", "nested_set_complex"),
        "graphs",
    ),
    **dict.fromkeys(
        ("BettiTable", "bigraded_betti_table", "multigraded_betti"),
        "hochster",
    ),
    **dict.fromkeys(("KoszulCochain", "cohomology_class", "component_basis"), "koszul"),
    **dict.fromkeys(
        ("DefiningSystem", "MasseyClassInput", "MasseyInput", "MasseyReport",
         "build_defining_system", "canonical_class", "massey_product", "massey_value",
         "search_triple_products", "strict_conditions_check", "triple_value_set",
         "verify_family_massey"),
        "massey",
    ),
    **dict.fromkeys(("j_construction",), "multiwedge"),
    **dict.fromkeys(
        ("CohomologyProfile", "Rational", "SparseMatrix", "coboundary_matrix",
         "reduced_cohomology_rank", "reduced_cohomology_ranks", "solve_linear"),
        "rational_linalg",
    ),
    **dict.fromkeys(("RealCochain", "doubling_cochain", "real_cohomology_ranks"), "real_cochains"),
}
_SUBMODULES = {*_SUBMODULE_OF.values(), "cli"}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name):
    """Import a public name, or a submodule, on first access and keep it here."""
    if name in _SUBMODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_SUBMODULE_OF[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
