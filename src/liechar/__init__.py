"""Exact character calculus for reductive groups in positive characteristic.

Weyl characters, Frobenius twists, decomposition numbers, composition
multiplicities over the finite groups of Lie type, and mechanical checks
of the Chastkofsky-Jantzen multiplicity identities.

Importing the package loads no submodule: each public name below is
imported from its submodule on first access (PEP 562), so a CLI command
compiles and runs only the modules it uses.
"""

__version__ = "0.1.0"

#: The routes of finite.steinberg_multiplicity, here so that the CLI parser
#: can offer them without loading finite.
STEINBERG_METHODS = ("direct", "good_filtration", "simple_basis")

_EXPORTS = {
    "characters": (
        "Character",
        "formal_dual",
        "frobenius_twist",
        "steinberg_character",
        "to_weyl_basis",
        "weyl_character",
    ),
    "decomp": ("DecompositionProvider", "load_decomposition_data", "to_simple_basis"),
    "errors": (
        "CoverageError",
        "DataValidationError",
        "DivisionFailure",
        "LiecharError",
        "NonDominantError",
        "NonInvariantError",
        "NotFiniteTypeError",
        "RankMismatchError",
    ),
    "finite": (
        "finite_composition_multiplicities",
        "finite_simple_multiplicities",
        "nu_bound",
        "steinberg_multiplicity",
        "steinberg_nu_sum",
    ),
    "pims": (
        "QrData",
        "barq_multiplicities",
        "character_divide",
        "cj_lhs",
        "cj_rhs",
        "cj_table",
        "induced_socle_multiplicity",
        "jantzen_identity_check",
        "theorem45a_socle_check",
    ),
    "rootdata": ("BUILTIN_CARTAN_MATRICES", "CartanMatrix", "RootSystem"),
}

# Each public name -> the submodule that defines it; a submodule's own name
# maps to itself.
_SOURCE = {
    name: module for module, names in _EXPORTS.items() for name in (module, *names)
}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SOURCE})
