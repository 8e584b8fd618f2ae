"""The package namespace: every public name resolves on first access to its
submodule's object, and a star import binds the same names as when the
package imported every submodule up front."""

import importlib

import pytest

import liechar

# The names `from liechar import *` bound when __init__ imported each
# submodule eagerly: the public names and the submodules themselves.
STAR_NAMES = [
    "BUILTIN_CARTAN_MATRICES",
    "CartanMatrix",
    "Character",
    "CoverageError",
    "DataValidationError",
    "DecompositionProvider",
    "DivisionFailure",
    "LiecharError",
    "NonDominantError",
    "NonInvariantError",
    "NotFiniteTypeError",
    "QrData",
    "RankMismatchError",
    "RootSystem",
    "barq_multiplicities",
    "character_divide",
    "characters",
    "cj_lhs",
    "cj_rhs",
    "cj_table",
    "decomp",
    "errors",
    "finite",
    "finite_composition_multiplicities",
    "finite_simple_multiplicities",
    "formal_dual",
    "frobenius_twist",
    "induced_socle_multiplicity",
    "jantzen_identity_check",
    "load_decomposition_data",
    "nu_bound",
    "pims",
    "rootdata",
    "steinberg_character",
    "steinberg_multiplicity",
    "steinberg_nu_sum",
    "theorem45a_socle_check",
    "to_simple_basis",
    "to_weyl_basis",
    "weyl_character",
]


def test_star_import_binds_the_pinned_names():
    namespace = {}
    exec("from liechar import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == STAR_NAMES
    for name, value in namespace.items():
        assert value is getattr(liechar, name)


def test_dir_lists_every_name():
    public = {name for name in dir(liechar) if not name.startswith("_")}
    # Importing any submodule (cli, say) binds it on the package; nothing
    # else may join the exported names.
    extra = public - {*STAR_NAMES, "STEINBERG_METHODS"}
    assert {getattr(getattr(liechar, n), "__name__", n) for n in extra} == {
        f"liechar.{n}" for n in extra
    }
    assert public >= set(STAR_NAMES)


@pytest.mark.parametrize("name", STAR_NAMES)
def test_name_is_its_submodules_object(name):
    source = liechar._SOURCE[name]
    module = importlib.import_module(f"liechar.{source}")
    expected = module if name == source else getattr(module, name)
    assert getattr(liechar, name) is expected


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        liechar.nope


def test_steinberg_methods_have_one_definition():
    from liechar import finite

    assert finite.STEINBERG_METHODS is liechar.STEINBERG_METHODS
