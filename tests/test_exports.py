"""The package namespace: every exported name resolves, none is listed twice,
and the helpers that only tests use live in the tests."""

import schubstab
from schubstab.bimodule import BimoduleElement
from schubstab.lattice import ExactComplex
from schubstab.poly import Poly


def test_all_names_resolve_and_are_unique():
    assert len(schubstab.__all__) == len(set(schubstab.__all__))
    missing = [name for name in schubstab.__all__ if not hasattr(schubstab, name)]
    assert missing == []


def test_test_only_helpers_are_not_in_the_package():
    assert not hasattr(schubstab.poly, "set_y_to_zero")
    assert not hasattr(Poly, "total_degree")
    assert not hasattr(BimoduleElement, "left_multiply")
    assert not hasattr(ExactComplex, "abs_squared")
    for module, name in (
        (schubstab.perms, "reduced_words"),
        (schubstab.perms, "longest_reduced_word_count"),
        (schubstab.perms, "MAX_REDUCED_WORDS_RANK"),
        (schubstab.poly, "demazure_word_count"),
        (schubstab.poly, "MAX_LONGEST_WORDS"),
        (schubstab.poly, "_Terms"),
        (schubstab.poly, "_integral"),
        (Poly, "coefficient"),
        (Poly, "_key"),
        (schubstab, "reduced_words"),
    ):
        assert not hasattr(module, name), name
