"""The package namespace: every exported name resolves, none is listed twice,
and the helpers that only tests use live in the tests."""

import schubstab
import schubstab.cli
from schubstab.bimodule import BimoduleElement, GraphTwistEntry
from schubstab.lattice import ExactComplex, LatticeVector
from schubstab.perms import Permutation
from schubstab.poly import Poly
from schubstab.stability import SplitSheafP1


def test_all_names_resolve_and_are_unique():
    assert len(schubstab.__all__) == len(set(schubstab.__all__)) == 43
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
        (schubstab.perms, "length_additive_factorizations"),
        (schubstab.poly, "x_to_neg_y"),
        (schubstab.poly, "demazure_word_count"),
        (schubstab.poly, "MAX_LONGEST_WORDS"),
        (schubstab.poly, "_Terms"),
        (schubstab.poly, "_integral"),
        (schubstab.poly, "is_symmetric"),
        (schubstab.schubert, "expand_in_schubert_basis"),
        (schubstab.schubert, "_dual_terms"),
        (schubstab.schubert, "_top_divided_difference"),
        (schubstab.schubert, "_expand_monomial"),
        (schubstab.schubert, "_integer_terms"),
        (Poly, "coefficient"),
        (Poly, "_key"),
        (Poly, "y"),
        (schubstab, "reduced_words"),
        (schubstab, "is_symmetric"),
        (schubstab, "expand_in_schubert_basis"),
        (ExactComplex, "of"),
        (ExactComplex, "is_zero"),
        (ExactComplex, "__add__"),
        (ExactComplex, "__sub__"),
        (ExactComplex, "__neg__"),
        (ExactComplex, "__mul__"),
        (ExactComplex, "__rmul__"),
        (BimoduleElement, "__add__"),
        (BimoduleElement, "__neg__"),
        (BimoduleElement, "__sub__"),
        (GraphTwistEntry, "to_json"),
        (Permutation, "is_identity"),
        (SplitSheafP1, "summands"),
        (schubstab.stability, "BAYER_FACT"),
        (schubstab.bimodule, "f_map"),
        (schubstab.schubert, "specialization_check"),
        (schubstab.poly, "specialize_y_to_x"),
        (schubstab.lattice, "v_of_point"),
        (schubstab.lattice, "rank_deg"),
        (schubstab.cli, "_json_text"),
        (schubstab, "f_map"),
        (schubstab, "specialization_check"),
        (schubstab, "specialize_y_to_x"),
        (schubstab, "v_of_point"),
        (schubstab, "rank_deg"),
        *((LatticeVector, name) for name in (
            "values", "component", "is_zero", "_combine", "__add__", "__sub__", "__neg__", "scale",
        )),
    ):
        assert not hasattr(module, name), name
