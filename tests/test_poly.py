"""Polynomial ring layer: arithmetic laws, the x-action, divided differences.

Frozen values were computed by hand from the defining formulas (the divided
difference of x_1^2 is the second complete homogeneous polynomial, etc.) and
are asserted literally.  Results built through the unvalidated internal
constructor are checked against re-validated copies and against sympy, and
the packed core against an unpacked tuple-and-Fraction oracle, with
exponents at the top of a field.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import schubstab.poly as poly_module
from schubstab.perms import Permutation, symmetric_group
from schubstab.poly import (
    Poly,
    _descent_words,
    _SuffixTable,
    check_demazure_rank,
    divide_exact,
    divided_difference,
    negate_x,
    permute_x,
    random_poly,
    specialize_y_to_x,
    sum_of_products,
    verify_demazure_relations,
    widen_with_y,
    x_to_y,
)
from test_perms import reduced_words


def x(i, n):
    return Poly.x(i, n)


def y(i, nx, ny):
    """The variable y_i (1-indexed) in the ring of nx x- and ny y-variables."""
    exp = [0] * (nx + ny)
    exp[nx + i - 1] = 1
    return Poly.monomial(exp, 1, nx, ny)


def total_degree(f):
    """Max total degree of a term, -1 for the zero polynomial: the degree
    oracle of the divided-difference and expansion tests."""
    return max((sum(e) for e in f.terms), default=-1)


def set_y_to_zero(f):
    """Ring map y_i -> 0 into the pure-x ring: the oracle by which double
    Schubert polynomials recover single ones."""
    return Poly(f.nx, 0, {e[: f.nx]: c for e, c in f.terms.items() if not any(e[f.nx :])})


def demazure_along_word(letters, f):
    """Composite along an explicit word, rightmost letter applied first.

    The word-by-word oracle for the certificate's suffix table; it looks
    divided_difference up in the module, so a patched operator reaches it.
    """
    out = f
    for a in reversed(tuple(letters)):
        out = poly_module.divided_difference(a, out)
    return out


def canonical_reduced_word(w):
    """Lexicographically smallest reduced word of w, by greedy choice of the
    smallest left descent."""
    letters = []
    cur = w
    while cur.length():
        a = cur.left_descents()[0]
        letters.append(a)
        cur = Permutation.simple(a, cur.n) * cur
    return tuple(letters)


def demazure(w, f):
    """The composite divided difference of w along its canonical word.

    The chain oracle for generation: schubert_poly(w) and double_schubert(w)
    are this operator of w^{-1} w_0 applied to their seeds, each from scratch.
    """
    if w.n != f.nx:
        raise ValueError(f"rank mismatch: permutation of {w.n}, polynomial has {f.nx} x-variables")
    return demazure_along_word(canonical_reduced_word(w), f)


# ------------------------------------------------------------ ring basics


def test_canonical_form_drops_zeros():
    f = Poly(2, 0, {(1, 0): 1, (0, 1): 0})
    assert list(f.terms) == [(1, 0)]
    assert Poly(2, 0, {}).is_zero
    assert (x(1, 2) - x(1, 2)).is_zero


def test_construction_validation():
    with pytest.raises(ValueError):
        Poly(2, 0, {(1,): 1})
    with pytest.raises(ValueError):
        Poly(2, 0, {(-1, 0): 1})
    with pytest.raises(ValueError):
        Poly.x(3, 2)
    for e in (2.0, Fraction(2), True):
        with pytest.raises(TypeError, match="must hold ints"):
            Poly(2, 0, {(e, 1): 3})
        with pytest.raises(TypeError, match="must hold ints"):
            Poly.monomial((1, e), 1, 2)


def test_arithmetic_laws_random():
    rng = random.Random(11)
    for _ in range(25):
        f = random_poly(rng, 3, max_degree=4, n_terms=4)
        g = random_poly(rng, 3, max_degree=4, n_terms=4)
        h = random_poly(rng, 3, max_degree=4, n_terms=4)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == Poly.zero(3)
        assert 2 * f == f + f
        assert Fraction(1, 2) * (f + f) == f


def test_scalar_coercion_and_equality():
    one = Poly.one(2)
    assert one == 1
    assert one + 1 == 2
    assert x(1, 2) ** 2 == x(1, 2) * x(1, 2)
    assert Poly.const(Fraction(3, 2), 1) * 2 == 3


@pytest.mark.parametrize(
    "left, right, equal",
    [
        (Poly.zero(2), 0, True),
        (Poly.one(2), 1, True),
        (Poly.x(1, 2), 0, False),
        (Poly.const(Fraction(1, 2), 2), Fraction(1, 2), True),
        (Poly.const(Fraction(1, 2), 2), Fraction(1, 3), False),
        (Poly.x(1, 2) + Poly.x(2, 2), Poly.x(2, 2) + Poly.x(1, 2), True),
        (Poly.one(2), Poly.one(3), False),
        (Poly.one(2), Poly.one(2, 1), False),
        (Poly.one(2), "1", False),
        (Poly.one(2), None, False),
        (Poly.one(2), True, False),
    ],
)
def test_equality_against_each_kind_of_operand(left, right, equal):
    assert (left == right) is equal
    assert (right == left) is equal
    assert (left != right) is not equal


def test_a_poly_equals_itself_and_refuses_other_operands():
    f = x(1, 2) * x(2, 2) - Fraction(1, 3)
    assert f == f
    assert not f != f
    assert f.__eq__("1") is NotImplemented
    for op in ("__add__", "__sub__", "__mul__"):
        assert getattr(f, op)("x1") is NotImplemented
        assert getattr(f, op)(True) is NotImplemented
    assert f.__eq__(True) is NotImplemented
    with pytest.raises(TypeError):
        f * "x1"
    with pytest.raises(TypeError):
        f * True


def test_power_takes_a_nonnegative_int():
    f = x(1, 2) + 1
    assert f ** 0 == Poly.one(2) and f ** 2 == f * f
    for k in (True, False, 2.0, Fraction(2)):
        with pytest.raises(TypeError, match="power must be an int"):
            f ** k
    with pytest.raises(ValueError, match="power must be at least 0"):
        f ** -1


def test_degrees():
    f = x(1, 3) ** 2 * x(2, 3) + x(3, 3)
    assert total_degree(f) == 3
    assert total_degree(Poly.zero(3)) == -1
    assert max(e[0] for e in f.terms) == 2
    assert max(e[2] for e in f.terms) == 1
    assert sorted({sum(e) for e in f.terms}) == [1, 3]
    assert Poly(3, 0, {e: c for e, c in f.terms.items() if sum(e) == 1}) == x(3, 3)


def test_str_rendering():
    f = x(1, 2) ** 2 - x(2, 2) + Poly.const(Fraction(3, 2), 2)
    assert str(f) == "x1^2 - x2 + 3/2"
    assert str(Poly.zero(1)) == "0"


# ------------------------------------------------------------- the action


def test_permute_x_moves_variables():
    w = Permutation((2, 3, 1))
    # x_i -> x_{w(i)}: x_1 becomes x_2.
    assert permute_x(w, x(1, 3)) == x(2, 3)
    assert permute_x(w, x(3, 3)) == x(1, 3)
    with pytest.raises(ValueError):
        permute_x(Permutation((2, 1)), x(1, 3))


def test_permute_x_is_ring_automorphism_and_group_action():
    rng = random.Random(5)
    p = Permutation((3, 1, 2))
    q = Permutation((2, 3, 1))
    for _ in range(10):
        f = random_poly(rng, 3, max_degree=4, n_terms=4)
        g = random_poly(rng, 3, max_degree=4, n_terms=4)
        assert permute_x(p, f * g) == permute_x(p, f) * permute_x(p, g)
        assert permute_x(p, f + g) == permute_x(p, f) + permute_x(p, g)
        assert permute_x(p, permute_x(q, f)) == permute_x(p * q, f)


def test_y_block_is_fixed_by_the_action():
    f = y(1, 2, 2) + Poly.x(1, 2, 2)
    g = permute_x(Permutation((2, 1)), f)
    assert g == y(1, 2, 2) + Poly.x(2, 2, 2)


# --------------------------------------------------- divided differences


def test_divided_difference_frozen_examples():
    # (x1 - x2)/(x1 - x2) = 1
    assert divided_difference(1, x(1, 2)) == Poly.one(2)
    # x1*x2 is invariant, so the numerator vanishes.
    assert divided_difference(1, x(1, 2) * x(2, 2)) == Poly.zero(2)
    # (x1^2 - x2^2)/(x1 - x2) = x1 + x2
    assert divided_difference(1, x(1, 2) ** 2) == x(1, 2) + x(2, 2)
    # In three variables: (x1^2 x2 - x1^2 x3)/(x2 - x3) = x1^2
    assert divided_difference(2, x(1, 3) ** 2 * x(2, 3)) == x(1, 3) ** 2
    with pytest.raises(ValueError):
        divided_difference(2, x(1, 2))
    with pytest.raises(ValueError):
        divided_difference(0, x(1, 2))


def test_divided_difference_of_zero_checks_the_index_and_keeps_the_ring():
    for j in (0, 3):
        with pytest.raises(ValueError):
            divided_difference(j, Poly.zero(3))
    for nx, ny in ((3, 0), (3, 2)):
        for j in (1, 2):
            out = divided_difference(j, Poly.zero(nx, ny))
            assert out.is_zero
            assert (out.nx, out.ny) == (nx, ny)
            assert out == Poly.zero(nx, ny)


def test_divided_difference_kills_symmetric_and_drops_degree():
    rng = random.Random(23)
    for _ in range(10):
        f = random_poly(rng, 3, max_degree=5, n_terms=5)
        sym = f + permute_x(Permutation.simple(1, 3), f)
        sym = sym + permute_x(Permutation.simple(2, 3), sym)  # not fully symmetric
        for j in (1, 2):
            g = divided_difference(j, f)
            # Output is s_j-invariant.
            assert permute_x(Permutation.simple(j, 3), g) == g
    # Degree drop on homogeneous non-invariant input.
    f = x(1, 3) ** 3 * x(2, 3)
    g = divided_difference(1, f)
    assert len({sum(e) for e in f.terms}) == 1
    assert total_degree(g) == total_degree(f) - 1


def test_divided_difference_output_invariance_implies_square_zero():
    rng = random.Random(29)
    for _ in range(10):
        f = random_poly(rng, 4, max_degree=5, n_terms=5)
        for j in (1, 2, 3):
            assert divided_difference(j, divided_difference(j, f)).is_zero


def test_demazure_frozen_examples():
    assert demazure(Permutation.identity(2), x(1, 2)) == x(1, 2)
    # Rank 2 longest element on x1: (x1 - x2)/(x1 - x2) = 1.
    assert demazure(Permutation.longest(2), x(1, 2)) == Poly.one(2)
    # Rank 3 longest element sends the staircase monomial to 1.
    assert demazure(Permutation.longest(3), x(1, 3) ** 2 * x(2, 3)) == Poly.one(3)
    with pytest.raises(ValueError):
        demazure(Permutation.longest(3), x(1, 2))


def test_demazure_word_independence_spot():
    rng = random.Random(31)
    w0 = Permutation.longest(3)
    for _ in range(5):
        f = random_poly(rng, 3, max_degree=5, n_terms=5)
        assert demazure_along_word((1, 2, 1), f) == demazure_along_word((2, 1, 2), f)
        assert demazure(w0, f) == demazure_along_word((1, 2, 1), f)


def test_verify_demazure_relations_certificate():
    cert = verify_demazure_relations(3, trials=6, seed=42)
    assert cert["check"] == "demazure_relations"
    assert cert["violations"] == []
    assert cert["relations"]["square_zero"] == 12
    assert cert["relations"]["braid"] == 6
    # Deterministic for a fixed seed.
    assert verify_demazure_relations(3, trials=6, seed=42) == cert
    assert verify_demazure_relations(3, trials=6, seed=43) != cert


def test_suffix_table_matches_word_by_word():
    for n in (2, 3, 4):
        rng = random.Random(100 + n)
        for _ in range(3):
            f = random_poly(rng, n)
            table = _SuffixTable(f)
            suffixes = set()
            for w in symmetric_group(n):
                for word in reduced_words(w):
                    table[word]
                    suffixes.update(word[k:] for k in range(len(word) + 1))
            assert set(table) == suffixes
            for word, value in table.items():
                assert value == demazure_along_word(word, f)


def _trial_slices(g):
    """The trials of a stack g in Q[x_1..x_n, y_1], keyed by their tag, the
    exponent of y_1, each as a pure-x polynomial."""
    parts = {}
    for exp, c in g.terms.items():
        parts.setdefault(exp[-1], {})[exp[:-1]] = c
    return {t: Poly(g.nx, 0, terms) for t, terms in parts.items()}


def _planted(faults):
    """divided_difference with planted faults: for each (j, bad, extra), d_j g
    gains extra when g is the pure-x polynomial bad, and on a stack g it
    gains y_1^t extra for every trial t whose slice of g is bad, so a
    stacked certificate meets the fault exactly where the per-trial one
    does."""
    real = divided_difference

    def wrong(j, g):
        out = real(j, g)
        for fault_j, bad, extra in faults:
            if j != fault_j:
                continue
            if g.ny == 0:
                if g == bad:
                    out = out + extra
                continue
            for t, part in _trial_slices(g).items():
                if part == bad:
                    tagged = {exp + (t,): c for exp, c in extra.terms.items()}
                    out = out + Poly(g.nx, 1, tagged)
        return out

    return wrong


def _plain_word_violations(n, polys, max_length=math.inf):
    """The reduced-word-independence loop with word-by-word composites, over
    the w of length at most max_length."""
    out = []
    for w in symmetric_group(n):
        if w.length() > max_length:
            break
        words = reduced_words(w)
        if len(words) < 2:
            continue
        for t, f in enumerate(polys):
            base = demazure_along_word(words[0], f)
            for letters in words[1:]:
                if demazure_along_word(letters, f) != base:
                    out.append(
                        {
                            "relation": "reduced_word_independence",
                            "w": w.to_json(),
                            "word": list(letters),
                            "trial": t,
                        }
                    )
    return out


@pytest.mark.parametrize("n", [3, 4])
def test_certificate_names_a_wrong_divided_difference(monkeypatch, n):
    """An operator wrong only for j = 1 on d_2(f) of trial 0 is named."""
    trials, seed = 2, 5
    rng = random.Random(seed)
    polys = [random_poly(rng, n) for _ in range(trials)]
    bad_input = divided_difference(2, polys[0])
    # The word (2, 1, 2) applies d_2 next, which kills constants but sends
    # x_3 to -1.
    wrong = _planted([(1, bad_input, Poly.x(3, n))])
    monkeypatch.setattr(poly_module, "divided_difference", wrong)
    cert = verify_demazure_relations(n, trials, seed)
    named = [v for v in cert["violations"] if v["relation"] == "reduced_word_independence"]
    w = list(Permutation.longest(3).word) + list(range(4, n + 1))
    fault = {"relation": "reduced_word_independence", "w": w, "word": [2, 1, 2], "trial": 0}
    assert fault in named
    assert named == _plain_word_violations(n, polys)
    assert all(v["trial"] == 0 for v in named)


def _is_subsequence(short, long):
    rest = iter(long)
    return all(any(item == other for other in rest) for item in short)


def test_certificate_names_the_shortest_failure_of_a_planted_fault(monkeypatch):
    """A fault that survives later divided differences makes many words of
    longer permutations disagree.  The certificate compares one word per
    left descent with the first word, so it names a subsequence of the
    word-by-word violations, none for a clean trial, and every shortest
    failing w of a faulty one.

    Both lists are in length order and are cut at length 6, all of S4,
    which keeps those claims: at n = 6 the word-by-word oracle would apply
    all 1 095 266 reduced words of S6 per trial, and up to length 6 it
    applies 2 432."""
    trials, seed, max_length = 3, 5, 6
    for n in (4, 6):
        rng = random.Random(seed)
        polys = [random_poly(rng, n) for _ in range(trials)]
        planted = Poly.monomial((4, 2, 1) + (0,) * (n - 3), 1, n)
        wrong = _planted([(1, polys[0], planted), (3, polys[2], planted)])
        monkeypatch.setattr(poly_module, "divided_difference", wrong)
        cert = verify_demazure_relations(n, trials, seed)
        named = [
            v
            for v in cert["violations"]
            if v["relation"] == "reduced_word_independence"
            and Permutation(v["w"]).length() <= max_length
        ]
        oracle = _plain_word_violations(n, polys, max_length)
        assert len(oracle) > len(named)
        assert _is_subsequence(named, oracle)
        for t in range(trials):
            mine = [Permutation(v["w"]) for v in named if v["trial"] == t]
            theirs = [Permutation(v["w"]) for v in oracle if v["trial"] == t]
            assert bool(mine) == bool(theirs) == (t != 1)
            if theirs:
                shortest = min(w.length() for w in theirs)
                assert min(w.length() for w in mine) == shortest
                assert {w for w in mine if w.length() == shortest} == {
                    w for w in theirs if w.length() == shortest
                }


@pytest.mark.parametrize(
    "n, trials, seed, calls",
    [(5, 1, 7, 248), (4, 20, 5, 42), (6, 2, 7, 1810), (7, 1, 7, 15132), (5, 70, 3, 248)],
)
def test_certificate_makes_one_divided_difference_per_descent(monkeypatch, n, trials, seed, calls):
    """Per certificate, whatever trials is: one per (w, left descent),
    n!(n-1)/2 in all, plus d_j d_j F and d_j of the stacked products for
    each j.  At 70 trials the tags need fields wider than the default."""
    made = []
    real = divided_difference

    def counted(j, g):
        made.append(j)
        return real(j, g)

    monkeypatch.setattr(poly_module, "divided_difference", counted)
    verify_demazure_relations(n, trials, seed)
    descents = math.factorial(n) * (n - 1) // 2
    assert len(made) == calls == descents + 2 * (n - 1)


def _plain_relation_violations(n, polys):
    """Square-zero, braid, commuting and Leibniz checks with every
    composite applied afresh, in the certificate's order."""
    dd = poly_module.divided_difference
    out = []
    for t, f in enumerate(polys):
        for j in range(1, n):
            if not dd(j, dd(j, f)).is_zero:
                out.append({"relation": "square_zero", "j": j, "trial": t})
        for j in range(1, n - 1):
            if dd(j, dd(j + 1, dd(j, f))) != dd(j + 1, dd(j, dd(j + 1, f))):
                out.append({"relation": "braid", "j": j, "trial": t})
        for i in range(1, n):
            for j in range(i + 2, n):
                if dd(i, dd(j, f)) != dd(j, dd(i, f)):
                    out.append({"relation": "commuting", "pair": [i, j], "trial": t})
    for t, f in enumerate(polys):
        g = polys[(t + 1) % len(polys)]
        for j in range(1, n):
            sj = Permutation.simple(j, n)
            if dd(j, f * g) != dd(j, f) * g + permute_x(sj, f) * dd(j, g):
                out.append({"relation": "leibniz", "j": j, "trial": t})
    return out


def _per_trial_certificate(n, trials, seed):
    """verify_demazure_relations with one suffix table per trial polynomial,
    each relation compared trial by trial: the oracle of the stacked
    certificate.  It looks divided_difference up in the module, so a
    patched operator reaches it."""
    rng = random.Random(seed)
    tables = [_SuffixTable(random_poly(rng, n)) for _ in range(trials)]
    violations: list[dict] = []
    counts = {
        "square_zero": 0,
        "braid": 0,
        "commuting": 0,
        "leibniz": 0,
        "reduced_word_independence": 0,
    }

    for t, table in enumerate(tables):
        for j in range(1, n):
            counts["square_zero"] += 1
            if not table[(j, j)].is_zero:
                violations.append({"relation": "square_zero", "j": j, "trial": t})
        for j in range(1, n - 1):
            counts["braid"] += 1
            if table[(j, j + 1, j)] != table[(j + 1, j, j + 1)]:
                violations.append({"relation": "braid", "j": j, "trial": t})
        for i in range(1, n):
            for j in range(i + 2, n):
                counts["commuting"] += 1
                if table[(i, j)] != table[(j, i)]:
                    violations.append({"relation": "commuting", "pair": [i, j], "trial": t})

    for t, f_table in enumerate(tables):
        g_table = tables[(t + 1) % len(tables)]
        f, g = f_table[()], g_table[()]
        fg = f * g
        for j in range(1, n):
            counts["leibniz"] += 1
            lhs = poly_module.divided_difference(j, fg)
            sj_f = permute_x(Permutation.simple(j, n), f)
            rhs = sum_of_products(((f_table[(j,)], g), (sj_f, g_table[(j,)])), n)
            if lhs != rhs:
                violations.append({"relation": "leibniz", "j": j, "trial": t})

    for w, words, several in _descent_words(n):
        if not several:
            continue
        for t, table in enumerate(tables):
            counts["reduced_word_independence"] += 1
            base = table[words[0]]
            for letters in words[1:]:
                if table[letters] != base:
                    violations.append(
                        {
                            "relation": "reduced_word_independence",
                            "w": w.to_json(),
                            "word": list(letters),
                            "trial": t,
                        }
                    )
    return {
        "check": "demazure_relations",
        "n": n,
        "trials": trials,
        "seed": seed,
        "relations": counts,
        "violations": violations,
    }


@pytest.mark.parametrize(
    "n, trials, seed",
    [(2, 3, 1), (3, 60, 2), (3, 70, 4), (4, 20, 5), (5, 1, 7), (5, 200, 3), (6, 2, 7)],
)
def test_stacked_certificate_matches_the_per_trial_one(monkeypatch, n, trials, seed):
    """Whole certificates agree, clean and with faults planted in the first,
    a middle and the last trial.  From 65 trials on the tags need fields
    wider than the default; at 60 only the Leibniz products do.  Trials
    with different denominators share the stack's lcm."""
    clean = verify_demazure_relations(n, trials, seed)
    assert clean == _per_trial_certificate(n, trials, seed)
    assert clean["violations"] == []
    rng = random.Random(seed)
    polys = [random_poly(rng, n) for _ in range(trials)]
    extra = Poly.monomial((2,) + (0,) * (n - 2) + (1,), 1, n)
    planted = {0, trials // 2, trials - 1}
    faults = [(1 + t % (n - 1), polys[t], extra) for t in sorted(planted)]
    monkeypatch.setattr(poly_module, "divided_difference", _planted(faults))
    faulty = verify_demazure_relations(n, trials, seed)
    assert faulty == _per_trial_certificate(n, trials, seed)
    # The Leibniz rule of trial t - 1 reads d_j of trial t's polynomial.
    named = {v["trial"] for v in faulty["violations"]}
    assert planted <= named <= planted | {(t - 1) % trials for t in planted}


def test_certificate_names_a_wrong_first_difference_in_every_relation(monkeypatch):
    """d_1 of trial 0's polynomial gains x1^2 x3, which d_1, d_1 d_2 and d_3
    do not kill: every relation that reads d_1 f must be named."""
    n, trials, seed = 4, 2, 5
    rng = random.Random(seed)
    polys = [random_poly(rng, n) for _ in range(trials)]
    wrong = _planted([(1, polys[0], Poly.monomial((2, 0, 1, 0), 1, n))])
    monkeypatch.setattr(poly_module, "divided_difference", wrong)
    cert = verify_demazure_relations(n, trials, seed)
    named = [v for v in cert["violations"] if v["relation"] != "reduced_word_independence"]
    assert named == _plain_relation_violations(n, polys)
    for fault in (
        {"relation": "square_zero", "j": 1, "trial": 0},
        {"relation": "braid", "j": 1, "trial": 0},
        {"relation": "commuting", "pair": [1, 3], "trial": 0},
        {"relation": "leibniz", "j": 1, "trial": 0},
        {"relation": "leibniz", "j": 1, "trial": 1},
    ):
        assert fault in named


def test_demazure_budget_refuses_before_any_work(monkeypatch):
    """The certificate walks symmetric_group(n), so its limit is the group's."""
    for n in (2, 7):
        check_demazure_rank(n)

    def boom(*args):
        raise AssertionError("check started")

    monkeypatch.setattr(poly_module, "random_poly", boom)
    monkeypatch.setattr(poly_module, "divided_difference", boom)
    for n in (8, 10**9):
        with pytest.raises(ValueError, match=f"rank {n} is outside 1..7 for divided-difference"):
            verify_demazure_relations(n, 1, 0)
    for n in (0, 1):
        with pytest.raises(ValueError, match="need at least two variables"):
            verify_demazure_relations(n, 1, 0)


def test_demazure_trials_must_be_a_positive_int(monkeypatch):
    """No trial makes a clean certificate that checked nothing."""

    def boom(*args):
        raise AssertionError("check started")

    monkeypatch.setattr(poly_module, "random_poly", boom)
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            verify_demazure_relations(3, trials, 0)
    for trials in (True, 2.0, Fraction(2)):
        with pytest.raises(TypeError, match="trials must be an int"):
            verify_demazure_relations(3, trials, 0)


@pytest.mark.parametrize("seed", [None, True, 2.5, "x", Fraction(2)])
def test_demazure_seed_must_be_an_int(monkeypatch, seed):
    """A seed that is not an int would give a certificate that its echoed
    seed cannot replay, so it is refused before any trial."""

    def boom(*args):
        raise AssertionError("check started")

    monkeypatch.setattr(poly_module, "random_poly", boom)
    with pytest.raises(TypeError, match="seed must be an int"):
        verify_demazure_relations(3, 1, seed)


# ------------------------------------------- the unvalidated constructor


def _polys(nx, ny):
    coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    exp = st.tuples(*[st.integers(0, 3)] * (nx + ny))
    return st.dictionaries(exp, coeff, max_size=6).map(lambda t: Poly(nx, ny, t))


def _assert_clean(p):
    assert p == Poly(p.nx, p.ny, p.terms)
    assert all(type(c) is Fraction and c != 0 for c in p.terms.values())


def _sympy(p):
    gens = sympy.symbols(f"x1:{p.nx + 1}") + (sympy.symbols(f"y1:{p.ny + 1}") if p.ny else ())
    total = sympy.Integer(0)
    for exp, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for g, e in zip(gens, exp):
            term *= g**e
        total += term
    return total, gens


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_unvalidated_results_are_clean(data):
    nx = data.draw(st.integers(2, 4))
    ny = data.draw(st.sampled_from((0, nx)))
    f = data.draw(_polys(nx, ny))
    g = data.draw(_polys(nx, ny))
    c = data.draw(st.sampled_from((0, 1, -2, Fraction(3, 5))))
    j = data.draw(st.integers(1, nx - 1))
    w = Permutation(tuple(data.draw(st.permutations(range(1, nx + 1)))))
    results = [
        f + g, f - g, f - f, (f + g) - g, -f, f * g, f * c, c * f, f * 0,
        permute_x(w, f), divided_difference(j, f), negate_x(f),
    ]
    if ny:
        results.append(specialize_y_to_x(f))
    else:
        results += [widen_with_y(f, nx), x_to_y(f, nx)]
    for p in results:
        _assert_clean(p)
    assert f - f == Poly.zero(nx, ny) and f * 0 == Poly.zero(nx, ny)
    assert (f + g) - g == f


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_divided_difference_matches_sympy(data):
    nx = data.draw(st.integers(2, 4))
    ny = data.draw(st.sampled_from((0, nx)))
    f = data.draw(_polys(nx, ny))
    j = data.draw(st.integers(1, nx - 1))
    expr, gens = _sympy(f)
    xj, xk = gens[j - 1], gens[j]
    swapped = expr.subs({xj: xk, xk: xj}, simultaneous=True)
    want = sympy.cancel((expr - swapped) / (xj - xk))
    got, _ = _sympy(divided_difference(j, f))
    assert sympy.expand(want - got) == 0


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_divided_difference_multiplies_back(data):
    nx = data.draw(st.integers(2, 4))
    ny = data.draw(st.sampled_from((0, nx)))
    f = data.draw(_polys(nx, ny))
    j = data.draw(st.integers(1, nx - 1))
    root = Poly.x(j, nx, ny) - Poly.x(j + 1, nx, ny)
    sj = Permutation.simple(j, nx)
    assert root * divided_difference(j, f) == f - permute_x(sj, f)


def test_divide_exact_frozen():
    f = x(1, 3) ** 2 - x(2, 3) ** 2
    assert divide_exact(f, 1, 2) == x(1, 3) + x(2, 3)
    assert divide_exact(f, 2, 1) == -x(1, 3) - x(2, 3)
    assert divide_exact(Poly.zero(3), 1, 3).is_zero
    # A handed-down x2 exponent reaches 63, the top of a six-bit field.
    top = x(1, 2) ** 63 - x(2, 2) ** 63
    assert divide_exact(top, 1, 2) == sum(x(1, 2) ** k * x(2, 2) ** (62 - k) for k in range(63))
    for a, b in ((1, 1), (0, 2), (1, 4)):
        with pytest.raises(ValueError, match="distinct x-indices"):
            divide_exact(f, a, b)
    for rest in (Poly.one(3), x(1, 3), x(3, 3) ** 2 * x(1, 3)):
        with pytest.raises(ArithmeticError, match="x1 - x2 does not divide"):
            divide_exact(f + rest, 1, 2)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_divide_exact_undoes_a_linear_factor(data):
    nx = data.draw(st.integers(2, 4))
    ny = data.draw(st.sampled_from((0, nx)))
    f = data.draw(_polys(nx, ny))
    a, b = data.draw(st.permutations(range(1, nx + 1)))[:2]
    root = Poly.x(a, nx, ny) - Poly.x(b, nx, ny)
    q = divide_exact(root * f, a, b)
    _assert_clean(q)
    assert q == f
    with pytest.raises(ArithmeticError):
        divide_exact(root * f + Poly.x(a, nx, ny) ** data.draw(st.integers(0, 3)), a, b)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_divided_difference_twisted_leibniz(data):
    nx = data.draw(st.integers(2, 4))
    ny = data.draw(st.sampled_from((0, nx)))
    f = data.draw(_polys(nx, ny))
    g = data.draw(_polys(nx, ny))
    j = data.draw(st.integers(1, nx - 1))
    sj = Permutation.simple(j, nx)
    lhs = divided_difference(j, f * g)
    rhs = divided_difference(j, f) * g + permute_x(sj, f) * divided_difference(j, g)
    assert lhs == rhs


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ring_axioms(data):
    nx = data.draw(st.integers(1, 4))
    ny = data.draw(st.sampled_from((0, nx)))
    f, g, h = (data.draw(_polys(nx, ny)) for _ in range(3))
    c = data.draw(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)))
    zero, one = Poly.zero(nx, ny), Poly.one(nx, ny)
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f + zero == f
    assert f + (-f) == zero
    assert f - g == f + (-g)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * one == f
    assert f * zero == zero
    assert f * (g + h) == f * g + f * h
    assert c * (f * g) == (c * f) * g
    assert c * (f + g) == c * f + c * g


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_permute_x_is_a_group_action(data):
    nx = data.draw(st.integers(1, 4))
    ny = data.draw(st.sampled_from((0, nx)))
    f = data.draw(_polys(nx, ny))
    u, v = (
        Permutation(tuple(data.draw(st.permutations(range(1, nx + 1))))) for _ in range(2)
    )
    assert permute_x(Permutation.identity(nx), f) == f
    assert permute_x(u * v, f) == permute_x(u, permute_x(v, f))


# ------------------------------------------------ the packed core vs tuples
#
# An unpacked oracle: exponent tuples to Fractions, with every operation
# written from its definition.  The packed core must agree with it even
# where exponents sit at the top of a field, so that a product or a
# specialization has to widen the fields instead of carrying into the next.


def _view(p):
    return dict(p.terms.items())


def _o_clean(terms):
    return {e: c for e, c in terms.items() if c}


def _o_add(f, g, sign=1):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + sign * c
    return _o_clean(out)


def _o_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _o_clean(out)


def _o_permute(word, f):
    out = {}
    for e, c in f.items():
        moved = list(e)
        for i, v in enumerate(word):
            moved[v - 1] = e[i]
        out[tuple(moved)] = c
    return out


def _o_divided_difference(j, f):
    out = {}
    for e, c in f.items():
        p, q = e[j - 1], e[j]
        sign = 1
        if p < q:
            p, q, sign = q, p, -1
        for k in range(p - q):
            image = list(e)
            image[j - 1], image[j] = p - 1 - k, q + k
            out[tuple(image)] = out.get(tuple(image), 0) + sign * c
    return _o_clean(out)


def _o_specialize(f, n):
    out = {}
    for e, c in f.items():
        key = tuple(e[i] + e[n + i] for i in range(n))
        out[key] = out.get(key, 0) + c
    return _o_clean(out)


def _near_field_top(nx, ny):
    top = 2 ** poly_module._FIELD_BITS - 1
    exponent = st.one_of(st.integers(0, 2), st.integers(top - 1, top + 1))
    coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    exp = st.tuples(*[exponent] * (nx + ny))
    return st.dictionaries(exp, coeff, max_size=5).map(_o_clean)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_arithmetic_matches_tuple_oracle(data):
    nx = data.draw(st.integers(1, 4))
    ny = data.draw(st.sampled_from((0, nx)))
    of, og = data.draw(_near_field_top(nx, ny)), data.draw(_near_field_top(nx, ny))
    f, g = Poly(nx, ny, of), Poly(nx, ny, og)
    w = Permutation(tuple(data.draw(st.permutations(range(1, nx + 1)))))
    cases = [
        (f, of),
        (f * g, _o_mul(of, og)),
        (f + g, _o_add(of, og)),
        (f - g, _o_add(of, og, -1)),
        (permute_x(w, f), _o_permute(w.word, of)),
    ]
    if nx >= 2:
        j = data.draw(st.integers(1, nx - 1))
        cases.append((divided_difference(j, f * g), _o_divided_difference(j, _o_mul(of, og))))
    if ny:
        cases.append((specialize_y_to_x(f), _o_specialize(of, nx)))
        cases.append((specialize_y_to_x(f * g), _o_specialize(_o_mul(of, og), nx)))
    for got, want in cases:
        assert _view(got) == want
        assert got == Poly(got.nx, got.ny, want)


def test_a_full_field_widens_instead_of_carrying():
    top = 2 ** poly_module._FIELD_BITS - 1
    x1, x2 = x(1, 2), x(2, 2)
    f = x1**top * x1
    assert _view(f) == {(top + 1, 0): 1}
    assert f == Poly.monomial((top + 1, 0), 1, 2) != x2
    assert _view(x1**top * x2**top * (x1 + x2)) == {(top + 1, top): 1, (top, top + 1): 1}
    assert _view(specialize_y_to_x(Poly(1, 1, {(top, top): 1}))) == {(2 * top,): 1}


def test_terms_view():
    rng = random.Random(3)
    for _ in range(30):
        f = random_poly(rng, 3, max_degree=5, n_terms=6)
        g = random_poly(rng, 3, max_degree=5, n_terms=6)
        p = f * g
        assert len(p.terms) == len(_o_mul(_view(f), _view(g)))
        assert Poly(p.nx, p.ny, dict(p.terms)) == p
        assert all(type(c) is Fraction and c != 0 for c in p.terms.values())
        # Fraction arithmetic reduces every coefficient; the shared
        # denominator must come out the same.
        assert _view(p) == _o_mul(_view(f), _view(g))
        for j in (1, 2):
            assert _view(divided_difference(j, p)) == _o_divided_difference(j, _view(p))
    half = Fraction(1, 2)
    assert _view(divided_difference(1, half * x(1, 2) - half * x(2, 2))) == {(0, 0): Fraction(1)}
    assert _view((half * x(1, 2)) * 2) == {(1, 0): Fraction(1)}
    view = (x(1, 2) + 1).terms
    assert list(view) == [(1, 0), (0, 0)] and (0, 0) in view and (1, 1) not in view
    assert view.get((5, 5)) is None and view[(1, 0)] == 1
    with pytest.raises(TypeError):
        view[(2, 0)] = 1


# ------------------------------------------------------- two-alphabet ops


def test_widen_and_y_embeddings():
    f = x(1, 2) + 2 * x(2, 2)
    wide = widen_with_y(f, 2)
    assert wide.nx == 2 and wide.ny == 2
    assert wide.terms[(1, 0, 0, 0)] == 1
    assert x_to_y(f, 2) == y(1, 2, 2) + 2 * y(2, 2, 2)
    assert x_to_y(x(1, 1) ** 2, 3) == y(1, 3, 1) ** 2
    with pytest.raises(ValueError):
        x_to_y(Poly.x(1, 2, 2), 2)


def test_specialize_y_to_x():
    f = Poly.x(1, 2, 2) - y(1, 2, 2)
    assert specialize_y_to_x(f).is_zero
    g = Poly.x(1, 2, 2) * y(2, 2, 2)
    assert specialize_y_to_x(g) == x(1, 2) * x(2, 2)
    with pytest.raises(ValueError):
        specialize_y_to_x(x(1, 2))


def test_set_y_to_zero():
    f = Poly.x(1, 2, 2) + 3 * y(2, 2, 2) + Poly.x(2, 2, 2) * y(1, 2, 2)
    assert set_y_to_zero(f) == x(1, 2)
    assert set_y_to_zero(widen_with_y(x(2, 2) ** 3, 2)) == x(2, 2) ** 3


def test_negate_x():
    f = x(1, 2) ** 2 - x(2, 2) + 1
    assert negate_x(f) == x(1, 2) ** 2 + x(2, 2) + 1
    mixed = Poly.x(1, 1, 1) * y(1, 1, 1)
    assert negate_x(mixed) == -mixed


# ------------------------------------------------------------------ JSON


def test_json_schema_and_order():
    f = x(2, 2) ** 2 + Fraction(-1, 3) * x(1, 2) + 5
    blob = f.to_json()
    assert blob["nvars"] == 2
    # Graded lex ascending: constant, then x1, then x2^2.
    assert [t["exp"] for t in blob["terms"]] == [[0, 0], [1, 0], [0, 2]]
    assert blob["terms"][1] == {"exp": [1, 0], "num": "-1", "den": "3"}
    assert Poly.zero(2).to_json() == {"nvars": 2, "terms": []}
