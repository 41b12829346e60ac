"""Permutation layer: frozen small cases plus exhaustive checks at low rank.

Oracles used to freeze expected values:
  - inversion sets by direct double-loop pair scan,
  - composition by pointwise evaluation p(q(i)),
  - reduced words by exhaustive search over all letter sequences of the
    right length, against the descent recursion `reduced_words` below,
    which test_poly uses to list every word the certificate's induction
    stands in for,
  - length distribution via the q-factorial, built by polynomial convolution,
  - the Cauchy coefficients by a scan of every pair in S_n x S_n, and at
    rank 6 by the one-pass scan over shorter elements that the interval
    walk replaced,
  - unchecked permutations by their validated twins.
"""

import copy
import itertools
import pickle

import pytest

from schubstab.perms import Permutation, symmetric_group
from schubstab.poly import negate_x
from schubstab.schubert import cauchy_coefficients, schubert_poly


# ---------------------------------------------------------------- oracles


def product_of_simples(letters, n):
    """Multiply out s_{a_1} * s_{a_2} * ... * s_{a_k} in rank n."""
    w = Permutation.identity(n)
    for a in letters:
        w = w * Permutation.simple(a, n)
    return w


def oracle_inversions(word):
    n = len(word)
    return {
        (i + 1, j + 1)
        for i in range(n)
        for j in range(i + 1, n)
        if word[i] > word[j]
    }


def oracle_compose(p_word, q_word):
    return tuple(p_word[q_word[i] - 1] for i in range(len(p_word)))


def oracle_reduced_words(w):
    """Every letter sequence of length l(w) whose product is w."""
    n, k = w.n, w.length()
    found = []
    for letters in itertools.product(range(1, n), repeat=k):
        if product_of_simples(letters, n) == w:
            found.append(letters)
    return sorted(found)


def reduced_words(w):
    """All reduced words for w, sorted lexicographically: (a,) + t over the
    left descents a of w, ascending, and the reduced words t of s_a w.
    Uncached; rank 6's longest permutation has 292 864 words."""
    if not w.length():
        return ((),)
    return tuple(
        (a,) + tail
        for a in w.left_descents()
        for tail in reduced_words(Permutation.simple(a, w.n) * w)
    )


def oracle_length_distribution(n):
    """Coefficients of [n]_q! = prod_{k=1}^{n} (1 + q + ... + q^{k-1})."""
    coeffs = [1]
    for k in range(1, n + 1):
        block = [1] * k
        out = [0] * (len(coeffs) + k - 1)
        for i, c in enumerate(coeffs):
            for j, b in enumerate(block):
                out[i + j] += c * b
        coeffs = out
    return coeffs


# ------------------------------------------------------------ construction


def test_identity_and_validation():
    assert Permutation.identity(3).word == (1, 2, 3)
    assert Permutation((2, 1, 3)).n == 3
    assert Permutation([2, 1, 3]).word == (2, 1, 3)
    refused = [
        ((1, 1, 2), ValueError, "not a permutation of 1..3: (1, 1, 2)"),
        ((0, 1), ValueError, "not a permutation of 1..2: (0, 1)"),
        ((1, 3), ValueError, "not a permutation of 1..2: (1, 3)"),
        ((), ValueError, "rank must be at least 1"),
        ([], ValueError, "rank must be at least 1"),
        ((2.0, 1.0), TypeError, "permutation entries must be ints: (2.0, 1.0)"),
        ((True,), TypeError, "permutation entries must be ints: (True,)"),
        ((2, False), TypeError, "permutation entries must be ints: (2, False)"),
    ]
    for word, error, message in refused:
        with pytest.raises(error) as caught:
            Permutation(word)
        assert str(caught.value) == message
    with pytest.raises(ValueError):
        Permutation.identity(0)
    with pytest.raises(ValueError):
        Permutation.longest(0)


def test_simple_reflections():
    assert Permutation.simple(1, 2).word == (2, 1)
    assert Permutation.simple(2, 4).word == (1, 3, 2, 4)
    with pytest.raises(ValueError):
        Permutation.simple(3, 3)
    with pytest.raises(ValueError):
        Permutation.simple(0, 3)
    for j in (True, 1.0):
        with pytest.raises(TypeError, match="must be an int"):
            Permutation.simple(j, 3)


def test_compose_examples():
    s1 = Permutation.simple(1, 3)
    s2 = Permutation.simple(2, 3)
    # s1 * s2 sends 1->2, 2->3, 3->1: frozen from pointwise evaluation.
    assert (s1 * s2).word == (2, 3, 1)
    assert (s1 * s2).word == oracle_compose(s1.word, s2.word)
    assert (s2 * s1).word == (3, 1, 2)
    with pytest.raises(ValueError):
        s1 * Permutation.simple(1, 2)


def test_compose_matches_oracle_exhaustive_s4():
    for p in symmetric_group(4):
        for q in symmetric_group(4):
            assert (p * q).word == oracle_compose(p.word, q.word)


def test_call_is_one_indexed():
    w = Permutation((3, 1, 2))
    assert [w(1), w(2), w(3)] == [3, 1, 2]
    with pytest.raises(ValueError):
        w(0)
    with pytest.raises(ValueError):
        w(4)


def test_inverse():
    w = Permutation((2, 3, 1))
    assert w.inverse().word == (3, 1, 2)
    for p in symmetric_group(4):
        assert p * p.inverse() == Permutation.identity(4)
        assert p.inverse() * p == Permutation.identity(4)


# ------------------------------------------------------- length, inversions


def test_inversion_examples():
    assert Permutation.identity(4).inversions() == frozenset()
    assert Permutation.simple(1, 3).inversions() == {(1, 2)}
    w0 = Permutation.longest(3)
    assert w0.inversions() == {(1, 2), (1, 3), (2, 3)}
    assert w0.length() == 3


def test_inversions_match_oracle():
    for w in symmetric_group(4):
        assert set(w.inversions()) == oracle_inversions(w.word)
        assert w.length() == len(w.inversions())


def test_longest_element():
    assert Permutation.longest(1) == Permutation.identity(1)
    assert Permutation.longest(4).word == (4, 3, 2, 1)
    assert Permutation.longest(4).length() == 6
    w0 = Permutation.longest(4)
    assert w0 * w0 == Permutation.identity(4)


def test_length_of_inverse_and_descent_step():
    for w in symmetric_group(4):
        assert w.inverse().length() == w.length()
        for j in range(1, 4):
            sj = Permutation.simple(j, 4)
            assert abs((w * sj).length() - w.length()) == 1


def test_inversions_of_inverse_are_value_pairs():
    for w in symmetric_group(4):
        flipped = {(w(j), w(i)) for (i, j) in w.inversions()}
        assert set(w.inverse().inversions()) == flipped


# ----------------------------------------------------------- reduced words


def test_reduced_words_frozen_small_cases():
    e2 = Permutation.identity(2)
    assert reduced_words(e2) == ((),)
    s2 = Permutation.simple(2, 3)
    assert reduced_words(s2) == ((2,),)
    w0 = Permutation.longest(3)
    assert reduced_words(w0) == ((1, 2, 1), (2, 1, 2))


def test_reduced_words_match_oracle_s3():
    for w in symmetric_group(3):
        assert list(reduced_words(w)) == oracle_reduced_words(w)


def test_reduced_words_properties_s4():
    for w in symmetric_group(4):
        words = reduced_words(w)
        assert list(words) == sorted(words)
        assert len(set(words)) == len(words)
        for letters in words:
            assert len(letters) == w.length()
            assert product_of_simples(letters, 4) == w


def test_longest_word_count_s4():
    # Stanley's count N! / prod_{i=1}^{n-1} (2i - 1)^{n-i}, N = n(n-1)/2.
    for n, count in ((1, 1), (2, 1), (3, 2), (4, 16), (5, 768)):
        assert len(reduced_words(Permutation.longest(n))) == count


# ------------------------------------------------------------ enumeration


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetric_group_enumeration(n):
    perms = symmetric_group(n)
    assert len(perms) == len(set(perms))
    sizes = 1
    for k in range(2, n + 1):
        sizes *= k
    assert len(perms) == sizes
    keys = [(w.length(), w.word) for w in perms]
    assert keys == sorted(keys)
    dist = oracle_length_distribution(n)
    for ell, count in enumerate(dist):
        assert sum(1 for w in perms if w.length() == ell) == count


def test_enumerating_callers_refuse_rank_11_before_building_the_group():
    # Rank 11 would build 39 916 800 permutations.  Each caller below reaches
    # symmetric_group before any rank check of its own.
    from schubstab.bimodule import BimoduleElement, right_multiply, s_basis_coordinates, s_element
    from schubstab.poly import Poly
    from schubstab.schubert import double_schubert_expansion

    e = Permutation.identity(11)
    calls = [
        lambda: s_element(e),
        lambda: s_basis_coordinates(BimoduleElement(11, {e: Poly.one(11)})),
        lambda: double_schubert_expansion(e),
        lambda: right_multiply(BimoduleElement(11, {e: Poly.one(11)}), Poly.x(1, 11)),
    ]
    for call in calls:
        cached = symmetric_group.cache_info().currsize
        with pytest.raises(ValueError, match="rank 11 is outside 1..7 for enumerating"):
            call()
        assert symmetric_group.cache_info().currsize == cached


def test_json_one_line_form():
    assert Permutation((2, 3, 1)).to_json() == [2, 3, 1]
    assert str(Permutation((2, 3, 1))) == "[2,3,1]"
    assert repr(Permutation((2, 1, 3))) == "Permutation(word=(2, 1, 3))"


def test_cauchy_coefficients_match_brute_force():
    # Oracle: every pair (v, u) in S_n x S_n whose lengths add up to that of
    # w = v^{-1} u, filed under w.  The coefficient at u is schubert_v(-x),
    # and the keys come in enumeration order of v.
    for n in (1, 2, 3, 4, 5):
        group = symmetric_group(n)
        want = {w: {} for w in group}
        for v in group:
            for u in group:
                w = v.inverse() * u
                if v.length() + u.length() == w.length():
                    want[w][u] = v
        for w in group:
            got = cauchy_coefficients(w)
            assert list(got) == list(want[w]), str(w)
            for u, v in want[w].items():
                assert got[u] == negate_x(schubert_poly(v)), (str(w), str(u))
            assert want[w][w] == Permutation.identity(n)
            assert want[w][Permutation.identity(n)] == w.inverse()


def count_constructions(monkeypatch):
    """Words passed to Permutation._trusted, the one construction point, which
    the validating constructor ends in too."""
    built = []
    real = Permutation._trusted

    def counting(word):
        built.append(word)
        return real(word)

    monkeypatch.setattr(Permutation, "_trusted", staticmethod(counting))
    return built


def count_validations(monkeypatch):
    """Words passed to the validating constructor."""
    checked = []
    real = Permutation.__new__

    def counting(cls, word):
        checked.append(word)
        return real(cls, word)

    monkeypatch.setattr(Permutation, "__new__", counting)
    return checked


def test_construction_hooks_count_both_paths(monkeypatch):
    built, checked = count_constructions(monkeypatch), count_validations(monkeypatch)
    Permutation((2, 1, 3))
    Permutation.simple(1, 3) * Permutation.longest(3)
    assert checked == [(2, 1, 3)]
    assert built == [(2, 1, 3), (2, 1, 3), (3, 2, 1), (3, 1, 2)]


def test_cauchy_coefficients_build_no_permutation(monkeypatch):
    # Each u and v of the walk is looked up among the group's own elements,
    # so with the group and the Schubert polynomials of S4 built, no
    # Permutation is made, trusted or validated.
    group = symmetric_group(4)
    for v in group:
        schubert_poly(v)
    built = count_constructions(monkeypatch)
    for w in group:
        cauchy_coefficients(w)
    assert built == []


def test_verify_soergel_rank6_validates_no_permutation(monkeypatch, capsys):
    # Every permutation of the certificate is built by the package from
    # valid ones, so none goes through the validating constructor.
    from schubstab import cli

    checked = count_validations(monkeypatch)
    assert cli.main(["verify", "soergel", "--n", "6", "--json"]) == 0
    capsys.readouterr()
    assert checked == []


# ------------------------------------------------------------ trusted words


def validated_twin(p):
    """The same word through the validating constructor."""
    return Permutation(list(p.word))


def assert_twins(p):
    q = validated_twin(p)
    assert q is not p
    assert q.word == p.word and type(p.word) is tuple
    assert q == p and not q != p
    assert hash(q) == hash(p) == hash((p.word,))
    assert q.length() == p.length() == len(oracle_inversions(p.word))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_trusted_permutations_equal_validated_ones(n):
    group = symmetric_group(n)
    for p in group:
        assert_twins(p)
        assert_twins(p.inverse())
    for maker in (Permutation.identity, Permutation.longest):
        assert_twins(maker(n))
    for j in range(1, n):
        assert_twins(Permutation.simple(j, n))
    for p in group:
        for q in group:
            assert_twins(p * q)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_permutation_value_semantics(n):
    for p in symmetric_group(n):
        assert not p == p.word and p != p.word
        assert not p == list(p.word) and p != list(p.word)
        assert repr(p) == f"Permutation(word={p.word!r})"
        for copied in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert copied == p and hash(copied) == hash(p)
            assert copied.length() == p.length()
        for name, value in (("word", (1,) * n), ("_length", 0), ("_hash", 0), ("other", 1)):
            with pytest.raises(AttributeError):
                setattr(p, name, value)
        with pytest.raises(AttributeError):
            del p.word
        assert_twins(p)


# ------------------------------------------------------------ Cauchy walk


def scan_cauchy_factors(w):
    """{u: v} over the factorizations w = v^{-1} u with lengths adding up,
    in enumeration order of v: each v no longer than w, with u = v w looked
    up among the elements no longer than w.  The one-pass scan the interval
    walk replaced."""
    lw = w.length()
    shorter = [p for p in symmetric_group(w.n) if p.length() <= lw]
    by_word = {p.word: p for p in shorter}
    out = {}
    for v in shorter:
        u = by_word.get(tuple(v.word[i - 1] for i in w.word))
        if u is not None and v.length() + u.length() == lw:
            out[u] = v
    return out


def test_interval_walk_matches_the_scan_on_s6():
    group = symmetric_group(6)
    negated = {v: negate_x(schubert_poly(v)) for v in group}
    shared = {}
    for w in group:
        got = cauchy_coefficients(w)
        want = scan_cauchy_factors(w)
        assert list(got) == list(want), str(w)
        for u, v in want.items():
            assert got[u] == negated[v], (str(w), str(u))
            assert shared.setdefault(v, got[u]) is got[u], (str(w), str(v))
    assert len(shared) == len(group)
