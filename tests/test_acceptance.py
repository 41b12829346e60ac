"""Acceptance sweep: one test per headline criterion, all exact.

Each test prints a single PASS line (visible with -s or -rA) and asserts
zero violations at the stated scale.  Where a wall-clock budget is part of
the criterion, the elapsed time is asserted too.

One orientation note that applies to the filtration and specialization
sweeps: with the substitution x_i -> x_{w'(i)} followed by y -> x, the
diagonal value of the pairing is the inversion product of the inverse
permutation, delta(w^{-1}).  For involutions the two products coincide,
and the inversion multiset identity prod_w delta(w^{-1}) = prod_w delta(w)
keeps every determinant-level consequence unchanged.  The sweeps below
assert the inverse-oriented identity everywhere and additionally the
unoriented form on involutions, where it is equivalent.
"""

import itertools
import math
import random
import time
from collections import deque
from fractions import Fraction

from schubstab.bimodule import (
    verify_bimodule_closure,
    verify_filtration_identity,
    verify_triangular_injectivity,
    verify_unitriangular,
)
from schubstab.lattice import (
    ChargeParams,
    ExactComplex,
    LatticeVector,
    central_charge,
    verify_charge_transforms,
)
from schubstab.perms import Permutation, symmetric_group
from schubstab.poly import Poly, verify_demazure_relations
from schubstab.schubert import (
    delta_w,
    double_schubert,
    double_schubert_expansion,
)
from schubstab.stability import (
    SplitSheafP1,
    bayer_shadow_scan,
    derive_twist_chain,
    hn_split_p1,
    phase,
    replay_twist_chain,
)
from test_specialization_oracle import specialization_check, specialize_y_to_x

F = Fraction


def test_criterion_01_filtration_identity():
    """Evaluation of the filtration basis is diagonal on qualifying pairs."""
    start = time.monotonic()
    pair_counts = {}
    for n in (3, 4):
        cert = verify_filtration_identity(n)
        assert cert["violations"] == [], cert["violations"][:3]
        pair_counts[n] = cert["pairs"]
        expected = sum(
            1
            for w in symmetric_group(n)
            for wp in symmetric_group(n)
            if wp.length() >= w.length()
        )
        assert cert["pairs"] == expected
    elapsed = time.monotonic() - start
    assert pair_counts == {3: 23, 4: 341}
    assert elapsed < 300
    print(
        f"PASS filtration identity: {pair_counts[3]} + {pair_counts[4]} pairs, "
        f"0 violations, {elapsed:.1f}s"
    )


def test_criterion_02_double_schubert_expansion():
    """Two-alphabet polynomials match their bilinear expansion on all of S4."""
    start = time.monotonic()
    for w in symmetric_group(4):
        assert double_schubert(w) == double_schubert_expansion(w), str(w)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"PASS double Schubert expansion: 24 permutations, {elapsed:.1f}s")


def test_criterion_03_specialization_identities():
    """Equal-alphabet collapse and the permuted specialization sweep."""
    for u in symmetric_group(4):
        collapsed = specialize_y_to_x(double_schubert(u))
        expected = Poly.one(4) if u == Permutation.identity(4) else Poly.zero(4)
        assert collapsed == expected, str(u)
    checked = 0
    for n in (3, 4):
        group = symmetric_group(n)
        for w in group:
            for wp in group:
                if wp.length() > w.length():
                    continue
                got = specialization_check(w, wp)
                if wp == w:
                    sign = -1 if w.length() % 2 else 1
                    assert got == sign * delta_w(w.inverse()), str(w)
                    if w == w.inverse():
                        assert got == sign * delta_w(w)
                else:
                    assert got.is_zero, (str(w), str(wp))
                checked += 1
    assert checked == 23 + 341
    print(f"PASS specialization identities: 24 collapses + {checked} pairs")


def test_criterion_04_demazure_algebra():
    """Squares, braids, and reduced-word independence on seeded inputs."""
    cert = verify_demazure_relations(4, trials=20, seed=2024)
    assert cert["violations"] == [], cert["violations"][:3]
    assert cert["relations"]["square_zero"] == 60
    assert cert["relations"]["braid"] == 40
    assert cert["relations"]["reduced_word_independence"] > 0
    print(
        "PASS Demazure algebra: "
        + ", ".join(f"{k}={v}" for k, v in sorted(cert["relations"].items()))
    )


def test_criterion_05_soergel_structure():
    """Unitriangularity, right closure, and triangular injectivity."""
    closure_products = 0
    for n in (2, 3, 4):
        unitriangular = verify_unitriangular(n)
        assert unitriangular["violations"] == [], (n, unitriangular["violations"][:3])
        injectivity = verify_triangular_injectivity(verify_filtration_identity(n))
        assert injectivity["violations"] == []
        assert injectivity["determinant_nonzero"] is True
        for cert in verify_bimodule_closure(unitriangular, injectivity):
            assert cert["violations"] == [], (n, cert["j"], cert["violations"][:3])
            closure_products += cert["products"]
    assert closure_products == 6 + 45 + 384
    print(
        f"PASS Soergel structure: unitriangular n<=4, "
        f"{closure_products} closure products, determinant nonzero"
    )


def test_criterion_06_charge_transformation_laws():
    """Pullback, pushforward, and twist-shift identities, 100 vectors each."""
    start = time.monotonic()
    runs = 0
    for n in (1, 2, 3, 4):
        for m in (2, 3, 5):
            p = ChargeParams(F(3, 2), F(-1, 3), n)
            cert = verify_charge_transforms(p, m, trials=100, seed=1000 + 10 * n + m)
            assert cert["violations"] == [], (n, m, cert["violations"][:3])
            runs += 1
    elapsed = time.monotonic() - start
    assert runs == 12
    assert elapsed < 60
    print(f"PASS charge transformation laws: 12 sweeps x 100 vectors, {elapsed:.1f}s")


def test_criterion_07_skyscraper_normalization():
    """The point class has charge -1 and sits at the top of the strip."""
    rng = random.Random(55)
    top = phase(ExactComplex(-1, 0))
    checked = 0
    for _ in range(10):
        a = F(rng.randint(1, 20), rng.randint(1, 9))
        b = F(rng.randint(-20, 20), rng.randint(1, 9))
        for n in (1, 2, 3):
            z = central_charge(ChargeParams(a, b, n), LatticeVector(n, {(): 1}))
            assert z == ExactComplex(-1, 0)
            assert phase(z) == top
            assert phase(z).is_phase_one
            checked += 1
    print(f"PASS skyscraper normalization: {checked} parameter/rank combinations")


def test_criterion_08_bayer_shadow_curve():
    """Full twist-shadow box on the curve for three parameter choices."""
    start = time.monotonic()
    for a, b in ((F(1), F(0)), (F(1, 2), F(3)), (F(7, 3), F(-2))):
        cert = bayer_shadow_scan(ChargeParams(a, b, 1), 200)
        assert cert["violations"] == [], (a, b, cert["violations"][:3])
        assert cert["scanned"] == 200 * 401 + 200
        assert cert["skipped"] == 0
        assert cert["shadow"] is True
    elapsed = time.monotonic() - start
    print(f"PASS Bayer shadow on the curve: 3 x 80400 classes, {elapsed:.1f}s")


def _oracle_hn(sheaf, p):
    """Unique strictly-descending ordered grouping, float phases."""
    atoms = [("bundle", d) for d in sheaf.bundle_degrees]
    atoms += [("torsion", t) for t in sheaf.torsion_lengths]
    n = len(atoms)

    def block_phase(block):
        if all(kind == "torsion" for kind, _ in block):
            return 1.0
        if any(kind == "torsion" for kind, _ in block):
            return None
        degrees = {v for _, v in block}
        if len(degrees) > 1:
            return None
        k = len(block)
        d = next(iter(degrees))
        return math.atan2(float(p.a) * k, float(p.b) * k - k * d) / math.pi

    survivors = []
    for nblocks in range(1, n + 1):
        for labels in itertools.product(range(nblocks), repeat=n):
            if set(labels) != set(range(nblocks)):
                continue
            blocks = [
                [atoms[i] for i in range(n) if labels[i] == b] for b in range(nblocks)
            ]
            phases = [block_phase(b) for b in blocks]
            if None in phases:
                continue
            if all(x > y + 1e-9 for x, y in zip(phases, phases[1:])):
                survivors.append(blocks)
    assert len(survivors) == 1, f"grouping not unique for {sheaf}"
    out = []
    for block in survivors[0]:
        degs = tuple(v for kind, v in block if kind == "bundle")
        tors = tuple(v for kind, v in block if kind == "torsion")
        out.append(SplitSheafP1(degs, tors))
    return out


def test_criterion_09_hn_oracle_equivalence():
    """Split-sheaf HN agrees with exhaustive regrouping, <= 5 summands."""
    p = ChargeParams(F(1), F(0), 1)
    pool = range(-3, 4)
    checked = 0

    def check(sheaf):
        nonlocal checked
        factors = hn_split_p1(sheaf, p)
        assert [f for f, _ in factors] == _oracle_hn(sheaf, p)
        points = [pt for _, pt in factors]
        assert all(x > y for x, y in zip(points, points[1:]))
        degs = [d for f, _ in factors for d in f.bundle_degrees]
        tors = [t for f, _ in factors for t in f.torsion_lengths]
        assert sorted(degs) == sorted(sheaf.bundle_degrees)
        assert sorted(tors) == sorted(sheaf.torsion_lengths)
        checked += 1

    for size in range(1, 6):
        for degs in itertools.combinations_with_replacement(pool, size):
            check(SplitSheafP1(degs, ()))
    for bsize in range(0, 4):
        for degs in itertools.combinations_with_replacement(pool, bsize):
            for tors in ((1,), (2,), (1, 1), (1, 2), (2, 2)):
                sheaf = SplitSheafP1(degs, tors)
                if len(degs) + len(tors) <= 5:
                    check(sheaf)
    print(f"PASS HN oracle equivalence: {checked} split sheaves")


def _oracle_word_search(goal, big_n, max_len=12):
    """Breadth-first search over derivation words of bounded length."""
    start = (0, 0, False)
    seen = {start}
    frontier = deque([start])
    for _ in range(max_len):
        nxt = deque()
        while frontier:
            t, k, s = frontier.popleft()
            succ = [(t + big_n, k + 1, True)]
            if t >= 1:
                succ.append((t - 1, k, s))
            for state in succ:
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
        frontier = nxt
    return goal in seen


def test_criterion_10_twist_chain_calculus():
    """Derivability is exactly a_j <= j*N; certificates replay."""
    combos = 0
    for big_n in (1, 2, 3):
        for j in (1, 2, 3):
            for a in range(1, 13):
                cert = derive_twist_chain([1] * (j - 1) + [a], big_n)[j - 1]
                expected = a <= j * big_n
                assert cert["achievable"] == expected, (big_n, j, a)
                found = _oracle_word_search((a, j, True), big_n)
                if expected and j + j * big_n - a <= 12:
                    assert found, (big_n, j, a)
                if not expected:
                    assert not found, (big_n, j, a)
                if expected:
                    fact = replay_twist_chain(cert)
                    assert fact.to_json() == cert["fact"] == cert["goal"]
                combos += 1
    assert combos == 108
    print(f"PASS twist-chain calculus: {combos} (N, j, a) combinations")
