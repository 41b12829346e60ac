"""Phase points, split-sheaf HN filtrations, shadow scans, chain calculus.

Oracles, all independent of the implementation under test:
  * float atan2 ordering for phase comparison (floats never appear in the
    library itself);
  * exhaustive enumeration of ordered groupings for HN, keeping the ones
    whose blocks are semistable with strictly decreasing float phases and
    demanding uniqueness;
  * breadth-first search over derivation words for the twist-chain
    reachability predicate.
"""

import itertools
import json
import math
import random
from collections import deque
from fractions import Fraction

import pytest

import schubstab.stability as stability_module
from schubstab.lattice import (
    ChargeParams,
    ExactComplex,
    central_charge,
    twist,
    vector_from_rank_deg,
)
from schubstab.stability import (
    IDENTITY_FACT,
    PhasePoint,
    RelationFact,
    SplitSheafP1,
    bayer_shadow_scan,
    compose_relations,
    derive_twist_chain,
    hn_factors_to_json,
    hn_split_p1,
    _phase_below,
    in_strip,
    phase,
    replay_twist_chain,
    restriction_fact,
    weaken_twist,
)

F = Fraction

# The one-twist fact O(1) <= [0], composed in the calculus examples.
BAYER_FACT = RelationFact(1, 0, False)


def float_phase(point):
    """Transcendental rendering of a phase point, test-side only."""
    return point.shift + math.atan2(point.charge.im, point.charge.re) / math.pi


def cleared(z):
    """The parts of z times the lcm of their denominators: the integer
    multiple of a charge that the shadow scans order."""
    scale = math.lcm(z.re.denominator, z.im.denominator)
    return int(z.re * scale), int(z.im * scale)


def random_strip_charge(rng):
    while True:
        z = ExactComplex(
            F(rng.randint(-30, 30), rng.randint(1, 7)),
            F(rng.randint(0, 30), rng.randint(1, 7)),
        )
        if in_strip(z):
            return z


class TestPhasePoint:
    def test_negative_real_is_phase_one(self):
        top = phase(ExactComplex(-1, 0))
        assert top.is_phase_one
        assert phase(ExactComplex(0, 1)) < top
        assert top == phase(ExactComplex(-7, 0))

    def test_frozen_cross_product_example(self):
        assert phase(ExactComplex(1, 1)) < phase(ExactComplex(-1, 1))

    def test_ray_equality_and_hash(self):
        a = phase(ExactComplex(1, 2))
        b = phase(ExactComplex(F(1, 2), 1))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b, phase(ExactComplex(2, 1))}) == 2

    def test_rejects_charges_off_the_strip(self):
        for re, im, shown in ((0, 0, r"0\+0i"), (1, -1, "1-1i"), (3, 0, r"3\+0i")):
            with pytest.raises(ValueError, match=f"charge {shown} is outside the strip"):
                phase(ExactComplex(re, im))

    def test_shift_dominates(self):
        low = PhasePoint(ExactComplex(-1, 0), 0)  # total phase 1
        high = PhasePoint(ExactComplex(1, 1), 1)  # total phase 5/4
        assert low < high
        assert PhasePoint(ExactComplex(0, 1), 2) > PhasePoint(ExactComplex(-1, 0), 1)

    def test_total_order_matches_atan2_oracle(self):
        rng = random.Random(404)
        ties = 0
        for _ in range(10_000):
            z1, z2 = random_strip_charge(rng), random_strip_charge(rng)
            p1 = PhasePoint(z1, rng.randint(-2, 2))
            p2 = PhasePoint(z2, rng.randint(-2, 2))
            # The scans' order on cleared numerators is PhasePoint's on the
            # Fraction charges, on every pair, ties included.
            (x1, y1), (x2, y2) = cleared(z1), cleared(z2)
            assert _phase_below(x1, y1, x2, y2) == (phase(z1) < phase(z2))
            assert _phase_below(x2, y2, x1, y1) == (phase(z2) < phase(z1))
            ties += phase(z1) == phase(z2)
            f1, f2 = float_phase(p1), float_phase(p2)
            if abs(f1 - f2) < 1e-12:
                continue  # too close for the float oracle to adjudicate
            assert (p1 < p2) == (f1 < f2)
            assert (p1 == p2) == False
        assert ties > 0

    def test_equal_rays_detected_exactly(self):
        rng = random.Random(405)
        for _ in range(200):
            z = random_strip_charge(rng)
            c = F(rng.randint(1, 9), rng.randint(1, 9))
            scaled = ExactComplex(z.re * c, z.im * c)
            assert phase(z) == phase(scaled)
            assert not phase(z) < phase(scaled)

    def test_json(self):
        p = PhasePoint(ExactComplex(F(-2, 3), F(1, 5)), 1)
        assert p.to_json() == {"re": "-2/3", "im": "1/5", "shift": 1}


class TestSplitSheafP1:
    def test_canonical_sorting(self):
        s = SplitSheafP1((0, 3, -1), (1, 2))
        assert s.bundle_degrees == (3, 0, -1)
        assert s.torsion_lengths == (2, 1)
        assert s == SplitSheafP1((3, -1, 0), (2, 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            SplitSheafP1((), (0,))
        with pytest.raises(ValueError):
            SplitSheafP1((), (-2,))
        with pytest.raises(ValueError, match="bundle degrees must be integers"):
            SplitSheafP1((True, 2), ())
        with pytest.raises(ValueError, match="torsion lengths must be positive integers"):
            SplitSheafP1((), (True,))

    def test_zero_and_display(self):
        assert SplitSheafP1().is_zero
        assert str(SplitSheafP1((1,), (2,))) == "O(1) + T(2)"


def oracle_hn(sheaf, p):
    """All orderings of semistable blocks, strictly phase-decreasing.

    Enumerates every ordered grouping of the summands, keeps those whose
    blocks are semistable (pure torsion, or bundles of one degree) with
    strictly decreasing float phases, and demands there is exactly one.
    """
    atoms = [("bundle", d) for d in sheaf.bundle_degrees]
    atoms += [("torsion", t) for t in sheaf.torsion_lengths]
    n = len(atoms)

    def block_phase(block):
        if all(kind == "torsion" for kind, _ in block):
            return 1.0
        if any(kind == "torsion" for kind, _ in block):
            return None  # mixed block is never semistable
        degrees = {v for _, v in block}
        if len(degrees) > 1:
            return None
        k = len(block)
        d = next(iter(degrees))
        z = complex(float(p.b) * k - k * d, float(p.a) * k)
        return math.atan2(z.imag, z.real) / math.pi

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
    assert len(survivors) == 1, f"HN regrouping not unique for {sheaf}"
    out = []
    for block in survivors[0]:
        degs = tuple(v for kind, v in block if kind == "bundle")
        tors = tuple(v for kind, v in block if kind == "torsion")
        out.append(SplitSheafP1(degs, tors))
    return out


class TestHnSplitP1:
    P = ChargeParams(F(1), F(0), 1)

    def test_single_slope_class(self):
        factors = hn_split_p1(SplitSheafP1((3, 3)), ChargeParams(F(2), F(-1), 1))
        assert len(factors) == 1
        sheaf, point = factors[0]
        assert sheaf == SplitSheafP1((3, 3))
        assert point.charge == ExactComplex(-1 * 2 - 6, 2 * 2)

    def test_two_degrees_ordered(self):
        factors = hn_split_p1(SplitSheafP1((1, 0)), self.P)
        assert [f.bundle_degrees for f, _ in factors] == [(1,), (0,)]
        assert factors[0][1] > factors[1][1]

    def test_torsion_tops_the_filtration(self):
        factors = hn_split_p1(SplitSheafP1((5,), (2,)), self.P)
        assert factors[0][0] == SplitSheafP1((), (2,))
        assert factors[0][1].is_phase_one
        assert factors[1][0] == SplitSheafP1((5,))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            hn_split_p1(SplitSheafP1(), self.P)
        with pytest.raises(ValueError):
            hn_split_p1(SplitSheafP1((1,)), ChargeParams(F(1), F(0), 2))

    def test_multiset_conservation_and_strict_descent(self):
        rng = random.Random(77)
        for _ in range(50):
            degs = tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 5)))
            tors = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 2)))
            sheaf = SplitSheafP1(degs, tors)
            if sheaf.is_zero:
                continue
            factors = hn_split_p1(sheaf, self.P)
            got_degs, got_tors = [], []
            for f, _ in factors:
                got_degs += list(f.bundle_degrees)
                got_tors += list(f.torsion_lengths)
            assert sorted(got_degs) == sorted(degs)
            assert sorted(got_tors) == sorted(tors)
            points = [pt for _, pt in factors]
            assert all(a > b for a, b in zip(points, points[1:]))

    def test_idempotence(self):
        sheaf = SplitSheafP1((2, 2, -1, 0), (1,))
        for factor, point in hn_split_p1(sheaf, self.P):
            again = hn_split_p1(factor, self.P)
            assert again == [(factor, point)]

    def test_agrees_with_grouping_oracle(self):
        p = ChargeParams(F(1, 2), F(3), 1)
        degree_pool = range(-2, 3)
        for nb in range(0, 4):
            for degs in itertools.combinations_with_replacement(degree_pool, nb):
                for tors in [(), (1,), (2,), (1, 1)]:
                    sheaf = SplitSheafP1(degs, tors)
                    if sheaf.is_zero or len(degs) + len(tors) > 5:
                        continue
                    got = [f for f, _ in hn_split_p1(sheaf, p)]
                    assert got == oracle_hn(sheaf, p)

    def test_json_rendering(self):
        factors = hn_split_p1(SplitSheafP1((0,), (1,)), self.P)
        blob = hn_factors_to_json(factors)
        assert blob == [
            {
                "factor": {"bundle_degrees": [], "torsion_lengths": [1]},
                "phase": {"re": "-1", "im": "0", "shift": 0},
            },
            {
                "factor": {"bundle_degrees": [0], "torsion_lengths": []},
                "phase": {"re": "0", "im": "1", "shift": 0},
            },
        ]


class TestBayerShadow:
    def test_curve_scan_clean(self):
        cert = bayer_shadow_scan(ChargeParams(F(1), F(0), 1), 10)
        assert cert["check"] == "bayer_shadow"
        assert cert["shadow"] is True
        assert cert["violations"] == []
        assert cert["scanned"] == 10 * 21 + 10
        assert cert["skipped"] == 0

    def test_curve_scan_clean_other_params(self):
        for a, b in ((F(1, 2), F(3)), (F(7, 3), F(-2))):
            cert = bayer_shadow_scan(ChargeParams(a, b, 1), 6)
            assert cert["violations"] == []

    def test_surface_scan_reports_only(self):
        cert = bayer_shadow_scan(ChargeParams(F(1), F(0), 2), 1)
        assert cert["scanned"] + cert["skipped"] == 3**4
        assert cert["shadow"] is True
        assert isinstance(cert["violations"], list)

    def test_deterministic(self):
        p = ChargeParams(F(1), F(2), 1)
        assert bayer_shadow_scan(p, 4) == bayer_shadow_scan(p, 4)

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            bayer_shadow_scan(ChargeParams(F(1), F(0), 1), 0)
        # A bool bound would scan at bound 1 and report "bound": true.
        for n in (1, 2):
            for bound in (True, 2.0, F(2)):
                with pytest.raises(TypeError, match="bound must be an int"):
                    bayer_shadow_scan(ChargeParams(F(1), F(0), n), bound)

    def test_class_limit_is_checked_before_scanning(self, monkeypatch):
        class ScanStarted(Exception):
            pass

        def started(*args):
            raise ScanStarted

        monkeypatch.setattr("schubstab.stability.central_charge", started)
        monkeypatch.setattr("schubstab.stability._charge_numerators", started)
        # 224 * 449 + 224 = 100800 curve classes, 51^4 surface vectors.
        for n, bound, count in ((1, 224, 100800), (2, 25, 51**4), (3, 2, 5**8)):
            with pytest.raises(ValueError, match=f"scan of {count} classes"):
                bayer_shadow_scan(ChargeParams(F(1), F(0), n), bound)
        # Admitted: criterion 08's 80400 curve classes, the largest admitted
        # curve bound (99904 classes), and small surface and threefold boxes.
        for n, bound in ((1, 200), (1, 223), (2, 3), (3, 1)):
            with pytest.raises(ScanStarted):
                bayer_shadow_scan(ChargeParams(F(1), F(0), n), bound)

    def test_integer_verdict_is_checked_against_exact_phases(self, monkeypatch):
        # The scan and PhasePoint share one phase order, so what the exact
        # route can catch is a wrong integer row.  Swapping the rows of Z and
        # Z(twist(., -1)) reverses every integer verdict.
        real = stability_module._integer_charge_rows

        def swapped(p, cells):
            re, im, twisted_re, twisted_im = real(p, cells)
            return twisted_re, twisted_im, re, im

        monkeypatch.setattr(stability_module, "_integer_charge_rows", swapped)
        with pytest.raises(RuntimeError, match="disagrees"):
            bayer_shadow_scan(ChargeParams(F(1), F(0), 1), 2)
        with pytest.raises(RuntimeError, match="disagrees"):
            bayer_shadow_scan(ChargeParams(F(1), F(0), 2), 1)

    def test_only_findings_take_the_exact_route(self, monkeypatch):
        # A finding is re-derived by two exact charges and a clean class by
        # none, so the scan cannot slide back to charging every class.
        real = stability_module.central_charge
        calls = []

        def counted(p, vec):
            calls.append(vec)
            return real(p, vec)

        monkeypatch.setattr(stability_module, "central_charge", counted)
        cert = bayer_shadow_scan(ChargeParams(F(1), F(0), 2), 3)
        assert len(cert["violations"]) == 17
        assert len(calls) == 34
        calls.clear()
        cert = bayer_shadow_scan(ChargeParams(F(7, 3), F(-2), 1), 25)
        assert cert["violations"] == []
        assert cert["scanned"] == 25 * 51 + 25
        assert calls == []

    def test_surface_findings_are_cross_checked_without_rays(self, monkeypatch, capsys):
        # Each finding's exact cross-check is one phase comparison, never the
        # equality test that builds primitive rays; the bytes are the golden
        # pin of this 83 521-class scan.
        from hashlib import sha256

        from schubstab import cli

        def no_ray(self):
            raise AssertionError("PhasePoint._ray called")

        monkeypatch.setattr(stability_module.PhasePoint, "_ray", no_ray)
        argv = ["scan", "bayer", "--n", "2", "--a", "1/2", "--b", "-1", "--bound", "8", "--json"]
        assert cli.main(argv) == 1
        assert sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "08c5395c92d5fddfa3dd071c14e3ae195fd296c8381e51e08d9a84991a4a3bd0"
        )

    def test_curve_scan_steps_the_scaled_exact_charges(self, monkeypatch):
        # Every curve class passes, so its certificate cannot show a wrong
        # start or stride of the stepping.  The parts handed to the phase
        # order must be the exact charges times the one denominator, in the
        # scan's order: (after, before) for each (r, d), and both ways round
        # for torsion.
        p = ChargeParams(F(7, 3), F(-2), 1)
        den = p.coefficients[2]
        seen = []

        def spy(*parts):
            seen.append(parts)
            return _phase_below(*parts)

        def scaled(vec):
            z = central_charge(p, vec)
            return z.re * den, z.im * den

        expected = []
        for r, d in itertools.product(range(1, 4), range(-3, 4)):
            vec = vector_from_rank_deg(r, d)
            expected.append((*scaled(twist(vec, [-1])), *scaled(vec)))
        for d in range(1, 4):
            vec = vector_from_rank_deg(0, d)
            before, after = scaled(vec), scaled(twist(vec, [-1]))
            expected += [(*before, *after), (*after, *before)]
        monkeypatch.setattr(stability_module, "_phase_below", spy)
        assert bayer_shadow_scan(p, 3)["violations"] == []
        assert seen == expected

    def test_twist_drops_phase_spot_check(self):
        p = ChargeParams(F(1), F(0), 1)
        before = phase(central_charge(p, vector_from_rank_deg(1, 0)))
        after = phase(central_charge(p, vector_from_rank_deg(1, -1)))
        assert before == phase(ExactComplex(0, 1))
        assert after < before


class TestRelationCalculus:
    def test_compose_examples(self):
        assert compose_relations(BAYER_FACT, BAYER_FACT) == RelationFact(2, 0, False)
        r3 = restriction_fact(3)
        assert compose_relations(r3, r3) == RelationFact(6, 2, True)
        assert compose_relations(BAYER_FACT, IDENTITY_FACT) == BAYER_FACT

    def test_associativity(self):
        rng = random.Random(31)
        for _ in range(100):
            f = [
                RelationFact(rng.randint(0, 5), rng.randint(0, 3), rng.random() < 0.5)
                for _ in range(3)
            ]
            assert compose_relations(compose_relations(f[0], f[1]), f[2]) == compose_relations(
                f[0], compose_relations(f[1], f[2])
            )

    def test_weaken(self):
        assert weaken_twist(RelationFact(2, 1, True)) == RelationFact(1, 1, True)
        with pytest.raises(ValueError):
            weaken_twist(RelationFact(0, 1, True))

    def test_validation(self):
        with pytest.raises(ValueError):
            RelationFact(-1, 0, False)
        with pytest.raises(ValueError):
            restriction_fact(0)


def oracle_word_search(goal, big_n, max_len=12):
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


class TestTwistChain:
    def test_frozen_success(self):
        certs = derive_twist_chain([2, 5], 3)
        assert [c["achievable"] for c in certs] == [True, True]
        assert all(c["violations"] == [] for c in certs)
        assert certs[0]["fact"] == {"twist": 2, "shift": 1, "strict": True}
        assert certs[1]["fact"] == {"twist": 5, "shift": 2, "strict": True}
        assert certs[0]["word"] == ["restriction", "weaken"]
        assert certs[1]["word"] == ["restriction", "restriction", "weaken"]

    def test_frozen_refusal(self):
        certs = derive_twist_chain([4], 3)
        assert certs[0]["achievable"] is False
        assert certs[0]["violations"][0]["kind"] == "unreachable_goal"
        assert "4" in certs[0]["violations"][0]["reason"]

    def test_empty_input(self):
        assert derive_twist_chain([], 5) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            derive_twist_chain([0], 3)
        with pytest.raises(ValueError):
            derive_twist_chain([1], 0)
        with pytest.raises(ValueError, match="a_1 must be a positive integer, got True"):
            derive_twist_chain([True], 2)
        with pytest.raises(ValueError, match="N must be a positive integer, got True"):
            derive_twist_chain([1], True)
        with pytest.raises(ValueError, match="chain of 1000000000 steps exceeds"):
            derive_twist_chain([1], 10**9)

    def test_step_budget(self, monkeypatch):
        # [2, 5] at N = 3 takes 2 + 3 steps, as its words show; [1, 5]
        # takes 3 + 3, and the budget sums over the reachable goals only.
        monkeypatch.setattr("schubstab.stability.MAX_CHAIN_STEPS", 5)
        certs = derive_twist_chain([2, 5, 100], 3)
        assert [len(c["steps"]) for c in certs] == [2, 3, 0]
        with pytest.raises(ValueError, match="chain of 6 steps exceeds the limit of 5"):
            derive_twist_chain([1, 5], 3)

    def test_replay(self):
        for cert in derive_twist_chain([1, 4, 9], 3):
            fact = replay_twist_chain(cert)
            assert fact.to_json() == cert["fact"]

    def test_a_wrong_weakening_is_named_and_still_replays(self, monkeypatch, capsys):
        """A weaken_twist that lowers the twist by two misses every goal
        that needs a weakening.  The certificate names the miss, the command
        exits 1, and the replay, which uses the same rule, agrees with every
        recorded step."""
        from schubstab import cli

        monkeypatch.setattr(
            stability_module,
            "weaken_twist",
            lambda fact: RelationFact(fact.twist - 2, fact.shift, fact.strict),
        )
        certs = derive_twist_chain([2, 5], 3)
        missed = {"twist": 1, "shift": 1, "strict": True}
        assert certs[0]["fact"] == missed
        assert certs[0]["violations"] == [{"kind": "derivation_missed_goal", "fact": missed}]
        assert [v["kind"] for c in certs for v in c["violations"]] == ["derivation_missed_goal"] * 2
        for cert in certs:
            assert replay_twist_chain(cert).to_json() == cert["fact"]
        assert cli.main(["derive", "chain", "--adegrees", "2,5", "--N", "3", "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["certificates"] == certs

    def test_replay_detects_tampering(self):
        cert = derive_twist_chain([2], 3)[0]
        cert["steps"][-1]["fact"]["twist"] += 1
        with pytest.raises(ValueError):
            replay_twist_chain(cert)

    def test_reachability_matches_word_search(self):
        for big_n in (1, 2, 3):
            for j in (1, 2, 3):
                for a in range(1, 13):
                    cert = derive_twist_chain([1] * (j - 1) + [a], big_n)[j - 1]
                    expected = a <= j * big_n
                    assert cert["achievable"] == expected
                    found = oracle_word_search((a, j, True), big_n)
                    if expected and j + j * big_n - a <= 12:
                        assert found
                    if not expected:
                        assert not found

    def test_deterministic(self):
        assert derive_twist_chain([3, 7], 4) == derive_twist_chain([3, 7], 4)
