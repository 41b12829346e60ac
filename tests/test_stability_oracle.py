"""A per-class route to the twist shadow scan, used as an oracle.

The package scans on integer rows of the linear functionals Z and
Z(twist(., -1)): it steps the integer-scaled charges along the box by
adding one column of the rows per class, and orders them with the phase
order PhasePoint uses.  This module keeps the direct route: every class is
built as a LatticeVector, twisted, charged with central_charge and
compared as PhasePoints.  It is slow and lives only in the tests; the
certificates of both routes must be equal, also at random fractional
(a, b), where a wrong start or stride of the box stepping would show.
Every curve class passes, so on the curve test_stability checks the
stepped parts themselves.  The shared order is checked against a float
atan2 oracle in test_stability.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubstab.lattice import (
    ChargeParams,
    LatticeVector,
    central_charge,
    twist,
    vector_from_rank_deg,
)
from schubstab.stability import bayer_shadow_scan, in_strip, phase

F = Fraction
CRITERION_08_PARAMS = ((F(1), F(0)), (F(1, 2), F(3)), (F(7, 3), F(-2)))


def reference_shadow_scan(p: ChargeParams, bound: int) -> dict:
    """The scan class by class through LatticeVector, twist and PhasePoint."""
    n = p.n
    scanned = 0
    skipped = 0
    violations = []
    if n == 1:
        for r in range(1, bound + 1):
            for d in range(-bound, bound + 1):
                scanned += 1
                before = phase(central_charge(p, vector_from_rank_deg(r, d)))
                after = phase(central_charge(p, vector_from_rank_deg(r, d - r)))
                if not after < before:
                    violations.append(
                        {
                            "piece": [r, d],
                            "kind": "phase_did_not_drop",
                            "before": before.to_json(),
                            "after": after.to_json(),
                        }
                    )
        for d in range(1, bound + 1):
            scanned += 1
            before = phase(central_charge(p, vector_from_rank_deg(0, d)))
            after = phase(central_charge(p, twist(vector_from_rank_deg(0, d), [-1])))
            if after != before:
                violations.append(
                    {
                        "piece": [0, d],
                        "kind": "torsion_phase_moved",
                        "before": before.to_json(),
                        "after": after.to_json(),
                    }
                )
    else:
        minus_one = [-1] * n
        cells = [
            combo
            for size in range(n + 1)
            for combo in itertools.combinations(range(1, n + 1), size)
        ]
        for values in itertools.product(range(-bound, bound + 1), repeat=len(cells)):
            vec = LatticeVector(n, dict(zip(cells, values)))
            z_before = central_charge(p, vec)
            z_after = central_charge(p, twist(vec, minus_one))
            if not (in_strip(z_before) and in_strip(z_after)):
                skipped += 1
                continue
            scanned += 1
            if phase(z_after) > phase(z_before):
                violations.append(
                    {
                        "vector": vec.to_json(),
                        "kind": "phase_rose",
                        "before": phase(z_before).to_json(),
                        "after": phase(z_after).to_json(),
                    }
                )
    return {
        "check": "bayer_shadow",
        "params": {"n": n, "a": str(p.a), "b": str(p.b), "bound": bound},
        "scanned": scanned,
        "skipped": skipped,
        "violations": violations,
        "shadow": True,
    }


@pytest.mark.parametrize("a, b", CRITERION_08_PARAMS)
def test_curve_scan_matches_reference(a, b):
    p = ChargeParams(a, b, 1)
    assert bayer_shadow_scan(p, 12) == reference_shadow_scan(p, 12)


@pytest.mark.parametrize(
    "n, bound, a, b, findings",
    [(2, bound, a, b, 17 if (a, b, bound) == (1, 0, 3) else 0)
     for bound in (2, 3) for a, b in CRITERION_08_PARAMS]
    + [(3, 1, F(1), F(0), 106)],
)
def test_box_scan_matches_reference(n, bound, a, b, findings):
    p = ChargeParams(a, b, n)
    cert = bayer_shadow_scan(p, bound)
    assert len(cert["violations"]) == findings
    assert cert == reference_shadow_scan(p, bound)


_A = st.builds(F, st.integers(1, 7), st.integers(1, 6))
_B = st.builds(F, st.integers(-7, 7), st.integers(1, 6))


@settings(max_examples=60, deadline=None)
@given(a=_A, b=_B, bound=st.integers(1, 12))
def test_curve_scan_matches_reference_at_random_params(a, b, bound):
    p = ChargeParams(a, b, 1)
    assert bayer_shadow_scan(p, bound) == reference_shadow_scan(p, bound)


@settings(max_examples=30, deadline=None)
@given(a=_A, b=_B)
def test_box_scan_matches_reference_at_random_params(a, b):
    p = ChargeParams(a, b, 2)
    assert bayer_shadow_scan(p, 2) == reference_shadow_scan(p, 2)
