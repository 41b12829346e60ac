"""Each output check of the benchmark passes on the program's real output
and fails on a corrupted copy of it.

Run with: python3 -m pytest bench/tests
"""

from __future__ import annotations

import copy
import io
import itertools
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import rounds  # noqa: E402
import run  # noqa: E402
from schubstab import cli, lattice, poly, schubert  # noqa: E402
from schubstab.perms import Permutation  # noqa: E402


def cli_doc(*argv: str) -> tuple[int, dict]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--json"])
    return code, json.loads(out.getvalue())


def flip_first_coefficient(poly_json: dict) -> dict:
    bad = copy.deepcopy(poly_json)
    term = bad["terms"][0]
    term["num"] = str(-int(term["num"]) or 1)
    return bad


def render_op(op: rounds.Op) -> dict:
    return json.loads(rounds.render(op, rounds.run_op(op)))


# ------------------------------------------------------------------ soergel


@pytest.fixture(scope="module")
def soergel3():
    code, doc = cli_doc("verify", "soergel", "--n", "3")
    assert code == 0
    return doc


def test_soergel_counts(soergel3):
    assert checks.check_verify_soergel(soergel3, 3) == []
    bad = copy.deepcopy(soergel3)
    bad["certificates"][0]["pairs"] += 1
    assert checks.check_verify_soergel(bad, 3)
    bad = copy.deepcopy(soergel3)
    bad["certificates"][1]["entries"] -= 1
    assert checks.check_verify_soergel(bad, 3)
    bad = copy.deepcopy(soergel3)
    del bad["certificates"][-1]
    assert checks.check_verify_soergel(bad, 3)
    bad = copy.deepcopy(soergel3)
    bad["certificates"][2]["products"] += 3
    assert checks.check_verify_soergel(bad, 3)


def test_graph_twists():
    _, doc = cli_doc("table", "graph-twists", "--n", "3")
    assert checks.check_graph_twists(doc, 3) == []
    bad = copy.deepcopy(doc)
    bad["entries"][3]["delta"] = flip_first_coefficient(bad["entries"][3]["delta"])
    assert checks.check_graph_twists(bad, 3)
    bad = copy.deepcopy(doc)
    bad["entries"][4]["degrees"][0] += 1
    assert checks.check_graph_twists(bad, 3)


@pytest.fixture(scope="module")
def closure_doc():
    return render_op(rounds.Op("closure", ((1, 3, 2, 4), 2)))


def test_closure_flipped_product(closure_doc):
    assert checks.check_closure(closure_doc, (1, 3, 2, 4), 2) == []
    bad = copy.deepcopy(closure_doc)
    bad["product"][0]["coeff"] = flip_first_coefficient(bad["product"][0]["coeff"])
    assert any("F_" in p for p in checks.check_closure(bad, (1, 3, 2, 4), 2))


def test_closure_dropped_witness_entry(closure_doc):
    bad = copy.deepcopy(closure_doc)
    del bad["witness"][-1]
    assert any("witness" in p for p in checks.check_closure(bad, (1, 3, 2, 4), 2))
    bad = copy.deepcopy(closure_doc)
    bad["in_gamma"] = False
    assert checks.check_closure(bad, (1, 3, 2, 4), 2)


def test_schubert_dump():
    entries = [
        {"w": list(w), "poly": schubert.schubert_poly(Permutation(w)).to_json()}
        for w in rounds.perms_of(4)
    ]
    assert checks.check_schubert_dump(entries) == []
    entries[7]["poly"] = flip_first_coefficient(entries[7]["poly"])
    assert len(checks.check_schubert_dump(entries)) == 1


# ----------------------------------------------------------------- demazure


def test_reduced_word_closed_form():
    def words(w):
        if list(w) == sorted(w):
            return 1
        total = 0
        for a in range(len(w) - 1):
            if w.index(a + 1) > w.index(a + 2):  # a is a left descent
                total += words(tuple(a + 2 if v == a + 1 else a + 1 if v == a + 2 else v for v in w))
        return total

    for n in (3, 4, 5):
        several = sum(1 for w in itertools.permutations(range(1, n + 1)) if words(w) >= 2)
        assert checks.reduced_word_multiples(n) == several


def test_demazure_counts():
    code, doc = cli_doc("verify", "demazure", "--n", "4", "--trials", "2", "--seed", "3")
    assert code == 0
    assert checks.check_verify_demazure(doc, 4, 2, 3) == []
    for relation in doc["relations"]:
        bad = copy.deepcopy(doc)
        bad["relations"][relation] += 1
        assert checks.check_verify_demazure(bad, 4, 2, 3)
    bad = copy.deepcopy(doc)
    bad["violations"].append({"relation": "braid", "j": 1, "trial": 0})
    assert checks.check_verify_demazure(bad, 4, 2, 3)


def test_double_specializations():
    for w in [(1, 2, 3), (2, 3, 1), (3, 2, 1)]:
        f = schubert.double_schubert(Permutation(w)).to_json()
        assert checks.check_double(w, checks.from_json(f, checks.gens(3, True))) == []
        bad = checks.from_json(flip_first_coefficient(f), checks.gens(3, True))
        assert checks.check_double(w, bad)


def test_double_expansion_against_double():
    ops = [rounds.Op("dse", w) for w in rounds.perms_of(4)[:6]]
    docs = [render_op(op) for op in ops]
    dump = {
        "double": [
            {"w": list(w), "poly": schubert.double_schubert(Permutation(w)).to_json()}
            for w in rounds.perms_of(4)
        ],
        "divided_differences": [],
    }
    assert checks.check_dump("demazure", dump, ops, docs) == []
    docs[4]["poly"] = flip_first_coefficient(docs[4]["poly"])
    assert checks.check_dump("demazure", dump, ops, docs)


def test_divided_differences():
    f = poly.random_poly(__import__("random").Random(5), 4)
    entries = [
        {"j": j, "f": f.to_json(), "df": poly.divided_difference(j, f).to_json()}
        for j in (1, 2, 3)
    ]
    assert checks.check_divided_differences(entries) == []
    entries[1]["df"] = flip_first_coefficient(entries[1]["df"])
    assert len(checks.check_divided_differences(entries)) == 1


# ---------------------------------------------------------------- stability


def test_curve_scan():
    code, doc = cli_doc("scan", "bayer", "--n", "1", "--a", "7/3", "--b", "-2",
                        "--bound", str(rounds.CURVE_BOUND))
    assert code == 0
    assert checks.check_curve_scan(doc, "7/3", "-2") == []
    bad = copy.deepcopy(doc)
    bad["scanned"] -= 1
    assert checks.check_curve_scan(bad, "7/3", "-2")
    bad = copy.deepcopy(doc)
    bad["violations"].append({"piece": [1, 0], "kind": "phase_did_not_drop"})
    assert checks.check_curve_scan(bad, "7/3", "-2")


def rising_box_vectors(a: int, b: int, bound: int) -> list[dict]:
    """Box vectors at n = 2 whose phase rises under the twist, found apart from the program."""
    found = []
    for values in itertools.product(range(-bound, bound + 1), repeat=4):
        vec = checks.box_vector(2, values)
        before = checks.integer_ray(checks.charge(vec, a, b))
        after = checks.integer_ray(checks.charge(checks.twist_down(vec), a, b))
        if checks.in_strip(before) and checks.in_strip(after) and checks.phase_above(after, before):
            found.append(vec)
    return found


@pytest.fixture(scope="module")
def surface_doc():
    findings = rising_box_vectors(1, 0, 3)
    assert findings
    return {
        "check": "bayer_shadow",
        "params": {"n": 2, "a": "1", "b": "0", "bound": 3},
        "violations": [{"kind": "phase_rose", "vector": v} for v in findings],
    }


def test_surface_scan_findings_confirmed(surface_doc):
    assert checks.check_surface_scan(surface_doc) == []
    _, doc = cli_doc("scan", "bayer", "--n", "2", "--a", "1", "--b", "0", "--bound", "3")
    assert checks.check_surface_scan(doc) == []


def test_surface_scan_false_or_line_bundle_finding(surface_doc):
    bad = copy.deepcopy(surface_doc)
    bad["violations"][0]["vector"] = checks.box_vector(2, (-1, 0, 0, 1))
    assert any("does not rise" in p for p in checks.check_surface_scan(bad))
    bad = copy.deepcopy(surface_doc)
    bad["violations"][0]["vector"] = checks.box_vector(2, (-2, 0, 0, 0))
    assert checks.check_surface_scan(bad)
    bad = copy.deepcopy(surface_doc)
    bad["params"]["b"] = "5"
    assert checks.check_surface_scan(bad)


def test_surface_scan_line_bundle_finding_is_a_failed_claim(surface_doc):
    bad = copy.deepcopy(surface_doc)
    bad["violations"][0]["vector"] = lattice.v_of_line_bundle([1, 1]).to_json()
    assert any("line-bundle class" in p for p in checks.check_surface_scan(bad))


def test_line_bundle_classes():
    assert checks.is_line_bundle_class(lattice.v_of_line_bundle([3, -2]).to_json())
    assert checks.is_line_bundle_class(lattice.v_of_line_bundle([1, 2, -1]).to_json())
    assert not checks.is_line_bundle_class(checks.box_vector(2, (-1, 2, 3, 1)))
    assert not checks.is_line_bundle_class(checks.box_vector(2, (1, 2, 3, -1)))


def test_charge_certificate():
    code, doc = cli_doc("verify", "charges", "--n", "2", "--m", "3", "--a", "1/2", "--b", "-1",
                        "--trials", "100", "--seed", "4")
    assert code == 0
    assert checks.check_charges_cert(doc, 2, 4) == []
    bad = copy.deepcopy(doc)
    bad["violations"].append({"identity": "twist_shift"})
    assert checks.check_charges_cert(bad, 2, 4)


def test_charge_dump():
    entries = rounds.dump_for_checks("stability", 4)["charges"]
    assert checks.check_charge_dump(entries) == []
    bad = copy.deepcopy(entries)
    bad[5]["twisted"]["re"] = str(int(bad[5]["twisted"]["re"].split("/")[0]) + 1)
    assert len(checks.check_charge_dump(bad)) == 1


def test_hn():
    code, doc = cli_doc("hn", "p1", "--degrees=5,1,1", "--torsion=2", "--a=1", "--b=0")
    assert code == 0
    assert checks.check_hn(doc, "5,1,1", "2", "1", "0") == []
    bad = copy.deepcopy(doc)
    del bad["factors"][1]
    assert checks.check_hn(bad, "5,1,1", "2", "1", "0")
    bad = copy.deepcopy(doc)
    bad["factors"][1], bad["factors"][2] = bad["factors"][2], bad["factors"][1]
    assert checks.check_hn(bad, "5,1,1", "2", "1", "0")
    bad = copy.deepcopy(doc)
    bad["factors"][0]["phase"]["re"] = "-3"
    assert checks.check_hn(bad, "5,1,1", "2", "1", "0")


def test_chain():
    code, doc = cli_doc("derive", "chain", "--adegrees", "1,4,7,13", "--N", "3")
    assert code == 1
    assert checks.check_chain(doc, "1,4,7,13", "3") == []
    bad = copy.deepcopy(doc)
    bad["certificates"][3]["achievable"] = True
    assert checks.check_chain(bad, "1,4,7,13", "3")
    bad = copy.deepcopy(doc)
    bad["certificates"][1]["steps"][-1]["fact"]["twist"] += 1
    assert checks.check_chain(bad, "1,4,7,13", "3")
    bad = copy.deepcopy(doc)
    del bad["certificates"][0]["word"][-1]
    with pytest.raises(ValueError):
        checks.check_chain(bad, "1,4,7,13", "3")


# ------------------------------------------------------------ all workloads


def test_rounds_must_repeat_byte_for_byte():
    children = [
        {"kind": "plain", "digests": ["a", "b"], "warm_digests": ["a", "b"]},
        {"kind": "plain", "digests": ["a", "b"], "warm_digests": ["a", "b"]},
    ]
    assert run.compare_rounds(children) == (4, [])
    children[1]["warm_digests"] = ["a", "c"]
    rounds_seen, problems = run.compare_rounds(children)
    assert rounds_seen == 4 and problems


def test_known_fault_counts_as_failed_and_is_confirmed(surface_doc):
    op = rounds.Op("cli", ("scan", "bayer", "--n", "2", "--a", "1", "--b", "0", "--bound", "3"))
    text = "1\n" + json.dumps(surface_doc)
    problems, failed = checks.check_outputs("stability", 0, [op], [text], {"charges": []})
    assert (problems, failed) == ([], [op.label])
    bad = copy.deepcopy(surface_doc)
    bad["violations"][-1]["vector"] = checks.box_vector(2, (0, 0, 0, 1))
    problems, failed = checks.check_outputs(
        "stability", 0, [op], ["1\n" + json.dumps(bad)], {"charges": []}
    )
    assert problems and failed == [op.label]
    clean = dict(surface_doc, violations=[])
    assert checks.check_outputs("stability", 0, [op], ["0\n" + json.dumps(clean)], {"charges": []}) == ([], [])
