"""Command-line interface: parsing, output discipline, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schubstab import cli
from schubstab.bimodule import GraphTwistEntry
from schubstab.cli import int_list, main, rational
from schubstab.perms import Permutation
from schubstab.poly import Poly
from schubstab.schubert import double_schubert
from test_json_golden import GOLDEN


def child_env():
    """os.environ with the directory this process imported schubstab from
    first on PYTHONPATH, so a child interpreter runs the same sources."""
    src = str(Path(cli.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestArgumentTypes:
    def test_rational_accepts_exact_forms(self):
        assert rational("2/3") == Fraction(2, 3)
        assert rational("-7") == Fraction(-7)
        assert rational(" 5/10 ") == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ["0.5", "1e3", "", "3/0", "pi", "1 / 2"])
    def test_rational_rejects_inexact_forms(self, bad):
        with pytest.raises(ValueError):
            rational(bad)

    def test_int_list(self):
        assert int_list("2,1") == (2, 1)
        assert int_list(" 3 , -4 ") == (3, -4)
        assert int_list("") == ()
        with pytest.raises(ValueError):
            int_list("a,b")
        for text in ("2,,3,1", "2,3,"):
            with pytest.raises(ValueError, match="comma-separated"):
                int_list(text)


class TestSchubertCommand:
    def test_simple_transposition(self, capsys):
        code, out, err = run(["schubert", "--n", "2", "--w", "2,1"], capsys)
        assert code == 0
        assert out.strip() == "x1"

    def test_double_flag(self, capsys):
        code, out, _ = run(["schubert", "--n", "2", "--w", "2,1", "--double"], capsys)
        assert code == 0
        assert "y1" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(
            ["schubert", "--n", "3", "--w", "2,3,1", "--json"], capsys
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["w"] == [2, 3, 1]
        assert blob["double"] is False
        assert blob["poly"]["terms"] == [
            {"exp": [1, 1, 0], "num": "1", "den": "1"}
        ]

    def test_rank_mismatch_is_usage_error(self, capsys):
        code, _, err = run(["schubert", "--n", "3", "--w", "2,1"], capsys)
        assert code == 2
        assert "rank" in err

    def test_invalid_word_is_usage_error(self, capsys):
        code, _, _ = run(["schubert", "--n", "2", "--w", "2,2"], capsys)
        assert code == 2


class TestVerifyCommands:
    def test_soergel_rank3_passes(self, capsys):
        code, out, err = run(["verify", "soergel", "--n", "3"], capsys)
        assert code == 0
        assert "filtration_identity: ok" in out
        assert "s_basis_unitriangular: ok" in out
        assert "f_matrix_triangular_injectivity: ok" in out
        assert "checking" in err
        assert "checking" not in out

    def test_soergel_computes_the_filtration_identity_once(self, capsys, monkeypatch):
        import schubstab.cli as cli_module

        calls = []
        real = cli_module.verify_filtration_identity

        def counted(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(cli_module, "verify_filtration_identity", counted)
        code, _, err = run(["verify", "soergel", "--n", "3", "--json"], capsys)
        assert code == 0
        assert calls == [3]
        assert err.count("closure") == 1
        assert "deriving triangular injectivity and right closure at every level" in err

    @pytest.mark.parametrize(
        "argv, work, message",
        [
            (["verify", "soergel", "--n", "7"],
             ["cli.verify_filtration_identity", "cli.verify_unitriangular",
              "cli.verify_bimodule_closure", "cli.verify_triangular_injectivity"],
             "rank 7 is outside 1..6 for filtration certificates"),
            (["table", "graph-twists", "--n", "7"],
             ["bimodule.symmetric_group", "bimodule.delta_w"],
             "rank 7 is outside 1..6 for graph-twist tables"),
            (["schubert", "--n", "11", "--w", "1,2,3,4,5,6,7,8,9,10,11"],
             ["schubert.divided_difference"],
             "rank 11 is outside 1..10 for Schubert polynomials"),
            (["schubert", "--n", "8", "--double", "--w", "1,2,3,4,5,6,7,8"],
             ["schubert.divided_difference"],
             "rank 8 is outside 1..7 for double Schubert polynomials"),
            (["verify", "demazure", "--n", "8"],
             ["poly.random_poly", "poly.divided_difference"],
             "rank 8 is outside 1..7 for divided-difference relations"),
        ],
    )
    def test_filtration_schubert_and_table_ranks_are_budgeted(
        self, capsys, monkeypatch, argv, work, message
    ):
        def boom(*args):
            raise AssertionError("work started")

        for name in work:
            monkeypatch.setattr(f"schubstab.{name}", boom)
        for extra in ([], ["--json"]):
            code, out, err = run(argv + extra, capsys)
            assert code == 2
            assert out == ""
            assert err.splitlines() == [f"error: {message}"]

    def test_demazure_json(self, capsys):
        argv = ["verify", "demazure", "--n", "3", "--trials", "4", "--seed", "2", "--json"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        cert = json.loads(out)
        assert cert["check"] == "demazure_relations"
        assert cert["violations"] == []

    def test_demazure_rank_one_is_usage_error(self, capsys):
        code, out, err = run(["verify", "demazure", "--n", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: need at least two variables"]

    def test_charges_passes(self, capsys):
        argv = [
            "verify", "charges", "--n", "2", "--m", "3",
            "--a", "1/2", "--b", "-1", "--trials", "10", "--seed", "4",
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert "charge_transforms: ok" in out

    def test_nonpositive_a_is_usage_error(self, capsys):
        code, _, err = run(
            ["verify", "charges", "--n", "1", "--a", "-1"], capsys
        )
        assert code == 2
        assert "positive" in err

    def test_float_a_is_usage_error(self, capsys):
        code, _, _ = run(["verify", "charges", "--n", "1", "--a", "0.5"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [["verify", "charges", "--n", "13"], ["verify", "charges", "--n", "14"],
         ["scan", "bayer", "--n", "30"]],
    )
    def test_rank_beyond_budget_is_refused(self, capsys, monkeypatch, argv):
        def boom(*args):
            raise AssertionError("check started")

        monkeypatch.setattr("schubstab.lattice.random_lattice_vector", boom)
        monkeypatch.setattr("schubstab.stability.central_charge", boom)
        monkeypatch.setattr("schubstab.stability._charge_numerators", boom)
        code, out, err = run(argv, capsys)
        n = argv[-1]
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: rank {n} is outside 1..12 for charge lattices"
        ]

    def test_trials_beyond_the_lane_byte_limit_are_refused(self, capsys, monkeypatch):
        """128 trials at rank 12 are within the component limit, but with
        these parameters their lanes of 160 bytes are not: refused before
        the progress line and any draw."""

        def boom(*args):
            raise AssertionError("check started")

        monkeypatch.setattr("schubstab.lattice.random_lattice_vector", boom)
        argv = ["verify", "charges", "--n", "12", "--m", "1000", "--a", "99991/99989",
                "--b", "-99971/99961", "--trials", "128", "--json"]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: 128 trials of 4096 components in lanes of 160 bytes exceed the limit of "
            "8388608 bytes"
        ]

    def test_trials_beyond_the_component_limit_are_refused(self, capsys, monkeypatch):
        def boom(*args):
            raise AssertionError("check started")

        monkeypatch.setattr("schubstab.lattice.random_lattice_vector", boom)
        code, out, err = run(["verify", "charges", "--n", "12", "--trials", "400", "--json"], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: 400 trials of 4096 components exceed the limit of 524288 components"
        ]


class TestScanCommand:
    def test_curve_scan(self, capsys):
        argv = ["scan", "bayer", "--n", "1", "--a", "7/3", "--b", "-2",
                "--bound", "12", "--json"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        cert = json.loads(out)
        assert cert["shadow"] is True
        assert cert["violations"] == []
        assert cert["scanned"] == 12 * 25 + 12

    def test_surface_scan_runs(self, capsys):
        argv = ["scan", "bayer", "--n", "2", "--bound", "1", "--json"]
        code, out, err = run(argv, capsys)
        assert code in (0, 1)
        cert = json.loads(out)
        assert cert["scanned"] + cert["skipped"] == 81
        assert "exploratory" in err

    def test_default_surface_scan_is_refused(self, capsys, monkeypatch):
        def boom(*args):
            raise AssertionError("scan started")

        monkeypatch.setattr("schubstab.stability.central_charge", boom)
        monkeypatch.setattr("schubstab.stability._charge_numerators", boom)
        code, out, err = run(["scan", "bayer", "--n", "2"], capsys)
        assert code == 2
        assert out == ""
        assert "error: scan of 6765201 classes exceeds the limit" in err
        assert "scanning" not in err and "exploratory" not in err


class TestHnCommand:
    def test_torsion_first(self, capsys):
        argv = ["hn", "p1", "--degrees", "5", "--torsion", "2", "--json"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        blob = json.loads(out)
        factors = blob["factors"]
        assert factors[0]["factor"] == {"bundle_degrees": [], "torsion_lengths": [2]}
        assert factors[0]["phase"] == {"re": "-2", "im": "0", "shift": 0}
        assert factors[1]["factor"]["bundle_degrees"] == [5]

    def test_text_mode_ordering(self, capsys):
        code, out, _ = run(["hn", "p1", "--degrees", "1,0"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("1. O(1)")
        assert lines[1].startswith("2. O(0)")

    def test_zero_sheaf_is_usage_error(self, capsys):
        code, _, err = run(["hn", "p1"], capsys)
        assert code == 2
        assert "at least one" in err


class TestDeriveCommand:
    def test_refusal_exits_one(self, capsys):
        code, out, _ = run(["derive", "chain", "--adegrees", "4", "--N", "3"], capsys)
        assert code == 1
        assert "REFUSED" in out

    def test_success_exits_zero(self, capsys):
        code, out, _ = run(["derive", "chain", "--adegrees", "2,5", "--N", "3"], capsys)
        assert code == 0
        assert out.count("derived twist") == 2

    def test_json_certificates(self, capsys):
        argv = ["derive", "chain", "--adegrees", "3,6", "--N", "3", "--json"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        blob = json.loads(out)
        assert [c["achievable"] for c in blob["certificates"]] == [True, True]

    def test_empty_chain_is_usage_error(self, capsys):
        for extra in ([], ["--json"]):
            code, out, err = run(["derive", "chain", "--adegrees", "", "--N", "3"] + extra, capsys)
            assert code == 2
            assert out == ""
            assert err.splitlines() == ["error: give at least one a-degree"]

    def test_oversized_chain_is_refused(self, capsys, monkeypatch):
        def boom(*args):
            raise AssertionError("chain started")

        monkeypatch.setattr("schubstab.stability.compose_relations", boom)
        argv = ["derive", "chain", "--adegrees", "1", "--N", "1000000000"]
        for extra in ([], ["--json"]):
            code, out, err = run(argv + extra, capsys)
            assert code == 2
            assert out == ""
            assert err.splitlines() == [
                "error: chain of 1000000000 steps exceeds the limit of 100000"
            ]


class TestTableCommand:
    def test_graph_twists_rank2(self, capsys):
        code, out, _ = run(["table", "graph-twists", "--n", "2"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("w=[1,2]")
        assert "degrees=(1,1)" in lines[1]

    def test_json_shape(self, capsys):
        code, out, _ = run(["table", "graph-twists", "--n", "2", "--json"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["entries"][1]["inversions"] == [[1, 2]]


class TestTextModeBuildsNoPayload:
    @pytest.mark.parametrize(
        "argv, text",
        [
            (["schubert", "--n", "3", "--w", "2,3,1"], "x1*x2\n"),
            (
                ["schubert", "--n", "3", "--w", "2,3,1", "--double"],
                "y1^2 - x2*y1 - x1*y1 + x1*x2\n",
            ),
            (
                ["table", "graph-twists", "--n", "2"],
                "w=[1,2]  inversions=[]  delta=1  degrees=(0,0)\n"
                "w=[2,1]  inversions=[(1,2)]  delta=-x2 + x1  degrees=(1,1)\n",
            ),
        ],
        ids=["schubert", "double", "graph-twists"],
    )
    def test_text_mode_never_calls_to_json(self, capsys, monkeypatch, argv, text):
        def refuse(self):
            raise RuntimeError("JSON payload built in text mode")

        monkeypatch.setattr(Poly, "to_json", refuse)
        monkeypatch.setattr(GraphTwistEntry, "payload", refuse)
        assert run(argv, capsys) == (0, text, "")


class TestJsonOutput:
    """Payloads go to cli._json_write as they are, so every subcommand's must
    be JSON-native: a stray float, Fraction or set raises TypeError."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            pytest.param(["schubert", "--n", "3", "--w", "2,3,1"], 0, id="schubert"),
            pytest.param(
                ["schubert", "--n", "3", "--w", "2,3,1", "--double"], 0, id="schubert-double"
            ),
            pytest.param(
                ["verify", "demazure", "--n", "3", "--trials", "3", "--seed", "7"], 0,
                id="verify-demazure",
            ),
            pytest.param(["verify", "soergel", "--n", "2"], 0, id="verify-soergel"),
            pytest.param(
                ["verify", "charges", "--n", "1", "--m", "2", "--trials", "8", "--seed", "11"], 0,
                id="verify-charges",
            ),
            pytest.param(
                ["scan", "bayer", "--n", "2", "--a", "1/2", "--b", "-1", "--bound", "2"], 1,
                id="scan-bayer",
            ),
            pytest.param(
                ["hn", "p1", "--degrees", "5,1,1", "--torsion", "2", "--a", "1/3"], 0, id="hn-p1"
            ),
            pytest.param(["derive", "chain", "--adegrees", "2,5", "--N", "3"], 0, id="derive-chain"),
            pytest.param(["table", "graph-twists", "--n", "3"], 0, id="table-graph-twists"),
        ],
    )
    def test_json_yields_identical_bytes(self, capsys, argv, code):
        first_code, first, _ = run(argv + ["--json"], capsys)
        second_code, second, _ = run(argv + ["--json"], capsys)
        assert first_code == second_code == code
        assert first == second
        assert isinstance(json.loads(first), dict)


# Characters that json escapes: quote, backslash, controls, DEL, and
# non-ASCII ones from the BMP and beyond it (written as surrogate pairs).
_SPECIAL = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600"]
_TEXT = st.text(st.one_of(st.characters(), st.sampled_from(_SPECIAL)), max_size=8)
_INTS = st.one_of(st.integers(-(2**70), 2**70), st.integers(-3, 3))
_LEAVES = st.one_of(
    _TEXT,
    _INTS,
    st.booleans(),
    st.none(),
    st.lists(_INTS, max_size=6),
    st.lists(st.one_of(_INTS, st.booleans()), max_size=6),
    st.sampled_from([[], {}, [[]], [{}], {"": []}, {"a": {}}, ()]),
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_TEXT, children, max_size=5),
    ),
    max_leaves=25,
)


# Polynomials in x-only and x-and-y rings (nvars 0 included), with negative
# coefficients, non-integer ones over different denominators, and exponents
# of 64 and more, which need fields wider than the default six bits.
_COEFFS = st.builds(
    Fraction, st.integers(-40, 40), st.sampled_from([1, 1, 2, 3, 4, 6, 9])
)


@st.composite
def _polys(draw):
    nx = draw(st.integers(0, 3))
    ny = draw(st.sampled_from([0, 0, 1, 2]))
    exponent = st.one_of(st.integers(0, 3), st.integers(60, 70))
    terms = draw(
        st.dictionaries(
            st.tuples(*[exponent] * (nx + ny)), _COEFFS, max_size=6
        )
    )
    return Poly(nx, ny, terms)


def json_text(obj) -> str:
    """The text main writes for obj with --json, without its final newline."""
    pieces = []
    cli._json_write(obj, "\n", pieces.append)
    return "".join(pieces)


class TestJsonWriter:
    """cli._json_write writes what json.dumps(sort_keys=True, indent=2)
    renders, byte for byte, and refuses what the exact contract excludes."""

    @settings(max_examples=300, deadline=None)
    @given(_TREES)
    def test_matches_json_dumps(self, obj):
        assert json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)

    @settings(max_examples=150, deadline=None)
    @given(_polys())
    @example(Poly.zero(2))
    @example(Poly.zero(0, 0))
    @example(Poly.const(Fraction(-3, 4), 0, 0))
    @example(Poly(2, 1, {(0, 0, 0): Fraction(1, 2), (1, 64, 0): -3, (0, 1, 2): Fraction(5, 6)}))
    def test_renders_a_poly_as_json_dumps_renders_its_to_json(self, p):
        placements = [
            lambda q: q,
            lambda q: {"double": True, "poly": q, "w": [2, 1]},
            lambda q: {"entries": [{"delta": q, "n": 0}, q], "n": 2},
        ]
        for place in placements:
            want = json.dumps(place(p.to_json()), sort_keys=True, indent=2)
            assert json_text(place(p)) == want

    @pytest.mark.parametrize(
        "obj",
        [1.5, Fraction(1, 2), {1, 2}, {1: "a"}, [1, 2.0], {"a": [Fraction(3)]}],
        ids=["float", "fraction", "set", "int-key", "float-in-int-list", "nested-fraction"],
    )
    def test_refuses_non_json_values(self, obj):
        with pytest.raises(TypeError):
            json_text(obj)

    def test_main_raises_on_a_fraction_in_a_payload(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "hn_factors_to_json", lambda factors: [{"re": Fraction(1, 2)}])
        with pytest.raises(TypeError):
            main(["hn", "p1", "--degrees", "1", "--json"])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("extra", [0, 1], ids=["one-block", "one-block-plus-one"])
    def test_renders_a_poly_at_the_block_boundary(self, extra):
        count = cli._BLOCK + extra
        p = Poly(2, 1, {(i // 40, i % 40, i % 3): Fraction(i + 1, 1 + i % 4) for i in range(count)})
        assert len(p.terms) == count
        want = json.dumps(p.to_json(), sort_keys=True, indent=2)
        assert json_text(p) == want
        nested = {"entries": [p], "n": 1}
        assert json_text(nested) == json.dumps(
            {"entries": [p.to_json()], "n": 1}, sort_keys=True, indent=2
        )

    def test_main_prints_nothing_when_a_value_after_a_large_poly_is_refused(
        self, capsys, monkeypatch
    ):
        big = Poly(2, 0, {(i, j): i - j or 1 for i in range(60) for j in range(60)})
        assert len(big.terms) > 3 * cli._BLOCK
        payload = {"a": big, "z": Fraction(1, 2)}
        monkeypatch.setattr(cli, "hn_factors_to_json", lambda factors: payload)
        with pytest.raises(TypeError):
            main(["hn", "p1", "--degrees", "1", "--json"])
        assert capsys.readouterr().out == ""


class _CountingSink:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)


def test_emit_holds_about_one_copy_of_a_large_document(monkeypatch):
    """_emit of the rank-6 longest double Schubert polynomial (15 944 terms,
    3.8 MB of JSON) allocates less than twice the document's length at its
    peak: the pieces of the document, and no copy of a child in its
    parent."""
    w = Permutation([6, 5, 4, 3, 2, 1])
    payload = {"w": w.to_json(), "double": True, "poly": double_schubert(w)}
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        cli._emit(SimpleNamespace(json=True), payload, [])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars > 3_000_000
    assert peak < 2 * sink.chars


class TestPolyPayloads:
    """schubert and table graph-twists hand their Poly objects to
    cli._json_write, which writes them without calling Poly.to_json."""

    @pytest.mark.parametrize(
        "command",
        [
            "schubert --n 2 --w 2,1",
            "schubert --n 3 --w 2,3,1 --double",
            "schubert --n 5 --w 5,1,4,3,2 --double",
            "table graph-twists --n 4",
        ],
    )
    def test_golden_bytes_without_to_json(self, capsys, monkeypatch, command):
        def refuse(self):
            raise RuntimeError("Poly.to_json called by the CLI")

        monkeypatch.setattr(Poly, "to_json", refuse)
        code, out, _ = run([*command.split(), "--json"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == {c: d for c, _, d in GOLDEN}[command]


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 2

    def test_no_arguments(self, capsys):
        assert run([], capsys)[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run(["verify", "soergel"], capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"], capsys)[0] == 0


class TestParser:
    """main reads --name value and --name=value alike from the command
    table; every usage error prints one error line and nothing on stdout."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "charges", "--n", "2", "--m", "3", "--a", "3/2", "--b", "-1/3",
             "--trials", "6", "--seed", "4"],
            ["scan", "bayer", "--n", "1", "--a", "2/3", "--b", "-5/2", "--bound", "4"],
            ["hn", "p1", "--degrees", "-2,4", "--torsion", "2", "--a", "1/3", "--b", "-1"],
            ["derive", "chain", "--adegrees", "2,5", "--N", "3"],
        ],
        ids=["verify-charges", "scan-bayer", "hn-p1", "derive-chain"],
    )
    def test_separate_and_joined_values_give_identical_bytes(self, capsys, argv):
        joined = argv[:2] + [f"{a}={b}" for a, b in zip(argv[2::2], argv[3::2])]
        first = run(argv + ["--json"], capsys)
        second = run(joined + ["--json"], capsys)
        assert first[0] == second[0] in (0, 1)
        assert first[1] == second[1] != ""

    def test_negative_value_as_its_own_token(self, capsys):
        code, out, _ = run(["verify", "charges", "--n", "1", "--b", "-5/2", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["params"]["b"] == "-5/2"

    def test_last_of_a_repeated_option_wins(self, capsys):
        repeated = run(["verify", "demazure", "--n", "2", "--trials", "9", "--n", "3",
                        "--seed", "2", "--json", "--trials", "4"], capsys)
        once = run(["verify", "demazure", "--n", "3", "--seed", "2", "--json", "--trials", "4"],
                   capsys)
        assert repeated == once
        assert json.loads(once[1])["trials"] == 4

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "soergel", "--n", "3", "--bogus", "1"], "unrecognized argument '--bogus'"),
            (["verify", "charges", "--n", "2", "--tri", "5"], "unrecognized argument '--tri'"),
            (["verify", "soergel", "--n", "3", "7"], "unrecognized argument '7'"),
            (["verify", "soergel", "--n"], "argument --n: expected one argument"),
            (["verify", "soergel", "--n", "3", "--json=1"], "argument --json: takes no value"),
            (["verify", "charges", "--n", "1", "--a", "0.5"],
             "argument --a: '0.5' is not an exact rational (use p/q or an integer)"),
            (["verify", "soergel"], "the following arguments are required: --n"),
            (["derive", "chain"], "the following arguments are required: --adegrees, --N"),
            (["frobnicate"], "'frobnicate' is not a command; choose from schubert, "
             "verify demazure, verify soergel, verify charges, scan bayer, hn p1, "
             "derive chain, table graph-twists"),
            (["frobnicate", "--help"], "'frobnicate' is not a command; choose from schubert, "
             "verify demazure, verify soergel, verify charges, scan bayer, hn p1, "
             "derive chain, table graph-twists"),
            (["verify"], "'verify' is not a command; choose from verify demazure, "
             "verify soergel, verify charges"),
            ([], "'' is not a command; choose from schubert, verify demazure, "
             "verify soergel, verify charges, scan bayer, hn p1, derive chain, "
             "table graph-twists"),
        ],
        ids=["unknown-option", "abbreviation", "stray-word", "no-value", "flag-value",
             "float", "missing", "missing-two", "unknown-command", "unknown-command-help",
             "group-word", "empty"],
    )
    def test_usage_error_prints_one_line(self, capsys, argv, message):
        assert run(argv, capsys) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [["verify", "charges", "--help"], ["verify", "-h"],
                                      ["verify", "charges", "--n", "x", "--help"]])
    def test_help_after_command_words_exits_zero(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        assert "verify charges: charge transformation laws" in out
        assert "  --trials POSITIVE_INT  default 100" in out
        assert "schubert" not in out

    def test_help_is_the_command_table_and_argparse_is_not_imported(self, capsys):
        """A fresh interpreter imports the CLI without argparse, and --help
        names every command in the table with each option's converter and
        default."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, schubstab.cli; print('argparse' in sys.modules)"],
            capture_output=True, text=True, env=child_env(),
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n")
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        blocks = {block.splitlines()[0]: block.splitlines()[1:] for block in out.split("\n\n")}
        for words, (_, text, options) in cli.COMMANDS.items():
            lines = blocks[f"{' '.join(words)}: {text}"]
            want = []
            for name, (convert, default) in options.items():
                if convert is None:
                    want.append(f"  --{name}  flag")
                else:
                    note = "required" if default is cli._REQUIRED else f"default {default}"
                    want.append(f"  --{name} {convert.__name__.upper()}  {note}")
            assert lines == want
        assert "  --m POSITIVE_INT  default 2" in blocks["verify charges: charge transformation laws"]
        assert "  --json  flag" in blocks["schubert: print a Schubert polynomial"]


class TestSharedParser:
    """main() parses every call from the one command table and keeps no
    state between calls: calls after a usage error, --help and non-default
    options must print what a fresh process prints."""

    CALLS = [
        ["verify", "charges", "--n", "1", "--a", "0.5"],
        ["--help"],
        ["verify", "charges", "--n", "2", "--m", "3", "--a", "3/2", "--b=-1/3",
         "--trials", "6", "--seed", "4", "--json"],
        ["scan", "bayer", "--n", "1", "--a", "2/3", "--b=-5/2", "--bound", "4"],
        ["verify", "charges", "--n", "2", "--trials", "6"],
    ]

    def test_calls_in_one_process_match_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        in_process = [run(argv, capsys)[:2] for argv in self.CALLS]
        fresh = []
        for argv in self.CALLS:
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from schubstab.cli import main; sys.exit(main(sys.argv[1:]))",
                 *argv],
                capture_output=True,
                text=True,
                env=child_env(),
            )
            fresh.append((proc.returncode, proc.stdout))
        assert [code for code, _ in in_process] == [2, 0, 0, 0, 0]
        assert in_process == fresh


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from schubstab.cli import main; sys.exit(main(['schubert', '--n', '2', '--w', '2,1']))"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "x1"
