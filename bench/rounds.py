"""The benchmark's workloads, each a fixed round of schubstab operations.

An operation is either an in-process CLI call,
``schubstab.cli.main([*argv, "--json"])`` with stdout captured, or a call of
public library functions.  ``build_round`` makes a round from the workload
seed without calling into the package, so a process that has only built its
round has computed nothing yet.  ``run_round`` executes a round and
``render`` turns each raw result into the canonical text that the checks
read and that every later round must reproduce byte for byte.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from hostspeed import HostClock

WORKLOADS = ("soergel", "demazure", "stability")

# The half-width of the two curve scans in the stability round.
CURVE_BOUND = 25
CURVE_PARAMS = (("7/3", "-2"), ("1/2", "5/3"))
CHARGE_TRIALS = 100
# verify demazure --n 5 --trials 1 runs on one random polynomial, whose
# cost moves between 1.2 s and 2.5 s with its seed; this one is fixed so
# that the round's time follows the code, not the seed.
DEMAZURE_N5_SEED = 7
# A fixed sample of S5, one or two permutations per length 0..10.
S5_SAMPLE = (
    (1, 2, 3, 4, 5),
    (2, 1, 3, 4, 5),
    (2, 1, 3, 5, 4),
    (2, 1, 4, 5, 3),
    (3, 1, 4, 5, 2),
    (1, 5, 3, 4, 2),
    (3, 4, 1, 5, 2),
    (4, 1, 5, 3, 2),
    (5, 1, 4, 3, 2),
    (5, 2, 4, 3, 1),
    (5, 4, 2, 3, 1),
    (5, 4, 3, 2, 1),
)
HN_SHEAVES = (
    ("5,1,1", "2", "1", "0"),
    ("3", "", "1", "0"),
    ("0,0", "", "2/3", "1/2"),
    ("-2,4", "1,1", "1", "0"),
    ("7,7,-1", "", "3", "-5/2"),
    ("", "3", "1", "0"),
    ("2,-3,2,-3", "5", "1/4", "1"),
    ("1,1,1,1", "", "1", "0"),
)
CHAIN_GOALS = (("2,5", "3"), ("1,4,7,13", "3"))


@dataclass(frozen=True)
class Op:
    """One operation of a round.

    kind is "cli" (args is the argv without --json), "closure" (args is
    (w, k): right-multiply S_w by x_k at rank 4, then test membership in
    Gamma_{length(w)}) or "dse" (args is w: double_schubert_expansion).
    expect_exit is the exit code a correct CLI run gives.
    """

    kind: str
    args: tuple
    expect_exit: int = 0

    @property
    def label(self) -> str:
        if self.kind == "cli":
            return " ".join(self.args)
        return f"{self.kind} {self.args}"


def length(w: tuple[int, ...]) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])


def perms_of(n: int) -> list[tuple[int, ...]]:
    """S_n in the package's order: length ascending, then one-line word."""
    return sorted(itertools.permutations(range(1, n + 1)), key=lambda w: (length(w), w))


def _cli(*argv: str, expect_exit: int = 0) -> Op:
    return Op("cli", tuple(argv), expect_exit)


def build_round(workload: str, seed: int) -> list[Op]:
    """The round of a workload; the seed reaches the program only via --seed."""
    if workload == "soergel":
        ops = [
            _cli("verify", "soergel", "--n", "3"),
            _cli("verify", "soergel", "--n", "4"),
            _cli("table", "graph-twists", "--n", "3"),
        ]
        ops += [
            Op("closure", (w, k))
            for w in perms_of(4)
            if 1 <= length(w) <= 3
            for k in range(1, 5)
        ]
        return ops
    if workload == "demazure":
        s = str(seed)
        ops = [
            _cli("verify", "demazure", "--n", "4", "--trials", "20", "--seed", s),
            _cli("verify", "demazure", "--n", "5", "--trials", "1", "--seed", str(DEMAZURE_N5_SEED)),
            _cli("schubert", "--n", "3", "--w", "2,3,1", "--double"),
            _cli("schubert", "--n", "2", "--w", "2,1"),
        ]
        ops += [
            _cli("schubert", "--n", "5", "--w", ",".join(map(str, w)), "--double")
            for w in S5_SAMPLE
        ]
        ops += [Op("dse", w) for w in perms_of(4)]
        return ops
    if workload == "stability":
        s = str(seed)
        bound = str(CURVE_BOUND)
        ops = [
            _cli("scan", "bayer", "--n", "1", "--a", a, "--b", b, "--bound", bound)
            for a, b in CURVE_PARAMS
        ]
        ops += [
            _cli("verify", "charges", "--n", str(n), "--m", "3", "--a", "1/2", "--b", "-1",
                 "--trials", str(CHARGE_TRIALS), "--seed", s)
            for n in range(1, 5)
        ]
        ops.append(_cli("scan", "bayer", "--n", "2", "--a", "1", "--b", "0", "--bound", "3"))
        # Values that start with "-" and are not plain integers go as
        # --flag=value: argparse reads "-5/2" or "-2,4" as an option.
        for degrees, torsion, a, b in HN_SHEAVES:
            argv = ["hn", "p1", f"--a={a}", f"--b={b}"]
            if degrees:
                argv.append(f"--degrees={degrees}")
            if torsion:
                argv.append(f"--torsion={torsion}")
            ops.append(_cli(*argv))
        for adegrees, big_n in CHAIN_GOALS:
            reachable = all(
                a <= j * int(big_n)
                for j, a in enumerate(map(int, adegrees.split(",")), start=1)
            )
            ops.append(_cli("derive", "chain", "--adegrees", adegrees, "--N", big_n,
                            expect_exit=0 if reachable else 1))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------------ running


def run_op(op: Op):
    """Execute one operation; an exception is returned, not raised."""
    from schubstab import bimodule, cli, schubert
    from schubstab.perms import Permutation
    from schubstab.poly import Poly

    try:
        if op.kind == "cli":
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main([*op.args, "--json"])
            return code, out.getvalue()
        if op.kind == "closure":
            w, k = op.args
            perm = Permutation(w)
            product = bimodule.right_multiply(bimodule.s_element(perm), Poly.x(k, len(w)))
            ok, witness = bimodule.membership_in_gamma(product, perm.length())
            return product, ok, witness
        if op.kind == "dse":
            return schubert.double_schubert_expansion(Permutation(op.args))
    except Exception as exc:  # an operation that raises counts as failed
        return exc
    raise ValueError(f"unknown operation kind {op.kind!r}")


def run_round(ops: list[Op], span=None) -> tuple[float, float, list[float], list]:
    """Run every operation once.

    Returns the round's wall seconds, the same scaled to the reference host
    speed (see hostspeed.py; the calibration runs between operations and is
    not counted), the wall seconds of each operation, and the results.
    span, when given, is a context-manager factory that the traced run uses
    to record one span per operation.
    """
    clock = time.perf_counter
    host = HostClock()
    times, results = [], []
    for op in ops:
        t0 = clock()
        if span is None:
            results.append(run_op(op))
        else:
            with span("bench.op"):
                results.append(run_op(op))
        times.append(clock() - t0)
        host.add(times[-1])
    raw_s, scaled_s = host.close()
    return raw_s, scaled_s, times, results


def _coords_json(coords: dict) -> list[dict]:
    return [
        {"w": list(u.word), "coeff": c.to_json()}
        for u, c in sorted(coords.items(), key=lambda kv: (kv[0].length(), kv[0].word))
    ]


def render(op: Op, raw) -> str:
    """Canonical text of a result: exit code line plus stdout, or JSON."""
    if isinstance(raw, Exception):
        return f"error\n{type(raw).__name__}: {raw}"
    if op.kind == "cli":
        code, stdout = raw
        return f"{code}\n{stdout}"
    if op.kind == "closure":
        product, ok, witness = raw
        doc = {
            "w": list(op.args[0]),
            "k": op.args[1],
            "product": _coords_json(product.coords),
            "in_gamma": ok,
            "witness": _coords_json(witness),
        }
    else:
        doc = {"w": list(op.args), "poly": raw.to_json()}
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------- program values for the checks


def dump_for_checks(workload: str, seed: int) -> dict:
    """Program values the checks compare with independent computations.

    Called after the timed rounds, so it reads what the rounds computed
    (cached Schubert polynomials) or recomputes the seeded inputs that a
    certificate uses internally but does not print.
    """
    from fractions import Fraction

    from schubstab import lattice, poly, schubert
    from schubstab.perms import Permutation

    def table(words, fn):
        return [{"w": list(w), "poly": fn(Permutation(w)).to_json()} for w in words]

    if workload == "soergel":
        return {"schubert": table(perms_of(3) + perms_of(4), schubert.schubert_poly)}
    if workload == "demazure":
        dd = []
        for n, trials, s in ((4, 20, seed), (5, 1, DEMAZURE_N5_SEED)):
            rng = random.Random(s)
            polys = [poly.random_poly(rng, n) for _ in range(trials)]
            for f in polys[:3]:
                for j in range(1, n):
                    dd.append({"j": j, "f": f.to_json(),
                               "df": poly.divided_difference(j, f).to_json()})
        return {
            "schubert": table(perms_of(4) + list(S5_SAMPLE), schubert.schubert_poly),
            "double": table(perms_of(4), schubert.double_schubert),
            "divided_differences": dd,
        }
    if workload == "stability":
        charges = []
        m = 3
        msq = Fraction(m) ** 2
        for n in range(1, 5):
            p = lattice.ChargeParams(Fraction(1, 2), Fraction(-1), n)
            rng = random.Random(seed)
            for _ in range(4):
                v = lattice.random_lattice_vector(rng, n)
                z = lattice.central_charge
                charges.append({
                    "n": n,
                    "vector": v.to_json(),
                    "pullback": z(p, lattice.isogeny_pullback(m, v)).to_json(),
                    "scaled_down": z(lattice.ChargeParams(p.a / msq, p.b / msq, n), v).to_json(),
                    "pushforward": z(p, lattice.isogeny_pushforward(m, v)).to_json(),
                    "scaled_up": z(lattice.ChargeParams(p.a * msq, p.b * msq, n), v).to_json(),
                    "twisted": z(p, lattice.twist(v, [-1] * n)).to_json(),
                    "shifted": z(lattice.ChargeParams(p.a, p.b + 1, n), v).to_json(),
                })
        return {"charges": charges}
    raise ValueError(f"unknown workload {workload!r}")
