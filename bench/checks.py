"""Checks of the program's outputs, computed apart from the program.

Polynomials are rebuilt in sympy: Schubert polynomials by divided
differences from the staircase, the S_w elements from their definition, the
evaluation maps F_v by substitution, central charges from the formula for
Z.  Counts come from closed forms in the permutation lengths and sizes.
Phase comparisons use integer cross products.  No check compares with a
stored copy of an earlier output.

``check_outputs`` takes one round's outputs (the canonical texts of
``rounds.render``) and the program values of ``rounds.dump_for_checks``; it
returns the problems found and the labels of the operations that failed.
An operation fails when it raises or exits with another code than a correct
run gives.  A failed operation is not checked further, except the surface
box scan, whose findings are confirmed one by one (see ``check_surface_scan``).
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

import sympy
from sympy import QQ

from rounds import CHARGE_TRIALS, CURVE_BOUND, Op, length, perms_of

# ---------------------------------------------------------- sympy polynomials


@lru_cache(maxsize=None)
def gens(n: int, double: bool = False) -> tuple:
    xs = sympy.symbols(f"x1:{n + 1}")
    return xs + sympy.symbols(f"y1:{n + 1}") if double else xs


def spoly(terms: dict, g: tuple) -> sympy.Poly:
    if not terms:
        return sympy.Poly(0, *g, domain=QQ)
    return sympy.Poly.from_dict(terms, *g, domain=QQ)


def from_json(doc: dict, g: tuple) -> sympy.Poly:
    if doc["nvars"] != len(g):
        raise ValueError(f"polynomial has {doc['nvars']} variables, expected {len(g)}")
    return spoly(
        {tuple(t["exp"]): sympy.Rational(int(t["num"]), int(t["den"])) for t in doc["terms"]}, g
    )


def permute(f: sympy.Poly, v: tuple[int, ...]) -> sympy.Poly:
    """x_i -> x_{v(i)} on the first len(v) variables."""
    n = len(v)
    out = {}
    for exp, c in f.as_dict().items():
        moved = [0] * n
        for i in range(n):
            moved[v[i] - 1] = exp[i]
        out[tuple(moved) + exp[n:]] = c
    return spoly(out, f.gens)


def ddiff(f: sympy.Poly, i: int) -> sympy.Poly:
    """(f - s_i f) / (x_i - x_{i+1}) by sympy's exact division."""
    g = f.gens
    n = len(g)
    swap = tuple(i + 1 if k == i else i if k == i + 1 else k for k in range(1, n + 1))
    numerator = f - permute(f, swap)
    return numerator.exquo(sympy.Poly(g[i - 1] - g[i], *g, domain=QQ))


@lru_cache(maxsize=None)
def schubert_table(n: int) -> dict:
    """S_w for all w in S_n: S_{w0} is the staircase, S_w = d_i S_{w s_i} at an ascent i."""
    g = gens(n)
    w0 = tuple(range(n, 0, -1))
    table = {w0: spoly({tuple(n - 1 - i for i in range(n)): 1}, g)}
    for w in sorted(perms_of(n), key=length, reverse=True):
        if w in table:
            continue
        i = next(i for i in range(1, n) if w[i - 1] < w[i])
        ws = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
        table[w] = ddiff(table[ws], i)
    return table


def negate(f: sympy.Poly) -> sympy.Poly:
    return spoly({e: c * (-1) ** sum(e) for e, c in f.as_dict().items()}, f.gens)


def compose(p: tuple, q: tuple) -> tuple:
    """(p q)(i) = p(q(i))."""
    return tuple(p[v - 1] for v in q)


def inverse(w: tuple) -> tuple:
    out = [0] * len(w)
    for i, v in enumerate(w):
        out[v - 1] = i + 1
    return tuple(out)


@lru_cache(maxsize=None)
def s_element(w: tuple) -> dict:
    """S_w = 1(x)S_w + sum over w = v^{-1} u, l(v) + l(u) = l(w), l(u) < l(w), of S_v(-x)(x)S_u."""
    n = len(w)
    table = schubert_table(n)
    coords = {w: spoly({(0,) * n: 1}, gens(n))}
    w_inv = inverse(w)
    for u in perms_of(n):
        if length(u) < length(w):
            v = compose(u, w_inv)
            if length(v) + length(u) == length(w):
                coords[u] = negate(table[v])
    return coords


@lru_cache(maxsize=None)
def permuted_schubert(v: tuple, u: tuple) -> sympy.Poly:
    return permute(schubert_table(len(u))[u], v)


def f_map(v: tuple, coords: dict) -> sympy.Poly:
    """F_v(sum_u c_u (x) S_u) = sum_u c_u * S_u(x_{v(1)}, ..., x_{v(n)})."""
    total = spoly({}, gens(len(v)))
    for u, c in coords.items():
        total += c * permuted_schubert(v, u)
    return total


# ------------------------------------------------------------- soergel checks


def check_verify_soergel(doc: dict, n: int) -> list[str]:
    """Counts from permutation lengths; no violations; the n <= 3 certificates present."""
    lengths = [length(w) for w in perms_of(n)]
    top = max(lengths)
    expected = {
        ("filtration_identity", None): {"pairs": sum(1 for a in lengths for b in lengths if b >= a)},
        ("s_basis_unitriangular", None): {"entries": factorial(n) ** 2},
        ("f_matrix_triangular_injectivity", None): {"matrix_size": factorial(n)},
    }
    for j in range(top + 2):
        expected[("filtration_right_closure", j)] = {
            "products": n * sum(1 for a in lengths if a >= j)
        }
    problems = []
    seen = set()
    for cert in doc["certificates"]:
        key = (cert["check"], cert.get("j"))
        if key not in expected or key in seen:
            problems.append(f"unexpected certificate {key}")
            continue
        seen.add(key)
        if cert["n"] != n or cert["violations"]:
            problems.append(f"certificate {key} has n={cert['n']} or violations")
        for field, value in expected[key].items():
            if cert.get(field) != value:
                problems.append(f"certificate {key}: {field}={cert.get(field)}, expected {value}")
    required = {("filtration_identity", None), ("s_basis_unitriangular", None)}
    if n <= 3:
        required = set(expected)
    for key in required - seen:
        problems.append(f"certificate {key} missing at n={n}")
    return problems


def check_graph_twists(doc: dict, n: int) -> list[str]:
    g = gens(n)
    want = []
    for w in perms_of(n):
        inv = [[i + 1, j + 1] for i, j in itertools.combinations(range(n), 2) if w[i] > w[j]]
        delta = spoly({(0,) * n: 1}, g)
        for i, j in inv:
            delta *= sympy.Poly(g[i - 1] - g[j - 1], *g, domain=QQ)
        degrees = [sum(1 for pair in inv if i in pair) for i in range(1, n + 1)]
        want.append((list(w), inv, delta, degrees))
    got = doc["entries"]
    if doc["n"] != n or len(got) != len(want):
        return [f"graph-twists table has n={doc['n']} and {len(got)} rows"]
    problems = []
    for entry, (w, inv, delta, degrees) in zip(got, want):
        if (entry["w"], entry["inversions"], entry["degrees"]) != (w, inv, degrees):
            problems.append(f"graph-twists row for {w} has wrong inversions or degrees")
        elif from_json(entry["delta"], g) != delta:
            problems.append(f"graph-twists row for {w} has a wrong inversion product")
    return problems


def _coords(entries: list[dict], n: int) -> dict:
    return {tuple(e["w"]): from_json(e["coeff"], gens(n)) for e in entries}


def check_closure(doc: dict, w: tuple, k: int) -> list[str]:
    """F_v(S_w x_k) = F_v(S_w) x_{v(k)} for every v; the witness rebuilds the product
    from S elements of length >= l(w)."""
    n = len(w)
    g = gens(n)
    if (tuple(doc["w"]), doc["k"]) != (w, k):
        return [f"closure output is for {doc['w']}, {doc['k']}"]
    problems = []
    product = _coords(doc["product"], n)
    witness = _coords(doc["witness"], n)
    if not doc["in_gamma"] or any(length(u) < length(w) for u in witness):
        problems.append(f"S_{w} x_{k} reported outside Gamma_{length(w)}")
    rebuilt: dict = {}
    for u, c in witness.items():
        for t, sc in s_element(u).items():
            rebuilt[t] = rebuilt.get(t, spoly({}, g)) + c * sc
    rebuilt = {t: c for t, c in rebuilt.items() if not c.is_zero}
    if rebuilt != product:
        problems.append(f"witness of S_{w} x_{k} does not rebuild the product")
    for v in perms_of(n):
        xk = sympy.Poly(g[v[k - 1] - 1], *g, domain=QQ)
        if f_map(v, product) != f_map(v, s_element(w)) * xk:
            problems.append(f"F_{v}(S_{w} x_{k}) != F_{v}(S_{w}) x_{v[k - 1]}")
            break
    return problems


def check_schubert_dump(entries: list[dict]) -> list[str]:
    problems = []
    for e in entries:
        w = tuple(e["w"])
        if from_json(e["poly"], gens(len(w))) != schubert_table(len(w))[w]:
            problems.append(f"schubert_poly({list(w)}) differs from the staircase derivation")
    return problems


# ------------------------------------------------------------ demazure checks


def with_y(f: sympy.Poly, n: int, to_x: bool) -> sympy.Poly:
    """y := x (to_x) or y := 0 on a polynomial in x_1..x_n, y_1..y_n."""
    out: dict = {}
    for exp, c in f.as_dict().items():
        if to_x:
            key = tuple(exp[i] + exp[n + i] for i in range(n))
        elif any(exp[n:]):
            continue
        else:
            key = exp[:n]
        out[key] = out.get(key, 0) + c
    return spoly({e: c for e, c in out.items() if c}, gens(n))


def check_double(w: tuple, f: sympy.Poly) -> list[str]:
    """S_w(x; x) = [w = id] and S_w(x; 0) = S_w(x)."""
    n = len(w)
    problems = []
    unit = 1 if w == tuple(range(1, n + 1)) else 0
    if with_y(f, n, True) != spoly({(0,) * n: unit} if unit else {}, gens(n)):
        problems.append(f"double Schubert of {list(w)} at y = x is not {unit}")
    if with_y(f, n, False) != schubert_table(n)[w]:
        problems.append(f"double Schubert of {list(w)} at y = 0 is not S_w")
    return problems


def reduced_word_multiples(n: int) -> int:
    """Permutations with two or more reduced words.  A word is the only one
    exactly when it is a run of consecutive letters, rising or falling, so
    1 + (n-1) + (n-1)(n-2) = 1 + (n-1)^2 permutations have just one."""
    return factorial(n) - 1 - (n - 1) ** 2


def check_verify_demazure(doc: dict, n: int, trials: int, seed: int) -> list[str]:
    want = {
        "square_zero": trials * (n - 1),
        "braid": trials * (n - 2),
        "commuting": trials * comb(n - 2, 2),
        "leibniz": trials * (n - 1),
        "reduced_word_independence": trials * reduced_word_multiples(n),
    }
    problems = []
    if (doc["n"], doc["trials"], doc["seed"]) != (n, trials, seed):
        problems.append(f"demazure certificate echoes {doc['n']}, {doc['trials']}, {doc['seed']}")
    if doc["relations"] != want:
        problems.append(f"demazure relation counts {doc['relations']}, expected {want}")
    if doc["violations"]:
        problems.append(f"demazure certificate at n={n} has violations")
    return problems


def check_divided_differences(entries: list[dict]) -> list[str]:
    problems = []
    for e in entries:
        n = e["f"]["nvars"]
        f = from_json(e["f"], gens(n))
        if ddiff(f, e["j"]) != from_json(e["df"], gens(n)):
            problems.append(f"d_{e['j']} of a seeded polynomial in {n} variables disagrees")
    return problems


# ----------------------------------------------------------- stability checks


def charge(vector: dict, a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    """Z(v) = sum_s -(-1)^s (b + ia)^s * (level-s component sum), exactly."""
    n = vector["n"]
    levels = [Fraction(0)] * (n + 1)
    for comp in vector["components"]:
        levels[len(comp["subset"])] += Fraction(comp["value"])
    re, im = Fraction(0), Fraction(0)
    pr, pi = Fraction(1), Fraction(0)
    for s in range(n + 1):
        sign = 1 if s % 2 else -1
        re += sign * levels[s] * pr
        im += sign * levels[s] * pi
        pr, pi = pr * b - pi * a, pr * a + pi * b
    return re, im


def integer_ray(z: tuple[Fraction, Fraction]) -> tuple[int, int]:
    scale = z[0].denominator * z[1].denominator
    return int(z[0] * scale), int(z[1] * scale)


def in_strip(z: tuple[int, int]) -> bool:
    return z[1] > 0 or (z[1] == 0 and z[0] < 0)


def phase_above(z: tuple[int, int], w: tuple[int, int]) -> bool:
    """Whether phase(z) > phase(w) for z, w in the strip, by a cross product."""
    if w[1] == 0:
        return False
    if z[1] == 0:
        return True
    return w[0] * z[1] - z[0] * w[1] > 0


def box_vector(n: int, values: tuple[int, ...]) -> dict:
    cells = [list(c) for size in range(n + 1) for c in itertools.combinations(range(1, n + 1), size)]
    return {
        "n": n,
        "components": [
            {"subset": c, "value": str(v)} for c, v in zip(cells, values) if v
        ],
    }


def twist_down(vector: dict) -> dict:
    """Twist by multidegree (-1, ..., -1): new[S] = sum_{T disjoint from S} (-1)^|T| old[S u T]."""
    n = vector["n"]
    old = {frozenset(c["subset"]): Fraction(c["value"]) for c in vector["components"]}
    comps = []
    for size in range(n + 1):
        for s in itertools.combinations(range(1, n + 1), size):
            rest = [i for i in range(1, n + 1) if i not in s]
            total = sum(
                (-1) ** len(t) * old.get(frozenset(s) | frozenset(t), Fraction(0))
                for r in range(len(rest) + 1)
                for t in itertools.combinations(rest, r)
            )
            if total:
                comps.append({"subset": list(s), "value": str(total)})
    return {"n": n, "components": comps}


def is_line_bundle_class(vector: dict) -> bool:
    """Rank (component at {1..n}) 1 and the empty-set component equal to the
    product of the degrees c_i = component at {1..n} minus {i}."""
    n = vector["n"]
    comp = {tuple(c["subset"]): Fraction(c["value"]) for c in vector["components"]}
    full = tuple(range(1, n + 1))
    if comp.get(full, 0) != 1:
        return False
    degrees = [comp.get(tuple(i for i in full if i != k), Fraction(0)) for k in full]
    return all(
        comp.get(s, Fraction(0)) == prod(degrees[i - 1] for i in full if i not in s)
        for size in range(n + 1)
        for s in itertools.combinations(full, size)
    )


def check_curve_scan(doc: dict, a: str, b: str) -> list[str]:
    bound = CURVE_BOUND
    want = bound * (2 * bound + 1) + bound
    params = doc["params"]
    problems = []
    if (params["n"], Fraction(params["a"]), Fraction(params["b"]), params["bound"]) != (
        1, Fraction(a), Fraction(b), bound,
    ):
        problems.append(f"curve scan echoes {params}")
    if (doc["scanned"], doc["skipped"], doc["violations"], doc["shadow"]) != (want, 0, [], True):
        problems.append(
            f"curve scan ({a}, {b}) scanned {doc['scanned']}, skipped {doc['skipped']}, "
            f"{len(doc['violations'])} violations; expected {want}, 0, none (a r^2 > 0)"
        )
    return problems


def check_surface_scan(doc: dict) -> list[str]:
    """Confirm each finding of an n >= 2 box scan.

    Each reported vector must lie in the strip before and after the twist
    and rise in phase, by integer cross products from the formula for Z.
    None may be the class of a line bundle: findings on box vectors that
    are not sheaf classes are the known fault, a finding on a line bundle
    would be a failed claim.
    """
    a, b = Fraction(doc["params"]["a"]), Fraction(doc["params"]["b"])
    problems = []
    for finding in doc["violations"]:
        vec = finding["vector"]
        before = integer_ray(charge(vec, a, b))
        after = integer_ray(charge(twist_down(vec), a, b))
        if not (in_strip(before) and in_strip(after) and phase_above(after, before)):
            problems.append(f"box scan finding {vec} does not rise in phase inside the strip")
        if is_line_bundle_class(vec):
            problems.append(f"box scan finding {vec} is a line-bundle class: a claim failed")
    return problems


def check_charges_cert(doc: dict, n: int, seed: int) -> list[str]:
    params = doc["params"]
    if (params["n"], params["a"], params["b"], params["m"], doc["trials"], doc["seed"]) != (
        n, "1/2", "-1", 3, CHARGE_TRIALS, seed,
    ) or doc["violations"]:
        return [f"charge certificate at n={n} echoes {params} or has violations"]
    return []


def sympy_charge(vector: dict, a, b):
    n = vector["n"]
    levels = [0] * (n + 1)
    for comp in vector["components"]:
        levels[len(comp["subset"])] += sympy.Rational(comp["value"])
    return sympy.expand(sum(-(-1) ** s * (b + sympy.I * a) ** s * levels[s] for s in range(n + 1)))


def scale_components(vector: dict, factor) -> dict:
    return {
        "n": vector["n"],
        "components": [
            {"subset": c["subset"], "value": str(Fraction(c["value"]) * factor(len(c["subset"])))}
            for c in vector["components"]
        ],
    }


def check_charge_dump(entries: list[dict]) -> list[str]:
    """The program's charges equal Z recomputed in sympy, and the three laws hold."""
    problems = []
    half, m = sympy.Rational(1, 2), 3
    for e in entries:
        n, v = e["n"], e["vector"]
        pull = scale_components(v, lambda s: Fraction(m) ** (2 * (n - s)))
        push = scale_components(v, lambda s: Fraction(m) ** (2 * s))
        want = {
            "pullback": sympy_charge(pull, half, -1),
            "scaled_down": sympy_charge(v, half / m**2, sympy.Rational(-1, m**2)),
            "pushforward": sympy_charge(push, half, -1),
            "scaled_up": sympy_charge(v, half * m**2, -(m**2)),
            "twisted": sympy_charge(twist_down(v), half, -1),
            "shifted": sympy_charge(v, half, 0),
        }
        for key, z in want.items():
            got = sympy.Rational(e[key]["re"]) + sympy.I * sympy.Rational(e[key]["im"])
            if sympy.expand(got - z) != 0:
                problems.append(f"Z for {key} at n={n} differs from the formula")
        laws = (
            sympy.expand(want["pullback"] - m ** (2 * n) * want["scaled_down"]),
            sympy.expand(want["pushforward"] - want["scaled_up"]),
            sympy.expand(want["twisted"] - want["shifted"]),
        )
        if any(laws):
            problems.append(f"a charge law fails at n={n} for {v}")
    return problems


def check_hn(doc: dict, degrees: str, torsion: str, a: str, b: str) -> list[str]:
    """Factors add up to the sheaf, carry Z of their class, and fall strictly in phase."""
    degs = sorted((int(d) for d in degrees.split(",") if d), reverse=True)
    tors = sorted((int(t) for t in torsion.split(",") if t), reverse=True)
    sheaf = doc["sheaf"]
    problems = []
    if (sheaf["bundle_degrees"], sheaf["torsion_lengths"]) != (degs, tors):
        problems.append(f"hn echoes {sheaf}")
    got_degs, got_tors, rays = [], [], []
    for f in doc["factors"]:
        fd, ft = f["factor"]["bundle_degrees"], f["factor"]["torsion_lengths"]
        if (fd and ft) or len(set(fd)) > 1:
            problems.append(f"hn factor {f['factor']} is not semistable")
        got_degs += fd
        got_tors += ft
        rank, deg = len(fd), sum(fd) + sum(ft)
        z = (-deg + Fraction(b) * rank, Fraction(a) * rank)
        if (Fraction(f["phase"]["re"]), Fraction(f["phase"]["im"])) != z:
            problems.append(f"hn factor {f['factor']} carries a wrong charge")
        rays.append(integer_ray(z))
    if sorted(got_degs, reverse=True) != degs or sorted(got_tors, reverse=True) != tors:
        problems.append("hn factors do not add up to the sheaf")
    if any(not phase_above(p, q) for p, q in zip(rays, rays[1:])):
        problems.append("hn factor phases do not fall strictly")
    return problems


def check_chain(doc: dict, adegrees: str, big_n: str) -> list[str]:
    """Achievable exactly when a_j <= j N; an achievable word replays to the goal."""
    big_n = int(big_n)
    certs = doc["certificates"]
    goals = [int(a) for a in adegrees.split(",")]
    if len(certs) != len(goals):
        return [f"chain gives {len(certs)} certificates for {len(goals)} goals"]
    problems = []
    for j, (a, cert) in enumerate(zip(goals, certs), start=1):
        reachable = a <= j * big_n
        if cert["achievable"] != reachable:
            problems.append(f"chain goal ({a}, {j}) achievable={cert['achievable']}")
            continue
        if not reachable:
            if [v["kind"] for v in cert["violations"]] != ["unreachable_goal"]:
                problems.append(f"chain goal ({a}, {j}) refused without the obstruction")
            continue
        twist, shift, strict = 0, 0, False
        for letter, step in zip(cert["word"], cert["steps"], strict=True):
            if letter == "restriction":
                twist, shift, strict = twist + big_n, shift + 1, True
            elif letter == "weaken" and twist > 0:
                twist -= 1
            else:
                problems.append(f"chain goal ({a}, {j}) has an invalid step {letter}")
                break
            if step["fact"] != {"twist": twist, "shift": shift, "strict": strict}:
                problems.append(f"chain goal ({a}, {j}) records a wrong fact")
                break
        if (twist, shift, strict) != (a, j, True) or cert["violations"]:
            problems.append(f"chain goal ({a}, {j}) replays to ({twist}, {shift}, {strict})")
    return problems


# --------------------------------------------------------------- dispatching


def _arg(op: Op, flag: str, default: str = "") -> str:
    """The value of flag, given as "flag value" or "flag=value"."""
    args = op.args
    if flag in args:
        return args[args.index(flag) + 1]
    for arg in args:
        if arg.startswith(flag + "="):
            return arg[len(flag) + 1 :]
    return default


def check_op(op: Op, doc: dict, seed: int) -> list[str]:
    """Problems in the output of one operation that ran as a correct run would."""
    if op.kind == "closure":
        return check_closure(doc, *op.args)
    if op.kind == "dse":
        return []  # checked against the dumped double Schubert polynomials
    head = op.args[:2]
    if head == ("verify", "soergel"):
        return check_verify_soergel(doc, int(_arg(op, "--n")))
    if head == ("table", "graph-twists"):
        return check_graph_twists(doc, int(_arg(op, "--n")))
    if head == ("verify", "demazure"):
        return check_verify_demazure(
            doc, int(_arg(op, "--n")), int(_arg(op, "--trials")), int(_arg(op, "--seed"))
        )
    if op.args[0] == "schubert":
        w = tuple(int(x) for x in _arg(op, "--w").split(","))
        if doc["w"] != list(w) or doc["double"] != ("--double" in op.args):
            return [f"schubert output is for {doc['w']}"]
        if doc["double"]:
            return check_double(w, from_json(doc["poly"], gens(len(w), True)))
        if from_json(doc["poly"], gens(len(w))) != schubert_table(len(w))[w]:
            return [f"schubert --w {list(w)} differs from the staircase derivation"]
        return []
    if head == ("scan", "bayer"):
        if _arg(op, "--n") == "1":
            return check_curve_scan(doc, _arg(op, "--a"), _arg(op, "--b"))
        return check_surface_scan(doc)
    if head == ("verify", "charges"):
        return check_charges_cert(doc, int(_arg(op, "--n")), seed)
    if head == ("hn", "p1"):
        return check_hn(doc, _arg(op, "--degrees"), _arg(op, "--torsion"), _arg(op, "--a"), _arg(op, "--b"))
    if head == ("derive", "chain"):
        return check_chain(doc, _arg(op, "--adegrees"), _arg(op, "--N"))
    return [f"no check for {op.label}"]


def is_known_fault(op: Op) -> bool:
    """The n >= 2 box scan, which exits 1 on box vectors that are not sheaf classes."""
    return op.args[:2] == ("scan", "bayer") and _arg(op, "--n") != "1"


def check_dump(workload: str, dump: dict, ops: list[Op], docs: list) -> list[str]:
    problems = check_schubert_dump(dump.get("schubert", []))
    if workload == "demazure":
        double = {tuple(e["w"]): e["poly"] for e in dump["double"]}
        for e in dump["double"]:
            w = tuple(e["w"])
            problems += check_double(w, from_json(e["poly"], gens(len(w), True)))
        for op, doc in zip(ops, docs):
            if op.kind == "dse" and doc is not None:
                if from_json(doc["poly"], gens(4, True)) != from_json(double[op.args], gens(4, True)):
                    problems.append(f"double_schubert_expansion({list(op.args)}) != double_schubert")
        problems += check_divided_differences(dump["divided_differences"])
    if workload == "stability":
        problems += check_charge_dump(dump["charges"])
    return problems


def parse(op: Op, text: str) -> tuple[int | None, dict | None]:
    """(exit code, document) of a rendered output; (None, None) if it raised."""
    if text.startswith("error\n"):
        return None, None
    if op.kind == "cli":
        code, _, stdout = text.partition("\n")
        return int(code), json.loads(stdout) if stdout.strip() else None
    return 0, json.loads(text)


def check_outputs(workload: str, seed: int, ops: list[Op], texts: list[str], dump: dict):
    """Returns (problems, labels of failed operations) for one round."""
    problems: list[str] = []
    failed: list[str] = []
    docs = []
    for op, text in zip(ops, texts):
        code, doc = parse(op, text)
        docs.append(doc)
        if code != op.expect_exit:
            failed.append(op.label)
            if is_known_fault(op) and doc is not None:
                problems += check_surface_scan(doc)
            continue
        try:
            problems += check_op(op, doc, seed)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{op.label}: malformed output ({type(exc).__name__}: {exc})")
    problems += check_dump(workload, dump, ops, docs)
    return problems, failed
