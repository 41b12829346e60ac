"""Command-line front end.

Every subcommand prints its result to stdout and progress notes to stderr,
so pipelines can parse the primary stream cleanly.  With --json the result
is a single JSON document written by _json_write, byte for byte as the
standard library's json.dumps renders it with sort_keys=True and indent=2:
sorted keys, a two-space indent, "," between items and ": " after keys,
strings escaped to ASCII by json's C encoder, and each list of ints written
in one join.  The writer appends the document to a list in pieces and never
copies a child's text into its parent's; _emit hands the list to stdout
only once the whole payload has rendered, so a payload the writer refuses
prints nothing.  A Poly in a payload is written as its to_json, straight
from its packed terms, without building to_json's dicts and lists: each
distinct half of its exponent keys becomes exponent text once, and each
term is one concatenation of two half texts, numerator and denominator.
The writer refuses floats, Fractions, sets and non-str keys with
TypeError.  Identical invocations (including seeds) produce byte-identical
output.

Exit codes: 0 when every emitted certificate has an empty violations list,
1 when some check found violations or a derivation was refused, 2 for
usage errors.  Rational arguments are "p/q" or integer strings; floats are
rejected to keep the exactness contract end to end.  A ValueError, which
the library raises for invalid input and from its budget gates before any
work, is a usage error: main prints "error: <message>".  Handlers that
print progress call the gate first.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from itertools import islice

from .bimodule import (
    check_soergel_rank,
    graph_twist_table,
    verify_bimodule_closure,
    verify_filtration_identity,
    verify_triangular_injectivity,
    verify_unitriangular,
)
from .lattice import ChargeParams, check_charge_trials, verify_charge_transforms
from .perms import Permutation
from .poly import Poly, check_demazure_rank, verify_demazure_relations
from .schubert import double_schubert, schubert_poly
from .stability import (
    SplitSheafP1,
    bayer_shadow_scan,
    derive_twist_chain,
    hn_factors_to_json,
    hn_split_p1,
    scan_class_count,
)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def rational(text: str) -> Fraction:
    """Parse "p/q" or an integer string; floats are usage errors."""
    if not _RATIONAL_RE.match(text.strip()):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an exact rational (use p/q or an integer)"
        )
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"{text!r} has a zero denominator")


def int_list(text: str) -> tuple[int, ...]:
    """Parse a comma-separated list of integers; a blank text is the empty
    list, and an empty item between or after commas is refused."""
    if not text.strip():
        return ()
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated integer list")


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be positive")
    return value


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


_encode_str = json.encoder.encode_basestring_ascii
_int_repr = int.__repr__


# Terms of a Poly joined into one piece of the JSON writer's output.
_BLOCK = 1024


def _json_write(obj, nl: str, put) -> None:
    """Pass obj's text, as json.dumps renders it with sort_keys=True and
    indent=2, byte for byte, to put in pieces; nl is the newline and indent
    that close obj.  No piece is copied into another.  Floats, Fractions,
    sets and non-str keys raise TypeError.

    A Poly is written as its to_json.  Its form makers turn each distinct
    half of its exponent keys, once, into a template applied to the half's
    fields: the high half opens the "exp" list and the low half, whose
    fields each follow a separator, closes it and opens "num".  A term is
    one f-string of its denominator, two half texts and numerator, and each
    block of _BLOCK terms is joined into one piece."""
    if isinstance(obj, str):
        put(_encode_str(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            put("[]")
            return
        inner = nl + "  "
        if [item for item in obj if type(item) is not int]:
            lead = "[" + inner
            for item in obj:
                put(lead)
                _json_write(item, inner, put)
                lead = "," + inner
            put(nl + "]")
        else:
            put("[" + inner + ("," + inner).join(map(_int_repr, obj)) + nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        inner = nl + "  "
        lead = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            # A str or int value, as most certificate values are, shares
            # its key's piece, which spares a call and a piece per value.
            if type(value) is str:
                put(lead + _encode_str(key) + ": " + _encode_str(value))
            elif type(value) is int:
                put(lead + _encode_str(key) + ": " + _int_repr(value))
            else:
                put(lead + _encode_str(key) + ": ")
                _json_write(value, inner, put)
            lead = "," + inner
        put(nl + "}")
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    elif obj is None:
        put("null")
    elif isinstance(obj, int):
        put(_int_repr(obj))
    elif isinstance(obj, Poly):
        slots = obj.nx + obj.ny
        head = nl + "  "
        put("{" + head + '"nvars": ' + _int_repr(slots) + "," + head + '"terms": ')
        if obj.is_zero:
            put("[]" + nl + "}")
            return
        term = head + "  "
        key = term + "  "
        field = key + "  "
        sep = "," + field
        opening, closing = ("[" + field, key + "]") if slots else ("[", "]")
        before = '",' + key + '"exp": ' + opening
        after = closing + "," + key + '"num": "'

        def high(size):
            return (before + sep.join(["%d"] * size)).__mod__

        def low(size):
            return ((sep + "%d") * size + after).__mod__

        first = "{" + key + '"den": "'
        last = '"' + term + "}"
        terms = obj._json_terms(high, low)
        lead = "[" + term
        while block := [
            f"{first}{den}{h}{l}{num}{last}" for h, l, num, den in islice(terms, _BLOCK)
        ]:
            put(lead)
            put(("," + term).join(block))
            lead = "," + term
        put(head + "]" + nl + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(args, payload, lines) -> None:
    if args.json:
        pieces = []
        _json_write(payload, "\n", pieces.append)
        pieces.append("\n")
        sys.stdout.writelines(pieces)
    else:
        for line in lines:
            print(line)


def _cert_lines(cert: dict) -> list[str]:
    bad = cert.get("violations", [])
    status = "ok" if not bad else f"FAILED ({len(bad)} violations)"
    head = f"{cert.get('check', 'check')}: {status}"
    lines = [head]
    for violation in bad[:5]:
        lines.append("  violation: " + json.dumps(violation, sort_keys=True))
    if len(bad) > 5:
        lines.append(f"  ... and {len(bad) - 5} more")
    return lines


def _exit_code(certs) -> int:
    return 0 if all(not c.get("violations") for c in certs) else 1


# ----------------------------------------------------------------- handlers


def _cmd_schubert(args) -> int:
    w = Permutation(args.w)
    if w.n != args.n:
        raise ValueError(f"--w has rank {w.n}, --n is {args.n}")
    poly = double_schubert(w) if args.double else schubert_poly(w)
    if args.json:
        _emit(args, {"w": w.to_json(), "double": args.double, "poly": poly}, [])
    else:
        _emit(args, None, [str(poly)])
    return 0


def _cmd_verify_demazure(args) -> int:
    check_demazure_rank(args.n)
    _progress(f"checking divided-difference relations at n={args.n} ...")
    cert = verify_demazure_relations(args.n, args.trials, args.seed)
    _emit(args, cert, _cert_lines(cert))
    return _exit_code([cert])


def _cmd_verify_soergel(args) -> int:
    n = args.n
    check_soergel_rank(n)
    _progress(f"checking filtration identity at n={n} ...")
    identity = verify_filtration_identity(n)
    _progress(f"checking change-of-basis unitriangularity at n={n} ...")
    unitriangular = verify_unitriangular(n)
    _progress(f"deriving triangular injectivity and right closure at every level at n={n} ...")
    injectivity = verify_triangular_injectivity(identity)
    closure = verify_bimodule_closure(unitriangular, injectivity)
    certs = [identity, unitriangular, *closure, injectivity]
    payload = {"certificates": certs}
    lines = [line for cert in certs for line in _cert_lines(cert)]
    _emit(args, payload, lines)
    return _exit_code(certs)


def _cmd_verify_charges(args) -> int:
    p = ChargeParams(args.a, args.b, args.n)
    check_charge_trials(args.trials, args.n)
    _progress(f"checking charge transformation laws at n={args.n}, m={args.m} ...")
    cert = verify_charge_transforms(p, args.m, args.trials, args.seed)
    _emit(args, cert, _cert_lines(cert))
    return _exit_code([cert])


def _cmd_scan_bayer(args) -> int:
    p = ChargeParams(args.a, args.b, args.n)
    scan_class_count(args.n, args.bound)
    if args.n >= 2:
        cells = 2**args.n
        _progress(
            f"exploratory box scan: {2 * args.bound + 1}^{cells} vectors at n={args.n}"
        )
    _progress(f"scanning twist shadow up to bound {args.bound} ...")
    cert = bayer_shadow_scan(p, args.bound)
    _emit(args, cert, _cert_lines(cert))
    return _exit_code([cert])


def _cmd_hn_p1(args) -> int:
    sheaf = SplitSheafP1(args.degrees, args.torsion)
    if sheaf.is_zero:
        raise ValueError("give at least one bundle degree or torsion length")
    factors = hn_split_p1(sheaf, ChargeParams(args.a, args.b, 1))
    payload = {"sheaf": sheaf.to_json(), "factors": hn_factors_to_json(factors)}
    lines = [
        f"{i}. {factor}   {point}"
        for i, (factor, point) in enumerate(factors, start=1)
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_derive_chain(args) -> int:
    if not args.adegrees:
        raise ValueError("give at least one a-degree")
    certs = derive_twist_chain(args.adegrees, args.N)
    payload = {"certificates": certs}
    lines = []
    for cert in certs:
        j = cert["params"]["j"]
        goal = cert["goal"]
        if cert["achievable"]:
            word = ",".join(cert["word"])
            lines.append(f"j={j}: derived twist {goal['twist']} at shift {j} via [{word}]")
        else:
            reason = cert["violations"][0]["reason"]
            lines.append(f"j={j}: REFUSED ({reason})")
    _emit(args, payload, lines)
    return _exit_code(certs)


def _cmd_table_graph_twists(args) -> int:
    entries = graph_twist_table(args.n)
    if args.json:
        _emit(args, {"n": args.n, "entries": [entry.payload() for entry in entries]}, [])
        return 0
    lines = []
    for entry in entries:
        pairs = " ".join(f"({i},{j})" for i, j in entry.inversion_set)
        degrees = ",".join(str(d) for d in entry.degrees)
        lines.append(
            f"w={entry.w}  inversions=[{pairs}]  delta={entry.delta}  degrees=({degrees})"
        )
    _emit(args, None, lines)
    return 0


# ------------------------------------------------------------------ parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every main()
    call: parse_args keeps its state in the namespace it returns."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit a JSON document instead of text"
    )

    parser = argparse.ArgumentParser(
        prog="schubstab",
        description="Exact Schubert calculus, Soergel-type filtrations, and "
        "stability charge checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schubert", parents=[common], help="print a Schubert polynomial")
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--w", type=int_list, required=True, metavar="ONELINE")
    p.add_argument("--double", action="store_true", help="two-alphabet version")
    p.set_defaults(func=_cmd_schubert)

    verify = sub.add_parser("verify", help="run verification sweeps")
    vsub = verify.add_subparsers(dest="target", required=True)

    p = vsub.add_parser("demazure", parents=[common], help="divided-difference relations")
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--trials", type=positive_int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_demazure)

    p = vsub.add_parser("soergel", parents=[common], help="filtration structure checks")
    p.add_argument("--n", type=positive_int, required=True)
    p.set_defaults(func=_cmd_verify_soergel)

    p = vsub.add_parser("charges", parents=[common], help="charge transformation laws")
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--m", type=positive_int, default=2)
    p.add_argument("--a", type=rational, default=Fraction(1))
    p.add_argument("--b", type=rational, default=Fraction(0))
    p.add_argument("--trials", type=positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_charges)

    scan = sub.add_parser("scan", help="run shadow scans")
    ssub = scan.add_subparsers(dest="target", required=True)

    p = ssub.add_parser("bayer", parents=[common], help="twist shadow over a box")
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--a", type=rational, default=Fraction(1))
    p.add_argument("--b", type=rational, default=Fraction(0))
    p.add_argument("--bound", type=positive_int, default=25)
    p.set_defaults(func=_cmd_scan_bayer)

    hn = sub.add_parser("hn", help="Harder-Narasimhan filtrations")
    hsub = hn.add_subparsers(dest="target", required=True)

    p = hsub.add_parser("p1", parents=[common], help="split sheaves on the line")
    p.add_argument("--degrees", type=int_list, default=())
    p.add_argument("--torsion", type=int_list, default=())
    p.add_argument("--a", type=rational, default=Fraction(1))
    p.add_argument("--b", type=rational, default=Fraction(0))
    p.set_defaults(func=_cmd_hn_p1)

    derive = sub.add_parser("derive", help="certificate derivations")
    dsub = derive.add_subparsers(dest="target", required=True)

    p = dsub.add_parser("chain", parents=[common], help="twist-shift chain goals")
    p.add_argument("--adegrees", type=int_list, required=True)
    p.add_argument("--N", type=positive_int, required=True)
    p.set_defaults(func=_cmd_derive_chain)

    table = sub.add_parser("table", help="printable tables")
    tsub = table.add_subparsers(dest="target", required=True)

    p = tsub.add_parser("graph-twists", parents=[common], help="inversion data per permutation")
    p.add_argument("--n", type=positive_int, required=True)
    p.set_defaults(func=_cmd_table_graph_twists)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        _progress(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
