"""Command-line front end.

Every command prints its result to stdout and progress notes to stderr.
The commands and their options are one table, COMMANDS, from which main
parses argv and --help prints.  An option is spelled out in full and takes
its value as the next word or after "=", so a value may start with "-";
the last of a repeated option wins.  With --json the result is one JSON
document, written by _json_write byte for byte as json.dumps renders it
with sort_keys=True and indent=2, and handed to stdout only once it has
rendered whole.  Identical invocations (seeds included) print identical
bytes.

Exit codes: 0 when every emitted certificate has an empty violations list,
1 when some check found violations or a derivation was refused, 2 for
usage errors.  Rational arguments are "p/q" or integers; floats are
refused.  A ValueError, from the parser, a converter, or the library's
input checks and budget gates before any work, is a usage error: main
prints one line, "error: <message>", and nothing on stdout.  Handlers that
print progress call the gate first.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from itertools import islice, takewhile
from types import SimpleNamespace

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
        raise ValueError(f"{text!r} is not an exact rational (use p/q or an integer)")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator")


def int_list(text: str) -> tuple[int, ...]:
    """Parse a comma-separated list of integers; a blank text is the empty
    list, and an empty item between or after commas is refused."""
    if not text.strip():
        return ()
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise ValueError(f"{text!r} is not a comma-separated integer list")


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not an integer")
    if value < 1:
        raise ValueError(f"{text!r} must be positive")
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
    check_charge_trials(p, args.m, args.trials)
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
    lines = [f"{i}. {factor}   {point}" for i, (factor, point) in enumerate(factors, start=1)]
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

# Each command's words, handler, help line and options, as name:
# (converter, default), from which main parses argv and --help prints.  An
# option that must be given has the default _REQUIRED; a flag, False unless
# given, is _FLAG.
_REQUIRED = object()
_FLAG = (None, False)
COMMANDS = {
    ("schubert",): (_cmd_schubert, "print a Schubert polynomial", {
        "n": (positive_int, _REQUIRED), "w": (int_list, _REQUIRED), "double": _FLAG,
        "json": _FLAG}),
    ("verify", "demazure"): (_cmd_verify_demazure, "divided-difference relations", {
        "n": (positive_int, _REQUIRED), "trials": (positive_int, 20), "seed": (int, 0),
        "json": _FLAG}),
    ("verify", "soergel"): (_cmd_verify_soergel, "filtration structure checks", {
        "n": (positive_int, _REQUIRED), "json": _FLAG}),
    ("verify", "charges"): (_cmd_verify_charges, "charge transformation laws", {
        "n": (positive_int, _REQUIRED), "m": (positive_int, 2), "a": (rational, Fraction(1)),
        "b": (rational, Fraction(0)), "trials": (positive_int, 100), "seed": (int, 0),
        "json": _FLAG}),
    ("scan", "bayer"): (_cmd_scan_bayer, "twist shadow over a box", {
        "n": (positive_int, _REQUIRED), "a": (rational, Fraction(1)),
        "b": (rational, Fraction(0)), "bound": (positive_int, 25), "json": _FLAG}),
    ("hn", "p1"): (_cmd_hn_p1, "Harder-Narasimhan filtration of a split sheaf on the line", {
        "degrees": (int_list, ()), "torsion": (int_list, ()), "a": (rational, Fraction(1)),
        "b": (rational, Fraction(0)), "json": _FLAG}),
    ("derive", "chain"): (_cmd_derive_chain, "twist-shift chain goals", {
        "adegrees": (int_list, _REQUIRED), "N": (positive_int, _REQUIRED), "json": _FLAG}),
    ("table", "graph-twists"): (_cmd_table_graph_twists, "inversion data per permutation", {
        "n": (positive_int, _REQUIRED), "json": _FLAG}),
}


def _under(words: tuple) -> list[tuple]:
    """The commands whose words start with words."""
    return [command for command in COMMANDS if command[: len(words)] == words]


def _help(words: tuple) -> str:
    """Usage of the commands under words: each option, its converter and
    its default."""
    lines = [
        "usage: schubstab COMMAND [--OPTION VALUE | --OPTION=VALUE | --FLAG] ...",
        "Exact Schubert calculus, Soergel-type filtrations, and stability charge checks.",
        "A value may start with '-'; options are spelled out in full.",
    ]
    for command in _under(words):
        _, text, options = COMMANDS[command]
        lines += ["", f"{' '.join(command)}: {text}"]
        for name, (convert, default) in options.items():
            if convert is None:
                lines.append(f"  --{name}  flag")
            else:
                note = "required" if default is _REQUIRED else f"default {default}"
                lines.append(f"  --{name} {convert.__name__.upper()}  {note}")
    return "\n".join(lines)


def _parse(argv) -> tuple:
    """The words of the command argv names and its arguments, or None for
    the arguments when argv asks for help.  A usage error raises
    ValueError."""
    words = tuple(takewhile(lambda token: not token.startswith("-"), argv))
    rest = argv[len(words) :]
    helping = "-h" in rest or "--help" in rest
    if words not in COMMANDS and not (helping and _under(words)):
        known = ", ".join(" ".join(command) for command in _under(words) or COMMANDS)
        raise ValueError(f"{' '.join(words)!r} is not a command; choose from {known}")
    if helping:
        return words, None
    options = COMMANDS[words][2]
    values = {name: default for name, (_, default) in options.items()}
    tokens = iter(rest)
    for token in tokens:
        option, has_value, text = token.partition("=")
        name = option[2:]
        if not option.startswith("--") or name not in options:
            raise ValueError(f"unrecognized argument {token!r}")
        convert = options[name][0]
        if convert is None:
            if has_value:
                raise ValueError(f"argument {option}: takes no value")
            values[name] = True
            continue
        if not has_value:
            text = next(tokens, None)
            if text is None:
                raise ValueError(f"argument {option}: expected one argument")
        try:
            values[name] = convert(text)
        except ValueError as exc:
            raise ValueError(f"argument {option}: {exc}") from None
    missing = [f"--{name}" for name, value in values.items() if value is _REQUIRED]
    if missing:
        raise ValueError("the following arguments are required: " + ", ".join(missing))
    return words, SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(_help(command))
            return 0
        return COMMANDS[command][0](args)
    except ValueError as exc:
        _progress(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
