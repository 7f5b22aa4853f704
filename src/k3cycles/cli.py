"""Command line front end: k3cycles <subcommand> [flags].

`_COMMANDS` is the one registry of subcommands: each name maps to its
handler and its flag specs, in `--help` order.  `_read_flags` reads the
words after the subcommand by these specs (`--flag value` or
`--flag=value`, unique prefixes, values that may start with `-`).  `run`
loads `--lattice` once when the subcommand takes one, and writes what the
handler returns once, to stdout or `--output`: a dict as a deterministic
JSON artifact, a string (the CSV of `table`) as is.  Exact numbers appear
as JSON integers or "p/q" strings; the few floating-point fields carry a
sibling *_tol key.  Artifacts are strict JSON: a NaN or infinite float is
a validation failure, never output.  Exit codes: 0 success, 2 validation
failure (error JSON on stderr), 64 unknown subcommand, 66 file trouble.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Sequence
from fractions import Fraction
from types import SimpleNamespace

from . import clifford, enumeration, gauss, kuga_satake, theta, transfer
from .errors import K3CyclesError
from .lattice import (
    BUILTIN_NAMES,
    Lattice,
    builtin_lattice,
    discriminant_group,
    signature,
)

SCHEMA_VERSION = 1
TRANSFORM_TOL = 1e-8
FLOAT_TOL = 1e-9

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_USAGE = 64
EXIT_FILE = 66


class _FileTrouble(Exception):
    """Input or output file could not be read or written."""


def _fail(code: int, kind: str, message: str) -> int:
    doc = {"schema_version": SCHEMA_VERSION, "error": {"type": kind, "message": message}}
    sys.stderr.write(json.dumps(doc, sort_keys=True) + "\n")
    return code


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as ex:
        raise _FileTrouble(f"cannot write {output!r}: {ex}") from ex


def _artifact(payload: dict) -> str:
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(payload)
    return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"


def _frac(x) -> str:
    return str(Fraction(x))


def _read_json(path: str, what: str = ""):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as ex:
        raise _FileTrouble(f"cannot read {path!r}: {ex}") from ex
    try:
        return json.loads(raw)
    except json.JSONDecodeError as ex:
        raise ValueError(f"{what}{path!r} is not valid JSON: {ex}") from ex


def _load_lattice(spec: str) -> Lattice:
    if spec in BUILTIN_NAMES:
        return builtin_lattice(spec)
    return Lattice.from_dict(_read_json(spec, "lattice file "))


def _parse_vector(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(part.strip()) for part in text.split(","))


def _cmd_info(args, lat: Lattice) -> dict:
    sig = signature(lat)
    disc = discriminant_group(lat)
    payload = {
        "rank": lat.rank,
        "signature": [sig.pos, sig.neg],
        "even": lat.even,
        "det": abs(lat.det),
        "det_signed": lat.det,
        "discriminant_group": list(disc.invariant_factors),
        "discriminant_order": disc.order,
    }
    if lat.name is not None:
        payload["name"] = lat.name
    return payload


def _cmd_count(args, lat: Lattice) -> dict:
    t = Fraction(args.t)
    h = _parse_vector(args.h) if args.h is not None else None
    payload = {"t": _frac(t), "count": enumeration.rep_count(lat, t, h)}
    if h is not None:
        payload["h"] = [_frac(x) for x in h]
    return payload


def _cmd_theta(args, lat: Lattice) -> dict:
    h = _parse_vector(args.h) if args.h is not None else None
    bound = Fraction(args.bound)
    if args.check_transform and args.tau is None:
        raise ValueError("--check-transform needs --tau")
    exp = theta.theta_coeffs(lat, h, bound=bound)
    payload = {
        "bound": _frac(exp.bound),
        "weight": _frac(exp.weight),
        "coeffs": [[_frac(t), _frac(c)] for t, c in exp.coeffs],
    }
    if h is not None:
        payload["h"] = [_frac(x) for x in h]
    if args.tau is not None:
        tau = complex(args.tau[0], args.tau[1])
        val = theta.theta_value(lat, h, tau, bound)
        payload["tau"] = list(args.tau)
        payload["theta_value"] = [val.value.real, val.value.imag]
        payload["theta_value_tol"] = val.tail_bound
        if args.check_transform:
            payload["transform_residual"] = theta.theta_transform_check(lat, tau, bound)
            payload["transform_residual_tol"] = TRANSFORM_TOL
    return payload


def _cmd_gauss(args, lat: Lattice) -> dict:
    val = gauss.gauss_sum(lat, args.a, args.c)
    return {
        "a": val.a,
        "c": val.c,
        "rank": val.rank,
        "value": [val.value.real, val.value.imag],
        "value_tol": FLOAT_TOL,
        "normalization": val.normalization,
        "normalization_tol": FLOAT_TOL,
    }


def _cmd_milgram(args, lat: Lattice) -> dict:
    res = gauss.milgram_invariant(lat)
    return {
        "signature_mod8": res.signature_mod8,
        "agrees": res.agrees,
        "total": [res.total.real, res.total.imag],
        "predicted": [res.predicted.real, res.predicted.imag],
        "error": res.error,
        "error_tol": gauss.MILGRAM_TOLERANCE,
    }


def _cmd_clifford(args, lat: Lattice) -> dict:
    x = clifford.parse_element(lat, args.element)
    payload = {
        "element": clifford.format_element(x),
        "parity": clifford.parity(x).value,
        "trace": _frac(clifford.trace(x)),
        "scalar_part": _frac(clifford.scalar_part(x)),
    }
    if args.times is not None:
        y = clifford.parse_element(lat, args.times)
        payload["product"] = clifford.format_element(clifford.multiply(x, y))
    if args.involution:
        payload["involution"] = clifford.format_element(clifford.main_involution(x))
    if args.invert:
        payload["inverse"] = clifford.format_element(clifford.invert(x))
    if args.spinor_norm:
        payload["spinor_norm"] = clifford.format_element(clifford.spinor_norm(x))
    if args.gspin:
        payload["is_gspin"] = clifford.is_gspin(x)
    return payload


def _cmd_ks(args, lat: Lattice) -> dict:
    plane = kuga_satake.period_plane(
        lat, _parse_vector(args.z1), _parse_vector(args.z2)
    )
    if args.minus or args.plus:
        if args.minus is None or len(args.minus) != 2:
            raise ValueError("--minus must be given exactly twice")
        splitting = (
            tuple(_parse_vector(v) for v in args.plus or []),
            tuple(_parse_vector(v) for v in args.minus),
        )
    else:
        splitting = kuga_satake.default_splitting(lat)
    report = kuga_satake.ks_report(lat, splitting, plane)
    endo = kuga_satake.special_endo_lattice(lat, plane)
    return {
        "j_square": _frac(report.j_square_scalar),
        "alternating_ok": report.alternating_ok,
        "symmetric_ok": report.symmetric_ok,
        "definite": report.definite,
        "inertia": list(report.inertia),
        "torus_dim": report.torus_dim,
        "complex_dim": report.complex_dim,
        "special_endo_rank": endo.rank,
        "special_endo_gram": [list(row) for row in endo.gram],
    }


def _cmd_transfer(args, _lat) -> dict:
    m = transfer.NumberFieldLattice.from_dict(_read_json(args.input))
    lat = transfer.trace_lattice(m)
    prof = transfer.signature_profile(m)
    sig = signature(lat)
    return {
        "gram": [list(row) for row in lat.gram],
        "rank": lat.rank,
        "signature": [sig.pos, sig.neg],
        "even": lat.even,
        "det": abs(lat.det),
        "det_signed": lat.det,
        "profile": [[p.pos, p.neg] for p in prof],
        "admissible": transfer.ks_shape(prof, sig),
    }


def _cmd_table(args, _lat) -> str:
    return transfer.feasibility_csv()


_LATTICE = ("--lattice", dict(required=True, help=(
    f"builtin name ({', '.join(BUILTIN_NAMES)}) or path to a JSON file "
    'with a "gram" matrix'
)))
_H = ("--h", dict(help="coset vector, comma-separated rationals"))
_FLAG = dict(action="store_true")
_OUTPUT = ("--output", dict(metavar="PATH", help="write the artifact here instead of stdout"))

# name -> (handler, flag specs in --help order); `--output` comes first
_COMMANDS = {
    "info": (_cmd_info, [_LATTICE]),
    "count": (_cmd_count, [
        _LATTICE,
        ("--t", dict(required=True, help="target norm, integer or p/q")),
        _H,
    ]),
    "theta": (_cmd_theta, [
        _LATTICE,
        ("--bound", dict(default="10", help="include exponents up to this norm")),
        _H,
        ("--tau", dict(nargs=2, type=float, metavar="RE IM",
                       help="also evaluate the series at tau = RE + IM*i")),
        ("--check-transform",
         dict(_FLAG, help="report the inversion-symmetry residual at --tau")),
    ]),
    "gauss": (_cmd_gauss, [
        _LATTICE,
        ("--a", dict(required=True, type=int, help="numerator of the phase a/c")),
        ("--c", dict(required=True, type=int, help="modulus")),
    ]),
    "milgram": (_cmd_milgram, [_LATTICE]),
    "clifford": (_cmd_clifford, [
        _LATTICE,
        ("--element", dict(required=True, help="element text, e.g. '2 + 1/2*e{1,3}'")),
        ("--times", dict(help="right-multiply by this element")),
        ("--involution", dict(_FLAG, help="apply the main involution")),
        ("--invert", dict(_FLAG, help="compute the inverse")),
        ("--spinor-norm", dict(_FLAG, help="compute g * involution(g)")),
        ("--gspin", dict(_FLAG, help="test conjugation-stabilizes-vectors membership")),
    ]),
    "ks": (_cmd_ks, [
        _LATTICE,
        ("--z1", dict(required=True, help="first plane vector, comma-separated")),
        ("--z2", dict(required=True, help="second plane vector, comma-separated")),
        ("--minus", dict(action="append", metavar="VEC",
                         help="negative-part basis vector (give exactly twice)")),
        ("--plus", dict(action="append", metavar="VEC",
                        help="positive-part basis vector (repeatable)")),
    ]),
    "transfer": (_cmd_transfer, [
        ("--input", dict(required=True,
                         help='path to JSON with "field" and "gram" over the field')),
    ]),
    "table": (_cmd_table, []),
}

_USAGE = (
    "usage: k3cycles <subcommand> [flags]\n"
    f"subcommands: {', '.join(sorted(_COMMANDS))}\n"
    "run `k3cycles <subcommand> --help` for per-subcommand flags\n"
)


def _help(name: str, specs: dict) -> str:
    forms = {f: f if s.get("action") == "store_true" else f"{f} {s.get('metavar', f[2:].upper())}"
             for f, s in specs.items()}
    usage = " ".join(v if specs[f].get("required") else f"[{v}]" for f, v in forms.items())
    lines = [f"usage: k3cycles {name} [-h] {usage}", "", "  -h, --help\n      show this help"]
    return "\n".join(lines + [f"  {v}\n      {specs[f]['help']}" for f, v in forms.items()]) + "\n"


def _read_flags(name: str, words: list[str]) -> SimpleNamespace | None:
    """Consume `words` by the flag specs of `name`; None once `--help` is written.

    A flag is `--flag value` or `--flag=value`, spelled out or by a unique
    prefix, and the next word is its value unless it starts with `--`.
    """
    specs = dict([_OUTPUT, *_COMMANDS[name][1]])
    known = (*specs, "--help")
    args = {f: s.get("default") for f, s in specs.items()}
    while words:
        flag, eq, value = words.pop(0).partition("=")
        flag = "--help" if flag == "-h" else flag
        hits = [f for f in known if f == flag] or [
            f for f in known if flag.startswith("--") and f.startswith(flag)]
        if len(hits) != 1:
            raise ValueError(f"{'ambiguous' if hits else 'unknown'} flag {flag!r}")
        if hits[0] == "--help":
            sys.stdout.write(_help(name, specs))
            return None
        flag, spec = hits[0], specs[hits[0]]
        n = 0 if spec.get("action") == "store_true" else spec.get("nargs", 1)
        values = [value] if eq else words[:n]
        del words[:0 if eq else n]
        if len(values) != n or not eq and any(v.startswith("--") for v in values):
            raise ValueError(f"{flag} takes {n} value{'s' * (n != 1)}")
        try:
            values = [spec.get("type", str)(v) for v in values]
        except ValueError:
            raise ValueError(f"bad value for {flag}: {' '.join(values)!r}") from None
        value = True if n == 0 else values if "nargs" in spec else values[0]
        args[flag] = (args[flag] or []) + [value] if spec.get("action") == "append" else value
    missing = [f for f, s in specs.items() if s.get("required") and args[f] is None]
    if missing:
        raise ValueError(f"missing {', '.join(missing)}")
    return SimpleNamespace(**{f[2:].replace("-", "_"): v for f, v in args.items()})


def run(argv: Sequence[str]) -> int:
    argv = list(argv)
    if argv and argv[0] in ("-h", "--help"):
        sys.stdout.write(_USAGE)
        return EXIT_OK
    if not argv:
        sys.stdout.write(_USAGE)
        return _fail(EXIT_USAGE, "UnknownSubcommand", "no subcommand given")
    name = argv[0]
    if name not in _COMMANDS:
        return _fail(
            EXIT_USAGE,
            "UnknownSubcommand",
            f"unknown subcommand {name!r}; expected one of {sorted(_COMMANDS)}",
        )
    try:
        args = _read_flags(name, argv[1:])
    except ValueError as ex:
        return _fail(EXIT_INVALID, "InvalidArguments", f"bad arguments for {name!r}: {ex}")
    if args is None:
        return EXIT_OK
    try:
        lat = _load_lattice(args.lattice) if hasattr(args, "lattice") else None
        result = _COMMANDS[name][0](args, lat)
        _emit(result if isinstance(result, str) else _artifact(result), args.output)
    except _FileTrouble as ex:
        return _fail(EXIT_FILE, "FileTrouble", str(ex))
    except (K3CyclesError, ValueError, ZeroDivisionError) as ex:
        return _fail(EXIT_INVALID, type(ex).__name__, str(ex))
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))
