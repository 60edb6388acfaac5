"""Command-line front end. Exit codes: 0 success, 1 verification or band
failure, 2 usage or input errors."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache

# What conv, zpoly and commutator run. The Weingarten, immanant, verify and
# Monte Carlo layers are imported by the handlers and argument builders that
# use them, so a one-shot process loads only the layers its command runs.
from .partitions import Partition, kostka
from .polynomials import MonicPoly, boxminus, boxplus, boxtimes, commutator_poly, z_poly
from .symfunc import as_spectrum, as_spectrum_pair
from .symgroup import character, character_table_json, inverse_kostka
from .util import CapExceededError, check_mc_caps


class InputError(ValueError):
    """Bad file contents or inconsistent arguments: exit code 2, like any ValueError."""


def _load(path, convert, what: str):
    """convert(the JSON document at path). A file that cannot be read, or content
    that is not `what`, is refused with the path; a CapExceededError passes as is."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    except (OSError, ValueError) as exc:  # ValueError: an int past Python's digit limit
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return convert(payload)
    except CapExceededError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path} is not {what}: {exc}") from exc


def _parse_partition(text) -> Partition:
    body = text.strip().strip("[]")
    try:
        parts = tuple(int(v) for v in body.split(",") if v.strip() != "")
        return Partition(parts)
    except ValueError as exc:
        raise InputError(f"bad partition {text!r}: {exc}") from exc


def _emit(payload, fmt: str, pretty_lines):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in pretty_lines:
            print(line)


def _rendered(poly: MonicPoly, **head) -> tuple:
    """(JSON payload, pretty lines) of a polynomial result, rendered once;
    `head` holds the payload's other keys."""
    text, doc = poly.pretty(), poly.to_json_dict()
    return {**head, "pretty": text, "result": doc}, [text, f"a = {doc['a']}"]


def cmd_conv(args) -> int:
    p, q = (_load(path, MonicPoly.from_json_dict, "a polynomial document")
            for path in (args.p, args.q))
    ops = {"add": boxplus, "mul": boxtimes, "sub": boxminus}
    payload, lines = _rendered(ops[args.op](p, q), op=args.op)
    _emit(payload, args.format, lines)
    return 0


def cmd_zpoly(args) -> int:
    payload, lines = _rendered(z_poly(args.d))
    _emit(payload, args.format, lines)
    return 0


def cmd_commutator(args) -> int:
    spec_a, spec_b = as_spectrum_pair(_load(args.a, as_spectrum, "a spectrum"),
                                      _load(args.b, as_spectrum, "a spectrum"))
    if args.mc is not None:  # refused before the exact work, which may take seconds
        if args.seed is None:
            raise InputError("--mc requires --seed")
        check_mc_caps(len(spec_a), args.mc)
    exact = commutator_poly(
        MonicPoly.from_spectrum(spec_a), MonicPoly.from_spectrum(spec_b)
    )
    payload, lines = _rendered(exact, d=exact.degree)
    bands_ok = True
    if args.mc is not None:
        from .montecarlo import as_floats, mc_charpoly  # loads numpy

        exact_f = as_floats(exact.a, "exact coefficient a_{}")
        report = mc_charpoly(spec_a, spec_b, args.mc, args.seed)
        bands_ok = not report.band_misses(dict(zip(report.labels, exact_f[1:])))
        rows = zip(report.labels, report.means, report.se_re, exact_f[1:])
        z_scores = {label: repr(abs(mean.real - exact_k) / se if se else 0.0)
                    for label, mean, se, exact_k in rows}
        payload["mc"] = {**report.to_json_dict(), "z_scores": z_scores, "bands_ok": bands_ok}
        lines.append(f"mc n={args.mc} seed={args.seed} bands_ok={bands_ok}")
    _emit(payload, args.format, lines)
    return 0 if bands_ok else 1


def cmd_weingarten(args) -> int:
    from .weingarten import weingarten

    table = weingarten(args.k, args.d)
    payload = table.to_json_dict(d=args.d)
    lines = [
        f"Wg(k={args.k}, d={args.d}) {','.join(map(str, rho))}: {value}"
        for rho, value in sorted(table.values.items(), reverse=True)
    ]
    _emit(payload, args.format, lines)
    return 0


def cmd_immanant(args) -> int:
    from .immanants import as_matrix, immanant_direct, immanant_gj

    shape = _parse_partition(args.shape)
    mat = _load(args.matrix, as_matrix, "a rational matrix")
    func = immanant_direct if args.method == "direct" else immanant_gj
    value = func(shape, mat)
    _emit(
        {"shape": list(shape), "method": args.method, "value": str(value)},
        args.format,
        [str(value)],
    )
    return 0


def cmd_character(args) -> int:
    if args.shape is None and args.cycle_type is None:
        if args.k is None:
            raise InputError("need --k for a full table, or --shape with --cycle-type")
        table = character_table_json(args.k)
        _emit(
            {"k": args.k, "table": table},
            args.format,
            [f"{key}: {value}" for key, value in sorted(table.items())],
        )
        return 0
    if args.shape is None or args.cycle_type is None:
        raise InputError("--shape and --cycle-type must be given together")
    lam, rho = _parse_partition(args.shape), _parse_partition(args.cycle_type)
    value = character(lam, rho)
    _emit(
        {"shape": list(lam), "cycle_type": list(rho), "value": value},
        args.format,
        [str(value)],
    )
    return 0


def cmd_kostka(args) -> int:
    lam, mu = _parse_partition(args.shape), _parse_partition(args.weight)
    func = inverse_kostka if args.inverse else kostka
    value = func(lam, mu)
    _emit(
        {
            "shape": list(lam),
            "weight": list(mu),
            "inverse": bool(args.inverse),
            "value": value,
        },
        args.format,
        [str(value)],
    )
    return 0


def _corrupted_weingarten(k: int, d: int) -> ClassFunction:
    from .weingarten import ClassFunction, weingarten

    base = weingarten(k, d)
    values = dict(base.values)
    worst = max(values)
    values[worst] += Fraction(1, 1000)
    return ClassFunction(k, values)


def cmd_verify(args) -> int:
    from .verify import VERIFY_GROUPS, VerifyRun, run_suites

    wg_fn = _corrupted_weingarten if args.inject_wg_error else None
    results = run_suites(VERIFY_GROUPS[args.suite], VerifyRun(args.seed, args.mc, wg_fn))
    for result in results:
        print(result.line())
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _int_at_least(low: int):
    """argparse type: an int no smaller than `low`."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _add_format(p):
    p.add_argument(
        "--format", choices=("json", "pretty"), default="json",
        help="output format (default json)",
    )


def _conv_arguments(p):
    p.add_argument("op", choices=("add", "mul", "sub"))
    p.add_argument("p", help="path to a polynomial JSON document")
    p.add_argument("q", help="path to a polynomial JSON document")
    _add_format(p)


def _zpoly_arguments(p):
    p.add_argument("--d", type=int, required=True)
    _add_format(p)


def _commutator_arguments(p):
    p.add_argument("a", help="path to a spectrum JSON array")
    p.add_argument("b", help="path to a spectrum JSON array")
    p.add_argument(
        "--mc", type=_int_at_least(2),
        help="Monte Carlo sample count (at least 2, so a band has a standard error)",
    )
    p.add_argument("--seed", type=_int_at_least(0), help="Monte Carlo seed")
    _add_format(p)


def _weingarten_arguments(p):
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    _add_format(p)


def _immanant_arguments(p):
    p.add_argument("--shape", required=True, help="partition, e.g. 2,1")
    p.add_argument("matrix", help="path to a row-major matrix JSON document")
    p.add_argument("--method", choices=("direct", "multilinear"), default="direct")
    _add_format(p)


def _character_arguments(p):
    p.add_argument("--k", type=_int_at_least(1), help="dump the full table for S_k")
    p.add_argument("--shape", help="partition, e.g. 2,1")
    p.add_argument("--cycle-type", help="partition, e.g. 1,1,1")
    _add_format(p)


def _kostka_arguments(p):
    p.add_argument("--shape", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--inverse", action="store_true")
    _add_format(p)


def _verify_arguments(p):
    from .verify import DEFAULT_SEED, MC_SUITES, VERIFY_GROUPS

    p.add_argument("suite", choices=sorted(VERIFY_GROUPS))
    p.add_argument("--seed", type=_int_at_least(0), default=DEFAULT_SEED,
                   help="seed of the random cases and Monte Carlo runs (default %(default)s)")
    defaults = ", ".join(f"{name} (default {n})" for name, (_, n) in MC_SUITES.items())
    p.add_argument(
        "--mc", type=_int_at_least(2),
        help=f"sample count of the Monte Carlo rows of the suites {defaults}; "
        "refused before any suite runs if past the Monte Carlo caps at a "
        "dimension they sample",
    )
    p.add_argument(
        "--inject-wg-error",
        action="store_true",
        help="negative control: add 1/1000 to the largest class of every "
        "Weingarten table. The four triple-route rows of 'commutator' and "
        "the closed Wg_{2,d} and orthogonality rows of 'weingarten' fail "
        "under it; the flagship and odd-k rows read the table but still pass",
    )


# name: (help, add_arguments, handler), in the order `finfree -h` lists them
COMMANDS = {
    "conv": ("finite free convolution of two polynomials", _conv_arguments, cmd_conv),
    "zpoly": ("the degree-d commutator kernel polynomial", _zpoly_arguments, cmd_zpoly),
    "commutator": (
        "expected characteristic polynomial of the commutator",
        _commutator_arguments, cmd_commutator,
    ),
    "weingarten": (
        "dump the Weingarten table for (k, d)", _weingarten_arguments, cmd_weingarten,
    ),
    "immanant": ("immanant of a rational matrix", _immanant_arguments, cmd_immanant),
    "character": (
        "symmetric group character values", _character_arguments, cmd_character,
    ),
    "kostka": ("Kostka or inverse Kostka numbers", _kostka_arguments, cmd_kostka),
    "verify": ("run verification suites", _verify_arguments, cmd_verify),
}


@lru_cache(maxsize=None)
def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone, built once per
    process: parsing reads a parser and never changes it.

    A one-command parser still names every command in its usage line, which
    argparse prints for unrecognized arguments; the full parser keeps the
    default metavar, because its `required` and `invalid choice` errors
    would change with another.
    """
    parser = argparse.ArgumentParser(
        prog="finfree",
        description="Exact finite free convolutions, Weingarten calculus, "
        "immanants, and Monte Carlo cross-checks.",
    )
    names = list(COMMANDS) if command is None else [command]
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments, handler = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the invoked command's arguments are built; -h, an empty argv and
    # anything that names no command get the full parser and its messages
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:  # InputError, CapExceededError, refused arguments
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
