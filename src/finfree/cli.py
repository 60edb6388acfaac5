"""Command-line front end. Exit codes: 0 success, 1 verification or band
failure, 2 usage or input errors."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .immanants import as_matrix, immanant_direct, immanant_gj
from .partitions import Partition, kostka
from .polynomials import MonicPoly, boxminus, boxplus, boxtimes, commutator_poly, z_poly
from .symgroup import character, character_table_json, inverse_kostka
from .util import CapExceededError, IMMANANT_CAP, PARTITION_CAP, to_fraction
from .verify import VERIFY_GROUPS, run_suites
from .weingarten import ClassFunction, weingarten


class InputError(Exception):
    """Bad file contents or inconsistent arguments: exit code 2."""


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_poly(path) -> MonicPoly:
    payload = _load_json(path)
    try:
        return MonicPoly.from_json_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path} is not a polynomial document: {exc}") from exc


def _load_spectrum(path) -> tuple:
    payload = _load_json(path)
    if not isinstance(payload, list) or not payload:
        raise InputError(f"{path} must hold a nonempty JSON array of rationals")
    try:
        return tuple(to_fraction(v) for v in payload)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path} holds a non-rational entry: {exc}") from exc


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


def _poly_payload(poly: MonicPoly) -> dict:
    return {"pretty": poly.pretty(), "result": poly.to_json_dict()}


def cmd_conv(args) -> int:
    p, q = _load_poly(args.p), _load_poly(args.q)
    ops = {"add": boxplus, "mul": boxtimes, "sub": boxminus}
    try:
        result = ops[args.op](p, q)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    payload = {"op": args.op, **_poly_payload(result)}
    _emit(payload, args.format, [result.pretty(), f"a = {[str(v) for v in result.a]}"])
    return 0


def cmd_zpoly(args) -> int:
    try:
        result = z_poly(args.d)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(
        _poly_payload(result),
        args.format,
        [result.pretty(), f"a = {[str(v) for v in result.a]}"],
    )
    return 0


def _floats(values, what: str) -> list:
    """The values as floats for sampling, or exit 2 if one does not fit."""
    try:
        return [float(v) for v in values]
    except OverflowError as exc:
        raise InputError(f"--mc: {what} is outside float range ({exc})") from exc


def cmd_commutator(args) -> int:
    spec_a, spec_b = _load_spectrum(args.a), _load_spectrum(args.b)
    if len(spec_a) != len(spec_b):
        raise InputError(
            f"spectrum lengths differ: {len(spec_a)} != {len(spec_b)}"
        )
    exact = commutator_poly(
        MonicPoly.from_spectrum(spec_a), MonicPoly.from_spectrum(spec_b)
    )
    payload = {"d": exact.degree, **_poly_payload(exact)}
    lines = [exact.pretty(), f"a = {[str(v) for v in exact.a]}"]
    code = 0
    if args.mc is not None:
        if args.seed is None:
            raise InputError("--mc requires --seed")
        from .montecarlo import mc_charpoly, within_band  # loads numpy

        exact_f = _floats(exact.a, "an exact coefficient")
        report = mc_charpoly(
            _floats(spec_a, "a spectrum entry"),
            _floats(spec_b, "a spectrum entry"),
            args.mc, args.seed, chunk_size=args.chunk,
        )
        z_scores = {}
        bands_ok = True
        for k in range(1, exact.degree + 1):
            exact_k = exact_f[k]
            mean = report.mean(f"e_{k}")
            se_re, se_im = report.se(f"e_{k}")
            ok = within_band(exact_k, mean.real, se_re) and within_band(
                0.0, mean.imag, se_im
            )
            bands_ok = bands_ok and ok
            z_scores[f"e_{k}"] = repr(
                abs(mean.real - exact_k) / se_re if se_re else 0.0
            )
        payload["mc"] = report.to_json_dict()
        payload["mc"]["z_scores"] = z_scores
        payload["mc"]["bands_ok"] = bands_ok
        lines.append(f"mc n={args.mc} seed={args.seed} bands_ok={bands_ok}")
        if not bands_ok:
            code = 1
    _emit(payload, args.format, lines)
    return code


def cmd_weingarten(args) -> int:
    try:
        table = weingarten(args.k, args.d, cap=args.cap_k)
    except (ValueError, CapExceededError) as exc:
        raise InputError(str(exc)) from exc
    payload = table.to_json_dict(d=args.d)
    lines = [
        f"Wg(k={args.k}, d={args.d}) {','.join(map(str, rho))}: {value}"
        for rho, value in sorted(table.values.items(), reverse=True)
    ]
    _emit(payload, args.format, lines)
    return 0


def cmd_immanant(args) -> int:
    shape = _parse_partition(args.shape)
    payload = _load_json(args.matrix)
    try:
        mat = as_matrix(payload)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{args.matrix} is not a rational matrix: {exc}") from exc
    func = immanant_direct if args.method == "direct" else immanant_gj
    try:
        value = func(shape, mat, cap=args.cap_n)
    except (ValueError, CapExceededError) as exc:
        raise InputError(str(exc)) from exc
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
        try:
            table = character_table_json(args.k, cap=args.cap_k)
        except (ValueError, CapExceededError) as exc:
            raise InputError(str(exc)) from exc
        _emit(
            {"k": args.k, "table": table},
            args.format,
            [f"{key}: {value}" for key, value in sorted(table.items())],
        )
        return 0
    if args.shape is None or args.cycle_type is None:
        raise InputError("--shape and --cycle-type must be given together")
    lam, rho = _parse_partition(args.shape), _parse_partition(args.cycle_type)
    try:
        value = character(lam, rho, cap=args.cap_k)
    except (ValueError, CapExceededError) as exc:
        raise InputError(str(exc)) from exc
    _emit(
        {"shape": list(lam), "cycle_type": list(rho), "value": value},
        args.format,
        [str(value)],
    )
    return 0


def cmd_kostka(args) -> int:
    lam, mu = _parse_partition(args.shape), _parse_partition(args.weight)
    func = inverse_kostka if args.inverse else kostka
    try:
        value = func(lam, mu, cap=args.cap_k)
    except (ValueError, CapExceededError) as exc:
        raise InputError(str(exc)) from exc
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


def _corrupted_weingarten(k: int, d: int, cap: int = PARTITION_CAP) -> ClassFunction:
    base = weingarten(k, d, cap)
    values = dict(base.values)
    worst = max(values)
    values[worst] += Fraction(1, 1000)
    return ClassFunction(k, values)


def cmd_verify(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.mc is not None:
        overrides["mc_n"] = args.mc
    if args.inject_wg_error:
        overrides["wg_fn"] = _corrupted_weingarten
    results = run_suites(VERIFY_GROUPS[args.suite], **overrides)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finfree",
        description="Exact finite free convolutions, Weingarten calculus, "
        "immanants, and Monte Carlo cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("json", "pretty"), default="json",
            help="output format (default json)",
        )

    p = sub.add_parser("conv", help="finite free convolution of two polynomials")
    p.add_argument("op", choices=("add", "mul", "sub"))
    p.add_argument("p", help="path to a polynomial JSON document")
    p.add_argument("q", help="path to a polynomial JSON document")
    add_format(p)
    p.set_defaults(func=cmd_conv)

    p = sub.add_parser("zpoly", help="the degree-d commutator kernel polynomial")
    p.add_argument("--d", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_zpoly)

    p = sub.add_parser(
        "commutator",
        help="expected characteristic polynomial of the commutator",
    )
    p.add_argument("a", help="path to a spectrum JSON array")
    p.add_argument("b", help="path to a spectrum JSON array")
    p.add_argument(
        "--mc", type=_int_at_least(2),
        help="Monte Carlo sample count (at least 2, so a band has a standard error)",
    )
    p.add_argument("--seed", type=int, help="Monte Carlo seed")
    p.add_argument(
        "--chunk", type=_int_at_least(1), default=4096, help="samples per chunk"
    )
    add_format(p)
    p.set_defaults(func=cmd_commutator)

    p = sub.add_parser("weingarten", help="dump the Weingarten table for (k, d)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--cap-k", type=int, default=PARTITION_CAP)
    add_format(p)
    p.set_defaults(func=cmd_weingarten)

    p = sub.add_parser("immanant", help="immanant of a rational matrix")
    p.add_argument("--shape", required=True, help="partition, e.g. 2,1")
    p.add_argument("matrix", help="path to a row-major matrix JSON document")
    p.add_argument("--method", choices=("direct", "multilinear"), default="direct")
    p.add_argument("--cap-n", type=int, default=IMMANANT_CAP)
    add_format(p)
    p.set_defaults(func=cmd_immanant)

    p = sub.add_parser("character", help="symmetric group character values")
    p.add_argument("--k", type=int, help="dump the full table for S_k")
    p.add_argument("--shape", help="partition, e.g. 2,1")
    p.add_argument("--cycle-type", help="partition, e.g. 1,1,1")
    p.add_argument("--cap-k", type=int, default=PARTITION_CAP)
    add_format(p)
    p.set_defaults(func=cmd_character)

    p = sub.add_parser("kostka", help="Kostka or inverse Kostka numbers")
    p.add_argument("--shape", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--cap-k", type=int, default=PARTITION_CAP)
    add_format(p)
    p.set_defaults(func=cmd_kostka)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suite", choices=sorted(VERIFY_GROUPS))
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--mc", type=_int_at_least(2), help="Monte Carlo sample count override"
    )
    p.add_argument(
        "--inject-wg-error",
        action="store_true",
        help="negative control: add 1/1000 to the largest class of every "
        "Weingarten table. The three triple-route rows of 'commutator' and "
        "the closed Wg_{2,d} and Gram-system rows of 'weingarten' fail under "
        "it; the flagship and odd-k rows read the table but still pass",
    )
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
