"""Command-line front end.

Subcommands:

* ``list``    -- the pair catalog (text, json, or csv)
* ``expand``  -- family members as a table (text, json, csv, or latex)
* ``verify``  -- run verification suites; exit 0 iff everything passes

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 capacity
error (requested degree beyond the truncation order).  All output is
deterministic: rationals render as ``p/q``, tables are sorted, and no
timestamps appear in any payload.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import stat
import sys
from fractions import Fraction

from .families import sheffer_poly
from .mixed import MixedFamily
from .multipoly import poly_latex
from .pairs import catalog, get_pair
from .series import OrderTooSmall
from .suites import DEFAULT_ORDER, SUITES, run_all, run_suite

USAGE_ERROR = 2
CAPACITY_ERROR = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = USAGE_ERROR):
        super().__init__(message)
        self.code = code


def _message(exc: Exception) -> str:
    """An exception's message; str() of a KeyError would quote it."""
    return str(exc.args[0]) if isinstance(exc, KeyError) and exc.args else str(exc)


def _parse_fraction(name: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        limit = sys.get_int_max_str_digits()
        if limit and sum(c.isdecimal() for c in text) > limit:
            # Python's message would repeat every digit
            raise CliError(f"--param {name} has more than {limit} digits, too many to read")
        raise CliError(f"not an exact rational: {text!r} ({exc})")


def _parse_params(items: list[str]) -> dict[str, Fraction]:
    params: dict[str, Fraction] = {}
    for item in items:
        if "=" not in item:
            raise CliError(f"--param expects name=p/q, got {item!r}")
        name, _, value = item.partition("=")
        name = name.strip()
        if name in params:
            raise CliError(f"--param {name} is given more than once")
        params[name] = _parse_fraction(name, value.strip())
    return params


def _parse_n_range(text: str) -> range:
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise CliError(f"bad --n range {text!r}")
        if lo_i < 0 or hi_i < lo_i:
            raise CliError(f"bad --n range {text!r}")
        return range(lo_i, hi_i + 1)
    try:
        n = int(text)
    except ValueError:
        raise CliError(f"bad --n value {text!r}")
    if n < 0:
        raise CliError("--n must be >= 0")
    return range(n, n + 1)


def _check_out(out_path: str | None) -> None:
    """Refuse an ``--out`` path that cannot be written, before any work and
    without creating or truncating it: an existing file must be writable,
    and a new one needs a writable directory."""
    if not out_path:
        return
    try:
        if os.path.isdir(out_path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if os.path.exists(out_path):
            target, mode = out_path, os.W_OK
        else:
            target, mode = os.path.dirname(out_path) or ".", os.W_OK | os.X_OK
            if not stat.S_ISDIR(os.stat(target).st_mode):
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if not os.access(target, mode):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    except OSError as exc:
        raise CliError(f"cannot write --out {out_path}: {exc.strerror or exc}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write --out {out_path}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


# -- list -------------------------------------------------------------------------


def cmd_list(args) -> int:
    pairs = catalog()
    if args.pair:
        pairs = [get_pair(args.pair, None)]
    rows = [p.metadata() for p in pairs]
    if args.format == "json":
        text = json.dumps({"pairs": rows}, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "family", "params", "normalization", "associated",
                         "claimed_A", "claimed_H"])
        for m in rows:
            params = ";".join(f"{k}={v}" for k, v in sorted(m["params"].items()))
            flags = m["associated"], m["claimed"]["A"], m["claimed"]["H"]
            writer.writerow([m["name"], m["family"], params, m["normalization"],
                             *(str(b).lower() for b in flags)])
        text = buf.getvalue()
    else:
        lines = []
        for m in rows:
            params = ", ".join(f"{k}={v}" for k, v in sorted(m["params"].items()))
            claims = "A,H" if m["claimed"]["A"] else ("H" if m["claimed"]["H"] else "-")
            lines.append(
                f"{m['name']:22s} {m['family']:45s} "
                f"params[{params}] norm={m['normalization']} closed-forms={claims}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


# -- expand -----------------------------------------------------------------------


def _check_order(order: int) -> None:
    # a suite that never reads the order would pass a negative one and print it
    if order < 0:
        raise CliError("--order must be >= 0")


def cmd_expand(args) -> int:
    _check_order(args.order)
    params = _parse_params(args.param)
    pair = get_pair(args.pair, params or None)
    ns = _parse_n_range(args.n)
    hi = ns[-1]
    if hi > args.order:
        raise CliError(
            f"--order {args.order} is below the largest requested n {hi}",
            CAPACITY_ERROR)
    # member n is exact at any truncation order >= n, so only the members
    # through hi are expanded; the requested order is what is printed
    if args.kind == "sheffer":
        polys = [sheffer_poly(pair, n, max(hi, 1)) for n in ns]
        label = f"{pair.name} Sheffer"
    else:
        fam = MixedFamily(pair, args.kind, args.r, hi)
        polys = [fam.member(n) for n in ns]
        label = fam.label

    def render(show, n: int, p) -> str:
        try:
            return show(p)
        except ValueError:  # an integer past Python's int-to-str digit limit
            raise CliError(
                f"member n={n} of {pair.name} has a coefficient of more than "
                f"{sys.get_int_max_str_digits()} digits, too long to print",
                CAPACITY_ERROR)

    if args.format == "json":
        payload = {
            "pair": pair.name,
            "kind": args.kind,
            "r": args.r,
            "order": args.order,
            "params": {k: str(v) for k, v in pair.params},
            "members": [
                {"n": n, "poly": render(str, n, p), "latex": render(poly_latex, n, p)}
                for n, p in zip(ns, polys)
            ],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        lines = ["n,polynomial"]
        for n, p in zip(ns, polys):
            lines.append(f'{n},"{render(str, n, p)}"')
        text = "\n".join(lines) + "\n"
    elif args.format == "latex":
        lines = [f"% {label}"]
        for n, p in zip(ns, polys):
            lines.append(f"s_{{{n}}} &= {render(poly_latex, n, p)} \\\\")
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"# {label}, order {args.order}"]
        for n, p in zip(ns, polys):
            lines.append(f"n={n}: {render(str, n, p)}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


# -- verify -----------------------------------------------------------------------


def cmd_verify(args) -> int:
    _check_order(args.order)
    if args.pair and args.pair != "all":
        get_pair(args.pair)  # an unknown name is a usage error
    if args.max_n is not None and args.max_n < 0:
        raise CliError("--max-n must be >= 0")
    if args.suite == "all":
        if args.max_n is not None:
            raise CliError("--max-n applies to a single --suite, not 'all'")
        checks = run_all(order=args.order)
    else:
        checks = run_suite(args.suite, args.order, args.max_n)
    if args.pair and args.pair != "all":
        filtered = [c for c in checks if args.pair in c.name]
        if not filtered:
            raise CliError(f"no checks in suite {args.suite!r} mention "
                           f"pair {args.pair!r}")
        checks = filtered
    failures = [c for c in checks if not c.passed]
    if args.format == "json":
        payload = {
            "order": args.order,
            "suite": args.suite,
            "passed": not failures,
            "checks": [c.to_json_dict() for c in checks],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        lines = ["suite,check,passed,witness"]
        for c in checks:
            witness = (c.witness or "").replace('"', "'")
            lines.append(f'{c.suite},"{c.name}",{str(c.passed).lower()},"{witness}"')
        text = "\n".join(lines) + "\n"
    else:
        lines = []
        for c in checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"[{mark}] {c.suite}: {c.name}")
            if c.witness and (not c.passed or args.verbose):
                lines.append(f"       {c.witness}")
        lines.append(
            f"{len(checks) - len(failures)}/{len(checks)} checks passed")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if not failures else 1


# -- entry point ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shefferpoly",
        description="Exact Sheffer-family polynomial engine and verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show the pair catalog")
    p_list.add_argument("--pair", help="show a single pair")
    p_list.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_list.add_argument("--out", help="write output to a file")
    p_list.set_defaults(fn=cmd_list)

    p_exp = sub.add_parser("expand", help="expand family members")
    p_exp.add_argument("--pair", required=True)
    p_exp.add_argument("--kind", choices=("S", "R", "sheffer"), default="S",
                       help="mixed-family kind, or the plain Sheffer sequence")
    p_exp.add_argument("--r", type=int, default=2)
    p_exp.add_argument("--n", required=True, help="degree, or range like 0..5")
    p_exp.add_argument("--order", type=int, default=DEFAULT_ORDER,
                       help=f"truncation order (default {DEFAULT_ORDER})")
    p_exp.add_argument("--param", action="append", default=[],
                       metavar="NAME=P/Q", help="exact rational parameter")
    p_exp.add_argument("--format", choices=("text", "json", "csv", "latex"),
                       default="text")
    p_exp.add_argument("--out")
    p_exp.set_defaults(fn=cmd_expand)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("--suite", default="all",
                       help="one of: " + ", ".join(sorted(SUITES)) + ", all")
    p_ver.add_argument("--pair", help="filter checks by pair name")
    p_ver.add_argument("--max-n", type=int, default=None, dest="max_n")
    p_ver.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p_ver.add_argument("--verbose", action="store_true",
                       help="show witnesses for passing checks too")
    p_ver.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_ver.add_argument("--out")
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OrderTooSmall as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAPACITY_ERROR
    except (KeyError, ValueError) as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
