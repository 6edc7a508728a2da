"""Command-line front end: compute sums, run verification suites, approximate rationals.

Exit codes: 0 success, 1 verification failure, 2 usage/input error,
3 internal invariant or precision failure.  JSON goes to stdout and is
byte-identical for identical seed + config (timing is therefore reported on
stderr and in the text/CSV formats only).

Each call parses its arguments once: the parser is built on the first call
and shared by every later one, and an argv whose first word names a
subcommand goes straight to that subcommand.  There one exact pass
(_parse_exact) parses a well-formed argv into the Namespace that the
subcommand's argparse parser would return, from the Actions that
build_parser declared.  It takes exact option strings only, as --opt=value,
--opt value or -o value, and declines everything else: help, abbreviations,
attached short values, a value that starts with '-' and is no plain negative
integer, unknown words, and any type, choice or required failure.  What it
declines goes to the subcommand's argparse parser, so argparse alone prints
help, usage and error texts.  The top-level parser sees only what it must
report itself: -h, no command, an unknown command.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
import time
from typing import NamedTuple

from .dedekind import SumContext, d_sum, normalize_value
from .density import Target, approximate
from .density import construct, find_prime  # noqa: F401  (unused here; bench/tracing.py rebinds both to count calls)
from .errors import ConstructionError, DedekindError, InadmissibleTargetError, PrecisionLossError, SearchLimitError
from .lattice import Lattice
from .ring import QuadOrder
from .verification import SUITE_NAMES, run_suite

__all__ = ["main", "entry"]

_EXIT_OK = 0
_EXIT_VERIFY_FAIL = 1
_EXIT_USAGE = 2
_EXIT_INTERNAL = 3

_DEFAULT_SEED = 12345


# ---------------------------------------------------------------------------
# Deterministic JSON with 17-significant-digit floats.


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} in JSON output")
    return format(float(x), ".17g")


# A str as json.dumps(s, ensure_ascii=False) writes it.
_json_str = json.encoder.encode_basestring


def _to_json(obj) -> str:
    """obj as compact JSON, floats with 17 significant digits, written in one pass.

    Each piece is appended to a list, and each dict's pieces are joined once,
    as it closes, so only the pieces of the dicts still open are alive at a
    time.  It takes exactly the types the commands emit: float, int, complex
    (as {"re", "im"}, in one piece), str, dict, list, tuple and bool.  Any
    other type raises TypeError naming it: None, np.float64, a subclass of
    one of these.  A non-finite float, or part of a complex, raises
    ValueError.
    """
    out = []
    _write_json(obj, out)
    return "".join(out)


def _write_json(obj, out: list[str]) -> None:
    kind = type(obj)
    if kind is float:
        out.append(_fmt_float(obj))
    elif kind is int:
        out.append(str(obj))
    elif kind is complex:
        out.append(f'{{"re":{_fmt_float(obj.real)},"im":{_fmt_float(obj.imag)}}}')
    elif kind is str:
        out.append(_json_str(obj))
    elif kind is dict:
        parts = []
        sep = "{"
        for key, val in obj.items():
            parts += (sep, _json_str(str(key)), ":")
            _write_json(val, parts)
            sep = ","
        parts.append("}" if sep == "," else "{}")
        out.append("".join(parts))
    elif kind is list or kind is tuple:
        sep = "["
        for val in obj:
            out.append(sep)
            _write_json(val, out)
            sep = ","
        out.append("]" if sep == "," else "[]")
    elif kind is bool:
        out.append("true" if obj else "false")
    else:
        raise TypeError(f"no JSON form for type {kind.__name__}")


def _emit_json(config: dict, records: list, summary: dict) -> None:
    sys.stdout.write(_to_json({"config": config, "records": records, "summary": summary}) + "\n")


def _emit_csv(rows: list[dict], columns: list[str]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row.get(col, "") for col in columns])


# ---------------------------------------------------------------------------
# Argument parsing.


def _parse_coords(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'u,v' integer pair, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected integers in {text!r}") from exc


def _parse_steps(text: str) -> int:
    try:
        steps = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if steps < 0:
        raise argparse.ArgumentTypeError(f"steps must be >= 0, got {steps}")
    return steps


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from exc


class _Command(NamedTuple):
    """A subcommand's argparse parser and the table its exact pass reads, built from the same Actions."""

    parser: argparse.ArgumentParser
    options: dict[str, argparse.Action]  # every option string of the subcommand's own arguments
    defaults: dict[str, object]  # each argument's default, then the set_defaults values
    required: tuple[argparse.Action, ...]


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, _Command]]:
    """The CLI's parser and its {name: subcommand} table, built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="elliptic-dedekind",
        description="Elliptic Dedekind sums over imaginary quadratic orders",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    declared = {}

    def add_subcommand(name, help_text, run):
        """The subcommand's add_argument, which also records each Action it returns."""
        p = sub.add_parser(name, help=help_text)
        defaults = {"command": name, "run": run}
        p.set_defaults(**defaults)
        actions = []
        declared[name] = p, actions, defaults

        def add_argument(*flags, **kwargs):
            actions.append(p.add_argument(*flags, **kwargs))

        add_argument("--dk", type=int, default=-8, help="fundamental discriminant d_K < 0 (default -8)")
        add_argument("-f", "--conductor", type=int, default=1, help="conductor f >= 1 (default 1)")
        add_argument("--format", choices=("text", "json", "csv"), default="text", help="output format")
        return add_argument

    add_sum = add_subcommand("sum", "compute D_L and the normalized sum for one (h, k) pair", _cmd_sum)
    add_sum("--omega1", type=_parse_complex, default=None, help="custom basis vector omega1")
    add_sum("--omega2", type=_parse_complex, default=None, help="custom basis vector omega2")
    add_sum("--h", type=_parse_coords, required=True, metavar="U,V", help="h in theta-coordinates")
    add_sum("--k", type=_parse_coords, required=True, metavar="U,V", help="k in theta-coordinates")

    add_verify = add_subcommand("verify", "run an invariant suite", _cmd_verify)
    add_verify("--suite", choices=SUITE_NAMES, required=True)
    add_verify("--seed", type=int, default=_DEFAULT_SEED, help="PRNG seed for randomized suites")

    add_approx = add_subcommand("approximate", "approximate 2a/b by normalized sums", _cmd_approximate)
    add_approx("--a", type=int, required=True)
    add_approx("--b", type=int, required=True)
    add_approx("--steps", type=_parse_steps, default=3)
    commands = {
        name: _Command(
            p,
            {flag: action for action in actions for flag in action.option_strings},
            {**{action.dest: action.default for action in actions}, **defaults},
            tuple(action for action in actions if action.required),
        )
        for name, (p, actions, defaults) in declared.items()
    }
    return parser, commands


def _config_dict(args) -> dict:
    cfg = {"command": args.command, "d_k": args.dk, "conductor": args.conductor}
    if args.command == "verify":
        cfg["seed"] = args.seed
    cfg["format"] = args.format
    if args.command == "sum" and args.omega1 is not None:  # a sum succeeds only with both vectors
        cfg["omega1"] = args.omega1
        cfg["omega2"] = args.omega2
    return cfg


def _make_context(args) -> SumContext:
    order = QuadOrder(args.dk, args.conductor)
    if args.omega1 is not None or args.omega2 is not None:
        if args.omega1 is None or args.omega2 is None:
            raise InadmissibleTargetError("--omega1 and --omega2 must be given together")
        return SumContext(order, Lattice(args.omega1, args.omega2))
    return SumContext(order)


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_sum(args) -> int:
    started = time.perf_counter()
    ctx = _make_context(args)
    order = ctx.order
    h = order.element(*args.h)
    k = order.element(*args.k)
    value = d_sum(h, k, ctx)
    normalized = normalize_value(value, ctx)
    # The sign of an exactly-zero part follows rounding order, not the sum: print it as 0.
    value = complex(value.real + 0.0, value.imag + 0.0)
    e2 = ctx.lattice.e2_zero()
    elapsed = time.perf_counter() - started
    record = {
        "h": list(args.h),
        "k": list(args.k),
        "d_sum": value,
        "d_norm": normalized,
        "e2_zero": e2,
        "coset_count": k.norm(),
    }
    if args.format == "json":
        _emit_json(_config_dict(args), [record], {"status": "ok"})
    elif args.format == "csv":
        row = {
            "h": f"{args.h[0]},{args.h[1]}",
            "k": f"{args.k[0]},{args.k[1]}",
            "d_sum_re": repr(value.real),
            "d_sum_im": repr(value.imag),
            "d_norm": repr(normalized),
            "e2_re": repr(e2.real),
            "e2_im": repr(e2.imag),
            "coset_count": k.norm(),
            "wall_time_s": f"{elapsed:.6f}",
        }
        _emit_csv([row], list(row.keys()))
    else:
        print(f"order: d_K={order.d_k}, f={order.f} (discriminant {order.discriminant})")
        print(f"h = {args.h[0]} + {args.h[1]}*theta,  k = {args.k[0]} + {args.k[1]}*theta")
        print(f"coset count: {k.norm()}")
        print(f"D_L(h,k)  = {value.real:+.12e} {value.imag:+.12e}i")
        print(f"Dtilde    = {normalized:+.12e}")
        print(f"E2(0)     = {e2.real:+.12e} {e2.imag:+.12e}i")
        print(f"wall time = {elapsed:.3f} s")
    print(f"sum finished in {elapsed:.3f} s", file=sys.stderr)
    return _EXIT_OK


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    order = QuadOrder(args.dk, args.conductor)
    checks = run_suite(args.suite, order, seed=args.seed)
    elapsed = time.perf_counter() - started
    failures = [c for c in checks if not c.passed]
    records = [
        {"name": c.name, "residual": c.residual, "tolerance": c.tolerance, "passed": c.passed, "info": c.info}
        for c in checks
    ]
    summary = {"suite": args.suite, "checks": len(checks), "failures": len(failures), "passed": not failures}
    if args.format == "json":
        _emit_json(_config_dict(args), records, summary)
    elif args.format == "csv":
        rows = [
            {
                "name": c.name,
                "residual": repr(c.residual),
                "tolerance": repr(c.tolerance),
                "passed": int(c.passed),
                "info": c.info,
            }
            for c in checks
        ]
        _emit_csv(rows, ["name", "residual", "tolerance", "passed", "info"])
    else:
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            extra = f"  [{c.info}]" if c.info else ""
            print(f"{status}  {c.name}: residual {c.residual:.3e} (tol {c.tolerance:.1e}){extra}")
        print(f"{len(checks) - len(failures)}/{len(checks)} checks passed in {elapsed:.2f} s")
    print(f"verify finished in {elapsed:.2f} s", file=sys.stderr)
    return _EXIT_OK if not failures else _EXIT_VERIFY_FAIL


def _cmd_approximate(args) -> int:
    order = QuadOrder(args.dk, args.conductor)
    target = Target(args.a, args.b, order)
    records = []
    rows = []
    started = t0 = time.perf_counter()
    for index, step in enumerate(approximate(target, args.steps)):
        wall = time.perf_counter() - t0
        record = {
            "index": index,
            "p": step.p,
            "e": step.e,
            "ell": step.ell,
            "k": step.k,
            "dtilde": step.dtilde,
            "abs_err": step.abs_err,
            "bound": (2.0 / args.b + 1.0) / step.p,
        }
        records.append(record)
        if args.format == "csv":
            rows.append({**record, "wall_time_s": f"{wall:.6f}"})
        t0 = time.perf_counter()
    elapsed = time.perf_counter() - started
    two_x = 2.0 * args.a / args.b
    summary = {"a": args.a, "b": args.b, "discriminant": order.discriminant, "two_x": two_x, "steps": args.steps}
    if args.format == "json":
        _emit_json(_config_dict(args), records, summary)
    elif args.format == "csv":
        _emit_csv(rows, ["index", "p", "e", "dtilde", "abs_err", "bound", "wall_time_s"])
    else:
        print(f"target 2a/b = {two_x:.12g} over discriminant {order.discriminant}")
        for rec in records:
            print(
                f"step {rec['index']}: p={rec['p']}  e={rec['e']}  dtilde={rec['dtilde']:.10g}  "
                f"|err|={rec['abs_err']:.3e}  bound={rec['bound']:.3e}"
            )
        print(f"wall time = {elapsed:.3f} s")
    print(f"approximate finished in {elapsed:.3f} s", file=sys.stderr)
    return _EXIT_OK


# A separate value may start with '-' only as a plain negative integer, which argparse takes as a value on 3.10-3.12.
_NEGATIVE_INT = re.compile("-[0-9]+")


def _parse_exact(command: _Command, words: list[str]) -> argparse.Namespace | None:
    """words parsed as command.parser.parse_known_args parses them, or None where the pass declines them.

    It takes only a strict subset of what argparse takes (see the module
    docstring), each word an exact option string of one of the subcommand's
    own arguments, each of which stores one value.  On that subset it runs
    every check argparse runs: action.type converts each value, its choices
    hold, every required argument is given, and the last repeat wins.
    """
    options = command.options
    given = {}
    rest = iter(words)
    for word in rest:
        flag, eq, value = word.partition("=") if word.startswith("--") else (word, "", "")
        action = options.get(flag)
        if action is None:
            return None
        if not eq:
            value = next(rest, None)
            if value is None or value.startswith("-") and not _NEGATIVE_INT.fullmatch(value):
                return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action.dest] = value
    for action in command.required:
        if action.dest not in given:
            return None
    return argparse.Namespace(**{**command.defaults, **given})


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed once, by the subcommand when argv[0] names one (see the module docstring).

    Words the subcommand's parser leaves over are reported by the top-level
    parser, as its own parse reports them.
    """
    parser, commands = build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = _parse_exact(command, argv[1:])
    if args is None:
        args, extras = command.parser.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        return args.run(args)
    except (PrecisionLossError, ConstructionError, SearchLimitError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return _EXIT_INTERNAL
    except (DedekindError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


def entry() -> None:
    sys.exit(main())
