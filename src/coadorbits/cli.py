"""Command-line front end.

Subcommands: roots, chart, dim, decompose, dims, verify. The rank --n,
verify --max-n and the "n" of a dim or decompose JSON file are each
at most 24, checked before any root system is built. Exit codes: 0
success; 1 usage or input error (ValueError, ZeroDivisionError, OSError);
2 verification failure or failed internal consistency check
(BracketDecompositionError, OddRankError), reported with the error's
class name.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import partial

from .basic import achievable_dimensions, basic_map_to_json, decompose, max_weyl_index
from .functionals import OddRankError, functional_from_json, orbit_dimension, parse_rational
from .oracle import DEFAULT_SEED, SUITE_NAMES, run_suite
from .orbits import chart_lines, chart_to_json, orbit_chart
from .roots import (
    MAX_N,
    BracketDecompositionError,
    RootSystemKind,
    _echo,
    get_system,
    parse_root,
    system_to_json,
)

USAGE_ERROR = 1
VERIFY_ERROR = 2

# The exit code of every error main reports, looked up along the error's MRO.
_EXIT_CODES = {
    ValueError: USAGE_ERROR,
    ZeroDivisionError: USAGE_ERROR,
    OSError: USAGE_ERROR,
    BracketDecompositionError: VERIFY_ERROR,
    OddRankError: VERIFY_ERROR,
}


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for verify.

    Negative rationals such as "-3/5" are read as option values, not flags.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _add_common(parser, *, kind=False, n=False):
    if kind:
        parser.add_argument("--kind", required=True, choices=[k.value for k in RootSystemKind])
    if n:
        parser.add_argument("--n", required=True, type=int)
    parser.add_argument("--format", default="text", choices=("text", "json", "latex"))
    parser.add_argument("--out", default=None, help="write output to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="coadorbits", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("roots", help="list the positive roots")
    _add_common(p, kind=True, n=True)

    p = sub.add_parser("chart",
                       help="defining equations of an elementary orbit")
    _add_common(p, kind=True, n=True)
    p.add_argument("--alpha", required=True, help='root name, e.g. "e1-e4"')
    p.add_argument("--c", default="1", help='orbit level, a rational like "2" or "-3/5"')

    p = sub.add_parser("dim",
                       help="orbit dimension of a functional (JSON file)")
    p.add_argument("functional", help="path to a functional JSON file")
    _add_common(p)

    p = sub.add_parser("decompose",
                       help="unique basic subset and phi of a type-A functional")
    p.add_argument("functional", help="path to a functional JSON file")
    _add_common(p)

    p = sub.add_parser("dims",
                       help="achievable coadjoint-orbit dimensions in type A")
    p.add_argument("--n", required=True, type=int)
    _add_common(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--kind", default=None, choices=[k.value for k in RootSystemKind],
                   help="restrict the suite to one kind where that makes sense")
    _add_common(p)
    return parser


def _load_functional(path: str):
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    n = data.get("n") if isinstance(data, dict) else None
    if isinstance(n, int) and n > MAX_N:
        raise ValueError(f"value of 'n' must be at most {MAX_N}, got {_echo(n)}")
    return functional_from_json(data)


# Each command returns (payload, lines, failed): payload() is its JSON
# object, lines(fmt) its lines in "text" or "latex", and failed whether a
# verify failed. main renders the one format asked for.

def _cmd_roots(args):
    system = get_system(args.kind, args.n)
    return (lambda: system_to_json(system),
            lambda fmt: [r.latex() if fmt == "latex" else f"{k}: {r}"
                         for k, r in enumerate(system.roots)], False)


def _cmd_chart(args):
    alpha = parse_root(args.alpha)
    chart = orbit_chart(args.kind, args.n, alpha, parse_rational(args.c))
    return partial(chart_to_json, chart), partial(chart_lines, chart), False


def _cmd_dim(args):
    f = _load_functional(args.functional)
    dim = orbit_dimension(f)
    return lambda: {"dimension": dim, "weyl_index": dim // 2}, lambda fmt: [str(dim)], False


def _cmd_decompose(args):
    f = _load_functional(args.functional)
    result = decompose(f)
    lines = ["roots: " + (" ".join(str(r) for r in result.subset.roots) or "(empty)")]
    lines.extend(f"phi[{r}] = {result.map.phi[r]}" for r in result.subset.roots)
    return lambda: basic_map_to_json(result.map), lambda fmt: lines, False


def _cmd_dims(args):
    dims = achievable_dimensions(args.n)
    indices = [d // 2 for d in dims]
    payload = {
        "n": args.n,
        "dims": dims,
        "weyl_indices": indices,
        "max_dimension": dims[-1],
        "max_weyl_index": max_weyl_index(args.n),
    }
    lines = [" ".join(str(d) for d in dims), "m: " + " ".join(str(m) for m in indices)]
    return lambda: payload, lambda fmt: lines, False


def _cmd_verify(args):
    kinds = (args.kind,) if args.kind else None
    report = run_suite(args.suite, args.seed, kinds=kinds, max_n=args.max_n, trials=args.trials)
    lines = [f"suite {report.check_name}: {report.verdict.upper()} ({report.trials} checks)"]
    for failure in report.failures[:10]:
        lines.append(f"  failure: {failure}")
    if len(report.failures) > 10:
        lines.append(f"  ... and {len(report.failures) - 10} more")
    return report.to_json, lambda fmt: lines, bool(report.failures)


_DISPATCH = {
    "roots": _cmd_roots,
    "chart": _cmd_chart,
    "dim": _cmd_dim,
    "decompose": _cmd_decompose,
    "dims": _cmd_dims,
    "verify": _cmd_verify,
}


def _check_size(args) -> None:
    """Reject an --n or --max-n above MAX_N before any system is built."""
    for option in ("n", "max_n"):
        value = getattr(args, option, None)
        if value is not None and value > MAX_N:
            flag = "--" + option.replace("_", "-")
            raise ValueError(f"{flag} must be at most {MAX_N}, got {_echo(value)}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_size(args)
        payload, lines, failed = _DISPATCH[args.command](args)
        _emit(json.dumps(payload(), sort_keys=True) if args.format == "json"
              else "\n".join(lines(args.format)), args.out)
        return VERIFY_ERROR if failed else 0
    except tuple(_EXIT_CODES) as exc:
        code = next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)
        detail = f"{type(exc).__name__}: {exc}" if code == VERIFY_ERROR else exc
        print(f"coadorbits: error: {detail}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
