#!/usr/bin/env python3
"""Re-run the empirical certification of the chart sign convention.

Builds the sum-root charts in the paper's printed form under every
candidate sign rule and tests them against sampled orbit points; prints the
unique surviving rule per kind. The shipped default (CONVENTIONS.md) is the
sign that the derived charts carry, and this run must single it out. Exit
code 0 when it does, 1 when another rule or no unique rule survives, and 2
on a usage error (--max-n below 3 or above 24, or --trials below 1).

Usage:
    python scripts/certify_signs.py [--max-n 4] [--trials 50] [--seed 314159]
"""

from __future__ import annotations

import argparse
import sys

from coadorbits.oracle import (
    CERTIFIED_SIGN_RULE,
    DEFAULT_SEED,
    MAX_N,
    SIGN_RULES,
    AmbiguousSignConventionError,
    resolve_sign_conventions,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()
    if args.max_n < 3:
        parser.error(f"--max-n must be at least 3, got {args.max_n}")
    if args.max_n > MAX_N:
        parser.error(f"--max-n must be at most {MAX_N}, got {args.max_n}")
    if args.trials < 1:
        parser.error(f"--trials must be at least 1, got {args.trials}")

    print(f"candidate rules: {', '.join(sorted(SIGN_RULES))}")
    try:
        rules = resolve_sign_conventions(args.max_n, args.trials, args.seed)
    except AmbiguousSignConventionError as exc:
        print(f"certify_signs: error: {exc}", file=sys.stderr)
        return 1
    for kind, rule in sorted(rules.items()):
        marker = "(shipped default)" if rule == CERTIFIED_SIGN_RULE else "(DIFFERS FROM DEFAULT)"
        print(f"kind {kind}: certified rule = {rule} {marker}")
    ok = all(rule == CERTIFIED_SIGN_RULE for rule in rules.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
