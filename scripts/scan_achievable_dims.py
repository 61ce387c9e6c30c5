#!/usr/bin/env python3
"""Exhaustive basic-subset scan, one JSON record per line.

For each basic subset of the type-A roots with parameter n the record holds
its roots, s(D), the derived roots, and whether the basic sum is a single
coadjoint orbit. A summary of reachable orbit dimensions is printed to
stderr at the end.

Usage:
    python scripts/scan_achievable_dims.py --n 6 [--out scan6.jsonl]

--n runs from 2 to 12; the scan visits Bell(n) subsets.
"""

from __future__ import annotations

import argparse
import json
import sys

from coadorbits.basic import achievable_dimensions, iter_scan_records
from coadorbits.oracle import MAX_SCAN_N


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6)
    parser.add_argument("--out", default=None, help="write JSON lines here instead of stdout")
    args = parser.parse_args()
    if args.n < 2:
        parser.error(f"--n must be at least 2, got {args.n}")
    if args.n > MAX_SCAN_N:
        parser.error(f"--n must be at most {MAX_SCAN_N}, got {args.n}")

    sink = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    reachable = set()
    count = 0
    try:
        for record in iter_scan_records(args.n):
            sink.write(json.dumps(record, sort_keys=True) + "\n")
            count += 1
            if record["single_orbit"]:
                reachable.add(record["s"])
    finally:
        if args.out:
            sink.close()

    expected = achievable_dimensions(args.n)
    status = "OK" if sorted(reachable) == expected else "MISMATCH"
    print(
        f"n={args.n}: {count} basic subsets, reachable dims {sorted(reachable)} "
        f"vs closed form {expected} -> {status}",
        file=sys.stderr,
    )
    return 0 if status == "OK" else 1


if __name__ == "__main__":
    sys.exit(main())
