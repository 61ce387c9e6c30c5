"""Locate the package source of the checkout the benchmark belongs to.

The benchmark always measures the `src/` tree next to its own directory,
never an installed copy: a checkout without that tree cannot be measured,
so every entry point stops there with exit code 2 before printing a result.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "coadorbits"

MISSING_SOURCE = 2


def use_checkout_source() -> None:
    """Put the checkout's `src/` first on the import path and import coadorbits from it.

    Exits with code 2 when the checkout has no package source, or when the
    import resolves to a copy outside it.
    """
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no package source at {PACKAGE}", file=sys.stderr)
        raise SystemExit(MISSING_SOURCE)
    sys.path.insert(0, str(SRC))
    import coadorbits

    if Path(coadorbits.__file__).resolve().parent != PACKAGE:
        print(f"perfbench: coadorbits imported from {coadorbits.__file__}, not {PACKAGE}",
              file=sys.stderr)
        raise SystemExit(MISSING_SOURCE)
