"""Locate and import the program under test from this checkout's ``src``."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import ``repro`` from ``<checkout>/src`` and return the module.

    Exits non-zero when the checkout holds no program, or when ``repro``
    resolves to a copy outside this checkout (an installed package must
    never stand in for the code being measured).
    """
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, "
                         f"not from {package}")
    return repro
