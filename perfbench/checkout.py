"""Locates the library source of the checkout the benchmark runs in."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_source() -> None:
    """Put the checkout's ``src`` first on the import path.

    Exits with status 1 when the checkout holds no library source, so that
    the benchmark never measures some other installed copy.
    """
    if not (SRC / "curveinv" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no curveinv source under {SRC}")
    sys.path.insert(0, str(SRC))
