"""Make the program under test importable from the checkout's ``src/``.

The benchmark measures the tree it sits in, so ``repro`` must come from
``<root>/src`` and from nowhere else; without it the benchmark exits
with an error instead of measuring some other installed copy.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    pass


def import_repro():
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program to measure: {SRC / 'repro'} "
                             "is missing (run from a full checkout)")
    sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        raise MissingProgram(f"imported repro from {repro.__file__}, "
                             f"not from {SRC}")
    return repro
