"""Process environment shared by the benchmark's processes.

`prepare()` must run before numpy is imported: it pins the BLAS pools to one
thread, leaves FINSLERPROJ_THREADS unset (the library's sample loops then
run serially) and puts the checkout's `src` first on the import path.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def prepare():
    """Set up this process; exit with status 2 if the library is missing."""
    if not (SRC / "finslerproj" / "__init__.py").is_file():
        _fail(f"no finslerproj sources under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("FINSLERPROJ_THREADS", None)
    sys.path.insert(0, str(SRC))


def check_import(module):
    """Exit with status 2 unless `module` was loaded from the checkout."""
    if SRC not in Path(module.__file__).resolve().parents:
        _fail(f"{module.__name__} loaded from {module.__file__}, not from {SRC}")
