"""Process set-up shared by the benchmark scripts.

Import this module before anything imports numpy: it pins the BLAS and OpenMP
thread pools to one thread, so that one thread per grid worker keeps
threads x workers within the two cores the workloads are sized for, and it
puts the checkout's ``src/`` first on ``sys.path`` so the program under test is
the one in this checkout.
"""

import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BLAS_THREADS = 1

for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"


class MissingProgram(Exception):
    """The checkout holds no sysident sources to benchmark."""


def import_sysident():
    """Import sysident from this checkout's ``src/``; never from elsewhere."""
    if not (SRC / "sysident" / "__init__.py").is_file():
        raise MissingProgram(f"no sysident package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sysident
    if Path(sysident.__file__).resolve().parent != (SRC / "sysident").resolve():
        raise MissingProgram(f"sysident imported from {sysident.__file__}, "
                             f"not from {SRC}")
    return sysident
