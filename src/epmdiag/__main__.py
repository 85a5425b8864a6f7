"""The `epmdiag` command's one entry module: `python -m epmdiag` runs it, and the
installed `epmdiag` script calls its `main`.

The command calls no BLAS routine that a second thread would speed up, so it asks
OpenBLAS for one thread before numpy loads; OpenBLAS then starts no worker thread,
which would spin on a core while numpy imports. A value the caller set is kept.
`import epmdiag` and `import epmdiag.cli` set nothing: a library leaves the
process's BLAS threading to its caller.
"""
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  numpy loads here, after the variable is set

if __name__ == "__main__":
    sys.exit(main())
