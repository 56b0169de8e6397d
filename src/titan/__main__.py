"""`python -m titan` and the installed `titan` script: the CLI, with
OpenBLAS held to one thread unless OPENBLAS_NUM_THREADS is set. numpy
reads the variable when it loads OpenBLAS, so it is set before `cli`
imports numpy; `import titan.cli` alone leaves the thread count as it is."""

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
