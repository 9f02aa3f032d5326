"""Italian domination on generalized Petersen graphs.

Exact solvers (exhaustive, cyclic profile DP, branch and bound),
explicit periodic constructions, closed-form value oracles, and
executable certificate machinery for P(n, k).  The `gpid` command
(`gpid.cli`) is the front end; the names live in the modules that
define them.

Importing gpid loads numpy with a one-thread OpenBLAS, so a gpid
process runs on one OS thread.  No gpid routine calls BLAS, but an
OpenBLAS sized to the machine starts a worker per extra core at load,
and each worker busy-waits on a core for tens of milliseconds.  The
policy applies only when numpy is not imported yet: gpid then sets
`OPENBLAS_NUM_THREADS=1` for the import of numpy and removes it again,
so processes the host spawns later do not inherit it.  A value of
`OPENBLAS_NUM_THREADS` the caller set is left as given, and a program
that imports numpy before gpid keeps the BLAS threads it started.
"""

import os
import sys

if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401  (OpenBLAS reads the variable once, at load)
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"
