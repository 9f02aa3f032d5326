"""Italian domination on generalized Petersen graphs.

Exact solvers (exhaustive, cyclic profile DP, branch and bound),
explicit periodic constructions, closed-form value oracles, and
executable certificate machinery for P(n, k).  The `gpid` command
(`gpid.cli`) is the front end; the names live in the modules that
define them.
"""

__version__ = "0.1.0"
