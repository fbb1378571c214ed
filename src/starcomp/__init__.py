"""starcomp: exact-arithmetic star complement toolkit.

Verify and search star sets for rational graph eigenvalues, enumerate the
maximal graphs admitting a prescribed star complement, and reproduce the
classification of regular graphs whose star complement is a complete split
graph.  All linear algebra is exact; nothing is ever rounded.
"""

__version__ = "0.1.0"
