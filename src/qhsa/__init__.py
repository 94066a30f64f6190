"""Exact verification of finite-dimensional Z2-graded quasi-Hopf superalgebras.

Structures are given by structure constants over Q or a cyclotomic field;
every axiom and derived identity is checked as an exact equality of sparse
tensor elements.  See the README for the document format and the CLI.

The package root holds only ``__version__``: import each name from its
module, which loads only what that module imports.
"""

__version__ = "0.1.0"
