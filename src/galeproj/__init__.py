"""Exact rational toolkit for vertex counts of Minkowski sums.

The package chains four layers: exact linear algebra and LP feasibility
(`linalg`, `lp`), polytopes with normal-cone Minkowski enumeration
(`polytopes`), Gale duality and projection censuses (`gale`,
`projections`), and combinatorial embeddability obstructions
(`complexes`, `obstructions`).  The `pipeline` module ties them into
reproducible reports.  The API lives in those submodules, imported by
name (`from galeproj.polytopes import VPolytope`), and in the `galeproj`
CLI (`galeproj.cli`); the package root re-exports nothing.
"""

__version__ = "0.1.0"
