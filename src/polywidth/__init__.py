"""Gaussian-width experiments for polynomial images of the Boolean hypercube.

Submodules: hypergraph (edge coloring, matchings, homogenization), poly
(hypergraph polynomials), tensorlift (the quadratic lift construction),
sparse (COO matrices), birthday (goodness statistics and Poisson checks),
gwidth (width and spectral-norm estimation), aps (arithmetic-progression
hypergraphs over Z/NZ), randsets (random subsets, upper tails,
intersectivity), mc (seeded, chunked Monte Carlo), errors (shared
exception types), cli (the command line).
"""

__version__ = "0.1.0"
