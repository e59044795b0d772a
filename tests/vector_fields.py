"""The preLie algebra of polynomial vector fields on k variables, tangent to
the identity, under the flat connection (Manchon, *A short survey on
pre-Lie algebras*, 2011).  Its basis is

    X_{i,alpha} = x^alpha / alpha! d/dx_i,  i = 1..k, |alpha| = d + 1,

of degree d = 1..D, and its product

    X_{i,alpha} acted on by X_{j,beta} = C(gamma, beta) X_{i,gamma},
    gamma = alpha - e_j + beta,  C(gamma, beta) = prod_t C(gamma_t, beta_t),

zero when alpha_j = 0.  Its dual is the coordinate ring of formal
diffeomorphisms of (K^k, 0); at k = 1 it is the Witt table of
`monomial_walks`.  Nothing in the package imports this module, and it
uses only the package's classes.
"""

from __future__ import annotations

from itertools import product as iter_product
from math import comb, prod

from hopfforest.algebra import Polynomial
from hopfforest.hopfspec import Generator
from hopfforest.prelie import PreLieSpec


def vector_fields(k, top):
    """The vector fields on k variables truncated at degree top, numbered
    by degree, then variable i, then exponent alpha in lexicographic order."""
    fields = [
        (i, alpha)
        for d in range(1, top + 1)
        for i in range(k)
        for alpha in iter_product(range(d + 2), repeat=k)
        if sum(alpha) == d + 1
    ]
    ids = {p: n for n, p in enumerate(fields, 1)}
    products = {}
    for (i, alpha), p in ids.items():
        for (j, beta), q in ids.items():
            if alpha[j] and sum(alpha) + sum(beta) - 2 <= top:
                gamma = tuple(a + b - (t == j) for t, (a, b) in enumerate(zip(alpha, beta)))
                products[p, q] = prod(map(comb, gamma, beta)) * Polynomial.variable(ids[i, gamma])
    basis = [Generator(n, sum(alpha) - 1) for (_, alpha), n in ids.items()]
    return PreLieSpec(f"vector-fields-{k}-{top}", basis, products, top)
