"""The brace and the Guin–Oudom product on `Polynomial` values, one
monomial at a time: oracles for the packed preLie frame of
`hopfforest.prelie`.

Nothing in the package imports this module.  It uses only the public
polynomial arithmetic and reads the products off the table as it stores
them, so the packed numbering, the peel by fields and the split weights of
the frame are all checked against a computation that has none of them.
Both recursions peel what the package peels, so they agree off preLie
tables too:

    a acted on by 1        = a
    a acted on by (B * b)  = (a acted on by B) acted on by b
                             - a acted on by (B acted on by b)
    1 * b                  = b
    (x * a') * b           = sum over (b) of (x acted on by b1) * (a' * b2)

with b the last factor of B * b, the derivation B acted on by b summed over
the positions of B, x the first factor of x * a', and the sum over the
unshuffle coproduct of b.  Each raises InputError where the package does:
a brace with a nonempty right argument above the truncation.
"""

from __future__ import annotations

from collections import Counter
from math import comb

from hopfforest.algebra import Monomial, Polynomial, Tensor
from hopfforest.errors import InputError


def prelie_product(spec, i, j):
    """The basis product b_i acted on by b_j; zero when no structure
    constant is declared.  Raises InputError when the result degree exceeds
    the truncation."""
    degree = spec.degree(i) + spec.degree(j)
    if degree > spec.truncation:
        raise InputError(
            f"product ({i}, {j}) lands at degree {degree}, above the "
            f"truncation {spec.truncation}"
        )
    return spec.products.get((i, j), Polynomial.zero())


def unshuffle_coproduct(m):
    """The coproduct making every basis element primitive, on one monomial,
    as a rank-2 tensor: x^J goes to the sum over sub-multisets K of J of
    C(J, K) x^K (x) x^(J - K), where C(J, K) is the product over the
    distinct factors i of C(j_i, k_i).  The walk takes one distinct factor
    at a time, so b1^4 gives 5 terms, of weights 1, 4, 6, 4, 1."""
    splits = [((), (), 1)]
    for i, n in Counter(m).items():  # in ascending order, as m is sorted
        splits = [
            (left + (i,) * k, right + (i,) * (n - k), c * comb(n, k))
            for left, right, c in splits
            for k in range(n + 1)
        ]
    return Tensor(2, [((Monomial(a), Monomial(b)), c) for a, b, c in splits])


def polynomial_recursions(spec):
    """(brace, product) on one preLie table, each memoized in its own dict,
    filled only by calls that succeed."""
    braces, products = {}, {}

    def brace(i, right):
        if (i, right) in braces:
            return braces[i, right]
        degree = spec.degree(i) + spec.monomial_degree(right)  # raises for unknown ids
        if not right:
            value = Polynomial.variable(i)
        elif degree > spec.truncation:
            raise InputError(
                f"brace ({i}; {right}) lands at degree {degree}, above the "
                f"truncation {spec.truncation}"
            )
        elif len(right) == 1:
            value = prelie_product(spec, i, right[0])
        else:
            last, rest = right[-1], Monomial(right[:-1])
            value = Polynomial.zero()
            for m, c in brace(i, rest).items():
                value = value + prelie_product(spec, m[0], last) * c
            for k, x in enumerate(rest):
                others = rest[:k] + rest[k + 1 :]
                for m, c in prelie_product(spec, x, last).items():
                    value = value - brace(i, Monomial((*others, *m))) * c
        braces[i, right] = value
        return value

    def product(a, b):
        if (a, b) in products:
            return products[a, b]
        if not a:
            value = Polynomial.single(b)
        else:
            rest = Monomial(a[1:])
            value = Polynomial.zero()
            for (b1, b2), c in unshuffle_coproduct(b).items():
                value = value + brace(a[0], b1) * product(rest, b2) * c
        products[a, b] = value
        return value

    return brace, product
