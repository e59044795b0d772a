"""Oracles for the package's closed forms on monomials: the partial Bell
recurrence for the composition table, the position-mask walk for the
unshuffle coproduct, the brace with its derivation term read off the
enveloping product, and the Witt preLie table, whose dual is the
composition table.

Nothing in the package imports this module, and it uses only the package's
classes, so `faa_di_bruno_spec`, `unshuffle_coproduct`, `brace_action` and
`dualize` are each checked against a computation that shares none of their
code:

    B_{n,k} = sum_j C(n-1, j-1) x_j B_{n-j,k-1}       (Bell recurrence)
    Delta(x_1 ... x_r) = sum over masks S of x_S (x) x_(not S)
    a acted on by (B b) = (a acted on by B) acted on by b
                          - a acted on by (B * b - B b)
    b_i acted on by b_j = C(i+j+1, i) b_{i+j}         (Witt table)

where B * b is the Guin–Oudom product, itself built from the brace.

The Witt table is the preLie algebra of the vector fields x^(k+1) d/dx,
rescaled so that its structure constants are integers; its enveloping
algebra is dual to the composition Hopf algebra (Figueroa and
Gracia-Bondía, *Combinatorial Hopf algebras in quantum field theory I*,
2005).
"""

from __future__ import annotations

from math import comb

from hopfforest.algebra import Monomial, Polynomial, Tensor
from hopfforest.hopfspec import CoproductEntry, CoproductSpec, Generator
from hopfforest.prelie import PreLieSpec


def bell_partials(top):
    """The partial Bell polynomials B_{n,k} for k <= n <= top, as
    {(n, k): {sorted tuple of block sizes: count}}, filled bottom-up in k."""
    bell = {(0, 0): {(): 1}}
    for k in range(1, top + 1):
        for n in range(k, top + 1):
            out = {}
            for j in range(1, n - k + 2):
                for sizes, c in bell.get((n - j, k - 1), {}).items():
                    key = tuple(sorted(sizes + (j,)))
                    out[key] = out.get(key, 0) + comb(n - 1, j - 1) * c
            bell[n, k] = out
    return bell


def faa_di_bruno_recurrence(max_degree):
    """The composition table on b_1..b_max_degree read off the Bell
    recurrence: for each block-size multiset of B_{n+1,k}, k >= 2, the row
    (n; k - 1; [p - 1 for each size p >= 2]), when that leg is not empty."""
    gens = [Generator(n, n, f"b{n}") for n in range(1, max_degree + 1)]
    bell = bell_partials(max_degree + 1)
    entries = []
    for n in range(2, max_degree + 1):
        for k in range(2, n + 1):
            for sizes, count in bell[n + 1, k].items():
                right = [p - 1 for p in sizes if p >= 2]
                if right:
                    entries.append(CoproductEntry(n, k - 1, right, count))
    return CoproductSpec(f"faa-di-bruno-{max_degree}", gens, entries)


def mask_unshuffle(m):
    """The unshuffle coproduct of a monomial, one term per splitting of its
    factor positions into a left and a right part."""
    idx = tuple(m)
    full = (1 << len(idx)) - 1

    def part(mask):
        return Monomial(i for s, i in enumerate(idx) if mask >> s & 1)

    return Tensor(2, [((part(mask), part(full ^ mask)), 1) for mask in range(full + 1)])


def brace_through_the_product(spec):
    """(brace, product) on one preLie table, each memoized in its own dict:
    brace(i, J) is b_i acted on by the monomial J, its derivation term
    B acted on by b read off the enveloping product as B * b - B b, and
    product(a, b) is the Guin–Oudom product a * b summed over the
    position-mask unshuffle of b.  The two recurse into each other on
    shorter arguments; neither checks the truncation."""
    zero = Polynomial.zero()
    braces, products = {}, {}

    def brace(i, right):
        if (i, right) not in braces:
            if not right:
                value = Polynomial.variable(i)
            elif len(right) == 1:
                value = spec.products.get((i, right[0]), zero)
            else:
                rest, last = Monomial(right[:-1]), right[-1]
                derivation = product(rest, Monomial((last,))) - Polynomial.single(right)
                value = zero
                for m, c in brace(i, rest).items():
                    value = value + c * spec.products.get((m[0], last), zero)
                for m, c in derivation.items():
                    value = value - c * brace(i, m)
            braces[i, right] = value
        return braces[i, right]

    def product(a, b):
        if (a, b) not in products:
            value = Polynomial.single(b)
            if a:
                value = zero
                for (b1, b2), c in mask_unshuffle(b).items():
                    value = value + c * brace(a[0], b1) * product(Monomial(a[1:]), b2)
            products[a, b] = value
        return products[a, b]

    return brace, product


def witt(n):
    """The Witt preLie table truncated at degree n: basis b_1..b_n with
    deg b_k = k, and b_i acted on by b_j equal to C(i+j+1, i) b_{i+j}."""
    basis = [Generator(k, k, f"b{k}") for k in range(1, n + 1)]
    products = {
        (i, j): comb(i + j + 1, i) * Polynomial.variable(i + j)
        for i in range(1, n + 1)
        for j in range(1, n + 1 - i)
    }
    return PreLieSpec(f"witt-{n}", basis, products, n)
