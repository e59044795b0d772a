"""The forest and Bogoliubov recursions on `Polynomial` values, one table
row at a time: oracles for the packed routes of `hopfforest.antipode`.

Nothing in the package imports this module.  It uses only the public
polynomial arithmetic, with coefficients as the table stores them, so the
packed numbering, the rescaled basis and the shared frame of the package
routes are all checked against a computation that has none of them.  Each
recursion reads only its own lower values, filled bottom-up along its own
leg in ascending degree, exactly as the formulas state:

    F(b_i) = -b_i - sum over rows (i; l; J) of c * b_l * prod_{j in J} F(b_j)
    S(b_i) = -b_i - sum over rows (i; l; J) of c * S(b_l) * b_J
"""

from __future__ import annotations

from functools import reduce

from hopfforest.algebra import Monomial, Polynomial, mono


def _below(spec, i, leg):
    """b_i and every generator it reaches through ``leg`` ("left" or
    "right") legs, in ascending degree."""
    seen, todo = {i}, [i]
    while todo:
        for e in spec.entries_for(todo.pop()):
            for j in e.right if leg == "right" else (e.left,):
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
    return sorted(seen, key=lambda j: (spec.degree(j), j))


def forest_recursion(spec, i, memo=None):
    """F(b_i); ``memo`` maps generators to F values already known on spec."""
    memo = {} if memo is None else memo
    for j in _below(spec, i, "right"):
        if j not in memo:
            value = -Polynomial.variable(j)
            for e in spec.entries_for(j):
                root = Polynomial.single(mono(e.left), e.coeff)
                value = value - reduce(lambda p, r: p * memo[r], e.right, root)
            memo[j] = value
    return memo[i]


def bogoliubov_recursion(spec, i, memo=None):
    """S(b_i) by Bogoliubov's recursion; ``memo`` as for the forest."""
    memo = {} if memo is None else memo
    for j in _below(spec, i, "left"):
        if j not in memo:
            value = -Polynomial.variable(j)
            for e in spec.entries_for(j):
                value = value - memo[e.left] * Polynomial.single(Monomial(e.right), e.coeff)
            memo[j] = value
    return memo[i]
