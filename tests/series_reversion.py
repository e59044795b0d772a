"""Closed-form oracle for the antipode of the composition Hopf algebra.

Nothing here imports hopfforest, and only the standard library is used, so
a fault in the package cannot also hide itself in its own check.

With the generators evaluated at b_i = point[i], the composition algebra's
b_n is (n+1)! times the coefficient of x^(n+1) in

    f(x) = x + sum_i point[i] x^(i+1) / (i+1)!,

and its antipode is the same coefficient of the compositional inverse of f
(Haiman and Schmitt, 1989).  Lagrange inversion gives that coefficient as

    [x^(n+1)] f^(-1) = 1/(n+1) [x^n] (x / f(x))^(n+1),

so S(b_n) = n! [x^n] (x / f(x))^(n+1).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

Series = list[Fraction]


def _mul(a: Series, b: Series) -> Series:
    """The product of two power series truncated to the length of a."""
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: len(a) - i]):
                out[i + j] += x * y
    return out


def _reciprocal(a: Series) -> Series:
    """1/a for a series with a[0] = 1, to the length of a."""
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for k in range(1, len(a)):
        out[k] = -sum((a[j] * out[k - j] for j in range(1, k + 1)), Fraction(0))
    return out


def _power(a: Series, e: int) -> Series:
    """a**e by repeated squaring, to the length of a."""
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    while e:
        if e & 1:
            out = _mul(out, a)
        a = _mul(a, a)
        e >>= 1
    return out


def lagrange_antipode(n: int, point: dict[int, Fraction]) -> Fraction:
    """S(b_n) of the composition Hopf algebra at b_i = point[i], i = 1..n."""
    # f(x) / x = 1 + sum_i point[i] x^i / (i+1)!, to x^n
    f_over_x = [Fraction(1)] + [point[i] / factorial(i + 1) for i in range(1, n + 1)]
    return factorial(n) * _power(_reciprocal(f_over_x), n + 1)[n]


def evaluate(poly: dict[tuple[int, ...], Fraction], point: dict[int, Fraction]) -> Fraction:
    """Value of {index tuple: coefficient} with b_i set to point[i]."""
    return sum(
        (c * prod((point[i] for i in key), start=Fraction(1)) for key, c in poly.items()),
        start=Fraction(0),
    )
