"""Closed-form oracle for the antipode of the dual of the vector fields on k
variables (`vector_fields.py`): compositional inversion of a formal
diffeomorphism.

Nothing here imports hopfforest, and only the standard library is used, so
a fault in the package cannot also hide itself in its own check.

The dual of the vector fields truncated at degree D is the coordinate ring
of the formal diffeomorphisms of (K^k, 0) tangent to the identity, up to
total degree D + 1.  With its generators evaluated at b_{i,alpha} =
point[id of (i, alpha)], the diffeomorphism is

    f_i(x) = x_i + sum_alpha point[i, alpha] x^alpha / alpha!,

and the antipode is its compositional inverse g = f^(-1):

    S(b_{i,alpha}) = alpha! [x^alpha] g_i.

g is the fixed point of g_i <- x_i - sum_alpha point[i, alpha] g^alpha /
alpha!; each step makes one more degree exact, as g^alpha starts at degree
|alpha| >= 2.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from math import factorial, prod

Series = dict[tuple[int, ...], Fraction]


def numbering(k: int, top: int) -> list[tuple[int, tuple[int, ...]]]:
    """(i, alpha) of the generators with ids 1, 2, ...: by degree |alpha| -
    1 = 1..top, then variable i, then alpha in lexicographic order."""
    return [
        (i, alpha)
        for d in range(1, top + 1)
        for i in range(k)
        for alpha in iter_product(range(d + 2), repeat=k)
        if sum(alpha) == d + 1
    ]


def _mul(a: Series, b: Series, top: int) -> Series:
    """The product of two series in k variables, to total degree top."""
    out: Series = {}
    for e, x in a.items():
        for f, y in b.items():
            g = tuple(map(sum, zip(e, f)))
            if sum(g) <= top:
                out[g] = out.get(g, 0) + x * y
    return out


def inverse_antipode(k: int, top: int, point: dict[int, Fraction]) -> dict[int, Fraction]:
    """S(b_n) for each generator n of the dual of the vector fields on k
    variables truncated at degree top, at b_m = point[m] for every id m."""
    fields = numbering(k, top)
    x = [{tuple(int(t == i) for t in range(k)): Fraction(1)} for i in range(k)]
    g = x
    for _ in range(top + 1):
        step = [dict(x_i) for x_i in x]
        for n, (i, alpha) in enumerate(fields, 1):
            power: Series = {(0,) * k: Fraction(1)}
            for t, a in enumerate(alpha):
                for _ in range(a):
                    power = _mul(power, g[t], top + 1)
            c = point[n] / prod(map(factorial, alpha))
            for e, v in power.items():
                step[i][e] = step[i].get(e, 0) - c * v
        g = step
    return {
        n: prod(map(factorial, alpha)) * g[i].get(alpha, Fraction(0))
        for n, (i, alpha) in enumerate(fields, 1)
    }
