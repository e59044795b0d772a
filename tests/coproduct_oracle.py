"""The coproduct on `Tensor` values, one monomial at a time: an oracle for
the packed frame of `hopfforest.coproduct`.

Nothing in the package imports this module.  It uses only the public tensor
arithmetic, with coefficients as the table stores them, so the packed
numbering and the rescaled basis of the frame are checked against a
computation that has neither:

    Delta(b_i)   = b_i (x) 1 + 1 (x) b_i + sum over rows (i; l; J) of c * b_l (x) b_J
    Delta(b_I)   = product of Delta(b_i) over i in I, Delta(1) = 1 (x) 1
    Delta'(b_I)  = Delta(b_I) - b_I (x) 1 - 1 (x) b_I, for I nonempty

Each coproduct function takes an optional ``memo``, a dict the caller keeps
for one table: full coproducts are stored per monomial there, each prefix
of a monomial filled from the one before, so the Python stack stays flat
for any length.  `convolution_check` and `counit_report` are the generator
reports term by term on these tensors, with the package's lines.
"""

from __future__ import annotations

from hopfforest.algebra import UNIT, Monomial, Polynomial, Tensor, mono


def _generator(spec, i):
    b = mono(i)
    rows = [((mono(e.left), Monomial(e.right)), e.coeff) for e in spec.entries_for(i)]
    return Tensor(2, [((b, UNIT), 1), ((UNIT, b), 1)] + rows)


def full_coproduct(spec, m, memo=None):
    """Delta(b_m), the product of its generators' full coproducts."""
    memo = {} if memo is None else memo
    if not m:
        return Tensor.single((UNIT, UNIT))
    todo = []  # the prefixes of m to fill, longest first
    k = len(m)
    while k > 1 and Monomial(m[:k]) not in memo:
        todo.append(Monomial(m[:k]))
        k -= 1
    prefix = Monomial(m[:k])
    value = memo.get(prefix)
    if value is None:
        value = memo[prefix] = _generator(spec, m[0])
    for prefix in reversed(todo):
        value = memo[prefix] = value * _generator(spec, prefix[-1])
    return value


def reduced_coproduct(spec, m, memo=None):
    """Delta'(b_m); the unit monomial has none and raises ValueError."""
    if not m:
        raise ValueError("the unit has no reduced coproduct")
    primitive = ((m, UNIT), (UNIT, m))
    return Tensor(2, [t for t in full_coproduct(spec, m, memo).items() if t[0] not in primitive])


def splice(spec, t, leg, memo=None, coproduct=reduced_coproduct):
    """Slot ``leg`` of every term of t replaced by its coproduct (the
    reduced one by default): the rank goes up by one."""
    return Tensor(
        t.rank + 1,
        [
            (key[:leg] + pair + key[leg + 1 :], c * c2)
            for key, c in t.items()
            for pair, c2 in coproduct(spec, key[leg], memo).items()
        ],
    )


def iterated_reduced(spec, p, k, memo=None):
    """The rank-k iterated reduced coproduct of p, expanding the last slot."""
    out = Tensor(1, [((m,), c) for m, c in p.items()])
    for _ in range(k - 1):
        out = splice(spec, out, out.rank - 1, memo)
    return out


def coproduct(spec, p, memo=None):
    """Delta(p), extended linearly from monomials."""
    return Tensor(
        2, [(key, c * c2) for m, c in p.items() for key, c2 in full_coproduct(spec, m, memo).items()]
    )


def _generators_up_to(spec, max_degree):
    """The generators of degree <= max_degree, by degree, then id."""
    found = sorted((g.degree, g.id) for g in spec.generators.values())
    return [i for d, i in found if d <= max_degree]


def convolution_check(spec, max_degree, antipode):
    """(antipode * id)(b_i) = sum of S(a) * b over the terms a (x) b of
    Delta(b_i), which must vanish on every generator of degree <=
    max_degree; the failures, as the package words them."""
    problems = []
    for i in _generators_up_to(spec, max_degree):
        got = Polynomial(
            (sa * b, c * ca)
            for (a, b), c in _generator(spec, i).items()
            for sa, ca in antipode(a).items()
        )
        if not got.is_zero:
            problems.append(f"convolution failed on {mono(i)}: got {got}, expected 0")
    return problems


def counit_report(spec, max_degree):
    """(counit (x) id) and (id (x) counit) of Delta(b_i) against b_i on every
    generator of degree <= max_degree; the failures, as the package words
    them."""
    problems = []
    for i in _generators_up_to(spec, max_degree):
        once = _generator(spec, i).items()
        left = Polynomial((b, c) for (a, b), c in once if a.is_unit)
        right = Polynomial((a, c) for (a, b), c in once if b.is_unit)
        expect = Polynomial.variable(i)
        if left != expect:
            problems.append(f"left counit failed on {mono(i)}: got {left}")
        if right != expect:
            problems.append(f"right counit failed on {mono(i)}: got {right}")
    return problems
