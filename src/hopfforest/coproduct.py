"""Coproduct engine: reduced and full coproducts, their multiplicative
extension to arbitrary polynomials, iterated reduced coproducts, and the
verification reports (coassociativity, counit, antipode convolution).

The reduced coproduct of a generator comes straight from the table; the full
coproduct adds the primitive part b (x) 1 + 1 (x) b.  On products both are
determined by multiplicativity of the full coproduct: the coproduct of a
monomial is `hopfspec.multiplicative_memo` of the generators' coproducts,
filled prefix by prefix, so the Python stack stays flat for any length.  A
monomial's reduced coproduct is its full coproduct without the two primitive
terms.  Iterating the reduced coproduct always terminates with zero once the
rank exceeds the degree, which is what makes the degree-many-step antipode
formulas finite.

Because the coproduct is an algebra morphism, coassociativity and counit hold
on every monomial once they hold on the generators.  So does the convolution
identity, given an antipode multiplicative on monomials, as the algebra is
commutative; all three reports visit generators only.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable

from .algebra import UNIT, Monomial, Polynomial, Tensor, mono
from .algebra import _positive_int, _sorted_monomial
from .errors import InputError
from .hopfspec import CoproductSpec, graded_monomials, multiplicative_memo, spec_memo


@spec_memo
def reduced_coproduct_generator(spec: CoproductSpec, i: int) -> Tensor:
    """The table's rank-2 tensor for generator i (no primitive part)."""
    return Tensor._checked(
        2,
        [((mono(e.left), _sorted_monomial(e.right)), e.coeff) for e in spec.entries_for(i)],
    )


@spec_memo
def full_coproduct_generator(spec: CoproductSpec, i: int) -> Tensor:
    """b_i (x) 1 + 1 (x) b_i + reduced part."""
    b = mono(i)
    primitive = [((b, UNIT), 1), ((UNIT, b), 1)]
    return Tensor._checked(2, chain(primitive, reduced_coproduct_generator(spec, i).items()))


#: Full coproduct of one monomial, memoized: Delta is an algebra morphism.
_coproduct_monomial = multiplicative_memo(full_coproduct_generator, Tensor.one(2))


def coproduct_poly(spec: CoproductSpec, p: Polynomial) -> Tensor:
    """Full coproduct, extended multiplicatively from generators."""
    pieces = ((_coproduct_monomial(spec, m), c) for m, c in p.items())
    return Tensor._checked(2, ((key, c * ct) for t, c in pieces for key, ct in t.items()))


@spec_memo
def _reduced_coproduct_monomial(spec: CoproductSpec, m: Monomial) -> Tensor:
    """Reduced coproduct of one monomial: its full coproduct without the two
    primitive terms m (x) 1 and 1 (x) m.  Each has coefficient 1 there,
    since a table row has a generator on the left and a nonempty right leg.
    The unit monomial has none and raises InputError."""
    if m.is_unit:
        raise InputError(
            "reduced coproduct needs a polynomial with zero constant term, got constant 1"
        )
    primitive = ((m, UNIT), (UNIT, m))
    return Tensor._checked(
        2, (t for t in _coproduct_monomial(spec, m).items() if t[0] not in primitive)
    )


def _splice(spec: CoproductSpec, t: Tensor, leg: int) -> Tensor:
    """Replace slot `leg` of every term of t by its reduced coproduct, read
    from the memoized per-monomial map; the rank goes up by one."""
    return Tensor._checked(
        t.rank + 1,
        (
            (key[:leg] + pair + key[leg + 1 :], c * c2)
            for key, c in t.items()
            for pair, c2 in _reduced_coproduct_monomial(spec, key[leg]).items()
        ),
    )


def iterated_reduced_poly(spec: CoproductSpec, p: Polynomial, k: int) -> Tensor:
    """The rank-k iterated reduced coproduct: k = 1 is the element itself,
    k = 2 the reduced coproduct, and each further rank applies the reduced
    coproduct to the last slot.  By coassociativity the result does not
    depend on which slot each step expands."""
    if not _positive_int(k):
        raise InputError(f"tensor rank must be >= 1, got {k}")
    out = Tensor._checked(1, [((m,), c) for m, c in p.items()])
    for _ in range(k - 1):
        out = _splice(spec, out, out.rank - 1)
        if out.is_zero:
            return Tensor.zero(k)
    return out


def iterated_reduced(spec: CoproductSpec, i: int, k: int) -> Tensor:
    """Rank-k iterated reduced coproduct of generator i: k = 1 is b_i as a
    rank-1 tensor, k = 2 the table row, each further rank one more splice."""
    return iterated_reduced_poly(spec, Polynomial.variable(i), k)


def monomials_up_to(spec: CoproductSpec, max_degree: int) -> list[Monomial]:
    """All monomials of degree <= max_degree, including the unit, in
    canonical order."""
    return graded_monomials(spec.generators.values(), max_degree)


def convolution_check(
    spec: CoproductSpec, max_degree: int, antipode: Callable[[Monomial], Polynomial]
) -> list[str]:
    """Check (antipode * id)(b) = 0 on every generator b of degree <=
    max_degree, where * is convolution through the full coproduct.
    `antipode` maps a monomial to its image and must be multiplicative, with
    antipode(1) = 1, as `antipode.antipode_endomap` is: the algebra is
    commutative, so the convolution is then an algebra morphism, and a
    monomial fails exactly when one of its generators does.  Returns failure
    descriptions; empty means the antipode property holds."""
    problems: list[str] = []
    for i in _generators_up_to(spec, max_degree):
        got = Polynomial._checked(
            (sa * b, c * ca)
            for (a, b), c in full_coproduct_generator(spec, i).items()
            for sa, ca in antipode(a).items()
        )
        if not got.is_zero:
            problems.append(f"convolution failed on {mono(i)}: got {got}, expected 0")
    return problems


def _generators_up_to(spec: CoproductSpec, max_degree: int) -> list[int]:
    """The ids of the generators of degree <= max_degree, by degree, then id."""
    found = sorted((g.degree, g.id) for g in spec.generators.values())
    return [i for d, i in found if d <= max_degree]


def coassociativity_report(spec: CoproductSpec, max_degree: int) -> list[str]:
    """Check (reduced (x) id) vs (id (x) reduced) after one reduced
    coproduct, on every generator of degree <= max_degree.  Expanding the
    full coproduct into its primitive and reduced parts, the full iterates
    (coproduct (x) id) and (id (x) coproduct) of b differ by exactly this
    difference: the reduced coproduct of a monomial drops two terms of
    coefficient 1, and those legs cancel.  Both full iterates are algebra
    morphisms, so they agree on all monomials when they agree on the
    generators."""
    problems: list[str] = []
    for i in _generators_up_to(spec, max_degree):
        once = reduced_coproduct_generator(spec, i)
        if _splice(spec, once, 0) != _splice(spec, once, 1):
            problems.append(f"coassociativity failed on {mono(i)}")
    return problems


def counit_report(spec: CoproductSpec, max_degree: int) -> list[str]:
    """Check (counit (x) id) and (id (x) counit) both give the identity on
    every generator of degree <= max_degree.  This holds by construction for
    every table that passes `validate`: a row's left leg is a generator and
    its right leg is nonempty, so either counit keeps only the primitive
    part.  Both sides are algebra morphisms, so it holds on all monomials."""
    problems: list[str] = []
    for i in _generators_up_to(spec, max_degree):
        once = full_coproduct_generator(spec, i).items()
        left = Polynomial._checked((b, c) for (a, b), c in once if a.is_unit)
        right = Polynomial._checked((a, c) for (a, b), c in once if b.is_unit)
        expect = Polynomial.variable(i)
        if left != expect:
            problems.append(f"left counit failed on {mono(i)}: got {left}")
        if right != expect:
            problems.append(f"right counit failed on {mono(i)}: got {right}")
    return problems
