"""Coproduct engine: reduced and full coproducts, their multiplicative
extension to arbitrary polynomials, iterated reduced coproducts, and the
verification reports (coassociativity, counit, antipode convolution).

The reduced coproduct of a generator comes straight from the table; the full
coproduct adds the primitive part b (x) 1 + 1 (x) b.  On products both are
determined by multiplicativity of the full coproduct.  Iterating the reduced
coproduct always terminates with zero once the rank exceeds the degree, which
is what makes the degree-many-step antipode formulas finite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .algebra import Monomial, Polynomial, Tensor, mono
from .errors import InputError
from .hopfspec import CoproductSpec, graded_monomials, spec_memo


@spec_memo
def reduced_coproduct_generator(spec: CoproductSpec, i: int) -> Tensor:
    """The table's rank-2 tensor for generator i (no primitive part)."""
    return Tensor(
        2,
        [((mono(e.left), Monomial(e.right)), e.coeff) for e in spec.entries_for(i)],
    )


@spec_memo
def full_coproduct_generator(spec: CoproductSpec, i: int) -> Tensor:
    """b_i (x) 1 + 1 (x) b_i + reduced part."""
    b = Polynomial.variable(i)
    one = Polynomial.one()
    return (
        Tensor.outer(b, one)
        + Tensor.outer(one, b)
        + reduced_coproduct_generator(spec, i)
    )


@spec_memo
def _coproduct_monomial(spec: CoproductSpec, m: Monomial) -> Tensor:
    """Full coproduct of one monomial: the product of its factors' ones."""
    out = Tensor.one(2)
    for i in m:
        out = out * full_coproduct_generator(spec, i)
    return out


def coproduct_poly(spec: CoproductSpec, p: Polynomial) -> Tensor:
    """Full coproduct, extended multiplicatively from generators."""
    total = Tensor.zero(2)
    for m, c in p.terms():
        total = total + _coproduct_monomial(spec, m) * c
    return total


def reduced_coproduct_poly(spec: CoproductSpec, p: Polynomial) -> Tensor:
    """Full coproduct minus both primitive legs; defined on augmentation-ideal
    elements (zero constant term) only."""
    if p.constant != 0:
        raise InputError(
            "reduced coproduct needs a polynomial with zero constant term, "
            f"got constant {p.constant}"
        )
    one = Polynomial.one()
    return (
        coproduct_poly(spec, p) - Tensor.outer(p, one) - Tensor.outer(one, p)
    )


def _splice(
    spec: CoproductSpec,
    t: Tensor,
    leg: int,
    coproduct: Callable[[CoproductSpec, Polynomial], Tensor],
) -> Tensor:
    """Apply a rank-2 coproduct (full or reduced) to one leg of a tensor,
    raising the rank by one."""
    out_terms: list[tuple[tuple[Monomial, ...], Fraction]] = []
    for key, c in t.terms():
        expanded = coproduct(spec, Polynomial.single(key[leg]))
        for (a, b), c2 in expanded.terms():
            out_terms.append((key[:leg] + (a, b) + key[leg + 1 :], c * c2))
    return Tensor(t.rank + 1, out_terms)


def iterated_reduced_poly(
    spec: CoproductSpec, p: Polynomial, k: int, leg: str = "right"
) -> Tensor:
    """The rank-k iterated reduced coproduct: k = 1 is the element itself,
    k = 2 the reduced coproduct, and each further rank applies the reduced
    coproduct to one more leg.  By coassociativity the result is independent
    of which leg each step expands; `leg` selects the rightmost or leftmost
    convention so tests can check that independence."""
    if k < 1:
        raise InputError(f"tensor rank must be >= 1, got {k}")
    if leg not in ("right", "left"):
        raise InputError(f"leg must be 'right' or 'left', got {leg!r}")
    out = Tensor(1, [((m,), c) for m, c in p.terms()])
    for _ in range(k - 1):
        at = out.rank - 1 if leg == "right" else 0
        out = _splice(spec, out, at, reduced_coproduct_poly)
        if out.is_zero:
            return Tensor.zero(k)
    return out


@spec_memo
def iterated_reduced(spec: CoproductSpec, i: int, k: int) -> Tensor:
    """Rank-k iterated reduced coproduct of generator i: k = 1 is b_i as a
    rank-1 tensor, k = 2 the table row, each further rank one more splice."""
    return iterated_reduced_poly(spec, Polynomial.variable(i), k)


class Endomap:
    """A linear map of the polynomial algebra given by its action on
    monomials, extended by linearity (not multiplicativity)."""

    def __init__(self, on_monomial: Callable[[Monomial], Polynomial]) -> None:
        self._on_monomial = on_monomial

    def __call__(self, p: Polynomial) -> Polynomial:
        out = Polynomial.zero()
        for m, c in p.terms():
            out = out + self._on_monomial(m) * c
        return out

    @classmethod
    def identity(cls) -> "Endomap":
        return cls(Polynomial.single)

    @classmethod
    def unit_counit(cls) -> "Endomap":
        """The convolution unit: m -> counit(m) * 1."""
        return cls(lambda m: Polynomial.one() if m.is_unit else Polynomial.zero())


def monomials_up_to(spec: CoproductSpec, max_degree: int) -> list[Monomial]:
    """All monomials of degree <= max_degree, including the unit, in
    canonical order."""
    return graded_monomials(spec.generators.values(), max_degree)


def convolution_check(
    spec: CoproductSpec, max_degree: int, antipode: Endomap
) -> list[str]:
    """Check (antipode * id)(x) = counit(x) 1 on every monomial of degree
    <= max_degree, where * is convolution through the full coproduct.
    Returns failure descriptions; empty means the antipode property holds."""
    problems: list[str] = []
    for m in monomials_up_to(spec, max_degree):
        expect = Polynomial.one() if m.is_unit else Polynomial.zero()
        got = Polynomial.zero()
        for (a, b), c in coproduct_poly(spec, Polynomial.single(m)).terms():
            got = got + antipode(Polynomial.single(a)) * Polynomial.single(b) * c
        if got != expect:
            problems.append(
                f"convolution failed on {m}: got {got}, expected {expect}"
            )
    return problems


def coassociativity_report(spec: CoproductSpec, max_degree: int) -> list[str]:
    """Check (coproduct (x) id) vs (id (x) coproduct) after one coproduct, on
    every monomial of degree <= max_degree."""
    problems: list[str] = []
    for m in monomials_up_to(spec, max_degree):
        once = coproduct_poly(spec, Polynomial.single(m))
        first, second = (_splice(spec, once, leg, coproduct_poly) for leg in (0, 1))
        if first != second:
            problems.append(f"coassociativity failed on {m}")
    return problems


def counit_report(spec: CoproductSpec, max_degree: int) -> list[str]:
    """Check (counit (x) id) and (id (x) counit) both give the identity on
    every monomial of degree <= max_degree."""
    problems: list[str] = []
    for m in monomials_up_to(spec, max_degree):
        left = Polynomial.zero()
        right = Polynomial.zero()
        for (a, b), c in coproduct_poly(spec, Polynomial.single(m)).terms():
            if a.is_unit:
                left = left + Polynomial.single(b) * c
            if b.is_unit:
                right = right + Polynomial.single(a) * c
        expect = Polynomial.single(m)
        if left != expect:
            problems.append(f"left counit failed on {m}: got {left}")
        if right != expect:
            problems.append(f"right counit failed on {m}: got {right}")
    return problems
