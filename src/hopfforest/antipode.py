"""Three routes to the antipode of a graded right-handed polynomial Hopf
algebra, all exact and provably equal:

* "dyson-salam": the geometric-series formula, summing (-1)^k times the
  multiplied-out k-fold iterated reduced coproduct; the grading truncates
  the sum at k = degree.
* "bogoliubov": the triangular recursion S(b) = -b - sum of coeff * S(left) *
  right over the reduced-coproduct table row, memoized per generator.
* "forest": the cancellation-free expansion: sum over realized trees of
  (-1)^(vertex count) * coefficient * vertex monomial.

On products the antipode is extended multiplicatively (the algebra is
commutative), with S(1) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Monomial, Polynomial
from .coproduct import Endomap, iterated_reduced, iterated_reduced_poly
from .errors import InputError
from .hopfspec import CoproductSpec, spec_memo
from .trees import (
    enumerate_trees,
    height,
    tree_coefficient,
    tree_multiplicity,
    vertex_count,
    vertex_monomial,
)

METHODS = ("forest", "dyson-salam", "bogoliubov")


def antipode_forest(spec: CoproductSpec, i: int) -> Polynomial:
    """Cancellation-free antipode: every realized tree contributes one term
    with sign (-1)^(vertex count), weighted by the number of ordered subtree
    assignments the canonical tree stands for; no like-term cancellation can
    occur between trees of different vertex parity, and the sum is exact."""
    out = Polynomial.zero()
    for t in enumerate_trees(spec, i):
        sign = -1 if vertex_count(t) % 2 else 1
        out = out + Polynomial.single(
            vertex_monomial(t),
            tree_coefficient(t, spec) * tree_multiplicity(t) * sign,
        )
    return out


def antipode_dyson_salam(spec: CoproductSpec, i: int) -> Polynomial:
    """Alternating sum of multiplied-out iterated reduced coproducts; the
    iterates vanish once the rank exceeds the degree, so the sum is finite."""
    out = Polynomial.zero()
    for k in range(1, spec.degree(i) + 1):
        out = out + iterated_reduced(spec, i, k).multiplied_out() * ((-1) ** k)
    return out


def dyson_salam_poly(spec: CoproductSpec, p: Polynomial) -> Polynomial:
    """The same alternating sum run directly on a polynomial from the
    augmentation ideal, without using multiplicativity of the antipode.
    Exists as a cross-check for antipode_poly."""
    if p.constant != 0:
        raise InputError("the alternating-sum antipode needs zero constant term")
    bound = max(
        (spec.monomial_degree(m) for m, _ in p.terms()), default=0
    )
    out = Polynomial.zero()
    for k in range(1, bound + 1):
        out = out + iterated_reduced_poly(spec, p, k).multiplied_out() * ((-1) ** k)
    return out


@spec_memo
def antipode_bogoliubov(spec: CoproductSpec, i: int) -> Polynomial:
    """Triangular recursion through the coproduct table.  Every left leg is
    a single generator of strictly smaller degree, so the recursion is
    well-founded; results are memoized on the table instance."""
    out = -Polynomial.variable(i)
    for e in spec.entries_for(i):
        out = out - (
            antipode_bogoliubov(spec, e.left)
            * Polynomial.single(Monomial(e.right))
            * e.coeff
        )
    return out


_GENERATOR_METHODS = {
    "forest": antipode_forest,
    "dyson-salam": antipode_dyson_salam,
    "bogoliubov": antipode_bogoliubov,
}


@spec_memo
def antipode_generator(spec: CoproductSpec, i: int, method: str = "forest") -> Polynomial:
    try:
        fn = _GENERATOR_METHODS[method]
    except KeyError:
        raise InputError(
            f"unknown antipode method {method!r}; choose from {METHODS}"
        ) from None
    return fn(spec, i)


def antipode_poly(
    spec: CoproductSpec, p: Polynomial, method: str = "forest"
) -> Polynomial:
    """Multiplicative-linear extension: S(b_I) is the product of the
    generator antipodes, S(1) = 1."""
    out = Polynomial.zero()
    for m, c in p.terms():
        piece = Polynomial.one()
        for i in m:
            piece = piece * antipode_generator(spec, i, method)
        out = out + piece * c
    return out


def antipode_endomap(spec: CoproductSpec, method: str = "forest") -> Endomap:
    """The antipode as a convolution-algebra element."""
    return Endomap(lambda m: antipode_poly(spec, Polynomial.single(m), method))


@dataclass(frozen=True)
class TermStats:
    """Term counts contrasting the alternating-sum and forest views of the
    same antipode.  dyson_salam_terms counts (rank, tree) pairs where the
    tree admits at least one linearization at that rank, which happens
    exactly for height <= rank <= vertex count; forest_terms counts
    realized trees once each.  tree_count_by_length histograms realized
    trees by vertex count."""

    dyson_salam_terms: int
    forest_terms: int
    tree_count_by_length: dict[int, int]


def term_stats(spec: CoproductSpec, i: int) -> TermStats:
    trees = enumerate_trees(spec, i)
    by_length: dict[int, int] = {}
    ds = 0
    for t in trees:
        l = vertex_count(t)
        by_length[l] = by_length.get(l, 0) + 1
        ds += l - height(t) + 1
    return TermStats(
        dyson_salam_terms=ds,
        forest_terms=len(trees),
        tree_count_by_length=dict(sorted(by_length.items())),
    )
