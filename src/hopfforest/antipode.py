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
from itertools import accumulate, chain
from typing import Callable

from .algebra import Monomial, Polynomial, _scalar, mono
from .coproduct import iterated_reduced_poly, reduced_coproduct_step
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
    return Polynomial(
        (
            vertex_monomial(t),
            tree_coefficient(t, spec)
            * tree_multiplicity(t)
            * (-1) ** vertex_count(t),
        )
        for t in enumerate_trees(spec, i)
    )


def antipode_dyson_salam(spec: CoproductSpec, i: int) -> Polynomial:
    """The Dyson-Salam route on one generator."""
    return dyson_salam_poly(spec, Polynomial.variable(i))


def dyson_salam_poly(spec: CoproductSpec, p: Polynomial) -> Polynomial:
    """The Dyson-Salam route on an augmentation-ideal element: the sum over
    k of (-1)^k times the multiplied-out rank-k iterated reduced coproduct,
    each rank one step from the last, for k up to the degree of p, past
    which every iterate vanishes by grading."""
    if p.constant != 0:
        raise InputError("the alternating-sum antipode needs zero constant term")
    bound = max((spec.monomial_degree(m) for m, _ in p.items()), default=0)
    # ranks 1..bound, each one reduced-coproduct step from the last
    iterates = accumulate(
        range(2, bound + 1),
        lambda t, _: reduced_coproduct_step(spec, t),
        initial=iterated_reduced_poly(spec, p, 1),
    )
    return Polynomial(
        (m, (-1) ** k * c)
        for k, t in enumerate(iterates, 1)
        for m, c in t.multiplied_out().items()
    )


@spec_memo
def antipode_bogoliubov(spec: CoproductSpec, i: int) -> Polynomial:
    """Triangular recursion through the coproduct table.  Every left leg is
    a single generator of strictly smaller degree, so the recursion is
    well-founded; results are memoized on the table instance."""
    # Recursing in a plain loop, not from inside the sum or a comprehension,
    # keeps the stack cost per level of the recursion at two frames.
    rows = []
    for e in spec.entries_for(i):
        # the row coefficient in stored form, so integer tables multiply ints
        c = _scalar(-e.coeff)
        rows.append((Monomial(e.right), c, antipode_bogoliubov(spec, e.left)))
    terms = ((m * right, c * cm) for right, c, lower in rows for m, cm in lower.items())
    return Polynomial(chain([(mono(i), -1)], terms))


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
    pieces = ((_antipode_monomial(spec, m, method), c) for m, c in p.items())
    return Polynomial((m, c * cs) for s, c in pieces for m, cs in s.items())


def _antipode_monomial(spec: CoproductSpec, m: Monomial, method: str) -> Polynomial:
    out = Polynomial.one()
    for i in m:
        out = out * antipode_generator(spec, i, method)
    return out


def antipode_endomap(
    spec: CoproductSpec, method: str = "forest"
) -> Callable[[Monomial], Polynomial]:
    """The antipode as a function on monomials, as convolution_check takes it."""
    return lambda m: _antipode_monomial(spec, m, method)


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
