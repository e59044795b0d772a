"""Three routes to the antipode of a graded right-handed polynomial Hopf
algebra, all exact and provably equal:

* "dyson-salam": the geometric-series formula, summing (-1)^k times the
  multiplied-out k-fold iterated reduced coproduct; the grading truncates
  the sum at k = degree.  No rank-k tensor is built: the iterate is held
  as (product of the first k-1 slots) (x) (last slot), which is all the
  multiplied-out sum and the next rank need, on packed integer keys.
* "bogoliubov": the triangular recursion S(b) = -b - sum of coeff * S(left) *
  right over the reduced-coproduct table row, through left legs.
* "forest": the cancellation-free expansion, the sum over realized trees of
  (-1)^(vertex count) * coefficient * multiplicity * vertex monomial,
  factored at the root: F(b) = -b - sum of coeff * left * product of F(j)
  over the right leg, through right legs.  The trees are never listed.

Both recursions are filled bottom-up: every generator below b along the
route's own leg is evaluated in ascending degree through a memoized step,
so each step finds the lower values in its memo and the Python stack stays
flat however deep the table nests.  Dyson-Salam is a loop over ranks and
reads table rows only, never an antipode value.  The term counts
of `term_stats` come from the same tree recursion in closed form.

On products the antipode is extended multiplicatively (the algebra is
commutative), with S(1) = 1.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from fractions import Fraction
from math import comb, lcm, prod
from typing import Callable, NamedTuple

from .algebra import Monomial, Polynomial, _accumulate, _scalar, _sorted_monomial, mono
from .errors import InputError
from .hopfspec import CoproductSpec, multiplicative_memo, spec_memo

METHODS = ("forest", "dyson-salam", "bogoliubov")


def _below(spec: CoproductSpec, starts: set[int], leg: str) -> list[int]:
    """starts and every generator they reach through ``leg`` ("left",
    "right" or "both") legs of their table rows, in ascending degree.  A leg
    has strictly smaller degree than its source, so each generator comes
    after all it reaches."""
    seen = set(starts)
    todo = list(seen)
    while todo:
        for e in spec.entries_for(todo.pop()):
            if leg == "both":
                legs = (e.left, *e.right)
            else:
                legs = e.right if leg == "right" else (e.left,)
            for j in legs:
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
    return sorted(seen, key=lambda j: (spec.degree(j), j))


def _bottom_up(step: Callable, spec: CoproductSpec, i: int, leg: str):
    """step(spec, i) after step(spec, j) for every j below i along ``leg``:
    step is memoized and looks up only generators below its argument, so
    each of those lookups is a memo hit."""
    for j in _below(spec, {i}, leg):
        value = step(spec, j)
    return value


def antipode_forest(spec: CoproductSpec, i: int) -> Polynomial:
    """Cancellation-free antipode: every realized tree contributes one term
    with sign (-1)^(vertex count), weighted by the number of ordered subtree
    assignments the canonical tree stands for; no like-term cancellation can
    occur between trees of different vertex parity, and the sum is exact.
    Factoring the sum at the root gives the right-leg recursion of
    `_forest_step`: the ordered product over a right leg that repeats an
    index counts each canonical tree with its multiplicity."""
    return _bottom_up(_forest_step, spec, i, "right")


@spec_memo
def _forest_step(spec: CoproductSpec, i: int) -> Polynomial:
    """F(b_i) = -b_i - sum over rows (i; l; J) of c * b_l * prod_{j in J} F(b_j):
    the leaf, then each tree with root row (i; l; J), whose extra vertex
    flips the sign of the product of its subtree sums."""
    terms = [(mono(i), -1)]
    for e in spec.entries_for(i):
        # the row coefficient in stored form, so integer tables multiply ints
        root = Polynomial.single(mono(e.left), _scalar(-e.coeff))
        trees = reduce(lambda p, j: p * _forest_step(spec, j), e.right, root)
        terms.extend(trees.items())
    return Polynomial._checked(terms)


def antipode_dyson_salam(spec: CoproductSpec, i: int) -> Polynomial:
    """The Dyson-Salam route on one generator."""
    return dyson_salam_poly(spec, Polynomial.variable(i))


def dyson_salam_poly(spec: CoproductSpec, p: Polynomial) -> Polynomial:
    """The Dyson-Salam route on an augmentation-ideal element: the sum over
    k of (-1)^k times the multiplied-out rank-k iterated reduced coproduct,
    for k up to the degree of p, past which every iterate vanishes by
    grading.

    Only the product of the slots is summed, and the next rank expands only
    the last slot, so the rank-k iterate is held in two slots: a rank-2
    tensor sum of c * (slot 1 ... slot k-1) (x) (slot k), with the empty
    product 1 at k = 1.  Each rank applies the reduced coproduct to the last
    slot and multiplies its left factor into the first, and adds the
    multiplied-out a * b with sign (-1)^k.  The route reads table rows
    only, never an antipode value.

    Keys are packed integers, numbered per call: each generator p reaches
    through left and right legs gets, in id order, a field of
    bound.bit_length() bits for its exponent (bound is the degree of p), and
    a pair (a, b) is a + (b << shift).  The slot degrees of every iterate
    add up to at most bound, so no field ever carries: a monomial product,
    and a pair product, is one integer addition.  A monomial's reduced
    coproduct is the product of its generators' packed full coproducts
    without its two primitive keys, memoized for this call only.  Keys
    become monomials once per output term.

    The rows are read in the basis b_j / scale, with scale the common
    denominator of the rows reached, so a row's c becomes the integer
    c * scale^len(J) and the loop multiplies integers when p's coefficients
    are integers; an output c * b_M is c / scale^len(M) * b_M back in the
    table's basis.  The rescaling is an algebra isomorphism carrying the
    table's coproduct to the rescaled one, so no value changes, on any
    table.

    Expanding the last slot, the iterate of b_i past rank 1 is the sum over
    its rows of c * b_l (x) (the iterate of b_J), so the route on b_i is
    -b_i minus the sum of c * b_l * (the route on b_J): the forest
    recursion of `_forest_step`, not Bogoliubov's.  Measured, the route
    equals the forest route term for term on tables that are not
    coassociative too: on every generator of every single-coefficient
    corruption of fdb 6 and of the grafting-5 dual, and on a chain table,
    where Bogoliubov differs from both on 97 of the 99 corruptions.
    Expanding the first slot instead gives Bogoliubov's values on all of
    them (tests/test_antipode.py pins both)."""
    if p.constant != 0:
        raise InputError("the alternating-sum antipode needs zero constant term")
    bound = max((spec.monomial_degree(m) for m, _ in p.items()), default=0)
    ids = sorted(_below(spec, {j for m, _ in p.items() for j in m}, "both"))
    width = bound.bit_length()
    field = {j: 1 << width * n for n, j in enumerate(ids)}
    shift = width * len(ids)
    mask = (1 << shift) - 1

    def pack(m) -> int:
        return sum(map(field.__getitem__, m))

    def spread(parts) -> dict:
        """The sum of c * c2 at key + k2 over (key, c, terms) in parts and
        (k2, c2) in terms."""
        acc: dict = {}
        get = acc.get
        for key, c, terms in parts:
            for k2, c2 in terms.items():
                k2 += key
                acc[k2] = get(k2, 0) + c * c2
        return _accumulate(acc.items())

    # the full coproduct of each numbered generator in the basis b_j / scale,
    # then of each monomial met; a table has no zero or repeated row
    scale = lcm(*(e.coeff.denominator for j in ids for e in spec.entries_for(j)))
    full = {field[j]: {field[j]: 1, field[j] << shift: 1} for j in ids}
    for j in ids:
        for e in spec.entries_for(j):
            c = e.coeff
            full[field[j]][field[e.left] + (pack(e.right) << shift)] = (
                c.numerator * (scale ** len(e.right) // c.denominator)
            )
    reduced: dict[int, dict] = {}

    def reduced_of(b: int) -> dict:
        value = reduced.get(b)
        if value is not None:
            return value
        todo = []  # b, then each quotient by its lowest generator, until one is known
        m = b
        while m not in full:
            unit = 1 << width * (((m & -m).bit_length() - 1) // width)
            todo.append((m, unit))
            m -= unit
        value = full[m]
        for m, unit in reversed(todo):
            value = full[m] = spread((k, c, full[unit]) for k, c in value.items())
        value = reduced[b] = {k: c for k, c in value.items() if k != b and k != b << shift}
        return value

    def decode(m: int) -> Monomial:
        indices = []
        while m:
            n = ((m & -m).bit_length() - 1) // width
            e = m >> width * n & (1 << width) - 1
            indices += [ids[n]] * e
            m -= e << width * n
        return _sorted_monomial(indices)

    iterate = {pack(m) << shift: c * scale ** len(m) for m, c in p.items()}
    terms = []
    for k in range(1, bound + 1):
        sign = (-1) ** k
        terms.extend(((key & mask) + (key >> shift), sign * c) for key, c in iterate.items())
        if k < bound:
            iterate = spread(
                (key & mask, c, reduced_of(key >> shift)) for key, c in iterate.items()
            )
    out = ((decode(m), c) for m, c in _accumulate(terms).items())
    if scale > 1:
        out = ((m, Fraction(c, scale ** len(m))) for m, c in out)
    return Polynomial._checked(out)


def antipode_bogoliubov(spec: CoproductSpec, i: int) -> Polynomial:
    """Triangular recursion through the coproduct table.  Every left leg is
    a single generator of strictly smaller degree, so the recursion is
    well-founded; it is filled bottom-up along left legs, and the value of
    each generator is memoized on the table instance."""
    return _bottom_up(_bogoliubov_step, spec, i, "left")


@spec_memo
def _bogoliubov_step(spec: CoproductSpec, i: int) -> Polynomial:
    """S(b_i) = -b_i - sum over rows (i; l; J) of c * S(b_l) * b_J."""
    terms = [(mono(i), -1)]
    for e in spec.entries_for(i):
        # the row coefficient in stored form, so integer tables multiply ints
        c = _scalar(-e.coeff)
        right = _sorted_monomial(e.right)
        terms.extend(
            (m * right, c * cm) for m, cm in _bogoliubov_step(spec, e.left).items()
        )
    return Polynomial._checked(terms)


_GENERATOR_METHODS = {
    "forest": antipode_forest,
    "dyson-salam": antipode_dyson_salam,
    "bogoliubov": antipode_bogoliubov,
}


def _route(method: str) -> Callable[[CoproductSpec, int], Polynomial]:
    """The generator antipode of a method name; an unknown name raises."""
    try:
        return _GENERATOR_METHODS[method]
    except KeyError:
        raise InputError(
            f"unknown antipode method {method!r}; choose from {METHODS}"
        ) from None


@spec_memo
def antipode_generator(spec: CoproductSpec, i: int, method: str = "forest") -> Polynomial:
    return _route(method)(spec, i)


def antipode_poly(
    spec: CoproductSpec, p: Polynomial, method: str = "forest"
) -> Polynomial:
    """Multiplicative-linear extension: S(b_I) is the product of the
    generator antipodes, S(1) = 1."""
    _route(method)
    pieces = ((_antipode_monomial(spec, m, method), c) for m, c in p.items())
    return Polynomial._checked((m, c * cs) for s, c in pieces for m, cs in s.items())


#: S(b_I) = product of the generator antipodes, S(1) = 1, memoized per
#: monomial and method, so each route keeps its own values.
_antipode_monomial = multiplicative_memo(antipode_generator, Polynomial.one())


def antipode_endomap(
    spec: CoproductSpec, method: str = "forest"
) -> Callable[[Monomial], Polynomial]:
    """The antipode on monomials, multiplicative with S(1) = 1: what lets
    convolution_check visit generators only."""
    _route(method)
    return lambda m: _antipode_monomial(spec, m, method)


class TermStats(NamedTuple):
    """Term counts contrasting the alternating-sum and forest views of the
    same antipode.  dyson_salam_terms counts (rank, tree) pairs where the
    tree admits at least one linearization at that rank, which happens
    exactly for height <= rank <= vertex count; forest_terms counts
    realized trees once each.  Both are counted, not enumerated: see
    `term_stats`."""

    dyson_salam_terms: int
    forest_terms: int


def term_stats(spec: CoproductSpec, i: int) -> TermStats:
    """The realized trees of b_i counted through the tree recursion, bottom-up
    over the generators below i along right legs (see `_tree_counts`): L is
    their total vertex count, T the number of trees and T_k the number of
    height at most k, so sum(h) = sum over k >= 0 of (T - T_k) and
    dyson_salam_terms = L - sum(h) + T."""
    vertices, heights = _bottom_up(_tree_counts, spec, i, "right")
    trees = heights[-1]
    sum_h = sum(trees - t for t in heights[:-1])
    return TermStats(dyson_salam_terms=vertices - sum_h + trees, forest_terms=trees)


@spec_memo
def _tree_counts(spec: CoproductSpec, j: int) -> tuple[int, list[int]]:
    """The total vertex count L of the realized trees of b_j, and
    [T_0, ..., T_deg(j)] with T_k the trees of height at most k.  A tree is
    the leaf, or a root row (j; l; J) with a multiset of m realized subtrees
    of b_r for each distinct r of J, so a row has n = prod of
    w_r = C(T_r + m - 1, m) trees.  Across the w_r multisets each subtree of
    b_r appears C(T_r + m - 1, m - 1) times, so the row adds
    n + sum of L_r * C(T_r + m - 1, m - 1) * n / w_r vertices.  A tree's
    height is at most its root's degree, so T_k = T_deg(r) for k past
    deg(r).  The caller must not change the returned list: it is memoized."""
    depth = spec.degree(j)
    vertices = 1
    heights = [0] + [1] * depth
    for e in spec.entries_for(j):
        legs = [(*_tree_counts(spec, r), m) for r, m in Counter(e.right).items()]
        ways = [comb(sub[-1] + m - 1, m) for _, sub, m in legs]
        n = prod(ways)
        vertices += n + sum(
            sub_vertices * comb(sub[-1] + m - 1, m - 1) * n // w
            for (sub_vertices, sub, m), w in zip(legs, ways)
        )
        for k in range(1, depth + 1):
            heights[k] += prod(
                comb(sub[min(k - 1, len(sub) - 1)] + m - 1, m) for _, sub, m in legs
            )
    return vertices, heights
