"""Three routes to the antipode of a graded right-handed polynomial Hopf
algebra, all exact and provably equal, on one packed frame per command.

The frame (`coproduct.frame_over`) numbers what a command starts from (the
element of `antipode`, the generators of degree <= D of `verify` and
`compare`, those of a polynomial) and all they reach.  On a generator every
route multiplies integers in its basis beta_j = b_j / scale, and an output
c * beta_M is c * scale / scale^|M| * b_M.

* "forest": the cancellation-free sum over realized trees of
  (-1)^(vertex count) * coefficient * multiplicity * vertex monomial,
  factored at the root: F(beta_i) = -beta_i - sum of c' * beta_l *
  prod_{j in J} F(beta_j) over the rows of b_i.  No tree is listed.
* "bogoliubov": the triangular recursion S(beta_i) = -beta_i - sum of
  c' * S(beta_l) * beta_J over the rows of b_i.
* "dyson-salam": the geometric series, the sum of (-1)^k times the
  multiplied-out k-fold iterated reduced coproduct up to k = degree; it
  reads rows only, never an antipode value (see `_dyson_salam`).

Each recursion reads only its own lower values, memoized on the frame and
filled bottom-up along its own leg, so the Python stack stays flat, and
Dyson-Salam's value is memoized there too: `packed_route` reads the memos,
the public routes decode them.  The antipode is multiplicative, with
S(1) = 1, so `antipode_poly` multiplies packed route values by the
packing's `product_of`, as coproducts are; `term_stats` counts trees.
"""

from __future__ import annotations

from math import comb
from operator import add, mul
from typing import Callable, NamedTuple

from .algebra import Polynomial, mono
from .coproduct import _Frame, _nonzero, _poly_frame, _spread, frame_over
from .errors import InputError
from .hopfspec import CoproductSpec, _below

METHODS = ("forest", "dyson-salam", "bogoliubov")


def _dyson_salam(frame: _Frame, iterate: dict, bound: int) -> dict:
    """The sum over k <= ``bound`` of (-1)^k times the multiplied-out rank-k
    iterated reduced coproduct of ``iterate``; past bound every iterate
    vanishes by grading.  Only the product of the slots is summed and the
    next rank expands only the last slot, so the iterate is held in two
    slots, c * (slot 1 ... slot k-1) (x) (slot k) packed as the pair
    a + (b << shift), the empty product 1 at k = 1: the forest recursion,
    not Bogoliubov's, on any table (tests/test_antipode.py)."""
    shift, mask, reduced, reduced_of = frame.shift, frame.slot, frame.reduced, frame._reduced_of
    terms: dict = {}
    get = terms.get
    for k in range(1, bound + 1):
        sign = (-1) ** k
        for key, c in iterate.items():
            key = (key & mask) + (key >> shift)
            terms[key] = get(key, 0) + sign * c
        if k < bound:
            parts = []
            for key, c in iterate.items():
                cut = reduced.get(key >> shift)
                parts.append((key & mask, c, reduced_of(key >> shift) if cut is None else cut))
            iterate = _nonzero(_spread({}, parts))
    return _nonzero(terms)


def _forest(spec: CoproductSpec, i: int) -> tuple[_Frame, dict]:
    """F(beta_i) packed, and its frame: the forest sum factored at the root,
    where the ordered product over a right leg that repeats an index counts
    each tree with its multiplicity."""
    frame = frame_over(spec, (i,))
    memo = frame.forest
    for j in _below(spec, (i,), "right", memo):
        acc = {frame.field[j]: -1}
        for c, _, right, left, _ in frame.rows[j]:
            trees = {left: -c}
            for r in right[:-1]:
                trees = _spread({}, ((k, c1, memo[r]) for k, c1 in trees.items()))
            _spread(acc, ((k, c1, memo[right[-1]]) for k, c1 in trees.items()))
        memo[j] = _nonzero(acc)
    return frame, memo[i]


def _dyson_salam_of(spec: CoproductSpec, i: int) -> tuple[_Frame, dict]:
    """The Dyson-Salam route on one generator, packed, and its frame."""
    frame = frame_over(spec, mono(i))  # mono checks i
    memo = frame.dyson_salam
    if i not in memo:
        memo[i] = _dyson_salam(frame, {frame.field[i] << frame.shift: 1}, spec.degree(i))
    return frame, memo[i]


def _bogoliubov(spec: CoproductSpec, i: int) -> tuple[_Frame, dict]:
    """Bogoliubov's S(beta_i) packed, and its frame: each left leg has
    smaller degree, so the recursion is filled bottom-up along them."""
    frame = frame_over(spec, (i,))
    memo = frame.bogoliubov
    for j in _below(spec, (i,), "left", memo):
        parts = ((right, -c, memo[l]) for c, l, _, _, right in frame.rows[j])
        memo[j] = _nonzero(_spread({frame.field[j]: -1}, parts))
    return frame, memo[i]


def antipode_forest(spec: CoproductSpec, i: int) -> Polynomial:
    """Cancellation-free antipode, decoded: one term per realized tree, of
    sign (-1)^(vertex count), times the ordered subtree assignments it has."""
    return _Frame.polynomial(*_forest(spec, i))


def antipode_dyson_salam(spec: CoproductSpec, i: int) -> Polynomial:
    """The Dyson-Salam route on one generator, decoded."""
    return _Frame.polynomial(*_dyson_salam_of(spec, i))


def antipode_bogoliubov(spec: CoproductSpec, i: int) -> Polynomial:
    """Triangular recursion through the coproduct table, decoded."""
    return _Frame.polynomial(*_bogoliubov(spec, i))


_GENERATOR_METHODS = {
    "forest": antipode_forest,
    "dyson-salam": antipode_dyson_salam,
    "bogoliubov": antipode_bogoliubov,
}


def _route(method: str) -> Callable[[CoproductSpec, int], Polynomial]:
    """The generator antipode of a method name; anything else raises."""
    if not isinstance(method, str) or method not in _GENERATOR_METHODS:
        raise InputError(f"unknown antipode method {method!r}; choose from {METHODS}")
    return _GENERATOR_METHODS[method]


def packed_route(method: str) -> Callable[[CoproductSpec, int], tuple[_Frame, dict]]:
    """`_route`'s route, undecoded: (spec, i) to the frame and S(beta_i) as
    memoized on it.  On one frame, equal packed values are equal antipodes."""
    _route(method)
    return {"forest": _forest, "dyson-salam": _dyson_salam_of, "bogoliubov": _bogoliubov}[method]


def antipode_generator(spec: CoproductSpec, i: int, method: str = "forest") -> Polynomial:
    """S(b_i) by ``method``, decoded from the route's value on spec's frame
    at each call.  A loop over ids in ascending order builds one frame per
    id unless it first calls ``frame_over(spec, ids)``: such a Bogoliubov
    loop over faa_di_bruno_spec(16) builds 16 frames, not 1, and takes
    about 2.5 times as long."""
    return _route(method)(spec, i)


def antipode_poly(spec: CoproductSpec, p: Polynomial, method: str = "forest") -> Polynomial:
    """Multiplicative-linear extension on one frame over p's generators:
    S(beta_M) is the product of their packed route values, S(1) = 1, and
    p's packed sum is decoded once, as an element, not a generator image."""
    route = packed_route(method)
    frame, packed = _poly_frame(spec, p)
    ids = {j for m, _ in p.items() for j in m}
    values = {0: {0: 1}} | {frame.field[i]: route(spec, i)[1] for i in ids}
    parts = ((0, c, frame.product_of(values, b)) for b, c in packed.items())
    return frame.polynomial(_spread({}, parts), 0)


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
    """The realized trees of b_i counted through the tree recursion, filled
    on the frame bottom-up along right legs, as the forest route's values
    are (see `_tree_counts`): L is their total vertex count, T the number of
    trees and T_k the number of height at most k, so sum(h) = sum over
    k >= 0 of (T - T_k) and dyson_salam_terms = L - sum(h) + T."""
    frame = frame_over(spec, (i,))
    for j in _below(spec, (i,), "right", frame.counts):
        frame.counts[j] = _tree_counts(frame.rows[j], spec.degree(j), frame.counts)
    vertices, heights = frame.counts[i]
    trees = heights[-1]
    sum_h = sum(trees - t for t in heights[:-1])
    return TermStats(dyson_salam_terms=vertices - sum_h + trees, forest_terms=trees)


def _tree_counts(rows: list, depth: int, counts: dict) -> tuple[int, list[int]]:
    """The total vertex count L of the realized trees of a generator of
    degree ``depth`` and frame ``rows``, and [T_0, ..., T_depth], T_k those
    of height at most k, from the ``counts`` of its right legs.  A tree is
    the leaf, or a row with a multiset of m realized subtrees of b_r for
    each distinct r of J: n = prod of w_r = C(T_r + m - 1, m) trees, each
    subtree of b_r in C(T_r + m - 1, m - 1) of the w_r multisets, so the
    row adds n + sum of L_r * C(T_r + m - 1, m - 1) * n / w_r vertices.  A
    subtree's height is at most deg(r), so a leg's [T_0, ..., T_deg(r)] is
    padded to ``depth`` entries with T_deg(r), each entry t is C(t + m - 1,
    m), and the legs' product adds into [T_1, ..., T_depth]."""
    vertices, heights = 1, [1] * depth  # the leaf alone
    for _, _, right, _, _ in rows:
        n, row_vertices, row = 1, 0, None
        for r in set(right):
            m, (sub_vertices, sub) = right.count(r), counts[r]
            t = sub[-1]
            vector = sub + [t] * (depth - len(sub))
            if m > 1:
                vector = [comb(s + m - 1, m) for s in vector]
            w = vector[-1]  # n / w_r is the product of the other legs' w
            row_vertices = row_vertices * w + sub_vertices * comb(t + m - 1, m - 1) * n
            n *= w
            row = vector if row is None else map(mul, row, vector)
        vertices += n + row_vertices
        heights = list(map(add, heights, row))
    return vertices, [0, *heights]
