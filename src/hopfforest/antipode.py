"""Three routes to the antipode of a graded right-handed polynomial Hopf
algebra, all exact and provably equal, on one packed frame per command.

A frame numbers what a command starts from (the element of `antipode`, the
generators of degree <= D of `verify` and `compare`, those of a polynomial)
and all it reaches through left and right legs of table rows.  Each gets, in
id order, a field of width bits, the bit length of the largest degree a
value must hold; no exponent passes its monomial's degree, so a monomial is
the sum of its generators' fields and a product one addition that never
carries.  Rows are read in the basis beta_j = b_j / scale, scale the common
denominator of the rows reached: a row (i; l; J) of coefficient c becomes
the integer c' = c * scale^|J|.  The rescaling is an algebra isomorphism, so
no value changes, and on a generator every route multiplies integers; an
output c * beta_M is c * scale / scale^|M| * b_M.

* "forest": the cancellation-free sum over realized trees of
  (-1)^(vertex count) * coefficient * multiplicity * vertex monomial,
  factored at the root: F(beta_i) = -beta_i - sum of c' * beta_l *
  prod_{j in J} F(beta_j) over the rows of b_i.  No tree is listed.
* "bogoliubov": the triangular recursion S(beta_i) = -beta_i - sum of
  c' * S(beta_l) * beta_J over the rows of b_i.
* "dyson-salam": the geometric series, the sum of (-1)^k times the
  multiplied-out k-fold iterated reduced coproduct up to k = degree; it
  reads rows only, never an antipode value (see `_Frame.dyson_salam`).

Each recursion reads only its own lower values, memoized on the frame and
filled bottom-up along its own leg, so the Python stack stays flat.  The
antipode is multiplicative, with S(1) = 1; `term_stats` counts trees.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, lcm, prod
from typing import Callable, NamedTuple, Optional

from .algebra import Monomial, Polynomial, _positive_int, _sorted_monomial, mono
from .errors import InputError
from .hopfspec import CoproductSpec, multiplicative_memo, spec_memo

METHODS = ("forest", "dyson-salam", "bogoliubov")


def _below(spec: CoproductSpec, starts, leg: str, known=()) -> list[int]:
    """starts and all they reach through ``leg`` ("left", "right" or "both")
    legs of table rows, but not through ``known``, in ascending degree: a
    leg has smaller degree than its source, so it comes first."""
    seen = {j for j in starts if j not in known}
    todo = list(seen)
    while todo:
        for e in spec.entries_for(todo.pop()):
            if leg == "both":
                legs = (e.left, *e.right)
            else:
                legs = e.right if leg == "right" else (e.left,)
            for j in legs:
                if j not in seen and j not in known:
                    seen.add(j)
                    todo.append(j)
    return sorted(seen, key=lambda j: (spec.degree(j), j))


def _spread(acc: dict, parts) -> dict:
    """acc plus c * c2 at key + k2 for (key, c, terms) in parts and (k2, c2)
    in terms: packed keys add where monomials multiply.  Zeros stay."""
    get = acc.get
    for key, c, terms in parts:
        for k2, c2 in terms.items():
            k2 += key
            acc[k2] = get(k2, 0) + c * c2
    return acc


def _nonzero(acc: dict) -> dict:
    return acc if all(acc.values()) else {k: c for k, c in acc.items() if c}


class _Frame:
    """The numbering of what ``starts`` reach, for values of degree up to
    ``degree`` (by default the largest start's): each row as (c', l, J,
    packed b_l, packed b_J), each route's packed values and coproducts."""

    def __init__(self, spec: CoproductSpec, starts, degree: Optional[int] = None):
        ids = sorted(_below(spec, starts, "both"))
        for i in starts:
            if not _positive_int(i):
                raise InputError(f"generator indices must be positive integers, got {i!r}")
        degree = max(map(spec.degree, starts), default=0) if degree is None else degree
        scale = lcm(*(e.coeff.denominator for j in ids for e in spec.entries_for(j)))
        self.ids, self.width, self.scale = ids, degree.bit_length(), scale
        self.field = field = {j: 1 << self.width * n for n, j in enumerate(ids)}
        self.shift = shift = self.width * len(ids)
        self.rows = {
            j: [(int(e.coeff * scale ** len(e.right)), e.left, e.right, field[e.left],
                 self.pack(e.right)) for e in spec.entries_for(j)]
            for j in ids
        }
        self.forest, self.bogoliubov, self.reduced = {}, {}, {}
        # the full coproduct of each generator, then of each monomial met
        self.full = {
            b: {b: 1, b << shift: 1, **{l + (r << shift): c for c, *_, l, r in self.rows[j]}}
            for j, b in field.items()
        }

    def pack(self, m) -> int:
        return sum(map(self.field.__getitem__, m))

    def dyson_salam(self, iterate: dict, bound: int) -> dict:
        """The sum over k <= ``bound`` of (-1)^k times the multiplied-out
        rank-k iterated reduced coproduct of ``iterate``; past bound every
        iterate vanishes by grading.  Only the product of the slots is summed
        and the next rank expands only the last slot, so the iterate is held
        in two slots, c * (slot 1 ... slot k-1) (x) (slot k) packed as the
        pair a + (b << shift), the empty product 1 at k = 1: the forest
        recursion, not Bogoliubov's, on any table (tests/test_antipode.py)."""
        shift, reduced, reduced_of = self.shift, self.reduced, self._reduced_of
        mask = (1 << shift) - 1
        terms: dict = {}
        get = terms.get
        for k in range(1, bound + 1):
            sign = (-1) ** k
            for key, c in iterate.items():
                key = (key & mask) + (key >> shift)
                terms[key] = get(key, 0) + sign * c
            if k < bound:
                acc: dict = {}
                put = acc.get
                for key, c in iterate.items():
                    b = key >> shift
                    cut = reduced.get(b)
                    if cut is None:
                        cut = reduced_of(b)
                    key &= mask
                    for k2, c2 in cut.items():
                        k2 += key
                        acc[k2] = put(k2, 0) + c * c2
                iterate = _nonzero(acc)
        return _nonzero(terms)

    def _reduced_of(self, b: int) -> dict:
        """The reduced coproduct of packed monomial b, not yet memoized: its
        full coproduct without b (x) 1 and 1 (x) b, the full coproduct being
        filled quotient by quotient, each times its lowest generator's."""
        full, width = self.full, self.width
        todo = []
        m = b
        while m not in full:
            unit = 1 << width * (((m & -m).bit_length() - 1) // width)
            todo.append((m, unit))
            m -= unit
        value = full[m]
        for m, unit in reversed(todo):
            parts = ((k, c, full[unit]) for k, c in value.items())
            value = full[m] = _nonzero(_spread({}, parts))
        primitive = (b, b << self.shift)
        value = self.reduced[b] = {k: c for k, c in value.items() if k not in primitive}
        return value

    def polynomial(self, packed: dict, lift: int) -> Polynomial:
        """sum c * beta_M over packed in the table's basis, each term
        c * scale^lift / scale^|M| * b_M."""
        width, ids, scale = self.width, self.ids, self.scale
        out = []
        for m, c in packed.items():
            indices = []
            while m:
                n = ((m & -m).bit_length() - 1) // width
                e = m >> width * n & (1 << width) - 1
                indices += [ids[n]] * e
                m -= e << width * n
            if scale > 1:
                c = Fraction(c, scale ** (len(indices) - lift))
            out.append((_sorted_monomial(indices), c))
        return Polynomial._checked(out)


def share_frame(spec: CoproductSpec, ids) -> None:
    """One frame over ids that every route on spec reads for each of them
    from now on, so each lower value and packed coproduct is computed once."""
    spec._cache[_Frame] = _Frame(spec, ids)


def _frame_of(spec: CoproductSpec, i: int) -> _Frame:
    """spec's frame if it numbers i, else a new one over {i}, now spec's."""
    frame = spec._cache.get(_Frame)
    if frame is None or not _positive_int(i) or i not in frame.field:
        frame = spec._cache[_Frame] = _Frame(spec, (i,))
    return frame


def antipode_forest(spec: CoproductSpec, i: int) -> Polynomial:
    """Cancellation-free antipode: every realized tree contributes one term
    with sign (-1)^(vertex count), weighted by the number of ordered subtree
    assignments the canonical tree stands for.  Factored at the root it is
    the right-leg recursion filled here: the ordered product over a right
    leg that repeats an index counts each tree with its multiplicity."""
    frame = _frame_of(spec, i)
    memo = frame.forest
    for j in _below(spec, (i,), "right", memo):
        acc = {frame.field[j]: -1}
        for c, _, right, left, _ in frame.rows[j]:
            trees = {left: -c}
            for r in right[:-1]:
                trees = _spread({}, ((k, c1, memo[r]) for k, c1 in trees.items()))
            _spread(acc, ((k, c1, memo[right[-1]]) for k, c1 in trees.items()))
        memo[j] = _nonzero(acc)
    return frame.polynomial(memo[i], 1)


def antipode_dyson_salam(spec: CoproductSpec, i: int) -> Polynomial:
    """The Dyson-Salam route on one generator."""
    mono(i)  # checks i
    frame = _frame_of(spec, i)
    packed = frame.dyson_salam({frame.field[i] << frame.shift: 1}, spec.degree(i))
    return frame.polynomial(packed, 1)


def dyson_salam_poly(spec: CoproductSpec, p: Polynomial) -> Polynomial:
    """The Dyson-Salam route on an augmentation-ideal element, on a frame
    over p's generators sized by p's degree, which bounds every slot's."""
    if p.constant != 0:
        raise InputError("the alternating-sum antipode needs zero constant term")
    bound = max((spec.monomial_degree(m) for m, _ in p.items()), default=0)
    frame = _Frame(spec, {j for m, _ in p.items() for j in m}, bound)
    scale, shift = frame.scale, frame.shift
    iterate = {frame.pack(m) << shift: c * scale ** len(m) for m, c in p.items()}
    return frame.polynomial(frame.dyson_salam(iterate, bound), 0)


def antipode_bogoliubov(spec: CoproductSpec, i: int) -> Polynomial:
    """Triangular recursion through the coproduct table.  Every left leg is
    a single generator of strictly smaller degree, so the recursion is
    well-founded; it is filled bottom-up along left legs."""
    frame = _frame_of(spec, i)
    memo = frame.bogoliubov
    for j in _below(spec, (i,), "left", memo):
        parts = ((right, -c, memo[l]) for c, l, _, _, right in frame.rows[j])
        memo[j] = _nonzero(_spread({frame.field[j]: -1}, parts))
    return frame.polynomial(memo[i], 1)


_GENERATOR_METHODS = {
    "forest": antipode_forest,
    "dyson-salam": antipode_dyson_salam,
    "bogoliubov": antipode_bogoliubov,
}


def _route(method: str) -> Callable[[CoproductSpec, int], Polynomial]:
    """The generator antipode of a method name; an unknown name raises."""
    if method not in _GENERATOR_METHODS:
        raise InputError(f"unknown antipode method {method!r}; choose from {METHODS}")
    return _GENERATOR_METHODS[method]


@spec_memo
def antipode_generator(spec: CoproductSpec, i: int, method: str = "forest") -> Polynomial:
    return _route(method)(spec, i)


def antipode_poly(spec: CoproductSpec, p: Polynomial, method: str = "forest") -> Polynomial:
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
    for j in _below(spec, (i,), "right"):
        vertices, heights = _tree_counts(spec, j)
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
