"""Decorated non-planar rooted trees, forests, their statistics,
exhaustive enumeration against a coproduct table, and the poset views,
with vertices numbered in preorder, that linearizations read.

Every vertex carries two positive integers (source, left).  The source is
the generator the vertex stands for; the left value is the generator the
vertex emits into monomials.  Leaves must have source == left, and that
shared value is the leaf decoration.  An internal vertex with source i and
left i0 whose children have sources I corresponds to the coproduct entry
(i; i0; I); the product of those entry coefficients over all internal
vertices is the tree's coefficient.

A tree is the tuple (source, left, children) and a forest the tuple of its
trees; both keep their members sorted by tuple order (source, then left,
then child lists lexicographically), the one canonical order, so equal
trees are equal tuples and hash and compare in C.  The file format / CLI
notation is "L(i)" for leaves, "N(i;j)[child,child,...]" for internal
vertices, and "*" to join forest components.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, combinations_with_replacement, product as iter_product
from math import factorial
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .algebra import Monomial, _positive_int
from .errors import InputError
from .hopfspec import CoproductSpec, _below


def _check_decoration(value: int, what: str) -> None:
    if not _positive_int(value):
        raise InputError(f"{what} must be a positive integer, got {value!r}")


class DecoratedTree(tuple):
    """A rooted tree of (source, left) vertices: (source, left, sorted children)."""

    __slots__ = ()

    def __new__(cls, source: int, left: int, children: Iterable[DecoratedTree] = ()):
        _check_decoration(source, "source decoration")
        _check_decoration(left, "left decoration")
        kids = tuple(children)
        for c in kids:
            if not isinstance(c, DecoratedTree):
                raise InputError(f"children must be DecoratedTree, got {c!r}")
        if not kids and source != left:
            raise InputError(
                f"a leaf has a single decoration; got source {source} "
                f"!= left {left}"
            )
        return tuple.__new__(cls, (source, left, tuple(sorted(kids))))

    def __reduce__(self):
        return (DecoratedTree, tuple(self))

    source = property(itemgetter(0))
    left = property(itemgetter(1))
    children = property(itemgetter(2))

    def __repr__(self) -> str:
        return "DecoratedTree(source=%r, left=%r, children=%r)" % self

    def __str__(self) -> str:
        return tree_notation(self)


def leaf(i: int) -> DecoratedTree:
    return DecoratedTree(i, i, ())


def node(
    source: int, left: int, children: Iterable[DecoratedTree]
) -> DecoratedTree:
    """Internal-vertex constructor: grafts the child trees under a new root
    decorated (source; left).  Internal vertices must have children."""
    kids = tuple(children)
    if not kids:
        raise InputError("an internal vertex needs children; use leaf() instead")
    return DecoratedTree(source, left, kids)


class Forest(tuple):
    """A multiset of decorated trees (a commutative product): its sorted trees."""

    __slots__ = ()

    def __new__(cls, trees: Iterable[DecoratedTree] = ()):
        return tuple.__new__(cls, sorted(trees))

    trees = property(tuple)

    def __repr__(self) -> str:
        return f"Forest(trees={tuple(self)!r})"

    def __str__(self) -> str:
        return forest_notation(self)


def forest(*trees: DecoratedTree) -> Forest:
    return Forest(tuple(trees))


TreeLike = Union[DecoratedTree, Forest]


def _components(x: TreeLike) -> tuple[DecoratedTree, ...]:
    if isinstance(x, DecoratedTree):
        return (x,)
    if isinstance(x, Forest):
        return x
    raise InputError(f"expected a DecoratedTree or Forest, got {x!r}")


def _vertices(x: TreeLike) -> Iterator[tuple[DecoratedTree, int]]:
    """Every (vertex, depth) of a tree or forest in preorder, roots at depth
    1, walked with an explicit stack so any depth fits."""
    stack = [(t, 1) for t in reversed(_components(x))]
    while stack:
        t, depth = stack.pop()
        yield t, depth
        stack.extend((c, depth + 1) for c in reversed(t.children))


def vertex_count(x: TreeLike) -> int:
    """The statistic l: total number of vertices (additive over forests)."""
    return sum(1 for _ in _vertices(x))


def height(x: TreeLike) -> int:
    """The statistic h: vertices on a longest root-to-leaf path (a single
    leaf has height 1); maximum over forest components, 0 for the empty
    forest."""
    return max((depth for _, depth in _vertices(x)), default=0)


def tree_coefficient(x: TreeLike, spec: CoproductSpec) -> Fraction:
    """Product over internal vertices of the coproduct coefficient for
    (source; left; children's sources).  A vertex with no matching table
    entry contributes 0: the tree is not realized by this table.
    Multiplicative over forests; leaves contribute 1."""
    out = Fraction(1)
    for t, _ in _vertices(x):
        if t.children:
            out *= spec.coefficient(t.source, t.left, [c.source for c in t.children])
            if not out:
                break
    return out


def vertex_monomial(x: TreeLike) -> Monomial:
    """The statistic v: the monomial collecting b_left over all vertices."""
    return Monomial(t.left for t, _ in _vertices(x))


class TreeStats(NamedTuple):
    length: int
    height: int
    coefficient: Fraction
    value: Monomial


def tree_stats(x: TreeLike, spec: CoproductSpec) -> TreeStats:
    """(l, h, coefficient, value) for a tree or forest."""
    return TreeStats(
        vertex_count(x), height(x), tree_coefficient(x, spec), vertex_monomial(x)
    )


def tree_multiplicity(x: TreeLike) -> int:
    """Number of ordered subtree assignments that collapse to this canonical
    tree (multiplicative over forests).

    Coproduct expansions of products are sums over ordered choices: a table
    entry whose right leg repeats an index offers that many interchangeable
    slots, and filling them with distinct subtrees can be done in several
    orders that all sort to the same non-planar tree.  Sums indexed
    by distinct canonical trees must therefore weight each tree by the
    product, over every internal vertex and every group of equal-source
    siblings, of the multinomial coefficient of the distinct-subtree counts
    in that group.  Trees whose equal-source siblings are pairwise equal
    (in particular everything of total degree < 5 in the divided-power
    composition table) have multiplicity 1.
    """
    out = 1
    for t, _ in _vertices(x):
        groups: dict[int, list] = {}
        for c in t.children:
            groups.setdefault(c.source, []).append(c)
        for group in groups.values():
            if len(group) > 1:  # only then hash the subtrees: a lone child has no twin
                out *= factorial(len(group))
                for count in Counter(group).values():
                    out //= factorial(count)
    return out


def enumerate_trees(spec: CoproductSpec, i: int) -> tuple[DecoratedTree, ...]:
    """Every canonical tree with root source i realized by the table (all
    entry lookups nonzero), in canonical order, each exactly once.

    Each id's pool is filled bottom-up along right legs: the leaf, then per
    row (j; l; J) one tree per choice, for each r of multiplicity m in J,
    of a multiset of m ranks in b_r's pool.  J is sorted and the ranks come
    out non-decreasing, so children are in canonical order as built, and
    distinct choices give distinct trees.  A pool is sorted by the flat key
    (l, r1, k1, r2, k2, ...) of its children's sources and ranks, (j,) for
    the leaf, which orders as the trees do as tuples in steps that do not
    grow with depth.  Sums over this set that must match the
    iterated-coproduct expansion weight each tree by tree_multiplicity.
    """
    order = _below(spec, (i,), "right")  # raises for unknown ids
    leaf(i)  # and for ids that are not positive ints, such as True
    pools: dict[int, list[DecoratedTree]] = {}
    for j in order:
        keyed = [((j,), leaf(j))]
        for _, l, right, _ in spec.entries_for(j):
            legs = [
                combinations_with_replacement([(r, k) for k in range(len(pools[r]))], right.count(r))
                for r in dict.fromkeys(right)
            ]
            for choice in iter_product(*legs):
                picks = [rank for group in choice for rank in group]
                tree = tuple.__new__(DecoratedTree, (j, l, tuple(pools[r][k] for r, k in picks)))
                keyed.append(((l, *chain.from_iterable(picks)), tree))
        keyed.sort(key=itemgetter(0))
        pools[j] = [t for _, t in keyed]
    return tuple(pools[i])


def tree_notation(t: DecoratedTree) -> str:
    """The notation of t, read off `_vertices`.  Each internal vertex on the
    path to the current one holds an open "["; a vertex that follows a leaf
    first closes those below its parent and writes a comma."""
    out: list[str] = []
    opened = 0
    for (source, left, children), depth in _vertices(t):
        if out and out[-1][-1] != "[":
            out.append("]" * (opened - depth + 1) + ",")
        out.append(f"N({source};{left})[" if children else f"L({source})")
        opened = depth if children else depth - 1
    return "".join(out) + "]" * opened


def forest_notation(f: Forest) -> str:
    return "*".join(map(tree_notation, f)) or "1"


# --- Poset views -------------------------------------------------------------


class PosetView(NamedTuple):
    """A concrete poset presentation of a tree or forest: vertex v is the
    v-th of `_vertices`' preorder, parent[v] its parent's number (None for a
    root) and left_of[v] its left decoration; x < y means x is a strict
    ancestor of y (roots are minimal).  Preorder is the lexicographic order
    of root paths, so numbers sort as those paths do.  Views exist so that
    linearizations can talk about individual vertices, which canonical trees
    cannot."""

    vertices: tuple[int, ...]
    parent: tuple[Optional[int], ...]
    left_of: tuple[int, ...]


def view_of(x: Union[TreeLike, PosetView]) -> PosetView:
    """x if it is a view, else the view of a tree or forest: its parent at
    each vertex is the last vertex seen one level up."""
    if isinstance(x, PosetView):
        return x
    if not isinstance(x, (DecoratedTree, Forest)):
        raise InputError(f"expected a tree, forest or poset view, got {x!r}")
    parent: list[Optional[int]] = []
    left_of: list[int] = []
    last: list[Optional[int]] = [None]  # last[d]: the latest vertex at depth d
    for v, (t, depth) in enumerate(_vertices(x)):
        parent.append(last[depth - 1])
        left_of.append(t.left)
        last[depth:] = [v]
    return PosetView(tuple(range(len(parent))), tuple(parent), tuple(left_of))
