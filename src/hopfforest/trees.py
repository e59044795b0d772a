"""Decorated non-planar rooted trees, their exhaustive enumeration against
a coproduct table with each tree's coefficient, and the poset views, with
vertices numbered in preorder, that linearizations read.

Every vertex carries two positive integers (source, left).  The source is
the generator the vertex stands for; the left value is the generator the
vertex emits into monomials.  Leaves must have source == left, and that
shared value is the leaf decoration.  An internal vertex with source i and
left i0 whose children have sources I corresponds to the coproduct entry
(i; i0; I); the product of those entry coefficients over all internal
vertices is the tree's coefficient.

A tree is the tuple (source, left, children), its children sorted by
tuple order (source, then left, then child lists lexicographically), the
one canonical order, so equal trees are equal tuples and hash and compare
in C.  A forest (a product of trees) has no type here: its statistics are
the sums, maxima or products of its trees', and any poset, a forest's
included, can be presented as a `PosetView` for linearizations.  The file
format / CLI notation is "L(i)" for leaves and "N(i;j)[child,child,...]"
for internal vertices.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations_with_replacement, product as iter_product
from math import factorial, prod
from operator import itemgetter
from sys import getrecursionlimit
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .algebra import Scalar, _positive_int, _scalar
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
        try:
            kids = tuple(sorted(kids))
        except RecursionError:  # C's tuple comparison recurses once per level
            raise InputError(f"children that agree deeper than the recursion limit "
                             f"{getrecursionlimit()} cannot be ordered") from None
        return tuple.__new__(cls, (source, left, kids))

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


def _vertices(t: DecoratedTree) -> Iterator[tuple[DecoratedTree, int]]:
    """Every (vertex, depth) of a tree in preorder, the root at depth 1,
    walked with an explicit stack so any depth fits."""
    if not isinstance(t, DecoratedTree):
        raise InputError(f"expected a DecoratedTree, got {t!r}")
    stack = [(t, 1)]
    while stack:
        t, depth = stack.pop()
        yield t, depth
        stack.extend((c, depth + 1) for c in reversed(t.children))


def tree_multiplicity(t: DecoratedTree) -> int:
    """Number of ordered subtree assignments that collapse to this canonical
    tree.

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
    for u, _ in _vertices(t):
        groups: dict[int, list] = {}
        for c in u.children:
            groups.setdefault(c.source, []).append(c)
        for group in groups.values():
            if len(group) > 1:  # only then hash the subtrees: a lone child has no twin
                out *= factorial(len(group))
                for count in Counter(group).values():
                    out //= factorial(count)
    return out


def pool_fill(
    spec: CoproductSpec, i: int
) -> tuple[tuple[DecoratedTree, ...], tuple[Scalar, ...]]:
    """Every canonical tree with root source i realized by the table, in
    canonical order, each exactly once, and beside each its coefficient λ:
    the product of its internal vertices' row coefficients, in stored form
    (an int until a denominator appears).

    Each id's pool is filled bottom-up along right legs: the leaf, of λ 1,
    then per row (j; l; J) of coefficient c one tree per choice, for each r
    of multiplicity m in J, of a multiset of m ranks in b_r's pool, of
    λ = c · Π λ(children).  So each row is read once per tree built from
    it.  J is sorted and the ranks come out non-decreasing, so children are
    in canonical order as built, and distinct choices give distinct trees.
    A pool is sorted by the flat key (l, r1, k1, r2, k2, ...) of its
    children's sources and ranks, (j,) for the leaf, which orders as the
    trees do as tuples in steps that do not grow with depth.
    """
    order = _below(spec, (i,), "right")  # raises for unknown ids
    leaf(i)  # and for ids that are not positive ints, such as True
    pools: dict[int, tuple[DecoratedTree, ...]] = {}
    lams: dict[int, tuple[Scalar, ...]] = {}
    for j in order:
        keyed = [((j,), leaf(j), 1)]
        for _, l, right, coeff in spec.entries_for(j):
            c = _scalar(coeff)
            legs = [
                combinations_with_replacement([(r, k) for k in range(len(pools[r]))], right.count(r))
                for r in dict.fromkeys(right)
            ]
            for choice in iter_product(*legs):
                picks = [rank for group in choice for rank in group]
                tree = tuple.__new__(DecoratedTree, (j, l, tuple(pools[r][k] for r, k in picks)))
                lam = _scalar(prod((lams[r][k] for r, k in picks), start=c))
                keyed.append(((l, *chain.from_iterable(picks)), tree, lam))
        keyed.sort(key=itemgetter(0))
        pools[j] = tuple(map(itemgetter(1), keyed))
        lams[j] = tuple(map(itemgetter(2), keyed))
    return pools[i], lams[i]


def enumerate_trees(spec: CoproductSpec, i: int) -> tuple[DecoratedTree, ...]:
    """The trees of `pool_fill`: every canonical tree with root source i
    realized by the table (all entry lookups nonzero), in canonical order,
    each exactly once.  Sums over this set that must match the
    iterated-coproduct expansion weight each tree by tree_multiplicity."""
    return pool_fill(spec, i)[0]


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


# --- Poset views -------------------------------------------------------------


class PosetView(NamedTuple):
    """A concrete poset presentation of a tree: vertex v is the v-th of
    `_vertices`' preorder, parent[v] its parent's number (None for a root)
    and left_of[v] its left decoration; x < y means x is a strict ancestor
    of y (roots are minimal).  Preorder is the lexicographic order
    of root paths, so numbers sort as those paths do.  Views exist so that
    linearizations can talk about individual vertices, which canonical trees
    cannot."""

    vertices: tuple[int, ...]
    parent: tuple[Optional[int], ...]
    left_of: tuple[int, ...]


def view_of(x: Union[DecoratedTree, PosetView]) -> PosetView:
    """x if it is a well-formed view, else the view of a tree: its parent
    at each vertex is the last vertex seen one level up.  A view has one
    left decoration per parent entry, vertex numbers strictly increasing in
    range(len(parent)) and each parent None or an earlier number; a
    sub-view, such as a corolla cut's, keeps its host's numbers."""
    if isinstance(x, PosetView):
        vertices, parent, left_of = x
        if not (
            all(isinstance(field, tuple) for field in x)
            and len(left_of) == len(parent)
            and all(type(v) is int for v in vertices)
            and all(a < b for a, b in zip((-1, *vertices), (*vertices, len(parent))))
            and all(p is None or type(p) is int and 0 <= p < v for v, p in enumerate(parent))
        ):
            raise InputError(
                "a poset view needs tuples: one left decoration per parent, vertex "
                "numbers strictly increasing in range(len(parent)), and each parent "
                "None or an earlier vertex number"
            )
        return x
    if not isinstance(x, DecoratedTree):
        raise InputError(f"expected a tree or poset view, got {x!r}")
    parent: list[Optional[int]] = []
    left_of: list[int] = []
    last: list[Optional[int]] = [None]  # last[d]: the latest vertex at depth d
    for v, (t, depth) in enumerate(_vertices(x)):
        parent.append(last[depth - 1])
        left_of.append(t.left)
        last[depth:] = [v]
    return PosetView(tuple(range(len(parent))), tuple(parent), tuple(left_of))
