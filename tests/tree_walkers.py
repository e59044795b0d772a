"""One walk per statistic of a decorated tree: an oracle for
`hopfforest.trees.tree_stats`, which reads all four in a single walk.

Nothing in the package imports this module.  Each function folds
`_vertices` for its own statistic, so a mistake in how the one-walk
version shares its loop (a fold cut short, a statistic skipped past a zero
coefficient) shows as a difference from these.
"""

from __future__ import annotations

from fractions import Fraction

from hopfforest.algebra import Monomial
from hopfforest.hopfspec import CoproductSpec
from hopfforest.trees import DecoratedTree, _vertices


def vertex_count(t: DecoratedTree) -> int:
    """The statistic l: total number of vertices."""
    return sum(1 for _ in _vertices(t))


def height(t: DecoratedTree) -> int:
    """The statistic h: vertices on a longest root-to-leaf path (a single
    leaf has height 1)."""
    return max(depth for _, depth in _vertices(t))


def tree_coefficient(t: DecoratedTree, spec: CoproductSpec) -> Fraction:
    """Product over internal vertices of the coproduct coefficient for
    (source; left; children's sources).  A vertex with no matching table
    entry contributes 0: the tree is not realized by this table.  Leaves
    contribute 1."""
    out = Fraction(1)
    for u, _ in _vertices(t):
        if u.children:
            out *= spec.coefficient(u.source, u.left, [c.source for c in u.children])
            if not out:
                break
    return out


def vertex_monomial(t: DecoratedTree) -> Monomial:
    """The statistic v: the monomial collecting b_left over all vertices."""
    return Monomial(u.left for u, _ in _vertices(t))
