"""One walk per statistic of a decorated tree: an oracle for the statistics
`trees` prints, λ from `hopfforest.trees.pool_fill` and l, h and v from
the one walk of `hopfforest.cli._tree_line`.

Nothing in the package imports this module.  Each function folds
`_vertices` for its own statistic, and the coefficient reads the table's
rows by key rather than as the fill builds them, so a mistake in how the
package shares its work (a product taken over the wrong pool entry, a
statistic skipped in the shared walk) shows as a difference from these.
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
    rows = {e[:3]: e.coeff for e in spec.entries}
    out = Fraction(1)
    for u, _ in _vertices(t):
        if u.children:
            out *= rows.get((u.source, u.left, tuple(c.source for c in u.children)), 0)
            if not out:
                break
    return out


def vertex_monomial(t: DecoratedTree) -> Monomial:
    """The statistic v: the monomial collecting b_left over all vertices."""
    return Monomial(u.left for u, _ in _vertices(t))
