"""The realized trees of a generator by the recursion over table rows: an
oracle for `hopfforest.trees.enumerate_trees`.

Nothing in the package imports this module.  It uses only the checked tree
constructors, so each tree is built, its children sorted and its
decorations checked as a caller would; it collects each id's trees in a
set, so a duplicate choice collapses, and it sorts them as tuples.  The
flat rank keys, the bottom-up pools and the unchecked construction of the
package enumerator are all checked against a computation that has none of
them.  It recurses once per table level.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement, product

from hopfforest.trees import leaf, node


def recursive_trees(spec, i):
    """The leaf, and for every row (i; l; J) the trees whose children are
    one multiset of realized subtrees per distinct index of J, in tuple
    order."""
    realized = {}

    def trees_of(j):
        if j not in realized:
            spec.degree(j)  # raises for unknown ids
            found = {leaf(j)}
            for e in spec.entries_for(j):
                pools = [
                    combinations_with_replacement(trees_of(r), m)
                    for r, m in Counter(e.right).items()
                ]
                for combo in product(*pools):
                    found.add(node(j, e.left, [t for group in combo for t in group]))
            realized[j] = tuple(sorted(found))
        return realized[j]

    return trees_of(i)
