"""Corolla cuts of a decorated tree, for the tests of the paper's
level-splitting bijection: the top two levels of a (k+1)-linearization form
a corolla cut, and the rest is a k-linearization of its quotient.

A corolla cut is an upward-closed vertex set whose components are single
leaves or full terminal corollas (an internal vertex together with all of
its children, those children all being leaves).  Both views are built by
hand, over the host tree's vertex numbers, from its view and the children
and sources this module reads off the tree itself.  A cut is the sorted
tuple of its component trees; `forest_view` presents such a tuple as one
poset."""

from typing import NamedTuple

from hopfforest.trees import DecoratedTree, PosetView, leaf, node, view_of


class CorollaCut(NamedTuple):
    """vertices  all cut vertex numbers in the host tree
    meet      numbers of the component minima (corolla roots and bare
              leaves); these are leaves of the quotient
    cut       the components as standalone trees, in sorted order
    quotient  the host tree with every corolla component collapsed to a
              leaf decorated by the corolla root's source; bare-leaf
              components stay leaves of the quotient"""

    vertices: frozenset
    meet: frozenset
    cut: tuple[DecoratedTree, ...]
    quotient: DecoratedTree
    cut_view: PosetView
    quotient_view: PosetView


def forest_view(trees):
    """The poset of several trees side by side: their views joined, the
    trees taken in sorted order, each numbered after the ones before it."""
    parent, left_of = [], []
    for t in sorted(trees):
        view, base = view_of(t), len(parent)
        parent += [None if p is None else p + base for p in view.parent]
        left_of += view.left_of
    return PosetView(tuple(range(len(parent))), tuple(parent), tuple(left_of))


def _preorder(t):
    yield t
    for c in t.children:
        yield from _preorder(c)


def _tree(a, children, source, left):
    """The tree below vertex a, given each vertex's children and decorations."""
    if not children[a]:
        return leaf(left[a])
    return node(source[a], left[a], [_tree(c, children, source, left) for c in children[a]])


def _subsets(items):
    for mask in range(1 << len(items)):
        yield [items[k] for k in range(len(items)) if mask >> k & 1]


def corolla_cuts(t):
    """All corolla cuts of a tree, in the mask order of the terminal
    corollas and then of the free leaves.  A single leaf has none (the only
    candidate cut would be the whole tree with nothing left to quotient
    onto)."""
    view = view_of(t)
    if len(view.vertices) == 1:
        return ()
    source = [u.source for u in _preorder(t)]
    children = [[] for _ in view.vertices]
    for a in view.vertices[1:]:
        children[view.parent[a]].append(a)
    leaves = [a for a in view.vertices if not children[a]]
    terminal = [
        a for a in view.vertices if children[a] and not any(children[c] for c in children[a])
    ]
    out = []
    for chosen in _subsets(terminal):
        dropped = {c for x in chosen for c in children[x]}
        for bare in _subsets([a for a in leaves if a not in dropped]):
            if not chosen and not bare:
                continue
            meet = frozenset(chosen) | frozenset(bare)
            members = meet | dropped
            cut_view = PosetView(
                tuple(a for a in view.vertices if a in members),
                tuple(p if p in members else None for p in view.parent),
                view.left_of,
            )
            cut_children = [c if a in chosen else [] for a, c in enumerate(children)]
            quotient_view = PosetView(
                tuple(a for a in view.vertices if a not in dropped),
                view.parent,
                tuple(s if a in chosen else l for a, (s, l) in enumerate(zip(source, view.left_of))),
            )
            quotient_children = [[] if a in chosen else c for a, c in enumerate(children)]
            out.append(
                CorollaCut(
                    frozenset(members),
                    meet,
                    tuple(sorted(_tree(a, cut_children, source, view.left_of) for a in meet)),
                    _tree(0, quotient_children, source, quotient_view.left_of),
                    cut_view,
                    quotient_view,
                )
            )
    return tuple(out)
