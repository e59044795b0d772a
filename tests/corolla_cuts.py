"""Corolla cuts of a decorated tree, for the tests of the paper's
level-splitting bijection: the top two levels of a (k+1)-linearization form
a corolla cut, and the rest is a k-linearization of its quotient.

A corolla cut is an upward-closed vertex set whose components are single
leaves or full terminal corollas (an internal vertex together with all of
its children, those children all being leaves).  Both views are built by
hand, vertex by vertex, from the host tree's view."""

from typing import NamedTuple

from hopfforest.trees import DecoratedTree, Forest, PosetView, forest, leaf, node


class CorollaCut(NamedTuple):
    """vertices  all cut vertex addresses in the host tree
    meet      addresses of the component minima (corolla roots and bare
              leaves); these are leaves of the quotient
    cut       the components as a standalone decorated forest
    quotient  the host tree with every corolla component collapsed to a
              leaf decorated by the corolla root's source; bare-leaf
              components stay leaves of the quotient"""

    vertices: frozenset
    meet: frozenset
    cut: Forest
    quotient: DecoratedTree
    cut_view: PosetView
    quotient_view: PosetView


def _tree_from_view(view, a):
    if not view.children[a]:
        return leaf(view.left_of[a])
    kids = [_tree_from_view(view, c) for c in view.children[a]]
    return node(view.source_of[a], view.left_of[a], kids)


def _subsets(items):
    for mask in range(1 << len(items)):
        yield [items[k] for k in range(len(items)) if mask >> k & 1]


def corolla_cuts(t):
    """All corolla cuts of a tree, in the mask order of the terminal
    corollas and then of the free leaves.  A single leaf has none (the only
    candidate cut would be the whole tree with nothing left to quotient
    onto)."""
    view = PosetView.of_tree(t)
    if view.size() == 1:
        return ()
    leaves = [a for a in view.vertices if not view.children[a]]
    terminal = [
        a
        for a in view.vertices
        if view.children[a] and not any(view.children[c] for c in view.children[a])
    ]
    out = []
    for chosen in _subsets(terminal):
        dropped = {c for x in chosen for c in view.children[x]}
        for bare in _subsets([a for a in leaves if a not in dropped]):
            if not chosen and not bare:
                continue
            meet = frozenset(chosen) | frozenset(bare)
            members = meet | dropped
            cut_view = PosetView(
                vertices=tuple(a for a in view.vertices if a in members),
                parent={
                    a: (view.parent[a] if view.parent[a] in members else None)
                    for a in view.vertices
                    if a in members
                },
                children={
                    a: (view.children[a] if a in chosen else ())
                    for a in view.vertices
                    if a in members
                },
                source_of={a: view.source_of[a] for a in members},
                left_of={a: view.left_of[a] for a in members},
            )
            keep = [a for a in view.vertices if a not in dropped]
            quotient_view = PosetView(
                vertices=tuple(keep),
                parent={a: view.parent[a] for a in keep},
                children={a: (() if a in chosen else view.children[a]) for a in keep},
                source_of={a: view.source_of[a] for a in keep},
                left_of={
                    a: (view.source_of[a] if a in chosen else view.left_of[a])
                    for a in keep
                },
            )
            roots = [a for a in cut_view.vertices if cut_view.parent[a] is None]
            out.append(
                CorollaCut(
                    frozenset(members),
                    meet,
                    forest(*(_tree_from_view(cut_view, a) for a in roots)),
                    _tree_from_view(quotient_view, ()),
                    cut_view,
                    quotient_view,
                )
            )
    return tuple(out)
