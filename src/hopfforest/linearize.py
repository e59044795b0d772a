"""Level assignments (linearizations) of tree posets, or of any poset
given as a `PosetView`, and the chain tensors they produce.

A k-linearization assigns every vertex a level in 1..k, onto (every level
used) and strictly order-preserving (ancestors get strictly smaller levels).
Its chain is the rank-k tensor whose t-th slot is the monomial of left
decorations over the level-t fiber.  Summing chains over all k-linearizations
of all realized trees, weighted by tree coefficient times ordered-assignment
multiplicity, reproduces the k-fold iterated reduced coproduct; over the
views of forests, one realized tree per factor, it reproduces that of
product monomials (tests/test_linearize.py checks both against
`coproduct.iterated_reduced_poly`).
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Union

from .algebra import Monomial, Tensor, _positive_int
from .errors import InputError
from .trees import DecoratedTree, PosetView, view_of


class Linearization(NamedTuple):
    """Levels presented as fibers: fibers[t] is the set of vertex numbers
    at level t+1.  Fibers are nonempty and partition the poset's vertices."""

    fibers: tuple[frozenset[int], ...]


def _sort_key(lin: Linearization):
    return tuple(tuple(sorted(f)) for f in lin.fibers)


def k_linearizations(
    x: Union[DecoratedTree, PosetView], k: int
) -> tuple[Linearization, ...]:
    """All k-linearizations of a tree (or a prebuilt view), by
    peeling a nonempty subset of currently minimal vertices per level, in a
    loop over a stack of partial ones.  Remaining vertex sets are always
    upward closed, so minimality is a direct-parent check."""
    view = view_of(x)
    if not _positive_int(k):
        raise InputError(f"level count must be >= 1, got {k}")
    found: list[Linearization] = []
    stack = [(frozenset(view.vertices), ())]
    while stack:
        remaining, prefix = stack.pop()
        levels_left = k - len(prefix)
        if not remaining:
            if not levels_left:
                found.append(Linearization(prefix))
        elif 0 < levels_left <= len(remaining):
            minimal = [a for a in remaining if view.parent[a] not in remaining]
            for size in range(1, len(minimal) + 1):
                for fiber in map(frozenset, combinations(minimal, size)):
                    stack.append((remaining - fiber, prefix + (fiber,)))
    return tuple(sorted(found, key=_sort_key))


def chain_of(x: Union[DecoratedTree, PosetView], lin: Linearization) -> Tensor:
    """The rank-k tensor of level-fiber monomials of left decorations."""
    view = view_of(x)
    if not (isinstance(lin, Linearization) and isinstance(lin.fibers, tuple)
            and all(isinstance(fiber, frozenset) for fiber in lin.fibers)):
        raise InputError(f"expected a Linearization of frozenset fibers, got {lin!r}")
    seen: set[int] = set()
    for fiber in lin.fibers:
        if not fiber or fiber & seen:
            raise InputError("linearization fibers must be disjoint and nonempty")
        seen |= fiber
    if seen != set(view.vertices):
        raise InputError("linearization does not cover this poset's vertices")
    key = tuple(
        Monomial(tuple(view.left_of[a] for a in fiber)) for fiber in lin.fibers
    )
    return Tensor.single(key)
