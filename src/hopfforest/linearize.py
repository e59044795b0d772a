"""Level assignments (linearizations) of tree and forest posets, the chain
tensors they produce, and the identities tying them to iterated reduced
coproducts.

A k-linearization assigns every vertex a level in 1..k, onto (every level
used) and strictly order-preserving (ancestors get strictly smaller levels).
Its chain is the rank-k tensor whose t-th slot is the monomial of left
decorations over the level-t fiber.  Summing chains over all k-linearizations
of all realized trees, weighted by tree coefficient times ordered-assignment
multiplicity, reproduces the k-fold iterated reduced coproduct; over
forests it reproduces that of product monomials.  Both reports run the one
comparison, `_expansion_mismatch`.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Union

from .algebra import Monomial, Polynomial, Tensor, _positive_int
from .coproduct import iterated_reduced_poly
from .errors import InputError
from .hopfspec import CoproductSpec
from .trees import (
    Address,
    DecoratedTree,
    PosetView,
    TreeLike,
    _subsets,
    enumerate_forests,
    tree_coefficient,
    tree_multiplicity,
    view_of,
)


class Linearization(NamedTuple):
    """Levels presented as fibers: fibers[t] is the set of vertex addresses
    at level t+1.  Fibers are nonempty and partition the poset's vertices."""

    fibers: tuple[frozenset[Address], ...]


def _sort_key(lin: Linearization):
    return tuple(tuple(sorted(f)) for f in lin.fibers)


def k_linearizations(
    x: Union[TreeLike, PosetView], k: int
) -> tuple[Linearization, ...]:
    """All k-linearizations of a tree or forest (or a prebuilt view), by
    peeling a nonempty subset of currently minimal vertices per level.
    Remaining vertex sets are always upward closed, so minimality is a
    direct-parent check."""
    view = view_of(x)
    if not _positive_int(k):
        raise InputError(f"level count must be >= 1, got {k}")
    found: list[Linearization] = []

    def peel(remaining: frozenset, prefix: tuple, levels_left: int) -> None:
        if not remaining:
            if levels_left == 0:
                found.append(Linearization(prefix))
            return
        if levels_left == 0 or len(remaining) < levels_left:
            return
        minimal = sorted(a for a in remaining if view.parent[a] not in remaining)
        for fiber in map(frozenset, _subsets(minimal)):
            if fiber:
                peel(remaining - fiber, prefix + (fiber,), levels_left - 1)

    peel(frozenset(view.vertices), (), k)
    return tuple(sorted(found, key=_sort_key))


def chain_of(x: Union[TreeLike, PosetView], lin: Linearization) -> Tensor:
    """The rank-k tensor of level-fiber monomials of left decorations."""
    view = view_of(x)
    seen: set[Address] = set()
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


def alternating_sum(t: DecoratedTree) -> int:
    """Sum over k of (-1)^k times the number of k-linearizations; equals
    (-1)^(vertex count) for every rooted tree."""
    view = PosetView.of_tree(t)
    total = 0
    for k in range(1, view.size() + 1):
        total += (-1) ** k * len(k_linearizations(view, k))
    return total


def _expansion_mismatch(
    spec: CoproductSpec, indices: tuple[int, ...], k: int, side: str
) -> list[str]:
    """Compares the rank-k iterated reduced coproduct of the monomial over
    `indices` with the sum over its forests (a generator's trees are its
    one-tree forests) of coefficient times ordered-assignment multiplicity
    times every k-linearization chain; names the two when they differ."""
    direct = iterated_reduced_poly(spec, Polynomial.single(Monomial(indices)), k)
    weighted = (
        (view_of(f), tree_coefficient(f, spec) * tree_multiplicity(f))
        for f in enumerate_forests(spec, indices)
    )
    expanded = Tensor(
        k,
        (
            (key, lam * c)
            for view, lam in weighted
            for lin in k_linearizations(view, k)
            for key, c in chain_of(view, lin).items()
        ),
    )
    if direct == expanded:
        return []
    return [f"direct {direct} vs {side} expansion {expanded}"]


def tree_expansion_report(spec: CoproductSpec, i: int, k: int) -> list[str]:
    """Compares the k-fold iterated reduced coproduct of generator i with
    its tree/linearization expansion; returns failure descriptions."""
    if not _positive_int(k):
        raise InputError(f"level count must be >= 1, got {k}")
    return [
        f"iterated coproduct mismatch for generator {i} at rank {k}: {m}"
        for m in _expansion_mismatch(spec, (i,), k, "tree")
    ]


def forest_expansion_report(
    spec: CoproductSpec, indices: Iterable[int]
) -> list[str]:
    """Compares the reduced coproduct of the monomial over `indices` with
    its forest/linearization expansion; returns failure descriptions."""
    indices = tuple(indices)
    if not indices:
        raise InputError("the expansion needs at least one generator index")
    return [
        f"reduced-coproduct mismatch for monomial {Monomial(indices)}: {m}"
        for m in _expansion_mismatch(spec, indices, 2, "forest")
    ]
