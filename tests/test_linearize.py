"""Level assignments of tree posets, their chain tensors, and the identities
linking them to iterated reduced coproducts."""

from itertools import permutations, product as iter_product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfforest.algebra import Monomial, Polynomial, Tensor, mono
from hopfforest.coproduct import iterated_reduced_poly
from hopfforest.errors import InputError
from hopfforest.linearize import Linearization, chain_of, k_linearizations
from hopfforest.prelie import dualize, grafting_instance
from hopfforest.trees import (
    PosetView,
    enumerate_trees,
    leaf,
    node,
    tree_multiplicity,
    view_of,
)

from corolla_cuts import corolla_cuts, forest_view
from tree_walkers import tree_coefficient


def corolla():
    return node(3, 1, [leaf(1), leaf(1)])


def three_chain():
    return node(3, 1, [node(2, 1, [leaf(1)])])


def example_tree():
    return node(6, 1, [node(2, 1, [leaf(1)]), node(3, 1, [leaf(1), leaf(1)])])


def brute_force_fibers(view, k):
    """Independent oracle: filter all level maps for onto + strictly
    order-preserving, and collect their fiber tuples."""
    verts = list(view.vertices)
    out = set()
    for levels in iter_product(range(1, k + 1), repeat=len(verts)):
        assign = dict(zip(verts, levels))
        if set(levels) != set(range(1, k + 1)):
            continue
        if any(
            view.parent[v] is not None and assign[view.parent[v]] >= assign[v]
            for v in verts
        ):
            continue
        out.add(
            tuple(
                frozenset(v for v in verts if assign[v] == t)
                for t in range(1, k + 1)
            )
        )
    return out


def test_counts_on_small_shapes():
    assert len(k_linearizations(leaf(1), 1)) == 1
    assert len(k_linearizations(corolla(), 1)) == 0
    assert len(k_linearizations(corolla(), 2)) == 1
    assert len(k_linearizations(corolla(), 3)) == 2
    assert len(k_linearizations(corolla(), 4)) == 0  # more levels than vertices
    assert len(k_linearizations(three_chain(), 2)) == 0
    assert len(k_linearizations(three_chain(), 3)) == 1
    with pytest.raises(InputError):
        k_linearizations(corolla(), 0)


def test_k_linearizations_rejects_a_bool_count():
    with pytest.raises(InputError, match="level count must be >= 1, got True"):
        k_linearizations(corolla(), True)


@pytest.mark.parametrize(
    "shape",
    [
        leaf(1),
        corolla(),
        three_chain(),
        example_tree(),
        node(4, 2, [leaf(1), node(3, 1, [leaf(2)])]),
        forest_view([leaf(1), leaf(2)]),
        forest_view([node(2, 1, [leaf(1)]), leaf(3)]),
    ],
)
def test_enumeration_matches_brute_force(shape):
    view = view_of(shape)
    for k in range(1, len(view.vertices) + 1):
        got = {lin.fibers for lin in k_linearizations(view, k)}
        assert got == brute_force_fibers(view, k)
        assert len(got) == len(k_linearizations(view, k))


def test_top_rank_counts_linear_extensions():
    t = example_tree()
    view = view_of(t)
    n = len(view.vertices)
    extensions = sum(
        1
        for perm in permutations(view.vertices)
        if all(
            perm.index(view.parent[v]) < perm.index(v)
            for v in view.vertices
            if view.parent[v] is not None
        )
    )
    assert len(k_linearizations(view, n)) == extensions


def test_chain_tensors():
    view = view_of(corolla())
    (lin,) = k_linearizations(view, 2)
    assert chain_of(view, lin) == Tensor.single((mono(1), mono(1, 1)), 1)

    pair = forest_view([leaf(1), leaf(2)])
    chains = {chain_of(pair, lin) for lin in k_linearizations(pair, 2)}
    assert chains == {
        Tensor.single((mono(1), mono(2)), 1),
        Tensor.single((mono(2), mono(1)), 1),
    }


def test_chain_of_rejects_bad_fibers():
    view = view_of(corolla())  # the root 0 and its leaves 1 and 2
    with pytest.raises(InputError):
        chain_of(view, Linearization((frozenset({0}),)))  # does not cover
    with pytest.raises(InputError):
        chain_of(view, Linearization((frozenset({0, 1}), frozenset({1, 2}))))  # overlap
    with pytest.raises(InputError):
        chain_of(view, Linearization((frozenset({0, 1, 2}), frozenset())))  # empty fiber


@pytest.mark.parametrize(
    "lin",
    [
        (frozenset({0}),),  # fibers, not a Linearization
        Linearization(([0],)),  # a fiber that is not a frozenset
        Linearization(frozenset({0})),  # fibers that are not a tuple
        None,
    ],
    ids=["bare-tuple", "list-fiber", "set-fibers", "none"],
)
def test_chain_of_refuses_a_malformed_linearization(lin):
    with pytest.raises(InputError, match="expected a Linearization of frozenset fibers"):
        chain_of(view_of(leaf(1)), lin)


@pytest.mark.parametrize(
    "view",
    [
        PosetView((0, 1), (None, 0), (1,)),
        PosetView((0, 1), (1, 0), (1, 1)),
        PosetView((0, 1), (None, 1), (1, 1)),
        PosetView((1, 0), (None, 0), (1, 1)),
        PosetView((0, 0), (None, 0), (1, 1)),
        PosetView((0, 2), (None, 0), (1, 1)),
        PosetView((0, True), (None, 0), (1, 1)),
        PosetView([0, 1], [None, 0], [1, 1]),
    ],
    ids=["short-left", "cycle", "own-parent", "decreasing", "repeated", "past-table",
         "bool-vertex", "lists"],
)
@pytest.mark.parametrize("call", ["view_of", "k_linearizations", "chain_of"])
def test_a_malformed_view_is_refused(view, call):
    # Unchecked, a short left_of indexes past its end in chain_of, and a
    # parent cycle leaves k_linearizations no minimal vertex, so it finds
    # no linearization and says nothing: each must be one InputError.
    calls = {
        "view_of": view_of,
        "k_linearizations": lambda v: k_linearizations(v, 2),
        "chain_of": lambda v: chain_of(v, Linearization((frozenset({0}), frozenset({1})))),
    }
    with pytest.raises(InputError, match="a poset view needs"):
        calls[call](view)


@st.composite
def parent_tables(draw, max_size=6):
    n = draw(st.integers(2, max_size))
    parents = [None] + [draw(st.integers(0, v - 1)) for v in range(1, n)]
    return parents


def parent_table_view(parents):
    """The view of a one-root parent table (parents[v] < v), decorated 1
    everywhere: vertex v is v, which need not be a preorder number."""
    n = len(parents)
    return PosetView(tuple(range(n)), tuple(parents), (1,) * n)


def level(lin, a):
    return next(t + 1 for t, fiber in enumerate(lin.fibers) if a in fiber)


@settings(max_examples=50, deadline=None)
@given(parent_tables())
def test_insertion_recursion(parents):
    """Attaching a new maximal vertex x above y: every k-level assignment
    of the grown poset either reuses an existing level for x (k - level(y)
    choices per k-level assignment of the old poset) or gives x a level of
    its own (k - level(y) insertion slots per (k-1)-level assignment)."""
    n = len(parents)
    view = parent_table_view(parents)
    y = n - 1 if n == 1 else (n * 7 + 3) % n  # deterministic pick
    grown = parent_table_view(parents + [y])
    for k in range(1, n + 2):
        direct = len(k_linearizations(grown, k))
        via_same = sum(k - level(lin, y) for lin in k_linearizations(view, k))
        via_fresh = (
            sum(k - level(lin, y) for lin in k_linearizations(view, k - 1))
            if k >= 2
            else 0
        )
        assert direct == via_same + via_fresh


@settings(max_examples=50, deadline=None)
@given(parent_tables(max_size=7))
def test_alternating_sum_is_parity(parents):
    view = parent_table_view(parents)
    total = sum(
        (-1) ** k * len(k_linearizations(view, k))
        for k in range(1, len(view.vertices) + 1)
    )
    assert total == (-1) ** len(view.vertices)


def test_alternating_sum_on_trees():
    for t in [leaf(2), corolla(), three_chain(), example_tree()]:
        view = view_of(t)
        total = sum(
            (-1) ** k * len(k_linearizations(view, k))
            for k in range(1, len(view.vertices) + 1)
        )
        assert total == (-1) ** len(view.vertices)


@pytest.mark.parametrize(
    "t",
    [corolla(), three_chain(), example_tree(), node(2, 1, [leaf(1)])],
)
def test_top_levels_of_linearizations_come_from_cuts(t):
    """Splitting a (k+1)-level assignment at its top two levels lands on a
    corolla cut; counting through the cuts must reproduce the direct count."""
    view = view_of(t)
    for k in range(1, len(view.vertices)):
        direct = len(k_linearizations(view, k + 1))
        routed = 0
        for c in corolla_cuts(t):
            tops = sum(
                1
                for g in k_linearizations(c.quotient_view, k)
                if g.fibers[-1] == c.meet
            )
            routed += tops * len(k_linearizations(c.cut_view, 2))
        assert direct == routed


def linearization_expansion(spec, indices, k):
    """The paper's forest expansion of the rank-k iterated reduced coproduct
    of the monomial over ``indices``: over every forest of one realized tree
    per index, taken in order, so that repeated indices count each unordered
    forest once per ordered choice (a generator's trees are its one-tree
    forests), the product of its trees' coefficients times multiplicities
    times every k-linearization chain of its view."""
    terms = []
    for trees in iter_product(*(enumerate_trees(spec, i) for i in indices)):
        view = forest_view(trees)
        weight = prod(tree_coefficient(t, spec) * tree_multiplicity(t) for t in trees)
        for lin in k_linearizations(view, k):
            terms += [(key, weight * c) for key, c in chain_of(view, lin).items()]
    return Tensor(k, terms)


def assert_expansion_matches(spec, indices, k):
    direct = iterated_reduced_poly(spec, Polynomial.single(Monomial(indices)), k)
    assert linearization_expansion(spec, indices, k) == direct


@pytest.mark.parametrize("i", [2, 3, 4, 5])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_tree_expansion_matches_iterated_coproduct(fdb6, i, k):
    assert_expansion_matches(fdb6, (i,), k)


@pytest.mark.parametrize(
    "indices",
    [(1,), (2,), (1, 1), (1, 2), (2, 2), (2, 3), (1, 1, 2), (2, 2, 2)],
)
def test_forest_expansion_matches_product_coproduct(fdb6, indices):
    assert_expansion_matches(fdb6, indices, 2)


@pytest.fixture(scope="module")
def dual5():
    return dualize(grafting_instance(5), 5)


@pytest.mark.parametrize(
    "indices",
    [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
    + [(1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 2, 3), (2, 2, 2)],
)
def test_forest_expansion_at_higher_ranks(fdb6, dual5, indices):
    """The paper's forest identity past rank 2: chains of k-linearizations
    over the forests of a product monomial sum to its rank-k iterated
    reduced coproduct."""
    for spec in (fdb6, dual5):
        for k in (2, 3, 4):
            assert_expansion_matches(spec, indices, k)
