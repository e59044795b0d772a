"""Decorated trees: canonical forms, statistics, enumeration against a
coproduct table, poset views, and corolla cuts (tests/corolla_cuts.py)."""

import pickle
import random
import sys
from collections import Counter
from itertools import permutations, product as iter_product
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfforest.algebra import Monomial, mono
from hopfforest.antipode import term_stats
from hopfforest.cli import _tree_line
from hopfforest.errors import InputError
from hopfforest.hopfspec import CoproductEntry, CoproductSpec, Generator, faa_di_bruno_spec
from hopfforest.linearize import Linearization
from hopfforest.prelie import dualize, grafting_instance
from hopfforest.trees import (
    DecoratedTree,
    PosetView,
    _vertices,
    enumerate_trees,
    leaf,
    node,
    pool_fill,
    tree_multiplicity,
    tree_notation,
    view_of,
)

from corolla_cuts import corolla_cuts, forest_view
from test_cli import _chain_table, _right_deep
from tree_walkers import height, tree_coefficient, vertex_count, vertex_monomial


def example_tree():
    """Six vertices, two terminal corollas under the root."""
    return node(6, 1, [node(2, 1, [leaf(1)]), node(3, 1, [leaf(1), leaf(1)])])


def structure_key(t):
    """The recursive order key trees were once sorted by: (source, left),
    then the child keys lexicographically.  Tuple order must agree."""
    return (t.source, t.left, tuple(structure_key(c) for c in t.children))


@st.composite
def decorated_trees(draw, depth=3, width=3):
    if depth == 0 or draw(st.booleans()):
        return leaf(draw(st.integers(1, 4)))
    n = draw(st.integers(1, width))
    kids = [draw(decorated_trees(depth=depth - 1, width=width)) for _ in range(n)]
    return node(draw(st.integers(1, 4)), draw(st.integers(1, 4)), kids)


def test_construction_rules():
    with pytest.raises(InputError):
        DecoratedTree(2, 1, ())  # a leaf carries one decoration
    with pytest.raises(InputError):
        node(2, 1, [])
    with pytest.raises(InputError):
        leaf(0)
    with pytest.raises(InputError):
        node(2, True, [leaf(1)])
    with pytest.raises(InputError, match=r"^children must be DecoratedTree, got \(1, 1, \(\)\)$"):
        DecoratedTree(2, 1, [(1, 1, ())])
    assert not leaf(3).children
    assert example_tree().children


def test_children_are_sorted_at_construction():
    a = node(3, 1, [leaf(2), node(2, 1, [leaf(1)])])
    b = node(3, 1, [node(2, 1, [leaf(1)]), leaf(2)])
    assert a == b
    assert [c.source for c in a.children] == [2, 2]
    assert a.children[0].children  # (2,1,...) sorts before (2,2)


@settings(max_examples=80)
@given(decorated_trees(), st.integers(0, 2**30))
def test_canonical_form_ignores_child_order(t, seed):
    rng = random.Random(seed)

    def shuffled(u):
        kids = [shuffled(c) for c in u.children]
        rng.shuffle(kids)
        return DecoratedTree(u.source, u.left, tuple(kids))

    assert shuffled(t) == t


@settings(max_examples=80)
@given(st.lists(decorated_trees(), max_size=8))
def test_tuple_order_is_the_structure_key_order(ts):
    assert sorted(ts) == sorted(ts, key=structure_key)
    for t in ts:
        assert list(t.children) == sorted(t.children, key=structure_key)


@pytest.mark.parametrize(
    "make, top_only",
    [
        (lambda: faa_di_bruno_spec(7), False),
        (lambda: faa_di_bruno_spec(9), False),
        (lambda: dualize(grafting_instance(5), 5), False),
        (lambda: dualize(grafting_instance(6), 6), False),
        # b120's pool holds every lower pool's trees as subtrees
        (lambda: _chain_table(120, _right_deep), True),
    ],
    ids=["fdb-7", "fdb-9", "grafting-5-dual", "grafting-6-dual", "chain-120"],
)
def test_every_pool_is_strictly_increasing_in_tuple_order(make, top_only):
    # Pools are sorted by rank keys and built without checks; tuple order
    # is the oracle, and each listed tree must be realized.
    spec = make()
    ids = spec.generator_ids()
    for i in ids[-1:] if top_only else ids:
        trees = enumerate_trees(spec, i)
        assert all(a < b for a, b in zip(trees, trees[1:]))
        assert all(tree_coefficient(t, spec) for t in trees)


@pytest.mark.parametrize(
    "make",
    [lambda: faa_di_bruno_spec(8), lambda: dualize(grafting_instance(5), 5)],
    ids=["fdb-8", "grafting-5-dual"],
)
def test_enumeration_is_in_structure_key_order(make):
    spec = make()
    for i in spec.generator_ids():
        trees = enumerate_trees(spec, i)
        assert list(trees) == sorted(trees, key=structure_key)


def recursive_notation(t):
    if not t.children:
        return f"L({t.source})"
    inner = ",".join(recursive_notation(c) for c in t.children)
    return f"N({t.source};{t.left})[{inner}]"


@settings(max_examples=80)
@given(decorated_trees(depth=4))
def test_notation_matches_the_recursive_notation(t):
    assert tree_notation(t) == recursive_notation(t)


def test_notation():
    assert tree_notation(example_tree()) == (
        "N(6;1)[N(2;1)[L(1)],N(3;1)[L(1),L(1)]]"
    )
    assert str(example_tree()).startswith("N(6;1)")


RECORDS = {
    "tree": (lambda spec: example_tree(), ("source", "left", "children")),
    "view": (
        lambda spec: view_of(example_tree()),
        ("vertices", "parent", "left_of"),
    ),
    "linearization": (
        lambda spec: Linearization((frozenset({0}),)),
        ("fibers",),
    ),
    "term-stats": (
        lambda spec: term_stats(spec, 3),
        ("dyson_salam_terms", "forest_terms"),
    ),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_records_are_read_only_and_round_trip(fdb6, name):
    make, fields = RECORDS[name]
    record = make(fdb6)
    values = {f: getattr(record, f) for f in fields}
    assert type(record)(**values) == record == type(record)(*values.values())
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, values[f])
    with pytest.raises(AttributeError):
        record.extra = 1
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record


def test_record_reprs_are_the_dataclass_reprs(fdb6):
    leaf1 = "DecoratedTree(source=1, left=1, children=())"
    tree = (
        f"DecoratedTree(source=6, left=1, children=(DecoratedTree(source=2, "
        f"left=1, children=({leaf1},)), DecoratedTree(source=3, left=1, "
        f"children=({leaf1}, {leaf1}))))"
    )
    assert repr(example_tree()) == tree
    assert repr(Linearization((frozenset({0}),))) == (
        "Linearization(fibers=(frozenset({0}),))"
    )
    assert repr(term_stats(fdb6, 3)) == "TermStats(dyson_salam_terms=6, forest_terms=5)"


def test_trees_are_tuples_of_their_fields():
    t = example_tree()
    assert leaf(2) == (2, 2, ()) and hash(leaf(2)) == hash((2, 2, ()))
    assert t == (t.source, t.left, t.children)
    assert leaf(2) < t
    assert hash(view_of(t)) == hash(view_of(example_tree()))


def test_statistics(fdb6):
    t = example_tree()
    assert vertex_count(t) == 6
    assert height(t) == 3
    assert vertex_monomial(t) == mono(1, 1, 1, 1, 1, 1)
    assert tree_coefficient(t, fdb6) == 315  # 35 * 3 * 3
    trees, lams = pool_fill(fdb6, 6)
    assert lams[trees.index(t)] == 315
    assert _tree_line(t, 315) == f"{tree_notation(t)} l=6 h=3 sign=+1 lambda=315 v=b1b1b1b1b1b1"

    assert pool_fill(fdb6, 2) == ((node(2, 1, [leaf(1)]), leaf(2)), (3, 1))
    assert _tree_line(node(2, 1, [leaf(1)]), 3) == "N(2;1)[L(1)] l=2 h=2 sign=+1 lambda=3 v=b1b1"
    assert _tree_line(leaf(2), 1) == "L(2) l=1 h=1 sign=-1 lambda=1 v=b2"


@pytest.mark.parametrize(
    "fold",
    [vertex_count, height, vertex_monomial, tree_multiplicity, tree_notation,
     lambda x: tree_coefficient(x, faa_di_bruno_spec(3)),
     lambda x: _tree_line(x, 1)],
    ids=["count", "height", "monomial", "multiplicity", "notation", "coefficient", "stats"],
)
@pytest.mark.parametrize(
    "x", [(leaf(1), leaf(2)), (), (2, 2, ()), "L(1)"], ids=["pair", "empty", "tuple", "text"]
)
def test_tree_folds_refuse_anything_but_a_tree(fold, x):
    with pytest.raises(InputError, match="expected a DecoratedTree, got"):
        fold(x)


def test_statistics_of_a_tree_deeper_than_the_recursion_limit():
    # b_1..b_300 with the rows (b_i; b_1; [b_(i-1)]) of coefficient 2: the
    # chain of all of them, built at the default limit, is realized.
    n = 300
    spec = CoproductSpec(
        "chain",
        [Generator(i, i) for i in range(1, n + 1)],
        [CoproductEntry(i, 1, (i - 1,), 2) for i in range(2, n + 1)],
    )
    chain = leaf(1)
    for i in range(2, n + 1):
        chain = node(i, 1, [chain])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        stats = (
            vertex_count(chain),
            height(chain),
            vertex_monomial(chain),
            tree_coefficient(chain, spec),
            _tree_line(chain, 2 ** (n - 1)),
        )
        fill = pool_fill(spec, n)
        hashes = hash(chain), hash(node(n + 1, 1, [chain]))
        multiplicity = tree_multiplicity(chain)
        notation = tree_notation(chain)
        view = view_of(chain)
    finally:
        sys.setrecursionlimit(limit)
    b1_300 = Monomial([1] * n)
    assert stats[:4] == (n, n, b1_300, 2 ** (n - 1))
    assert stats[4].endswith(f" l={n} h={n} sign=+1 lambda={2 ** (n - 1)} v={'b1' * n}")
    # the chain ranks first in b300's pool, the leaf last
    assert (fill[0][0], fill[1][0], len(fill[0])) == (chain, 2 ** (n - 1), n)
    assert hashes[0] == hash(chain) and hashes[0] != hashes[1]
    assert multiplicity == 1
    assert notation == (
        "".join(f"N({i};1)[" for i in range(n, 1, -1)) + "L(1)" + "]" * (n - 1)
    )
    assert view == (tuple(range(n)), (None, *range(n - 1)), (1,) * n)

    # Building a tree sorts its children by tuple order, which a chain of
    # one child per vertex never compares: it builds at the default limit.
    # Its multiplicity hashes no subtree, since no vertex has two children
    # of one source; counting every child rehashed whole subtrees, which
    # took seconds at 6,000 vertices.
    deep = leaf(1)
    for i in range(2, 6001):
        deep = node(i, 1, [deep])
    assert (vertex_count(deep), height(deep)) == (6000, 6000)
    assert tree_multiplicity(deep) == 1


def test_siblings_that_agree_past_the_recursion_limit_are_refused():
    # Two 3,000-vertex chains that differ only at their tips: ordering them
    # as siblings compares down to the tips, which C's tuple comparison does
    # by recursion.  One InputError names the limit; no RecursionError.
    chains = []
    for tip in (1, 2):
        chain = leaf(tip)
        for i in range(3, 3002):
            chain = node(i, 1, [chain])
        chains.append(chain)
    a, b = chains
    with pytest.raises(InputError, match=f"recursion limit {sys.getrecursionlimit()}") as caught:
        node(5, 1, [a, b])
    assert caught.value.__suppress_context__  # shown alone, without the RecursionError
    # The same chain twice is equal by identity, and chains that differ at
    # the root order at once: both build.
    assert node(5, 1, [a, a]).children == (a, a)
    assert node(5, 1, [b, node(3002, 1, [a])]).children == (b, node(3002, 1, [a]))


def test_unrealized_vertex_gives_zero_coefficient(fdb6):
    assert tree_coefficient(node(3, 3, [leaf(1)]), fdb6) == 0
    assert tree_coefficient(node(2, 1, [leaf(2)]), fdb6) == 0


@pytest.mark.parametrize(
    "make, top_only",
    [
        (lambda: faa_di_bruno_spec(7), False),
        (lambda: dualize(grafting_instance(5), 5), False),
        # b300's trees are the chains of every length below it
        (lambda: _chain_table(300, _right_deep), True),
    ],
    ids=["fdb-7", "grafting-5-dual", "chain-300"],
)
def test_tree_stats_is_one_walk_per_statistic(make, top_only):
    # λ comes from the fill, in stored form, and l, h and v from the one
    # walk of the line `trees` prints: each agrees with its own walker.
    spec = make()
    ids = spec.generator_ids()
    for i in ids[-1:] if top_only else ids:
        trees, lams = pool_fill(spec, i)
        assert trees == enumerate_trees(spec, i) and len(lams) == len(trees)
        for t, lam in zip(trees, lams):
            assert lam == tree_coefficient(t, spec)
            assert type(lam) is int or lam.denominator != 1
            l = vertex_count(t)
            assert _tree_line(t, lam) == (
                f"{tree_notation(t)} l={l} h={height(t)} sign={'-1' if l % 2 else '+1'} "
                f"lambda={lam} v={vertex_monomial(t).render()}"
            )


def test_tree_stats_counts_past_an_unrealized_vertex(fdb6, monkeypatch):
    # The root's (3; 3; [2]) is no row, so the fill lists no such tree and
    # the walkers give it coefficient 0.  The line's walk reads no row: every
    # vertex still counts toward l, h and v, and the tree is walked once
    # beside the walk of its notation.
    walks, lookups = [], []
    monkeypatch.setattr("hopfforest.cli._vertices", lambda t: walks.append(t) or _vertices(t))
    for name in ("entries_for", "degree"):
        read = getattr(CoproductSpec, name)
        monkeypatch.setattr(
            CoproductSpec, name, lambda spec, *a, read=read: lookups.append(a) or read(spec, *a)
        )
    t = node(3, 3, [node(2, 1, [leaf(1)])])
    assert _tree_line(t, 0) == "N(3;3)[N(2;1)[L(1)]] l=3 h=3 sign=-1 lambda=0 v=b1b1b3"
    assert walks == [t] and lookups == []
    monkeypatch.undo()
    assert tree_coefficient(t, fdb6) == 0 and t not in pool_fill(fdb6, 3)[0]
    assert (vertex_count(t), height(t), vertex_monomial(t)) == (3, 3, mono(1, 1, 3))


def test_enumeration_counts(fdb6):
    assert {i: len(enumerate_trees(fdb6, i)) for i in range(1, 7)} == {
        1: 1,
        2: 2,
        3: 5,
        4: 12,
        5: 33,
        6: 90,
    }


def test_enumeration_degree_three_exactly(fdb6):
    expected = {
        node(3, 1, [leaf(1), leaf(1)]),
        node(3, 1, [node(2, 1, [leaf(1)])]),
        node(3, 1, [leaf(2)]),
        node(3, 2, [leaf(1)]),
        leaf(3),
    }
    got = enumerate_trees(fdb6, 3)
    assert set(got) == expected
    assert [tree_notation(t) for t in got] == [
        "N(3;1)[L(1),L(1)]",
        "N(3;1)[N(2;1)[L(1)]]",
        "N(3;1)[L(2)]",
        "N(3;2)[L(1)]",
        "L(3)",
    ]
    chain = node(3, 1, [node(2, 1, [leaf(1)])])
    assert tree_coefficient(chain, fdb6) == 12  # 4 * 3


@pytest.mark.parametrize("i", [1, 2, 3, 4, 5, 6])
def test_enumeration_is_sound_and_duplicate_free(fdb6, i):
    trees = enumerate_trees(fdb6, i)
    assert len(set(trees)) == len(trees)
    assert leaf(i) in trees
    for t in trees:
        assert t.source == i
        assert tree_coefficient(t, fdb6) != 0
        degrees = [fdb6.degree(j) for j in vertex_monomial(t)]
        assert sum(degrees) == fdb6.degree(i)


def test_enumeration_rejects_unknown_id(fdb6):
    with pytest.raises(InputError):
        enumerate_trees(fdb6, 9)


def planar_encodings(t):
    """Independent oracle for ordered-assignment multiplicity: materialize
    every planar picture of the tree, where each group of equal-source
    siblings is an ordered tuple, and count the distinct results."""
    if not t.children:
        return {("leaf", t.source)}
    by_source = {}
    for c in t.children:
        by_source.setdefault(c.source, []).append(c)
    group_options = []
    for source in sorted(by_source):
        group = by_source[source]
        options = set()
        for perm in set(permutations(group)):
            pools = [sorted(planar_encodings(c)) for c in perm]
            options.update(iter_product(*pools))
        group_options.append(options)
    out = set()
    for pick in iter_product(*group_options):
        out.add(("node", t.source, t.left) + tuple(pick))
    return out


def test_multiplicity_goldens():
    assert tree_multiplicity(leaf(3)) == 1
    assert tree_multiplicity(example_tree()) == 1
    twins = node(5, 1, [node(2, 1, [leaf(1)]), node(2, 1, [leaf(1)])])
    assert tree_multiplicity(twins) == 1
    mixed = node(5, 1, [node(2, 1, [leaf(1)]), leaf(2)])
    assert tree_multiplicity(mixed) == 2
    assert tree_multiplicity(node(6, 1, [mixed])) == 2


def _multiplicity_by_counting(t):
    """tree_multiplicity as it was computed before it grouped children by
    source first: every child of every vertex counted in a Counter."""
    groups = {}
    for c in t.children:
        groups.setdefault(c.source, Counter())[c] += 1
    out = prod(_multiplicity_by_counting(c) for c in t.children)
    for group in groups.values():
        out *= factorial(sum(group.values()))
        for count in group.values():
            out //= factorial(count)
    return out


@pytest.mark.parametrize(
    "build",
    [lambda: faa_di_bruno_spec(8), lambda: dualize(grafting_instance(5), 5)],
    ids=["fdb8", "graft5-dual"],
)
def test_multiplicity_matches_the_counting_oracle(build):
    spec = build()
    above_one = 0
    for i in spec.generator_ids():
        for t in enumerate_trees(spec, i):
            assert tree_multiplicity(t) == _multiplicity_by_counting(t)
            above_one += tree_multiplicity(t) > 1
    assert above_one > 0


def test_multiplicity_one_below_degree_five(fdb6):
    for i in range(1, 5):
        for t in enumerate_trees(fdb6, i):
            assert tree_multiplicity(t) == 1


@pytest.mark.parametrize("i", [5, 6])
def test_multiplicity_matches_planar_count(fdb6, i):
    for t in enumerate_trees(fdb6, i):
        assert tree_multiplicity(t) == len(planar_encodings(t))


@settings(max_examples=60)
@given(decorated_trees(depth=2))
def test_multiplicity_matches_planar_count_on_random_trees(t):
    assert tree_multiplicity(t) == len(planar_encodings(t))


def test_poset_view_of_tree():
    # preorder: N(6;1) 0, N(2;1) 1, L(1) 2, N(3;1) 3, L(1) 4, L(1) 5
    view = view_of(example_tree())
    assert view == PosetView(tuple(range(6)), (None, 0, 1, 0, 3, 3), (1,) * 6)
    t = node(4, 2, [node(3, 1, [leaf(2)]), leaf(1)])
    assert view_of(t) == ((0, 1, 2, 3), (None, 0, 0, 2), (2, 1, 1, 2))


def test_poset_view_of_forest_and_passthrough():
    view = forest_view([leaf(3), node(2, 1, [leaf(1)])])
    assert view == ((0, 1, 2), (None, 0, None), (1, 1, 3))
    assert view_of(view) is view
    for x in ("not a tree", (leaf(3), leaf(1)), (2, 2, ())):
        with pytest.raises(InputError, match="expected a tree or poset view"):
            view_of(x)


@settings(max_examples=80)
@given(st.lists(decorated_trees(), min_size=1, max_size=3))
def test_view_numbers_vertices_in_root_path_order(ts):
    # The oracle: each vertex's path of child positions, led by its
    # component's index, found by recursion.  Preorder is the paths'
    # lexicographic order, so a vertex's number is its path's rank.
    paths = []

    def walk(t, path):
        paths.append((path, t.left))
        for k, c in enumerate(t.children):
            walk(c, path + (k,))

    for k, t in enumerate(sorted(ts)):
        walk(t, (k,))
    assert paths == sorted(paths)
    number = {path: v for v, (path, _) in enumerate(paths)}
    assert forest_view(ts) == (
        tuple(range(len(paths))),
        tuple(number.get(path[:-1]) for path, _ in paths),
        tuple(left for _, left in paths),
    )
    assert view_of(ts[0]) == forest_view(ts[:1])


def test_corolla_cuts_small():
    assert corolla_cuts(leaf(5)) == ()
    two_chain = node(2, 1, [leaf(1)])
    cuts = {"*".join(map(tree_notation, c.cut)): c for c in corolla_cuts(two_chain)}
    assert set(cuts) == {"L(1)", "N(2;1)[L(1)]"}
    assert cuts["L(1)"].quotient == two_chain
    assert cuts["N(2;1)[L(1)]"].quotient == leaf(2)


def test_corolla_cuts_of_example_tree(fdb6):
    t = example_tree()
    cuts = corolla_cuts(t)
    assert len(cuts) == 14
    assert len({c.vertices for c in cuts}) == 14
    by_height = Counter(max(map(height, c.cut)) for c in cuts)
    assert by_height == {1: 7, 2: 7}

    view = view_of(t)
    lam = tree_coefficient(t, fdb6)
    for c in cuts:
        # Upward closed, minima recorded, and the counting identities.
        for y in view.vertices:
            if view.parent[y] in c.vertices:
                assert y in c.vertices
        assert c.meet == {
            x for x in c.vertices if view.parent[x] not in c.vertices
        }
        assert vertex_count(t) == (
            vertex_count(c.quotient) + sum(map(vertex_count, c.cut)) - len(c.meet)
        )
        assert lam == tree_coefficient(c.quotient, fdb6) * prod(
            tree_coefficient(u, fdb6) for u in c.cut
        )

    # The largest cut keeps everything except the root: both terminal
    # corollas come off at once and the quotient contracts each to a leaf.
    full = [c for c in cuts if c.vertices == set(view.vertices) - {0}]
    assert len(full) == 1
    assert full[0].quotient == node(6, 1, [leaf(2), leaf(3)])
    assert full[0].cut == (node(2, 1, [leaf(1)]), node(3, 1, [leaf(1), leaf(1)]))


@settings(max_examples=40)
@given(decorated_trees(depth=2, width=2))
def test_corolla_cut_invariants_hold_generically(t):
    view = view_of(t)
    for c in corolla_cuts(t):
        assert c.cut == tuple(sorted(c.cut))
        assert 1 <= max(map(height, c.cut)) <= 2
        assert vertex_count(t) == (
            vertex_count(c.quotient) + sum(map(vertex_count, c.cut)) - len(c.meet)
        )
        assert c.quotient.source == t.source
        kept = set(c.quotient_view.vertices)
        assert c.meet <= kept <= set(view.vertices)
