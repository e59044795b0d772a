"""Truncated preLie algebras: brace extension, enveloping product, identity
checkers, the free grafting instance, and graded dualization."""

import json
from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction
from itertools import accumulate, product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfforest.algebra import UNIT, Monomial, Polynomial, Tensor, mono
from hopfforest.coproduct import coassociativity_report, counit_report
from hopfforest.enveloping import _frame_of
from hopfforest.errors import ConstructionError, InputError
from hopfforest.hopfspec import Generator, graded_monomials
from hopfforest.prelie import (
    PreLieSpec,
    associativity_report,
    brace_action,
    dualize,
    filtration_report,
    grafting_instance,
    guin_oudom_mul,
    guin_oudom_poly,
    load_prelie,
    prelie_check,
    prelie_from_dict,
    rooted_tree_shapes,
    save_prelie,
)

from json_documents import prelie_to_dict
from monomial_walks import brace_through_the_product, witt
from prelie_recursions import polynomial_recursions, prelie_product, unshuffle_coproduct
from vector_fields import vector_fields

SHAPE_LABELS = [
    "[]",
    "[[]]",
    "[[][]]",
    "[[[]]]",
    "[[][][]]",
    "[[][[]]]",
    "[[[][]]]",
    "[[[[]]]]",
]

GRAFT_PRODUCTS = {
    (1, 1): {mono(2): 1},
    (1, 2): {mono(4): 1},
    (1, 3): {mono(7): 1},
    (1, 4): {mono(8): 1},
    (2, 1): {mono(3): 1, mono(4): 1},
    (2, 2): {mono(6): 1, mono(8): 1},
    (3, 1): {mono(5): 1, mono(6): 2},
    (4, 1): {mono(6): 1, mono(7): 1, mono(8): 1},
}


def test_rooted_tree_shapes():
    shapes = rooted_tree_shapes(4)
    assert len(shapes) == 8
    assert shapes[0] == ((), 1)
    assert [n for _, n in shapes] == [1, 2, 3, 3, 4, 4, 4, 4]
    assert rooted_tree_shapes(1) == [((), 1)]
    for bad in (0, True):
        with pytest.raises(InputError, match=f"max_vertices must be >= 1, got {bad}"):
            rooted_tree_shapes(bad)


def reference_shapes(max_vertices):
    """Oracle: the shapes of each size n as the multisets of smaller shapes
    whose sizes sum to n - 1, drawn from a (shape, size) pool, and that
    pool."""
    pool = [((), 1)]
    for n in range(2, max_vertices + 1):
        def child_forests(total, start):
            if total == 0:
                yield ()
                return
            for idx in range(start, len(pool)):
                t, size = pool[idx]
                if size <= total:
                    for rest in child_forests(total - size, idx):
                        yield (t,) + rest

        fresh = sorted({tuple(sorted(f)) for f in child_forests(n - 1, 0)})
        pool.extend((t, n) for t in fresh)
    return pool


# OEIS A000081: rooted trees with n unlabeled vertices, n = 1..11.
ROOTED_TREES = (1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842)


def test_rooted_tree_shapes_match_the_child_forest_oracle_and_oeis():
    expected = reference_shapes(len(ROOTED_TREES))
    counts = list(accumulate(ROOTED_TREES))
    assert counts == [1, 2, 4, 8, 17, 37, 85, 200, 486, 1205, 3047]
    for n, count in enumerate(counts, start=1):
        assert rooted_tree_shapes(n) == expected[:count]


def test_grafting_instance_table(graft4):
    assert graft4.name == "grafting-4"
    assert graft4.truncation == 4
    assert [graft4.basis[i].label for i in graft4.basis_ids()] == SHAPE_LABELS
    assert [graft4.degree(i) for i in graft4.basis_ids()] == [1, 2, 3, 3, 4, 4, 4, 4]
    assert {k: dict(v.terms()) for k, v in graft4.products.items()} == {
        k: {m: c for m, c in v.items()} for k, v in GRAFT_PRODUCTS.items()
    }
    assert graft4.validate() == []
    assert prelie_check(graft4) == []


def test_basis_and_products_are_frozen_after_construction():
    spec = grafting_instance(3)
    with pytest.raises(TypeError):
        spec.basis[2] = Generator(2, 5)
    with pytest.raises(TypeError):
        spec.products[1, 1] = Polynomial.variable(3)
    with pytest.raises(TypeError):
        del spec.products[1, 1]
    assert spec.validate() == []


def test_basis_product_and_truncation_flag(graft4):
    assert prelie_product(graft4, 2, 1) == Polynomial({mono(3): 1, mono(4): 1})
    assert prelie_product(graft4, 3, 1) == Polynomial({mono(5): 1, mono(6): 2})
    # Degree 3 + 2 exceeds the truncation 4: the table cannot say.
    with pytest.raises(InputError, match="above the truncation 4"):
        prelie_product(graft4, 3, 2)
    with pytest.raises(InputError):
        graft4.degree(99)


def test_brace_action_goldens(graft4):
    assert brace_action(graft4, 2, Monomial(())) == Polynomial.variable(2)
    assert brace_action(graft4, 1, mono(1)) == Polynomial.variable(2)
    # One vertex acted on by two single vertices: graft both, in either
    # nesting, minus the nested-first correction; only the cherry survives.
    assert brace_action(graft4, 1, mono(1, 1)) == Polynomial.variable(3)
    # Hand expansion through the declared table:
    #   (2 . 1) . 1 - 2 . (1 . 1) = (b3 + b4) . 1 - 2 . b2
    #                             = (b5 + 2 b6) + (b6 + b7 + b8) - (b6 + b8)
    assert brace_action(graft4, 2, mono(1, 1)) == Polynomial(
        {mono(5): 1, mono(6): 2, mono(7): 1}
    )


def test_brace_action_flags_truncation(graft4):
    # Degrees 3 + 2 and 2 + 3 both exceed the truncation 4.
    with pytest.raises(InputError, match="above the truncation 4"):
        brace_action(graft4, 3, mono(2))
    with pytest.raises(InputError, match="above the truncation 4"):
        brace_action(graft4, 2, mono(1, 1, 1))
    # With every product zero, b1 . b1 vanishes before any product is read
    # at degree 3, so only the degree check sees that b1 . b1b1 lies above.
    zero = PreLieSpec("zero", [Generator(1, 1)], {}, 2)
    assert brace_action(zero, 1, mono(1)).is_zero
    with pytest.raises(InputError, match="above the truncation 2"):
        brace_action(zero, 1, mono(1, 1))
    # The unit argument is the element itself, whatever its degree.
    assert brace_action(graft4, 8, Monomial(())) == Polynomial.variable(8)
    with pytest.raises(InputError):
        brace_action(graft4, 99, mono(1))


@pytest.mark.parametrize("i", [True, False, 0, -1, 1.0, "1"])
def test_brace_action_refuses_an_id_that_is_no_positive_int(graft4, i):
    # True == 1 as a dict key, so the brace once read True as b1 and
    # returned 1 b2; every id is refused with one InputError on entry.
    with pytest.raises(InputError, match=f"^basis ids must be positive integers, got {i!r}$"):
        brace_action(graft4, i, mono(1))
    assert brace_action(graft4, 1, mono(1)) == Polynomial.variable(2)


def reference_brace(spec, i, right):
    """Same recursion as brace_action but peeling the FIRST factor; the
    defining identity makes the two routes agree within the truncation."""
    if right.is_unit:
        return Polynomial.variable(i)
    if len(right) == 1:
        return prelie_product(spec, i, right.indices[0])
    first = right.indices[0]
    rest = Monomial(right.indices[1:])
    total = Polynomial.zero()
    for m, c in reference_brace(spec, i, rest).terms():
        total = total + prelie_product(spec, m.indices[0], first) * c
    seen = set()
    for pos, j in enumerate(rest.indices):
        if j in seen:
            continue
        seen.add(j)
        mult = rest.indices.count(j)
        removed = Monomial(rest.indices[:pos] + rest.indices[pos + 1 :])
        for m, c in prelie_product(spec, j, first).terms():
            total = total - reference_brace(spec, i, removed * m) * (c * mult)
    return total


def test_brace_action_is_peel_order_independent(graft4):
    for i in graft4.basis_ids():
        for right, _ in graded_monomials(graft4.basis.values(), 4 - graft4.degree(i)):
            assert brace_action(graft4, i, right) == reference_brace(graft4, i, right)


def _braces_match_the_product_route(spec):
    brace, product = brace_through_the_product(spec)
    for i in spec.basis_ids():
        top = spec.truncation - spec.degree(i)
        for right, _ in graded_monomials(spec.basis.values(), top):
            assert brace_action(spec, i, right) == brace(i, right), (i, right)
    mons = graded_monomials(spec.basis.values(), spec.truncation)
    for a, da in mons:
        for b, db in mons:
            if da + db > spec.truncation:
                break
            assert guin_oudom_mul(spec, a, b) == product(a, b), (a, b)


@pytest.mark.parametrize(
    "make",
    [lambda n=n: grafting_instance(n) for n in (4, 5, 6)] + [lambda: witt(8)],
    ids=["grafting-4", "grafting-5", "grafting-6", "witt-8"],
)
def test_brace_from_the_products_matches_the_product_route(make):
    # The brace, and the enveloping product built on it, equal the pair
    # whose brace reads its derivation term off the enveloping product.
    _braces_match_the_product_route(make())


def test_brace_from_the_products_matches_the_product_route_off_preLie():
    # The two derivation terms agree on every bilinear table, so also on
    # corruptions that fail the preLie identity.
    tables = list(_single_constant_corruptions(grafting_instance(4)))
    assert len(tables) == 13
    assert sum(bool(prelie_check(spec)) for spec in tables) == 10
    for spec in tables:
        _braces_match_the_product_route(spec)


def test_enveloping_product_goldens(graft4):
    unit = Monomial(())
    assert guin_oudom_mul(graft4, mono(2), unit) == Polynomial.variable(2)
    assert guin_oudom_mul(graft4, unit, mono(2)) == Polynomial.variable(2)
    # Two factors against one: the three maps are stay, hit-first, hit-second.
    lhs = guin_oudom_mul(graft4, mono(1, 1), mono(2))
    hit = brace_action(graft4, 1, mono(2))
    expected = (
        Polynomial.single(mono(1, 1, 2))
        + hit * Polynomial.variable(1)
        + Polynomial.variable(1) * hit
    )
    assert lhs == expected
    # One factor against two: stay-stay, one-in, other-in, both-in.
    lhs = guin_oudom_mul(graft4, mono(1), mono(1, 2))
    expected = (
        Polynomial.single(mono(1, 1, 2))
        + Polynomial.variable(2) * brace_action(graft4, 1, mono(1))
        + Polynomial.variable(1) * brace_action(graft4, 1, mono(2))
        + brace_action(graft4, 1, mono(1, 2))
    )
    assert lhs == expected


def test_enveloping_product_on_single_generators(graft4):
    got = guin_oudom_mul(graft4, mono(1), mono(1))
    assert got == Polynomial.single(mono(1, 1)) + Polynomial.variable(2)
    # b2 * b1b1b1 needs b2 . b1b1b1 at degree 5.
    with pytest.raises(InputError, match="above the truncation 4"):
        guin_oudom_mul(graft4, mono(2), mono(1, 1, 1))


@pytest.mark.parametrize(
    "memoized, above, within",
    [
        (brace_action, (1, mono(1, 1, 1, 1)), (2, mono(1, 1))),
        (guin_oudom_mul, (mono(2), mono(1, 1, 1)), (mono(1, 1), mono(1, 2))),
    ],
    ids=["brace", "enveloping-product"],
)
def test_prelie_memos_store_successes_on_their_spec(memoized, above, within):
    text = save_prelie(grafting_instance(4))
    graft4 = load_prelie(text)

    def stored(spec):
        """The packed value ``within`` holds in spec's frame memo, if any."""
        frame = spec._frame
        if memoized is brace_action:
            i, right = within
            return frame.braces.get((frame.field[i], frame.pack(right)))
        a, b = within
        return frame.products.get((frame.pack(a), frame.pack(b)))

    def sizes(spec):
        frame = spec._frame
        return frame and (len(frame.braces), len(frame.products), len(frame.full))

    # a call above the truncation raises before any packing, so the first
    # builds no frame; after a success, it stores nothing and raises again
    with pytest.raises(InputError, match="above the truncation 4"):
        memoized(graft4, *above)
    assert graft4._frame is None
    first = memoized(graft4, *within)
    entry, filled = stored(graft4), sizes(graft4)
    assert entry is not None
    with pytest.raises(InputError, match="above the truncation 4"):
        memoized(graft4, *above)
    assert sizes(graft4) == filled
    # a repeated call reads the stored packed value: nothing is added
    assert memoized(graft4, *within) == first
    assert stored(graft4) is entry and sizes(graft4) == filled
    # the memo lives on its spec's frame: a second load computes it again
    spec = load_prelie(text)
    assert memoized(spec, *within) == first
    assert stored(spec) == entry and stored(spec) is not entry


def test_enveloping_poly_is_bilinear(graft4):
    p = Polynomial({mono(1): 2})
    q = Polynomial({mono(1): 1, mono(2): 3})
    got = guin_oudom_poly(graft4, p, q)
    expected = (
        guin_oudom_mul(graft4, mono(1), mono(1)) * 2
        + guin_oudom_mul(graft4, mono(1), mono(2)) * 6
    )
    assert got == expected


@pytest.mark.parametrize("side", ["p", "q"])
@pytest.mark.parametrize(
    "value, kind",
    [({mono(1): 1}, "dict"), (Tensor.single((mono(2), mono(1))), "Tensor")],
    ids=["dict", "tensor"],
)
def test_enveloping_poly_refuses_anything_but_a_polynomial(graft4, side, value, kind):
    # Each side was read through .items(): a plain dict passed as a
    # polynomial, and a rank-2 tensor failed as a malformed basis id.
    one = Polynomial.single(mono(1))
    p, q = (value, one) if side == "p" else (one, value)
    with pytest.raises(InputError, match=f"^expected a Polynomial, got {kind}$"):
        guin_oudom_poly(graft4, p, q)


def test_identity_reports_are_clean(graft4):
    assert associativity_report(graft4) == []
    assert filtration_report(graft4) == []


def broken_prelie():
    """Validates structurally but fails the defining identity: the two
    associator orders differ on the basis triple (1, 1, 2)."""
    basis = [Generator(i, i) for i in range(1, 5)]
    products = {
        (1, 1): Polynomial.variable(2),
        (1, 2): Polynomial.variable(3),
        (2, 1): Polynomial.variable(3),
        (2, 2): Polynomial.variable(4),
        (3, 1): Polynomial.variable(4) * 2,
        (1, 3): Polynomial.variable(4),
    }
    return PreLieSpec("broken", basis, products, 4)


def occurrence_brace(spec, i, right):
    """Reference brace: peels the last factor b of B * b like brace_action,
    but sums the derivation B acted on by b over the occurrences of each
    distinct factor of B."""
    degree = spec.degree(i) + spec.monomial_degree(right)
    if right.is_unit:
        return Polynomial.variable(i)
    if degree > spec.truncation:
        raise InputError(f"brace lands at degree {degree}")
    if len(right) == 1:
        return prelie_product(spec, i, right.indices[0])
    rest = Monomial(right.indices[:-1])
    last = right.indices[-1]
    total = Polynomial.zero()
    for m, c in occurrence_brace(spec, i, rest).terms():
        total = total + prelie_product(spec, m.indices[0], last) * c
    for j in set(rest.indices):
        pos = rest.indices.index(j)
        removed = Monomial(rest.indices[:pos] + rest.indices[pos + 1 :])
        mult = rest.indices.count(j)
        for m, c in prelie_product(spec, j, last).terms():
            total = total - occurrence_brace(spec, i, removed * m) * (c * mult)
    return total


def assignment_mul(spec, a, b):
    """Reference enveloping product: the sum over all maps from the right
    factors to {0} + left positions; factors mapped to 0 stay as a plain
    cofactor, the block over position t acts on the t-th left factor."""
    left, right = a.indices, b.indices
    total = Polynomial.zero()
    for assign in iter_product(range(len(left) + 1), repeat=len(right)):
        piece = Polynomial.single(
            Monomial(r for r, t in zip(right, assign) if t == 0)
        )
        for t, x in enumerate(left, start=1):
            block = Monomial(r for r, s in zip(right, assign) if s == t)
            piece = piece * occurrence_brace(spec, x, block)
        total = total + piece
    return total


@pytest.mark.parametrize(
    "make",
    [lambda: grafting_instance(4), lambda: grafting_instance(5), broken_prelie],
    ids=["grafting-4", "grafting-5", "broken"],
)
def test_recursions_match_the_reference_definitions(make):
    # Both identities are pure combinatorics, so they hold on the broken
    # table too.  One degree past the truncation, an input raises
    # InputError under both definitions or under neither.
    spec = make()
    top = spec.truncation + 1

    def outcome(fn, *args):
        try:
            return fn(spec, *args)
        except InputError:
            return InputError

    for i in spec.basis_ids():
        for right, _ in graded_monomials(spec.basis.values(), top - spec.degree(i)):
            got = outcome(brace_action, i, right)
            assert got == outcome(occurrence_brace, i, right), (i, right)
            fits = spec.degree(i) + spec.monomial_degree(right) <= spec.truncation
            assert (got is not InputError) == (fits or right.is_unit)
    mons = [m for m, _ in graded_monomials(spec.basis.values(), top)]
    raised = 0
    for a in mons:
        for b in mons:
            degree = spec.monomial_degree(a) + spec.monomial_degree(b)
            if degree > top:
                continue
            got = outcome(guin_oudom_mul, a, b)
            assert got == outcome(assignment_mul, a, b), (a, b)
            assert got is not InputError or degree == top
            raised += got is InputError
    assert raised


def test_identity_checker_catches_violations():
    bad = broken_prelie()
    assert bad.validate() == []
    problems = prelie_check(bad)
    assert problems
    assert any("(1, 1, 2)" in p or "(1, 2, 1)" in p for p in problems)


@pytest.mark.parametrize("label", [5, b"b1", ["b1"]], ids=["int", "bytes", "list"])
def test_a_label_the_loader_refuses_the_constructor_refuses(graft4, label):
    # Before the constructor checked labels, this table built and saved as
    # '"label": 5', which load_prelie then refused.
    basis = [Generator(1, 1, label), Generator(2, 2)]
    with pytest.raises(InputError) as exc:
        PreLieSpec("x", basis, {(1, 1): Polynomial.variable(2)}, 2)
    assert str(exc.value) == (
        f"invalid preLie spec: basis element 1 has label {label!r}; must be a string"
    )
    doc = prelie_to_dict(graft4)
    doc["basis"][0]["label"] = label
    with pytest.raises(InputError, match=r"^basis\[0\]: label must be a string$"):
        prelie_from_dict(doc)


def test_validate_catches_structure_problems():
    g = [Generator(1, 1), Generator(2, 2)]
    cases = [
        ([Generator(1, 1), Generator(1, 2)], {}, 3, "duplicate basis id 1"),
        ([Generator(1, 0)], {}, 3, "basis element 1 has degree 0"),
        # what load_prelie refuses, the constructor refuses
        ([Generator(0, 1)], {}, 3, "basis ids must be positive integers, got 0"),
        ([Generator(True, 1)], {}, 3, "basis ids must be positive integers, got True"),
        ([Generator(1, True)], {}, 3, "basis element 1 has degree True"),
        ([Generator(1, "1"), g[1]], {(1, 1): Polynomial.variable(2)}, 4, "degree '1'"),
        (g, {(True, 1): Polynomial.variable(2)}, 4, "product (True, 1): unknown basis ids"),
        (g, {}, 0, "truncation must be a positive integer, got 0"),
        (g, {}, True, "truncation must be a positive integer, got True"),
        (g, {(1, 3): Polynomial.variable(2)}, 4, "product (1, 3): unknown basis ids"),
        (
            [Generator(1, 2), Generator(2, 4)],
            {(1, 1): Polynomial.variable(2)},
            3,
            "product (1, 1): lands at degree 4, above the truncation 3",
        ),
        (
            g,
            {(1, 1): Polynomial.single(mono(1, 1))},
            4,
            "result term b1b1 is not a basis element",
        ),
        (g, {(1, 1): Polynomial.variable(5)}, 4, "unknown result id 5"),
        (
            [Generator(1, 1), Generator(2, 3)],
            {(1, 1): Polynomial.variable(2)},
            4,
            "result b2 has degree 3, expected 2",
        ),
    ]
    for basis, products, truncation, message in cases:
        with pytest.raises(InputError) as exc:
            PreLieSpec("bad", basis, products, truncation)
        assert str(exc.value).startswith("invalid preLie spec: ")
        assert message in str(exc.value)


@pytest.mark.parametrize(
    "products, problem",
    [
        ({(1, 1): 5}, "product (1, 1): 5 is not a Polynomial"),
        ({(1, 1): 0}, "product (1, 1): 0 is not a Polynomial"),
        ({1: Polynomial.variable(2)}, "product key 1 is not a pair of basis ids"),
        (
            {1: Polynomial.variable(2), (1, 1): Polynomial.variable(2)},
            "product key 1 is not a pair of basis ids",
        ),
        ({(1, 1, 1): Polynomial.variable(2)}, "product key (1, 1, 1) is not a pair of basis ids"),
    ],
    ids=["int-value", "zero-int-value", "int-key", "int-key-beside-a-pair", "triple-key"],
)
def test_a_product_that_is_no_pair_to_a_polynomial_is_one_problem(products, problem):
    # A value without is_zero crashed the constructor (AttributeError), a key
    # that is no pair the sort or the unpacking (TypeError).
    with pytest.raises(InputError) as exc:
        PreLieSpec("bad", [Generator(1, 1), Generator(2, 2)], products, 2)
    assert str(exc.value) == f"invalid preLie spec: {problem}"


@pytest.mark.parametrize("element", [(1, 1), 1, "b1"], ids=["tuple", "int", "str"])
def test_a_basis_element_that_is_no_generator_is_one_problem(element):
    # Such an element crashed the id map built before validate
    # (AttributeError on its id); beside a good one, validate names it.
    with pytest.raises(InputError) as exc:
        PreLieSpec("x", [element, Generator(2, 1)], {}, 2)
    assert str(exc.value) == f"invalid preLie spec: basis element {element!r} is not a Generator"


@pytest.mark.parametrize(
    "products", [[((1, 1), Polynomial.variable(2))], None, 5], ids=["pairs", "none", "int"]
)
def test_products_that_are_no_mapping_are_refused(products):
    # A list of (key, value) pairs crashed on .items() (AttributeError).
    with pytest.raises(InputError) as exc:
        PreLieSpec("x", [Generator(1, 1), Generator(2, 2)], products, 2)
    assert str(exc.value) == f"invalid preLie spec: products {products!r} are not a mapping"


def test_plain_tuples_are_monomials_at_the_boundary():
    # A Monomial equals the sorted tuple of its ids, so the public brace and
    # enveloping product read such a tuple as the monomial; they crashed on
    # its missing is_unit (AttributeError).  Anything else is refused.
    spec = grafting_instance(3)
    assert brace_action(spec, 1, (1,)) == brace_action(spec, 1, mono(1))
    assert brace_action(spec, 2, ()) == Polynomial.variable(2)
    assert guin_oudom_mul(spec, (1,), (1,)) == guin_oudom_mul(spec, mono(1), mono(1))
    assert guin_oudom_mul(spec, (), (1, 2)) == Polynomial.single(mono(1, 2))
    for bad in ((2, 1), [1], 1, "1", (0,), (1.0,), (True,)):
        with pytest.raises(InputError):
            brace_action(spec, 1, bad)
        with pytest.raises(InputError):
            guin_oudom_mul(spec, bad, (1,))
        with pytest.raises(InputError):
            guin_oudom_mul(spec, (1,), bad)


def test_unshuffle_coproduct():
    assert unshuffle_coproduct(mono(1)) == Tensor(
        2, {(mono(1), Monomial(())): 1, (Monomial(()), mono(1)): 1}
    )
    got = unshuffle_coproduct(mono(1, 1))
    assert got.coefficient((mono(1), mono(1))) == 2
    assert got.coefficient((mono(1, 1), Monomial(()))) == 1
    assert (2 * unshuffle_coproduct(mono(1))).coefficient(
        (mono(1), Monomial(()))
    ) == 2


def test_monomial_enumeration(graft4):
    mons = graded_monomials(graft4.basis.values(), 2)
    assert [m.render() for m, _ in mons] == ["1", "b1", "b2", "b1b1"]
    assert all(
        graft4.monomial_degree(m) <= 4
        for m, _ in graded_monomials(graft4.basis.values(), 4)
    )


DUAL_ENTRIES = {
    (2, 1, (1,)): "1",
    (3, 1, (1, 1)): "1/2",
    (3, 2, (1,)): "1",
    (4, 1, (2,)): "1",
    (4, 2, (1,)): "1",
    (5, 1, (1, 1, 1)): "1/6",
    (5, 2, (1, 1)): "1/2",
    (5, 3, (1,)): "1",
    (6, 1, (1, 2)): "1",
    (6, 2, (1, 1)): "1",
    (6, 2, (2,)): "1",
    (6, 3, (1,)): "2",
    (6, 4, (1,)): "1",
    (7, 1, (3,)): "1",
    (7, 2, (1, 1)): "1/2",
    (7, 4, (1,)): "1",
    (8, 1, (4,)): "1",
    (8, 2, (2,)): "1",
    (8, 4, (1,)): "1",
}


def test_dualize_golden_table(dual4):
    assert dual4.name == "grafting-4-dual"
    got = {(e.source, e.left, e.right): str(e.coeff) for e in dual4.entries}
    assert got == DUAL_ENTRIES
    assert dual4.validate() == []
    assert coassociativity_report(dual4, 4) == []
    assert counit_report(dual4, 4) == []


def test_dualize_input_rules(graft4):
    with pytest.raises(InputError):
        dualize(graft4, 0)
    with pytest.raises(InputError):
        dualize(graft4, 5)
    with pytest.raises(ConstructionError):
        dualize(broken_prelie(), 4)


def test_dualize_rejects_a_bool_max_degree(graft4):
    with pytest.raises(InputError, match="max_degree must be >= 1, got True"):
        dualize(graft4, True)


def test_json_roundtrip(graft4):
    for spec in (graft4, grafting_instance(6)):
        text = save_prelie(spec)
        again = load_prelie(text)
        assert again.name == spec.name
        assert again.truncation == spec.truncation
        assert again.basis == spec.basis
        assert again.products == spec.products
        assert save_prelie(again) == text
        assert load_prelie(text.encode()).products == spec.products


def _dumps(spec):
    """The layout `save_prelie` writes, through json's own indented encoder."""
    return json.dumps(prelie_to_dict(spec), indent=2) + "\n"


#: Texts json escapes: a quote, a backslash, control characters, non-ASCII,
#: a character past the BMP (a surrogate pair) and a lone surrogate.
_ESCAPED = [
    'q"uote', "back\\slash", "\x00\x1f\t\n\x7f", "caf\u00e9", "\U0001F600", "\ud800", "</a>"
]


def _escaped_prelie():
    basis = [Generator(i, 1, label) for i, label in enumerate(_ESCAPED, 1)] + [Generator(9, 2)]
    return PreLieSpec("".join(_ESCAPED), basis, {(1, 7): Polynomial.variable(9) * -3}, 2)


def _coefficient_prelie():
    coeffs = [-1, Fraction(-7, 3), Fraction(10**600 + 1, 7), -(10**4000), 10**299 * 3]
    basis = [Generator(i, 1) for i in range(1, len(coeffs) + 1)]
    basis += [Generator(8, 2, "top"), Generator(9, 2)]
    products = {
        (i, 1): Polynomial({mono(8): c, mono(9): 1}) for i, c in enumerate(coeffs, 1)
    }
    return PreLieSpec("c", basis, products, 2)


_SAVED_PRELIE = {
    **{f"grafting-{n}": (lambda n=n: grafting_instance(n)) for n in range(1, 8)},
    **{f"witt-{n}": (lambda n=n: witt(n)) for n in (1, 4, 8, 10)},
    "empty": lambda: PreLieSpec("", [], {}, 1),
    "no-products": lambda: PreLieSpec("n", [Generator(1, 1)], {}, 3),
    "escaped-texts": _escaped_prelie,
    "coefficients": _coefficient_prelie,
}


@pytest.mark.parametrize("make", _SAVED_PRELIE.values(), ids=_SAVED_PRELIE.keys())
def test_save_prelie_is_json_dumps_with_indent_two(make):
    spec = make()
    assert save_prelie(spec) == _dumps(spec)


@settings(max_examples=100, derandomize=True)
@given(
    st.text(),
    st.lists(st.one_of(st.none(), st.text()), min_size=1, max_size=3),
    st.lists(st.one_of(st.integers(), st.fractions()).filter(bool), max_size=9),
)
def test_save_prelie_is_json_dumps_on_drawn_texts_and_coefficients(name, labels, coeffs):
    """Products b_i . b_j = c b_top over degree-1 elements with drawn
    labels, under a drawn name, with drawn coefficients."""
    top = len(labels) + 1
    basis = [Generator(i, 1, label) for i, label in enumerate(labels, 1)] + [Generator(top, 2)]
    pairs = [(i, j) for i in range(1, top) for j in range(1, top)]
    products = {key: Polynomial.variable(top) * c for key, c in zip(pairs, coeffs)}
    spec = PreLieSpec(name, basis, products, 2)
    assert save_prelie(spec) == _dumps(spec)


def _product(pos, **fields):
    return lambda d: d["products"][pos].update(**fields)


def _term(pos, **fields):
    return lambda d: d["products"][pos]["result"][0].update(**fields)


BIG = "1" * 5000
INT_LIMIT = (
    "Exceeds the limit (4300 digits) for integer string conversion: value has "
    "5000 digits; use sys.set_int_max_str_digits() to increase the limit"
)


# The loader's messages, pinned verbatim.  The first products of grafting-4
# are (1, 1) -> b2, (1, 2) -> b4, (1, 3) -> b7 and (1, 4) -> b8.
LOADER_CASES = [
    (lambda d: d.update(extra=1), "unknown top-level fields ['extra']"),
    (
        lambda d: d.pop("truncation"),
        "invalid preLie spec: truncation must be a positive integer, got None",
    ),
    (
        lambda d: d.update(truncation=True),
        "invalid preLie spec: truncation must be a positive integer, got True",
    ),
    (lambda d: d["basis"][0].update(extra=1), "basis[0]: unknown fields ['extra']"),
    (_product(0, extra=1), "products[0]: unknown fields ['extra']"),
    (
        _term(0, coeff="1/0"),
        "products[0].result[0]: bad coefficient '1/0' (Fraction(1, 0))",
    ),
    (
        lambda d: d["products"].append(dict(d["products"][0])),
        "products[8]: duplicate pair (1, 1)",
    ),
    (_term(0, id=99), "invalid preLie spec: product (1, 1): unknown result id 99"),
    (
        _product(1, left=True),
        "products[1]: generator ids must be positive integers, got True",
    ),
    (_product(1, result="x"), "products[1]: result must be a list"),
    (_product(1, result=[3]), "products[1].result[0] must be an object"),
    (
        _term(1, id=0),
        "products[1].result[0]: generator ids must be positive integers, got 0",
    ),
    (_term(1, extra=1), "products[1].result[0]: unknown fields ['extra']"),
    (
        _term(1, coeff=1.5),
        "products[1].result[0]: coeff must be an integer or 'p/q' string, got 1.5",
    ),
    (
        _term(1, coeff="1/0"),
        "products[1].result[0]: bad coefficient '1/0' (Fraction(1, 0))",
    ),
    (
        _term(1, coeff=BIG),
        f"products[1].result[0]: bad coefficient '{BIG}' ({INT_LIMIT})",
    ),
    (
        lambda d: d["products"].append(dict(d["products"][2])),
        "products[8]: duplicate pair (1, 3)",
    ),
    (
        _term(1, id=1),
        "invalid preLie spec: product (1, 2): result b1 has degree 1, expected 3",
    ),
    (
        lambda d: (_term(1, id=99)(d), _term(3, id=1)(d)),
        "invalid preLie spec: product (1, 2): unknown result id 99; "
        "product (1, 4): result b1 has degree 1, expected 4",
    ),
    (
        lambda d: (_term(1, coeff="x")(d), _term(3, id=0)(d)),
        "products[1].result[0]: bad coefficient 'x' (not 'p' or 'p/q')",
    ),
    (lambda d: d.update(name=3), "preLie spec needs a string 'name'"),
    (lambda d: d.pop("basis"), "preLie spec needs a 'basis' list"),
    (lambda d: d.update(products={}), "preLie spec needs a 'products' list"),
    (
        lambda d: d["products"].__setitem__(1, [1, 2, []]),
        "products[1] must be an object",
    ),
    # within a product or a term, the first field in message order wins
    (_product(1, extra=1, left=True), "products[1]: unknown fields ['extra']"),
    (
        _product(1, left=0, right=True),
        "products[1]: generator ids must be positive integers, got 0",
    ),
    (
        lambda d: d["products"].append(dict(d["products"][0], result="x")),
        "products[8]: duplicate pair (1, 1)",
    ),
    (
        _term(1, id=0, coeff=1.5),
        "products[1].result[0]: generator ids must be positive integers, got 0",
    ),
]


# Parametrized on the mutation alone, so the earlier cases keep their test ids.
@pytest.mark.parametrize("mutate", [mutate for mutate, _ in LOADER_CASES])
def test_prelie_loader_is_strict(graft4, mutate):
    doc = prelie_to_dict(graft4)
    mutate(doc)
    with pytest.raises(InputError) as exc:
        prelie_from_dict(doc)
    assert str(exc.value) == dict(LOADER_CASES)[mutate]


class Id(IntEnum):
    ONE = 1
    TWO = 2
    FOUR = 4


def test_prelie_loader_accepts_int_and_dict_subclasses(graft4):
    # As for coproduct tables: IntEnum ids and dict-subclass products and
    # terms load as their plain values.
    doc = prelie_to_dict(graft4)
    plain = prelie_from_dict(doc)
    product = doc["products"][1]
    assert (product["left"], product["right"], product["result"][0]["id"]) == (1, 2, 4)
    term = OrderedDict(product["result"][0], id=Id.FOUR)
    doc["products"][1] = OrderedDict(product, left=Id.ONE, right=Id.TWO, result=[term])
    loaded = prelie_from_dict(doc)
    assert loaded.products == plain.products
    assert save_prelie(loaded) == save_prelie(plain)


def test_prelie_loader_reads_coefficients_exactly(graft4):
    doc = prelie_to_dict(graft4)
    doc["products"][1]["result"][0]["coeff"] = "+3"
    doc["products"][2]["result"][0]["coeff"] = "-0"  # a zero product is no product
    doc["products"][3]["result"].append({"id": 8, "coeff": "1/2"})
    products = prelie_from_dict(doc).products
    assert products[1, 2] == Polynomial.variable(4) * 3
    assert (1, 3) not in products
    assert products[1, 4].terms() == [(mono(8), Fraction(3, 2))]


def reference_prelie_check(spec):
    """prelie_check over every ordered basis triple, degrees summed afresh."""
    ids = spec.basis_ids()
    return [
        f"preLie identity fails on basis triple ({x}, {y}, {z})"
        for x, y, z in iter_product(ids, repeat=3)
        if spec.degree(x) + spec.degree(y) + spec.degree(z) <= spec.truncation
        and _reference_associator(spec, x, y, z) != _reference_associator(spec, x, z, y)
    ]


def _reference_associator(spec, x, y, z):
    """(x . y) . z - x . (y . z), one basis product at a time."""
    total = Polynomial.zero()
    for m, c in prelie_product(spec, x, y).terms():
        total = total + prelie_product(spec, m.indices[0], z) * c
    for m, c in prelie_product(spec, y, z).terms():
        total = total - prelie_product(spec, x, m.indices[0]) * c
    return total


def reference_associativity(spec):
    """associativity_report over every monomial triple."""
    mons = [m for m, _ in graded_monomials(spec.basis.values(), spec.truncation)]
    problems = []
    for a, b, c in iter_product(mons, repeat=3):
        if spec.monomial_degree(a * b * c) > spec.truncation:
            continue
        lhs = guin_oudom_poly(spec, guin_oudom_mul(spec, a, b), Polynomial.single(c))
        rhs = guin_oudom_poly(spec, Polynomial.single(a), guin_oudom_mul(spec, b, c))
        if lhs != rhs:
            problems.append(f"enveloping product not associative on ({a}, {b}, {c})")
    return problems


def _associativity_with_unit(spec):
    """The associativity report over every monomial triple under the
    truncation, unit included, by the nested loop the report ran before it
    skipped unit factors."""
    t = spec.truncation
    mons = [
        (m, spec.monomial_degree(m), Polynomial.single(m))
        for m, _ in graded_monomials(spec.basis.values(), t)
    ]
    problems = []
    for a, da, single_a in mons:
        for b, db, _ in mons:
            if da + db > t:
                break
            ab = guin_oudom_mul(spec, a, b)
            for c, dc, single_c in mons:
                if da + db + dc > t:
                    break
                lhs = guin_oudom_poly(spec, ab, single_c)
                rhs = guin_oudom_poly(spec, single_a, guin_oudom_mul(spec, b, c))
                if lhs != rhs:
                    problems.append(
                        f"enveloping product not associative on ({a}, {b}, {c})"
                    )
    return problems


def _single_constant_corruptions(spec, step=1):
    """Every copy of the table with one structure constant raised by step."""
    for key, value in sorted(spec.products.items()):
        for m, _ in value.terms():
            products = dict(spec.products)
            products[key] = value + Polynomial.single(m, step)
            yield PreLieSpec("corrupt", spec.basis.values(), products, spec.truncation)


def _packed_and_polynomial_recursions_agree(spec):
    """Every brace and enveloping product up to one degree past the
    truncation is the same value, or the same InputError, on spec's packed
    frame as by the `Polynomial` recursions."""
    brace, product = polynomial_recursions(spec)
    top = spec.truncation + 1

    def outcome(fn, *args):
        try:
            return fn(*args)
        except InputError:
            return InputError

    raised = 0
    for i in spec.basis_ids():
        for right, _ in graded_monomials(spec.basis.values(), top - spec.degree(i)):
            got = outcome(brace_action, spec, i, right)
            assert got == outcome(brace, i, right), (i, right)
            raised += got is InputError
    mons = graded_monomials(spec.basis.values(), top)
    for a, da in mons:
        for b, db in mons:
            if da + db > top:
                break
            got = outcome(guin_oudom_mul, spec, a, b)
            assert got == outcome(product, a, b), (a, b)
            raised += got is InputError
    assert raised


@pytest.mark.parametrize(
    "make",
    [lambda n=n: grafting_instance(n) for n in (4, 5, 6, 7)] + [lambda: witt(8)]
    + [lambda k=k, top=top: vector_fields(k, top) for k, top in ((2, 4), (3, 2))],
    ids=["grafting-4", "grafting-5", "grafting-6", "grafting-7", "witt-8",
         "vector-fields-2-4", "vector-fields-3-2"],
)
def test_packed_frame_matches_the_polynomial_recursions(make):
    _packed_and_polynomial_recursions_agree(make())


def test_packed_frame_matches_the_polynomial_recursions_off_preLie():
    # The two engines peel the same factors, so they agree on every
    # corruption too, preLie or not.
    base = grafting_instance(5)
    tables = [spec for step in (1, Fraction(1, 3)) for spec in _single_constant_corruptions(base, step)]
    assert len(tables) == 78
    for spec in tables:
        _packed_and_polynomial_recursions_agree(spec)


def test_associativity_without_unit_triples_gives_the_full_report():
    # A unit factor is an identity of guin_oudom_mul on every table, so the
    # triples the report skips never fail.
    base = grafting_instance(5)
    tables = list(_single_constant_corruptions(base))
    assert len(tables) == 39
    failing = 0
    for spec in tables:
        got = associativity_report(spec)
        assert got == _associativity_with_unit(spec)
        failing += bool(got)
        for a, _ in graded_monomials(spec.basis.values(), spec.truncation):
            assert guin_oudom_mul(spec, a, UNIT) == Polynomial.single(a)
            assert guin_oudom_mul(spec, UNIT, a) == Polynomial.single(a)
    assert failing == 36


@pytest.mark.parametrize("n", [4, 5, 6])
def test_unit_is_a_two_sided_identity_of_the_enveloping_product(n):
    spec = grafting_instance(n)
    for a, _ in graded_monomials(spec.basis.values(), n):
        assert guin_oudom_mul(spec, a, UNIT) == Polynomial.single(a)
        assert guin_oudom_mul(spec, UNIT, a) == Polynomial.single(a)


def reference_filtration(spec):
    """filtration_report over every pair of non-unit monomials."""
    mons = [m for m, _ in graded_monomials(spec.basis.values(), spec.truncation)[1:]]
    problems = []
    for a, b in iter_product(mons, repeat=2):
        degree = spec.monomial_degree(a * b)
        if degree > spec.truncation:
            continue
        for m, _ in guin_oudom_mul(spec, a, b).terms():
            if not len(a) <= len(m) <= len(a) + len(b):
                problems.append(
                    f"product ({a})*({b}) leaves the length window "
                    f"[{len(a)}, {len(a) + len(b)}]: term {m}"
                )
            if spec.monomial_degree(m) != degree:
                problems.append(f"product ({a})*({b}) is not homogeneous: term {m}")
    return problems


@pytest.mark.parametrize(
    "make", [lambda: grafting_instance(5), broken_prelie], ids=["grafting-5", "broken"]
)
def test_reports_match_all_tuples_references(make):
    spec = make()
    assert prelie_check(spec) == reference_prelie_check(spec)
    assert associativity_report(spec) == reference_associativity(spec)
    assert filtration_report(spec) == reference_filtration(spec)


def test_filtration_report_names_each_failing_term_in_term_order():
    # No table that validates fails the filtration, so once the report has
    # filled the frame's memo, one packed product on it is replaced: b1 *
    # b1b1 (degree 3, lengths 1..3) gets a term of the wrong degree, a good
    # one, and one too long and too high.
    spec = grafting_instance(4)
    assert filtration_report(spec) == []
    frame = _frame_of(spec)
    pack = frame.pack
    frame.products[pack(mono(1)), pack(mono(1, 1))] = {
        pack(mono(1, 1, 1, 1)): 1, pack(mono(3)): 2, pack(mono(2)): 1
    }
    got = filtration_report(spec)
    assert got == reference_filtration(spec) == [
        "product (b1)*(b1b1) is not homogeneous: term b2",
        "product (b1)*(b1b1) leaves the length window [1, 3]: term b1b1b1b1",
        "product (b1)*(b1b1) is not homogeneous: term b1b1b1b1",
    ]


def test_prelie_loader_rejects_malformed_text():
    with pytest.raises(InputError):
        load_prelie("[1, 2")
