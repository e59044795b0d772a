"""The antipode computed three ways, its convolution characterization, and
the term-count statistics."""

import random
import re
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb, factorial, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hopfforest import antipode, cli
from hopfforest.algebra import UNIT, Monomial, Polynomial, Tensor, mono
from hopfforest.antipode import (
    METHODS,
    TermStats,
    antipode_forest,
    antipode_generator,
    antipode_dyson_salam,
    antipode_poly,
    term_stats,
)
from hopfforest.coproduct import (
    coassociativity_report,
    convolution_check,
    counit_report,
    coproduct_poly,
    frame_over,
    iterated_reduced_poly,
    monomials_up_to,
)
from hopfforest.errors import InputError
from hopfforest.hopfspec import (
    CoproductEntry,
    CoproductSpec,
    Generator,
    faa_di_bruno_spec,
    graded_monomials,
    sym_spec,
)
from hopfforest.linearize import k_linearizations
from hopfforest.prelie import dualize, grafting_instance
from hopfforest.trees import enumerate_trees, leaf, tree_multiplicity
import coproduct_oracle as oracle
from route_recursions import bogoliubov_recursion, forest_recursion
from diffeomorphism_inversion import inverse_antipode, numbering
from series_reversion import evaluate, lagrange_antipode
from vector_fields import vector_fields
from test_coproduct import BOGOLIUBOV_DIFFERS, _convolution_per_monomial, monomial_antipode
from tree_recursion import recursive_trees
from tree_walkers import height, tree_coefficient, vertex_count, vertex_monomial

GOLDEN = {
    1: "-1 b1",
    2: "-1 b2 + 3 b1b1",
    3: "-1 b3 + 10 b1b2 - 15 b1b1b1",
    4: "-1 b4 + 15 b1b3 + 10 b2b2 - 105 b1b1b2 + 105 b1b1b1b1",
    5: "-1 b5 + 21 b1b4 + 35 b2b3 - 210 b1b1b3 - 280 b1b2b2"
    " + 1260 b1b1b1b2 - 945 b1b1b1b1b1",
}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("i", sorted(GOLDEN))
def test_generator_goldens(fdb6, method, i):
    assert antipode_generator(fdb6, i, method).render() == GOLDEN[i]


@pytest.mark.parametrize("i", [1, 2, 3, 4, 5, 6])
def test_methods_agree(fdb6, i):
    results = {m: antipode_generator(fdb6, i, m) for m in METHODS}
    assert results["forest"] == results["dyson-salam"] == results["bogoliubov"]


@pytest.mark.parametrize("method", METHODS)
def test_convolution_identity(fdb6, method):
    antipode = monomial_antipode(fdb6, method)
    assert convolution_check(fdb6, 5, method) == oracle.convolution_check(fdb6, 5, antipode) == []


def test_antipode_is_an_involution_here(fdb6):
    # On a commutative algebra the antipode squares to the identity.
    for m in monomials_up_to(fdb6, 5):
        p = Polynomial.single(m)
        assert antipode_poly(fdb6, antipode_poly(fdb6, p)) == p


def test_antipode_poly_extends_multiplicatively(fdb6):
    assert antipode_poly(fdb6, Polynomial.one()) == Polynomial.one()
    assert antipode_poly(fdb6, Polynomial.zero()).is_zero
    assert antipode_poly(fdb6, Polynomial.single(mono(1, 1))) == Polynomial.single(
        mono(1, 1)
    )
    got = antipode_poly(fdb6, Polynomial.single(mono(1, 2)))
    assert got.render() == "1 b1b2 - 3 b1b1b1"
    mixed = Polynomial({mono(2): 2, mono(1, 1): 1})
    assert antipode_poly(fdb6, mixed) == (
        antipode_poly(fdb6, Polynomial.single(mono(2))) * 2
        + antipode_poly(fdb6, Polynomial.single(mono(1, 1)))
    )


def test_antipode_poly_builds_one_frame(frames_built):
    # b3, b5, b7 and b12 in ascending order share one frame over all four;
    # a constant builds none, and bad input fails as it did per generator.
    p = Polynomial({mono(3): 1, mono(5, 7): Fraction(1, 2), mono(12): -2})
    for method in METHODS:
        frames_built.clear()
        got = antipode_poly(faa_di_bruno_spec(12), p, method)
        assert len(frames_built) == 1, method
        spec = faa_di_bruno_spec(12)
        s = {i: antipode_generator(spec, i, "bogoliubov") for i in (3, 5, 7, 12)}
        assert got == s[3] + Fraction(1, 2) * s[5] * s[7] - 2 * s[12], method
        frames_built.clear()
        assert antipode_poly(spec, 3 * Polynomial.one(), method) == 3 * Polynomial.one()
        assert frames_built == []
        with pytest.raises(InputError, match=r"^unknown generator id 99$"):
            antipode_poly(spec, p + Polynomial.variable(99), method)
    for q in (p + Polynomial.variable(99), Polynomial.one()):
        with pytest.raises(InputError, match=r"^unknown antipode method 'nope'; choose from"):
            antipode_poly(faa_di_bruno_spec(12), q, "nope")


def _fdb6_with_a_third_more():
    """fdb 6 with the coefficient of its last row raised by 1/3."""
    base = faa_di_bruno_spec(6)
    *entries, e = base.entries
    raised = CoproductEntry(e.source, e.left, e.right, e.coeff + Fraction(1, 3))
    return CoproductSpec("corrupt", base.generators.values(), [*entries, raised])


@pytest.mark.parametrize(
    "make, scale",
    [
        (lambda: dualize(grafting_instance(5), 5), 24),
        (lambda: dualize(grafting_instance(6), 6), 120),
        (_fdb6_with_a_third_more, 3),
    ],
    ids=["grafting-5-dual", "grafting-6-dual", "fdb-6-plus-1/3"],
)
def test_antipode_poly_is_the_product_of_the_decoded_generator_antipodes(make, scale):
    # The packed sum is an element, not the image of a generator, so it is
    # decoded without the frame scale a generator's antipode carries: the
    # unit, a power, products and a sum with fractional coefficients.
    spec = make()
    ids = spec.generator_ids()
    low, top = ids[0], ids[-1]
    monomials = [UNIT, mono(low), mono(low, low, low), mono(low, top), mono(*ids[:3])]
    monomials.append(mono(top, top))
    p = Polynomial({m: Fraction(n + 1, 3) for n, m in enumerate(monomials)})
    for method in METHODS:
        s = {i: antipode_generator(spec, i, method) for i in ids}
        assert frame_over(spec, ids).scale == scale
        expected = Polynomial.zero()
        for m, c in p.items():
            expected = expected + c * prod((s[i] for i in m), start=Polynomial.one())
        assert antipode_poly(spec, p, method) == expected, method


def _dyson_salam_by_tensors(spec, p):
    """The Dyson-Salam sum through whole tensors: each rank-k iterated
    reduced coproduct built in full, multiplied out, then summed with sign
    (-1)^k."""
    bound = max(spec.monomial_degree(m) for m, _ in p.items())
    total = Polynomial.zero()
    for k in range(1, bound + 1):
        total = total + iterated_reduced_poly(spec, p, k).multiplied_out() * (-1) ** k
    return total


@pytest.fixture(scope="module")
def dual6():
    return dualize(grafting_instance(6), 6)


#: fdb 6 relabelled so that id order, degree order and field order differ
_SPARSE = [1000, 3, 17, 2, 40, 5]


@pytest.mark.parametrize(
    "table, element",
    [("fdb-9", 9), ("sym-14", 14), ("fdb-6", "mixed")]
    # the grafting-6 dual has one generator per rooted tree of <= 6 vertices
    + [("grafting-6-dual", i) for i in range(1, 38)]
    # a generator runs the packed route, any other element its
    # multiplicative extension, antipode_poly: exponents that would fill a
    # packed field (b1^7 fills 3 bits), sparse ids, and 300 fields
    + [("fdb-1", (1,) * k) for k in (1, 3, 7, 8)]
    + [("fdb-3", (1,) * 7 + (2,))]
    + [("fdb-6-sparse", i) for i in _SPARSE]
    + [("fdb-6-sparse", "sparse-mixed")]
    + [("flat-300", "all"), ("flat-300", "all-and-far")]
    # rows rescaled to integers, with Fraction coefficients on the input too
    + [("grafting-6-dual", "fractions")],
    ids=lambda v: Monomial(v).render() if isinstance(v, tuple) else None,
)
def test_two_slot_dyson_salam_matches_the_tensor_route(dual6, table, element):
    if table == "grafting-6-dual":
        assert dual6.generator_ids() == list(range(1, 38))
    spec = {
        "fdb-9": lambda: faa_di_bruno_spec(9),
        "sym-14": lambda: sym_spec(14),
        "fdb-6": lambda: faa_di_bruno_spec(6),
        "grafting-6-dual": lambda: dual6,
        "fdb-1": lambda: faa_di_bruno_spec(1),
        "fdb-3": lambda: faa_di_bruno_spec(3),
        "fdb-6-sparse": lambda: _relabeled_faa_di_bruno(_SPARSE),
        # the flat table of tests/test_cli.py: 300 generators, no rows
        "flat-300": lambda: CoproductSpec(
            "flat", [Generator(i, 1) for i in range(1, 301)], []
        ),
    }[table]()
    flat = {mono(i): i for i in range(1, 301)}
    if isinstance(element, int):
        p = Polynomial.variable(element)
    elif isinstance(element, tuple):
        p = Polynomial.single(Monomial(element))
    else:
        p = Polynomial({
            # mixed degrees: each term's iterates vanish at a different rank
            "mixed": {mono(1, 2): 2, mono(3): -1, mono(1): 5},
            "sparse-mixed": {mono(1000, 3): 2, mono(17): -1, mono(1000): 5},
            "all": flat,
            "all-and-far": {**flat, mono(1, 150, 300): -2},
            "fractions": {
                mono(2, 3): Fraction(2, 3),
                mono(37): Fraction(-5, 7),
                mono(1): 3,
                mono(1, 1, 9): Fraction(1, 2),
            },
        }[element])
    if isinstance(element, int):
        got = antipode_dyson_salam(spec, element)
    else:
        got = antipode_poly(spec, p, "dyson-salam")
    assert got == _dyson_salam_by_tensors(spec, p)
    if table == "fdb-1":
        assert got == Polynomial.single(Monomial(element), (-1) ** len(element))


def _dyson_salam_first_slot(spec, i):
    """The two-slot Dyson-Salam sum on b_i with the first slot expanded
    instead of the last: (slot 1) (x) (slot 2 ... slot k)."""
    iterate = Tensor(2, {(mono(i), UNIT): 1})
    total, memo = Polynomial.zero(), {}
    for k in range(1, spec.degree(i) + 1):
        total = total + iterate.multiplied_out() * (-1) ** k
        iterate = Tensor(
            2,
            [
                ((left, right * b), c * c2)
                for (a, b), c in iterate.items()
                for (left, right), c2 in oracle.reduced_coproduct(spec, a, memo).items()
            ],
        )
    return total


def test_dyson_salam_is_the_forest_recursion_on_corrupted_tables(corrupted):
    # Expanding the last slot of b's iterate gives -b - sum of c * b_l times
    # the route on b_J, the forest recursion; expanding the first slot gives
    # Bogoliubov's.  On a table that is not coassociative the two differ, and
    # the route must stay with the forest.  Each table has one row
    # coefficient raised by 1.
    name, _, _, tables = corrupted
    differs = 0
    for spec in tables:
        routes = [
            [antipode_generator(spec, i, method) for i in spec.generator_ids()]
            for method in ("dyson-salam", "forest", "bogoliubov")
        ]
        assert routes[0] == routes[1]
        first_slot = [_dyson_salam_first_slot(spec, i) for i in spec.generator_ids()]
        assert routes[2] == first_slot
        differs += routes[2] != routes[1]
    assert differs == BOGOLIUBOV_DIFFERS[name]


def _assert_routes_follow_their_recursions(spec, shared):
    """Each packed route equals its own recursion on every generator of spec,
    term for term, and Dyson-Salam equals the forest's.  With ``shared``,
    one frame over all generators serves every route, as in `verify`;
    without, each call numbers what its generator reaches."""
    ids = spec.generator_ids()
    if shared:
        frame_over(spec, ids)
    forest, bogoliubov = {}, {}
    for i in ids:
        oracle = forest_recursion(spec, i, forest)
        for method in ("forest", "dyson-salam"):
            assert antipode._GENERATOR_METHODS[method](spec, i).terms() == oracle.terms()
        oracle = bogoliubov_recursion(spec, i, bogoliubov)
        assert antipode._GENERATOR_METHODS["bogoliubov"](spec, i).terms() == oracle.terms()
    return sum(forest[i] != bogoliubov[i] for i in ids)


@pytest.mark.parametrize("shared", [False, True], ids=["own-frame", "shared-frame"])
@pytest.mark.parametrize(
    "build",
    [lambda: faa_di_bruno_spec(12), lambda: dualize(grafting_instance(6), 6)],
    ids=["fdb12", "graft6-dual"],
)
def test_packed_routes_follow_their_own_recursions(build, shared):
    assert _assert_routes_follow_their_recursions(build(), shared) == 0


def test_packed_routes_follow_their_own_recursions_on_corrupted_tables(corrupted):
    # Bogoliubov must reproduce its own recursion where the two disagree,
    # not the forest's.  Fresh copies, so no memo of another test answers.
    name, _, _, tables = corrupted
    differs = 0
    for k, table in enumerate(tables):
        spec = CoproductSpec("corrupt", table.generators.values(), table.entries)
        differs += bool(_assert_routes_follow_their_recursions(spec, k % 2 == 1))
    assert differs == BOGOLIUBOV_DIFFERS[name]


@pytest.mark.parametrize("bad", [True, 0, -1])
def test_routes_reject_ids_that_are_not_positive_integers(bad):
    # The recursions look the id up in the table first, so 0 and -1 are
    # unknown ids there; Dyson-Salam checks the monomial b_i first.
    positive = f"generator indices must be positive integers, got {bad!r}"
    unknown = positive if bad is True else f"unknown generator id {bad}"
    expected = {"forest": unknown, "dyson-salam": positive, "bogoliubov": unknown}
    spec = faa_di_bruno_spec(3)
    for method in METHODS:
        with pytest.raises(InputError, match=f"^{re.escape(expected[method])}$"):
            antipode._GENERATOR_METHODS[method](spec, bad)
        with pytest.raises(InputError, match=f"^{re.escape(expected[method])}$"):
            antipode_generator(spec, bad, method)
    for method in METHODS:
        for i in reversed(spec.generator_ids()):
            value = antipode_generator(spec, i, method)
            assert all(type(j) is int for m, _ in value.items() for j in m)


def test_a_frame_that_numbers_1_rejects_true():
    # True equals 1 as a dict key, so only an explicit check keeps it out of
    # the frame b3 left on the table, which numbers b1, and out of every
    # output monomial.
    spec = faa_di_bruno_spec(3)
    for method in METHODS:
        antipode._GENERATOR_METHODS[method](spec, 3)
        with pytest.raises(InputError, match="^generator indices must be positive"):
            antipode._GENERATOR_METHODS[method](spec, True)


def _right_convolution(spec, max_degree, antipode):
    """The generators of degree <= max_degree on which (id * antipode) does
    not vanish, the mirror image of `convolution_check`."""
    return [
        i
        for i in spec.generator_ids()
        if spec.degree(i) <= max_degree
        and not Polynomial(
            (a * sb, c * cb)
            for (a, b), c in oracle.full_coproduct(spec, mono(i)).items()
            for sb, cb in antipode(b).items()
        ).is_zero
    ]


def test_each_route_can_fail_only_the_convolution_its_recursion_leaves_open(
    corrupted,
):
    # On a generator, (S * id)(b) = 0 is Bogoliubov's recursion and
    # (id * S)(b) = 0 the forest recursion, which Dyson-Salam follows too.
    # So the bogoliubov convolution line of verify passes on every table,
    # and the forest and Dyson-Salam lines fail exactly when their values
    # differ from Bogoliubov's; the right convolution is the mirror image.
    # Each table has one row coefficient raised by 1.
    name, _, degree, tables = corrupted
    failed = {(side, method): 0 for side in ("left", "right") for method in METHODS}
    for spec in tables:
        for method in METHODS:
            antipode = monomial_antipode(spec, method)
            failed["left", method] += bool(convolution_check(spec, degree, method))
            failed["right", method] += bool(_right_convolution(spec, degree, antipode))
    caught = BOGOLIUBOV_DIFFERS[name]
    left = {"forest": caught, "dyson-salam": caught, "bogoliubov": 0}
    assert {m: failed["left", m] for m in METHODS} == left
    right = {"forest": 0, "dyson-salam": 0, "bogoliubov": caught}
    assert {m: failed["right", m] for m in METHODS} == right
    assert len(tables) == {"fdb-6": 31, "grafting-5-dual": 68}[name]


def test_dyson_salam_is_the_forest_recursion_on_a_chain_table():
    # Rows (b_i; b_1; [b_(i-1)]): not coassociative from b3 on.  The forest
    # route gives S(b_n) = sum over k < n of (-1)^(k+1) b1^k b_(n-k), and
    # Bogoliubov gives -b_n + b1 b_(n-1).
    n = 12
    spec = CoproductSpec(
        "chain",
        [Generator(i, i) for i in range(1, n + 1)],
        [CoproductEntry(i, 1, (i - 1,), 1) for i in range(2, n + 1)],
    )
    for i in range(1, n + 1):
        forest = antipode_generator(spec, i, "forest")
        assert forest == Polynomial(
            (Monomial([1] * k + [i - k]), (-1) ** (k + 1)) for k in range(i)
        )
        assert antipode_generator(spec, i, "dyson-salam") == forest
        bogoliubov = antipode_generator(spec, i, "bogoliubov")
        assert bogoliubov == _dyson_salam_first_slot(spec, i)
        assert (bogoliubov == forest) == (i <= 2)


def test_ungraded_table_is_rejected_at_construction():
    # Each row breaks the grading.  Built unchecked, (2; 1; [2]) sent tree
    # enumeration into unbounded recursion while dyson-salam and bogoliubov
    # returned -1 b2 + 1 b1b2, and (2; 2; [1]) sent bogoliubov into
    # unbounded recursion.
    for row in [(2, 1, (2,)), (2, 2, (1,))]:
        with pytest.raises(InputError, match=r"^invalid spec: .*degrees 3 != degree\(2\) = 2"):
            CoproductSpec(
                "ungraded",
                [Generator(1, 1), Generator(2, 2)],
                [CoproductEntry(*row, 1)],
            )


def test_unknown_method_rejected(fdb6):
    with pytest.raises(InputError):
        antipode_generator(fdb6, 2, "newton")


@pytest.mark.parametrize(
    "call",
    [
        # the unit's antipode needs no generator, so only an entry check sees it
        lambda spec: antipode_poly(spec, Polynomial.one(), "newton"),
    ],
    ids=["poly-of-unit"],
)
def test_unknown_method_rejected_on_entry(fdb6, call):
    with pytest.raises(InputError, match="^unknown antipode method 'newton'"):
        call(fdb6)


@pytest.mark.parametrize("method", METHODS)
def test_antipode_of_a_monomial_longer_than_the_recursion_limit(method):
    # S(b1) = -b1 and S(b2) = -b2 + 3 b1b1, so S(b1^300) = b1^300 and
    # S(b1^298 b2) = -b1^298 b2 + 3 b1^300.  Each is a product of
    # generator antipodes taken in turn, with no recursion.
    spec = faa_di_bruno_spec(3)
    b1_300, b1_298_b2 = Monomial([1] * 300), Monomial([1] * 298 + [2])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        got = antipode_poly(spec, Polynomial({b1_300: 1, b1_298_b2: 1}), method)
    finally:
        sys.setrecursionlimit(limit)
    assert got == Polynomial({b1_300: 4, b1_298_b2: -1})


def test_a_bool_id_never_reads_the_memo_of_b1():
    # True == 1 as a dict key, so a memo read before the id check would give
    # True the value of b1 once an int call had stored it.  Both orders: on a
    # fresh table, then after the int calls.
    spec = faa_di_bruno_spec(3)
    for _ in range(2):
        for method in METHODS:
            with pytest.raises(InputError, match="^generator indices must be positive integers, got True$"):
                antipode_generator(spec, True, method)
        with pytest.raises(InputError, match="^source decoration must be a positive integer, got True$"):
            enumerate_trees(spec, True)
        for method in METHODS:
            assert antipode_generator(spec, 1, method) == -Polynomial.variable(1)
        assert enumerate_trees(spec, 1) == (leaf(1),)


@pytest.fixture
def products(monkeypatch):
    """Counts of Polynomial and Tensor products, by class name."""
    calls = Counter()
    for cls in (Polynomial, Tensor):

        def counted(self, other, mul=cls.__mul__, name=cls.__name__):
            calls[name] += 1
            return mul(self, other)

        monkeypatch.setattr(cls, "__mul__", counted)
    return calls


@pytest.mark.parametrize("method", METHODS)
def test_a_monomial_antipode_multiplies_no_free_module_values(free_module_refused, method):
    # S(b_I) multiplies the packed generator values quotient by quotient on
    # the frame, so no Polynomial, Tensor or Monomial product is taken: not
    # for b1^1000 on either call, nor for the unit, a generator or b1^k on
    # a fresh table.
    free_module_refused()
    spec = faa_di_bruno_spec(3)
    power = Monomial([1] * 1000)
    for _ in range(2):
        assert antipode_poly(spec, Polynomial.single(power), method) == Polynomial.single(power)
    fresh = monomial_antipode(faa_di_bruno_spec(3), method)
    assert fresh(UNIT) == Polynomial.one()
    assert fresh(mono(2)) == Polynomial({mono(2): -1, mono(1, 1): 3})
    for k in range(1, 40):
        assert fresh(Monomial([1] * k)) == Polynomial.single(Monomial([1] * k), (-1) ** k)


def test_coproduct_of_a_monomial_longer_than_the_recursion_limit(products):
    # Delta(b1) = b1 (x) 1 + 1 (x) b1 and Delta(b2) = b2 (x) 1 + 1 (x) b2
    # + 3 b1 (x) b1, so Delta(b1^n) = sum_j C(n, j) b1^j (x) b1^(n-j), and
    # Delta(b1^298 b2) is that for n = 298 times Delta(b2).  The frame fills
    # the coproduct quotient by quotient, all 300 of them in one call.  The
    # per-monomial convolution check then runs on b1^300 and every shorter
    # power, and by hand on both monomials of p.
    spec = faa_di_bruno_spec(3)
    b2 = mono(2)
    power = [Monomial([1] * n) for n in range(301)]
    p = Polynomial({power[300]: 1, power[298] * b2: 1})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        delta = coproduct_poly(spec, p)
        # the check asks for every power's image, so keep each one
        antipode_of = cache(monomial_antipode(spec, "bogoliubov"))
        problems = _convolution_per_monomial(spec, power, antipode_of)
        convolved = Polynomial(
            (sa * b, c * ca)
            for (a, b), c in delta.items()
            for sa, ca in antipode_of(a).items()
        )
    finally:
        sys.setrecursionlimit(limit)
    terms = Counter()
    for j in range(301):
        terms[power[j], power[300 - j]] += comb(300, j)
    for j in range(299):
        c = comb(298, j)
        terms[power[j] * b2, power[298 - j]] += c
        terms[power[j], power[298 - j] * b2] += c
        terms[power[j + 1], power[299 - j]] += 3 * c
    assert delta == Tensor(2, terms)
    assert convolved.is_zero
    assert problems == []
    # The frame multiplies packed keys, no Tensor; the check's Tensor engine
    # fills b1^2..b1^300 with one product each.
    assert products["Tensor"] == 299


_PACKED_ROUTES = {
    "forest": "_forest", "dyson-salam": "_dyson_salam_of", "bogoliubov": "_bogoliubov"
}


@pytest.mark.parametrize("wrong", METHODS)
def test_each_route_has_its_own_convolution_check(monkeypatch, capsys, wrong):
    # S(beta_i) = -beta_i holds only on primitive generators, so the patched
    # route must fail its check and its verify line, while the packed memos
    # of the other routes stay apart from it and pass.
    def negated(spec, i):
        frame = frame_over(spec, (i,))
        return frame, {frame.field[i]: -1}

    monkeypatch.setattr(antipode, _PACKED_ROUTES[wrong], negated)
    spec = faa_di_bruno_spec(4)
    for method in METHODS:
        problems = convolution_check(spec, 4, method)
        assert bool(problems) == (method == wrong), method
    monkeypatch.setattr(cli, "load_spec_file", lambda path: faa_di_bruno_spec(4))
    assert cli.run(["verify", "--spec", "-", "--max-degree", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    convolutions = [line for line in lines if line.startswith("antipode convolution")]
    assert convolutions == [
        f"antipode convolution ({method}): {'FAIL' if method == wrong else 'ok'}"
        for method in METHODS
    ]


def test_term_stats_goldens(fdb6):
    assert term_stats(fdb6, 3) == TermStats(6, 5)
    expected = {1: (1, 1), 2: (2, 2), 3: (6, 5), 4: (16, 12), 5: (53, 33), 6: (166, 90)}
    for i, (ds, forest_count) in expected.items():
        stats = term_stats(fdb6, i)
        assert (stats.dyson_salam_terms, stats.forest_terms) == (ds, forest_count)
        assert stats.forest_terms <= stats.dyson_salam_terms


def test_forest_expansion_is_cancellation_free(fdb6):
    # Within each vertex parity all weights share a sign, so no like-term
    # cancellation is possible: every monomial's weight has the parity sign.
    # Past fdb 9 and sym 14 this is out of reach of tree enumeration.
    cases = [(fdb6, i) for i in range(1, 7)]
    cases += [(faa_di_bruno_spec(16), 16), (sym_spec(30), 30)]
    for spec, i in cases:
        s = antipode_generator(spec, i, "forest")
        for m, c in s.terms():
            assert c != 0
            assert (c > 0) == (len(m) % 2 == 0)


def _tree_sum(spec, i):
    """The forest formula term by term, over the enumerated realized trees."""
    return Polynomial(
        (
            vertex_monomial(t),
            tree_coefficient(t, spec) * tree_multiplicity(t) * (-1) ** vertex_count(t),
        )
        for t in enumerate_trees(spec, i)
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: faa_di_bruno_spec(9),
        lambda: sym_spec(14),
        lambda: dualize(grafting_instance(5), 5),
        lambda: dualize(grafting_instance(6), 6),
    ],
    ids=["fdb9", "sym14", "graft5-dual", "graft6-dual"],
)
def test_forest_route_is_the_enumerated_tree_sum(build):
    spec = build()
    for i in spec.generator_ids():
        assert antipode_forest(spec, i) == _tree_sum(spec, i)


def _relabeled_faa_di_bruno(order):
    """The composition table with generator ids permuted: nothing in the
    algebra depends on how ids are spelled."""
    base = faa_di_bruno_spec(len(order))
    rename = {old: new for old, new in zip(base.generator_ids(), order)}
    generators = tuple(
        Generator(rename[g.id], g.degree, g.label)
        for g in base.generators.values()
    )
    entries = tuple(
        CoproductEntry(
            rename[e.source],
            rename[e.left],
            tuple(rename[j] for j in e.right),
            e.coeff,
        )
        for e in base.entries
    )
    return CoproductSpec(f"relabeled-{order}", generators, entries)


@settings(max_examples=12, deadline=None)
@given(st.permutations(list(range(1, 6))))
def test_methods_agree_under_generator_relabeling(order):
    spec = _relabeled_faa_di_bruno(order)
    assert spec.validate() == []
    for i in spec.generator_ids():
        results = {m: antipode_generator(spec, i, m) for m in METHODS}
        assert results["forest"] == results["dyson-salam"] == results["bogoliubov"]
    forest = monomial_antipode(spec, "forest")
    assert convolution_check(spec, 4, "forest") == oracle.convolution_check(spec, 4, forest) == []


def _rescaled(base, lam):
    """The table in the basis b'_i = lam[i] b_i: the row (i; l; J) with
    coefficient c becomes c lam_i / (lam_l prod_J lam_j)."""
    entries = [
        CoproductEntry(
            e.source,
            e.left,
            e.right,
            e.coeff * lam[e.source] / (lam[e.left] * prod(lam[j] for j in e.right)),
        )
        for e in base.entries
    ]
    return CoproductSpec("rescaled", base.generators.values(), entries)


@settings(max_examples=10, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool),
        min_size=6,
        max_size=6,
    )
)
@example([1, -1, 1, 1, 1, 1])
def test_rescaled_table_with_signed_fractional_rows(scales):
    lam = dict(enumerate(scales, 1))
    base = faa_di_bruno_spec(6)
    spec = _rescaled(base, lam)
    assert coassociativity_report(spec, 6) == []
    assert counit_report(spec, 6) == []
    for method in METHODS:
        antipode = monomial_antipode(spec, method)
        got = convolution_check(spec, 6, method)
        assert got == oracle.convolution_check(spec, 6, antipode) == []
    # S(b'_i) = lam_i S(b_i) with each b_j written as b'_j / lam_j.
    for i in spec.generator_ids():
        expected = Polynomial(
            (m, c * lam[i] / prod(lam[j] for j in m))
            for m, c in antipode_generator(base, i).terms()
        )
        for method in METHODS:
            assert antipode_generator(spec, i, method) == expected
        assert antipode_forest(spec, i) == _tree_sum(spec, i)


_coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


@st.composite
def _graded_tables(draw):
    """A table that passes `validate`, built by degree: up to five
    generators of degree 1 to 4, and for each a few rows (i; l; J) with
    deg(l) + deg(J) = deg(i), so every leg lies strictly below its source.
    Past degree 2 such a table is seldom coassociative."""
    degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    degree = dict(enumerate(degrees, 1))
    generators = [Generator(i, d) for i, d in degree.items()]
    entries = []
    for i, d in degree.items():
        rows = [
            (l, m)
            for l in degree
            if degree[l] < d
            for m, _ in graded_monomials(generators, d - degree[l])
            if sum(degree[j] for j in m) == d - degree[l]
        ]
        if not rows:
            continue
        for l, m in draw(st.lists(st.sampled_from(rows), unique=True, max_size=3)):
            entries.append(CoproductEntry(i, l, tuple(m), draw(_coefficients)))
    return CoproductSpec("random", generators, entries)


@st.composite
def _rescaled_tables(draw):
    """A composition or symmetric-function table of degree 2 to 5 in a
    rescaled basis: coassociative, with fractional and signed rows."""
    n = draw(st.integers(2, 5))
    base = draw(st.sampled_from([faa_di_bruno_spec, sym_spec]))(n)
    scales = draw(st.lists(_coefficients, min_size=n, max_size=n))
    return _rescaled(base, dict(enumerate(scales, 1)))


@settings(max_examples=40, deadline=None)
@given(st.one_of(_graded_tables(), _rescaled_tables()))
def test_route_identities_on_random_tables(spec):
    top = max(g.degree for g in spec.generators.values())
    values = {
        method: [antipode_generator(spec, i, method) for i in spec.generator_ids()]
        for method in METHODS
    }
    assert values["dyson-salam"] == values["forest"]
    if not coassociativity_report(spec, top):
        assert values["bogoliubov"] == values["forest"]
    monomials = monomials_up_to(spec, top)
    generators = [m for m in monomials if len(m) == 1]
    for method in METHODS:
        antipode = monomial_antipode(spec, method)
        got = convolution_check(spec, top, method)
        assert got == _convolution_per_monomial(spec, generators, antipode)
        assert bool(got) == bool(_convolution_per_monomial(spec, monomials, antipode))
    # Each recursion solves its own side of the convolution on every table.
    assert convolution_check(spec, top, "bogoliubov") == []
    assert _right_convolution(spec, top, monomial_antipode(spec, "forest")) == []


@settings(max_examples=15, deadline=None)
@given(_rescaled_tables(), st.booleans())
def test_packed_routes_follow_their_own_recursions_on_fractional_rows(spec, shared):
    assert _assert_routes_follow_their_recursions(spec, shared) == 0


@settings(max_examples=15, deadline=None)
@given(_rescaled_tables())
def test_frame_coproducts_match_the_tensor_oracle_on_fractional_rows(spec):
    # The frame reads rows in a rescaled integer basis; the Tensor engine
    # multiplies the table's fractions as they are.
    top = max(g.degree for g in spec.generators.values())
    memo = {}
    for m in monomials_up_to(spec, top):
        p = Polynomial.single(m, Fraction(-2, 3))
        assert coproduct_poly(spec, p) == oracle.coproduct(spec, p, memo)
        for k in range(1, top + 2) if m else (1,):
            assert iterated_reduced_poly(spec, p, k) == oracle.iterated_reduced(spec, p, k, memo)


def _partitions(n, largest):
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _antipode_of_h(n):
    """Closed form (Macdonald, ch. I.2): S(h_n) = (-1)^n e_n, which is the
    sum over partitions lambda of n of (-1)^l(lambda) l(lambda)! /
    prod_i m_i(lambda)!  h_lambda."""
    terms = {}
    for parts in _partitions(n, n):
        count = factorial(len(parts))
        for m in Counter(parts).values():
            count //= factorial(m)
        terms[Monomial(parts)] = (-1) ** len(parts) * count
    return Polynomial(terms)


@pytest.mark.parametrize(
    "method, n", [("bogoliubov", 30), ("dyson-salam", 30), ("forest", 30)]
)
def test_symmetric_functions_antipode_matches_the_closed_form(method, n):
    spec = sym_spec(n)
    assert antipode_generator(spec, n, method) == _antipode_of_h(n)


@pytest.fixture(scope="module")
def fdb20():
    return faa_di_bruno_spec(20)


@pytest.mark.parametrize(
    "method, n", [("bogoliubov", 20), ("forest", 20), ("dyson-salam", 18)]
)
def test_composition_antipode_matches_lagrange_inversion(fdb20, method, n):
    # b_n has the same rows in every table of degree >= n, so the
    # degree-20 table serves n = 18 too.
    rng = random.Random(n)
    value = antipode_generator(fdb20, n, method)
    poly = {m.indices: c for m, c in value.terms()}
    for _ in range(3):
        point = {i: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for i in range(1, n + 1)}
        assert evaluate(poly, point) == lagrange_antipode(n, point)


@pytest.mark.parametrize("k, top", [(1, 8), (2, 4), (3, 3)])
def test_vector_field_dual_antipode_matches_compositional_inversion(k, top):
    # The dual's b_{i,alpha} is alpha! times the x^alpha coefficient of the
    # i-th component of a diffeomorphism, and its antipode is that of the
    # inverse; ids follow the oracle's numbering, by degree, i, then alpha.
    spec = dualize(vector_fields(k, top), top)
    fields = numbering(k, top)
    assert [spec.degree(n) for n in spec.generator_ids()] == [sum(a) - 1 for _, a in fields]
    rng = random.Random(k * 100 + top)
    point = {n: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for n in spec.generator_ids()}
    oracle_values = inverse_antipode(k, top, point)
    for method in METHODS:
        for n in spec.generator_ids():
            value = antipode_generator(spec, n, method)
            assert evaluate({m.indices: c for m, c in value.terms()}, point) == oracle_values[n]
        for a, b in ((1, 1), (1, len(fields)), (2, len(fields) - 1)):
            value = antipode_poly(spec, Polynomial.single(mono(a, b)), method)
            got = evaluate({m.indices: c for m, c in value.terms()}, point)
            assert got == oracle_values[a] * oracle_values[b]


def _linearization_count_oracle(spec, i):
    """dyson_salam_terms by its definition: (rank, tree) pairs where the tree
    has at least one level assignment at that rank."""
    return sum(
        sum(1 for k in range(1, vertex_count(t) + 1) if k_linearizations(t, k))
        for t in enumerate_trees(spec, i)
    )


@pytest.mark.parametrize("table", ["fdb6", "dual4"])
def test_term_stats_matches_linearization_count(request, table):
    spec = request.getfixturevalue(table)
    for i in spec.generator_ids():
        stats = term_stats(spec, i)
        assert stats.dyson_salam_terms == _linearization_count_oracle(spec, i)
        assert stats.forest_terms == len(enumerate_trees(spec, i))


def _enumerated_term_stats(spec, i):
    """TermStats read off the enumerated realized trees one by one."""
    trees = enumerate_trees(spec, i)
    return TermStats(
        dyson_salam_terms=sum(vertex_count(t) - height(t) + 1 for t in trees),
        forest_terms=len(trees),
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: faa_di_bruno_spec(9),
        lambda: sym_spec(12),
        lambda: dualize(grafting_instance(6), 6),
    ],
    ids=["fdb9", "sym12", "graft6-dual"],
)
def test_counted_term_stats_match_enumeration(build):
    spec = build()
    for i in spec.generator_ids():
        assert term_stats(spec, i) == _enumerated_term_stats(spec, i)
    with pytest.raises(InputError, match="unknown generator id 99"):
        term_stats(spec, 99)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(_graded_tables())
@example(
    CoproductSpec(
        "repeated-leg",
        [Generator(1, 1), Generator(2, 2), Generator(3, 5)],
        [CoproductEntry(2, 1, (1,), 1), CoproductEntry(3, 1, (2, 2), 2)],
    )
)
def test_counted_term_stats_match_enumeration_on_random_tables(spec):
    # Right legs repeat ids here, and rows are seldom coassociative.  Below
    # degree 5 a repeated leg has one tree; in the example the row
    # (3; 1; [2, 2]) takes a multiset of two of b2's two trees.  One fresh
    # table fills its counts from the top generator down, another from the
    # bottom up.
    again = CoproductSpec(spec.name, spec.generators.values(), spec.entries)
    ids = spec.generator_ids()
    for table, order in ((spec, sorted(ids, reverse=True)), (again, sorted(ids))):
        for i in order:
            assert term_stats(table, i) == _enumerated_term_stats(table, i)


@st.composite
def _repeated_leg_tables(draw):
    """A `_graded_tables` draw plus one generator d above it with the one
    row (d; l; [r, r]), where b_r has a row and so two or more realized
    trees: a repeated leg whose multisets of subtrees are not all pairs of
    equal trees, which the draws of degree 4 or less never have."""
    spec = draw(_graded_tables())
    legs = [r for r in spec.generator_ids() if spec.entries_for(r)]
    assume(legs)
    r = draw(st.sampled_from(legs))
    l = draw(st.sampled_from(spec.generator_ids()))
    d = max(spec.generators) + 1
    return CoproductSpec(
        "repeated-leg",
        [*spec.generators.values(), Generator(d, spec.degree(l) + 2 * spec.degree(r))],
        [*spec.entries, CoproductEntry(d, l, (r, r), draw(_coefficients))],
    )


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(_repeated_leg_tables())
@example(faa_di_bruno_spec(7))
@example(dualize(grafting_instance(5), 5))
def test_enumeration_matches_the_recursive_oracle_on_repeated_legs(spec):
    # The enumerator picks each repeated leg's subtrees as a multiset of
    # ranks and the count as a binomial; the oracle collects checked trees
    # in a set.  An ordered choice of ranks lists a tree once per order,
    # and a count without the binomial misses the mixed multisets.
    for i in spec.generator_ids():
        trees = enumerate_trees(spec, i)
        assert trees == recursive_trees(spec, i)
        assert term_stats(spec, i) == _enumerated_term_stats(spec, i)


def test_term_stats_of_h_n_count_chains():
    # Every realized tree of h_n is a chain, which has one linearization
    # per rank equal to its height, and T(n) = 1 + sum over m < n of T(m).
    for n in range(1, 41):
        assert term_stats(sym_spec(n), n) == TermStats(2 ** (n - 1), 2 ** (n - 1))
